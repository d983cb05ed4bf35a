"""The README's Python blocks run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    final = namespace["result"].report.final
    assert {"var_rho", "mean_K", "sd_K", "folds"} <= final.keys()
    assert final["folds"] == 0
