"""End-to-end solid ball parameterization drivers.

Three variational flavors run one loop (``_iterate``): map the boundary to the
unit sphere, fill the interior harmonically, evaluate this initial ball, then
repeat step, settle, evaluate, stop, record, for at most n_max steps. A method
supplies only its step and its stop rule. ``3dqc`` descends the per-tet
anisotropy ratios and rejects the candidate, converged, once the energy stops
decreasing. ``3ddem`` takes one ``density.flow_step`` per iteration, the
surface flow's step one dimension up, with the tet pieces (lumped volumes,
Laplacian, volumes, ``density_gradient``) from one ``tet_gradients`` pass, and
has converged once sd/mean of the vertex density is below eps, tested on the
initial ball and after every step. ``3ddeq`` blends the two through per-tet
eigenvalue updates and has converged once the largest vertex displacement is
below eps. Settling makes every iterate fold-free by a three-pass overlap
correction (spherical boundary repair, interior reconstruction with the
boundary fixed, boundary reconstruction with the interior fixed). With the
correction off, a candidate that still folds is recorded with var_rho None and
ends the run, whatever the method.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import density as dem
from .distortion import (TetFrameField, flip_eigenvalues, frame_decompose,
                         jacobian_per_tet, reconstruct_map, residual_step,
                         truncate_eigenvalues)
from .laplace import harmonic_fill
from .report import RunReport
from .sphere_map import (BoundaryMap, SphereMapError, compute_boundary_sphere_map,
                         correct_spherical_flips, normalize_rows, relax_patch,
                         spherical_embedding, spherical_flips,
                         surface_density_equalize, triangle_geometry, vertex_rings)
from .tetmesh import TetMesh, signed_volumes, tet_gradients

METHODS = ("3dqc", "3ddem", "3ddeq")


NEAR_FOLD_RATIO = 1e3

# Population refinement rounds of the density-equalizing initial ball.
REFINE_ROUNDS = 2


class CorrectionError(RuntimeError):
    def __init__(self, folds: int):
        super().__init__(f"overlap correction budget exhausted: {folds} folds remain")
        self.folds = folds


@dataclass
class SolverConfig:
    """Shared knobs of the parameterization drivers.

    dt and eps drive the diffusion flow and its stopping rules, k_threshold
    caps the anisotropy ratio during truncation, residual_constant weights the
    residual descent, and alpha balances the density and geometry terms of the
    combined flow.
    """

    dt: float = 0.1
    eps: float = 1e-2
    n_max: int = 100
    k_threshold: float = 10.0
    residual_constant: float = 50.0
    alpha: float = 0.01
    boundary_mode: str = "auto"  # auto | conformal | dem
    correction: bool = True

    def __post_init__(self):
        numbers = ("dt", "eps", "n_max", "k_threshold", "residual_constant", "alpha")
        bad = [name for name in numbers if not math.isfinite(getattr(self, name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.dt <= 0 or self.eps <= 0 or self.n_max < 1:
            raise ValueError("dt, eps must be positive and n_max >= 1")
        if self.k_threshold <= 1 or self.residual_constant <= 0 or self.alpha < 0:
            raise ValueError("need k_threshold > 1, residual_constant > 0, alpha >= 0")
        if self.boundary_mode not in ("auto", "conformal", "dem"):
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")

    def resolved_boundary_mode(self, method: str) -> str:
        """``conformal`` or ``dem``; ``auto`` is conformal for 3dqc only."""
        if self.boundary_mode != "auto":
            return self.boundary_mode
        return "conformal" if method == "3dqc" else "dem"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    positions: np.ndarray
    report: RunReport
    converged: bool
    initial_positions: np.ndarray


def _boundary_cone_volumes(mesh: TetMesh) -> np.ndarray:
    """Volume of the cone spanned by each boundary face and the mesh centroid.

    Used as the default surface population of the density-equalizing boundary
    map: equalizing it allocates sphere area in proportion to the volume each
    boundary column carries, which for affine images of a ball reproduces the
    volume-fair boundary layout exactly. Falls back to plain face areas when
    the solid is not star-shaped about its centroid (cones then overlap and
    signed volumes change sign).
    """
    cones = np.insert(mesh.boundary_faces, 0, len(mesh.vertices), axis=1)  # centroid first
    signed = signed_volumes(np.vstack([mesh.vertices, mesh.vertices.mean(axis=0)]), cones)
    if signed.min() <= 1e-14 * signed.max():
        return 0.5 * triangle_geometry(mesh.vertices, mesh.boundary_faces).area2
    return signed


def initial_ball(mesh: TetMesh, config: SolverConfig | None = None,
                 method: str = "3dqc") -> np.ndarray:
    """Initial unit ball map: spherical boundary plus harmonic interior.

    In density-equalizing boundary mode the surface population starts from the
    boundary cone volumes and is refined up to REFINE_ROUNDS rounds against
    the measured volumetric compression of the fill (solids with
    concave-prone corners, like cubes, otherwise start with a strong density
    spike at the corner images). The spherical embedding is computed once
    and each round reruns only the surface flow from it. The best fold-free
    fill is kept.
    """
    config = config or SolverConfig()
    if config.resolved_boundary_mode(method) == "conformal":
        bmap = compute_boundary_sphere_map(mesh)
        return harmonic_fill(mesh, bmap.points, bmap.vertex_indices)

    cone = _boundary_cone_volumes(mesh)
    rest_vols = np.abs(mesh.volumes)
    face_population = cone.copy()
    best = None
    best_var = np.inf
    # the embedding depends only on the surface: each round reruns the flow
    vertex_ids, faces = mesh.boundary_surface()
    embedded = spherical_embedding(mesh.vertices[vertex_ids], faces)
    for _ in range(REFINE_ROUNDS + 1):
        sphere = surface_density_equalize(embedded, faces, face_population,
                                          dt=config.dt, eps=config.eps,
                                          max_iter=config.n_max)
        bmap = BoundaryMap.checked(vertex_ids, faces, sphere)
        pos = harmonic_fill(mesh, bmap.points, bmap.vertex_indices)
        if mesh.count_folds(pos):
            break
        field = dem.recouple_density(mesh, pos, rest_vols)
        var = normalized_density_variance(field.rho_vertex)
        if var >= best_var:
            break
        best, best_var = pos, var
        face_population = cone * field.rho_tet[mesh.boundary_owners]
    if best is None:
        # every refinement fill folded; fall back to the plain fill and let
        # the caller's overlap correction deal with it
        best = pos
    return best


def correct_overlaps(mesh: TetMesh, positions: np.ndarray, k_threshold: float = 10.0,
                     budget: int = 10,
                     reference_boundary: np.ndarray | None = None,
                     near_fold_ratio: float | None = None,
                     frames: TetFrameField | None = None) -> np.ndarray:
    """Remove inverted tets from a ball map, preserving the spherical boundary.

    Rounds of three passes run until the map is fold-free: (1) repair flipped
    spherical triangles on the boundary surface, (2) rebuild the interior with
    the boundary fixed after flipping and truncating the eigenvalues of folded
    tets, (3) rebuild the boundary with the interior fixed to release folds
    pinned against the sphere, then project the boundary back to unit norm.

    ``mesh`` provides the rest geometry; ``reference_boundary`` must be a
    flip-free spherical configuration of the boundary vertices and defaults to
    the normalized rest boundary (exact when the rest mesh is itself a ball).
    With ``near_fold_ratio`` set, tets whose anisotropy ratio exceeds it are
    truncated alongside the truly folded ones (they are one flow step away
    from folding and otherwise escape all relief). ``frames``, when given, is
    the decomposition of ``positions`` the caller already holds; it is used
    instead of decomposing them again.
    """
    b_ids, b_faces = mesh.boundary_surface()
    if reference_boundary is None:
        reference_boundary = normalize_rows(mesh.vertices[b_ids])
    pos = np.array(positions, dtype=np.float64)

    def score(p):
        return mesh.count_folds(p) + int(spherical_flips(normalize_rows(p[b_ids]),
                                                         b_faces).sum())

    best_score = score(pos)
    if best_score == 0:
        if near_fold_ratio is None:
            return pos
        if frames is None:
            frames = frame_decompose(jacobian_per_tet(mesh, pos))
        if not np.any(np.abs(frames.ratios) > near_fold_ratio):
            return pos

    boundary_adj = vertex_rings(b_faces, len(b_ids))
    compact = np.full(len(mesh.vertices), -1, dtype=np.int64)
    compact[b_ids] = np.arange(len(b_ids))
    all_boundary_tet = mesh.boundary_vertex_mask[mesh.tets].all(axis=1)

    def sphere_repair(p):
        sphere = normalize_rows(p[b_ids])
        if spherical_flips(sphere, b_faces).any():
            try:
                sphere = correct_spherical_flips(reference_boundary, sphere,
                                                 b_faces)
            except SphereMapError:
                return p
            p = p.copy()
            p[b_ids] = sphere
        return p

    def smooth_slivers(p, w):
        # tets with all four vertices on the sphere are invisible to the
        # interior solve and survive radial projection; only tangential
        # motion unfolds them
        slivers = (signed_volumes(p, mesh.tets) <= 0) & all_boundary_tet
        if not slivers.any():
            return p
        seeds = np.zeros(len(b_ids), dtype=bool)
        seeds[compact[np.unique(mesh.tets[slivers])]] = True
        p = p.copy()
        p[b_ids] = relax_patch(normalize_rows(p[b_ids]), boundary_adj, seeds, w)
        return p

    def free_boundary_patch(p, k_cap):
        # release only the boundary vertices pinning the remaining folds
        # (freeing the whole sphere lets it contract and fold further)
        folded = signed_volumes(p, mesh.tets) <= 0
        if not folded.any():
            return p
        patch = np.zeros(len(b_ids), dtype=bool)
        seeds = compact[np.unique(mesh.tets[folded])]
        patch[seeds[seeds >= 0]] = True
        if not patch.any():
            return p
        for _ in range(2):
            patch |= (boundary_adj @ patch) > 0
        free_b = b_ids[patch]
        fixed = np.setdiff1d(np.arange(len(mesh.vertices)), free_b)
        p = _rebuild(mesh, p, k_cap, fixed_ids=fixed)
        p[free_b] = normalize_rows(p[free_b])
        return p

    best = pos.copy()
    state = pos
    for round_no in range(budget):
        # tighter truncation targets for stubborn rounds
        k_cap = k_threshold if round_no < 2 else max(
            2.0, k_threshold * 0.7 ** (round_no - 1))
        state = sphere_repair(state)
        state = _rebuild(mesh, state, k_cap, fixed_ids=b_ids,
                         near_fold_ratio=near_fold_ratio,
                         frames=frames if state is pos else None)
        if mesh.count_folds(state):
            state = smooth_slivers(state, w=min(0.25 + 0.1 * round_no, 0.8))
            state = free_boundary_patch(state, k_cap)
            state = _rebuild(mesh, state, k_cap, fixed_ids=b_ids,
                             near_fold_ratio=near_fold_ratio)
        current = score(state)
        if current < best_score:
            best, best_score = state.copy(), current
        if best_score == 0:
            break
    if best_score:
        raise CorrectionError(best_score)
    pos = best
    pos[b_ids] = normalize_rows(pos[b_ids])
    return pos


def _rebuild(mesh, pos, k_threshold, fixed_ids, near_fold_ratio=None, frames=None):
    """Flip + truncate the folded tets' eigenvalues and re-solve the map;
    ``frames`` is the decomposition of ``pos`` if the caller has it."""
    if frames is None:
        frames = frame_decompose(jacobian_per_tet(mesh, pos))
    folded = frames.lambdas[:, 2] <= 0
    lam = _flip_and_floor(frames.lambdas)
    if near_fold_ratio is not None:
        folded = folded | (lam[:, 0] / lam[:, 2] > near_fold_ratio)
    if folded.any():
        lam[folded] = truncate_eigenvalues(lam[folded], k_threshold)
    return reconstruct_map(mesh, TetFrameField(frames.frames, lam),
                           fixed_ids, pos[fixed_ids])


def _flip_and_floor(lambdas: np.ndarray) -> np.ndarray:
    """Flipped eigenvalue triples with b and c floored at 1e-12 * a.

    A numerically collapsed tet can leave c at zero after the flip; the floor
    keeps its ratio finite (truncation then rescales it to the threshold).
    """
    lam = flip_eigenvalues(lambdas)
    lam[:, 1:] = np.maximum(lam[:, 1:], 1e-12 * lam[:, :1])
    return lam


def compute_energies(ball_mesh: TetMesh, positions: np.ndarray,
                     density_field: dem.DensityField | None,
                     frames: TetFrameField, alpha: float):
    """(geometry, density, combined) energies with initial-ball volume weights.

    A collapsed tet (zero eigenvalue) makes the geometry energy infinite,
    which disqualifies the candidate in the drivers' comparisons.
    """
    w = ball_mesh.volumes
    lam = flip_eigenvalues(frames.lambdas)
    with np.errstate(divide="ignore", invalid="ignore"):
        logk = np.log(lam[:, 0] / lam[:, 2])
    if not np.all(np.isfinite(logk)):
        e_qc = float("inf")
    else:
        e_qc = float(w @ logk ** 2)
    if density_field is None:
        return e_qc, None, None
    grad = dem.density_gradient(ball_mesh.tets, tet_gradients(positions, ball_mesh.tets)[1],
                                density_field.rho_vertex)
    e_dem = float(w @ np.einsum("ij,ij->i", grad, grad))
    return e_qc, e_dem, e_dem + alpha * e_qc


def k_stats(frames: TetFrameField):
    """Mean and standard deviation of the anisotropy ratio K >= 1.

    K is taken from the flipped eigenvalues, so inverted tets count with
    their unsigned ratio.
    """
    lam = flip_eigenvalues(frames.lambdas)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = lam[:, 0] / lam[:, 2]
    # a numerically collapsed tet (eigenvalue rounded to zero) would poison
    # the statistics with an infinity; report over the finite entries
    k = k[np.isfinite(k)]
    if len(k) == 0:
        return float("inf"), float("inf")
    return float(np.mean(k)), float(np.std(k))


def normalized_density_variance(rho: np.ndarray) -> float:
    """Variance of rho / mean(rho)."""
    return float(np.var(rho / np.mean(rho)))


def _settle(mesh, cand, config, ref_boundary, near_fold_ratio=None):
    """Count folds, correct overlaps, and decompose the settled candidate.

    With ``near_fold_ratio`` set, a fold-free candidate is corrected too when
    some anisotropy ratio exceeds it or is undefined. Returns the candidate,
    its fold counts before and after correction, and its frames.
    """
    folds_pre = mesh.count_folds(cand)
    frames = None
    strained = False
    if folds_pre == 0 and near_fold_ratio is not None:
        frames = frame_decompose(jacobian_per_tet(mesh, cand))
        strained = not np.all(np.abs(frames.ratios) <= near_fold_ratio)
    folds_post = folds_pre
    if (folds_pre or strained) and config.correction:
        cand = correct_overlaps(mesh, cand, config.k_threshold,
                                reference_boundary=ref_boundary,
                                near_fold_ratio=near_fold_ratio, frames=frames)
        folds_post = mesh.count_folds(cand)
        frames = None
    if frames is None:
        frames = frame_decompose(jacobian_per_tet(mesh, cand))
    return cand, folds_pre, folds_post, frames


@dataclass
class _Iterate:
    """A settled, fold-free map with its frames, its density field (None when
    the run tracks no population) and its trace row."""

    positions: np.ndarray
    frames: TetFrameField
    field: dem.DensityField | None
    row: dict


def _iterate(method, mesh, population, config, init_positions, step, stop,
             near_fold_ratio=NEAR_FOLD_RATIO) -> RunResult:
    """The loop of every driver. ``step(mesh, state, config)`` proposes a map;
    ``stop(prev, cand, config)`` is one of the stop rules below. Without a
    population the initial ball is iteration 0 and the final var_rho is that
    of the rest volumes."""
    config = config or SolverConfig()
    b_ids = mesh.boundary_vertices
    pos0 = initial_ball(mesh, config, method) if init_positions is None \
        else np.array(init_positions, dtype=np.float64)
    if mesh.count_folds(pos0):
        pos0 = correct_overlaps(mesh, pos0, config.k_threshold,
                                reference_boundary=normalize_rows(pos0[b_ids]))
    ball_rest = TetMesh.from_arrays(pos0, mesh.tets)
    report = RunReport(method, config.to_dict())

    def evaluate(positions, frames):
        field = None if population is None else \
            dem.recouple_density(mesh, positions, population)
        e_qc, e_dem, e_deq = compute_energies(ball_rest, positions, field, frames,
                                              config.alpha)
        mean_k, sd_k = k_stats(frames)
        row = {"E_3DQC": e_qc, "mean_K": mean_k, "sd_K": sd_k}
        if field is not None:
            row.update(E_3DDEM=e_dem, E_3DDEQ=e_deq,
                       var_rho=normalized_density_variance(field.rho_vertex))
        return _Iterate(positions, frames, field, row)

    state = evaluate(pos0.copy(), frame_decompose(jacobian_per_tet(mesh, pos0)))
    if population is None:
        folds = mesh.count_folds(pos0)
        report.add_iteration(iteration=0, folds_pre=folds, folds_post=folds,
                             **state.row)
    else:
        report.final["var_rho0"] = state.row["var_rho"]
    _, converged = stop(None, state, config)
    folded = None
    n = 0
    while not converged and n < config.n_max:
        n += 1
        cand, folds_pre, folds_post, frames = _settle(
            mesh, step(mesh, state, config), config,
            normalize_rows(state.positions[b_ids]), near_fold_ratio)
        if folds_post:
            # correction is off: nothing can be evaluated on inverted volumes
            folded = (cand, frames)
            mean_k, sd_k = k_stats(frames)
            report.add_iteration(iteration=n, var_rho=None, mean_K=mean_k, sd_K=sd_k,
                                 folds_pre=folds_pre, folds_post=folds_post)
            break
        cand = evaluate(cand, frames)
        accept, converged = stop(state, cand, config)
        if not accept:
            break
        state = cand
        report.add_iteration(iteration=n, folds_pre=folds_pre, folds_post=folds_post,
                             **state.row)

    positions, frames = folded or (state.positions, state.frames)
    field = state.field or dem.recouple_density(mesh, state.positions,
                                                np.abs(mesh.volumes))
    mean_k, sd_k = k_stats(frames)
    report.final.update({"var_rho": normalized_density_variance(field.rho_vertex),
                         "mean_K": mean_k, "sd_K": sd_k,
                         "folds": mesh.count_folds(positions)})
    return RunResult(positions, report, converged, pos0)


def _qc_step(mesh, state, config):
    """Residual descent on the anisotropy ratios, boundary held fixed."""
    b_ids = mesh.boundary_vertices
    lam = residual_step(flip_eigenvalues(state.frames.lambdas), config.residual_constant)
    return reconstruct_map(mesh, TetFrameField(state.frames.frames, lam),
                           b_ids, state.positions[b_ids])


def _dem_step(mesh, state, config):
    """One step of the shared density flow with the tet supplies, all from one
    ``tet_gradients`` pass: lumped volumes, Laplacian, volumes, gradient."""
    pos = state.positions
    vols, grads = geometry = tet_gradients(pos, mesh.tets)
    ops = dem.build_operators(mesh, geometry)  # raises DensityError on folds
    return dem.flow_step(mesh.connectivity, pos, state.field.rho_vertex, ops, vols,
                         lambda rho: dem.density_gradient(mesh.tets, grads, rho),
                         config.dt, mesh.boundary_vertex_mask)


def _deq_step(mesh, state, config):
    """The flow step as per-tet eigenvalue increments plus an alpha-weighted
    residual-descent increment, truncated at k_threshold and rebuilt."""
    b_ids = mesh.boundary_vertices
    advected = _dem_step(mesh, state, config)
    adv_frames = frame_decompose(jacobian_per_tet(mesh, advected))
    lam_cur = _flip_and_floor(state.frames.lambdas)
    lam_adv = _flip_and_floor(adv_frames.lambdas)
    d_lam1 = lam_adv - lam_cur
    d_lam2 = residual_step(lam_cur, config.residual_constant) - lam_cur
    lam_bar = lam_cur + d_lam1 + config.alpha * d_lam2
    lam_bar = np.sort(lam_bar, axis=1)[:, ::-1]
    lam_bar = np.sort(flip_eigenvalues(lam_bar), axis=1)[:, ::-1]
    bad = lam_bar[:, 2] <= 0
    if bad.any():
        # combined increment collapsed the triple; fall back to the pure
        # flow's eigenvalues for those tets
        lam_bar[bad] = lam_adv[bad]
    lam_bar = truncate_eigenvalues(lam_bar, config.k_threshold)
    return reconstruct_map(mesh, TetFrameField(adv_frames.frames, lam_bar),
                           b_ids, advected[b_ids])


# Stop rules: (accept, converged) for an evaluated candidate, prev None for
# the initial ball.
def _qc_stop(prev, cand, config):
    stalled = prev is not None and \
        cand.row["E_3DQC"] >= prev.row["E_3DQC"] * (1.0 - 1e-5)
    return not stalled, stalled


def _dem_stop(prev, cand, config):
    rho = cand.field.rho_vertex
    return True, bool(np.std(rho) / np.mean(rho) < config.eps)


def _deq_stop(prev, cand, config):
    if prev is None:
        return True, False
    # the displacement joins the candidate's trace row
    moves = np.linalg.norm(cand.positions - prev.positions, axis=1)
    cand.row["displacement"] = float(np.max(moves))
    return True, cand.row["displacement"] < config.eps


def run_3dqc(mesh: TetMesh, config: SolverConfig | None = None,
             init_positions: np.ndarray | None = None) -> RunResult:
    """Quasi-conformal ball map: residual descent on the anisotropy ratios.

    Iterates until the weighted energy sum(vol0 * ln(K)^2) stops decreasing or
    n_max is reached; every accepted iterate is fold-free.
    """
    return _iterate("3dqc", mesh, None, config, init_positions, _qc_step, _qc_stop,
                    near_fold_ratio=None)


def run_3ddem(mesh: TetMesh, population: np.ndarray,
              config: SolverConfig | None = None,
              init_positions: np.ndarray | None = None) -> RunResult:
    """Density-equalizing ball map driven by the diffusion flow.

    Stops when sd/mean of the vertex density drops below eps or after n_max
    iterations. With ``config.correction`` disabled the run is aborted as soon
    as folds appear (the flow cannot continue on inverted volumes).
    """
    return _iterate("3ddem", mesh, population, config, init_positions, _dem_step,
                    _dem_stop)


def run_3ddeq(mesh: TetMesh, population: np.ndarray,
              config: SolverConfig | None = None,
              init_positions: np.ndarray | None = None) -> RunResult:
    """Balanced map: density-equalizing flow with anisotropy control.

    Each iteration advects along the diffusion flow, converts the move into
    per-tet eigenvalue increments, adds an alpha-weighted residual-descent
    increment, truncates the result at k_threshold, and rebuilds the map from
    the prescribed eigenvalues. Stops when the maximum vertex displacement
    falls below eps.
    """
    return _iterate("3ddeq", mesh, population, config, init_positions, _deq_step,
                    _deq_stop)


def run_method(method: str, mesh: TetMesh, population: np.ndarray | None = None,
               config: SolverConfig | None = None,
               init_positions: np.ndarray | None = None) -> RunResult:
    if method == "3dqc":
        return run_3dqc(mesh, config, init_positions)
    if method == "3ddem":
        return run_3ddem(mesh, population, config, init_positions)
    if method == "3ddeq":
        return run_3ddeq(mesh, population, config, init_positions)
    raise ValueError(f"unknown method {method!r}")
