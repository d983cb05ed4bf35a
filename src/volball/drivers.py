"""End-to-end solid ball parameterization drivers.

The three methods run one loop (``_iterate``): make the initial ball
(spherical boundary plus harmonic fill) and evaluate it, then repeat step,
settle, evaluate, stop and record, for at most n_max steps. ``METHODS`` maps
each method's name to its rules: its step, its stop rule, and whether it is a
density method (3ddem and 3ddeq), which takes a population, starts under
``auto`` from the surface density flow's boundary and has its overlap
rebuilds also truncate tets one flow step from folding. 3dqc rejects the
candidate, converged, once its energy falls by less than 1e-5 relative; 3ddem
has converged once sd/mean of the vertex density is below eps, tested on the
initial ball and after every step; 3ddeq once the largest vertex move is
below eps. Settling passes a fold-free candidate unchanged and hands a folded
one to ``correct_overlaps``. Settle, evaluate and the next step share one
``_Iterate`` record per map (volumes, hat gradients with a population and
Jacobians from one gather, the Gram entries J^T J and signed dilation
triples; no frames). A run keeps its last HISTORY accepted maps for its own
3dqc reconstructions only: their CG solves start from the A-norm-best
combination of the current map and those maps, and stop by the same test.

Contract: a run returns a fold-free map with its boundary on the unit sphere,
or raises a typed error: ``CorrectionError`` when the correction budget is
spent, ``SphereMapError`` from the boundary map, ``FrameError`` on a
singular tet, ``DensityError`` on a bad or missing population,
``SolverError`` from a solve, ``ValueError`` on an unknown method or on
``init_positions`` that are not one finite point per vertex. With
``config.correction`` off, a candidate that still folds is recorded with
var_rho None and ends the run instead. Identical inputs give bitwise
identical results.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import density as dem
from .distortion import (TetFrameField, _gram, anisotropy_ratios, dilations,
                         edge_jacobians, flip_eigenvalues, fold_candidates, frame_decompose,
                         jacobian_per_tet, reconstruct_map, residual_coefficients,
                         residual_step, truncate_eigenvalues)
from .laplace import harmonic_fill
from .report import RunReport
from .sphere_map import (BoundaryMap, SphereMapError, _sd_over_mean, compute_boundary_sphere_map,
                         correct_spherical_flips, normalize_rows, spherical_embedding,
                         spherical_flips, surface_density_equalize, triangle_geometry)
from .tetmesh import TetMesh, corner_edges, edge_geometry, signed_volumes

NEAR_FOLD_RATIO = 1e3

# Accepted maps a run keeps for its 3dqc solves' Galerkin starts. The
# uncapped run_3dqc(stretched_ball_mesh(3)) (20 iterations) took 4 687 PCG
# iterations with none, 1 836 with 3, 1 706 with 5, 1 655 with 8 and 1 618
# with 12; each kept map costs one sparse product per CG column (CHANGES.md,
# "3dqc reconstructions start from the run's own history").
HISTORY = 8


class CorrectionError(RuntimeError):
    """Raised by ``correct_overlaps`` when its round budget is spent before the
    map is fold-free; ``.folds`` is the fewest folded tets plus flipped
    boundary triangles seen, the input's included."""

    def __init__(self, folds: int):
        super().__init__(f"overlap correction budget exhausted: the best state seen has "
                         f"{folds} folded tets plus flipped boundary triangles")
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
        # a bool is an Integral too, but True would read as one iteration
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, Integral):
            raise ValueError(f"n_max must be an integer, not {self.n_max!r}")
        reals = ("dt", "eps", "k_threshold", "residual_constant", "alpha")
        bad = [name for name in reals if not math.isfinite(getattr(self, name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.dt <= 0 or self.eps <= 0 or self.n_max < 1:
            raise ValueError("dt, eps must be positive and n_max >= 1")
        if self.k_threshold <= 1 or self.residual_constant <= 0 or self.alpha < 0:
            raise ValueError("need k_threshold > 1, residual_constant > 0, alpha >= 0")
        if self.boundary_mode not in ("auto", "conformal", "dem"):
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")

    def resolved_boundary_mode(self, method: str) -> str:
        """``conformal`` or ``dem``; ``auto`` is dem for the density methods.
        ValueError on an unknown ``method``."""
        mode = "dem" if _rules(method).density else "conformal"
        return mode if self.boundary_mode == "auto" else self.boundary_mode


@dataclass
class RunResult:
    """What a run returns. ``positions`` (n, 3) is the final map, fold-free
    unless the correction was off; ``report`` its ``RunReport``;
    ``converged`` whether the method's stop rule held (False when n_max ran
    out or a folded candidate ended the run); ``initial_positions`` (n, 3) the
    settled initial ball the iterations started from."""

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

    In density boundary mode the surface flow runs on one spherical
    embedding from the boundary cone volumes. A fold-free fill is refined
    once: the flow reruns from the cone volumes weighted by the fill's tet
    densities (without it, cubes start with a density spike at the corner
    images), and the refined fill is kept only if it is fold-free with a
    lower normalized density variance. A first fill that folds is returned
    as it is, for the caller's overlap correction.
    """
    config = config or SolverConfig()
    if config.resolved_boundary_mode(method) == "conformal":
        bmap = compute_boundary_sphere_map(mesh)
        return harmonic_fill(mesh, bmap.points, bmap.vertex_indices)

    vertex_ids, faces = mesh.boundary_surface()
    embedded = spherical_embedding(mesh.vertices[vertex_ids], faces)
    rest_vols = np.abs(mesh.volumes)

    def fill(face_population):
        """The flow's harmonic fill and its density field (None if it folds)."""
        sphere = surface_density_equalize(embedded, faces, face_population,
                                          dt=config.dt, eps=config.eps,
                                          max_iter=config.n_max)
        bmap = BoundaryMap.checked(vertex_ids, faces, sphere)
        pos = harmonic_fill(mesh, bmap.points, bmap.vertex_indices)
        vols = signed_volumes(pos, mesh.tets)
        if np.any(vols <= 0):
            return pos, None
        return pos, dem.field_from_volumes(mesh, vols, rest_vols)

    cone = _boundary_cone_volumes(mesh)
    first, field = fill(cone)
    if field is None:
        return first
    refined, refined_field = fill(cone * field.rho_tet[mesh.boundary_owners])
    if (refined_field is not None
            and normalized_density_variance(refined_field.rho_vertex)
            < normalized_density_variance(field.rho_vertex)):
        return refined
    return first


def correct_overlaps(mesh: TetMesh, positions: np.ndarray, k_threshold: float = 10.0,
                     budget: int = 10,
                     reference_boundary: np.ndarray | None = None,
                     near_fold_ratio: float | None = None, geometry=None) -> np.ndarray:
    """Remove inverted tets from a ball map, preserving the spherical boundary.

    A map with no folded tet and no flipped spherical triangle is returned as
    given. Otherwise rounds run until the map is fold-free: repair flipped
    spherical triangles on the boundary surface, (1) rebuild the interior with
    the boundary fixed after flipping and truncating the eigenvalues of folded
    tets, and while folds remain (2) rebuild the boundary patch pinning them
    with the interior fixed, project it back to unit norm and rebuild the
    interior again. The round that reaches no folds is returned with its
    boundary renormalised; a budget spent first raises ``CorrectionError``
    with the fewest folded tets plus flipped boundary triangles seen.

    ``mesh`` provides the rest geometry; ``reference_boundary`` must be a
    flip-free spherical configuration of the boundary vertices and defaults to
    the normalized rest boundary (exact when the rest mesh is itself a ball).
    With ``near_fold_ratio`` set, the rebuilds truncate tets whose anisotropy
    ratio exceeds it alongside the truly folded ones (they are one flow step
    away from folding). ``geometry``, the caller's ``_read`` of ``positions``
    (volumes, hat gradients or None, Jacobians), gives the first score and
    the first rebuild.
    """
    b_ids, b_faces = mesh.boundary_surface()
    if reference_boundary is None:
        reference_boundary = normalize_rows(mesh.vertices[b_ids])
    pos = np.array(positions, dtype=np.float64)

    def score(p, folded):
        return int(np.count_nonzero(folded)) + int(
            spherical_flips(normalize_rows(p[b_ids]), b_faces).sum())

    volumes = signed_volumes(pos, mesh.tets) if geometry is None else geometry[0]
    best_score = score(pos, volumes <= 0)
    if best_score == 0:
        return pos

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

    def free_boundary_patch(p, folded, k_cap):
        # release only the boundary vertices pinning the ``folded`` tets
        # (freeing the whole sphere lets it contract and fold further)
        pinned = np.zeros(len(mesh.vertices), dtype=bool)
        pinned[mesh.tets[folded]] = True
        patch = pinned[b_ids]
        if not patch.any():
            return p
        for _ in range(2):
            patch |= (mesh.boundary_rings @ patch) > 0
        free_b = b_ids[patch]
        fixed = np.setdiff1d(np.arange(len(mesh.vertices)), free_b)
        if len(fixed) == 0:
            # every vertex lies in the patch (an all-boundary solid such as
            # lcube_mesh(2)): nothing would anchor the rebuild
            return p
        p = _rebuild(mesh, p, k_cap, fixed_ids=fixed)
        p[free_b] = normalize_rows(p[free_b])
        return p

    state = pos
    for round_no in range(budget):
        # tighter truncation targets for stubborn rounds
        k_cap = k_threshold if round_no < 2 else max(
            2.0, k_threshold * 0.7 ** (round_no - 1))
        repaired = sphere_repair(state)
        state = _rebuild(mesh, repaired, k_cap, fixed_ids=b_ids, near_fold_ratio=near_fold_ratio,
                         geometry=geometry if repaired is pos else None)
        folded = signed_volumes(state, mesh.tets) <= 0
        if folded.any():
            state = free_boundary_patch(state, folded, k_cap)
            state = _rebuild(mesh, state, k_cap, fixed_ids=b_ids,
                             near_fold_ratio=near_fold_ratio)
            folded = signed_volumes(state, mesh.tets) <= 0
        current = score(state, folded)
        if current == 0:
            state[b_ids] = normalize_rows(state[b_ids])
            return state
        best_score = min(best_score, current)
    raise CorrectionError(best_score)


def _rebuild(mesh, pos, k_threshold, fixed_ids, near_fold_ratio=None, geometry=None):
    """Flip + truncate the eigenvalues of the folded tets (with
    ``near_fold_ratio``, also of those whose ratio exceeds it) and re-solve the
    map from ``pos``, whose ``_read`` ``geometry`` is made, gradients
    included, when None. Only the screened tets are eigen-solved, once, with
    their frames."""
    volumes, gradients, jacobians = geometry or _read(mesh, pos, gradients=True)
    rows = fold_candidates(jacobians, near_fold_ratio)
    screened = frame_decompose(jacobians[rows])
    lam = _flip_and_floor(screened.lambdas)
    edited = screened.lambdas[:, 2] <= 0
    if near_fold_ratio is not None:
        edited |= lam[:, 0] / lam[:, 2] > near_fold_ratio
    rows = rows[edited]
    field = TetFrameField(screened.frames[edited],
                          truncate_eigenvalues(lam[edited], k_threshold))
    return reconstruct_map(mesh, field, fixed_ids, pos[fixed_ids], start=pos, tets=rows,
                           geometry=None if gradients is None else (volumes, gradients))


def _flip_and_floor(lambdas: np.ndarray) -> np.ndarray:
    """Flipped eigenvalue triples with b and c floored at 1e-12 * a.

    A numerically collapsed tet can leave c at zero after the flip; the floor
    keeps its ratio finite (truncation then rescales it to the threshold).
    """
    lam = flip_eigenvalues(lambdas)
    lam[:, 1:] = np.maximum(lam[:, 1:], 1e-12 * lam[:, :1])
    return lam


def compute_energies(tets: np.ndarray, w: np.ndarray, gradients: np.ndarray | None,
                     density_field: dem.DensityField | None,
                     lambdas: np.ndarray, alpha: float):
    """(geometry, density, combined) energies of a map of ``tets`` with per-tet
    weights ``w``, in the drivers the volumes of the initial ball, and signed
    dilation triples ``lambdas``.

    ``gradients``, the map's hat gradients, are read only with a density
    field. A collapsed tet (zero eigenvalue) makes the geometry energy
    infinite, which disqualifies the candidate in the drivers' comparisons.
    The weighted sums are numpy's pairwise sums, not BLAS dots, whose order
    follows the thread split, so the energies do not depend on the BLAS
    thread count.
    """
    lam = flip_eigenvalues(lambdas)
    with np.errstate(divide="ignore", invalid="ignore"):
        logk = np.log(lam[:, 0] / lam[:, 2])
    if not np.all(np.isfinite(logk)):
        e_qc = float("inf")
    else:
        e_qc = float(np.add.reduce(w * logk ** 2))
    if density_field is None:
        return e_qc, None, None
    grad = dem.density_gradient(tets, gradients, density_field.rho_vertex)
    e_dem = float(np.add.reduce(w * np.einsum("ij,ij->i", grad, grad)))
    return e_qc, e_dem, e_dem + alpha * e_qc


def k_stats(lambdas: np.ndarray):
    """Mean and standard deviation of the anisotropy ratio K >= 1 of the
    signed dilation triples ``lambdas``; inverted tets count with their
    unsigned ratio."""
    k = anisotropy_ratios(flip_eigenvalues(lambdas))
    # a numerically collapsed tet (eigenvalue rounded to zero) would poison
    # the statistics with an infinity; report over the finite entries
    k = k[np.isfinite(k)]
    if len(k) == 0:
        return float("inf"), float("inf")
    return float(np.mean(k)), float(np.std(k))


def normalized_density_variance(rho: np.ndarray) -> float:
    """Variance of rho / mean(rho)."""
    return float(np.var(rho / np.mean(rho)))


def _read(mesh, positions, gradients: bool) -> tuple:
    """Signed volumes, hat gradients (with ``gradients``, else None) and
    Jacobians of a map from one ``corner_edges`` gather: bitwise
    ``signed_volumes``, ``tet_gradients`` and ``jacobian_per_tet``."""
    e = corner_edges(positions, mesh.tets)
    return (*edge_geometry(e, gradients), edge_jacobians(e, mesh.hat_gradients))


@dataclass
class _Iterate:
    """A map and one ``_read`` of its tets: volumes, hat gradients (with a
    population, else None) and Jacobians, the (m, 4, 3) and (m, 3, 3) views
    of the component-major arrays their kernels build. ``_settle`` adds the
    settled map's Gram entries J^T J (the ``distortion._gram`` pair, read by
    ``dilations`` and by 3dqc's coefficient) and signed dilation triples;
    the evaluation adds the density field (None without a population) and
    the trace row. The record holds no other per-tet copy."""

    positions: np.ndarray
    volumes: np.ndarray
    gradients: np.ndarray | None
    jacobians: np.ndarray
    gram: tuple | None = None
    lambdas: np.ndarray | None = None
    field: dem.DensityField | None = None
    row: dict | None = None

    @classmethod
    def read(cls, mesh, positions, gradients: bool) -> "_Iterate":
        return cls(positions, *_read(mesh, positions, gradients))

    @property
    def folds(self) -> int:
        return int(np.count_nonzero(self.volumes <= 0))


def _settle(mesh, cand, config, ref_boundary, near_fold_ratio=None, tracked=False):
    """Read the candidate, correct its overlaps if it folds, and take the
    settled map's Gram entries and dilations.

    A fold-free candidate passes unchanged; ``near_fold_ratio`` only reaches
    the rebuilds of a folded one, the first of which reuses the candidate's
    read. With a population (``tracked``) the record reads hat gradients as
    well. Returns the settled map's record (its folds are those after
    correction) and folds_pre.
    """
    settled = _Iterate.read(mesh, cand, tracked)
    folds_pre = settled.folds
    if folds_pre and config.correction:
        settled = _Iterate.read(mesh, correct_overlaps(
            mesh, cand, config.k_threshold, reference_boundary=ref_boundary,
            near_fold_ratio=near_fold_ratio,
            geometry=(settled.volumes, settled.gradients, settled.jacobians)), tracked)
    settled.gram = _gram(settled.jacobians)
    settled.lambdas = dilations(settled.jacobians, settled.gram)
    return settled, folds_pre


def _iterate(method, mesh, population, config, init_positions) -> RunResult:
    """The loop of every driver, with ``method``'s ``METHODS`` rules:
    ``step(mesh, state, config, history)`` proposes a map, ``history``
    holding the accepted maps before ``state``, newest first, at most HISTORY
    of them; ``stop(prev, cand, config)`` is one of the stop rules below. A
    density method's population is checked once, here; otherwise the initial
    ball is iteration 0 and the final var_rho is that of the rest volumes."""
    config = config or SolverConfig()
    step, stop, tracked = _rules(method)
    population = dem.checked_population(population, len(mesh.tets), "tet") if tracked else None
    b_ids = mesh.boundary_vertices
    if init_positions is None:
        pos0 = initial_ball(mesh, config, method)
    else:
        pos0 = np.array(init_positions, dtype=np.float64)
        if pos0.shape != mesh.vertices.shape:
            raise ValueError(f"init_positions has shape {pos0.shape}; expected "
                             f"{mesh.vertices.shape}, one point per vertex")
        if not np.all(np.isfinite(pos0)):
            raise ValueError("init_positions must be finite")
    # the initial ball is corrected whatever the setting
    state, _ = _settle(mesh, pos0, replace(config, correction=True),
                       normalize_rows(pos0[b_ids]), tracked=tracked)
    pos0, ball_volumes = state.positions.copy(), state.volumes
    report = RunReport(method, asdict(config))

    def evaluate(it):  # fills in the density field and the trace row
        if tracked:
            it.field = dem.field_from_volumes(mesh, it.volumes, population)
        e_qc, e_dem, e_deq = compute_energies(mesh.tets, ball_volumes, it.gradients,
                                              it.field, it.lambdas, config.alpha)
        mean_k, sd_k = k_stats(it.lambdas)
        it.row = {"E_3DQC": e_qc, "mean_K": mean_k, "sd_K": sd_k}
        if tracked:
            it.row.update(E_3DDEM=e_dem, E_3DDEQ=e_deq,
                          var_rho=normalized_density_variance(it.field.rho_vertex))

    evaluate(state)
    if tracked:
        report.final["var_rho0"] = state.row["var_rho"]
    else:
        report.add_iteration(iteration=0, folds_pre=state.folds, folds_post=state.folds,
                             **state.row)
    _, converged = stop(None, state, config)
    folded = None
    history = deque(maxlen=HISTORY)
    n = 0
    while not converged and n < config.n_max:
        n += 1
        cand, folds_pre = _settle(mesh, step(mesh, state, config, history), config,
                                  normalize_rows(state.positions[b_ids]),
                                  NEAR_FOLD_RATIO if tracked else None, tracked)
        if cand.folds:
            # correction is off: nothing can be evaluated on inverted volumes
            folded = cand
            mean_k, sd_k = k_stats(cand.lambdas)
            cand.row = {"var_rho": None, "mean_K": mean_k, "sd_K": sd_k}
            report.add_iteration(iteration=n, folds_pre=folds_pre, folds_post=cand.folds,
                                 **cand.row)
            break
        evaluate(cand)
        accept, converged = stop(state, cand, config)
        if not accept:
            break
        history.appendleft(state.positions)
        state = cand
        report.add_iteration(iteration=n, folds_pre=folds_pre, folds_post=state.folds,
                             **state.row)

    last = folded or state
    field = state.field or dem.field_from_volumes(mesh, state.volumes, np.abs(mesh.volumes))
    report.final.update({"var_rho": normalized_density_variance(field.rho_vertex),
                         "mean_K": last.row["mean_K"], "sd_K": last.row["sd_K"],
                         "folds": last.folds})
    return RunResult(last.positions, report, converged, pos0)


def _qc_step(mesh, state, config, history=()):
    """Residual descent on the anisotropy ratios, boundary held fixed, with
    the coefficient built from the iterate's Jacobians and triples; the solve
    starts from the current map projected with the run's earlier maps."""
    b_ids = mesh.boundary_vertices
    coeff = residual_coefficients(state.jacobians, flip_eigenvalues(state.lambdas),
                                  config.residual_constant, state.gram)
    return reconstruct_map(mesh, coeff, b_ids, state.positions[b_ids],
                           start=state.positions, history=history)


def _dem_step(mesh, state, config, history=()):
    """One step of the shared density flow with the tet supplies (lumped
    volumes, Laplacian, corner weights, gradient) from the iterate's
    record."""
    vols, grads = state.volumes, state.gradients
    # the corner weights of the evaluation's density field, of the same volumes;
    # raises DensityError on folds
    ops = dem.build_operators(mesh, (vols, grads), state.field.corner_weights)
    return dem.flow_step(mesh.connectivity, state.positions, state.field.rho_vertex, ops,
                         lambda rho: dem.density_gradient(mesh.tets, grads, rho),
                         config.dt, mesh.boundary_vertex_mask)


def _deq_step(mesh, state, config, history=()):
    """The flow step as per-tet eigenvalue increments plus an alpha-weighted
    residual-descent increment, sorted with the advected frames' columns,
    truncated at k_threshold and rebuilt with the solve started from the
    advected map."""
    b_ids = mesh.boundary_vertices
    advected = _dem_step(mesh, state, config)
    adv_frames = frame_decompose(jacobian_per_tet(mesh, advected))
    lam_cur = _flip_and_floor(state.lambdas)
    lam_adv = _flip_and_floor(adv_frames.lambdas)
    d_lam1 = lam_adv - lam_cur
    d_lam2 = residual_step(lam_cur, config.residual_constant) - lam_cur
    # each blended value stays on the advected frame column it belongs to
    field = TetFrameField(adv_frames.frames, lam_cur + d_lam1 + config.alpha * d_lam2)
    field = field.descending()
    field = TetFrameField(field.frames, flip_eigenvalues(field.lambdas)).descending()
    # b_adv > 0 and c_adv + alpha theta (b_cur - c_cur) > 0 keep the largest
    # entry positive and the flip the smallest nonnegative; only an exact
    # cancellation leaves a zero, which truncation rejects as a FrameError
    field.lambdas = truncate_eigenvalues(field.lambdas, config.k_threshold)
    return reconstruct_map(mesh, field, b_ids, advected[b_ids], start=advected)


# Stop rules: (accept, converged) for an evaluated candidate, prev None for
# the initial ball.
def _qc_stop(prev, cand, config):
    stalled = prev is not None and \
        cand.row["E_3DQC"] >= prev.row["E_3DQC"] * (1.0 - 1e-5)
    return not stalled, stalled


def _dem_stop(prev, cand, config):
    return True, bool(_sd_over_mean(cand.field.rho_vertex) < config.eps)


def _deq_stop(prev, cand, config):
    if prev is None:
        return True, False
    # the displacement joins the candidate's trace row
    moves = dem._row_norms(cand.positions - prev.positions)
    cand.row["displacement"] = float(np.max(moves))
    return True, cand.row["displacement"] < config.eps


class Method(NamedTuple):
    """A method's rules, as the module docstring describes them."""

    step: Callable
    stop: Callable
    density: bool


METHODS = {"3dqc": Method(_qc_step, _qc_stop, density=False),
           "3ddem": Method(_dem_step, _dem_stop, density=True),
           "3ddeq": Method(_deq_step, _deq_stop, density=True)}


def _rules(method: str) -> Method:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    return METHODS[method]


def run_3dqc(mesh: TetMesh, config: SolverConfig | None = None,
             init_positions: np.ndarray | None = None) -> RunResult:
    """Quasi-conformal ball map: residual descent on the anisotropy ratios.

    Iterates until the weighted energy sum(vol0 * ln(K)^2) stops decreasing or
    n_max is reached; every accepted iterate is fold-free.
    """
    return _iterate("3dqc", mesh, None, config, init_positions)


def run_3ddem(mesh: TetMesh, population: np.ndarray,
              config: SolverConfig | None = None,
              init_positions: np.ndarray | None = None) -> RunResult:
    """Density-equalizing ball map driven by the diffusion flow.

    Stops when sd/mean of the vertex density drops below eps or after n_max
    iterations. With ``config.correction`` disabled the run is aborted as soon
    as folds appear (the flow cannot continue on inverted volumes).
    """
    return _iterate("3ddem", mesh, population, config, init_positions)


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
    return _iterate("3ddeq", mesh, population, config, init_positions)


def run_method(method: str, mesh: TetMesh, population: np.ndarray | None = None,
               config: SolverConfig | None = None,
               init_positions: np.ndarray | None = None) -> RunResult:
    """``run_3dqc``, ``run_3ddem`` or ``run_3ddeq`` by name (3dqc ignores
    ``population``); ValueError on any other ``method``."""
    if not _rules(method).density:
        return run_3dqc(mesh, config, init_positions)
    run = run_3ddem if method == "3ddem" else run_3ddeq
    return run(mesh, population, config, init_positions)
