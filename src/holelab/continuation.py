"""Signed-sweep laboratory for analytic continuation of solution families.

Sweeps the hole scale eps over signed grids, fits power series on the
positive side (in the scaled variable eps/eps_scale), extrapolates to the
mirrored negative grid, and classifies each family as CONTINUES, BREAKS or
INCONCLUSIVE.  Also measures parity structure of the fitted series under
reflection symmetry and checks the eps -> 0 limit of the rescaled frame
against the decoupled limit system.

Fitting notes.  A full-basis polynomial least-squares fit on a one-sided
grid is severely ill-posed for extrapolation through 0: perturbations at the
residual level are amplified by the polynomial growth factor of the mirrored
interval (about six orders of magnitude for degree 8 on a grid spanning a
factor of six).  ``fit_series`` therefore supports parity-restricted bases
and an ``auto`` mode that picks, per target, the basis minimizing the
predicted extrapolation risk

    risk(basis) = residual(basis) * (1 + mirror_amplification(basis)),

where the amplification is the operator norm of "evaluate the fitted
polynomial on the mirrored grid" as a map from per-point data perturbations.
This uses positive-side data only; no parity is assumed, it is selected only
when the restricted model explains the data as well as the full one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bem as bem_mod
from .annulus import (
    MACROSCOPIC,
    MICROSCOPIC,
    DomainError,
    SphereProblem,
    ZonalDataFamily,
    eval_points,
    solve_densities,
    solve_limit_system,
)
from .mesh import GeometryPair

FIT_CONDITION_LIMIT = 1e10
DEFAULT_DEGREE_SPECTRAL = 8
DEFAULT_DEGREE_BEM = 4
DEFAULT_ATOL_SPECTRAL = 1e-9
DEFAULT_ATOL_BEM = 1e-3
DEFAULT_RTOL_BREAK = 0.1
CONTINUE_FACTOR = 10.0
BREAK_FACTOR = 100.0

CONTINUES = "CONTINUES"
BREAKS = "BREAKS"
INCONCLUSIVE = "INCONCLUSIVE"

# Fit bases as (first power, step), in auto's tie-breaking order.
_BASES = {"full": (0, 1), "even": (0, 2), "odd": (1, 2)}


class FitError(ValueError):
    pass


class GridError(ValueError):
    pass


def make_grid(eps_min: float, eps_max: float, count: int) -> np.ndarray:
    """Uniform positive grid, ascending."""
    if not 0 < eps_min < eps_max:
        raise GridError(f"need 0 < eps_min < eps_max, got [{eps_min}, {eps_max}]")
    if count < 2:
        raise GridError("grid needs at least two points")
    return np.linspace(eps_min, eps_max, count)


def default_grid() -> np.ndarray:
    return make_grid(0.05, 0.3, 11)


@dataclass(frozen=True)
class TargetSet:
    """Evaluation points in one frame, admissible across the configured grids.

    Macroscopic points are physical locations bounded away from the origin;
    microscopic points are rescaled locations outside the unit-scale hole.
    A set holds at least one point.
    """

    frame: str
    points: np.ndarray

    def __post_init__(self):
        if self.frame not in (MACROSCOPIC, MICROSCOPIC):
            raise ValueError(f"unknown frame {self.frame!r}")
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("a target set needs at least one point")
        if self.frame == MACROSCOPIC and np.any(np.linalg.norm(pts, axis=1) < 1e-12):
            raise ValueError("macroscopic targets must be bounded away from the origin")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def axis_targets(problem: SphereProblem, radii, frame: str) -> TargetSet:
    """Targets along the zonal axis at the given radii."""
    axis = np.asarray(problem.axis)
    pts = np.array([r * axis for r in np.atleast_1d(radii)])
    return TargetSet(frame, pts)


def validate_targets(problem: SphereProblem, targets: TargetSet, grid) -> None:
    """Check every target is admissible for every eps of the grid; DomainError if not."""
    eps_abs = float(np.max(np.abs(np.asarray(grid))))
    radii = np.linalg.norm(targets.points, axis=1)
    if targets.frame == MACROSCOPIC:
        bad = (radii < eps_abs * problem.r_i) | (radii > problem.r_o)
    else:
        bad = (radii < problem.r_i) | (radii > problem.r_o / eps_abs)
    if np.any(bad):
        raise DomainError(
            f"{int(bad.sum())} target(s) not admissible across the grid "
            f"(|eps| up to {eps_abs:g}) in the {targets.frame} frame"
        )


@dataclass(frozen=True)
class SweepResult:
    """Field values on a signed grid: values[i, j] at grid[i], target j."""

    grid: np.ndarray
    values: np.ndarray
    frame: str
    conds: np.ndarray

    def subset(self, mask) -> "SweepResult":
        """The rows of the grid points selected by a boolean mask."""
        return SweepResult(self.grid[mask], self.values[mask], self.frame, self.conds[mask])


@dataclass(frozen=True)
class Solver:
    """What the sweep and the CLI need of one solver; built by ``solver_for``.

    ``axis`` carries targets given by radii; its length is the dimension.
    ``solve_grid(data, grid, targets, clearance_factor)`` yields the target
    values and the condition estimate at each eps of an admissible grid.
    ``symmetry_hypothesis(data, zeta, claimed)`` gives the hypothesis detail
    and whether it holds: computed from zonal data on spheres, the caller's
    unchecked claim on meshes.
    """

    problem: SphereProblem | GeometryPair
    name: str
    geometry: dict
    default_degree: int
    default_atol: float
    axis: tuple
    check_eps: Callable[[float], None]
    solve_grid: Callable
    symmetry_hypothesis: Callable


def _spectral_grid(problem: SphereProblem, data, grid, targets, clearance_factor):
    validate_targets(problem, targets, grid)
    tables = {}  # the zonal table of each distinct t, built once per sweep
    for eps in grid:
        sol = solve_densities(problem, data, eps)
        yield eval_points(sol, targets.points, targets.frame, tables), sol.cond


def _bem_grid(pair: GeometryPair, data, grid, targets, clearance_factor):
    # every target is checked at every eps, and the field's two matrices
    # built, before solve_grid builds any block
    field = bem_mod.GridField(pair, grid, targets.points, targets.frame, clearance_factor)
    for j, dens in enumerate(bem_mod.solve_grid(pair, data, grid)):
        yield field.values(j, dens), dens.cond


def _zonal_hypothesis(data: ZonalDataFamily, zeta: int, claimed: bool) -> tuple[dict, bool]:
    detail = zonal_symmetry_hypothesis(data, zeta)
    return detail, detail["inner_reflected"] or detail["outer_reflected"]


def solver_for(problem) -> Solver:
    """The spectral solver for a SphereProblem, collocation for a GeometryPair."""
    if isinstance(problem, SphereProblem):
        geometry = {"kind": "spheres", "n": problem.n, "r_i": problem.r_i, "r_o": problem.r_o}
        return Solver(problem, "spectral-modal", geometry, DEFAULT_DEGREE_SPECTRAL,
                      DEFAULT_ATOL_SPECTRAL, axis=problem.axis, check_eps=problem.check_eps,
                      solve_grid=partial(_spectral_grid, problem),
                      symmetry_hypothesis=_zonal_hypothesis)
    if isinstance(problem, GeometryPair):
        geometry = {"kind": "meshes", "inner_mesh": problem.inner.stats(),
                    "outer_mesh": problem.outer.stats()}
        return Solver(problem, "bem-collocation", geometry, DEFAULT_DEGREE_BEM,
                      DEFAULT_ATOL_BEM, axis=(0.0, 0.0, 1.0), check_eps=problem.require_admissible,
                      solve_grid=partial(_bem_grid, problem),
                      symmetry_hypothesis=lambda data, zeta, claimed: ({}, claimed))
    raise TypeError(f"unsupported problem type {type(problem).__name__}")


def sweep(problem, data, grid, targets: TargetSet, *,
          eval_clearance_factor: float = bem_mod.EVAL_CLEARANCE_FACTOR) -> SweepResult:
    """One solve per eps, by the problem's solver (see ``solver_for``).

    The grid must be strictly increasing (GridError) and may hold both signs;
    a signed sweep of a mesh pair builds the eps-independent self blocks only
    once (see ``bem.solve_grid``).  Every eps, the negative ones too (a mesh
    hole's admissibility is not symmetric under eps -> -eps), goes through
    ``Solver.check_eps`` before any target is checked or any eps solved: eps
    = 0 or an inadmissible eps raises InadmissibleEpsError on spheres and a
    MeshError on meshes, never a target's DomainError.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise GridError("sweep grid must be strictly increasing")
    solver = solver_for(problem)
    for eps in grid:
        solver.check_eps(float(eps))
    values = np.empty((len(grid), len(targets)))
    conds = np.empty(len(grid))
    for i, (row, cond) in enumerate(
            solver.solve_grid(data, grid, targets, eval_clearance_factor)):
        values[i], conds[i] = row, cond
    if not np.all(np.isfinite(values)):
        raise RuntimeError("sweep produced non-finite values")
    return SweepResult(grid, values, targets.frame, conds)


def _design(t: np.ndarray, degree: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    first, step = _BASES[basis]
    cols = np.arange(first, degree + 1, step)
    return np.vander(t, degree + 1, increasing=True)[:, cols], cols


def _mirror_amplification(t: np.ndarray, degree: int, basis: str) -> float:
    """Worst-case sensitivity of mirrored-grid predictions to per-point noise."""
    v_pos, cols = _design(t, degree, basis)
    v_neg, _ = _design(-t, degree, basis)
    sens = v_neg @ np.linalg.pinv(v_pos)
    return float(np.max(np.sum(np.abs(sens), axis=1)))


@dataclass(frozen=True)
class PowerSeriesFit:
    """Per-target polynomial fits in the scaled variable eps/eps_scale.

    ``coeffs[j]`` holds the full-length coefficient vector of target j
    (structural zeros where the selected basis has no column).  The residual
    of the always-computed full-basis fit is kept alongside for reporting.
    """

    eps_scale: float
    degree: int
    coeffs: np.ndarray           # (targets, degree+1)
    residuals: np.ndarray        # (targets,) max grid-point misfit
    basis_labels: tuple          # per-target basis name
    full_residuals: np.ndarray   # (targets,)
    grid: np.ndarray
    values: np.ndarray
    frame: str
    cond: float

    def predict(self, eps_values) -> np.ndarray:
        """Evaluate the fitted polynomials: shape (len(eps_values), targets)."""
        t = np.asarray(eps_values, dtype=float) / self.eps_scale
        v = np.vander(t, self.degree + 1, increasing=True)
        return v @ self.coeffs.T


def check_fit(grid: np.ndarray, degree: int, basis: str) -> float:
    """Check a fit of this degree and basis on a positive grid; no values needed.

    Returns the full-basis design condition; raises FitError for a grid
    that is not positive, a degree below 0 or too high for the grid, an
    unknown basis, or a condition above FIT_CONDITION_LIMIT.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise FitError("fit_series requires an entirely positive grid")
    if degree < 0:
        raise FitError(f"degree {degree} is negative")
    if degree + 2 > len(grid):
        raise FitError(f"degree {degree} too high for {len(grid)} grid points")
    if basis not in (*_BASES, "auto"):
        raise FitError(f"unknown basis {basis!r}")
    v_full, _ = _design(grid / grid.max(), degree, "full")
    sv = np.linalg.svd(v_full, compute_uv=False)
    cond = sv[0] / sv[-1]
    if cond > FIT_CONDITION_LIMIT:
        raise FitError(
            f"design matrix condition {cond:.2e} exceeds {FIT_CONDITION_LIMIT:.0e} "
            "(degree too high for grid)"
        )
    return float(cond)


def fit_series(sweep_result: SweepResult, degree: int, basis: str = "full") -> PowerSeriesFit:
    """Least-squares polynomial fits of a positive sweep, one per target.

    basis: 'full' (default), 'even', 'odd', or 'auto' (per-target risk-based
    selection among the three; see the module docstring).
    """
    grid = sweep_result.grid
    cond = check_fit(grid, degree, basis)
    eps_scale = float(grid.max())
    t = grid / eps_scale
    y = sweep_result.values
    fits = {}
    for b in _BASES:
        v_b, cols = _design(t, degree, b)
        c_b, *_ = np.linalg.lstsq(v_b, y, rcond=None)
        coeffs = np.zeros((y.shape[1], degree + 1))
        coeffs[:, cols] = c_b.T
        resid = np.max(np.abs(v_b @ c_b - y), axis=0)
        fits[b] = (coeffs, resid)

    if basis == "auto":
        amp = {b: _mirror_amplification(t, degree, b) for b in _BASES}
        labels = tuple(min(_BASES, key=lambda b: fits[b][1][j] * (1.0 + amp[b]))
                       for j in range(y.shape[1]))
    else:
        labels = (basis,) * y.shape[1]
    coeffs = np.array([fits[b][0][j] for j, b in enumerate(labels)])
    resid = np.array([fits[b][1][j] for j, b in enumerate(labels)])
    return PowerSeriesFit(
        eps_scale, degree, coeffs, resid, labels, fits["full"][1],
        grid.copy(), y.copy(), sweep_result.frame, cond,
    )


@dataclass(frozen=True)
class ContinuationReport:
    """Extrapolation test of a positive-side fit against a mirrored negative sweep."""

    verdict: str
    target_verdicts: tuple
    fit_residuals: np.ndarray
    extrapolation_errors: np.ndarray
    value_scales: np.ndarray
    predicted: np.ndarray


def test_continuation(fit: PowerSeriesFit, negative_sweep: SweepResult, *,
                      atol: float = DEFAULT_ATOL_SPECTRAL,
                      rtol_break: float = DEFAULT_RTOL_BREAK,
                      continue_factor: float = CONTINUE_FACTOR,
                      break_factor: float = BREAK_FACTOR) -> ContinuationReport:
    """Compare the fitted series at negative eps with computed values.

    Per target: CONTINUES when the worst extrapolation error is at most
    continue_factor * fit residual + atol; BREAKS when it is at least
    break_factor * fit residual and at least rtol_break times the value
    scale; otherwise INCONCLUSIVE.  The aggregate verdict is BREAKS if any
    target breaks, CONTINUES if all targets continue, else INCONCLUSIVE.
    """
    neg = negative_sweep.grid
    if np.any(neg >= 0):
        raise GridError("negative_sweep grid must be entirely negative")
    if len(neg) != len(fit.grid) or not np.allclose(
        np.sort(np.abs(neg)), np.sort(fit.grid), rtol=1e-12, atol=0
    ):
        raise GridError("negative grid does not mirror the fitted positive grid")
    if negative_sweep.frame != fit.frame:
        raise GridError("negative sweep frame differs from the fitted sweep frame")
    predicted = fit.predict(neg)
    computed = negative_sweep.values
    errors = np.max(np.abs(predicted - computed), axis=0)
    scales = np.maximum(
        np.max(np.abs(computed), axis=0), np.max(np.abs(fit.values), axis=0)
    )
    verdicts = []
    for j, e in enumerate(errors):
        r = fit.residuals[j]
        if e <= continue_factor * r + atol:
            verdicts.append(CONTINUES)
        elif e >= break_factor * r and e >= rtol_break * scales[j]:
            verdicts.append(BREAKS)
        else:
            verdicts.append(INCONCLUSIVE)
    if BREAKS in verdicts:
        overall = BREAKS
    elif all(v == CONTINUES for v in verdicts):
        overall = CONTINUES
    else:
        overall = INCONCLUSIVE
    return ContinuationReport(overall, tuple(verdicts), fit.residuals, errors, scales, predicted)


@dataclass(frozen=True)
class SymmetryReport:
    """Size of fitted coefficients that a reflection symmetry forces to vanish."""

    forbidden_relative: np.ndarray  # per target
    max_forbidden_relative: float
    forbidden_indices: tuple
    hypothesis_checked: bool
    note: str


def test_symmetry(fit: PowerSeriesFit, zeta: int,
                  hypothesis_checked: bool = False) -> SymmetryReport:
    """Measure forbidden-parity coefficients of a full-basis fit.

    For zeta = +1 the series should contain only even powers, for zeta = -1
    only odd powers; returns the largest forbidden coefficient relative to
    the largest coefficient, per target.  Whether the data family actually
    satisfies the symmetry hypothesis is the caller's duty (see
    ``zonal_symmetry_hypothesis``); the report records the claim.
    """
    if zeta not in (-1, 1):
        raise ValueError("zeta must be +1 or -1")
    if any(b != "full" for b in fit.basis_labels):
        raise FitError(
            "symmetry measurement requires full-basis fits; a parity-restricted "
            "fit would make the vanishing circular"
        )
    offset = (1 - zeta) // 2  # allowed indices have this parity
    idx = np.arange(fit.degree + 1)
    forbidden = idx[(idx % 2) != offset]
    denom = np.maximum(np.max(np.abs(fit.coeffs), axis=1), 1e-300)
    rel = np.max(np.abs(fit.coeffs[:, forbidden]), axis=1) / denom
    note = "" if hypothesis_checked else "hypothesis unchecked: no vanishing claim"
    return SymmetryReport(
        rel, float(np.max(rel)), tuple(int(i) for i in forbidden),
        hypothesis_checked, note,
    )


def zonal_symmetry_hypothesis(data: ZonalDataFamily, zeta: int) -> dict:
    """Check the reflection-symmetry data conditions for zonal sphere data.

    ``inner_reflected`` is the condition pairing a point-reflected hole with
    unreflected outer data: per mode l, the inner eps-polynomial may contain
    only powers j with zeta*(-1)^(l+j) = 1 and the outer only powers with
    zeta*(-1)^j = 1.  ``outer_reflected`` mirrors the roles.  For concentric
    spheres both reflection symmetries hold geometrically, so the two
    conditions cannot be distinguished by geometry alone.
    """
    if zeta not in (-1, 1):
        raise ValueError("zeta must be +1 or -1")

    def ok(side: dict, requires) -> bool:
        for l, coeffs in side.items():
            for j, c in enumerate(coeffs):
                if c != 0.0 and not requires(l, j):
                    return False
        return True

    inner_reflected = ok(data.inner, lambda l, j: zeta * (-1) ** (l + j) == 1) and ok(
        data.outer, lambda l, j: zeta * (-1) ** j == 1
    )
    outer_reflected = ok(data.inner, lambda l, j: zeta * (-1) ** j == 1) and ok(
        data.outer, lambda l, j: zeta * (-1) ** (l + j) == 1
    )
    return {"inner_reflected": inner_reflected, "outer_reflected": outer_reflected}


@dataclass(frozen=True)
class LimitCheckReport:
    """Gap between fitted constant terms and the eps = 0 system's rescaled field."""

    constant_terms: np.ndarray
    limit_values: np.ndarray
    max_gap: float
    fit_residuals: np.ndarray


def microscopic_limit_check(problem: SphereProblem, data: ZonalDataFamily,
                            grid, targets: TargetSet) -> LimitCheckReport:
    """Fit the rescaled-frame sweep and compare constant terms with the limit system.

    The fit is full-basis, of degree DEFAULT_DEGREE_SPECTRAL.  The positive
    sweep never includes eps = 0; the limit enters only through the
    decoupled system solved at eps = 0 (data polynomials evaluated there).
    """
    if targets.frame != MICROSCOPIC:
        raise ValueError("microscopic_limit_check requires microscopic targets")
    result = sweep(problem, data, np.asarray(grid, dtype=float), targets)
    fit = fit_series(result, DEFAULT_DEGREE_SPECTRAL, basis="full")
    limit = solve_limit_system(problem, data)
    limit_values = np.array([limit.microscopic(q) for q in targets.points])
    c0 = fit.coeffs[:, 0]
    max_gap = float(np.max(np.abs(c0 - limit_values)))
    return LimitCheckReport(c0, limit_values, max_gap, fit.residuals)
