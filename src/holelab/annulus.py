"""Spectral solver for concentric-sphere perforated domains in R^n, n >= 3.

The domain is the ball of radius r_o with the rescaled closure of the
radius-r_i ball removed: for a signed scale eps the hole is the sphere of
radius |eps|*r_i (point-reflected when eps < 0).  Dirichlet data are zonal:
finite expansions in the normalized Gegenbauer basis, one polynomial in eps
per mode; the inner datum is prescribed in the rescaled (microscopic)
variable, i.e. u(eps*q) is given for q on the unit-scale inner sphere.

Two independent solution paths are provided:

* ``solve_modes`` separates variables directly: per mode a 2x2 system for the
  harmonic radial profile A*r^l + B*r^(2-n-l).
* ``solve_densities`` solves the coupled pair of single-layer integral
  equations (one density on the unit-scale inner sphere, one on the outer
  sphere) in modal form and rebuilds the field from the layer representation.

``solve_limit_system`` solves the decoupled eps = 0 system, whose macroscopic
field is the hole-free Dirichlet solution and whose microscopic field is the
exterior correction seen at the hole scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import copysign

import numpy as np

from .kernels import (MAX_GEGENBAUER_DEGREE, check_dimension, sphere_single_layer_eigenvalue,
                      zonal_table)

MODE_CONDITION_LIMIT = 1e12

MACROSCOPIC = "macroscopic"
MICROSCOPIC = "microscopic"
_FRAMES = (MACROSCOPIC, MICROSCOPIC)

# Relative slack when classifying points against the annulus boundaries.
_DOMAIN_RTOL = 1e-10


class InadmissibleEpsError(ValueError):
    """The hole scale eps is zero or the scaled hole is not inside the outer sphere."""


class NearSingularModeError(RuntimeError):
    """A per-mode 2x2 system exceeded the conditioning guard (near-touching spheres)."""


class DomainError(ValueError):
    """Evaluation point outside the closed perforated domain in the requested frame."""


def coupling_sign(eps: float, n: int) -> float:
    """Sign (+1 or -1) carried by the rescaled inner layer on the hole boundary.

    The kernel scales as |eps|^(2-n) under x -> eps*x, so the eps^(n-2) factor
    of the rescaled inner layer leaves the sign of eps^n on its own trace.
    This is +1 unless eps < 0 and n is odd.
    """
    return copysign(1.0, eps) ** n


@dataclass(frozen=True)
class SphereProblem:
    """Concentric-sphere geometry: unit-scale inner radius and outer radius."""

    n: int
    r_i: float = 1.0
    r_o: float = 1.0

    def __post_init__(self):
        check_dimension(self.n)
        if self.r_i <= 0 or self.r_o <= 0:
            raise ValueError("sphere radii must be positive")

    @cached_property
    def axis(self) -> tuple:
        """The zonal axis: the last coordinate axis."""
        return tuple(0.0 if i < self.n - 1 else 1.0 for i in range(self.n))

    def check_eps(self, eps: float) -> None:
        if eps == 0.0:
            raise InadmissibleEpsError("eps = 0 is handled by solve_limit_system only")
        if abs(eps) * self.r_i >= self.r_o:
            raise InadmissibleEpsError(
                f"|eps|*r_i = {abs(eps) * self.r_i:g} must be < r_o = {self.r_o:g}"
            )


def eps_polynomial(coeffs) -> tuple:
    """Ascending eps-polynomial coefficients as a tuple of Python floats.

    Refuses an empty or non-1-D sequence with ValueError.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(
            f"eps-polynomial coefficients must be a non-empty 1-D sequence, got shape {c.shape}"
        )
    return tuple(c.tolist())


def eps_polyval(coeffs: tuple, eps: float) -> float:
    """An ``eps_polynomial`` at eps, by polyval's Horner recurrence in floats (same bits)."""
    eps = float(eps)
    acc = coeffs[-1] + eps * 0
    for k in range(len(coeffs) - 2, -1, -1):
        acc = coeffs[k] + acc * eps
    return acc


@dataclass(frozen=True)
class ZonalDataFamily:
    """Zonal Dirichlet data: per mode l, a polynomial in eps (ascending coeffs).

    ``inner`` gives the datum on the unit-scale inner sphere (the value of
    u(eps*q)); ``outer`` the datum on the outer sphere.  Each mode's
    coefficients are converted once, to an ``eps_polynomial``.
    """

    inner: dict = field(default_factory=dict)
    outer: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("inner", "outer"):
            side = getattr(self, name)
            for l in side:
                if not (isinstance(l, (int, np.integer)) and 0 <= l <= MAX_GEGENBAUER_DEGREE):
                    raise ValueError(f"mode degrees must be integers in "
                                     f"[0, {MAX_GEGENBAUER_DEGREE}], got {l!r}")
            object.__setattr__(self, name, {l: eps_polynomial(c) for l, c in side.items()})

    @property
    def max_degree(self) -> int:
        return max([*self.inner.keys(), *self.outer.keys()], default=0)

    def inner_coeff(self, l: int, eps: float) -> float:
        return eps_polyval(self.inner[l], eps) if l in self.inner else 0.0

    def outer_coeff(self, l: int, eps: float) -> float:
        return eps_polyval(self.outer[l], eps) if l in self.outer else 0.0


@dataclass(frozen=True)
class ModalSolution:
    """Per-mode radial coefficients (and optionally layer densities) at one eps.

    The field is sum_l (a_coeffs[l]*r^l + b_coeffs[l]*r^(2-n-l)) * zonal_l;
    ``cond`` is the worst per-mode condition (at least 1).
    """

    problem: SphereProblem
    eps: float
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    cond: float
    mu_inner: np.ndarray | None = None
    mu_outer: np.ndarray | None = None

    @property
    def max_degree(self) -> int:
        return len(self.a_coeffs) - 1

    def radial_profile(self, l: int, r: float) -> float:
        n = self.problem.n
        return self.a_coeffs[l] * r**l + self.b_coeffs[l] * r ** (2 - n - l)


@dataclass(frozen=True)
class LimitSolution:
    """Solution of the eps = 0 system: decoupled inner and outer densities.

    ``macroscopic`` evaluates the hole-free Dirichlet solution in the outer
    ball; ``microscopic`` evaluates the limiting rescaled field
    (inner layer)(q) + (outer field at 0) for q outside the unit-scale
    inner sphere.
    """

    problem: SphereProblem
    mu_inner: np.ndarray
    mu_outer: np.ndarray

    def macroscopic(self, point) -> float:
        prob = self.problem
        x = np.asarray(point, dtype=float)
        r = float(np.linalg.norm(x))
        if r > prob.r_o * (1 + _DOMAIN_RTOL):
            raise DomainError(f"|point| = {r:g} outside the outer ball of radius {prob.r_o:g}")
        return _zonal_sum(prob, x, [
            sphere_single_layer_eigenvalue(prob.n, prob.r_o, l) * m * (r / prob.r_o) ** l
            for l, m in enumerate(self.mu_outer)])

    def microscopic(self, point) -> float:
        prob = self.problem
        x = np.asarray(point, dtype=float)
        r = float(np.linalg.norm(x))
        if r < prob.r_i * (1 - _DOMAIN_RTOL):
            raise DomainError(f"|point| = {r:g} inside the unit-scale inner sphere")
        radial = [sphere_single_layer_eigenvalue(prob.n, prob.r_i, l) * m
                  * (prob.r_i / r) ** (l + prob.n - 2.0) for l, m in enumerate(self.mu_inner)]
        # the outer field's value at 0 is constant, so it joins mode 0 (zonal_0 = 1)
        radial[0] += sphere_single_layer_eigenvalue(prob.n, prob.r_o, 0) * float(self.mu_outer[0])
        return _zonal_sum(prob, x, radial)


def _mode_rhs(data: ZonalDataFamily, l: int, eps: float) -> tuple[float, float]:
    return data.inner_coeff(l, eps), data.outer_coeff(l, eps)


def _solve_mode_systems(systems: list, rhs: list) -> tuple[np.ndarray, float]:
    """Guard and solve the 2x2 systems of modes 0..L in one batched call each.

    Returns the (L+1, 2) solutions and the worst condition (at least 1).
    The first mode over MODE_CONDITION_LIMIT raises NearSingularModeError
    before any system is solved.
    """
    M = np.array(systems)
    sv = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = np.where(sv[:, 1] == 0, np.inf, sv[:, 0] / sv[:, 1])
    over = np.flatnonzero(cond > MODE_CONDITION_LIMIT)
    if over.size:
        l = over[0]
        raise NearSingularModeError(
            f"mode {l} system condition {cond[l]:.3e} exceeds {MODE_CONDITION_LIMIT:.0e} "
            "(hole nearly touching the outer sphere?)"
        )
    return np.linalg.solve(M, np.array(rhs)[..., None])[..., 0], max(1.0, cond.max())


def solve_modes(prob: SphereProblem, data: ZonalDataFamily, eps: float) -> ModalSolution:
    """Separated-variables solution for one admissible eps != 0.

    Per mode l the profile A*r^l + B*r^(2-n-l) matches the outer datum at
    r_o and the inner datum at rho = |eps|*r_i.  Because the inner datum is
    prescribed in the rescaled variable and degree-l zonal functions flip by
    (-1)^l under point reflection, the inner right-hand side carries the
    factor (sgn eps)^l.  The 2x2 system is solved for the scaled unknowns of
    alpha*(r/r_o)^l + beta*(rho/r)^(l+n-2), whose entries lie in [0, 1], so
    its condition stays near 1 unless the hole nearly touches the outer sphere.
    """
    prob.check_eps(eps)
    n = prob.n
    sgn = copysign(1.0, eps)
    rho = abs(eps) * prob.r_i
    t = rho / prob.r_o
    L = data.max_degree
    systems, rhs = [], []
    for l in range(L + 1):
        bi, bo = _mode_rhs(data, l, eps)
        systems.append([[t**l, 1.0], [1.0, t ** (l + n - 2)]])
        rhs.append([sgn**l * bi, bo])
    sol, worst = _solve_mode_systems(systems, rhs)
    a = np.zeros(L + 1)
    b = np.zeros(L + 1)
    for l, (alpha, beta) in enumerate(sol):
        a[l], b[l] = alpha / prob.r_o**l, beta * rho ** (l + n - 2)
    return ModalSolution(prob, eps, a, b, worst)


def solve_densities(
    prob: SphereProblem,
    data: ZonalDataFamily,
    eps: float,
    sign: float | None = None,
) -> ModalSolution:
    """Layer-density solution of the coupled integral system at eps != 0.

    One zonal density lives on the unit-scale inner sphere, one on the outer
    sphere.  The modal system couples them through the single-layer transfer
    rule (interior growth r^l, exterior decay r^(2-n-l)) and the rescaling of
    the inner layer, which contributes the coupling sign and (sgn eps)^l
    parity factors.  ``sign`` overrides the assembly sign for diagnostic
    experiments; the field reconstruction always uses the physical sign rule.
    """
    prob.check_eps(eps)
    n = prob.n
    nu = (n - 2) / 2.0
    sgn = copysign(1.0, eps)
    sign_true = coupling_sign(eps, n)
    sign_asm = sign_true if sign is None else float(sign)
    rho = abs(eps) * prob.r_i
    L = data.max_degree
    lams, systems, rhs = [], [], []
    for l in range(L + 1):
        bi, bo = _mode_rhs(data, l, eps)
        lam_i = sphere_single_layer_eigenvalue(n, prob.r_i, l)
        lam_o = sphere_single_layer_eigenvalue(n, prob.r_o, l)
        s_l = sgn**l
        lams.append((lam_i, lam_o, s_l))
        # Row 1: trace on the unit-scale inner sphere; the outer layer is
        # sampled at the rescaled points eps*x.  Row 2: trace on the outer
        # sphere; the rescaled inner layer decays from the hole.
        systems.append(
            [
                [sign_asm * lam_i, lam_o * (eps * prob.r_i / prob.r_o) ** l],
                [sign_asm * s_l * lam_i * (rho / prob.r_o) ** (l + 2 * nu), lam_o],
            ]
        )
        rhs.append([bi, bo])
    sol, worst = _solve_mode_systems(systems, rhs)
    mu_i, mu_o = sol.T.copy()
    a = np.zeros(L + 1)
    b = np.zeros(L + 1)
    for l, (lam_i, lam_o, s_l) in enumerate(lams):
        a[l] = lam_o * mu_o[l] / prob.r_o**l
        b[l] = sign_true * s_l * lam_i * rho ** (l + 2 * nu) * mu_i[l]
    return ModalSolution(prob, eps, a, b, worst, mu_i, mu_o)


def solve_limit_system(prob: SphereProblem, data: ZonalDataFamily) -> LimitSolution:
    """Solve the decoupled eps = 0 integral system.

    The outer density alone reproduces the outer datum; the inner density
    absorbs the inner datum minus the outer field's value at the origin.
    Data polynomials are evaluated at eps = 0.
    """
    n = prob.n
    L = data.max_degree
    mu_i = np.zeros(L + 1)
    mu_o = np.zeros(L + 1)
    for l in range(L + 1):
        lam_o = sphere_single_layer_eigenvalue(n, prob.r_o, l)
        mu_o[l] = data.outer_coeff(l, 0.0) / lam_o
    center = sphere_single_layer_eigenvalue(n, prob.r_o, 0) * mu_o[0]
    for l in range(L + 1):
        lam_i = sphere_single_layer_eigenvalue(n, prob.r_i, l)
        rhs = data.inner_coeff(l, 0.0) - (center if l == 0 else 0.0)
        mu_i[l] = rhs / lam_i
    return LimitSolution(prob, mu_i, mu_o)


def eval_solution(sol: ModalSolution, point, frame: str = MACROSCOPIC) -> float:
    """Evaluate the modal field at a point of the closed perforated domain.

    In the macroscopic frame the point is a physical location x with
    |eps|*r_i <= |x| <= r_o.  In the microscopic frame the point is a
    rescaled location q with r_i <= |q| <= r_o/|eps|, evaluated at x = eps*q.
    """
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}, got {frame!r}")
    prob = sol.problem
    n = prob.n
    x = np.asarray(point, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point must have length n={n}")
    if frame == MICROSCOPIC:
        x = sol.eps * x
    r = float(np.linalg.norm(x))
    lo = abs(sol.eps) * prob.r_i
    if r < lo * (1 - _DOMAIN_RTOL) or r > prob.r_o * (1 + _DOMAIN_RTOL):
        raise DomainError(
            f"point at radius {r:g} ({frame} frame) outside the closed annulus "
            f"[{lo:g}, {prob.r_o:g}]; distance "
            f"{max(lo - r, r - prob.r_o):g} past the nearer boundary"
        )
    r = min(max(r, lo), prob.r_o)
    return _zonal_sum(prob, x, [sol.radial_profile(l, r) for l in range(sol.max_degree + 1)])


def _zonal_sum(prob: SphereProblem, x: np.ndarray, radial) -> float:
    """sum_l radial[l] * zonal_l(t), added in mode order, at the physical point x.

    t is the cosine of the angle between x and the zonal axis, 1 at the origin.
    """
    norm = np.linalg.norm(x)
    t = 1.0 if norm == 0.0 else float(np.dot(x / norm, prob.axis))
    total = 0.0
    for f, z in zip(radial, zonal_table(len(radial) - 1, prob.n, t)):
        total += f * z
    return total


def boundary_residuals(sol: ModalSolution, data: ZonalDataFamily) -> tuple[float, float]:
    """Sup-norm modal residuals of the two boundary conditions.

    Inner: the trace of the field at the hole in the rescaled variable must
    reproduce the inner datum, mode by mode (with the (sgn eps)^l reflection
    factor).  Outer: the trace at r_o must reproduce the outer datum.  These
    are the physical traces; a solution assembled with the wrong coupling
    sign shows an O(1) inner residual here.
    """
    prob = sol.problem
    n = prob.n
    sgn = copysign(1.0, sol.eps)
    rho = abs(sol.eps) * prob.r_i
    res_i = 0.0
    res_o = 0.0
    for l in range(sol.max_degree + 1):
        bi, bo = _mode_rhs(data, l, sol.eps)
        res_i = max(res_i, abs(sgn**l * sol.radial_profile(l, rho) - bi))
        res_o = max(res_o, abs(sol.radial_profile(l, prob.r_o) - bo))
    return res_i, res_o


def closed_form_annulus(n: int, eps: float, r: float) -> float:
    """Reference solution for unit spheres with value eps on the hole, 0 outside.

    For 0 < |eps| < 1 and |eps| <= r <= 1 the solution of the Dirichlet
    problem in the unit ball with the scaled hole removed, boundary values
    eps on the hole and 0 on the unit sphere, is

        eps*|eps|^(n-2) / (1 - |eps|^(n-2)) * (r^(2-n) - 1).

    The sign of the value at fixed r flips with the sign of eps when n is
    odd and does not when n is even.
    """
    check_dimension(n)
    ae = abs(eps)
    if not 0.0 < ae < 1.0:
        raise ValueError(f"need 0 < |eps| < 1, got eps={eps}")
    if not ae <= r * (1 + _DOMAIN_RTOL) or r > 1 + _DOMAIN_RTOL:
        raise ValueError(f"need |eps| <= r <= 1, got r={r}, eps={eps}")
    return eps * ae ** (n - 2) / (1.0 - ae ** (n - 2)) * (r ** (2 - n) - 1.0)
