"""Dimension-generic Laplace kernel machinery.

Fundamental solution of the Laplace operator in R^n (n >= 3), unit-sphere
surface measures, Gegenbauer (ultraspherical) polynomials for zonal
expansions, and the modal eigenvalues of the single-layer operator on a
sphere.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from functools import lru_cache
from math import gamma, pi

import numpy as np

MAX_GEGENBAUER_DEGREE = 64
# Largest dimension whose unit-sphere area is a finite double: gamma(n/2)
# overflows from n = 344 on.
MAX_DIMENSION = 343

# Adaptive quadrature controls for the sphere eigenvalues.
EIGENVALUE_RTOL = 1e-13
_GL_NODES_PER_PANEL = 16
_MAX_PANEL_LEVELS = 14
# The Gauss-Legendre rule on [-1, 1] that every panel maps, built once at
# import: a fresh process pays for it once, not at every eigenvalue miss.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_NODES_PER_PANEL)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its refinement budget."""


def _sphere_area(n: int) -> float:
    # Surface measure of the unit sphere in R^n, valid for any n >= 1.
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


def check_dimension(n: int) -> None:
    """Refuse a dimension outside [3, MAX_DIMENSION] with ValueError."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got n={n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension must be <= {MAX_DIMENSION}, got n={n}")


def surface_measure_unit_sphere(n: int) -> float:
    """Surface measure of the unit sphere in R^n, for n >= 3.

    Returns 2*pi^(n/2)/Gamma(n/2); e.g. 4*pi for n=3 and 2*pi^2 for n=4.
    """
    check_dimension(n)
    return _sphere_area(n)


def fundamental_solution(n: int, x) -> float:
    """Radial fundamental solution of the Laplacian at the point x != 0.

    Value |x|^(2-n) / ((2-n) * s_n), strictly negative for n >= 3.
    """
    check_dimension(n)
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r == 0.0:
        raise ValueError("fundamental solution is singular at x = 0")
    return r ** (2 - n) / ((2 - n) * _sphere_area(n))


def fundamental_solution_radial(n: int, r):
    """Fundamental solution as a function of the distance r = |x| > 0.

    Vectorized over r; no zero check (quadrature nodes never hit 0).
    """
    return np.asarray(r, dtype=float) ** (2 - n) / ((2 - n) * _sphere_area(n))


def _check_gegenbauer(l: int, nu: float, t) -> None:
    if nu <= 0:
        raise ValueError(f"Gegenbauer index must be positive, got nu={nu}")
    if l < 0 or l > MAX_GEGENBAUER_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_GEGENBAUER_DEGREE}], got l={l}")
    if (np.abs(t) > 1.0 + 1e-12).any():  # not np.any: cheaper for zonal_table's scalar t
        raise ValueError("Gegenbauer argument outside [-1, 1]")


def _gegenbauer_rows(l: int, nu: float, t, c0):
    # Yields C_0 = c0 (a 1 of t's type), then C_1 .. C_l by the recurrence.
    c_prev = c0
    yield c_prev
    if l == 0:
        return
    c = 2.0 * nu * t
    yield c
    for k in range(2, l + 1):
        c, c_prev = (2.0 * (k + nu - 1.0) * t * c - (k + 2.0 * nu - 2.0) * c_prev) / k, c
        yield c


def gegenbauer(l: int, nu: float, t):
    """Gegenbauer polynomial C_l^(nu)(t) by the forward three-term recurrence.

    C_0 = 1, C_1 = 2*nu*t, l*C_l = 2*(l+nu-1)*t*C_{l-1} - (l+2*nu-2)*C_{l-2}.
    Vectorized over t in [-1, 1]; degrees capped at MAX_GEGENBAUER_DEGREE.
    """
    t = np.asarray(t, dtype=float)
    _check_gegenbauer(l, nu, t)
    for c in _gegenbauer_rows(l, nu, t, np.ones_like(t)):
        pass  # only the last row, C_l, is kept
    return c


def gegenbauer_at_one(l: int, nu: float) -> float:
    """C_l^(nu)(1) = binomial(l + 2*nu - 1, l), always positive."""
    return float(gegenbauer(l, nu, 1.0))


def zonal(l: int, n: int, t):
    """Zonal basis function of degree l on the unit sphere of R^n.

    Normalized Gegenbauer value C_l^(nu)(t) / C_l^(nu)(1) with nu = (n-2)/2,
    so the value at the pole (t = 1) is 1.  For n = 3 this is the Legendre
    polynomial P_l(t).
    """
    nu = (n - 2) / 2.0
    return gegenbauer(l, nu, t) / gegenbauer_at_one(l, nu)


def zonal_table(L: int, n: int, t: float) -> np.ndarray:
    """Zonal values of degrees 0..L at one point t, from one forward recurrence.

    Entry l equals ``zonal(l, n, t)`` bit for bit: the recurrence at t, run in
    Python floats with gegenbauer's arithmetic, divided row by row by the
    same recurrence at t = 1.  Same degree cap and range check as gegenbauer.
    """
    nu = (n - 2) / 2.0
    t = float(t)
    _check_gegenbauer(L, nu, t)
    return np.array([c / c1 for c, c1 in zip(_gegenbauer_rows(L, nu, t, 1.0),
                                             _gegenbauer_rows(L, nu, 1.0, 1.0))])


def _eigenvalue_integrand(n: int, a: float, l: int, theta):
    # Polar-angle reduction of the on-sphere single layer applied to the
    # degree-l zonal density, evaluated at the pole.  The chord length is
    # d = 2*a*sin(theta/2); the (sin theta)^(n-2) area factor cancels the
    # kernel singularity so the integrand is bounded at theta = 0.
    d = 2.0 * a * np.sin(0.5 * theta)
    kern = fundamental_solution_radial(n, d)
    ring = _sphere_area(n - 1) * np.sin(theta) ** (n - 2)
    return kern * zonal(l, n, np.cos(theta)) * a ** (n - 1) * ring


@lru_cache(maxsize=4096)
def sphere_single_layer_eigenvalue(n: int, a: float, l: int) -> float:
    """Eigenvalue of the single-layer operator on the radius-a sphere in R^n.

    The single layer of the zonal density of degree l on the radius-a sphere,
    evaluated on the sphere, equals this value times the same zonal function.
    Computed by panel-doubled Gauss-Legendre quadrature of the polar-angle
    reduction; refinement stops when the relative change drops below
    EIGENVALUE_RTOL.
    All eigenvalues are strictly negative and decrease in magnitude as l grows.
    """
    check_dimension(n)
    if a <= 0:
        raise ValueError(f"sphere radius must be positive, got a={a}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got l={l}")

    def integrate(panels: int) -> float:
        edges = np.linspace(0.0, pi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        theta = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        return float(np.dot(w, _eigenvalue_integrand(n, a, l, theta)))

    panels = max(2, l // 2)
    value = integrate(panels)
    change = np.inf
    for _ in range(_MAX_PANEL_LEVELS):
        panels *= 2
        refined = integrate(panels)
        change = abs(refined - value) / max(abs(refined), 1e-300)
        if change <= EIGENVALUE_RTOL:
            return refined
        value = refined
    raise QuadratureError(
        f"eigenvalue quadrature did not converge for n={n}, a={a}, l={l} "
        f"(last relative change {change:.2e})"
    )
