import numpy as np
import pytest
from math import gamma, pi, factorial, floor

from holelab.kernels import (
    MAX_DIMENSION,
    MAX_GEGENBAUER_DEGREE,
    QuadratureError,
    check_dimension,
    fundamental_solution,
    fundamental_solution_radial,
    gegenbauer,
    gegenbauer_at_one,
    sphere_single_layer_eigenvalue,
    surface_measure_unit_sphere,
    zonal,
    zonal_table,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def gegenbauer_series(l, nu, t):
    # Explicit finite sum: C_l^nu(t) = sum_i (-1)^i Gamma(l-i+nu) / (Gamma(nu)
    # i! (l-2i)!) (2t)^(l-2i).  Independent of the recurrence.  Also returns
    # the sum of term magnitudes: the alternating sum cancels, so comparisons
    # must be scaled by it.
    total = 0.0
    magnitude = 0.0
    for i in range(floor(l / 2) + 1):
        term = (
            (-1) ** i
            * gamma(l - i + nu)
            / (gamma(nu) * factorial(i) * factorial(l - 2 * i))
            * (2 * t) ** (l - 2 * i)
        )
        total += term
        magnitude += abs(term)
    return total, magnitude


def eigenvalue_surface_quadrature_n3(l, n_theta=400, n_phi=400):
    # Brute-force 2-D surface quadrature on the unit sphere in R^3: single
    # layer of the degree-l zonal density evaluated at the pole (0,0,1).
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * pi * (x + 1.0)
    w_theta = 0.5 * pi * w
    phi = (np.arange(n_phi) + 0.5) * 2 * pi / n_phi
    w_phi = 2 * pi / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    y = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    pole = np.array([0.0, 0.0, 1.0])
    r = np.linalg.norm(y - pole, axis=-1)
    dens = zonal(l, 3, np.cos(tt))
    integrand = (-1.0 / (4 * pi * r)) * dens * np.sin(tt)
    return float(np.einsum("ij,i->", integrand * w_phi, w_theta))


def eigenvalue_simpson_reduced(n, a, l, panels=20001):
    # Composite Simpson on the polar-angle reduction; a different quadrature
    # family from the adaptive Gauss-Legendre production path.
    theta = np.linspace(0.0, pi, panels)
    d = 2.0 * a * np.sin(0.5 * theta[1:])
    kern = fundamental_solution_radial(n, d)
    ring = surface_measure_unit_sphere(n - 1) if n - 1 >= 3 else 2 * pi ** ((n - 1) / 2) / gamma((n - 1) / 2)
    body = kern * zonal(l, n, np.cos(theta[1:])) * a ** (n - 1) * ring * np.sin(theta[1:]) ** (n - 2)
    # the integrand has a removable point at 0; patch with the neighbor value
    f = np.concatenate([[body[0]], body])
    h = theta[1] - theta[0]
    return float(h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum()))


# ---------------------------------------------------------------------------
# Surface measure and fundamental solution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,expected",
    [(3, 4 * pi), (4, 2 * pi**2), (6, pi**3)],
)
def test_surface_measure_values(n, expected):
    assert surface_measure_unit_sphere(n) == pytest.approx(expected, rel=1e-15)


def test_surface_measure_rejects_low_dimension():
    with pytest.raises(ValueError):
        surface_measure_unit_sphere(2)


def test_dimension_range_is_where_the_sphere_area_is_finite():
    import holelab.kernels as kernels
    check_dimension(3)
    check_dimension(MAX_DIMENSION)
    assert 0.0 < surface_measure_unit_sphere(MAX_DIMENSION) < np.inf
    with pytest.raises(OverflowError):
        kernels._sphere_area(MAX_DIMENSION + 1)
    for n in (2, MAX_DIMENSION + 1):
        with pytest.raises(ValueError, match=f"got n={n}"):
            check_dimension(n)


def test_every_dimension_taker_refuses_one_past_the_range():
    # the overflow of gamma(n/2) from n = 344 on is refused by check_dimension,
    # not met inside the computation
    from holelab.annulus import closed_form_annulus

    n = MAX_DIMENSION + 1
    for call in (lambda: surface_measure_unit_sphere(n),
                 lambda: fundamental_solution(n, [1.0] + [0.0] * (n - 1)),
                 lambda: sphere_single_layer_eigenvalue(n, 1.0, 0),
                 lambda: closed_form_annulus(n, 0.1, 0.5)):
        with pytest.raises(ValueError, match=f"<= {MAX_DIMENSION}, got n={n}"):
            call()


def test_fundamental_solution_values():
    assert fundamental_solution(3, [1.0, 0, 0]) == pytest.approx(-1 / (4 * pi), rel=1e-15)
    assert fundamental_solution(4, [0, 1.0, 0, 0]) == pytest.approx(-1 / (4 * pi**2), rel=1e-15)
    assert fundamental_solution(3, [0, 0, 2.0]) == pytest.approx(-1 / (8 * pi), rel=1e-15)


def test_fundamental_solution_rejects_origin_and_low_dim():
    with pytest.raises(ValueError):
        fundamental_solution(3, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fundamental_solution(2, [1.0, 0.0])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("eps", [0.5, -0.25, 2.0, -3.0])
def test_scaling_identity(n, eps):
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.normal(size=n)
        lhs = fundamental_solution(n, eps * z)
        rhs = abs(eps) ** (2 - n) * fundamental_solution(n, z)
        assert lhs == pytest.approx(rhs, rel=1e-14)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials
# ---------------------------------------------------------------------------

def test_gegenbauer_frozen_values():
    assert gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert gegenbauer(1, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)
    # Legendre P_2(0) = -1/2, computed from the explicit series oracle
    assert gegenbauer_series(2, 0.5, 0.0)[0] == pytest.approx(-0.5, abs=1e-15)
    assert gegenbauer(2, 0.5, 0.0) == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 13])
def test_gegenbauer_recurrence_matches_series(nu, l):
    for t in np.linspace(-1, 1, 21):
        got = gegenbauer(l, nu, t)
        want, magnitude = gegenbauer_series(l, nu, t)
        assert abs(got - want) <= 1e-13 * max(1.0, magnitude)


def test_gegenbauer_preconditions():
    with pytest.raises(ValueError):
        gegenbauer(2, 0.5, 1.5)
    with pytest.raises(ValueError):
        gegenbauer(65, 0.5, 0.0)
    with pytest.raises(ValueError):
        gegenbauer(2, 0.0, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 40])
def test_gegenbauer_at_one_equals_the_array_recurrence_bit_for_bit(n):
    nu = (n - 2) / 2.0
    for l in range(MAX_GEGENBAUER_DEGREE + 1):
        got = gegenbauer_at_one(l, nu)
        assert type(got) is float
        assert got.hex() == float(gegenbauer(l, nu, 1.0)).hex(), l
    with pytest.raises(ValueError, match="got l=65"):
        gegenbauer_at_one(MAX_GEGENBAUER_DEGREE + 1, nu)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 40])
def test_zonal_table_rows_equal_zonal_bit_for_bit(n):
    rng = np.random.default_rng(n)
    ts = [1.0, -1.0, 0.0, *rng.uniform(-1, 1, 20)]
    for t in ts:
        table = zonal_table(MAX_GEGENBAUER_DEGREE, n, t)
        assert table.shape == (MAX_GEGENBAUER_DEGREE + 1,)
        want = [float(zonal(l, n, t)) for l in range(MAX_GEGENBAUER_DEGREE + 1)]
        assert table.tobytes() == np.array(want).tobytes(), t
    for L in (0, 1, 5):
        assert zonal_table(L, n, ts[-1]).tobytes() == zonal_table(
            MAX_GEGENBAUER_DEGREE, n, ts[-1])[: L + 1].tobytes()


def test_zonal_table_preconditions():
    with pytest.raises(ValueError, match="got l=65"):
        zonal_table(MAX_GEGENBAUER_DEGREE + 1, 3, 0.0)
    with pytest.raises(ValueError, match="got l=-1"):
        zonal_table(-1, 3, 0.0)
    with pytest.raises(ValueError, match="outside"):
        zonal_table(2, 3, 1.0 + 1e-9)
    with pytest.raises(ValueError, match="index"):
        zonal_table(2, 2, 0.0)


@pytest.mark.parametrize("n,r,R", [(3, 0.3, 1.0), (4, 0.5, 2.0), (5, 0.3, 1.0), (6, 0.4, 1.5)])
def test_generating_function(n, r, R):
    # sum_l C_l^nu(t) r^l / R^(l+2nu) converges to (r^2+R^2-2rRt)^(-nu)
    # geometrically in r/R; L is chosen from the tail bound |C_l(t)| <= C_l(1).
    nu = (n - 2) / 2
    q = r / R
    L = 0
    tail = gegenbauer_at_one(L, nu) * q**L / R ** (2 * nu) / (1 - q)
    while tail > 1e-12 and L < 60:
        L += 1
        tail = gegenbauer_at_one(L, nu) * q**L / R ** (2 * nu) / (1 - q)
    t = np.linspace(-1, 1, 41)
    total = np.zeros_like(t)
    for l in range(L + 1):
        total += gegenbauer(l, nu, t) * r**l / R ** (l + 2 * nu)
    exact = (r**2 + R**2 - 2 * r * R * t) ** (-nu)
    assert np.max(np.abs(total - exact) / np.abs(exact)) < 1e-10


# ---------------------------------------------------------------------------
# Sphere single-layer eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalue_against_surface_quadrature_n3():
    # Independent 2-D oracle first: frozen values -1 and -1/3.
    assert eigenvalue_surface_quadrature_n3(0) == pytest.approx(-1.0, abs=1e-9)
    assert eigenvalue_surface_quadrature_n3(1) == pytest.approx(-1 / 3, abs=1e-9)
    assert sphere_single_layer_eigenvalue(3, 1.0, 0) == pytest.approx(-1.0, rel=1e-11)
    assert sphere_single_layer_eigenvalue(3, 1.0, 1) == pytest.approx(-1 / 3, rel=1e-11)


def test_eigenvalue_against_simpson_n4():
    oracle = eigenvalue_simpson_reduced(4, 1.0, 0)
    assert oracle == pytest.approx(-0.5, abs=1e-9)
    assert sphere_single_layer_eigenvalue(4, 1.0, 0) == pytest.approx(-0.5, rel=1e-11)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_eigenvalue_closed_form_hypothesis(n):
    # -a/(2l+n-2) is treated as a hypothesis; verified against quadrature
    # (and, above, against independent oracles for spot values).
    for l in range(9):
        lam = sphere_single_layer_eigenvalue(n, 1.0, l)
        assert lam == pytest.approx(-1.0 / (2 * l + n - 2), rel=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_eigenvalue_sign_and_monotonicity(n):
    values = [sphere_single_layer_eigenvalue(n, 1.3, l) for l in range(17)]
    assert all(v < 0 for v in values)
    assert all(values[l + 1] > values[l] for l in range(16))


@pytest.mark.parametrize("n,l", [(3, 0), (4, 2), (5, 5), (6, 9)])
def test_eigenvalue_linear_in_radius(n, l):
    base = sphere_single_layer_eigenvalue(n, 0.7, l)
    for c in (0.5, 2.0, 3.7):
        scaled = sphere_single_layer_eigenvalue(n, 0.7 * c, l)
        assert scaled == pytest.approx(c * base, rel=1e-10)


def test_eigenvalue_preconditions_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        sphere_single_layer_eigenvalue(3, -1.0, 0)
    with pytest.raises(ValueError):
        sphere_single_layer_eigenvalue(3, 1.0, -1)
    with pytest.raises(ValueError):
        sphere_single_layer_eigenvalue(2, 1.0, 0)
    # Exhausting the refinement budget is reported as QuadratureError,
    # distinct from the precondition failures above.  The cache is cleared
    # first: any cached unit value of (3, 2) would answer without a quadrature.
    import holelab.kernels as kernels
    sphere_single_layer_eigenvalue.cache_clear()
    monkeypatch.setattr(kernels, "_MAX_PANEL_LEVELS", 0)
    with pytest.raises(QuadratureError):
        sphere_single_layer_eigenvalue(3, 0.987654321, 2)


@pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
def test_eigenvalue_refuses_a_non_finite_radius(a):
    sphere_single_layer_eigenvalue.cache_clear()
    with pytest.raises(ValueError, match="positive and finite"):
        sphere_single_layer_eigenvalue(3, a, 2)
    assert sphere_single_layer_eigenvalue.cache_info().currsize == 0


def _eigenvalue_integrand_at_radius(n, a, l, theta):
    # The polar-angle reduction on the radius-a sphere itself: the chord
    # 2*a*sin(theta/2) and the area factor a^(n-1) stay in.
    from holelab.kernels import _sphere_area

    d = 2.0 * a * np.sin(0.5 * theta)
    ring = _sphere_area(n - 1) * np.sin(theta) ** (n - 2)
    return fundamental_solution_radial(n, d) * zonal(l, n, np.cos(theta)) * a ** (n - 1) * ring


def _reference_eigenvalue(n, a, l):
    # The quadrature at radius a itself, as it ran before radii were scaled
    # from the unit sphere, with the Gauss rule built at every call.
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def integrate(panels):
        edges = np.linspace(0.0, pi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        theta = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        return float(np.dot(w, _eigenvalue_integrand_at_radius(n, a, l, theta)))

    panels = max(2, l // 2)
    value = integrate(panels)
    for _ in range(14):
        panels *= 2
        refined = integrate(panels)
        if abs(refined - value) / max(abs(refined), 1e-300) <= 1e-13:
            return refined
        value = refined
    raise AssertionError(f"reference did not converge for n={n}, a={a}, l={l}")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_eigenvalues_equal_the_per_call_rule_bit_for_bit(n):
    # Each radius is the radius times the unit-sphere quadrature, bit for bit,
    # and within 1e-14 of the quadrature taken at that radius itself.
    for l in range(17):
        unit = _reference_eigenvalue(n, 1.0, l)
        for a in (0.37, 1.0, 1.3, 2.0):
            got = sphere_single_layer_eigenvalue(n, a, l)
            assert got.hex() == (a * unit).hex(), (a, l)
            assert got == pytest.approx(_reference_eigenvalue(n, a, l), rel=1e-14, abs=0), (a, l)


def test_eigenvalue_miss_builds_no_gauss_rule(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    sphere_single_layer_eigenvalue.cache_clear()
    sphere_single_layer_eigenvalue(5, 0.37, 7)
    sphere_single_layer_eigenvalue(3, 1.3, 0)
    # each radius other than 1 adds its own entry and the unit entry it scales
    assert sphere_single_layer_eigenvalue.cache_info().misses == 4
    assert calls == []


def test_eigenvalue_integrates_once_per_dimension_and_degree(monkeypatch):
    import holelab.kernels as kernels

    integrated = []
    integrand = kernels._eigenvalue_integrand
    monkeypatch.setattr(kernels, "_eigenvalue_integrand",
                        lambda n, l, theta: integrated.append((n, l)) or integrand(n, l, theta))
    sphere_single_layer_eigenvalue.cache_clear()
    sphere_single_layer_eigenvalue(4, 1.0, 3)
    levels = len(integrated)  # the panel levels of one quadrature
    assert levels >= 2 and set(integrated) == {(4, 3)}
    for a in (0.37, 1.3, 2.0):
        sphere_single_layer_eigenvalue(4, a, 3)
    assert len(integrated) == levels
    # a radius other than 1 first: its unit value is integrated then, and reused
    sphere_single_layer_eigenvalue(4, 0.5, 5)
    seen = len(integrated)
    assert seen > levels and set(integrated[levels:]) == {(4, 5)}
    sphere_single_layer_eigenvalue(4, 1.0, 5)
    assert len(integrated) == seen
    # cache_clear leaves no unit value behind: the next radius integrates again
    sphere_single_layer_eigenvalue.cache_clear()
    sphere_single_layer_eigenvalue(4, 2.0, 3)
    assert integrated[seen:] == [(4, 3)] * levels


def test_shared_gauss_rule_is_read_only():
    import holelab.kernels as kernels

    for array in (kernels._GL_NODES, kernels._GL_WEIGHTS):
        assert array.shape == (16,)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
