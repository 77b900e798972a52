from math import copysign

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holelab.annulus import (
    MODE_CONDITION_LIMIT,
    DomainError,
    InadmissibleEpsError,
    NearSingularModeError,
    SphereProblem,
    ZonalDataFamily,
    boundary_residuals,
    closed_form_annulus,
    coupling_sign,
    eval_solution,
    solve_densities,
    solve_limit_system,
    solve_modes,
)
from holelab.continuation import default_grid
from holelab.kernels import MAX_DIMENSION, MAX_GEGENBAUER_DEGREE, sphere_single_layer_eigenvalue

HOLE_EPS_DATA = ZonalDataFamily(inner={0: (0.0, 1.0)})  # value eps on the hole, 0 outside


def axis_point(problem, r):
    return r * np.asarray(problem.axis)


def random_point(rng, n, radius):
    v = rng.normal(size=n)
    return radius * v / np.linalg.norm(v)


def test_coupling_sign_rule():
    assert coupling_sign(0.5, 3) == 1.0
    assert coupling_sign(-0.5, 3) == -1.0
    assert coupling_sign(-0.5, 4) == 1.0
    assert coupling_sign(-0.5, 5) == -1.0


def test_problem_validation():
    with pytest.raises(ValueError):
        SphereProblem(2)
    with pytest.raises(ValueError, match="<= 343"):
        SphereProblem(MAX_DIMENSION + 1)
    with pytest.raises(ValueError):
        SphereProblem(3, r_i=-1.0)
    prob = SphereProblem(3)
    with pytest.raises(InadmissibleEpsError):
        prob.check_eps(0.0)
    with pytest.raises(InadmissibleEpsError):
        prob.check_eps(1.0)


# ---------------------------------------------------------------------------
# zonal data: coefficients converted once, evaluated by Horner's rule
# ---------------------------------------------------------------------------

def test_data_coefficients_equal_polyval_bit_for_bit():
    rng = np.random.default_rng(28)
    grid = [float(e) for e in default_grid()]
    eps_values = [0.0, -0.0, 1.0, -1.0, *grid, *(-e for e in grid)]
    for _ in range(200):
        sides = []
        for _ in range(2):
            k = int(rng.integers(1, 7))
            c = [float(x) for x in rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)]
            c[int(rng.integers(k))] = int(rng.integers(-5, 6))
            c[int(rng.integers(k))] = -0.0
            sides.append(c)
        l = int(rng.integers(0, 9))
        data = ZonalDataFamily(inner={l: sides[0]}, outer={l: tuple(sides[1])})
        for eps in eps_values:
            got = (data.inner_coeff(l, eps), data.outer_coeff(l, eps))
            for value, c in zip(got, sides):
                want = float(np.polynomial.polynomial.polyval(eps, np.asarray(c, dtype=float)))
                assert value.hex() == want.hex(), (c, eps)
        assert data.inner_coeff(l + 1, 0.3) == 0.0 and data.outer_coeff(l + 1, -0.3) == 0.0


@pytest.mark.parametrize("coeffs", [(), [], [[1.0, 2.0]], 3.0])
def test_zonal_data_refuses_empty_or_non_1d_coefficients(coeffs):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        ZonalDataFamily(inner={0: coeffs})
    with pytest.raises(ValueError, match="non-empty 1-D"):
        ZonalDataFamily(inner={0: (1.0,)}, outer={2: coeffs})


@pytest.mark.parametrize("mode", [-1, MAX_GEGENBAUER_DEGREE + 1, 1.5])
def test_zonal_data_refuses_a_mode_outside_the_gegenbauer_range(mode):
    # refused when made, not at the first solve (in the eigenvalue quadrature
    # above 64, a TypeError for 1.5)
    for sides in ({"inner": {mode: (1.0,)}}, {"outer": {mode: (1.0,)}}):
        with pytest.raises(ValueError, match=f"in \\[0, {MAX_GEGENBAUER_DEGREE}\\], got {mode}"):
            ZonalDataFamily(**sides)
    assert ZonalDataFamily(inner={MAX_GEGENBAUER_DEGREE: (1.0,)}).max_degree == MAX_GEGENBAUER_DEGREE


# ---------------------------------------------------------------------------
# closed form for the unit-spheres hole problem
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert closed_form_annulus(3, 0.5, 0.75) == pytest.approx(1 / 6, rel=1e-14)
    assert closed_form_annulus(3, -0.5, 0.75) == pytest.approx(-1 / 6, rel=1e-14)
    assert closed_form_annulus(4, 0.5, 0.75) == pytest.approx(7 / 54, rel=1e-14)
    assert closed_form_annulus(4, -0.5, 0.75) == pytest.approx(-7 / 54, rel=1e-14)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        closed_form_annulus(3, 0.0, 0.5)
    with pytest.raises(ValueError):
        closed_form_annulus(3, 1.5, 0.75)
    with pytest.raises(ValueError):
        closed_form_annulus(3, 0.5, 0.25)


# ---------------------------------------------------------------------------
# separated-variables solver
# ---------------------------------------------------------------------------

def test_solve_modes_hole_example():
    sol3 = solve_modes(SphereProblem(3), HOLE_EPS_DATA, 0.5)
    assert eval_solution(sol3, axis_point(SphereProblem(3), 0.75)) == pytest.approx(1 / 6, rel=1e-12)
    sol4 = solve_modes(SphereProblem(4), HOLE_EPS_DATA, 0.5)
    assert eval_solution(sol4, axis_point(SphereProblem(4), 0.75)) == pytest.approx(
        0.12962962962962962, rel=1e-12
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_constant_data_gives_constant_solution(n):
    c = 2.75
    prob = SphereProblem(n)
    data = ZonalDataFamily(inner={0: (c,)}, outer={0: (c,)})
    sol = solve_modes(prob, data, 0.4)
    assert sol.a_coeffs[0] == pytest.approx(c, rel=1e-13)
    assert abs(sol.b_coeffs[0]) <= 1e-13 * abs(c)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_point(rng, n, rng.uniform(0.45, 0.99))
        for frame in ("macroscopic",):
            assert eval_solution(sol, p, frame) == pytest.approx(c, rel=1e-12)


def test_solve_modes_rejects_bad_eps():
    with pytest.raises(InadmissibleEpsError):
        solve_modes(SphereProblem(3), HOLE_EPS_DATA, 0.0)
    with pytest.raises(InadmissibleEpsError):
        solve_modes(SphereProblem(3), HOLE_EPS_DATA, 1.1)


def test_near_touching_reported():
    prob = SphereProblem(3)
    with pytest.raises(NearSingularModeError):
        solve_modes(prob, HOLE_EPS_DATA, 1.0 - 1e-14)


# ---------------------------------------------------------------------------
# the batched modal solve against a per-mode reference loop
# ---------------------------------------------------------------------------

def _reference_solve_2x2(M, rhs, l):
    sv = np.linalg.svd(M, compute_uv=False)
    cond = np.inf if sv[1] == 0 else sv[0] / sv[1]
    if cond > MODE_CONDITION_LIMIT:
        raise NearSingularModeError(
            f"mode {l} system condition {cond:.3e} exceeds {MODE_CONDITION_LIMIT:.0e} "
            "(hole nearly touching the outer sphere?)"
        )
    return np.linalg.solve(M, rhs), cond


def _reference_solve_modes(prob, data, eps):
    # one 2x2 guard and solve per mode, in mode order
    n = prob.n
    sgn = copysign(1.0, eps)
    rho = abs(eps) * prob.r_i
    t = rho / prob.r_o
    L = data.max_degree
    a = np.zeros(L + 1)
    b = np.zeros(L + 1)
    worst = 1.0
    for l in range(L + 1):
        bi, bo = data.inner_coeff(l, eps), data.outer_coeff(l, eps)
        M = np.array([[t**l, 1.0], [1.0, t ** (l + n - 2)]])
        (alpha, beta), cond = _reference_solve_2x2(M, np.array([sgn**l * bi, bo]), l)
        a[l], b[l] = alpha / prob.r_o**l, beta * rho ** (l + n - 2)
        worst = max(worst, cond)
    return a, b, worst


def _reference_solve_densities(prob, data, eps, sign=None):
    n = prob.n
    nu = (n - 2) / 2.0
    sgn = copysign(1.0, eps)
    sign_true = coupling_sign(eps, n)
    sign_asm = sign_true if sign is None else float(sign)
    rho = abs(eps) * prob.r_i
    L = data.max_degree
    a, b, mu_i, mu_o = (np.zeros(L + 1) for _ in range(4))
    worst = 1.0
    for l in range(L + 1):
        bi, bo = data.inner_coeff(l, eps), data.outer_coeff(l, eps)
        lam_i = sphere_single_layer_eigenvalue(n, prob.r_i, l)
        lam_o = sphere_single_layer_eigenvalue(n, prob.r_o, l)
        s_l = sgn**l
        M = np.array(
            [
                [sign_asm * lam_i, lam_o * (eps * prob.r_i / prob.r_o) ** l],
                [sign_asm * s_l * lam_i * (rho / prob.r_o) ** (l + 2 * nu), lam_o],
            ]
        )
        sol, cond = _reference_solve_2x2(M, np.array([bi, bo]), l)
        mu_i[l], mu_o[l] = sol
        worst = max(worst, cond)
        a[l] = lam_o * mu_o[l] / prob.r_o**l
        b[l] = sign_true * s_l * lam_i * rho ** (l + 2 * nu) * mu_i[l]
    return a, b, mu_i, mu_o, worst


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_batched_modal_solves_match_per_mode_loop(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 9))
    prob = SphereProblem(n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(1.0, 2.0)))
    eps = float(rng.uniform(0.05, 0.95) * prob.r_o / prob.r_i * rng.choice((-1, 1)))
    data = ZonalDataFamily(
        inner={int(l): tuple(rng.uniform(-1, 1, 3)) for l in rng.choice(9, 3, replace=False)},
        outer={int(l): tuple(rng.uniform(-1, 1, 2)) for l in rng.choice(9, 2, replace=False)},
    )
    a, b, cond = _reference_solve_modes(prob, data, eps)
    sol = solve_modes(prob, data, eps)
    assert _bits([*sol.a_coeffs, *sol.b_coeffs, sol.cond]) == _bits([*a, *b, cond])
    for sign in (None, -coupling_sign(eps, n)):
        a, b, mu_i, mu_o, cond = _reference_solve_densities(prob, data, eps, sign)
        sol = solve_densities(prob, data, eps, sign)
        got = [*sol.a_coeffs, *sol.b_coeffs, *sol.mu_inner, *sol.mu_outer, sol.cond]
        assert _bits(got) == _bits([*a, *b, *mu_i, *mu_o, cond])


@pytest.mark.parametrize("solve", [solve_modes, solve_densities])
def test_near_touching_names_the_first_failing_mode(solve):
    # every mode is near singular; the batched guard names the one the
    # per-mode loop stops at, with the same message
    prob = SphereProblem(4, 1.0, 1.0)
    data = ZonalDataFamily(inner={l: (1.0,) for l in range(5)}, outer={2: (1.0,)})
    eps = 1.0 - 1e-14
    reference = {solve_modes: _reference_solve_modes,
                 solve_densities: _reference_solve_densities}[solve]
    with pytest.raises(NearSingularModeError) as want:
        reference(prob, data, eps)
    with pytest.raises(NearSingularModeError) as got:
        solve(prob, data, eps)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("mode 0 ")


def test_mode_guard_names_the_lowest_mode_and_reports_the_worst():
    from holelab.annulus import _solve_mode_systems

    eye, rank_one = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(NearSingularModeError, match=r"^mode 2 system condition inf "):
        _solve_mode_systems([eye, eye, rank_one, eye, rank_one], [[1.0, 0.0]] * 5)
    sol, worst = _solve_mode_systems([eye, [[2.0, 0.0], [0.0, 0.5]], eye], [[1.0, 1.0]] * 3)
    assert worst == 4.0
    assert sol.tolist() == [[1.0, 1.0], [0.5, 2.0], [1.0, 1.0]]


# ---------------------------------------------------------------------------
# layer-density solver and the representation formula
# ---------------------------------------------------------------------------

def test_zero_data_zero_densities():
    sol = solve_densities(SphereProblem(4), ZonalDataFamily(inner={1: (0.0,)}), 0.3)
    assert np.all(sol.mu_inner == 0) and np.all(sol.mu_outer == 0)


def test_densities_match_modes_on_hole_example():
    prob = SphereProblem(3)
    a = solve_modes(prob, HOLE_EPS_DATA, 0.5)
    b = solve_densities(prob, HOLE_EPS_DATA, 0.5)
    p = axis_point(prob, 0.75)
    assert eval_solution(b, p) == pytest.approx(eval_solution(a, p), rel=1e-10)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("eps", [0.35, -0.35])
def test_representation_consistency_random_data(n, eps):
    # The two solution paths agree at random admissible points.
    rng = np.random.default_rng(42 + n)
    prob = SphereProblem(n)
    data = ZonalDataFamily(
        inner={0: (0.3, -0.2), 1: (0.5, 0.1), 2: (-0.4, 0.0, 0.2)},
        outer={0: (0.1,), 2: (0.25, -0.3)},
    )
    sol_m = solve_modes(prob, data, eps)
    sol_d = solve_densities(prob, data, eps)
    for _ in range(20):
        p = random_point(rng, n, rng.uniform(abs(eps) + 0.05, 0.99))
        um, ud = eval_solution(sol_m, p), eval_solution(sol_d, p)
        assert ud == pytest.approx(um, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 8), r_o=st.floats(1.0, 2.0),
       eps=st.sampled_from([0.05, -0.05]) | st.floats(0.05, 0.9).flatmap(
           lambda e: st.sampled_from([e, -e])),
       seed=st.integers(0, 2**32 - 1))
@example(n=8, r_o=1.0, eps=0.05, seed=0)
@example(n=8, r_o=1.0, eps=-0.05, seed=1)
def test_solve_modes_agrees_with_solve_densities(n, r_o, eps, seed):
    # Both paths give one field for modes 0..6, down to small holes in high
    # dimension, where unscaled 2x2 systems exceed the condition guard.
    rng = np.random.default_rng(seed)
    prob = SphereProblem(n, 1.0, r_o)
    data = ZonalDataFamily(
        inner={l: tuple(rng.uniform(-1, 1, 2)) for l in range(7)},
        outer={l: tuple(rng.uniform(-1, 1, 2)) for l in range(7)},
    )
    sol_m = solve_modes(prob, data, eps)
    sol_d = solve_densities(prob, data, eps)
    # zonal functions are at most 1 in size, so this bounds the boundary data
    # and, by the maximum principle, the field
    scale = sum(np.abs(c).sum() for side in (data.inner, data.outer) for c in side.values())
    for _ in range(10):
        p = random_point(rng, n, rng.uniform(abs(eps), r_o))
        assert abs(eval_solution(sol_m, p) - eval_solution(sol_d, p)) <= 1e-10 * scale


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("eps", [0.3, -0.3])
def test_boundary_conditions_in_both_frames(n, eps):
    prob = SphereProblem(n)
    data = ZonalDataFamily(inner={0: (1.0, 0.5), 1: (0.0, 1.0)}, outer={1: (0.7,)})
    sol = solve_densities(prob, data, eps)
    res_i, res_o = boundary_residuals(sol, data)
    assert res_i <= 1e-10 and res_o <= 1e-10
    # Pointwise check through the evaluators: microscopic at |q| = r_i
    # reproduces the inner datum, macroscopic at r_o the outer datum.
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = random_point(rng, n, prob.r_i)
        t = float(np.dot(q / np.linalg.norm(q), prob.axis))
        from holelab.kernels import zonal
        want = sum(
            data.inner_coeff(l, eps) * float(zonal(l, n, t)) for l in range(sol.max_degree + 1)
        )
        assert eval_solution(sol, q, "microscopic") == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_harmonicity_by_finite_differences():
    # 2n+1-point Laplacian stencil at interior points, h = 1e-3.
    prob = SphereProblem(4)
    data = ZonalDataFamily(inner={0: (0.0, 1.0), 1: (0.2,)}, outer={})
    sol = solve_modes(prob, data, 0.4)
    h = 1e-3
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = random_point(rng, 4, rng.uniform(0.55, 0.9))
        u0 = eval_solution(sol, p)
        lap = 0.0
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            lap += eval_solution(sol, p + e) + eval_solution(sol, p - e) - 2 * u0
        lap /= h**2
        assert abs(lap) <= 1e-4 * max(1.0, abs(u0))


def test_maximum_principle():
    prob = SphereProblem(3)
    sol = solve_modes(prob, HOLE_EPS_DATA, 0.5)
    rng = np.random.default_rng(9)
    lo, hi = min(0.0, 0.5), max(0.0, 0.5)  # boundary values are eps and 0
    for _ in range(20):
        p = random_point(rng, 3, rng.uniform(0.52, 0.99))
        u = eval_solution(sol, p)
        assert lo - 1e-10 <= u <= hi + 1e-10


# ---------------------------------------------------------------------------
# eps = 0 limit system
# ---------------------------------------------------------------------------

def test_limit_system_worked_example():
    prob = SphereProblem(3)
    data = ZonalDataFamily(inner={0: (1.0,)})
    lim = solve_limit_system(prob, data)
    # Inner density is -1 (the on-sphere layer of the unit ball has value -1).
    assert lim.mu_inner[0] == pytest.approx(-1.0, rel=1e-11)
    q = 2.0 * np.asarray(prob.axis)
    assert lim.microscopic(q) == pytest.approx(0.5, rel=1e-11)


def test_limit_system_constant_outer():
    prob = SphereProblem(4)
    c = 1.7
    lim = solve_limit_system(prob, ZonalDataFamily(outer={0: (c,)}))
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = random_point(rng, 4, rng.uniform(0.0, 0.99))
        assert lim.macroscopic(p) == pytest.approx(c, rel=1e-11)


def test_limit_system_zero_data():
    lim = solve_limit_system(SphereProblem(3), ZonalDataFamily(inner={1: (0.0,)}))
    assert np.all(lim.mu_inner == 0) and np.all(lim.mu_outer == 0)


@pytest.mark.parametrize("n", [3, 4])
def test_limits_of_solutions_match_limit_system(n):
    prob = SphereProblem(n)
    data = ZonalDataFamily(inner={0: (1.0,)})
    lim = solve_limit_system(prob, data)
    p = axis_point(prob, 0.75)
    q = 2.0 * np.asarray(prob.axis)
    macro_errors = []
    micro_errors = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        sol = solve_densities(prob, data, eps)
        macro_errors.append(abs(eval_solution(sol, p) - lim.macroscopic(p)))
        micro_errors.append(abs(eval_solution(sol, q, "microscopic") - lim.microscopic(q)))
    assert all(np.diff(macro_errors) < 0) and macro_errors[-1] < 1e-2
    assert all(np.diff(micro_errors) < 0) and micro_errors[-1] < 1e-1


# ---------------------------------------------------------------------------
# evaluation frames and domain checks
# ---------------------------------------------------------------------------

def test_microscopic_frame_example():
    prob = SphereProblem(3)
    sol = solve_modes(prob, HOLE_EPS_DATA, 0.25)
    q = 2.0 * np.asarray(prob.axis)
    assert eval_solution(sol, q, "microscopic") == pytest.approx(1 / 12, rel=1e-12)


def test_frames_agree_on_shared_points():
    prob = SphereProblem(4)
    data = ZonalDataFamily(inner={0: (0.0, 1.0)}, outer={1: (0.3,)})
    eps = -0.3
    sol = solve_modes(prob, data, eps)
    rng = np.random.default_rng(21)
    for _ in range(5):
        q = random_point(rng, 4, rng.uniform(1.1, 2.5))
        assert eval_solution(sol, q, "microscopic") == pytest.approx(
            eval_solution(sol, eps * q, "macroscopic"), rel=1e-12
        )


def test_eval_domain_errors():
    prob = SphereProblem(3)
    sol = solve_modes(prob, HOLE_EPS_DATA, 0.5)
    with pytest.raises(DomainError, match="distance"):
        eval_solution(sol, axis_point(prob, 0.25))
    with pytest.raises(DomainError):
        eval_solution(sol, axis_point(prob, 1.25))
    with pytest.raises(ValueError):
        eval_solution(sol, axis_point(prob, 0.75), "nonsense")


# ---------------------------------------------------------------------------
# coupling-sign necessity
# ---------------------------------------------------------------------------

def test_wrong_sign_breaks_inner_boundary():
    prob = SphereProblem(3)
    data = ZonalDataFamily(inner={0: (1.0,), 1: (0.5,)})
    eps = -0.3
    res_ok, _ = boundary_residuals(solve_densities(prob, data, eps), data)
    res_bad, _ = boundary_residuals(solve_densities(prob, data, eps, sign=+1.0), data)
    assert res_bad > 10 * max(res_ok, 1e-14)
