import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holelab.annulus import SphereProblem, ZonalDataFamily, closed_form_annulus
from holelab.continuation import (
    BREAKS,
    CONTINUES,
    INCONCLUSIVE,
    FitError,
    GridError,
    SweepResult,
    TargetSet,
    axis_targets,
    default_grid,
    fit_series,
    make_grid,
    microscopic_limit_check,
    sweep,
    validate_targets,
    zonal_symmetry_hypothesis,
)
from holelab.continuation import test_continuation as continuation_verdict
from holelab.continuation import test_symmetry as symmetry_measure


HOLE_EPS_DATA = ZonalDataFamily(inner={0: (0.0, 1.0)})   # value eps on the hole
UNIT_HOLE_DATA = ZonalDataFamily(inner={0: (1.0,)})      # value 1 on the hole


def run_continuation(n, data, targets=None, grid=None, basis="auto", degree=8, **thresholds):
    prob = SphereProblem(n)
    targets = targets or axis_targets(prob, [0.75], "macroscopic")
    grid = default_grid() if grid is None else grid
    pos = sweep(prob, data, grid, targets)
    neg = sweep(prob, data, -grid[::-1], targets)
    fit = fit_series(pos, degree, basis=basis)
    return fit, neg, continuation_verdict(fit, neg, **thresholds)


# ---------------------------------------------------------------------------
# grids and targets
# ---------------------------------------------------------------------------

def test_make_grid_validation():
    with pytest.raises(GridError):
        make_grid(0.0, 0.3, 5)
    with pytest.raises(GridError):
        make_grid(0.3, 0.1, 5)
    assert len(default_grid()) == 11
    assert default_grid()[0] == 0.05 and default_grid()[-1] == 0.3


def test_sweep_grid_validation():
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    with pytest.raises(GridError):
        sweep(prob, HOLE_EPS_DATA, np.array([0.1, 0.0, 0.2]), targets)
    with pytest.raises(GridError):
        sweep(prob, HOLE_EPS_DATA, np.array([0.2, 0.1]), targets)


def test_target_validation():
    prob = SphereProblem(3)
    with pytest.raises(ValueError):
        TargetSet("macroscopic", np.zeros((1, 3)))
    targets = axis_targets(prob, [0.2], "macroscopic")
    with pytest.raises(ValueError):
        validate_targets(prob, targets, [default_grid()])  # swallowed by the hole at 0.3
    micro = axis_targets(prob, [5.0], "microscopic")
    with pytest.raises(ValueError):
        validate_targets(prob, micro, [default_grid()])  # outside at |eps| = 0.3


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_matches_closed_form():
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    grid = make_grid(0.1, 0.5, 5)
    result = sweep(prob, HOLE_EPS_DATA, grid, targets)
    for eps, value in zip(result.grid, result.values[:, 0]):
        assert value == pytest.approx(closed_form_annulus(3, eps, 0.75), rel=1e-10)
    assert result.meta["solver"] == "spectral-modal"


def test_sweep_constant_data():
    prob = SphereProblem(4)
    c = 0.9
    data = ZonalDataFamily(inner={0: (c,)}, outer={0: (c,)})
    targets = axis_targets(prob, [0.6, 0.8], "macroscopic")
    result = sweep(prob, data, default_grid(), targets)
    assert np.max(np.abs(result.values - c)) < 1e-12


def test_sweep_unit_hole_value():
    # closed form |eps|/(1-|eps|) * (1/|p| - 1) at eps=0.25, |p|=0.75
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    result = sweep(prob, UNIT_HOLE_DATA, np.array([0.25]), targets)
    assert result.values[0, 0] == pytest.approx(1 / 9, rel=1e-12)


# ---------------------------------------------------------------------------
# series fitting
# ---------------------------------------------------------------------------

def test_fit_exact_polynomial():
    prob = SphereProblem(4)
    targets = axis_targets(prob, [0.75], "macroscopic")
    grid = make_grid(0.05, 0.3, 11)
    # matched data (eps^3 inside, eps^2 outside) make the solution exactly
    # u = eps^2 * r on the axis: the fit recovers one clean coefficient
    data = ZonalDataFamily(inner={1: (0.0, 0.0, 0.0, 1.0)}, outer={1: (0.0, 0.0, 1.0)})
    fit = fit_series(sweep(prob, data, grid, targets), degree=8)
    assert fit.residuals[0] < 1e-12
    assert fit.coeffs[0, 2] == pytest.approx(fit.eps_scale**2 * 0.75, rel=1e-10)
    others = np.delete(fit.coeffs[0], 2)
    assert np.max(np.abs(others)) < 1e-10  # design-condition noise floor


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(basis=st.sampled_from(["full", "even", "odd"]), degree=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1))
def test_fit_recovers_exact_polynomials_in_each_basis(basis, degree, seed):
    grid = default_grid()
    cols = np.arange(degree + 1)
    cols = cols if basis == "full" else cols[cols % 2 == (basis == "odd")]
    want = np.zeros(degree + 1)
    want[cols] = np.random.default_rng(seed).uniform(-1, 1, len(cols))
    t = grid / grid.max()
    values = np.polynomial.polynomial.polyval(t, want)[:, None]
    fit = fit_series(SweepResult(grid, values, "macroscopic", np.ones(len(grid))),
                     degree, basis)
    # the least-squares solve is backward stable: error at cond * rounding
    tol = 100 * np.finfo(float).eps * fit.cond * np.abs(want).sum()
    assert np.max(np.abs(fit.coeffs[0] - want)) <= tol
    assert np.all(fit.coeffs[0][np.setdiff1d(np.arange(degree + 1), cols)] == 0)
    assert fit.residuals[0] <= 100 * np.finfo(float).eps * np.abs(want).sum()


def test_fit_hole_eps_family_n4():
    fit, _, _ = run_continuation(4, HOLE_EPS_DATA, basis="full")
    assert fit.residuals[0] < 1e-10
    # the series has odd powers starting at eps^3: the linear term is tiny
    assert abs(fit.coeffs[0, 1]) < 1e-3 * np.max(np.abs(fit.coeffs[0]))


def test_fit_unit_hole_family_n3_positive_side_analytic():
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    fit = fit_series(sweep(prob, UNIT_HOLE_DATA, default_grid(), targets), 8)
    assert fit.residuals[0] < 1e-10


def test_fit_errors():
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    pos = sweep(prob, HOLE_EPS_DATA, make_grid(0.05, 0.3, 6), targets)
    with pytest.raises(FitError):
        fit_series(pos, degree=5)  # degree + 2 > grid size
    neg = sweep(prob, HOLE_EPS_DATA, -make_grid(0.05, 0.3, 6)[::-1], targets)
    with pytest.raises(FitError):
        fit_series(neg, degree=3)  # not a positive grid
    clustered = sweep(prob, HOLE_EPS_DATA, np.linspace(0.299, 0.3, 12), targets)
    with pytest.raises(FitError):
        fit_series(clustered, degree=9)  # design matrix condition over the limit


def test_auto_basis_selection():
    fit_even, _, _ = run_continuation(4, UNIT_HOLE_DATA)
    assert fit_even.basis_labels == ("even",)
    fit_odd, _, _ = run_continuation(4, HOLE_EPS_DATA)
    assert fit_odd.basis_labels == ("odd",)
    fit_full, _, _ = run_continuation(3, UNIT_HOLE_DATA)
    assert fit_full.basis_labels == ("full",)


def test_fit_stability_under_grid_refinement():
    # doubling the grid density moves the fitted coefficients by less than
    # 10x the reported residual (restricted-basis fit of an analytic family)
    prob = SphereProblem(4)
    targets = axis_targets(prob, [0.75], "macroscopic")
    coarse = fit_series(sweep(prob, HOLE_EPS_DATA, make_grid(0.05, 0.3, 11), targets), 8, "auto")
    fine = fit_series(sweep(prob, HOLE_EPS_DATA, make_grid(0.05, 0.3, 21), targets), 8, "auto")
    drift = np.max(np.abs(coarse.coeffs - fine.coeffs))
    assert drift < 10 * max(coarse.residuals[0], fine.residuals[0])


# ---------------------------------------------------------------------------
# continuation verdicts
# ---------------------------------------------------------------------------

def test_continuation_even_dimension_continues():
    _, _, report = run_continuation(4, HOLE_EPS_DATA)
    assert report.verdict == CONTINUES
    assert np.all(report.extrapolation_errors <= 10 * report.fit_residuals + 1e-9)


def test_continuation_odd_dimension_breaks_with_known_branches():
    fit, neg, report = run_continuation(3, UNIT_HOLE_DATA)
    assert report.verdict == BREAKS
    idx = int(np.argmin(np.abs(neg.grid + 0.25)))
    assert neg.values[idx, 0] == pytest.approx(1 / 9, rel=1e-10)
    assert report.predicted[idx, 0] == pytest.approx(-1 / 15, rel=0.03)


def test_continuation_constant_data_zero_error():
    c = 1.1
    data = ZonalDataFamily(inner={0: (c,)}, outer={0: (c,)})
    _, _, report = run_continuation(3, data)
    assert report.verdict == CONTINUES
    assert np.max(report.extrapolation_errors) < 1e-12


@pytest.mark.parametrize("n,expected", [(3, BREAKS), (4, CONTINUES), (5, BREAKS), (6, CONTINUES)])
def test_dichotomy_default_family(n, expected):
    _, _, report = run_continuation(n, UNIT_HOLE_DATA)
    assert report.verdict == expected


def test_odd_dimension_continues_iff_constant():
    # eps-independent data in odd dimension: CONTINUES exactly when the
    # computed family is constant.
    c = 2.5
    const = ZonalDataFamily(inner={0: (c,)}, outer={0: (c,)})
    _, neg_c, rep_c = run_continuation(3, const)
    assert rep_c.verdict == CONTINUES
    assert np.max(np.abs(neg_c.values - np.mean(neg_c.values))) <= 1e-9
    _, neg_u, rep_u = run_continuation(3, UNIT_HOLE_DATA)
    assert rep_u.verdict != CONTINUES
    assert np.max(np.abs(neg_u.values - np.mean(neg_u.values))) > 1e-9


def test_inconclusive_band():
    # raising rtol_break suppresses BREAKS without enabling CONTINUES
    _, _, report = run_continuation(3, UNIT_HOLE_DATA, rtol_break=10.0)
    assert report.verdict == INCONCLUSIVE


def test_grid_mismatch_errors():
    prob = SphereProblem(4)
    targets = axis_targets(prob, [0.75], "macroscopic")
    pos = sweep(prob, HOLE_EPS_DATA, default_grid(), targets)
    fit = fit_series(pos, 8)
    bad_neg = sweep(prob, HOLE_EPS_DATA, -make_grid(0.04, 0.3, 11)[::-1], targets)
    with pytest.raises(GridError):
        continuation_verdict(fit, bad_neg)
    with pytest.raises(GridError):
        continuation_verdict(fit, pos)


# ---------------------------------------------------------------------------
# parity of the fitted series
# ---------------------------------------------------------------------------

PARITY_GRID = np.linspace(0.01, 0.04, 11)


def test_symmetry_even_case():
    # constant inner datum: series in even powers only, both frames
    prob = SphereProblem(4)
    data = UNIT_HOLE_DATA
    hyp = zonal_symmetry_hypothesis(data, +1)
    assert hyp["inner_reflected"] and hyp["outer_reflected"]
    for frame, radius in (("macroscopic", 0.75), ("microscopic", 2.0)):
        targets = axis_targets(prob, [radius], frame)
        fit = fit_series(sweep(prob, data, PARITY_GRID, targets), 8, basis="full")
        report = symmetry_measure(fit, +1, hypothesis_checked=True)
        assert report.max_forbidden_relative <= 1e-8
        assert report.forbidden_indices == (1, 3, 5, 7)


def test_symmetry_odd_case():
    # degree-1 zonal inner datum: odd series in the physical frame, even
    # series in the rescaled frame (the two reflection hypotheses differ).
    prob = SphereProblem(4)
    data = ZonalDataFamily(inner={1: (1.0,)})
    assert zonal_symmetry_hypothesis(data, -1)["inner_reflected"]
    assert zonal_symmetry_hypothesis(data, +1)["outer_reflected"]
    macro = fit_series(
        sweep(prob, data, PARITY_GRID, axis_targets(prob, [0.75], "macroscopic")), 8, "full"
    )
    assert symmetry_measure(macro, -1, hypothesis_checked=True).max_forbidden_relative <= 1e-8
    micro = fit_series(
        sweep(prob, data, PARITY_GRID, axis_targets(prob, [2.0], "microscopic")), 8, "full"
    )
    assert symmetry_measure(micro, +1, hypothesis_checked=True).max_forbidden_relative <= 1e-8


def test_symmetry_requires_full_basis_and_flags_hypothesis():
    prob = SphereProblem(4)
    targets = axis_targets(prob, [0.75], "macroscopic")
    fit_auto = fit_series(sweep(prob, UNIT_HOLE_DATA, PARITY_GRID, targets), 8, "auto")
    with pytest.raises(FitError):
        symmetry_measure(fit_auto, +1)
    # data violating the symmetry hypothesis: report carries no claim
    skewed = ZonalDataFamily(inner={0: (1.0, 1.0)})
    assert not zonal_symmetry_hypothesis(skewed, +1)["inner_reflected"]
    fit = fit_series(sweep(prob, skewed, PARITY_GRID, targets), 8, "full")
    report = symmetry_measure(fit, +1, hypothesis_checked=False)
    assert "hypothesis unchecked" in report.note


def test_symmetry_hypothesis_checker():
    assert zonal_symmetry_hypothesis(HOLE_EPS_DATA, -1)["inner_reflected"]
    assert not zonal_symmetry_hypothesis(HOLE_EPS_DATA, +1)["inner_reflected"]
    mixed = ZonalDataFamily(inner={0: (0.0, 0.0, 1.0), 1: (0.0, 1.0)})
    assert zonal_symmetry_hypothesis(mixed, +1)["inner_reflected"]


# ---------------------------------------------------------------------------
# rescaled-frame limit
# ---------------------------------------------------------------------------

LIMIT_GRID = np.linspace(0.02, 0.12, 11)


def test_microscopic_limit_worked_examples():
    for n, expected in ((3, 0.5), (4, 0.25)):
        prob = SphereProblem(n)
        targets = axis_targets(prob, [2.0], "microscopic")
        report = microscopic_limit_check(prob, UNIT_HOLE_DATA, LIMIT_GRID, targets)
        assert report.limit_values[0] == pytest.approx(expected, rel=1e-10)
        assert report.max_gap <= 1e-8


def test_microscopic_limit_constant_data():
    c = 0.65
    prob = SphereProblem(3)
    data = ZonalDataFamily(inner={0: (c,)}, outer={0: (c,)})
    targets = axis_targets(prob, [1.5], "microscopic")
    report = microscopic_limit_check(prob, data, LIMIT_GRID, targets)
    assert report.constant_terms[0] == pytest.approx(c, rel=1e-10)
    assert report.max_gap <= 1e-8


def test_microscopic_limit_requires_micro_frame():
    prob = SphereProblem(3)
    with pytest.raises(ValueError):
        microscopic_limit_check(
            prob, UNIT_HOLE_DATA, LIMIT_GRID, axis_targets(prob, [0.75], "macroscopic")
        )


# ---------------------------------------------------------------------------
# frame consistency
# ---------------------------------------------------------------------------

def test_frames_consistent_along_sweep():
    from holelab.annulus import eval_solution, solve_densities
    prob = SphereProblem(4)
    q = 2.0 * np.asarray(prob.axis)
    targets = TargetSet("microscopic", q[None, :])
    grid = make_grid(0.05, 0.3, 6)
    micro = sweep(prob, HOLE_EPS_DATA, grid, targets)
    for eps, value in zip(grid, micro.values[:, 0]):
        sol = solve_densities(prob, HOLE_EPS_DATA, eps)
        assert eval_solution(sol, eps * q, "macroscopic") == pytest.approx(value, rel=1e-12)


# ---------------------------------------------------------------------------
# BEM sweeps share the eps-independent self blocks
# ---------------------------------------------------------------------------

def test_bem_sweep_matches_per_eps_solves_and_builds_self_blocks_once(monkeypatch):
    from holelab import bem
    from holelab.mesh import GeometryPair, icosphere

    pair = GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2))
    data = bem.CartesianDataFamily(inner=(((0, 0, 0), (0.0, 1.0)),))
    targets = TargetSet("macroscopic", [[0.0, 0.0, 0.6], [0.5, 0.0, 0.0]])
    grid = np.array([-0.3, -0.1, 0.1, 0.3])

    built, factored = [], []
    original, original_factor = bem.single_layer_matrix, bem._factor

    def counting(*args, **kwargs):
        built.append(kwargs.get("self_mesh", False))
        return original(*args, **kwargs)

    def counting_factor(a):
        factored.append(a.shape)
        return original_factor(a)

    monkeypatch.setattr(bem, "single_layer_matrix", counting)
    monkeypatch.setattr(bem, "_factor", counting_factor)
    result = sweep(pair, data, grid, targets, eval_clearance_factor=0.5)
    monkeypatch.undo()
    assert built.count(True) == 2
    # V_ii is factored once; each solve factors only its Schur complement
    assert factored == [(pair.inner.n_triangles,) * 2]

    for i, eps in enumerate(grid):
        dens = bem.solve(bem.assemble(pair, data, eps))
        want = bem.eval_field(pair, dens, eps, targets.points, clearance_factor=0.5)
        np.testing.assert_allclose(result.values[i], want, rtol=1e-12, atol=0)
        assert result.conds[i] == pytest.approx(dens.cond, rel=1e-12)


def test_sweep_subset_splits_a_signed_sweep():
    prob = SphereProblem(3)
    targets = axis_targets(prob, [0.75], "macroscopic")
    grid = default_grid()
    signed = sweep(prob, HOLE_EPS_DATA, np.concatenate([-grid[::-1], grid]), targets)
    pos = sweep(prob, HOLE_EPS_DATA, grid, targets)
    part = signed.subset(signed.grid > 0)
    assert np.array_equal(part.grid, pos.grid)
    assert np.array_equal(part.values, pos.values)
    assert np.array_equal(part.conds, pos.conds)
