import numpy as np
import pytest
from math import factorial, pi

from holelab.annulus import SphereProblem, ZonalDataFamily, closed_form_annulus, eval_solution, solve_modes
from holelab.bem import (
    NEAR_FIELD_FACTOR,
    NEAR_FIELD_MAX_DEPTH,
    AssemblyError,
    CartesianDataFamily,
    EvaluationTooCloseError,
    _TRI_BARY,
    _TRI_W,
    _integrate_near,
    _kernel_sums,
    _self_integrals,
    _triangle_quad,
    assemble,
    direct_solve,
    eval_field,
    single_layer_matrix,
    solve,
)
from holelab.mesh import AdmissibilityError, GeometryPair, ellipsoid, icosphere, scale_signed

HOLE_EPS_DATA = CartesianDataFamily(inner=(((0, 0, 0), (0.0, 1.0)),))


@pytest.fixture(scope="module")
def unit_pair_s2():
    return GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2))


# ---------------------------------------------------------------------------
# quadrature building blocks
# ---------------------------------------------------------------------------

def test_triangle_rule_integrates_degree_five():
    # Reference-triangle monomial integrals: x^a y^b -> a! b! / (a+b+2)!.
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pts = _TRI_BARY @ verts
    for a in range(6):
        for b in range(6 - a):
            got = float(np.dot(_TRI_W, pts[:, 0] ** a * pts[:, 1] ** b)) * 0.5
            want = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-16)


def duffy_self_integral(tri, c, nodes=200):
    # Independent oracle for the in-plane 1/r integral: fan split at c plus
    # the radial substitution that cancels the singularity exactly.
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1)
    wu = 0.5 * w
    total = 0.0
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        area = 0.5 * np.linalg.norm(np.cross(a - c, b - c))
        ray = (1 - u)[:, None] * (a - c)[None, :] + u[:, None] * (b - c)[None, :]
        total += (2 * area * wu / np.linalg.norm(ray, axis=1)).sum()
    return total


def test_self_integral_matches_duffy_oracle():
    rng = np.random.default_rng(14)
    from holelab.mesh import TriMesh
    # random well-shaped triangles, embedded in closed tetrahedra for TriMesh
    for _ in range(5):
        tri = rng.normal(size=(3, 3))
        while np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 0.5:
            tri = rng.normal(size=(3, 3))
        apex = tri.mean(axis=0) + np.cross(tri[1] - tri[0], tri[2] - tri[0])
        verts = np.vstack([tri, apex])
        tetra = TriMesh(verts, np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]))
        vals = _self_integrals(tetra)
        for k in range(4):
            corners = tetra.corner_array()[k]
            want = -duffy_self_integral(corners, tetra.centroids[k]) / (4 * pi)
            assert vals[k] == pytest.approx(want, rel=1e-12)


def test_single_layer_far_field_value():
    # Uniform density on the unit sphere: potential -1/r outside.  The
    # faceted sphere carries slightly less area, so compare tightly against
    # the faceted total and loosely against the smooth value.
    m = icosphere(1.0, 2)
    target = np.array([[0.0, 0.0, 2.0]])
    v = single_layer_matrix(target, m) @ np.ones(m.n_triangles)
    assert v[0] == pytest.approx(-m.total_area / (4 * pi * 2.0), rel=1e-4)
    assert v[0] == pytest.approx(-0.5, rel=0.025)


def test_on_surface_row_sum_subdivision3():
    m = icosphere(1.0, 3)
    v = single_layer_matrix(m.centroids, m, self_mesh=True) @ np.ones(m.n_triangles)
    assert np.max(np.abs(v + 1.0)) < 0.02


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------

def test_assemble_blocks_and_sign_flip(unit_pair_s2):
    pos = assemble(unit_pair_s2, HOLE_EPS_DATA, 0.5)
    neg = assemble(unit_pair_s2, HOLE_EPS_DATA, -0.5)
    assert pos.sign == 1.0 and neg.sign == -1.0
    n_i = pos.n_inner
    # same inner geometry: the (1,1) block flips sign with eps
    assert np.allclose(pos.matrix[:n_i, :n_i], -neg.matrix[:n_i, :n_i])
    inner_areas = unit_pair_s2.inner.areas
    outer_areas = unit_pair_s2.outer.areas
    for block, areas in ((pos.matrix[:n_i, :n_i], inner_areas),
                         (pos.matrix[n_i:, n_i:], outer_areas)):
        # Collocation entries scale with the source-triangle area, so the raw
        # asymmetry is at the level of the area spread; the kernel's symmetry
        # shows in the area-weighted matrix, up to near-pair quadrature.
        raw = np.max(np.abs(block - block.T)) / np.max(np.abs(block))
        assert raw < 0.1
        weighted = areas[:, None] * block
        asym = np.max(np.abs(weighted - weighted.T)) / np.max(np.abs(weighted))
        assert asym < 0.02
        assert np.all(np.diag(block) < 0)


def test_zero_data_zero_rhs(unit_pair_s2):
    system = assemble(unit_pair_s2, CartesianDataFamily(), 0.5)
    assert np.all(system.rhs == 0)
    dens = solve(system)
    assert np.max(np.abs(dens.mu_inner)) == 0 and np.max(np.abs(dens.mu_outer)) == 0


def test_solve_recovers_manufactured_density(unit_pair_s2):
    system = assemble(unit_pair_s2, HOLE_EPS_DATA, 0.4)
    rng = np.random.default_rng(8)
    mu = rng.normal(size=system.matrix.shape[0])
    manufactured = system.__class__(
        system.pair, system.eps, system.sign, system.matrix, system.matrix @ mu,
        system.n_inner,
    )
    dens = solve(manufactured)
    got = np.concatenate([dens.mu_inner, dens.mu_outer])
    assert np.max(np.abs(got - mu)) < 1e-10 * np.max(np.abs(mu))
    assert dens.residual <= 1e-10
    assert dens.cond > 1


def test_assemble_rejects_inadmissible(unit_pair_s2):
    with pytest.raises(AdmissibilityError):
        assemble(unit_pair_s2, HOLE_EPS_DATA, 0.995)
    with pytest.raises(AssemblyError):
        assemble(unit_pair_s2, HOLE_EPS_DATA, 0.0)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_hole_example_field_subdivision2(unit_pair_s2):
    dens = solve(assemble(unit_pair_s2, HOLE_EPS_DATA, 0.5))
    u = eval_field(unit_pair_s2, dens, 0.5, np.array([0.0, 0.0, 0.75]),
                   clearance_factor=0.5)
    # facet-geometry error dominates at this resolution; the 1% oracle bar
    # is exercised at subdivision 3 in the acceptance suite
    assert u == pytest.approx(closed_form_annulus(3, 0.5, 0.75), rel=0.07)


def test_constant_data_field(unit_pair_s2):
    c = 1.3
    data = CartesianDataFamily(inner=(((0, 0, 0), (c,)),), outer=(((0, 0, 0), (c,)),))
    dens = solve(assemble(unit_pair_s2, data, 0.4))
    pts = np.array([[0.0, 0.0, 0.7], [0.5, 0.2, -0.1], [-0.3, 0.4, 0.3]])
    u = eval_field(unit_pair_s2, dens, 0.4, pts, clearance_factor=0.5)
    assert np.max(np.abs(u - c)) / c < 0.01


def test_frame_identity(unit_pair_s2):
    dens = solve(assemble(unit_pair_s2, HOLE_EPS_DATA, 0.4))
    q = np.array([[0.0, 0.0, 1.8]])
    a = eval_field(unit_pair_s2, dens, 0.4, q, "microscopic", clearance_factor=0.5)
    b = eval_field(unit_pair_s2, dens, 0.4, 0.4 * q, "macroscopic", clearance_factor=0.5)
    assert a[0] == b[0]


def test_sphere_pair_matches_spectral(unit_pair_s2):
    eps = 0.3
    dens = solve(assemble(unit_pair_s2, HOLE_EPS_DATA, eps))
    prob = SphereProblem(3)
    sol = solve_modes(prob, ZonalDataFamily(inner={0: (0.0, 1.0)}), eps)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=3)
        p = rng.uniform(0.55, 0.75) * v / np.linalg.norm(v)
        u_bem = eval_field(unit_pair_s2, dens, eps, p, clearance_factor=0.5)
        u_ref = eval_solution(sol, p)
        worst = max(worst, abs(u_bem - u_ref) / abs(u_ref))
    assert worst < 0.06  # subdivision-2 discretization level


def test_maximum_principle(unit_pair_s2):
    data = CartesianDataFamily(
        inner=(((0, 0, 0), (0.5,)), ((0, 0, 1), (0.5,))), outer=(((0, 0, 0), (0.1,)),)
    )
    eps = 0.4
    dens = solve(assemble(unit_pair_s2, data, eps))
    # data range: inner 0.5 + 0.5*z with |z| <= 1 on the unit-scale hole,
    # outer constant 0.1 -> bounds [0, 1]
    rng = np.random.default_rng(6)
    tol = 1.5 * 0.06  # 1.5x the observed discretization level
    for _ in range(10):
        v = rng.normal(size=3)
        p = rng.uniform(0.6, 0.8) * v / np.linalg.norm(v)
        u = eval_field(unit_pair_s2, dens, eps, p, clearance_factor=0.5)
        assert -tol <= u <= 1.0 + tol


def test_eval_guards(unit_pair_s2):
    dens = solve(assemble(unit_pair_s2, HOLE_EPS_DATA, 0.5))
    with pytest.raises(EvaluationTooCloseError):
        eval_field(unit_pair_s2, dens, 0.5, np.array([0.0, 0.0, 0.97]))
    with pytest.raises(ValueError, match="hole"):
        eval_field(unit_pair_s2, dens, 0.5, np.array([0.0, 0.0, 0.1]), clearance_factor=0.0)
    with pytest.raises(ValueError, match="outside"):
        eval_field(unit_pair_s2, dens, 0.5, np.array([0.0, 0.0, 1.5]), clearance_factor=0.0)
    with pytest.raises(ValueError, match="frame"):
        eval_field(unit_pair_s2, dens, 0.5, np.array([0.0, 0.0, 0.7]), "sideways")


# ---------------------------------------------------------------------------
# independent direct assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.4, -0.4])
def test_direct_solve_agrees(unit_pair_s2, eps):
    data = HOLE_EPS_DATA
    dens = solve(assemble(unit_pair_s2, data, eps))
    direct = direct_solve(unit_pair_s2, data, eps)
    rng = np.random.default_rng(12)
    pts = []
    while len(pts) < 10:
        v = rng.normal(size=3)
        p = rng.uniform(0.55, 0.8) * v / np.linalg.norm(v)
        pts.append(p)
    pts = np.array(pts)
    u1 = eval_field(unit_pair_s2, dens, eps, pts, clearance_factor=0.5)
    u2 = direct.eval(pts, clearance_factor=0.5)
    assert np.max(np.abs(u1 - u2) / np.abs(u2)) < 0.005


def test_direct_solve_reflected_ellipsoid_hole():
    pair = GeometryPair(ellipsoid(1.0, 0.7, 0.7, 2), icosphere(1.0, 2))
    data = CartesianDataFamily(inner=(((0, 0, 0), (0.0, 1.0)), ((1, 0, 0), (0.3,))))
    eps = -0.4
    dens = solve(assemble(pair, data, eps))
    direct = direct_solve(pair, data, eps)
    pts = np.array([[0.0, 0.0, 0.7], [0.0, 0.65, 0.0], [0.45, 0.45, 0.0]])
    u1 = eval_field(pair, dens, eps, pts, clearance_factor=0.5)
    u2 = direct.eval(pts, clearance_factor=0.5)
    assert np.max(np.abs(u1 - u2) / np.max(np.abs(u2))) < 0.005


def test_direct_solve_constant_data(unit_pair_s2):
    c = 0.8
    data = CartesianDataFamily(inner=(((0, 0, 0), (c,)),), outer=(((0, 0, 0), (c,)),))
    direct = direct_solve(unit_pair_s2, data, 0.4)
    u = direct.eval(np.array([[0.0, 0.0, 0.7]]), clearance_factor=0.5)
    assert u[0] == pytest.approx(c, rel=0.01)


# ---------------------------------------------------------------------------
# coupling-sign necessity (collocation version)
# ---------------------------------------------------------------------------

def test_wrong_sign_inner_residual(unit_pair_s2):
    data = CartesianDataFamily(inner=(((0, 0, 0), (1.0,)), ((0, 0, 1), (0.5,))))
    eps = -0.3
    good = assemble(unit_pair_s2, data, eps)
    res_good = good.inner_residual(solve(good))
    bad = assemble(unit_pair_s2, data, eps, sign=+1.0)
    res_bad = bad.inner_residual(solve(bad))
    assert res_bad > 10 * max(res_good, 1e-14)


# ---------------------------------------------------------------------------
# near-field pairs against the dense distance mask
# ---------------------------------------------------------------------------

def _dense_mask_single_layer(targets, mesh, self_mesh=False):
    """Reference assembly that flags near pairs with the full N x T distance tensor."""
    corners = mesh.corner_array()
    matrix = _kernel_sums(targets, *_triangle_quad(corners))
    dist = np.linalg.norm(targets[:, None, :] - mesh.centroids[None, :, :], axis=2)
    near = dist < NEAR_FIELD_FACTOR * mesh.diameters[None, :]
    if self_mesh:
        np.fill_diagonal(near, False)
    p_idx, t_idx = np.nonzero(near)
    matrix[p_idx, t_idx] = _integrate_near(
        targets[p_idx], corners[t_idx], NEAR_FIELD_FACTOR, NEAR_FIELD_MAX_DEPTH
    )
    if self_mesh:
        np.fill_diagonal(matrix, _self_integrals(mesh))
    return matrix


def test_quadrature_points_and_kernel_sums_match_einsum_reference():
    m = icosphere(1.0, 2)
    corners = m.corner_array()
    pts, wts = _triangle_quad(corners)
    np.testing.assert_allclose(pts, np.einsum("qb,tbc->tqc", _TRI_BARY, corners),
                               rtol=0, atol=1e-15)
    targets = scale_signed(m, 0.4).centroids
    diff = targets[:, None, :] - pts.reshape(-1, 3)[None]
    r = np.sqrt(np.einsum("ptc,ptc->pt", diff, diff))
    ref = (wts.reshape(-1) / r).reshape(len(targets), m.n_triangles, -1).sum(axis=2)
    np.testing.assert_allclose(_kernel_sums(targets, pts, wts), -ref / (4 * pi), rtol=1e-14)


def test_near_field_chunks_do_not_change_entries(unit_pair_s2, monkeypatch):
    mesh = unit_pair_s2.outer
    whole = single_layer_matrix(mesh.centroids, mesh, self_mesh=True)
    monkeypatch.setattr("holelab.bem._NEAR_CHUNK", 7)
    assert np.array_equal(single_layer_matrix(mesh.centroids, mesh, self_mesh=True), whole)


@pytest.mark.parametrize("eps", [0.3, -0.8])
def test_single_layer_near_pairs_match_dense_mask(eps):
    outer = icosphere(1.0, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), eps)
    for targets, mesh in ((hole.centroids, outer), (outer.centroids, hole)):
        ref = _dense_mask_single_layer(targets, mesh)
        assert np.array_equal(single_layer_matrix(targets, mesh), ref)
    for mesh in (outer, hole):
        ref = _dense_mask_single_layer(mesh.centroids, mesh, self_mesh=True)
        assert np.array_equal(single_layer_matrix(mesh.centroids, mesh, self_mesh=True), ref)
