import numpy as np
import pytest
from math import factorial, pi

from holelab.annulus import SphereProblem, ZonalDataFamily, closed_form_annulus, eval_solution, solve_modes
from holelab.bem import (
    NEAR_FIELD_FACTOR,
    AssemblyError,
    CartesianDataFamily,
    EvaluationTooCloseError,
    _TRI_BARY,
    _TRI_W,
    _kernel_sums,
    _triangle_integrals,
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
    # the radial substitution that cancels the singularity exactly.  The fan
    # areas are signed, so c may lie on the boundary or outside.
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1)
    wu = 0.5 * w
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    normal /= np.linalg.norm(normal)
    total = 0.0
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        area = 0.5 * np.dot(np.cross(a - c, b - c), normal)
        if area == 0:
            continue
        ray = (1 - u)[:, None] * (a - c)[None, :] + u[:, None] * (b - c)[None, :]
        total += (2 * area * wu / np.linalg.norm(ray, axis=1)).sum()
    return total


def gauss_triangles(tris, nodes=16):
    # collapsed Gauss-Legendre product rule on each triangle of (m,3,3)
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, wu = 0.5 * (x + 1), 0.5 * w
    s, t = np.meshgrid(u, u, indexing="ij")
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    pts = (a[:, None, None] + s[None, :, :, None] * (b - a)[:, None, None]
           + (s * t)[None, :, :, None] * (c - b)[:, None, None])
    area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    wts = (np.outer(wu, wu) * s).reshape(-1)[None] * area2[:, None]
    return pts.reshape(len(tris), nodes * nodes, 3), wts


def subdivided_integral(point, tri, factor=2.0, max_depth=14):
    # Deep reference: quarter each piece while the target is within factor
    # piece diameters of its centroid, then apply a 256-point Gauss rule.
    tris = tri[None]
    total = 0.0
    for depth in range(max_depth + 1):
        diam = np.max(np.linalg.norm(tris - np.roll(tris, -1, axis=1), axis=2), axis=1)
        dist = np.linalg.norm(tris.mean(axis=1) - point, axis=1)
        leaf = (dist >= factor * diam) | (depth == max_depth)
        pts, wts = gauss_triangles(tris[leaf])
        total += np.sum(wts / np.linalg.norm(pts - point, axis=2))
        v0, v1, v2 = (tris[~leaf, k] for k in range(3))
        m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
        tris = np.concatenate([np.stack(child, axis=1) for child in
                               ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20))])
        if not len(tris):
            break
    return -total / (4 * pi)


def random_triangle(rng):
    tri = rng.normal(size=(3, 3))
    while np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 0.5:
        tri = rng.normal(size=(3, 3))
    return tri


def test_self_integral_matches_duffy_oracle():
    rng = np.random.default_rng(14)
    from holelab.mesh import TriMesh
    # random well-shaped triangles, embedded in closed tetrahedra for TriMesh
    for _ in range(5):
        tri = random_triangle(rng)
        apex = tri.mean(axis=0) + np.cross(tri[1] - tri[0], tri[2] - tri[0])
        verts = np.vstack([tri, apex])
        tetra = TriMesh(verts, np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]))
        vals = np.diag(single_layer_matrix(tetra.centroids, tetra, self_mesh=True))
        for k in range(4):
            corners = tetra.corner_array()[k]
            want = -duffy_self_integral(corners, tetra.centroids[k]) / (4 * pi)
            assert vals[k] == pytest.approx(want, rel=1e-12)


def test_triangle_integrals_match_deep_subdivision_off_plane():
    rng = np.random.default_rng(21)
    for _ in range(4):
        tri = random_triangle(rng)
        diam = np.max(np.linalg.norm(tri - np.roll(tri, -1, axis=0), axis=1))
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        # projections: centroid, edge midpoint, vertex, outside behind an
        # edge, outside beyond a vertex
        for bary in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0),
                     (0.9, 0.3, -0.2), (-0.4, 0.7, 0.7)):
            for height in (0.01, 0.1, 0.5, 3.0):
                side = rng.choice([-1.0, 1.0])
                p = np.array(bary) @ tri + side * height * diam * normal
                got = _triangle_integrals(p[None], tri[None])[0]
                assert got == pytest.approx(subdivided_integral(p, tri), rel=1e-12)


def test_triangle_integrals_on_edge_lines_vertices_and_in_plane():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(9)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cases = (
        ((0.3, 0.0), True),      # on an edge
        ((0.5, 0.5), True),      # on the hypotenuse
        ((0.0, 0.0), True),      # at a vertex
        ((1.0, 0.0), True),      # at a vertex
        ((0.2, 0.2), True),      # inside
        ((-0.3, -0.5), False),   # behind two edges; l+ + l- < 0 on x = 0
        ((0.0, -0.5), False),    # on an edge's line beyond a vertex
        ((2.0, 0.0), False),     # on an edge's line beyond a vertex
        ((-1e-6, -0.5), False),  # next to an edge's line beyond a vertex
    )
    for shift in (np.zeros(3), np.array([0.3, -1.2, 2.0])):
        corners = tri @ rot.T + shift
        points = np.array([[x, y, 0.0] for (x, y), _ in cases]) @ rot.T + shift
        got = _triangle_integrals(points, np.repeat(corners[None], len(points), axis=0))
        assert np.all(np.isfinite(got))
        for value, p, (_, on_closure) in zip(got, points, cases):
            assert value == pytest.approx(-duffy_self_integral(corners, p) / (4 * pi),
                                          rel=1e-12)
            if not on_closure:
                assert value == pytest.approx(subdivided_integral(p, corners), rel=1e-12)


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

def _dense_mask_single_layer(targets, mesh):
    """Reference assembly that flags near pairs with the full N x T distance tensor."""
    corners = mesh.corner_array()
    matrix = _kernel_sums(targets, *_triangle_quad(corners))
    dist = np.linalg.norm(targets[:, None, :] - mesh.centroids[None, :, :], axis=2)
    p_idx, t_idx = np.nonzero(dist < NEAR_FIELD_FACTOR * mesh.diameters[None, :])
    matrix[p_idx, t_idx] = _triangle_integrals(targets[p_idx], corners[t_idx])
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


def test_near_field_chunks_do_not_change_entries(unit_pair_s2):
    # a pair's value does not depend on which other pairs share its batch
    mesh = unit_pair_s2.outer
    corners = mesh.corner_array()
    dist = np.linalg.norm(mesh.centroids[:, None] - mesh.centroids[None], axis=2)
    p_idx, t_idx = np.nonzero(dist < NEAR_FIELD_FACTOR * mesh.diameters[None, :])
    whole = _triangle_integrals(mesh.centroids[p_idx], corners[t_idx])
    order = np.random.default_rng(2).permutation(len(p_idx))
    shuffled = np.empty_like(whole)
    for start in range(0, len(order), 7):
        part = order[start : start + 7]
        shuffled[part] = _triangle_integrals(mesh.centroids[p_idx[part]], corners[t_idx[part]])
    assert np.array_equal(shuffled, whole)
    single = [_triangle_integrals(mesh.centroids[p : p + 1], corners[t : t + 1])[0]
              for p, t in zip(p_idx[:50], t_idx[:50])]
    assert np.array_equal(single, whole[:50])


@pytest.mark.parametrize("eps", [0.3, -0.8])
def test_single_layer_near_pairs_match_dense_mask(eps):
    outer = icosphere(1.0, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), eps)
    for targets, mesh in ((hole.centroids, outer), (outer.centroids, hole)):
        ref = _dense_mask_single_layer(targets, mesh)
        assert np.array_equal(single_layer_matrix(targets, mesh), ref)
    for mesh in (outer, hole):
        ref = _dense_mask_single_layer(mesh.centroids, mesh)
        assert np.array_equal(single_layer_matrix(mesh.centroids, mesh, self_mesh=True), ref)
