import dataclasses
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from math import factorial, pi

from holelab.annulus import (DomainError, SphereProblem, ZonalDataFamily, closed_form_annulus,
                             eps_polyval, eval_solution, solve_modes)
from holelab import bem
from holelab.bem import (
    NEAR_FIELD_FACTOR,
    CartesianDataFamily,
    EvaluationTooCloseError,
    SolverError,
    _KERNEL_SCALE,
    _TRI_BARY,
    _TRI_W,
    _kernel_sums,
    _triangle_integrals,
    _triangle_quad,
    assemble,
    direct_solve,
    eval_field,
    self_blocks,
    single_layer_matrix,
    solve,
)
from holelab.continuation import default_grid
from holelab.mesh import (AdmissibilityError, GeometryPair, MeshError, ellipsoid, icosphere,
                          scale_signed)

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
# Cartesian data: each term's eps-polynomial converted once
# ---------------------------------------------------------------------------

def test_cartesian_data_equal_polyval_bit_for_bit():
    rng = np.random.default_rng(29)
    grid = [float(e) for e in default_grid()]
    eps_values = [0.0, -0.0, 1.0, -1.0, *grid, *(-e for e in grid)]
    points = rng.normal(size=(4, 3))
    for _ in range(200):
        k = int(rng.integers(1, 7))
        c = [float(x) for x in rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)]
        c[int(rng.integers(k))] = int(rng.integers(-5, 6))
        c[int(rng.integers(k))] = -0.0
        exponents = tuple(int(p) for p in rng.integers(0, 3, size=3))
        data = CartesianDataFamily(outer=((exponents, c),))
        ((_, converted),) = data.outer
        mono = np.ones(len(points))
        for axis, power in enumerate(exponents):
            if power:
                mono = mono * points[:, axis] ** power
        for eps in eps_values:
            want = float(np.polynomial.polynomial.polyval(eps, np.asarray(c, dtype=float)))
            assert eps_polyval(converted, eps).hex() == want.hex(), (c, eps)
            got = data.eval_outer(points, eps).tolist()
            assert [v.hex() for v in got] == [(0.0 + want * m).hex() for m in mono], (c, eps)


@pytest.mark.parametrize("coeffs", [(), [], [[1.0, 2.0]], 3.0])
def test_cartesian_data_refuses_empty_or_non_1d_coefficients(coeffs):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        CartesianDataFamily(inner=(((0, 0, 0), coeffs),))
    with pytest.raises(ValueError, match="non-empty 1-D"):
        CartesianDataFamily(inner=(((0, 0, 0), (1.0,)),), outer=(((0, 0, 1), coeffs),))


@pytest.mark.parametrize("exponents", [(-1, 0, 0), (0.5, 0, 0), (1, 0), (1, 0, 0, 0)])
def test_cartesian_data_refuses_exponents_not_three_non_negative_integers(exponents):
    # a negative or fractional power gives non-finite data only after a
    # whole grid is solved; a missing or extra axis was silently ignored
    for side in ("inner", "outer"):
        with pytest.raises(ValueError, match="three integers >= 0"):
            CartesianDataFamily(**{side: ((exponents, (1.0,)),)})
    data = CartesianDataFamily(outer=((np.array([1, 0, 2]), (1.0,)),))
    assert data.eval_outer([[2.0, 5.0, 3.0]], 0.1).tolist() == [18.0]


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
        system.eps, system.sign, system.matrix, system.matrix @ mu,
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
    with pytest.raises(MeshError, match="eps = 0"):
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


@pytest.mark.parametrize("heights, factor, refused, distance", [
    # 0.97 is near only the outer mesh, 0.52 only the hole: point order wins
    ([0.97, 0.52], 0.5, 0.97, "0.02949"),
    # 0.75 is near both at two diameters: the hole is checked first
    ([0.75, 0.97], 2.0, 0.75, "0.25"),
])
def test_clearance_guard_refuses_the_first_point_hole_before_outer(unit_pair_s2, heights,
                                                                   factor, refused, distance):
    meshes = (scale_signed(unit_pair_s2.inner, 0.5), unit_pair_s2.outer)
    points = np.array([[0.0, 0.0, z] for z in heights])
    with pytest.raises(EvaluationTooCloseError) as err:
        bem._clearance_guard(points, meshes, factor)
    assert str(err.value).startswith(f"point {[0.0, 0.0, refused]} is {distance} from")
    assert str(err.value).endswith(f"({factor:g} local triangle diameters)")


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


@pytest.mark.parametrize("eps", [0.3, -0.3])
def test_direct_solution_refuses_points_as_the_grid_field_does(unit_pair_s2, eps):
    # inside the hole far from its surface, inside it near the surface, just
    # outside the outer surface, and a good point before a bad one
    direct = direct_solve(unit_pair_s2, HOLE_EPS_DATA, eps)
    dens = solve(assemble(unit_pair_s2, HOLE_EPS_DATA, eps))
    for points in ([0.0, 0.0, 0.0], [0.0, 0.0, 0.28], [0.0, 0.0, 1.05],
                   [[0.0, 0.6, 0.0], [0.0, 0.0, 1.05]]):
        with pytest.raises(DomainError) as want:
            eval_field(unit_pair_s2, dens, eps, points)
        with pytest.raises(DomainError) as got:
            direct.eval(points)
        assert "from a surface" not in str(want.value)
        assert str(got.value) == str(want.value)


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
    matrix = _kernel_sums(targets, *_triangle_quad(mesh))
    dist = np.linalg.norm(targets[:, None, :] - mesh.centroids[None, :, :], axis=2)
    p_idx, t_idx = np.nonzero(dist < NEAR_FIELD_FACTOR * mesh.diameters[None, :])
    matrix[p_idx, t_idx] = _triangle_integrals(targets[p_idx], corners[t_idx])
    return matrix


def test_quadrature_points_and_kernel_sums_match_einsum_reference():
    m = icosphere(1.0, 2)
    corners = m.corner_array()
    pts, wts = _triangle_quad(m)
    np.testing.assert_allclose(pts, np.einsum("qb,tbc->tqc", _TRI_BARY, corners),
                               rtol=0, atol=1e-15)
    # the mesh's areas are the half cross-product norms, bit for bit
    for mesh in (m, scale_signed(m, -0.3), ellipsoid(1.0, 0.6, 0.4, 2)):
        c = mesh.corner_array()
        half = 0.5 * np.linalg.norm(np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]), axis=1)
        assert np.array_equal(_triangle_quad(mesh)[1], _TRI_W[None, :] * half[:, None])
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


# ---------------------------------------------------------------------------
# quadrature-major, threaded block assembly against the t-major formulation
# ---------------------------------------------------------------------------

def _kernel_sums_t_major(targets: np.ndarray, pts: np.ndarray, wts: np.ndarray,
                         chunk_bytes: int = 1 << 18) -> np.ndarray:
    # sum_q wts[t,q] * S3(|x_p - pts[t,q]|) for all (p, t), chunked over p;
    # small chunks keep the (rows, T*Q) temporaries in cache
    n_t = pts.shape[0]
    out = np.empty((len(targets), n_t))
    rows = max(1, int(chunk_bytes // max(n_t * pts.shape[1] * 8, 1)))
    flat_pts = pts.reshape(-1, 3)
    px, py, pz = (np.ascontiguousarray(flat_pts[:, c]) for c in range(3))
    flat_w = wts.reshape(-1)
    # Targets may coincide with quadrature nodes (own-triangle centroids);
    # those entries come out infinite here and are replaced by the closed
    # form in single_layer_matrix.
    with np.errstate(divide="ignore"):
        for start in range(0, len(targets), rows):
            block = targets[start : start + rows]
            # (x^2 + z^2) + y^2: the order of einsum("ptc,ptc->pt") on
            # numpy 2, so the entries match a plain einsum bit for bit
            d = block[:, 0:1] - px
            r = d * d
            d = block[:, 2:3] - pz
            r += d * d
            d = block[:, 1:2] - py
            r += d * d
            np.sqrt(r, out=r)
            np.divide(flat_w, r, out=r)
            contrib = r.reshape(len(block), n_t, -1).sum(axis=2)
            out[start : start + rows] = _KERNEL_SCALE * contrib
    return out


def _single_layer_t_major(targets, mesh):
    """The t-major far field and one whole near-field call, serially."""
    corners = mesh.corner_array()
    matrix = _kernel_sums_t_major(targets, *_triangle_quad(mesh))
    p_idx, t_idx = bem._near_pairs(targets, mesh)
    matrix[p_idx, t_idx] = _triangle_integrals(targets[p_idx], corners[t_idx])
    return matrix


def _block_cases(subdivisions, rows=1):
    outer = icosphere(1.0, subdivisions)
    inner = ellipsoid(1.0, 0.6, 0.4, subdivisions)
    hole = scale_signed(inner, -0.3)
    return {
        "outer self": (outer.centroids[::rows], outer),
        "inner self": (inner.centroids[::rows], inner),
        "hole to outer": (hole.centroids[::rows], outer),
        "outer to hole": (outer.centroids[::rows], hole),
    }


@pytest.fixture(params=[1, 2], ids=["1 worker", "2 workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(bem, "_usable_cpus", lambda: request.param)
    return request.param


# (subdivision, every k-th target row): subdivision 4 keeps all 5120 columns
# of a level-4 block, and a sixteenth of its rows
@pytest.mark.parametrize("subdivisions, rows", [(2, 1), (3, 1), (4, 16)])
def test_kernel_sums_equal_t_major_reference(subdivisions, rows, workers):
    for name, (targets, mesh) in _block_cases(subdivisions, rows).items():
        pts, wts = _triangle_quad(mesh)
        got = _kernel_sums(targets, pts, wts)
        assert np.array_equal(got, _kernel_sums_t_major(targets, pts, wts)), name
        matrix = single_layer_matrix(targets, mesh, self_mesh="self" in name)
        assert np.array_equal(matrix, _single_layer_t_major(targets, mesh)), name


@pytest.mark.parametrize("n_rows", [1, 7, 13])
def test_kernel_sums_uneven_chunks_and_ranges(n_rows, workers, monkeypatch):
    mesh = icosphere(1.0, 2)
    pts, wts = _triangle_quad(mesh)
    targets = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), 0.3).centroids[:n_rows]
    # one whole chunk, and chunks of 3 rows: 13 rows are 4 chunks and a
    # remainder of 1, shared out to the workers
    for chunk_rows in (1 << 10, 3):
        monkeypatch.setattr(bem, "_KERNEL_CHUNK_BYTES", chunk_rows * 7 * mesh.n_triangles * 8)
        got = _kernel_sums(targets, pts, wts)
        assert np.array_equal(got, _kernel_sums_t_major(targets, pts, wts))
        # on-surface rows hit quadrature nodes: infinite, then replaced
        own = mesh.centroids[:n_rows]
        assert np.array_equal(single_layer_matrix(own, mesh, self_mesh=True),
                              _single_layer_t_major(own, mesh))


def test_single_layer_out_into_strided_view(workers):
    mesh = icosphere(1.0, 2)
    targets = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), 0.3).centroids
    n, t = len(targets), mesh.n_triangles
    big = np.full((2 * n + 1, 3 * t + 2), 7.0)
    view = big[1::2, 2::3]
    assert view.shape == (n, t) and not view.flags.c_contiguous
    got = single_layer_matrix(targets, mesh, out=view)
    assert got is view
    assert np.array_equal(view, _single_layer_t_major(targets, mesh))
    untouched = np.ones(big.shape, bool)
    untouched[1::2, 2::3] = False
    assert np.all(big[untouched] == 7.0)


def test_near_field_chunks_on_workers_equal_one_call(workers, monkeypatch):
    mesh = icosphere(1.0, 3)
    corners = mesh.corner_array()
    p_idx, t_idx = bem._near_pairs(mesh.centroids, mesh)
    whole = _kernel_sums_t_major(mesh.centroids, *_triangle_quad(mesh))
    whole[p_idx, t_idx] = _triangle_integrals(mesh.centroids[p_idx], corners[t_idx])
    # near pairs in uneven chunks of 1000, split over the workers
    monkeypatch.setattr(bem, "_NEAR_CHUNK", 1000)
    assert len(p_idx) % 1000 and len(p_idx) > 4 * 1000
    assert np.array_equal(single_layer_matrix(mesh.centroids, mesh, self_mesh=True), whole)


def test_more_workers_than_cpus_with_frequent_switches(monkeypatch):
    # six workers on small chunks, switching threads every microsecond
    mesh = icosphere(1.0, 2)
    targets = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), -0.3).centroids
    want = [_single_layer_t_major(t, mesh) for t in (targets, mesh.centroids)]
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 6)
    monkeypatch.setattr(bem, "_KERNEL_CHUNK_BYTES", 2 * 7 * mesh.n_triangles * 8)
    monkeypatch.setattr(bem, "_NEAR_CHUNK", 100)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(single_layer_matrix(targets, mesh), want[0])
            assert np.array_equal(single_layer_matrix(mesh.centroids, mesh, self_mesh=True),
                                  want[1])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("eps", [0.3, -0.3])
def test_assemble_in_place_equals_stacked_blocks(eps):
    pair = GeometryPair(ellipsoid(1.0, 0.6, 0.4, 2), icosphere(1.0, 2))
    inner, outer = pair.inner, pair.outer
    hole = scale_signed(inner, eps)
    v_ii = single_layer_matrix(inner.centroids, inner, self_mesh=True)
    v_oo = single_layer_matrix(outer.centroids, outer, self_mesh=True)
    k_oi = single_layer_matrix(outer.centroids, hole)
    k_oi /= eps**2
    k_oi *= eps
    for sign in (None, 1.0):
        s = np.sign(eps) if sign is None else sign
        stacked = np.block([[s * v_ii, single_layer_matrix(hole.centroids, outer)],
                            [k_oi, v_oo]])
        for blocks in (None, self_blocks(pair)):
            system = assemble(pair, BLOCK_DATA, eps, sign, blocks=blocks)
            assert np.array_equal(system.matrix, stacked)


# ---------------------------------------------------------------------------
# assembled solve against dense references
# ---------------------------------------------------------------------------

BLOCK_DATA = CartesianDataFamily(inner=(((0, 0, 0), (0.0, 1.0)),),
                                 outer=(((0, 0, 1), (1.0,)), ((1, 0, 0), (0.5,))))


def _pair(inner: str, subdivisions: int) -> GeometryPair:
    mesh = (icosphere(1.0, subdivisions) if inner == "sphere"
            else ellipsoid(1.0, 0.6, 0.4, subdivisions))
    return GeometryPair(mesh, icosphere(1.0, subdivisions))


def _assert_dense_match(x, matrix, rhs):
    want = scipy.linalg.solve(matrix, rhs)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def _dense_cond(matrix):
    lu, _ = scipy.linalg.lu_factor(matrix)
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))[0]
    return 1.0 / gecon(lu, np.linalg.norm(matrix, 1), norm="1")[0]


@pytest.mark.parametrize("subdivisions", [2, 3])
@pytest.mark.parametrize("inner", ["sphere", "ellipsoid"])
def test_block_solve_matches_dense_solve(inner, subdivisions):
    pair = _pair(inner, subdivisions)
    blocks = self_blocks(pair)
    for eps in (-0.6, -0.3, -0.05, 0.05, 0.3, 0.6):
        # sub 2 also assembles its own self blocks; sub 3 only as a sweep does
        for shared in ((None, blocks) if subdivisions == 2 else (blocks,)):
            system = assemble(pair, BLOCK_DATA, eps, blocks=shared)
            dens = solve(system)
            x = np.concatenate([dens.mu_inner, dens.mu_outer])
            _assert_dense_match(x, system.matrix, system.rhs)
            assert dens.residual <= 1e-13


def test_block_solve_sign_diagnostic_and_direct_solve(unit_pair_s2):
    blocks = self_blocks(unit_pair_s2)
    for shared in (None, blocks):
        system = assemble(unit_pair_s2, BLOCK_DATA, -0.3, sign=+1.0, blocks=shared)
        dens = solve(system)
        _assert_dense_match(np.concatenate([dens.mu_inner, dens.mu_outer]),
                            system.matrix, system.rhs)
    eps = -0.3
    direct = direct_solve(unit_pair_s2, BLOCK_DATA, eps)
    hole, outer = direct.hole, direct.outer
    matrix = np.block([
        [single_layer_matrix(hole.centroids, hole), single_layer_matrix(hole.centroids, outer)],
        [single_layer_matrix(outer.centroids, hole), single_layer_matrix(outer.centroids, outer)],
    ])
    rhs = np.concatenate([BLOCK_DATA.eval_inner(unit_pair_s2.inner.centroids, eps),
                          BLOCK_DATA.eval_outer(outer.centroids, eps)])
    _assert_dense_match(np.concatenate([direct.sigma_hole, direct.sigma_outer]), matrix, rhs)
    assert direct.cond / 3 <= _dense_cond(matrix) <= 3 * direct.cond


@pytest.mark.parametrize("eps", [-0.6, 0.05, 0.3])
def test_block_solve_condition_estimate_near_gecon(unit_pair_s2, eps):
    system = assemble(unit_pair_s2, BLOCK_DATA, eps)
    dens = solve(system)
    assert dens.cond / 3 <= _dense_cond(system.matrix) <= 3 * dens.cond
    assert dens.cond == pytest.approx(_dense_onenormest_cond(system.matrix), rel=1e-10)


def test_block_solve_refuses_singular_systems(unit_pair_s2):
    # the guards raise; scipy's zero-pivot warning must not reach the user
    warnings.simplefilter("error")
    system = assemble(unit_pair_s2, BLOCK_DATA, 0.3)
    n_i = system.n_inner

    def edited(change):
        matrix = system.matrix.copy()
        change(matrix)
        return dataclasses.replace(system, matrix=matrix)

    def zero_inner_row(m):
        m[3, :n_i] = 0.0  # V_ii singular, the full matrix not

    def repeated_outer_row(m):
        m[-1] = m[-2]

    def nearly_repeated_outer_row(m):
        m[-1] = m[-2] + 1e-17 * m[-3]

    # only the full matrix need be invertible
    regular = edited(zero_inner_row)
    dens = solve(regular)
    _assert_dense_match(np.concatenate([dens.mu_inner, dens.mu_outer]),
                        regular.matrix, regular.rhs)
    for change in (repeated_outer_row, nearly_repeated_outer_row):
        with pytest.raises(SolverError, match="system is singular"):
            solve(edited(change))


# ---------------------------------------------------------------------------
# sweeps in closed form: multipole couplings and the Woodbury solve
# ---------------------------------------------------------------------------

def test_solid_harmonics_obey_the_addition_theorem():
    from scipy.special import eval_legendre

    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 40, 3))
    degree = 27
    hx, hy = bem._solid_harmonics(x, degree), bem._solid_harmonics(y, degree)
    nx, ny = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
    cos = np.sum(x * y, axis=1) / (nx * ny)
    for k in range(degree + 1):
        rows = slice(k * k, (k + 1) ** 2)
        got = np.sum(hx[rows] * hy[rows], axis=0) / (nx * ny) ** k
        np.testing.assert_allclose(got, eval_legendre(k, cos), rtol=0, atol=1e-13)
    # degree order: a lower degree is the leading rows
    assert np.array_equal(bem._solid_harmonics(x, 5), hx[:36])


@pytest.fixture(scope="module")
def expansions():
    """CouplingExpansion to degree 27 of an inner mesh in a subdivision-3 unit sphere."""
    cache = {}

    def get(inner: str, subdivisions: int) -> bem.CouplingExpansion:
        if (inner, subdivisions) not in cache:
            mesh = (icosphere(1.0, subdivisions) if inner == "sphere"
                    else ellipsoid(1.0, 0.6, 0.4, subdivisions))
            pair = GeometryPair(mesh, icosphere(1.0, 3))
            cache[inner, subdivisions] = bem.CouplingExpansion(pair, self_blocks(pair), 27)
        return cache[inner, subdivisions]

    return get


def _expanded_couplings(expansion, eps, degree):
    r = (degree + 1) ** 2
    d = expansion.scales(eps, degree)[:, None]
    k_io = expansion.a_i[:r].T @ (d * expansion.b_o[:r])
    k_oi = eps * (expansion.a_o[:r].T @ (d * expansion.b_i[:r]))
    return k_io, k_oi


@pytest.mark.parametrize("eps", [0.3, -0.3])
@pytest.mark.parametrize("subdivisions", [2, 3])
@pytest.mark.parametrize("inner", ["sphere", "ellipsoid"])
def test_expanded_couplings_match_single_layer_blocks(expansions, inner, subdivisions, eps):
    expansion = expansions(inner, subdivisions)
    pair = expansion.pair
    hole = scale_signed(pair.inner, eps)
    # no pair in the near field: both blocks are the 7-point rule throughout
    assert len(bem._near_pairs(hole.centroids, pair.outer)[0]) == 0
    assert len(bem._near_pairs(pair.outer.centroids, hole)[0]) == 0
    k_io = single_layer_matrix(hole.centroids, pair.outer)
    k_oi = single_layer_matrix(pair.outer.centroids, hole) / eps**2 * eps  # as assemble
    rho = abs(eps) * pair.inner.bounding_radius / pair.origin_distance
    for degree in (6, 14, 27):
        tau = bem._truncation_bound(rho, degree)
        for got, want in zip(_expanded_couplings(expansion, eps, degree), (k_io, k_oi)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= tau + 1e-14
    assert tau <= bem.EXPANSION_RTOL


def test_expansion_degree_certifies_or_refuses(expansions):
    pair = expansions("sphere", 3).pair
    rho = 0.3 * pair.inner.bounding_radius / pair.origin_distance
    degree = bem.expansion_degree(pair, -0.3)
    assert degree == bem.expansion_degree(pair, 0.3) == 27
    assert bem._truncation_bound(rho, degree) <= bem.EXPANSION_RTOL
    assert bem._truncation_bound(rho, degree - 1) > bem.EXPANSION_RTOL
    assert bem.expansion_degree(pair, 0.05) < degree
    assert bem.expansion_degree(pair, 0.0) is None
    # (p+1)^2 past two thirds of 1280 triangles
    assert bem.expansion_degree(pair, 0.5) is None
    # subdivision-2 outer triangles: hole centroids within 3 diameters
    assert bem.expansion_degree(GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2)), 0.1) is None


def _dense_onenormest_cond(matrix):
    from scipy.sparse.linalg import LinearOperator, onenormest

    lu = scipy.linalg.lu_factor(matrix)
    n = len(matrix)
    inverse = LinearOperator((n, n), matvec=lambda v: scipy.linalg.lu_solve(lu, v),
                             rmatvec=lambda v: scipy.linalg.lu_solve(lu, v, trans=1),
                             dtype=float)
    return np.linalg.norm(matrix, 1) * onenormest(inverse, t=1)


@pytest.mark.parametrize("inner", ["sphere", "ellipsoid"])
def test_woodbury_solve_matches_assembled_solve(expansions, inner):
    expansion = expansions(inner, 3)
    pair = expansion.pair
    grid = (-0.3, -0.12, 0.05, 0.3)
    solved = expansion.solve(BLOCK_DATA, grid, [bem.expansion_degree(pair, e) for e in grid])
    for eps, dens in zip(grid, solved, strict=True):
        system = assemble(pair, BLOCK_DATA, eps, blocks=expansion.blocks)
        want = solve(system)
        x = np.concatenate([dens.mu_inner, dens.mu_outer])
        x_want = np.concatenate([want.mu_inner, want.mu_outer])
        assert np.max(np.abs(x - x_want)) <= 1e-12 * np.max(np.abs(x_want))
        assert dens.residual <= 1e-13
        if eps in (-0.3, 0.05):
            assert dens.cond == pytest.approx(_dense_onenormest_cond(system.matrix), rel=1e-10)


@pytest.mark.parametrize("eps", [0.3, -0.2])
def test_expanded_operators_are_the_matrix_and_its_inverse(expansions, eps):
    expansion = expansions("ellipsoid", 2)
    pair = expansion.pair
    # a batch of two systems at different degrees: the second, cut lower,
    # must not see the rows its padded scales leave out
    batch, degrees = (eps, -eps / 2), (27, 20)
    rho = abs(batch[1]) * pair.inner.bounding_radius / pair.origin_distance
    assert bem._truncation_bound(rho, degrees[1]) <= bem.EXPANSION_RTOL
    matvec, apply, apply_t, norm_1, _ = expansion.operators(batch, degrees)
    rng = np.random.default_rng(11)
    n = pair.inner.n_triangles + pair.outer.n_triangles
    u, v = rng.normal(size=(2, n, 2))
    cols = np.arange(2)
    applied, applied_t, products = apply(u, cols), apply_t(v, cols), matvec(u, cols)
    for j, e in enumerate(batch):
        matrix = assemble(pair, BLOCK_DATA, e, blocks=expansion.blocks).matrix
        want = matrix @ u[:, j]
        assert np.max(np.abs(products[:, j] - want)) <= 1e-13 * np.max(np.abs(want))
        assert norm_1[j] == pytest.approx(np.linalg.norm(matrix, 1), rel=1e-12)
        for got, want in ((applied[:, j], scipy.linalg.solve(matrix, u[:, j])),
                          (applied_t[:, j], scipy.linalg.solve(matrix.T, v[:, j]))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert v[:, j] @ applied[:, j] == pytest.approx(applied_t[:, j] @ u[:, j], rel=1e-12)
        # a one-column call takes 1-D vectors and gives the same column
        one = np.array([j])
        for op, x, batched in ((apply, u, applied), (apply_t, v, applied_t), (matvec, u, products)):
            got = op(x[:, j], one)
            assert got.shape == (n,)
            assert np.max(np.abs(got - batched[:, j])) <= 1e-13 * np.max(np.abs(batched[:, j]))


def test_truncation_bound_enters_the_residual(expansions):
    expansion = expansions("sphere", 3)
    pair = expansion.pair
    eps = 0.3
    degree = bem.expansion_degree(pair, eps)
    (dens,) = expansion.solve(BLOCK_DATA, [eps], [degree])
    x = np.concatenate([dens.mu_inner, dens.mu_outer])
    matrix = assemble(pair, BLOCK_DATA, eps, blocks=expansion.blocks).matrix
    rhs = np.concatenate([BLOCK_DATA.eval_inner(pair.inner.centroids, eps),
                          BLOCK_DATA.eval_outer(pair.outer.centroids, eps)])
    n_i = pair.inner.n_triangles
    tau = bem._truncation_bound(eps * pair.inner.bounding_radius / pair.origin_distance, degree)
    k_io, k_oi = matrix[:n_i, n_i:], matrix[n_i:, :n_i]
    bound = tau * (np.linalg.norm(k_io, np.inf) * np.max(np.abs(x[n_i:]))
                   + np.linalg.norm(k_oi, np.inf) * np.max(np.abs(x[:n_i])))
    expanded = np.max(np.abs(rhs - expansion.operators([eps], [degree])[0](x, [0])))
    assert dens.residual == pytest.approx((expanded + bound) / np.max(np.abs(rhs)), rel=1e-6)
    # cut far below the certified degree, the bound alone exceeds the guard
    with pytest.raises(SolverError, match="residual"):
        list(expansion.solve(BLOCK_DATA, [eps], [6]))
    # in a batch, the system before the failing one is still solved
    solved = expansion.solve(BLOCK_DATA, [-eps, eps], [degree, 6])
    first = next(solved)
    assert first.residual <= 1e-13
    with pytest.raises(SolverError, match="residual"):
        next(solved)


@pytest.fixture(scope="module")
def unit_pair_s3():
    return GeometryPair(icosphere(1.0, 3), icosphere(1.0, 3))


# ---------------------------------------------------------------------------
# lockstep solves: the batched estimator and the grid semantics
# ---------------------------------------------------------------------------

def _lu_operators(matrices):
    """matmat and rmatmat of the inverses of ``matrices``, as ``_onenormest`` takes them."""
    lus = [scipy.linalg.lu_factor(m) for m in matrices]

    def op(trans):
        def apply(x, cols):
            if x.ndim == 1:
                return scipy.linalg.lu_solve(lus[cols[0]], x, trans=trans)
            return np.stack([scipy.linalg.lu_solve(lus[j], x[:, k], trans=trans)
                             for k, j in enumerate(cols)], axis=1)
        return apply

    return op(0), op(1), lus


def _recorded(op, calls):
    """``op``, recording the systems and the vector rank of each call."""
    return lambda x, cols: calls.append((list(cols), x.ndim)) or op(x, cols)


def _scipy_onenormest(lu):
    from scipy.sparse.linalg import LinearOperator, onenormest

    n = len(lu[0])
    return onenormest(LinearOperator((n, n), matvec=lambda v: scipy.linalg.lu_solve(lu, v),
                                     rmatvec=lambda v: scipy.linalg.lu_solve(lu, v, trans=1),
                                     dtype=float), t=1)


def _random_matrices(rng, n, kinds):
    out = []
    for kind in kinds:  # "normal" is left as drawn
        a = rng.normal(size=(n, n))
        if kind == "well":
            a += 3.0 * np.sqrt(n) * np.eye(n)
        elif kind == "ill":
            u, _, vt = np.linalg.svd(a)
            a = (u * np.logspace(0, -12, n)) @ vt
        elif kind == "nonnegative":  # its inverse is nonnegative
            a = np.linalg.inv(np.abs(a) + n * np.eye(n))
        out.append(a)
    return out


@pytest.mark.parametrize("n", [2, 7, 160])
@pytest.mark.parametrize("seed", range(3))
def test_batched_estimator_matches_scipy_onenormest(n, seed):
    rng = np.random.default_rng(seed)
    kinds = ["well", "ill", "nonnegative", "normal", "ill", "normal"]
    matmat, rmatmat, lus = _lu_operators(_random_matrices(rng, n, kinds))
    got = bem._onenormest(matmat, rmatmat, n, len(kinds))
    for est, lu in zip(got, lus, strict=True):
        assert est == pytest.approx(_scipy_onenormest(lu), rel=1e-14)
    # a batch of one passes 1-D vectors and gives the same estimate
    matmat, rmatmat, lus = _lu_operators(_random_matrices(rng, n, ["ill"]))
    calls = []
    (est,) = bem._onenormest(_recorded(matmat, calls), _recorded(rmatmat, calls), n, 1)
    assert est == pytest.approx(_scipy_onenormest(lus[0]), rel=1e-14)
    assert {ndim for _, ndim in calls} == {1}


def test_batched_estimator_drops_each_column_at_its_own_step():
    rng = np.random.default_rng(4)
    n = 60
    kinds = ["nonnegative", "normal", "normal", "normal", "normal", "ill"]
    matrices = _random_matrices(rng, n, kinds)
    matmat, rmatmat, lus = _lu_operators(matrices)
    inverse_calls = []
    got = bem._onenormest(_recorded(matmat, inverse_calls), rmatmat, n, len(kinds))
    for est, lu in zip(got, lus, strict=True):
        assert est == pytest.approx(_scipy_onenormest(lu), rel=1e-14)
    steps = [sum(j in cols for cols, _ in inverse_calls) for j in range(len(kinds))]
    assert steps == [2, 3, 2, 2, 4, 2]
    # a nonnegative inverse is estimated exactly, at k = 2
    assert got[0] == pytest.approx(np.linalg.norm(np.linalg.inv(matrices[0]), 1), rel=1e-12)
    # each step is one call for the columns still running, the last one 1-D
    assert inverse_calls == [(list(range(6)), 2), (list(range(6)), 2), ([1, 4], 2), ([4], 1)]


SWEEP_GRID = np.concatenate([-np.linspace(0.3, 0.05, 7), np.linspace(0.05, 0.3, 7)])


def test_signed_sweep_matches_one_point_solves(unit_pair_s3, monkeypatch):
    pair = unit_pair_s3
    assert all(bem.expansion_degree(pair, eps) is not None for eps in SWEEP_GRID)
    swept = list(bem.solve_grid(pair, BLOCK_DATA, SWEEP_GRID))
    blocks = self_blocks(pair)
    monkeypatch.setattr(bem, "self_blocks", lambda p: blocks)  # built once for the 14
    for eps, dens in zip(SWEEP_GRID, swept, strict=True):
        (want,) = bem.solve_grid(pair, BLOCK_DATA, [eps])
        for got, ref in ((dens.mu_inner, want.mu_inner), (dens.mu_outer, want.mu_outer)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert dens.cond == pytest.approx(want.cond, rel=1e-12)
        assert dens.residual <= 1e-13


def test_failing_eps_mid_grid_raises_and_yields_nothing_after(unit_pair_s3, monkeypatch):
    pair = unit_pair_s3
    grid = [-0.3, -0.1, 0.1, 0.3]
    original = bem.expansion_degree
    # cut far below the certified degree at -0.1, as in
    # test_truncation_bound_enters_the_residual
    monkeypatch.setattr(bem, "expansion_degree",
                        lambda p, eps: 6 if eps == -0.1 else original(p, eps))
    with pytest.raises(SolverError) as alone:
        list(bem.solve_grid(pair, BLOCK_DATA, [-0.1]))
    got = []
    with pytest.raises(SolverError) as swept:
        for dens in bem.solve_grid(pair, BLOCK_DATA, grid):
            got.append(dens)
    assert str(swept.value) == str(alone.value)
    assert str(swept.value).startswith("system residual ")
    assert len(got) == 1  # -0.3 only
    monkeypatch.undo()
    (want,) = bem.solve_grid(pair, BLOCK_DATA, [-0.3])
    assert np.max(np.abs(got[0].mu_inner - want.mu_inner)) <= 1e-12 * np.max(np.abs(want.mu_inner))


def test_singular_self_block_refused_before_the_expansion_is_built(unit_pair_s3, monkeypatch):
    # a certified eps goes through CouplingExpansion, which checks the
    # rcond of both factored self blocks, the inner one first
    original = bem._factor
    monkeypatch.setattr(bem, "_factor", lambda a, norm_1: (original(a, norm_1)[0], 1e-20))
    assert bem.expansion_degree(unit_pair_s3, 0.3) is not None
    with pytest.raises(SolverError, match=r"system inner block is singular .*rcond=1\.00e-20"):
        list(bem.solve_grid(unit_pair_s3, BLOCK_DATA, [0.3]))


def test_inadmissible_eps_mid_grid_raises_before_any_solve(unit_pair_s3, monkeypatch):
    # certified at every eps, but 0.3 comes closer to the outer mesh than
    # this clearance_min allows: the whole grid is refused up front
    pair = GeometryPair(unit_pair_s3.inner, unit_pair_s3.outer, clearance_min=0.72)
    grid = [0.1, 0.3, 0.2]
    assert all(bem.expansion_degree(pair, eps) is not None for eps in grid)
    built, original = [], bem.single_layer_matrix
    monkeypatch.setattr(bem, "single_layer_matrix",
                        lambda *a, **k: built.append(a) or original(*a, **k))
    got = []
    with pytest.raises(AdmissibilityError, match="eps=0.3"):
        for dens in bem.solve_grid(pair, BLOCK_DATA, grid):
            got.append(dens)
    assert got == [] and built == []


def _self_factor_solves(monkeypatch, pair, grid):
    """Columns of each ``lu_solve`` call on the self-block factor in a grid solve."""
    blocks = self_blocks(pair)
    monkeypatch.setattr(bem, "self_blocks", lambda p: blocks)
    widths, groups, original = [], [], bem.lu_solve
    original_operators = bem.CouplingExpansion.operators

    def counting(lu, b, *args, **kwargs):
        if lu is blocks.inner_lu[0]:
            widths.append(1 if b.ndim == 1 else b.shape[1])
        return original(lu, b, *args, **kwargs)

    def counting_operators(self, eps_list, degrees):
        groups.append(len(eps_list))
        return original_operators(self, eps_list, degrees)

    monkeypatch.setattr(bem, "lu_solve", counting)
    monkeypatch.setattr(bem.CouplingExpansion, "operators", counting_operators)
    assert len(list(bem.solve_grid(pair, BLOCK_DATA, grid))) == len(grid)
    monkeypatch.undo()
    return widths, groups


def test_self_block_solves_do_not_grow_with_the_certified_eps(unit_pair_s3, monkeypatch):
    pair = unit_pair_s3
    few = [-0.3, -0.1, 0.1, 0.3]
    many = np.concatenate([-np.array([0.3, 0.12, 0.1, 0.08, 0.06, 0.04, 0.02]),
                           [0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.3]])
    few_widths, few_groups = _self_factor_solves(monkeypatch, pair, few)
    many_widths, many_groups = _self_factor_solves(monkeypatch, pair, many)
    # both grids are one lockstep group: the capacitance factors fit
    assert few_groups == [4] and many_groups == [14]
    # the expansion's two basis solves, then each step is one call per side
    # of the shared block; the widths carry the eps
    assert len(many_widths) <= len(few_widths)
    assert max(many_widths[2:]) == 14 and max(few_widths[2:]) == 4
    # the benchmark's sweep is cut into two groups by the memory bound
    _, groups = _self_factor_solves(monkeypatch, pair, SWEEP_GRID)
    assert groups == [13, 1]


def test_one_lockstep_group_is_held_at_a_time(unit_pair_s3, monkeypatch):
    # a group's right-hand sides and operators, and with them its
    # capacitance factors, are released before the next group's are built
    applies, alive = [], []
    original = bem.CouplingExpansion.operators

    def tracking(self, eps_list, degrees):
        alive.append([ref() is not None for ref in applies])
        ops = original(self, eps_list, degrees)
        applies.append(weakref.ref(ops[1]))
        return ops

    monkeypatch.setattr(bem.CouplingExpansion, "operators", tracking)
    assert len(list(bem.solve_grid(unit_pair_s3, BLOCK_DATA, SWEEP_GRID))) == len(SWEEP_GRID)
    assert alive == [[], [False]]


def test_solve_grid_mixes_expanded_and_assembled_points(unit_pair_s2, monkeypatch):
    pair = GeometryPair(icosphere(1.0, 3), icosphere(1.0, 3))
    grid = [-0.5, -0.2, 0.1]
    assert [bem.expansion_degree(pair, eps) is None for eps in grid] == [True, False, False]
    assembled, factored = [], []
    original, original_factor = bem.assemble, bem._factor

    def counting(pair, data, eps, *args, **kwargs):
        assembled.append(eps)
        return original(pair, data, eps, *args, **kwargs)

    def counting_factor(a, *args):
        factored.append(a.shape)
        return original_factor(a, *args)

    monkeypatch.setattr(bem, "assemble", counting)
    monkeypatch.setattr(bem, "_factor", counting_factor)
    got = list(bem.solve_grid(pair, BLOCK_DATA, grid))
    assert assembled == [-0.5]
    assert factored == [(pair.inner.n_triangles,) * 2]  # one self block, for the expansion
    assert len(list(bem.solve_grid(pair, BLOCK_DATA, [0.2]))) == 1
    assert assembled == [-0.5]  # a certified single point is expanded too
    # a grid with no certified eps shares its self blocks but factors none
    factored.clear()
    assert len(list(bem.solve_grid(unit_pair_s2, BLOCK_DATA, [-0.3, 0.3]))) == 2
    assert assembled[-2:] == [-0.3, 0.3] and factored == []
    # an assembled point between two expanded ones of one lockstep group
    unsorted = [-0.2, -0.5, 0.1]
    got_unsorted = list(bem.solve_grid(pair, BLOCK_DATA, unsorted))
    assert assembled[-1:] == [-0.5]
    monkeypatch.undo()
    for eps, dens in zip(grid + unsorted, got + got_unsorted, strict=True):
        want = solve(assemble(pair, BLOCK_DATA, eps))
        x = np.concatenate([dens.mu_inner, dens.mu_outer])
        x_want = np.concatenate([want.mu_inner, want.mu_outer])
        assert np.max(np.abs(x - x_want)) <= 1e-12 * np.max(np.abs(x_want))


@pytest.mark.parametrize("eps", [0.3, -0.3])
def test_certified_one_point_grid_matches_assembled_solve(unit_pair_s3, monkeypatch, eps):
    pair = unit_pair_s3
    assert bem.expansion_degree(pair, eps) is not None
    assembled, original = [], bem.assemble
    monkeypatch.setattr(bem, "assemble", lambda *a, **k: assembled.append(a) or original(*a, **k))
    (dens,) = bem.solve_grid(pair, BLOCK_DATA, [eps])
    monkeypatch.undo()
    assert assembled == []
    want = solve(assemble(pair, BLOCK_DATA, eps))
    for got, ref in ((dens.mu_inner, want.mu_inner), (dens.mu_outer, want.mu_outer)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    points = [[0.0, 0.0, 0.6], [0.5, 0.0, 0.0], [0.0, -0.5, 0.1]]
    got = eval_field(pair, dens, eps, points)
    ref = eval_field(pair, want, eps, points)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_uncertified_one_point_grid_frees_its_self_blocks_before_the_lu(unit_pair_s2,
                                                                        monkeypatch):
    eps = 0.3
    assert bem.expansion_degree(unit_pair_s2, eps) is None
    shared, built, alive = [], [], []
    original, original_matrix = bem.assemble, bem.single_layer_matrix
    original_blocks, original_dense = bem.self_blocks, bem._dense_solve
    refs = []

    def counting(*args, **kwargs):
        shared.append(kwargs.get("blocks"))
        return original(*args, **kwargs)

    def counting_matrix(*args, **kwargs):
        built.append(kwargs.get("self_mesh", False))
        return original_matrix(*args, **kwargs)

    def watched_blocks(pair):
        blocks = original_blocks(pair)
        refs.append(weakref.ref(blocks))
        return blocks

    def dense(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return original_dense(*args, **kwargs)

    monkeypatch.setattr(bem, "assemble", counting)
    monkeypatch.setattr(bem, "single_layer_matrix", counting_matrix)
    monkeypatch.setattr(bem, "self_blocks", watched_blocks)
    monkeypatch.setattr(bem, "_dense_solve", dense)
    (dens,) = bem.solve_grid(unit_pair_s2, BLOCK_DATA, [eps])
    monkeypatch.undo()
    # assembled once from blocks that assemble built: one self block for the
    # identical meshes, gone before the LU, so no second copy is held there
    assert shared == [None] and built == [True, False, False]
    assert alive == [[False]]
    want = solve(assemble(unit_pair_s2, BLOCK_DATA, eps))
    assert np.array_equal(dens.mu_inner, want.mu_inner)
    assert np.array_equal(dens.mu_outer, want.mu_outer)
    assert dens.cond == want.cond and dens.residual == want.residual


def test_self_blocks_share_one_block_for_identical_meshes(unit_pair_s2):
    blocks = self_blocks(unit_pair_s2)
    assert blocks.v_oo is blocks.v_ii
    assert blocks.outer_lu is blocks.inner_lu
    assert blocks.col_sums[1] is blocks.col_sums[0]
    mesh = unit_pair_s2.outer
    assert np.array_equal(blocks.v_ii, single_layer_matrix(mesh.centroids, mesh))
    distinct = self_blocks(GeometryPair(icosphere(0.5, 2), icosphere(1.0, 2)))
    assert distinct.v_oo is not distinct.v_ii
    assert distinct.outer_lu is not distinct.inner_lu
    assert np.array_equal(distinct.v_oo, blocks.v_oo)


_COND_SCRIPT = """
from holelab import bem
from holelab.mesh import GeometryPair, icosphere
data = bem.CartesianDataFamily(inner=(((0, 0, 0), (0.0, 1.0)),), outer=(((0, 0, 1), (1.0,)),))
conds = []
for subdivisions in (3, 2):  # expanded at eps = 0.3, then assembled
    pair = GeometryPair(icosphere(1.0, subdivisions), icosphere(1.0, subdivisions))
    (dens,) = bem.solve_grid(pair, data, [0.3])
    conds.append(dens.cond.hex())
print(" ".join(conds))
"""


def _conds_in_process(blas_threads: int) -> str:
    import os
    import subprocess
    from pathlib import Path

    import holelab

    src = str(Path(holelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    done = subprocess.run([sys.executable, "-c", _COND_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_condition_estimates_repeat_across_processes(blas_threads):
    # raw DensityPair.cond, bit for bit, of one expanded and one assembled
    # one-point solve; across BLAS thread counts the last digits may differ
    first = _conds_in_process(blas_threads)
    assert len(first.split()) == 2
    assert _conds_in_process(blas_threads) == first


# ---------------------------------------------------------------------------
# every product on scipy's BLAS
# ---------------------------------------------------------------------------

def _operand_layouts(rng, rows, cols):
    """One (rows, cols) matrix as C- and F-ordered arrays, a .T view and a slice."""
    a = rng.normal(size=(rows, cols))
    wide = rng.normal(size=(rows + 3, cols + 2))
    wide[:rows, :cols] = a
    return {"C": a, "F": np.asfortranarray(a), ".T": np.ascontiguousarray(a.T).T,
            "slice": wide[:rows, :cols]}


def _assert_product(a, b):
    got, want = bem._mm(a, b), a @ b
    assert got.shape == want.shape
    # to a few ulps of |a| |b|: BLAS kernels may sum in another order
    scale = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
    return got


# (5, 5, 1) and (1, 6, 4) pass a column and a row, contiguous both ways
@pytest.mark.parametrize("shape", [(7, 5, 3), (5, 5, 1), (1, 6, 4), (40, 33, 2)])
def test_product_matches_matmul_in_every_layout(shape):
    m, k, n = shape
    rng = np.random.default_rng(sum(shape))
    for a in _operand_layouts(rng, m, k).values():
        for b in _operand_layouts(rng, k, n).values():
            assert _assert_product(a, b).flags.c_contiguous
        # a 1-D vector keeps a 1-D result, contiguous or strided
        vectors = (rng.normal(size=k), rng.normal(size=(k, 3))[:, 1])
        for v in vectors:
            assert _assert_product(a, v).ndim == 1


def test_product_on_the_shapes_operators_passes(expansions):
    # the bases' leading rows, their .T views, the [:r, :r] slices of G and
    # the self blocks, against 2-D batches and the 1-D column of a batch of one
    expansion = expansions("ellipsoid", 2)
    rng = np.random.default_rng(13)
    r = (20 + 1) ** 2
    a_i, b_o, g_i = expansion.a_i[:r], expansion.b_o[:r], expansion.g_i[:r, :r]
    n_i, n_o = a_i.shape[1], b_o.shape[1]
    batch = rng.normal(size=(n_i, 2))
    lu = scipy.linalg.lu_factor(expansion.blocks.v_oo.T)
    solved = scipy.linalg.lu_solve(lu, rng.normal(size=(n_o, 2)), trans=1)
    assert solved.flags.f_contiguous and not solved.flags.c_contiguous
    for a, b in ((a_i, batch), (a_i, batch[:, 0]), (b_o, solved), (b_o, solved[:, 1]),
                 (a_i.T, rng.normal(size=(r, 2))), (a_i.T, rng.normal(size=r)),
                 (g_i, rng.normal(size=(r, 2))), (g_i.T, rng.normal(size=r)),
                 (rng.normal(size=(r, r)), g_i), (expansion.blocks.v_ii, batch)):
        _assert_product(a, b)


def test_bem_forms_no_numpy_product():
    # numpy's products run on numpy's own OpenBLAS, whose thread pool then
    # competes with scipy's, which the LU factors and solves use
    import ast
    from pathlib import Path

    tree = ast.parse(Path(bem.__file__).read_text())
    names = {"dot", "matmul", "vdot", "inner", "tensordot", "multi_dot"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(f"{name}() at line {node.lineno}")
    assert not found, found


# ---------------------------------------------------------------------------
# field evaluation over a grid: the hole through its rescaling
# ---------------------------------------------------------------------------

def _around_unit_hole(mesh: bem.TriMesh) -> np.ndarray:
    """Microscopic targets within NEAR_FIELD_FACTOR diameters of the unit hole, and beyond."""
    d = float(mesh.diameters.max())
    dirs = np.random.default_rng(5).normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.concatenate([r * dirs for r in (1 + 0.5 * d, 1 + 1.5 * d, 1 + 2.5 * d, 2.0, 3.5)])


@pytest.mark.parametrize("eps", [0.3, -0.3, 0.1, -0.1, -0.05])
def test_hole_layer_is_the_unit_layer_at_rescaled_points(unit_pair_s3, eps):
    # S(x, eps G) = |eps| S(x/eps, G), on exact near-field integrals and the rule
    inner = unit_pair_s3.inner
    x = eps * _around_unit_hole(inner)
    near_rows = set(bem._near_pairs(x / eps, inner)[0].tolist())
    assert 0 < len(near_rows) < len(x)
    want = single_layer_matrix(x, scale_signed(inner, eps))
    got = abs(eps) * single_layer_matrix(x / eps, inner)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the layer of a smooth density, target by target
    mu = 1.0 + 0.5 * inner.centroids[:, 2]
    assert np.max(np.abs((got - want) @ mu) / np.abs(want @ mu)) <= 1e-14


FIELD_TARGETS = {
    "macroscopic": [[0.0, 0.0, 0.6], [0.5, 0.0, 0.0], [0.0, -0.5, 0.1]],
    "microscopic": [[0.0, 0.0, 1.8], [1.5, 0.3, 0.0], [0.0, -2.0, 0.4]],
}
FIELD_GRID = [-0.3, -0.1, -0.05, 0.05, 0.1, 0.3]


@pytest.fixture(scope="module")
def field_densities(unit_pair_s3):
    return list(bem.solve_grid(unit_pair_s3, BLOCK_DATA, FIELD_GRID))


@pytest.mark.parametrize("frame", ["macroscopic", "microscopic"])
def test_grid_field_equals_per_eps_evaluation(unit_pair_s3, field_densities, frame):
    pair = unit_pair_s3
    points = np.array(FIELD_TARGETS[frame])
    built, original = [], bem.single_layer_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bem, "single_layer_matrix",
                      lambda *a, **k: built.append(len(a[0])) or original(*a, **k))
        field = bem.GridField(pair, FIELD_GRID, points, frame, clearance_factor=0.5)
        got = [field.values(j, dens) for j, dens in enumerate(field_densities)]
    # one matrix per mesh: the hole's rows at every eps, the outer mesh's
    # distinct physical points
    distinct = len(points) * (len(FIELD_GRID) if frame == "microscopic" else 1)
    assert built == [len(points) * len(FIELD_GRID), distinct]
    for eps, dens, got in zip(FIELD_GRID, field_densities, got, strict=True):
        one = eval_field(pair, dens, eps, points, frame, clearance_factor=0.5)
        assert np.max(np.abs(got - one)) <= 1e-14 * np.max(np.abs(one))
        # against the physically scaled hole mesh
        physical = eps * points if frame == "microscopic" else points
        ref = (single_layer_matrix(physical, scale_signed(pair.inner, eps)) @ dens.mu_inner / eps
               + single_layer_matrix(physical, pair.outer) @ dens.mu_outer)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _per_eps_refusal(pair, eps, points, frame, factor):
    """The refusal of a per-eps check on the physically scaled hole mesh, or None."""
    physical = eps * points if frame == "microscopic" else points
    hole = scale_signed(pair.inner, eps)
    for p in physical:
        if not pair.outer.contains(p):
            return f"point {p.tolist()} is outside the outer surface"
        if hole.contains(p):
            return f"point {p.tolist()} is inside the hole"
    try:
        bem._clearance_guard(physical, (hole, pair.outer), factor)
    except EvaluationTooCloseError as err:
        return str(err)
    return None


@pytest.mark.parametrize("frame, points, refused_at", [
    # the second point passes at |eps| = 0.1, and is too near the hole at 0.3
    ("macroscopic", [[0.0, 0.0, 0.6], [0.0, 0.0, 0.33]], 0.3),
    # inside the hole at 0.3 only
    ("macroscopic", [[0.0, 0.6, 0.0], [0.2, 0.0, 0.0]], 0.3),
    # containment before clearance: the second point, inside the hole, is refused
    ("macroscopic", [[0.0, 0.0, 0.33], [0.2, 0.0, 0.0]], 0.3),
    # grid order before point order: the second point is refused at -0.1
    ("macroscopic", [[0.0, 0.0, 0.33], [0.12, 0.0, 0.0]], -0.1),
    # eps*q too near the outer surface at 0.3 only
    ("microscopic", [[0.0, 0.0, 1.8], [0.0, 3.2, 0.0]], 0.3),
    # eps*q outside the outer surface at 0.3 only
    ("microscopic", [[0.0, 0.0, 1.8], [3.5, 0.0, 0.0]], 0.3),
])
def test_grid_refuses_the_first_target_before_any_self_block(unit_pair_s3, monkeypatch,
                                                             frame, points, refused_at):
    from holelab.continuation import TargetSet, sweep

    pair, grid, points = unit_pair_s3, [-0.1, 0.1, 0.3], np.array(points)
    messages = [_per_eps_refusal(pair, eps, points, frame, 2.0) for eps in grid]
    first = next(j for j, m in enumerate(messages) if m is not None)
    assert grid[first] == refused_at
    built, factored = [], []
    original, original_factor = bem.single_layer_matrix, bem._factor
    monkeypatch.setattr(bem, "single_layer_matrix",
                        lambda *a, **k: built.append(k.get("self_mesh", False)) or original(*a, **k))
    monkeypatch.setattr(bem, "_factor", lambda *a: factored.append(1) or original_factor(*a))
    with pytest.raises(ValueError) as err:
        sweep(pair, BLOCK_DATA, grid, TargetSet(frame, points))
    assert str(err.value) == messages[first]
    assert built == [] and factored == []


def test_sweep_refuses_a_negative_clearance_factor_before_any_block(monkeypatch):
    from holelab.continuation import TargetSet, sweep

    pair = GeometryPair(icosphere(1.0, 1), icosphere(1.0, 1))
    # 0.0467 from the outer surface: the guard at the default factor refuses it
    targets = TargetSet("macroscopic", np.array([[0.0, 0.0, 0.95]]))
    with pytest.raises(EvaluationTooCloseError):
        sweep(pair, BLOCK_DATA, [0.3], targets)
    built, original = [], bem.single_layer_matrix
    monkeypatch.setattr(bem, "single_layer_matrix",
                        lambda *a, **k: built.append(1) or original(*a, **k))
    with pytest.raises(ValueError, match="clearance factor must be >= 0, got -1.0"):
        sweep(pair, BLOCK_DATA, [0.3], targets, eval_clearance_factor=-1.0)
    assert built == []
    # a factor of 0 still switches the guard off
    result = sweep(pair, BLOCK_DATA, [0.3], targets, eval_clearance_factor=0.0)
    assert np.all(np.isfinite(result.values)) and built
