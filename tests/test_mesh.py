import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import pi

from holelab.mesh import (
    AdmissibilityError,
    DegenerateTriangleError,
    GeometryPair,
    MeshError,
    MeshFormatError,
    NotClosedError,
    OrientationError,
    TriMesh,
    ellipsoid,
    icosphere,
    load_off,
    mesh_to_mesh_distance,
    point_to_mesh_distance,
    save_off,
    scale_signed,
)


def test_icosphere_counts():
    base = icosphere(1.0, 0)
    assert len(base.vertices) == 12 and base.n_triangles == 20
    assert icosphere(1.0, 2).n_triangles == 320


def test_icosphere_area_and_volume():
    m = icosphere(1.0, 2)
    assert abs(m.total_area - 4 * pi) / (4 * pi) < 0.02
    assert abs(m.signed_volume - 4 * pi / 3) / (4 * pi / 3) < 0.05


def test_icosphere_scaling_law():
    a1 = icosphere(1.0, 1).total_area
    a2 = icosphere(2.0, 1).total_area
    assert a2 == pytest.approx(4 * a1, rel=1e-12)


def test_icosphere_convergence_order():
    # Area and volume errors shrink at least quadratically in the edge length.
    errs_a, errs_v, edges = [], [], []
    for s in (1, 2, 3, 4):
        m = icosphere(1.0, s)
        errs_a.append(abs(m.total_area - 4 * pi))
        errs_v.append(abs(m.signed_volume - 4 * pi / 3))
        edges.append(m.mean_edge_length)
    for errs in (errs_a, errs_v):
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(
            np.array(edges[:-1]) / edges[1:]
        )
        assert np.min(orders) >= 1.9


def test_icosphere_preconditions():
    with pytest.raises(MeshError):
        icosphere(0.0, 1)
    with pytest.raises(MeshError):
        icosphere(1.0, 7)


def test_ellipsoid_matches_icosphere_for_unit_axes():
    a = ellipsoid(1, 1, 1, 1)
    b = icosphere(1.0, 1)
    assert np.allclose(a.vertices, b.vertices)


def test_ellipsoid_volume():
    m = ellipsoid(2, 1, 1, 3)
    want = 4 * pi / 3 * 2
    assert abs(m.signed_volume - want) / want < 0.02


def test_ellipsoid_rejects_degenerate_axis():
    with pytest.raises(MeshError):
        ellipsoid(0.0, 1, 1, 1)


def test_scale_signed_identity_and_areas():
    m = icosphere(1.0, 1)
    same = scale_signed(m, 1.0)
    assert np.array_equal(same.vertices, m.vertices)
    half = scale_signed(m, 0.5)
    assert half.total_area == pytest.approx(0.25 * m.total_area, rel=1e-12)
    with pytest.raises(MeshError):
        scale_signed(m, 0.0)


def test_scale_signed_reflection_keeps_outward_normals():
    m = icosphere(1.0, 2)
    reflected = scale_signed(m, -1.0)
    assert reflected.signed_volume > 0
    assert reflected.signed_volume == pytest.approx(m.signed_volume, rel=1e-12)


def test_scale_signed_round_trip():
    m = ellipsoid(1.3, 0.8, 1.0, 1)
    for eps in (0.37, -0.52):
        back = scale_signed(scale_signed(m, eps), 1.0 / eps)
        assert np.max(np.abs(back.vertices - m.vertices)) < 1e-12


def test_off_round_trip(tmp_path):
    m = icosphere(1.0, 1)
    path = tmp_path / "sphere.off"
    save_off(m, path)
    loaded = load_off(path)
    assert len(loaded.vertices) == len(m.vertices)
    assert loaded.n_triangles == m.n_triangles
    assert np.allclose(loaded.vertices, m.vertices)
    assert np.array_equal(loaded.triangles, m.triangles)


def test_off_malformed_cases(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("NOFF\n0 0 0\n")
    with pytest.raises(MeshFormatError):
        load_off(p)
    p.write_text("OFF\n1 0 0\n0.0 zero 0.0\n")
    with pytest.raises(MeshFormatError):
        load_off(p)
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n")
    with pytest.raises(MeshFormatError):
        load_off(p)
    # trailing garbage is a strict-parse failure
    m = icosphere(1.0, 0)
    good = tmp_path / "good.off"
    save_off(m, good)
    good.write_text(good.read_text() + "extra\n")
    with pytest.raises(MeshFormatError):
        load_off(good)


def test_open_surface_detected():
    m = icosphere(1.0, 0)
    with pytest.raises(NotClosedError):
        TriMesh(m.vertices, m.triangles[:-1])


def test_inconsistent_winding_detected():
    m = icosphere(1.0, 0)
    tris = m.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]
    with pytest.raises(OrientationError):
        TriMesh(m.vertices, tris)


def test_inward_orientation_detected():
    m = icosphere(1.0, 0)
    with pytest.raises(OrientationError):
        TriMesh(m.vertices, m.triangles[:, [0, 2, 1]])


def test_degenerate_triangle_detected():
    m = icosphere(1.0, 0)
    tris = m.triangles.copy()
    tris[0, 1] = tris[0, 0]
    with pytest.raises(DegenerateTriangleError):
        TriMesh(m.vertices, tris)


def test_contains():
    m = icosphere(1.0, 1)
    assert m.contains([0.0, 0.0, 0.0])
    assert m.contains([0.3, -0.2, 0.1])
    assert not m.contains([2.0, 0.0, 0.0])


def test_point_and_mesh_distances():
    # Facet planes sag inside the sphere by ~edge^2/8, hence the tolerances.
    m = icosphere(1.0, 2)
    assert point_to_mesh_distance([0.0, 0.0, 0.0], m) == pytest.approx(1.0, abs=0.02)
    assert point_to_mesh_distance([2.0, 0.0, 0.0], m) == pytest.approx(1.0, abs=0.02)
    inner = scale_signed(m, 0.5)
    assert mesh_to_mesh_distance(inner, m) == pytest.approx(0.5, abs=0.02)


def test_geometry_pair_requires_origin_inside():
    shifted = TriMesh(icosphere(1.0, 1).vertices + np.array([2.0, 0, 0]),
                      icosphere(1.0, 1).triangles)
    with pytest.raises(MeshError):
        GeometryPair(shifted, icosphere(1.0, 1))


def test_admissibility_reports():
    pair = GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2))
    rep = pair.admissibility(0.5)
    assert rep.ok
    assert rep.clearance == pytest.approx(0.5, abs=0.02)
    tight = GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2), clearance_min=0.05)
    assert not tight.admissibility(0.99).ok
    with pytest.raises(MeshError):
        pair.admissibility(0.0)


def test_eps_max_bisection():
    pair = GeometryPair(icosphere(1.0, 1), icosphere(1.0, 1), clearance_min=0.1)
    assert 0.8 < pair.eps_max < 1.0
    assert pair.admissibility(0.95 * pair.eps_max).ok
    assert not pair.admissibility(1.1 * pair.eps_max).ok


# ---------------------------------------------------------------------------
# pruned exact distance against brute force
# ---------------------------------------------------------------------------

def _brute_points_to_triangles(points, corners):
    """Independent reference: exact distance of every point to every triangle."""
    a = corners[:, 0]
    ab = corners[:, 1] - a
    ac = corners[:, 2] - a
    d00 = np.einsum("ij,ij->i", ab, ab)
    d01 = np.einsum("ij,ij->i", ab, ac)
    d11 = np.einsum("ij,ij->i", ac, ac)
    denom = d00 * d11 - d01 * d01
    ap = points[:, None, :] - a[None]
    d20 = np.einsum("mtc,tc->mt", ap, ab)
    d21 = np.einsum("mtc,tc->mt", ap, ac)
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    inside = (v >= 0) & (w >= 0) & (v + w <= 1)
    proj = a[None] + v[..., None] * ab[None] + w[..., None] * ac[None]
    best = np.where(inside, np.linalg.norm(points[:, None, :] - proj, axis=2), np.inf)
    for s0, d_edge in ((corners[:, 0], ab),
                       (corners[:, 1], corners[:, 2] - corners[:, 1]),
                       (corners[:, 2], corners[:, 0] - corners[:, 2])):
        t = np.einsum("mtc,tc->mt", points[:, None, :] - s0[None], d_edge)
        t = np.clip(t / np.einsum("ij,ij->i", d_edge, d_edge), 0.0, 1.0)
        closest = s0[None] + t[..., None] * d_edge[None]
        best = np.minimum(best, np.linalg.norm(points[:, None, :] - closest, axis=2))
    return best


def _brute_mesh_distance(mesh_a, mesh_b):
    """The former sampled clearance: vertices and centroids against triangles."""
    return min(
        float(_brute_points_to_triangles(np.vstack([src.vertices, src.centroids]),
                                         dst.corner_array()).min())
        for src, dst in ((mesh_a, mesh_b), (mesh_b, mesh_a))
    )


def _clamped_segment_distance(p1, q1, p2, q2):
    """Segment-segment distance by clamped closest points (Ericson, RTCD 5.1.9)."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a = np.einsum("...c,...c->...", d1, d1)
    e = np.einsum("...c,...c->...", d2, d2)
    b = np.einsum("...c,...c->...", d1, d2)
    c = np.einsum("...c,...c->...", d1, r)
    f = np.einsum("...c,...c->...", d2, r)
    denom = a * e - b * b
    safe = np.where(denom > 0, denom, 1.0)
    s = np.where(denom > 0, np.clip((b * f - c * e) / safe, 0.0, 1.0), 0.0)
    t = (b * s + f) / e
    s = np.where(t < 0, np.clip(-c / a, 0.0, 1.0),
                 np.where(t > 1, np.clip((b - c) / a, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm(r + s[..., None] * d1 - t[..., None] * d2, axis=-1)


def _orient(a, b, c, d):
    return np.einsum("...c,...c->...", np.cross(b - a, c - a), d - a)


def _brute_segments_to_triangles(p, q, corners):
    """Independent reference: exact distance of every segment pq to every triangle."""
    best = np.minimum(_brute_points_to_triangles(p, corners),
                      _brute_points_to_triangles(q, corners))
    p, q = p[:, None, :], q[:, None, :]
    a, b, c = corners[None, :, 0], corners[None, :, 1], corners[None, :, 2]
    for s0, s1 in ((a, b), (b, c), (c, a)):
        best = np.minimum(best, _clamped_segment_distance(p, q, s0, s1))
    # pierced: endpoints strictly on both sides, and the segment's line passes
    # every edge on the same side
    sides = np.sign(_orient(a, b, c, p)) * np.sign(_orient(a, b, c, q)) < 0
    turns = np.stack([np.sign(_orient(p, q, a, b)), np.sign(_orient(p, q, b, c)),
                      np.sign(_orient(p, q, c, a))])
    same = np.all(turns >= 0, axis=0) | np.all(turns <= 0, axis=0)
    return np.where(sides & same, 0.0, best)


def _mesh_edges(mesh):
    t = mesh.triangles
    e = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    return np.unique(e, axis=0)


def _exact_brute_distance(mesh_a, mesh_b):
    """Exact surface distance over all vertex/triangle and segment/triangle pairs."""
    best = np.inf
    for src, dst in ((mesh_a, mesh_b), (mesh_b, mesh_a)):
        corners = dst.corner_array()
        edges = _mesh_edges(src)
        best = min(best,
                   float(_brute_points_to_triangles(src.vertices, corners).min()),
                   float(_brute_segments_to_triangles(src.vertices[edges[:, 0]],
                                                      src.vertices[edges[:, 1]],
                                                      corners).min()))
    return best


def _dented_sphere(subdivisions, depth=0.4, width=0.3):
    # radial dent at the north pole: star-shaped, so winding stays outward
    base = icosphere(1.0, subdivisions)
    z = base.vertices[:, 2]
    radius = 1.0 - depth * np.exp(-(1.0 - z) / width)
    return TriMesh(base.vertices * radius[:, None], base.triangles)


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.9])
def test_pruned_distance_concentric_spheres(eps):
    outer = icosphere(1.0, 2)
    hole = scale_signed(icosphere(1.0, 2), eps)
    assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
        _exact_brute_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.4, -0.4, -0.85])
def test_pruned_distance_ellipsoid_pair_and_reflected_hole(eps):
    outer = ellipsoid(1.3, 1.0, 0.8, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), eps)
    assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
        _exact_brute_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.3, 0.55, -0.55])
def test_pruned_distance_dented_meshes(eps):
    dented = _dented_sphere(2)
    assert dented.signed_volume > 0
    for hole, outer in ((scale_signed(icosphere(1.0, 2), eps), dented),
                        (scale_signed(dented, eps), icosphere(1.0, 2))):
        assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
            _exact_brute_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_pruned_distance_when_nearest_centroids_miss_the_closest_triangle(eps):
    # Long flat facets: the triangles with the nearest centroids are not the
    # closest ones, so only the pruned pass finds the minimum.
    outer = ellipsoid(1.5, 1.5, 0.3, 1)
    hole = scale_signed(icosphere(1.0, 2), eps)
    assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
        _exact_brute_distance(hole, outer), rel=1e-14, abs=0)


def test_pruned_distance_is_symmetric_and_zero_on_contact():
    m = icosphere(1.0, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), 0.5)
    assert mesh_to_mesh_distance(hole, m) == mesh_to_mesh_distance(m, hole)
    assert mesh_to_mesh_distance(m, m) == 0.0


# ---------------------------------------------------------------------------
# certified admissibility: ball bound, exact fallback
# ---------------------------------------------------------------------------

def _rotated(mesh, ax, ay):
    cx, sx, cy, sy = np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    return TriMesh(mesh.vertices @ (ry @ rx).T, mesh.triangles)


def test_ball_bound_decides_small_holes_without_containment_tests(monkeypatch):
    pair = GeometryPair(icosphere(1.0, 2), icosphere(1.0, 2))
    monkeypatch.setattr(TriMesh, "contains", lambda self, p: pytest.fail("contains ran"))
    for eps in (0.05, -0.3, 0.9):
        rep = pair.admissibility(eps)
        assert rep.ok and rep.decided_by == "ball"
        assert rep.clearance == pair.ball_clearance(eps)
        assert rep.clearance <= pair.origin_distance - abs(eps) * pair.inner_radius


axes = st.floats(0.3, 2.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(semi_axes=st.tuples(axes, axes, axes), eps=st.floats(0.01, 3.0),
       negative=st.booleans(), subdivisions=st.integers(0, 2))
def test_scale_signed_round_trip(semi_axes, eps, negative, subdivisions):
    eps = -eps if negative else eps
    mesh = ellipsoid(*semi_axes, subdivisions)
    back = scale_signed(scale_signed(mesh, eps), 1.0 / eps)
    # (x * eps) * (1/eps) is x to within three roundings
    np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=4e-16, atol=0)
    assert np.array_equal(back.triangles, mesh.triangles)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(inner_axes=st.tuples(axes, axes, axes), outer_axes=st.tuples(axes, axes, axes),
       eps=st.floats(0.02, 1.5), negative=st.booleans())
def test_ball_bound_below_exact_below_sampled(inner_axes, outer_axes, eps, negative):
    eps = -eps if negative else eps
    pair = GeometryPair(ellipsoid(*inner_axes, 1), ellipsoid(*outer_axes, 1))
    hole = scale_signed(pair.inner, eps)
    exact = mesh_to_mesh_distance(hole, pair.outer)
    sampled = _brute_mesh_distance(hole, pair.outer)
    assert pair.ball_clearance(eps) <= exact <= sampled * (1 + 1e-12)
    assert exact == pytest.approx(_exact_brute_distance(hole, pair.outer), rel=1e-12, abs=1e-14)
    # never accepts what the sampled check (every vertex inside) refuses
    if pair.admissibility(eps).ok:
        assert sampled >= pair.clearance_min
        assert all(pair.outer.contains(v) for v in hole.vertices)


def test_near_wall_hole_is_decided_by_the_exact_test():
    # the elongated hole reaches past the outer's short axes, so the ball
    # bound fails; along the long axis it keeps its distance
    pair = GeometryPair(ellipsoid(1.0, 0.3, 0.3, 2), ellipsoid(2.0, 1.0, 1.0, 2),
                        clearance_min=0.05)
    assert pair.ball_clearance(1.5) < 0
    rep = pair.admissibility(1.5)
    hole = scale_signed(pair.inner, 1.5)
    assert rep.ok and rep.decided_by == "exact"
    assert rep.clearance == pytest.approx(_exact_brute_distance(hole, pair.outer),
                                          rel=1e-14, abs=0)
    near = pair.admissibility(-1.96)
    assert not near.ok and near.decided_by == "exact"
    with pytest.raises(AdmissibilityError, match="exact test"):
        pair.require_admissible(-1.96)


def test_dented_pair_sampled_clearance_overstates():
    # an edge of the coarse hole passes a ridge of the dent closer than any
    # vertex or centroid of either mesh does
    outer = _dented_sphere(2)
    inner = _rotated(icosphere(1.0, 0), np.pi / 3, np.pi / 8)
    hole = scale_signed(inner, 0.7)
    pair = GeometryPair(inner, outer, clearance_min=0.01)
    sampled = _brute_mesh_distance(hole, outer)
    exact = _exact_brute_distance(hole, outer)
    assert all(outer.contains(v) for v in hole.vertices)
    assert sampled >= pair.clearance_min > exact > 0
    rep = pair.admissibility(0.7)
    assert not rep.ok and rep.decided_by == "exact"
    assert rep.clearance == pytest.approx(exact, rel=1e-14, abs=0)


@pytest.mark.parametrize("ax, ay, sampled_min", [
    (11 * np.pi / 24, 0.0, 5e-3),
    (np.pi / 48, np.pi / 12, 3e-4),  # only the dent's edges pierce, none of the hole's
], ids=["both-meshes-edges", "outer-edges-only"])
def test_pierced_triangles_have_distance_zero(ax, ay, sampled_min):
    # every hole vertex is inside the dented sphere, but the dent pushes
    # through a hole face: edges pierce triangles, no vertex touches
    outer = _dented_sphere(2)
    inner = _rotated(icosphere(1.0, 0), ax, ay)
    hole = scale_signed(inner, 0.75)
    assert all(outer.contains(v) for v in hole.vertices)
    assert _brute_mesh_distance(hole, outer) > sampled_min
    assert _exact_brute_distance(hole, outer) == 0.0
    assert mesh_to_mesh_distance(hole, outer) == 0.0
    assert mesh_to_mesh_distance(outer, hole) == 0.0
    rep = GeometryPair(inner, outer, clearance_min=sampled_min).admissibility(0.75)
    assert not rep.ok and rep.clearance == 0.0 and rep.decided_by == "exact"


def _tetrahedron(*corners):
    pts = np.array(corners, dtype=float)
    faces = np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]])
    orient = np.dot(np.cross(pts[1] - pts[0], pts[2] - pts[0]), pts[3] - pts[0])
    return TriMesh(pts, faces if orient < 0 else faces[:, [0, 2, 1]])


def test_needle_through_a_plate_has_distance_zero():
    # no vertex of either solid is near the other: only the needle's edges,
    # which pierce the plate's base far from their endpoints, show the contact
    plate = _tetrahedron((-2, -2, 0), (2, -2, 0), (0, 2, 0), (1.0, 0.0, 0.2))
    needle = _tetrahedron((-0.05, -0.05, -3), (0.05, -0.05, -3), (0, 0.05, -3), (0, 0, 3))
    assert _brute_mesh_distance(needle, plate) > 0.25
    assert _exact_brute_distance(needle, plate) == 0.0
    assert mesh_to_mesh_distance(needle, plate) == 0.0
    assert mesh_to_mesh_distance(plate, needle) == 0.0


def test_segment_through_a_triangle():
    from holelab.mesh import _segment_triangle_distance

    a, b, c = np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
    through = _segment_triangle_distance(np.array([0.2, 0.2, -1.0]), np.array([0.3, 0.1, 2.0]),
                                         a, b, c)
    assert through == 0.0
    # above the face, beside an edge, and skew past a vertex
    p = np.array([[0.2, 0.2, 0.5], [0.5, -0.3, -1.0], [-0.5, -0.5, 0.25]])
    q = np.array([[0.3, 0.1, 2.0], [0.5, -0.3, 1.0], [-0.5, 0.5, 0.25]])
    got = _segment_triangle_distance(p, q, a, b, c)
    assert got == pytest.approx([0.5, 0.3, np.hypot(0.5, 0.25)], rel=1e-15)
