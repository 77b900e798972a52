import numpy as np
import pytest
from math import pi

from holelab.mesh import (
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
# pruned sampled distance against brute force
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
    return min(
        float(_brute_points_to_triangles(np.vstack([src.vertices, src.centroids]),
                                         dst.corner_array()).min())
        for src, dst in ((mesh_a, mesh_b), (mesh_b, mesh_a))
    )


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
        _brute_mesh_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.4, -0.4, -0.85])
def test_pruned_distance_ellipsoid_pair_and_reflected_hole(eps):
    outer = ellipsoid(1.3, 1.0, 0.8, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), eps)
    assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
        _brute_mesh_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.3, 0.55, -0.55])
def test_pruned_distance_dented_meshes(eps):
    dented = _dented_sphere(2)
    assert dented.signed_volume > 0
    for hole, outer in ((scale_signed(icosphere(1.0, 2), eps), dented),
                        (scale_signed(dented, eps), icosphere(1.0, 2))):
        assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
            _brute_mesh_distance(hole, outer), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_pruned_distance_when_nearest_centroids_miss_the_closest_triangle(eps):
    # Long flat facets: the triangles with the nearest centroids are not the
    # closest ones, so only the pruned pass finds the minimum.
    outer = ellipsoid(1.5, 1.5, 0.3, 1)
    hole = scale_signed(icosphere(1.0, 2), eps)
    assert mesh_to_mesh_distance(hole, outer) == pytest.approx(
        _brute_mesh_distance(hole, outer), rel=1e-14, abs=0)


def test_pruned_distance_is_symmetric_and_zero_on_contact():
    m = icosphere(1.0, 2)
    hole = scale_signed(ellipsoid(1.0, 0.6, 0.4, 2), 0.5)
    assert mesh_to_mesh_distance(hole, m) == mesh_to_mesh_distance(m, hole)
    assert mesh_to_mesh_distance(m, m) == 0.0
