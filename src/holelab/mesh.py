"""Triangulated closed surfaces for the n = 3 collocation solver.

Generators (icosphere, ellipsoid), a strict ASCII OFF loader/writer, signed
scaling (point reflection for negative scales), and certified admissibility
checks for a hole mesh inside an outer mesh (an enclosing-ball bound, with
an exact surface-distance fallback).  Meshes are validated on construction:
closed, consistently outward-oriented, no degenerate triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np


class MeshError(ValueError):
    pass


class MeshFormatError(MeshError):
    """Malformed OFF file."""


class NotClosedError(MeshError):
    """Surface has boundary or non-manifold edges."""


class OrientationError(MeshError):
    """Triangle winding is inconsistent or inward (signed volume <= 0)."""


class DegenerateTriangleError(MeshError):
    """A triangle has (near) zero area."""


class AdmissibilityError(MeshError):
    """Scaled hole too close to (or outside) the outer surface."""


_DEGENERATE_REL_AREA = 1e-14


class TriMesh:
    """Closed, outward-oriented triangle mesh with per-triangle geometry.

    Derived arrays (centroids, unit normals, areas, diameters) are computed
    once; all arrays are frozen read-only after construction.
    """

    def __init__(self, vertices, triangles):
        v = np.array(vertices, dtype=float)
        t = np.array(triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must be (T, 3), got {t.shape}")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise MeshError("triangle indices out of range")
        self.vertices = v
        self.triangles = t
        corners = v[t]  # (T, 3, 3)
        e1 = corners[:, 1] - corners[:, 0]
        e2 = corners[:, 2] - corners[:, 0]
        cross = np.cross(e1, e2)
        two_areas = np.linalg.norm(cross, axis=1)
        bbox = v.max(axis=0) - v.min(axis=0)
        scale = max(float(np.max(bbox)), 1e-300)
        if np.any(two_areas <= 2.0 * _DEGENERATE_REL_AREA * scale**2):
            bad = int(np.argmin(two_areas))
            raise DegenerateTriangleError(
                f"triangle {bad} has area {two_areas[bad] / 2:.3e} "
                f"(below {_DEGENERATE_REL_AREA:.0e} * bbox_scale^2)"
            )
        self.areas = two_areas / 2.0
        self.normals = cross / two_areas[:, None]
        self.centroids = corners.mean(axis=1)
        edges = corners - np.roll(corners, -1, axis=1)
        self.diameters = np.linalg.norm(edges, axis=2).max(axis=1)
        self._check_closed()
        self.signed_volume = float(
            np.einsum("ij,ij->", corners[:, 0], cross) / 6.0
        )
        if self.signed_volume <= 0:
            raise OrientationError(
                f"signed volume {self.signed_volume:.3e} <= 0: winding is inward"
            )
        for arr in (self.vertices, self.triangles, self.areas, self.normals,
                    self.centroids, self.diameters):
            arr.setflags(write=False)

    def _check_closed(self):
        t = self.triangles
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        keys = directed[:, 0].astype(np.int64) * len(self.vertices) + directed[:, 1]
        uniq, counts = np.unique(keys, return_counts=True)
        if np.any(counts > 1):
            raise OrientationError(
                "a directed edge appears twice: adjacent triangles wound inconsistently"
            )
        rev = directed[:, 1].astype(np.int64) * len(self.vertices) + directed[:, 0]
        if not np.array_equal(np.sort(keys), np.sort(rev)):
            raise NotClosedError("surface is not closed (unmatched edges found)")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @property
    def mean_edge_length(self) -> float:
        corners = self.vertices[self.triangles]
        edges = corners - np.roll(corners, -1, axis=1)
        return float(np.linalg.norm(edges, axis=2).mean())

    def corner_array(self) -> np.ndarray:
        """Triangle corner coordinates, shape (T, 3, 3)."""
        return self.vertices[self.triangles]

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.vertices, axis=1).max())

    def contains(self, point) -> bool:
        """Point-in-volume test by summed solid angle (~4*pi inside)."""
        return abs(solid_angle_sum(self, point)) > 2.0 * np.pi

    def stats(self) -> dict:
        return {
            "vertices": int(len(self.vertices)),
            "triangles": int(self.n_triangles),
            "area": self.total_area,
            "signed_volume": self.signed_volume,
            "mean_edge_length": self.mean_edge_length,
            "max_diameter": float(self.diameters.max()),
        }


def solid_angle_sum(mesh: TriMesh, point) -> float:
    """Total signed solid angle of the surface seen from a point.

    Returns ~4*pi for interior points and ~0 for exterior points (outward
    orientation), by the van Oosterom-Strackee triangle formula.
    """
    p = np.asarray(point, dtype=float)
    a, b, c = (mesh.corner_array()[:, i] - p for i in range(3))
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = (
        la * lb * lc
        + np.einsum("ij,ij->i", a, b) * lc
        + np.einsum("ij,ij->i", b, c) * la
        + np.einsum("ij,ij->i", c, a) * lb
    )
    return float(np.sum(2.0 * np.arctan2(det, denom)))


# Icosahedron with unit circumradius after normalization.
_PHI = (1.0 + sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=int,
)

MAX_SUBDIVISIONS = 6


def check_subdivisions(subdivisions: int) -> None:
    """Raise MeshError unless 0 <= subdivisions <= MAX_SUBDIVISIONS."""
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise MeshError(f"subdivisions must be in [0, {MAX_SUBDIVISIONS}], got {subdivisions}")


def icosphere(radius: float = 1.0, subdivisions: int = 0) -> TriMesh:
    """Subdivided icosahedron projected to the radius-r sphere (20*4^s triangles)."""
    if radius <= 0:
        raise MeshError(f"radius must be positive, got {radius}")
    check_subdivisions(subdivisions)
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = _ICO_FACES.tolist()
    for _ in range(subdivisions):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            idx = midpoint_cache.get(key)
            if idx is None:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                idx = len(verts) - 1
                midpoint_cache[key] = idx
            return idx

        new_faces = []
        for i, j, k in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [[i, a, c], [a, j, b], [c, b, k], [a, b, c]]
        faces = new_faces
    return TriMesh(np.array(verts) * radius, np.array(faces))


def ellipsoid(a: float, b: float, c: float, subdivisions: int = 0) -> TriMesh:
    """Icosphere mapped by diag(a, b, c); normals recomputed from the geometry."""
    if min(a, b, c) <= 0:
        raise MeshError(f"semi-axes must be positive, got ({a}, {b}, {c})")
    base = icosphere(1.0, subdivisions)
    return TriMesh(base.vertices * np.array([a, b, c]), base.triangles)


def scale_signed(mesh: TriMesh, eps: float) -> TriMesh:
    """Map vertices by x -> eps*x; flip winding when eps < 0 to keep normals outward."""
    if eps == 0:
        raise MeshError("eps = 0 collapses the mesh")
    triangles = mesh.triangles if eps > 0 else mesh.triangles[:, [0, 2, 1]]
    return TriMesh(mesh.vertices * eps, triangles)


def save_off(mesh: TriMesh, path) -> None:
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            f.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            f.write(f"3 {int(t[0])} {int(t[1])} {int(t[2])}\n")


def load_off(path) -> TriMesh:
    """Strict ASCII OFF reader: header, counts, vertices, triangular faces."""
    with open(path) as f:
        tokens = f.read().split()
    pos = 0

    def take(count: int) -> list[str]:
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError("unexpected end of OFF file")
        out = tokens[pos : pos + count]
        pos += count
        return out

    if take(1)[0] != "OFF":
        raise MeshFormatError("missing OFF header")
    try:
        n_v, n_f, _ = (int(x) for x in take(3))
        verts = np.array([[float(x) for x in take(3)] for _ in range(n_v)])
        faces = []
        for _ in range(n_f):
            arity = int(take(1)[0])
            if arity != 3:
                raise MeshFormatError(f"only triangular faces supported, got arity {arity}")
            faces.append([int(x) for x in take(3)])
    except ValueError as exc:
        raise MeshFormatError(f"bad token in OFF file: {exc}") from None
    if pos != len(tokens):
        raise MeshFormatError("trailing tokens after face list")
    return TriMesh(verts, np.array(faces, dtype=int))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...c,...c->...", x, y)


def _triangle_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """Exact distances from points p to triangles (a, b, c), broadcast over leading axes.

    Projects onto each triangle plane; where the projection's barycentric
    coordinates leave the triangle, the nearest edge segment wins.
    """
    ab = b - a
    ac = c - a
    d00 = _dot(ab, ab)
    d01 = _dot(ab, ac)
    d11 = _dot(ac, ac)
    denom = d00 * d11 - d01 * d01
    ap = p - a
    d20 = _dot(ap, ab)
    d21 = _dot(ap, ac)
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    inside = (v >= 0) & (w >= 0) & (v + w <= 1)
    proj = a + v[..., None] * ab + w[..., None] * ac
    best = np.where(inside, np.linalg.norm(p - proj, axis=-1), np.inf)
    for s0, d_edge in ((a, ab), (b, c - b), (c, a - c)):
        t = _dot(p - s0, d_edge) / np.maximum(_dot(d_edge, d_edge), 1e-300)
        t = np.clip(t, 0.0, 1.0)
        closest = s0 + t[..., None] * d_edge
        best = np.minimum(best, np.linalg.norm(p - closest, axis=-1))
    return best


def points_to_triangles_distance(points, corners: np.ndarray,
                                 chunk: int = 256) -> np.ndarray:
    """Exact distances from points (P, 3) to triangles (T, 3, 3), shape (P, T)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    out = np.empty((len(points), len(corners)))
    for start in range(0, len(points), chunk):
        p = points[start : start + chunk, None, :]
        out[start : start + chunk] = _triangle_distance(p, a, b, c)
    return out


def point_to_triangles_distance(point, corners: np.ndarray) -> np.ndarray:
    """Exact distances from one point to each triangle, shape (T,)."""
    return points_to_triangles_distance(np.asarray(point, dtype=float)[None, :], corners)[0]


def point_to_mesh_distance(point, mesh: TriMesh) -> float:
    return float(point_to_triangles_distance(point, mesh.corner_array()).min())


_PAIR_BLOCK = 1 << 20  # point-center pairs a chunk may hold at most


def pairs_within(points: np.ndarray, centers: np.ndarray, radius: float):
    """Yield (i, j, dist) arrays of all pairs with dist = |points[i] - centers[j]| <= radius.

    Chunked over the points so that no chunk holds more than about
    ``_PAIR_BLOCK`` pairs, whatever the radius.  The search radius carries a
    relative slack of 1e-9 and dist is the tree's own rounding, so callers
    that need an exact comparison recompute it on the pairs.
    """
    from scipy.spatial import cKDTree

    centers_tree = cKDTree(centers)
    reach = radius * (1.0 + 1e-9)
    rows = max(1, _PAIR_BLOCK // max(len(centers), 1))
    for start in range(0, len(points), rows):
        found = cKDTree(points[start : start + rows]).sparse_distance_matrix(
            centers_tree, reach, output_type="ndarray"
        )
        yield found["i"].astype(np.intp) + start, found["j"].astype(np.intp), found["v"]


_UPPER_BOUND_NEIGHBOURS = 4
_ROUNDING_SLACK = 1e-9  # relative; keeps rounding from deciding a bound


def _point_segment_distance(x: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Exact distances from points x to segments s0s1, broadcast over leading axes."""
    d = s1 - s0
    t = np.clip(_dot(x - s0, d) / _dot(d, d), 0.0, 1.0)
    return np.linalg.norm(x - (s0 + t[..., None] * d), axis=-1)


def _segment_segment_distance(p1: np.ndarray, q1: np.ndarray, p2: np.ndarray,
                              q2: np.ndarray) -> np.ndarray:
    """Exact distances between segments p1q1 and p2q2, broadcast over leading axes.

    The squared distance is a convex quadratic in the two segment parameters:
    its minimum over the unit square is the interior stationary point, when
    the segments are not parallel and it lies inside, or else an endpoint of
    one segment against the other segment.
    """
    best = np.minimum(
        np.minimum(_point_segment_distance(p1, p2, q2), _point_segment_distance(q1, p2, q2)),
        np.minimum(_point_segment_distance(p2, p1, q1), _point_segment_distance(q2, p1, q1)),
    )
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a, b, e = _dot(d1, d1), _dot(d1, d2), _dot(d2, d2)
    c, f = _dot(d1, r), _dot(d2, r)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (b * f - c * e) / denom
        t = (a * f - b * c) / denom
    interior = (denom > 0) & (s > 0) & (s < 1) & (t > 0) & (t < 1)
    s, t = np.where(interior, s, 0.0), np.where(interior, t, 0.0)
    gap = np.linalg.norm(r + s[..., None] * d1 - t[..., None] * d2, axis=-1)
    return np.where(interior, np.minimum(best, gap), best)


def _segment_triangle_distance(p: np.ndarray, q: np.ndarray, a: np.ndarray,
                               b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact distances from segments pq to triangles (a, b, c), broadcast.

    0 where the segment pierces the triangle.  Otherwise the distance along
    the segment is convex and, off the triangle's face, attained at an
    endpoint or against one of the triangle's edges.
    """
    best = np.minimum(_triangle_distance(p, a, b, c), _triangle_distance(q, a, b, c))
    for s0, s1 in ((a, b), (b, c), (c, a)):
        best = np.minimum(best, _segment_segment_distance(p, q, s0, s1))
    ab = b - a
    ac = c - a
    normal = np.cross(ab, ac)
    hp = _dot(p - a, normal)
    hq = _dot(q - a, normal)
    crosses = hp * hq < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = p + np.where(crosses, hp / (hp - hq), 0.0)[..., None] * (q - p)
    # barycentric coordinates of the plane crossing, as in _triangle_distance
    d00, d01, d11 = _dot(ab, ab), _dot(ab, ac), _dot(ac, ac)
    denom = d00 * d11 - d01 * d01
    ax = x - a
    d20, d21 = _dot(ax, ab), _dot(ax, ac)
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    pierced = crosses & (v >= 0) & (w >= 0) & (v + w <= 1)
    return np.where(pierced, 0.0, best)


def _bound_slack(*arrays) -> float:
    """Rounding slack on the pruning bounds, so the minimising pair is never dropped."""
    return _ROUNDING_SLACK * max(float(np.abs(x).max()) for x in arrays)


def _triangle_reach(mesh: TriMesh) -> np.ndarray:
    """Largest centroid-to-corner distance per triangle."""
    return np.linalg.norm(mesh.corner_array() - mesh.centroids[:, None, :], axis=2).max(axis=1)


def _vertex_distance(src: TriMesh, dst: TriMesh) -> float:
    """Min exact distance from src's vertices to dst's triangles.

    Equal to the brute-force minimum over all vertex/triangle pairs: the exact
    distances to each vertex's nearest centroids give an upper bound U, and
    a pair can only go below U if both lower bounds |p - c_t| - R_t (R_t the
    triangle's centroid radius) and |n_t . (p - c_t)| (distance to its plane)
    do.  Only those pairs are evaluated exactly.
    """
    from scipy.spatial import cKDTree

    points = src.vertices
    corners = dst.corner_array()
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    cent = dst.centroids
    reach = _triangle_reach(dst)
    slack = _bound_slack(points, corners)

    k = min(_UPPER_BOUND_NEIGHBOURS, len(cent))
    _, nearest = cKDTree(cent).query(points, k=k)
    p_idx = np.repeat(np.arange(len(points)), k)
    t_idx = np.reshape(nearest, -1)
    best = float(_triangle_distance(points[p_idx], a[t_idx], b[t_idx], c[t_idx]).min())

    for p_idx, t_idx, dist in pairs_within(points, cent, best + float(reach.max()) + slack):
        keep = dist - reach[t_idx] <= best + slack
        p_idx, t_idx = p_idx[keep], t_idx[keep]
        plane = np.abs(_dot(points[p_idx] - cent[t_idx], dst.normals[t_idx]))
        keep = plane <= best + slack
        if np.any(keep):
            p_idx, t_idx = p_idx[keep], t_idx[keep]
            d = _triangle_distance(points[p_idx], a[t_idx], b[t_idx], c[t_idx])
            best = min(best, float(d.min()))
    return best


def _edge_distance(src: TriMesh, dst: TriMesh, best: float) -> float:
    """min(best, exact distance from src's edges to dst's triangles).

    Pruned like ``_vertex_distance`` against the given upper bound ``best``:
    an edge with midpoint m and half length h can only come within ``best``
    of a triangle if |m - c_t| - h - R_t does, if its endpoints are not both
    farther than ``best`` on one side of the triangle's plane, and if both
    the distance from m to the triangle less h, and the distance from c_t to
    the edge less R_t, do.
    """
    if best == 0.0:
        return best
    t = src.triangles
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    # a closed, consistently wound mesh has each edge once in each direction
    edges = directed[directed[:, 0] < directed[:, 1]]
    p, q = src.vertices[edges[:, 0]], src.vertices[edges[:, 1]]
    mid = 0.5 * (p + q)
    half = 0.5 * np.linalg.norm(q - p, axis=1)
    corners = dst.corner_array()
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    cent = dst.centroids
    reach = _triangle_reach(dst)
    slack = _bound_slack(src.vertices, corners)

    radius = best + float(half.max()) + float(reach.max()) + slack
    for e_idx, t_idx, dist in pairs_within(mid, cent, radius):
        keep = dist - half[e_idx] - reach[t_idx] <= best + slack
        e_idx, t_idx = e_idx[keep], t_idx[keep]
        hp = _dot(p[e_idx] - cent[t_idx], dst.normals[t_idx])
        hq = _dot(q[e_idx] - cent[t_idx], dst.normals[t_idx])
        plane = np.where(hp * hq <= 0, 0.0, np.minimum(np.abs(hp), np.abs(hq)))
        keep = plane <= best + slack
        e_idx, t_idx = e_idx[keep], t_idx[keep]
        mid_gap = _triangle_distance(mid[e_idx], a[t_idx], b[t_idx], c[t_idx]) - half[e_idx]
        cent_gap = _point_segment_distance(cent[t_idx], p[e_idx], q[e_idx]) - reach[t_idx]
        keep = np.maximum(mid_gap, cent_gap) <= best + slack
        if np.any(keep):
            e_idx, t_idx = e_idx[keep], t_idx[keep]
            d = _segment_triangle_distance(p[e_idx], q[e_idx], a[t_idx], b[t_idx], c[t_idx])
            best = min(best, float(d.min()))
    return best


def mesh_to_mesh_distance(mesh_a: TriMesh, mesh_b: TriMesh) -> float:
    """Exact minimum distance between two triangulated surfaces.

    Two triangles that do not meet are closest at a vertex of one, or on an
    edge of each; triangles that meet have an edge of one piercing the other.
    The minimum of the vertex-to-triangle and the edge-to-triangle distances,
    both ways round, is therefore the surface distance, and 0 on contact.
    """
    best = min(_vertex_distance(mesh_a, mesh_b), _vertex_distance(mesh_b, mesh_a))
    best = _edge_distance(mesh_a, mesh_b, best)
    return _edge_distance(mesh_b, mesh_a, best)


DEFAULT_CLEARANCE_FRACTION = 0.02


@dataclass(frozen=True)
class ClearanceReport:
    """Clearance of the hole at eps, and the test that decided it.

    ``decided_by`` is ``"ball"`` when the enclosing-ball bound certified the
    hole (``clearance`` is then that lower bound) and ``"exact"`` when the
    exact test ran (``clearance`` is the surface distance, -inf when a hole
    vertex lies outside the outer surface).
    """

    eps: float
    clearance: float
    clearance_min: float
    decided_by: str

    @property
    def ok(self) -> bool:
        return self.clearance >= self.clearance_min


class GeometryPair:
    """Unit-scale hole mesh and outer mesh, both containing the origin.

    ``clearance_min`` defaults to 2% of the outer bounding radius; nearly
    touching surfaces make the coupling blocks ill-conditioned, so they are
    refused rather than degraded.

    Admissibility first tries the enclosing-ball bound: the hole eps*inner
    lies in the ball of radius |eps|*R_i (R_i the inner bounding radius), and
    the ball of radius d0 (the origin's distance to the outer surface) lies
    inside the outer surface, so the clearance is at least d0 - |eps|*R_i.
    Only when that bound falls short does the exact test run: every hole
    vertex inside the outer surface, and the exact surface distance.
    """

    def __init__(self, inner: TriMesh, outer: TriMesh, clearance_min: float | None = None):
        if not inner.contains((0.0, 0.0, 0.0)):
            raise MeshError("origin is not inside the inner mesh")
        if not outer.contains((0.0, 0.0, 0.0)):
            raise MeshError("origin is not inside the outer mesh")
        self.inner = inner
        self.outer = outer
        self.clearance_min = (
            DEFAULT_CLEARANCE_FRACTION * outer.bounding_radius()
            if clearance_min is None
            else float(clearance_min)
        )
        self.inner_radius = inner.bounding_radius()
        self.origin_distance = point_to_mesh_distance((0.0, 0.0, 0.0), outer)

    def ball_clearance(self, eps: float) -> float:
        """Certified lower bound d0 - |eps|*R_i on the clearance, less rounding slack."""
        reach = abs(eps) * self.inner_radius
        return self.origin_distance - reach - _ROUNDING_SLACK * (self.origin_distance + reach)

    def admissibility(self, eps: float) -> ClearanceReport:
        if eps == 0:
            raise MeshError("eps = 0 has no hole; nothing to check")
        bound = self.ball_clearance(eps)
        if bound >= self.clearance_min:
            return ClearanceReport(eps, bound, self.clearance_min, "ball")
        hole = scale_signed(self.inner, eps)
        if not all(self.outer.contains(v) for v in hole.vertices):
            return ClearanceReport(eps, -np.inf, self.clearance_min, "exact")
        return ClearanceReport(eps, mesh_to_mesh_distance(hole, self.outer),
                               self.clearance_min, "exact")

    @property
    def eps_max(self) -> float:
        """Largest |eps| that the ball bound certifies.

        A certified lower bound on sup{|eps| : clearance(eps) >= clearance_min}:
        the closed form (d0 - clearance_min) / R_i, shrunk by the bound's
        rounding slack.
        """
        d0, r_i, s = self.origin_distance, self.inner_radius, _ROUNDING_SLACK
        return max(0.0, (d0 * (1.0 - s) - self.clearance_min) / (r_i * (1.0 + s)))

    def require_admissible(self, eps: float) -> None:
        report = self.admissibility(eps)
        if not report.ok:
            raise AdmissibilityError(
                f"clearance {report.clearance:.4g} at eps={eps:g} is below "
                f"clearance_min={self.clearance_min:.4g} ({report.decided_by} test)"
            )
