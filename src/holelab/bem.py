"""Dense collocation solver for the coupled single-layer system in R^3.

Piecewise-constant densities on triangle meshes, collocated at centroids.
The unknowns are a density on the unit-scale hole mesh and one on the outer
mesh; the system couples them through the signed rescaling of the hole.
Field evaluation uses the layer representation; ``direct_solve`` assembles
the same Dirichlet problem on the physically scaled hole mesh with no
rescaling factors, as an independent cross-check.

Both systems are solved by block elimination at the hole/outer split
(``_checked_block_solve``): the inner block is factored (V_ii once per
sweep), the hole-to-outer coupling block is compressed to low rank by a
randomized range finder, and only the half-size Schur complement is
factored per eps.  Iterative refinement against the full assembled matrix
brings the solution to the accuracy of a dense LU; the residual guard and
the 1-norm condition estimate both refer to the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import pi, sqrt

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .annulus import coupling_sign
from .mesh import (
    GeometryPair,
    TriMesh,
    pairs_within,
    point_to_triangles_distance,
    scale_signed,
)

DIM = 3  # collocation path is three-dimensional only

NEAR_FIELD_FACTOR = 3.0
SOLVE_RESIDUAL_RTOL = 1e-10
RCOND_MIN = 1e-14
# Relative accuracy of the compressed coupling block; the refinement against
# the full matrix removes its error from the solution.
COUPLING_RTOL = 1e-6
_RANGE_BLOCK = 32
_RANGE_PROBES = 10
_REFINE_STEPS = 4
EVAL_CLEARANCE_FACTOR = 2.0

_KERNEL_SCALE = -1.0 / (4.0 * pi)

# Degree-5 symmetric 7-point rule on the reference triangle (weights sum to 1).
_A_MINUS = (6.0 - sqrt(15.0)) / 21.0
_A_PLUS = (6.0 + sqrt(15.0)) / 21.0
_W_MINUS = (155.0 - sqrt(15.0)) / 1200.0
_W_PLUS = (155.0 + sqrt(15.0)) / 1200.0
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [1 - 2 * _A_MINUS, _A_MINUS, _A_MINUS],
        [_A_MINUS, 1 - 2 * _A_MINUS, _A_MINUS],
        [_A_MINUS, _A_MINUS, 1 - 2 * _A_MINUS],
        [1 - 2 * _A_PLUS, _A_PLUS, _A_PLUS],
        [_A_PLUS, 1 - 2 * _A_PLUS, _A_PLUS],
        [_A_PLUS, _A_PLUS, 1 - 2 * _A_PLUS],
    ]
)
_TRI_W = np.array([9.0 / 40.0, _W_MINUS, _W_MINUS, _W_MINUS, _W_PLUS, _W_PLUS, _W_PLUS])


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    """Singular system or residual beyond tolerance."""


class EvaluationTooCloseError(ValueError):
    """Evaluation point closer to a surface than the accuracy guard allows."""


@dataclass(frozen=True)
class CartesianDataFamily:
    """Boundary data as space polynomials with polynomial-in-eps coefficients.

    Each term is (exponents, coeffs): exponents is a 3-tuple of monomial
    powers, coeffs the ascending eps-polynomial of that monomial.  ``inner``
    is evaluated in the rescaled variable (points of the unit-scale hole
    mesh), ``outer`` at physical points of the outer surface.
    """

    inner: tuple = ()
    outer: tuple = ()

    @staticmethod
    def _eval(terms, points: np.ndarray, eps: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        for exponents, coeffs in terms:
            coeff = float(np.polynomial.polynomial.polyval(eps, np.asarray(coeffs, float)))
            mono = np.ones(len(points))
            for axis, power in enumerate(exponents):
                if power:
                    mono = mono * points[:, axis] ** power
            out += coeff * mono
        return out

    def eval_inner(self, points, eps: float) -> np.ndarray:
        return self._eval(self.inner, points, eps)

    def eval_outer(self, points, eps: float) -> np.ndarray:
        return self._eval(self.outer, points, eps)


@dataclass(frozen=True)
class DensityPair:
    mu_inner: np.ndarray
    mu_outer: np.ndarray
    cond: float = np.nan
    residual: float = np.nan


def _triangle_quad(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # corners (T,3,3) -> quadrature points (T,7,3) and weights*areas (T,7)
    # barycentric combination summed in the order einsum("qb,tbc->tqc") uses
    pts = _TRI_BARY[:, 0, None] * corners[:, None, 0]
    pts += _TRI_BARY[:, 1, None] * corners[:, None, 1]
    pts += _TRI_BARY[:, 2, None] * corners[:, None, 2]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    return pts, _TRI_W[None, :] * areas[:, None]


def _kernel_sums(targets: np.ndarray, pts: np.ndarray, wts: np.ndarray,
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


def _triangle_integrals(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Exact single-layer integral of a unit density over flat triangles.

    Entry m integrates the kernel over triangle corners[m] (M,3,3) at target
    points[m] (M,3), for a target anywhere, on the triangle included.  Each
    edge a -> b contributes, with |d| the target's height over the plane,
    t0 the signed distance from its projection to the edge line (positive
    on the triangle's side), l-/l+ the positions of a/b along the edge from
    the foot of that distance, R-/R+ the distances to a/b, R0^2 = t0^2 + d^2,
    t0 log((R+ + l+)/(R- + l-)) - |d| [atan2(t0 l+, R0^2 + |d| R+)
    - atan2(t0 l-, R0^2 + |d| R-)] (Wilton et al., IEEE TAP 32, 1984).
    """
    a_all = corners - points[:, None, :]  # corners relative to the target
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    normal /= _norm(normal)[:, None]
    height = np.abs(_dot(a_all[:, 0], normal))
    total = np.zeros(len(points))
    for i in range(3):
        a, b = a_all[:, i], a_all[:, (i + 1) % 3]
        tangent = b - a
        tangent /= _norm(tangent)[:, None]
        t0 = _dot(a, np.cross(tangent, normal))
        l_minus, l_plus = _dot(a, tangent), _dot(b, tangent)
        r_minus, r_plus = _norm(a), _norm(b)
        r0_sq = t0 * t0 + height * height
        # R + l, or R0^2 / (R - l) where l < 0 would cancel it; this is the
        # reflected form log((R- - l-)/(R+ - l+)) when l+ + l- < 0.
        s_plus = _edge_sum(r_plus, l_plus, r0_sq)
        s_minus = _edge_sum(r_minus, l_minus, r0_sq)
        # A target on the edge's line (at a vertex too) has t0 = 0 and
        # possibly s = 0; the log term's limit there is 0.
        ratio = np.divide(s_plus, s_minus, out=np.ones(len(points)),
                          where=(s_plus > 0) & (s_minus > 0))
        total += t0 * np.log(ratio)
        total -= height * (np.arctan2(t0 * l_plus, r0_sq + height * r_plus)
                           - np.arctan2(t0 * l_minus, r0_sq + height * r_minus))
    return _KERNEL_SCALE * total


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1] + x[:, 2] * y[:, 2]


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(x, x))


def _edge_sum(r: np.ndarray, l: np.ndarray, r0_sq: np.ndarray) -> np.ndarray:
    # R + l without cancellation: R^2 - l^2 = R0^2, so R + l = R0^2 / (R - l)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(l >= 0, r + l, r0_sq / (r - l))


def _near_pairs(targets: np.ndarray, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Target/triangle pairs closer than NEAR_FIELD_FACTOR triangle diameters.

    A tree search within the largest such radius proposes the pairs; each is
    then kept by the comparison |target - centroid| < factor * diameter.
    """
    limit = NEAR_FIELD_FACTOR * mesh.diameters
    p_parts, t_parts = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for p, t, _ in pairs_within(targets, mesh.centroids, float(limit.max())):
        near = np.linalg.norm(targets[p] - mesh.centroids[t], axis=1) < limit[t]
        p_parts.append(p[near])
        t_parts.append(t[near])
    return np.concatenate(p_parts), np.concatenate(t_parts)


def single_layer_matrix(targets, mesh: TriMesh, *, self_mesh: bool = False) -> np.ndarray:
    """Matrix of single-layer integrals over mesh triangles at target points.

    Entry (p, t) is the integral of the free-space kernel over triangle t
    against a unit density, evaluated at target p.  Targets within
    NEAR_FIELD_FACTOR triangle diameters get the exact flat-triangle integral
    (``_triangle_integrals``), the others the 7-point rule.  self_mesh=True
    marks an on-surface block, whose targets are the mesh's own centroids.
    It changes no entry, since the diagonal is in the near set; it labels
    self blocks apart from coupling blocks for callers that count them.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    corners = mesh.corner_array()
    pts, wts = _triangle_quad(corners)
    matrix = _kernel_sums(targets, pts, wts)
    p_idx, t_idx = _near_pairs(targets, mesh)
    matrix[p_idx, t_idx] = _triangle_integrals(targets[p_idx], corners[t_idx])
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("non-finite single-layer entries")
    return matrix


@dataclass(frozen=True)
class AssembledSystem:
    """Dense block system for the coupled densities at one eps.

    matrix = [[sign * V_ii, K_io], [eps^(n-2) * K_oi, V_oo]] where V blocks
    are the on-surface single layers, K_io samples the outer layer at the
    rescaled inner collocation points, and K_oi is the unit-scale inner layer
    seen from the outer surface.  ``blocks`` are the prebuilt self blocks it
    was assembled from, if any; ``solve`` reuses their factored V_ii.
    """

    pair: GeometryPair
    eps: float
    sign: float
    matrix: np.ndarray
    rhs: np.ndarray
    n_inner: int
    blocks: SelfBlocks | None = None

    def split(self, solution: np.ndarray) -> DensityPair:
        return DensityPair(solution[: self.n_inner], solution[self.n_inner :])

    def inner_trace(self, densities: DensityPair, sign: float | None = None) -> np.ndarray:
        """Boundary values of the layer representation at inner collocation points.

        The physical trace carries the true coupling sign regardless of the
        sign used at assembly; pass ``sign`` to inspect mismatched assemblies.
        """
        if sign is None:
            sign = coupling_sign(self.eps, DIM)
        v_ii = self.matrix[: self.n_inner, : self.n_inner] / self.sign
        k_io = self.matrix[: self.n_inner, self.n_inner :]
        return sign * (v_ii @ densities.mu_inner) + k_io @ densities.mu_outer

    def inner_residual(self, densities: DensityPair, sign: float | None = None) -> float:
        trace = self.inner_trace(densities, sign)
        return float(np.max(np.abs(trace - self.rhs[: self.n_inner])))


@dataclass(frozen=True)
class SelfBlocks:
    """On-surface single layers V_ii (unit-scale hole) and V_oo; eps-independent."""

    v_ii: np.ndarray
    v_oo: np.ndarray

    @cached_property
    def inner_lu(self) -> tuple:
        """``_factor`` of V_ii, computed at the first solve and shared by the rest."""
        return _factor(self.v_ii)


def self_blocks(pair: GeometryPair) -> SelfBlocks:
    """Build V_ii and V_oo once, for reuse by ``assemble`` across an eps sweep."""
    return SelfBlocks(
        single_layer_matrix(pair.inner.centroids, pair.inner, self_mesh=True),
        single_layer_matrix(pair.outer.centroids, pair.outer, self_mesh=True),
    )


def assemble(pair: GeometryPair, data: CartesianDataFamily, eps: float,
             sign: float | None = None, *, blocks: SelfBlocks | None = None) -> AssembledSystem:
    """Assemble the coupled collocation system at eps != 0.

    ``sign`` overrides the coupling sign in the inner self block (diagnostic
    use); the default follows the sign rule for n = 3, i.e. sgn(eps).
    ``blocks`` are prebuilt self blocks of this pair (see ``self_blocks``);
    without them both are built here and dropped once copied in.
    """
    if eps == 0:
        raise AssemblyError("eps = 0 is not a perforated geometry")
    pair.require_admissible(eps)
    sign_true = coupling_sign(eps, DIM)
    sign_asm = sign_true if sign is None else float(sign)
    inner, outer = pair.inner, pair.outer
    hole = scale_signed(inner, eps)

    n_i = inner.n_triangles
    n_o = outer.n_triangles
    matrix = np.empty((n_i + n_o, n_i + n_o))
    v_ii = (blocks.v_ii if blocks is not None
            else single_layer_matrix(inner.centroids, inner, self_mesh=True))
    np.multiply(sign_asm, v_ii, out=matrix[:n_i, :n_i])
    del v_ii
    matrix[n_i:, n_i:] = (blocks.v_oo if blocks is not None
                          else single_layer_matrix(outer.centroids, outer, self_mesh=True))
    matrix[:n_i, n_i:] = single_layer_matrix(hole.centroids, outer)
    # Integral over the unit-scale inner surface of the kernel at x - eps*y
    # equals eps^-2 times the integral over the physically scaled hole.
    k_oi = matrix[n_i:, :n_i]
    k_oi[...] = single_layer_matrix(outer.centroids, hole)
    k_oi /= eps**2
    k_oi *= eps ** (DIM - 2)
    rhs = np.concatenate(
        [data.eval_inner(inner.centroids, eps), data.eval_outer(outer.centroids, eps)]
    )
    return AssembledSystem(pair, eps, sign_asm, matrix, rhs, n_i, blocks)


def _norms(matrix: np.ndarray, rows: int = 64) -> tuple[float, float]:
    """1-norm and infinity-norm, summed in row chunks with no |matrix| copy."""
    col_sums = np.zeros(matrix.shape[1])
    row_max = 0.0
    for start in range(0, matrix.shape[0], rows):
        chunk = np.abs(matrix[start : start + rows])
        col_sums += chunk.sum(axis=0)
        row_max = max(row_max, float(chunk.sum(axis=1).max()))
    return float(col_sums.max()), row_max


def _factor(a: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """LU factors of a^T and the 1-norm reciprocal condition of ``a``.

    A C-ordered ``a`` is a^T in LAPACK's column order, so factoring a^T
    copies it without a transpose; solve with a through ``trans=1``.
    """
    lu = lu_factor(a.T)
    gecon = get_lapack_funcs(("gecon",), (lu[0],))[0]
    rcond, _ = gecon(lu[0], _norms(a)[0], norm="I")  # |(a^T)^-1|_inf = |a^-1|_1
    return lu, float(rcond)


def _range_finder(b: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Factors U, W^T with b ~ U W^T, or (b, None) meaning W^T = I.

    Adaptive randomized range finder (Halko, Martinsson & Tropp, SIAM Rev.
    53, 2011, alg. 4.2 in blocks): U is an orthonormal basis of b's sampled
    range, grown by _RANGE_BLOCK Gaussian samples at a time, and W^T = U^T b.
    It stops when _RANGE_PROBES fixed Gaussian probes b w keep less than
    rtol of their Frobenius norm outside range(U), which estimates
    |b - U W^T|_F / |b|_F.  Past min(b.shape)/4 columns a low rank saves
    nothing, and b itself is returned.
    """
    rng = np.random.default_rng(0)
    m, n = b.shape
    cap = min(m, n) // 4
    probes = b @ rng.standard_normal((n, _RANGE_PROBES))
    target = rtol * np.linalg.norm(probes)
    u = np.empty((m, 0))
    while np.linalg.norm(probes) > target:
        if u.shape[1] + _RANGE_BLOCK > cap:
            return b, None
        q = b @ rng.standard_normal((n, _RANGE_BLOCK))
        for _ in range(2):
            # projected twice: where the new samples are nearly in range(u),
            # the first QR's columns carry rounding from it back in
            q -= u @ (u.T @ q)
            q, _ = np.linalg.qr(q)
        u = np.hstack([u, q])
        probes -= q @ (q.T @ probes)
    return u, u.T @ b


def _block_inverse(matrix: np.ndarray, n_inner: int, label: str, hint: str = "",
                   inner=None, inner_scale: float = 1.0):
    """Functions applying the inverse of [[A, U W^T], [C, D]] and its transpose.

    matrix = [[A, B], [C, D]] split at n_inner.  A is factored (or ``inner``
    holds the ``_factor`` of V with A = inner_scale * V), B is compressed to
    U W^T by ``_range_finder`` and the Schur complement S = D - C A^-1 U W^T
    is factored.  Raises SolverError when A is singular to working precision.
    """
    a, b = matrix[:n_inner, :n_inner], matrix[:n_inner, n_inner:]
    c, d = matrix[n_inner:, :n_inner], matrix[n_inner:, n_inner:]
    if inner is None:
        inner, inner_scale = _factor(a), 1.0
    lu_a, rcond_a = inner
    if not rcond_a >= RCOND_MIN:
        raise SolverError(
            f"{label} inner block is singular to working precision (rcond={rcond_a:.2e}){hint}"
        )

    def solve_a(r, trans=0):  # A^-1 r, or A^-T r with trans=1
        return lu_solve(lu_a, r, trans=1 - trans, check_finite=False) / inner_scale

    u, wt = _range_finder(b, COUPLING_RTOL)
    ainv_u = solve_a(u)
    left, right = (c, ainv_u) if wt is None else (c @ ainv_u, wt)
    s = np.array(d)
    for start in range(0, len(s), 256):
        s[start : start + 256] -= left[start : start + 256] @ right
    # factored in place as S^T, as in _factor
    lu_s = lu_factor(s.T, overwrite_a=True, check_finite=False)
    del s, left, right

    def apply(r):
        y = solve_a(r[:n_inner])
        x2 = lu_solve(lu_s, r[n_inner:] - c @ y, trans=1, check_finite=False)
        return np.concatenate([y - ainv_u @ (x2 if wt is None else wt @ x2), x2])

    def apply_t(r):
        z = ainv_u.T @ r[:n_inner]
        x2 = lu_solve(lu_s, r[n_inner:] - (z if wt is None else wt.T @ z), check_finite=False)
        return np.concatenate([solve_a(r[:n_inner] - c.T @ x2, trans=1), x2])

    return apply, apply_t


def _checked_block_solve(matrix: np.ndarray, rhs: np.ndarray, n_inner: int, label: str,
                         hint: str = "", inner=None,
                         inner_scale: float = 1.0) -> tuple[np.ndarray, float, float]:
    """Solve matrix x = rhs by block elimination, refined against the full matrix.

    ``_block_inverse`` (same arguments) preconditions up to _REFINE_STEPS
    steps of iterative refinement with the full matrix.  Returns (solution,
    1-norm condition estimate, relative residual), the estimate being
    |matrix|_1 times onenormest of the factored inverse.  Raises SolverError
    when the inner block or the system is singular to working precision
    (rcond < RCOND_MIN) or the residual exceeds SOLVE_RESIDUAL_RTOL.
    """
    from scipy.sparse.linalg import LinearOperator, onenormest

    apply, apply_t = _block_inverse(matrix, n_inner, label, hint, inner, inner_scale)
    norm_1, norm_inf = _norms(matrix)
    n = len(rhs)
    with np.errstate(all="ignore"):
        inv_norm = onenormest(LinearOperator((n, n), matvec=apply, rmatvec=apply_t,
                                             dtype=float), t=1)
    rcond = 1.0 / (norm_1 * inv_norm)
    if not rcond >= RCOND_MIN:
        raise SolverError(
            f"{label} is singular to working precision (rcond={rcond:.2e}){hint}"
        )
    x = apply(rhs)
    r = rhs - matrix @ x
    res = float(np.max(np.abs(r)))
    for _ in range(_REFINE_STEPS):
        if res <= np.finfo(float).eps * norm_inf * float(np.max(np.abs(x))):
            break  # at rounding level
        x_new = x + apply(r)
        r_new = rhs - matrix @ x_new
        res_new = float(np.max(np.abs(r_new)))
        if not res_new < res:
            break  # stopped falling
        x, r, res = x_new, r_new, res_new
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    residual = res / scale
    if residual > SOLVE_RESIDUAL_RTOL:
        raise SolverError(
            f"{label} residual {residual:.2e} exceeds {SOLVE_RESIDUAL_RTOL:.0e}"
        )
    return x, 1.0 / rcond, residual


def solve(system: AssembledSystem) -> DensityPair:
    """Block-elimination solve with a 1-norm condition estimate and residual check.

    A system assembled with prebuilt ``blocks`` reuses their factored V_ii.
    """
    inner = system.blocks.inner_lu if system.blocks is not None else None
    x, cond, residual = _checked_block_solve(
        system.matrix, system.rhs, system.n_inner, "system",
        "; check admissibility and the coupling sign", inner, system.sign,
    )
    pairdens = system.split(x)
    return DensityPair(pairdens.mu_inner, pairdens.mu_outer, cond, residual)


def _clearance_guard(points: np.ndarray, meshes: tuple[TriMesh, ...],
                     clearance_factor: float) -> None:
    for p in points:
        for m in meshes:
            d = point_to_triangles_distance(p, m.corner_array())
            nearest = int(np.argmin(d))
            limit = clearance_factor * m.diameters[nearest]
            if d[nearest] <= limit:
                raise EvaluationTooCloseError(
                    f"point {p.tolist()} is {d[nearest]:.4g} from a surface; "
                    f"accuracy guard requires > {limit:.4g} "
                    f"({clearance_factor:g} local triangle diameters)"
                )


def eval_field(pair: GeometryPair, densities: DensityPair, eps: float, points,
               frame: str = "macroscopic",
               clearance_factor: float = EVAL_CLEARANCE_FACTOR) -> np.ndarray:
    """Evaluate the layer representation at interior points.

    Microscopic points q are mapped to physical points eps*q first.  Points
    must be inside the perforated domain with distance to both surfaces above
    clearance_factor local triangle diameters (set 0 to disable the guard).
    """
    if frame not in ("macroscopic", "microscopic"):
        raise ValueError(f"unknown frame {frame!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if frame == "microscopic":
        pts = eps * pts
    hole = scale_signed(pair.inner, eps)
    for p in pts:
        if not pair.outer.contains(p):
            raise ValueError(f"point {p.tolist()} is outside the outer surface")
        if hole.contains(p):
            raise ValueError(f"point {p.tolist()} is inside the hole")
    if clearance_factor > 0:
        _clearance_guard(pts, (hole, pair.outer), clearance_factor)
    inner_part = single_layer_matrix(pts, hole) @ densities.mu_inner / eps ** (4 - DIM)
    outer_part = single_layer_matrix(pts, pair.outer) @ densities.mu_outer
    values = inner_part + outer_part
    return values if np.asarray(points).ndim > 1 else float(values[0])


@dataclass(frozen=True)
class DirectSolution:
    """Plain two-surface solve on the physically scaled hole mesh.

    No rescaling factors and no coupling sign appear: the single layers live
    on the hole mesh scale_signed(inner, eps) and on the outer mesh.  Serves
    as an independent assembly of the same Dirichlet problem.
    """

    hole: TriMesh
    outer: TriMesh
    sigma_hole: np.ndarray
    sigma_outer: np.ndarray
    cond: float
    residual: float

    def eval(self, points, clearance_factor: float = EVAL_CLEARANCE_FACTOR) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if clearance_factor > 0:
            _clearance_guard(pts, (self.hole, self.outer), clearance_factor)
        values = (
            single_layer_matrix(pts, self.hole) @ self.sigma_hole
            + single_layer_matrix(pts, self.outer) @ self.sigma_outer
        )
        return values if np.asarray(points).ndim > 1 else float(values[0])


def direct_solve(pair: GeometryPair, data: CartesianDataFamily, eps: float) -> DirectSolution:
    if eps == 0:
        raise AssemblyError("eps = 0 is not a perforated geometry")
    pair.require_admissible(eps)
    hole = scale_signed(pair.inner, eps)
    outer = pair.outer
    v_hh = single_layer_matrix(hole.centroids, hole, self_mesh=True)
    v_ho = single_layer_matrix(hole.centroids, outer)
    v_oh = single_layer_matrix(outer.centroids, hole)
    v_oo = single_layer_matrix(outer.centroids, outer, self_mesh=True)
    n_h = hole.n_triangles
    matrix = np.block([[v_hh, v_ho], [v_oh, v_oo]])
    del v_hh, v_ho, v_oh, v_oo
    # The hole datum is prescribed in the rescaled variable: value at hole
    # point x is the inner datum at x/eps, which is the unit-mesh centroid.
    rhs = np.concatenate(
        [data.eval_inner(pair.inner.centroids, eps), data.eval_outer(outer.centroids, eps)]
    )
    x, cond, residual = _checked_block_solve(matrix, rhs, n_h, "direct system")
    return DirectSolution(hole, outer, x[:n_h], x[n_h:], cond, residual)
