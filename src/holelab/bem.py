"""Dense collocation solver for the coupled single-layer system in R^3.

Piecewise-constant densities on triangle meshes, collocated at centroids.
The unknowns are a density on the unit-scale hole mesh and one on the outer
mesh; the system couples them through the signed rescaling of the hole.
Field evaluation uses the layer representation; ``direct_solve`` assembles
the same Dirichlet problem on the physically scaled hole mesh with no
rescaling factors, as an independent cross-check.

Every grid of eps, one point or many, goes through ``solve_grid``.  It
builds and factors the self blocks V_ii and V_oo once; when the hole and
outer meshes are the same mesh they are one block with one factor.  Only
the two coupling blocks depend on eps, and both are power series in it:
``CouplingExpansion`` writes them as A^T diag(eps^k) B in real
solid-harmonic bases built once per geometry, and at every eps where
``expansion_degree`` certifies the truncation the solve is a Woodbury solve
around the factors with one small capacitance LU.  No N x N matrix is
formed there; its residual guard adds the certified truncation bound to the
residual of the expanded system.  The certified eps of a grid are solved in
lockstep: every self-block solve and basis product serves all of them in
one multi-column call, and only the capacitance solves go per eps.

Any other eps is assembled and solved as a single system with one dense LU
of the whole matrix (``_dense_solve``), as is ``direct_solve``.  Both solves
go through ``_checked_solve``, the dense one as a batch of one, so both
report the same 1-norm condition estimate, |M|_1 times the Higham-Tisseur
estimate of |M^-1|_1 from an exact inverse (``_onenormest``, the iteration
of scipy's onenormest with t = 1, run for all columns of a batch at once),
under the same rcond and residual guards, checked per eps.  Every dense
product goes through ``_mm`` on scipy's BLAS, the OpenBLAS those factors
and solves run on, so the solve path wakes one BLAS thread pool, not two.

Field evaluation goes through ``GridField`` for a whole grid at once, a
single ``eval_field`` as a grid of one.  Every target is checked at every
eps first; the outer mesh's matrix is built once on the distinct physical
points, and the hole's on the points x/eps against the unit-scale inner mesh,
by S(x, eps G) = |eps| S(x/eps, G), so no hole mesh is built per eps and each
eps costs two products.

Block assembly shares chunks of its target rows (far field) and near pairs
out to one thread per CPU in the process's affinity set; each entry is
computed by the same floating-point operations whatever the split, so blocks
are identical for any CPU count.  An assembled system copies its self
blocks from a ``SelfBlocks`` and has its coupling blocks written in place.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from math import pi, sqrt

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve
from scipy.linalg.blas import dgemm, dgemv

from .annulus import MACROSCOPIC, MICROSCOPIC, DomainError, coupling_sign, eps_polynomial, eps_polyval
from .mesh import (
    GeometryPair,
    MeshError,
    TriMesh,
    pairs_within,
    points_to_triangles_distance,
    scale_signed,
)

DIM = 3  # collocation path is three-dimensional only

NEAR_FIELD_FACTOR = 3.0
SOLVE_RESIDUAL_RTOL = 1e-10
RCOND_MIN = 1e-14
# Certified relative error of every expanded coupling kernel value.
EXPANSION_RTOL = 1e-14
# Iterations of the 1-norm estimator, scipy.sparse.linalg.onenormest's default.
_ONENORMEST_ITMAX = 5
# The expansion serves an eps while its (p+1)^2 basis columns stay below
# this fraction of the smaller mesh's triangles; nearer square, the bases
# cost as much as the blocks they replace.
_EXPANSION_RANK_FRACTION = 2.0 / 3.0
# Bytes of one chunk of quadrature-node harmonics while moments are summed.
_HARMONIC_CHUNK_BYTES = 1 << 22
# Rows per chunk of an absolute column sum.
_ABS_SUM_ROWS = 64
EVAL_CLEARANCE_FACTOR = 2.0

_KERNEL_SCALE = -1.0 / (4.0 * pi)
# Bytes of each of a worker's two (rows, 7, T) far-field scratch arrays.
_KERNEL_CHUNK_BYTES = 1 << 20
# Near-field pairs per _triangle_integrals call.  Memory freed in a worker
# thread stays with its allocator arena, so the temporaries are kept small.
_NEAR_CHUNK = 1 << 13

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


class EvaluationTooCloseError(DomainError):
    """Evaluation point closer to a surface than the accuracy guard allows."""


@dataclass(frozen=True)
class CartesianDataFamily:
    """Boundary data as space polynomials with polynomial-in-eps coefficients.

    Each term is (exponents, coeffs): exponents is a 3-tuple of monomial
    powers, integers >= 0, coeffs the ascending eps-polynomial of that
    monomial, converted once to an ``eps_polynomial``.  ``inner`` is
    evaluated in the rescaled variable (points of the unit-scale hole mesh),
    ``outer`` at physical points of the outer surface.
    """

    inner: tuple = ()
    outer: tuple = ()

    def __post_init__(self):
        for name in ("inner", "outer"):
            terms = tuple((tuple(exponents), eps_polynomial(coeffs))
                          for exponents, coeffs in getattr(self, name))
            for exponents, _ in terms:
                if len(exponents) != 3 or not all(isinstance(p, (int, np.integer)) and p >= 0
                                                  for p in exponents):
                    raise ValueError(f"exponents must be three integers >= 0, got {exponents}")
            object.__setattr__(self, name, terms)

    @staticmethod
    def _eval(terms, points: np.ndarray, eps: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        for exponents, coeffs in terms:
            coeff = eps_polyval(coeffs, eps)
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

    def rhs(self, pair: GeometryPair, eps: float) -> np.ndarray:
        """Data at the inner then the outer centroids: a system's right-hand side."""
        return np.concatenate([self.eval_inner(pair.inner.centroids, eps),
                               self.eval_outer(pair.outer.centroids, eps)])


@dataclass(frozen=True)
class DensityPair:
    mu_inner: np.ndarray
    mu_outer: np.ndarray
    cond: float
    residual: float


def _triangle_quad(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    # quadrature points (T,7,3) and weights*areas (T,7) of the mesh's triangles;
    # barycentric combination summed in the order einsum("qb,tbc->tqc") uses
    corners = mesh.corner_array()
    pts = _TRI_BARY[:, 0, None] * corners[:, None, 0]
    pts += _TRI_BARY[:, 1, None] * corners[:, None, 1]
    pts += _TRI_BARY[:, 2, None] * corners[:, None, 2]
    return pts, _TRI_W[None, :] * mesh.areas[:, None]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(n: int, chunk: int, work) -> None:
    """Call work(pieces) once per worker; together the pieces cover range(n).

    ``pieces`` yields (start, stop) ranges of up to ``chunk`` items, taken in
    order from one queue that all workers share, so a worker slowed by
    other load on its CPU simply takes fewer.  One worker per usable CPU,
    in threads, since numpy releases the GIL inside its ufunc loops; with
    one CPU, or a single chunk of work, the call runs serially.
    """
    workers = min(_usable_cpus(), -(-n // chunk))
    starts = iter(range(0, n, chunk))
    if workers <= 1:
        work((start, min(start + chunk, n)) for start in starts)
        return
    import threading
    from concurrent.futures import ThreadPoolExecutor

    lock = threading.Lock()

    def pieces():
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            yield start, min(start + chunk, n)

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, pieces()) for _ in range(workers - 1)]
        work(pieces())
        for future in futures:
            future.result()


def _kernel_sums(targets: np.ndarray, pts: np.ndarray, wts: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    # sum_q wts[t,q] * S3(|x_p - pts[t,q]|) for all (p, t), written to out;
    # row chunks keep their (rows, Q, T) scratch in cache, and are shared
    # out to the usable CPUs
    n_t, n_q = wts.shape
    if out is None:
        out = np.empty((len(targets), n_t))
    rows = max(1, _KERNEL_CHUNK_BYTES // max(n_q * n_t * 8, 1))
    # quadrature-major (Q, T) slabs: slab q holds node q of every triangle
    px, py, pz = (np.ascontiguousarray(pts[:, :, c].T) for c in range(3))
    w = np.ascontiguousarray(wts.T)

    def work(pieces) -> None:
        r = np.empty((min(rows, len(targets)), n_q, n_t))
        d = np.empty_like(r)
        # Targets may coincide with quadrature nodes (own-triangle
        # centroids); those entries come out infinite here and are replaced
        # by the closed form in single_layer_matrix.  Error states are per
        # thread, so each worker sets its own.
        with np.errstate(divide="ignore"):
            for start, stop in pieces:
                rr, dd = r[: stop - start], d[: stop - start]
                block = targets[start:stop, :, None, None]
                # (x^2 + z^2) + y^2: the order of einsum("ptc,ptc->pt") on
                # numpy 2, so the entries match a plain einsum bit for bit
                np.subtract(block[:, 0], px, out=dd)
                np.multiply(dd, dd, out=rr)
                for c, p in ((2, pz), (1, py)):
                    np.subtract(block[:, c], p, out=dd)
                    np.multiply(dd, dd, out=dd)
                    rr += dd
                np.sqrt(rr, out=rr)
                np.divide(w, rr, out=rr)
                # nodes summed left to right, the order of numpy's
                # length-Q sum over a (rows, T, Q) array
                acc = out[start:stop]
                np.add(rr[:, 0], rr[:, 1], out=acc)
                for q in range(2, n_q):
                    acc += rr[:, q]
                acc *= _KERNEL_SCALE

    _run_chunks(len(targets), rows, work)
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


def single_layer_matrix(targets, mesh: TriMesh, *, self_mesh: bool = False,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of single-layer integrals over mesh triangles at target points.

    Entry (p, t) is the integral of the free-space kernel over triangle t
    against a unit density, evaluated at target p.  Targets within
    NEAR_FIELD_FACTOR triangle diameters get the exact flat-triangle integral
    (``_triangle_integrals``), the others the 7-point rule.  self_mesh=True
    marks an on-surface block, whose targets are the mesh's own centroids.
    It changes no entry, since the diagonal is in the near set; it labels
    self blocks apart from coupling blocks for callers that count them.
    ``out``, a (targets, triangles) array or view, receives the entries and
    is returned.  Both passes split their work over the usable CPUs.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    matrix = _kernel_sums(targets, *_triangle_quad(mesh), out)
    corners = mesh.corner_array()
    p_idx, t_idx = _near_pairs(targets, mesh)

    def near(pieces) -> None:
        for start, stop in pieces:
            p, t = p_idx[start:stop], t_idx[start:stop]
            matrix[p, t] = _triangle_integrals(targets[p], corners[t])

    _run_chunks(len(p_idx), _NEAR_CHUNK, near)
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("non-finite single-layer entries")
    return matrix


@dataclass(frozen=True)
class AssembledSystem:
    """Dense block system for the coupled densities at one eps.

    matrix = [[sign * V_ii, K_io], [eps^(n-2) * K_oi, V_oo]] where V blocks
    are the on-surface single layers, K_io samples the outer layer at the
    rescaled inner collocation points, and K_oi is the unit-scale inner layer
    seen from the outer surface.
    """

    eps: float
    sign: float
    matrix: np.ndarray
    rhs: np.ndarray
    n_inner: int

    def inner_trace(self, densities: DensityPair) -> np.ndarray:
        """Boundary values of the layer representation at inner collocation points.

        The physical trace carries the true coupling sign regardless of the
        sign used at assembly, so a mismatched assembly shows in it.
        """
        # the inner rows are [sign_asm * V_ii, K_io]: one product over them
        scaled = densities.mu_inner * (coupling_sign(self.eps, DIM) / self.sign)
        return _mm(self.matrix[: self.n_inner], np.concatenate([scaled, densities.mu_outer]))

    def inner_residual(self, densities: DensityPair) -> float:
        trace = self.inner_trace(densities)
        return float(np.max(np.abs(trace - self.rhs[: self.n_inner])))


@dataclass(frozen=True)
class SelfBlocks:
    """On-surface single layers V_ii (unit-scale hole) and V_oo; eps-independent.

    ``v_oo is v_ii`` when the hole and outer meshes are the same mesh: one
    block, one factor and one rcond check then serve both sides.
    """

    v_ii: np.ndarray
    v_oo: np.ndarray

    @cached_property
    def col_sums(self) -> tuple:
        """Column sums of |V_ii| and of |V_oo|, one pass over each block."""
        inner = _abs_col_sums(self.v_ii)
        return inner, inner if self.v_oo is self.v_ii else _abs_col_sums(self.v_oo)

    @cached_property
    def inner_lu(self) -> tuple:
        """``_factor`` of V_ii, computed at the first solve and shared by the rest."""
        return _factor(self.v_ii, float(self.col_sums[0].max()))

    @cached_property
    def outer_lu(self) -> tuple:
        """``_factor`` of V_oo, computed once; ``inner_lu`` for a shared block."""
        if self.v_oo is self.v_ii:
            return self.inner_lu
        return _factor(self.v_oo, float(self.col_sums[1].max()))


def self_blocks(pair: GeometryPair) -> SelfBlocks:
    """Build V_ii and V_oo once, for reuse across an eps grid; one block if the meshes agree."""
    inner, outer = pair.inner, pair.outer
    v_ii = single_layer_matrix(inner.centroids, inner, self_mesh=True)
    if (np.array_equal(inner.vertices, outer.vertices)
            and np.array_equal(inner.triangles, outer.triangles)):
        return SelfBlocks(v_ii, v_ii)
    return SelfBlocks(v_ii, single_layer_matrix(outer.centroids, outer, self_mesh=True))


def assemble(pair: GeometryPair, data: CartesianDataFamily, eps: float,
             sign: float | None = None, *, blocks: SelfBlocks | None = None) -> AssembledSystem:
    """Assemble the coupled collocation system at eps != 0.

    ``sign`` overrides the coupling sign in the inner self block (diagnostic
    use); the default follows the sign rule for n = 3, i.e. sgn(eps).
    ``blocks`` are prebuilt self blocks of this pair (see ``self_blocks``);
    without them they are built here and freed on return.  The self blocks
    are copied into the system matrix, the coupling blocks written in place
    into their views of it.
    """
    pair.require_admissible(eps)
    sign_asm = coupling_sign(eps, DIM) if sign is None else float(sign)
    if blocks is None:
        blocks = self_blocks(pair)
    inner, outer = pair.inner, pair.outer
    hole = scale_signed(inner, eps)

    n_i = inner.n_triangles
    n_o = outer.n_triangles
    matrix = np.empty((n_i + n_o, n_i + n_o))
    np.multiply(sign_asm, blocks.v_ii, out=matrix[:n_i, :n_i])
    matrix[n_i:, n_i:] = blocks.v_oo
    single_layer_matrix(hole.centroids, outer, out=matrix[:n_i, n_i:])
    # Integral over the unit-scale inner surface of the kernel at x - eps*y
    # equals eps^-2 times the integral over the physically scaled hole.
    k_oi = single_layer_matrix(outer.centroids, hole, out=matrix[n_i:, :n_i])
    k_oi /= eps**2
    k_oi *= eps ** (DIM - 2)
    return AssembledSystem(eps, sign_asm, matrix, data.rhs(pair, eps), n_i)


def _abs_col_sums(matrix: np.ndarray) -> np.ndarray:
    """Column sums of |matrix|, in row chunks with no |matrix| copy."""
    col_sums = np.zeros(matrix.shape[1])
    for start in range(0, matrix.shape[0], _ABS_SUM_ROWS):
        col_sums += np.abs(matrix[start : start + _ABS_SUM_ROWS]).sum(axis=0)
    return col_sums


def _lu_factor(a: np.ndarray, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    # scipy warns of an exactly zero pivot; the RCOND_MIN guards raise instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(a, **kwargs)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a`` on scipy's BLAS, which its LU factors and solves use.

    numpy bundles a second OpenBLAS with its own thread pool; keeping every
    product of the solve path on scipy's leaves one pool to wake.  A 1-D
    ``b`` keeps a level-2 call (dgemv) and a 1-D result.  A 2-D product is
    formed as (b^T a^T)^T in column order, as numpy forms a C-ordered one,
    so the result is C-ordered.  C- and F-contiguous operands, ``.T`` views
    included, reach BLAS uncopied; any other is copied once along its rows.
    """
    if b.ndim == 1:
        if _f_only(a):
            return dgemv(1.0, a, b)
        return dgemv(1.0, a.T, b, trans=1)
    x, trans_x = (b, 1) if _f_only(b) else (b.T, 0)
    y, trans_y = (a, 1) if _f_only(a) else (a.T, 0)
    return dgemm(1.0, x, y, trans_a=trans_x, trans_b=trans_y).T


def _f_only(a: np.ndarray) -> bool:
    # an operand contiguous both ways (one row or one column) is taken as
    # C-ordered, as numpy takes it, so that BLAS is called as numpy calls it
    return a.flags.f_contiguous and not a.flags.c_contiguous


def _factor(a: np.ndarray, norm_1: float) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """LU factors of a^T and the 1-norm reciprocal condition of ``a``.

    ``norm_1`` is |a|_1.  A C-ordered ``a`` is a^T in LAPACK's column order,
    so factoring a^T copies it without a transpose; solve with a through
    ``trans=1``.
    """
    lu = _lu_factor(a.T)
    gecon = get_lapack_funcs(("gecon",), (lu[0],))[0]
    rcond, _ = gecon(lu[0], norm_1, norm="I")  # |(a^T)^-1|_inf = |a^-1|_1
    return lu, float(rcond)


def _columns(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns ``cols`` of ``a`` along its last axis, 1-D for one column.

    A batch of one system keeps level-2 BLAS calls: a threaded call on two
    or more columns pays the thread wake-up, which a single vector does not.
    """
    return a[..., cols[0]] if len(cols) == 1 else a[..., cols]


def _onenormest(matmat, rmatmat, n: int, count: int) -> np.ndarray:
    """Lower bounds on |A_j|_1 for ``count`` n x n operators, estimated in lockstep.

    Column j runs the t = 1 iteration of Higham and Tisseur's block 1-norm
    estimator (SIAM J. Matrix Anal. Appl. 21, 2000, Algorithm 2.4) step for
    step as ``scipy.sparse.linalg.onenormest(A_j, t=1)`` does, and leaves
    the batch when its own iteration stops.  ``matmat(x, cols)`` and
    ``rmatmat(x, cols)`` apply A_j and A_j^T to column k of x for
    j = cols[k], so each step is one call of each for all live columns.
    """
    est = np.zeros(count)
    x = np.full((n, count), 1.0 / n)
    signs = np.zeros((n, count))
    best = np.zeros(count, dtype=np.intp)
    cols = np.arange(count)
    with np.errstate(all="ignore"):
        for k in range(1, _ONENORMEST_ITMAX + 2):
            y = matmat(_columns(x, cols), cols).reshape(n, -1)
            # each column summed contiguously, as onenormest sums its one
            mags = np.abs(np.ascontiguousarray(y.T)).sum(axis=1)
            # a step that does not raise the estimate ends the column
            keep = ~(mags <= est[cols]) if k > 1 else np.ones(len(cols), bool)
            cols, y = cols[keep], y[:, keep]
            est[cols] = mags[keep]
            if k > _ONENORMEST_ITMAX or not len(cols):
                break
            s = y.copy()
            s[s == 0] = 1.0
            s /= np.abs(s)
            # so does a sign vector repeated from the step before
            keep = np.einsum("ij,ij->j", s, signs[:, cols]) != n
            cols = cols[keep]
            if not len(cols):
                break
            signs[:, cols] = s[:, keep]
            z = np.abs(rmatmat(_columns(signs, cols), cols)).reshape(n, -1)
            if k > 1:  # or a best unit vector that is the one just used
                keep = z.max(axis=0) != z[best[cols], np.arange(len(cols))]
                cols, z = cols[keep], z[:, keep]
                if not len(cols):
                    break
            best[cols] = np.argsort(z, axis=0)[-1]
            x[:, cols] = 0.0
            x[best[cols], cols] = 1.0
    return est


def _checked_solve(matvec, apply, apply_t, norm_1: np.ndarray, rhs: np.ndarray,
                   label: str, hint: str, truncation=None):
    """Solve a batch of systems through exact inverse applies, each with both guards.

    Column j of ``rhs`` (N, B) is the right-hand side of system j.
    ``matvec``, ``apply`` and ``apply_t`` take (x, cols) and apply system
    cols[k]'s matrix, its factored inverse and that inverse's transpose to
    column k of x (1-D for one column, see ``_columns``); ``norm_1`` holds
    the matrices' 1-norms.  ``truncation(x, cols)``, if given, bounds per
    column the residual that ``matvec`` leaves out; it is added to it.
    Yields (solution, 1-norm condition estimate, relative residual) per
    system in column order, the estimate being |matrix|_1 times
    ``_onenormest`` of the inverse.  Raises SolverError at the first system
    that is singular to working precision (rcond < RCOND_MIN) or whose
    residual exceeds SOLVE_RESIDUAL_RTOL, once the systems before it are
    yielded.
    """
    n, count = rhs.shape
    cols = np.arange(count)
    inv_norm = _onenormest(apply, apply_t, n, count)
    with np.errstate(all="ignore"):
        rcond = 1.0 / (norm_1 * inv_norm)
        x = apply(_columns(rhs, cols), cols).reshape(n, count)
        res = np.abs(rhs - matvec(_columns(x, cols), cols).reshape(n, count)).max(axis=0)
    if truncation is not None:
        res += truncation(x, cols)
    residual = res / np.maximum(np.abs(rhs).max(axis=0), 1e-300)
    for j in range(count):
        if not rcond[j] >= RCOND_MIN:
            raise SolverError(
                f"{label} is singular to working precision (rcond={rcond[j]:.2e}){hint}"
            )
        if residual[j] > SOLVE_RESIDUAL_RTOL:
            raise SolverError(
                f"{label} residual {residual[j]:.2e} exceeds {SOLVE_RESIDUAL_RTOL:.0e}"
            )
        yield x[:, j].copy(), float(1.0 / rcond[j]), float(residual[j])


def _dense_solve(matrix: np.ndarray, rhs: np.ndarray, label: str,
                 hint: str = "") -> tuple[np.ndarray, float, float]:
    """``_checked_solve`` of one dense system, a batch of one, through one LU of it."""
    # factored as matrix^T, as in _factor: solve with matrix through trans=1
    lu = _lu_factor(matrix.T, check_finite=False)
    return next(_checked_solve(
        lambda x, cols: _mm(matrix, x),
        lambda r, cols: lu_solve(lu, r, trans=1, check_finite=False),
        lambda r, cols: lu_solve(lu, r, check_finite=False),
        np.array([_abs_col_sums(matrix).max()]), rhs[:, None], label, hint,
    ))


def solve(system: AssembledSystem) -> DensityPair:
    """Dense LU solve with a 1-norm condition estimate and residual check."""
    x, cond, residual = _dense_solve(system.matrix, system.rhs, "system",
                                     "; check admissibility and the coupling sign")
    n_i = system.n_inner
    return DensityPair(x[:n_i], x[n_i:], cond, residual)


def _solid_harmonics(points: np.ndarray, degree: int) -> np.ndarray:
    """Real regular solid harmonics of degree <= ``degree`` at points (P, 3).

    Returns ((degree+1)^2, P) in degree order: row k^2 holds order 0 of
    degree k, rows k^2 + 2m - 1 and k^2 + 2m the cosine and sine parts of
    order m.  They are r^k S_k^m(cos theta) (cos m phi, sin m phi) with S_k^m
    the Schmidt semi-normalised Legendre functions, so that by the addition
    theorem the rows of degree k give
    sum R(x) R(y) = |x|^k |y|^k P_k(cos angle(x, y)).
    Computed in Cartesian coordinates, one degree at a time: orders below
    k - 1 by the three-term Legendre recurrence in z and r^2, order k - 1
    from order k - 1 of degree k - 1, and order k by a step in (x + iy).
    """
    x, y, z = (np.ascontiguousarray(points[:, c]) for c in range(3))
    r2 = x * x + y * y + z * z
    out = np.empty(((degree + 1) ** 2, len(points)))
    out[0] = 1.0
    for k in range(1, degree + 1):
        row = k * k  # first row of degree k
        prev, prev2 = (k - 1) ** 2, (k - 2) ** 2
        if k >= 2:
            # orders m <= k - 2 fill rows row .. row + 2k - 4, as in degree k - 1
            # and degree k - 2, each row scaled by its order's coefficients
            m = (np.arange(2 * k - 3) + 1) // 2
            a = (2 * k - 1) / np.sqrt(k * k - m * m)
            b = np.sqrt(((k - 1) ** 2 - m * m) / (k * k - m * m))
            block = out[row : row + 2 * k - 3]
            np.multiply(out[prev : prev + 2 * k - 3], z, out=block)
            block *= a[:, None]
            below = out[prev2:prev] * r2
            below *= b[:, None]
            block -= below
        # order k - 1: R_k^(k-1) = sqrt(2k - 1) z R_(k-1)^(k-1)
        lo = max(2 * k - 3, 0)
        out[row + lo : row + 2 * k - 1] = sqrt(2 * k - 1) * z * out[prev + lo : row]
        # order k: (x + iy) times order k - 1 of degree k - 1, scaled
        f = sqrt((2 * k - 1) / (2 * k)) if k > 1 else 1.0
        c_prev = out[row - 2] if k > 1 else out[0]
        s_prev = out[row - 1] if k > 1 else 0.0
        out[row + 2 * k - 1] = f * (x * c_prev - y * s_prev)
        out[row + 2 * k] = f * (x * s_prev + y * c_prev)
    return out


def _truncation_bound(rho: float, degree: int) -> float:
    """Relative error bound of the kernel expansion cut after ``degree``.

    With |x| <= rho |y|, the tail of 1/|y - x| = sum_k |x|^k / |y|^(k+1)
    P_k(cos angle) is at most rho^(p+1) / ((1 - rho) |y|), since |P_k| <= 1,
    and 1/|y - x| >= 1 / ((1 + rho) |y|).
    """
    return (1.0 + rho) * rho ** (degree + 1) / (1.0 - rho)


def expansion_degree(pair: GeometryPair, eps: float) -> int | None:
    """Degree p at which ``CouplingExpansion`` is certified at eps, or None.

    p is the least degree with ``_truncation_bound`` at rho = |eps| R_i / d0
    within EXPANSION_RTOL.  None when eps = 0, when a coupling pair may be in
    the near field (the ball clearance d0 - |eps| R_i is below
    NEAR_FIELD_FACTOR outer triangle diameters, or scaled inner ones: there
    ``single_layer_matrix`` integrates exactly rather than by the rule the
    expansion reproduces), or when (p+1)^2 exceeds
    _EXPANSION_RANK_FRACTION of the smaller mesh's triangles.
    """
    if eps == 0:
        return None
    diameter = max(float(pair.outer.diameters.max()),
                   abs(eps) * float(pair.inner.diameters.max()))
    # with a relative slack, so that rounding of the centroids cannot decide
    if not pair.ball_clearance(eps) >= NEAR_FIELD_FACTOR * diameter * (1.0 + 1e-9):
        return None
    rho = abs(eps) * pair.inner.bounding_radius / pair.origin_distance
    cap = _EXPANSION_RANK_FRACTION * min(pair.inner.n_triangles, pair.outer.n_triangles)
    degree = 0
    while (degree + 1) ** 2 <= cap:
        if _truncation_bound(rho, degree) <= EXPANSION_RTOL:
            return degree
        degree += 1
    return None


def _moments(mesh: TriMesh, harmonics, size: int) -> np.ndarray:
    """(size, T) 7-point-rule integrals of ``harmonics(points)`` over each triangle.

    Summed in triangle chunks, so no (size, 7T) array is ever held.
    """
    pts, wts = _triangle_quad(mesh)
    n_t, n_q = wts.shape
    out = np.empty((size, n_t))
    chunk = max(1, _HARMONIC_CHUNK_BYTES // (8 * size * n_q))
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        h = harmonics(pts[start:stop].reshape(-1, 3)).reshape(size, stop - start, n_q)
        np.einsum("rtq,tq->rt", h, wts[start:stop], out=out[:, start:stop])
    return out


class CouplingExpansion:
    """The two coupling blocks of a mesh pair as power series in eps.

    Where |eps x| < |y|, 1/|y - eps x| = sum_k eps^k sum_m R_k^m(x) I_k^m(y)
    (Greengard & Rokhlin, J. Comput. Phys. 73, 1987), with R the real
    regular solid harmonics of ``_solid_harmonics`` and I(y) = R(y/|y|^2)/|y|
    the irregular ones.  Scaled as R(x/R_i) and d0^(k+1) I(y), with R_i the
    inner bounding radius and d0 the origin's distance to the outer mesh,
    term k is O(rho^k), rho = |eps| R_i / d0.  Truncated at degree p, in the
    first r = (p+1)^2 rows of the bases (degree order):

        K_io(eps)       = A_i^T D B_o     hole centroids, outer triangles
        eps K_oi(eps)   = eps A_o^T D B_i  outer centroids, hole triangles
        D = diag(-1/(4 pi d0) (eps R_i/d0)^k)

    A_i are the regular harmonics at the inner centroids, A_o the irregular
    ones at the outer centroids, and B_o and B_i the 7-point-rule moments of
    the outer and inner triangles, so the blocks reproduce the far-field
    entries of ``single_layer_matrix`` (the eps^2 of the hole's areas and
    the 1/eps of the rescaling leave one eps on K_oi).  Built once per
    geometry up to ``degree``, with the factored self blocks and the r x r
    products G_o = B_o V_oo^-1 A_o^T and G_i = B_i V_ii^-1 A_i^T.
    """

    def __init__(self, pair: GeometryPair, blocks: SelfBlocks, degree: int):
        self.pair, self.blocks, self.degree = pair, blocks, degree
        size = (degree + 1) ** 2
        self.radius, self.distance = pair.inner.bounding_radius, pair.origin_distance
        # degree k of each row
        self.row_degrees = np.repeat(np.arange(degree + 1), 2 * np.arange(degree + 1) + 1)
        for name, (_, rcond) in (("inner", blocks.inner_lu), ("outer", blocks.outer_lu)):
            if not rcond >= RCOND_MIN:
                raise SolverError(
                    f"system {name} block is singular to working precision (rcond={rcond:.2e})"
                )
        inner, outer = pair.inner, pair.outer
        self.a_i = _solid_harmonics(inner.centroids / self.radius, degree)
        self.b_i = _moments(inner, lambda x: _solid_harmonics(x / self.radius, degree), size)
        self.a_o = self._irregular(outer.centroids)
        self.b_o = _moments(outer, self._irregular, size)
        self.g_i = _mm(self.b_i, lu_solve(blocks.inner_lu[0], self.a_i.T, trans=1,
                                          check_finite=False))
        self.g_o = _mm(self.b_o, lu_solve(blocks.outer_lu[0], self.a_o.T, trans=1,
                                          check_finite=False))
        # every single-layer entry is negative, so the row and column sums
        # of |K| are those of -K, taken through the bases
        self.basis_sums = tuple(m.sum(axis=1) for m in (self.a_i, self.b_i, self.a_o, self.b_o))

    def _irregular(self, points: np.ndarray) -> np.ndarray:
        d0 = self.distance
        r2 = np.einsum("pc,pc->p", points, points)
        h = _solid_harmonics(points * (d0 / r2)[:, None], self.degree)
        h *= d0 / np.sqrt(r2)
        return h

    def scales(self, eps: float, degree: int) -> np.ndarray:
        """The diagonal of D(eps) up to ``degree``."""
        k = self.row_degrees[: (degree + 1) ** 2]
        return _KERNEL_SCALE / self.distance * (eps * self.radius / self.distance) ** k

    def operators(self, eps_list, degrees):
        """Functions of the expanded systems at a set of eps, solved in lockstep.

        System j is the expanded system at eps_list[j], cut after
        degrees[j].  Returns (matvec, apply, apply_t, norm_1, truncation) as
        ``_checked_solve`` takes them: the expanded matrices, their inverses
        by the Woodbury identity (Hager, SIAM Rev. 31, 1989) and those
        inverses' transposes, their 1-norms, and the certified bounds on the
        residuals that the truncation leaves out.  Each self-block solve and
        each basis product is one call for all the columns passed; only the
        r_j x r_j capacitance solves go per eps.
        """
        eps = np.array(eps_list, dtype=float)
        sizes = [(p + 1) ** 2 for p in degrees]
        r = max(sizes)
        n_i = self.pair.inner.n_triangles
        s = np.array([coupling_sign(e, DIM) for e in eps])
        c = eps / s
        # D(eps) of each system in its column, zero past its own degree: the
        # bases are in degree order, so the system then sees only its rows
        d = np.zeros((r, len(eps)))
        for j, (e, p) in enumerate(zip(eps, degrees)):
            d[: sizes[j], j] = self.scales(e, p)
        a_i, b_i, a_o, b_o = (m[:r] for m in (self.a_i, self.b_i, self.a_o, self.b_o))
        g_i, g_o = self.g_i[:r, :r], self.g_o[:r, :r]
        v_ii, v_oo = self.blocks.v_ii, self.blocks.v_oo
        lu_i, lu_o = self.blocks.inner_lu[0], self.blocks.outer_lu[0]

        def solve_v(v_i, v_o, trans=0):
            # (V_ii^-1 v_i, V_oo^-1 v_o), or with trans=1 V^-T on each side
            return (lu_solve(lu_i, v_i, trans=1 - trans, check_finite=False),
                    lu_solve(lu_o, v_o, trans=1 - trans, check_finite=False))

        # With alpha = D B_i mu_i and beta = D B_o mu_o the system reads
        # mu_i = V_ii^-1 (f_i - A_i^T beta) / s and
        # mu_o = V_oo^-1 (f_o - eps A_o^T alpha); eliminating alpha leaves
        # the capacitance system T beta = D (h_o - c G_o D h_i), with
        # h = B V^-1 f on each side, T = I - c D G_o D G_i and c = eps / s.
        lu_t = []
        for j, size in enumerate(sizes):
            d_j = d[:size, j]
            t = g_o[:size, :size] * d_j
            t *= d_j[:, None]
            t = _mm(t, g_i[:size, :size])
            t *= -c[j]
            t.flat[:: size + 1] += 1.0
            # factored in place as T^T, as in _factor: solve T through trans=1
            lu_t.append(_lu_factor(t.T, overwrite_a=True, check_finite=False))
            del t

        def solve_t(v, cols, trans):
            # T_j^-1 (trans=1) or T_j^-T (trans=0) on the leading r_j rows of
            # column k, j = cols[k]; the rows past r_j stay zero
            v = v.reshape(r, -1)
            out = np.zeros_like(v)
            for k, j in enumerate(cols):
                out[: sizes[j], k] = lu_solve(lu_t[j], v[: sizes[j], k], trans=trans,
                                              check_finite=False)
            return out.reshape(-1) if len(cols) == 1 else out

        def apply(f, cols):
            dc, cc, sc, ec = (_columns(v, cols) for v in (d, c, s, eps))
            f_i, f_o = f[:n_i], f[n_i:]
            u_i, u_o = solve_v(f_i, f_o)
            h_i, h_o = _mm(b_i, u_i), _mm(b_o, u_o)
            beta = solve_t(dc * (h_o - cc * _mm(g_o, dc * h_i)), cols, 1)
            alpha = dc * (h_i - _mm(g_i, beta)) / sc
            x_i, x_o = solve_v(f_i - _mm(a_i.T, beta), f_o - ec * _mm(a_o.T, alpha))
            return np.concatenate([x_i / sc, x_o])

        def apply_t(y, cols):
            # the transpose, with a = D A_i x_i = D a' and b = D A_o x_o:
            # T^T a' = k_i / s - c G_i^T D k_o, with k = A V^-T y on each side
            dc, cc, sc, ec = (_columns(v, cols) for v in (d, c, s, eps))
            y_i, y_o = y[:n_i], y[n_i:]
            w_i, w_o = solve_v(y_i, y_o, 1)
            k_i, k_o = _mm(a_i, w_i), _mm(a_o, w_o)
            a = dc * solve_t(k_i / sc - cc * _mm(g_i.T, dc * k_o), cols, 0)
            b = dc * (k_o - _mm(g_o.T, a))
            z_i, z_o = solve_v(y_i - ec * _mm(b_i.T, b), y_o - _mm(b_o.T, a), 1)
            return np.concatenate([z_i / sc, z_o])

        def matvec(x, cols):
            dc, sc, ec = (_columns(v, cols) for v in (d, s, eps))
            x_i, x_o = x[:n_i], x[n_i:]
            return np.concatenate([sc * _mm(v_ii, x_i) + _mm(a_i.T, dc * _mm(b_o, x_o)),
                                   ec * _mm(a_o.T, dc * _mm(b_i, x_i)) + _mm(v_oo, x_o)])

        sum_a_i, sum_b_i, sum_a_o, sum_b_o = (v[:r, None] for v in self.basis_sums)
        col_ii, col_oo = (v[:, None] for v in self.blocks.col_sums)
        k_io_norm = np.max(-_mm(a_i.T, d * sum_b_o), axis=0)
        k_oi_norm = np.max(-np.abs(eps) * _mm(a_o.T, d * sum_b_i), axis=0)
        norm_1 = np.maximum(np.max(col_ii - np.abs(eps) * _mm(b_i.T, d * sum_a_o), axis=0),
                            np.max(col_oo - _mm(b_o.T, d * sum_a_i), axis=0))
        tau = np.array([_truncation_bound(abs(e) * self.radius / self.distance, p)
                        for e, p in zip(eps, degrees)])

        def truncation(x, cols):  # x is (N, len(cols))
            return tau[cols] * (k_io_norm[cols] * np.max(np.abs(x[n_i:]), axis=0)
                                + k_oi_norm[cols] * np.max(np.abs(x[:n_i]), axis=0))

        return matvec, apply, apply_t, norm_1, truncation

    def solve(self, data: CartesianDataFamily, eps_list, degrees):
        """Densities at each eps through the expansion cut after its degree.

        The eps are solved in lockstep (see ``operators``), in groups taken
        in order: a group starts at the next eps and takes the eps after it
        while its capacitance factors stay within twice the bytes of G_i and
        G_o, and one group's factors are held at a time.  Yields one
        DensityPair per eps in order, and raises SolverError at the first eps
        whose system fails a guard, once the ones before it are yielded.
        """
        budget = 2 * (self.g_i.nbytes + self.g_o.nbytes)
        t_bytes = [self.g_i.itemsize * (p + 1) ** 4 for p in degrees]
        n_i = self.pair.inner.n_triangles
        start = 0
        while start < len(eps_list):
            stop = start + 1
            while stop < len(eps_list) and sum(t_bytes[start : stop + 1]) <= budget:
                stop += 1
            group = eps_list[start:stop]
            rhs = np.stack([data.rhs(self.pair, eps) for eps in group], axis=1)
            matvec, apply, apply_t, norm_1, truncation = self.operators(group, degrees[start:stop])
            for x, cond, residual in _checked_solve(
                    matvec, apply, apply_t, norm_1, rhs, "system",
                    "; check admissibility and the coupling sign", truncation):
                yield DensityPair(x[:n_i], x[n_i:], cond, residual)
            # released before the next group's operators are built
            del rhs, matvec, apply, apply_t, truncation
            start = stop


def solve_grid(pair: GeometryPair, data: CartesianDataFamily, grid):
    """Densities at each eps of a grid, yielded in grid order.

    Every eps is checked for admissibility before any block is built.
    Every eps that ``expansion_degree`` certifies, a grid's only point
    included, is solved through one ``CouplingExpansion``, built to the
    largest such degree around V_ii and V_oo, each built and factored once.
    The certified eps are solved in lockstep, in groups taken in grid order
    (``CouplingExpansion.solve``): each step of their condition estimates,
    and their solve, is one multi-column call per self-block solve and
    basis product, and only the capacitance solves go per eps.  Each eps keeps its
    own guards: the first eps in grid order that fails raises, and no later
    point is yielded.
    Any other eps is assembled and solved by ``solve``, one dense LU of the
    whole system, its self blocks copied from the shared ones; a grid's
    only point shares none, so ``assemble`` frees its own before the LU.  A
    grid with no certified eps factors no self block.
    """
    grid = [float(eps) for eps in grid]
    for eps in grid:
        pair.require_admissible(eps)
    degrees = [expansion_degree(pair, eps) for eps in grid]
    certified = [(eps, p) for eps, p in zip(grid, degrees) if p is not None]
    blocks = self_blocks(pair) if certified or len(grid) > 1 else None
    if certified:
        expansion = CouplingExpansion(pair, blocks, max(p for _, p in certified))
        lockstep = expansion.solve(data, *zip(*certified))
    for eps, degree in zip(grid, degrees):
        # an assembled system is freed once solved, before the next assembly
        yield solve(assemble(pair, data, eps, blocks=blocks)) if degree is None else next(lockstep)


def _nearest(points: np.ndarray, mesh: TriMesh, factor: float) -> tuple:
    """Each point's distance to the mesh, and ``factor`` times its nearest triangle's diameter."""
    d = points_to_triangles_distance(points, mesh.corner_array())
    return d.min(axis=1), factor * mesh.diameters[d.argmin(axis=1)]


def _refuse_too_close(points: np.ndarray, found, factor: float) -> None:
    # found holds (distance, limit) per mesh for each point; the first point
    # too near, in point order and then mesh order, is refused
    for i, p in enumerate(points):
        for dist, limit in found:
            if dist[i] <= limit[i]:
                raise EvaluationTooCloseError(
                    f"point {p.tolist()} is {dist[i]:.4g} from a surface; "
                    f"accuracy guard requires > {limit[i]:.4g} "
                    f"({factor:g} local triangle diameters)"
                )


def _check_clearance_factor(clearance_factor: float) -> None:
    # 0 switches the guard off; a negative or NaN factor is refused
    if not clearance_factor >= 0:
        raise ValueError(f"clearance factor must be >= 0, got {clearance_factor}")


def _clearance_guard(points: np.ndarray, meshes: tuple[TriMesh, ...],
                     clearance_factor: float) -> None:
    _refuse_too_close(points, [_nearest(points, m, clearance_factor) for m in meshes],
                      clearance_factor)


def _refuse_outside(points: np.ndarray, outside: np.ndarray, inside: np.ndarray) -> None:
    # the first point outside the outer surface or inside the hole, in point order
    for x, out, hole in zip(points, outside, inside):
        if out:
            raise DomainError(f"point {x.tolist()} is outside the outer surface")
        if hole:
            raise DomainError(f"point {x.tolist()} is inside the hole")


class GridField:
    """The layer representation at fixed targets over a grid of eps.

    Every target is checked at every eps when the object is made, so that a
    grid is refused before its solve starts.  The outer mesh sees the
    distinct physical points: the targets themselves in the macroscopic
    frame, eps*q at each eps in the microscopic one.  The hole eps*inner is
    never built: its layer is S(x, eps G) = |eps| S(x/eps, G), the unit-scale
    inner mesh seen from the rescaled points x/eps, so its containment test,
    its distances and its matrix are taken there, for all eps at once, and
    the distances are scaled back by |eps|.  A refusal names the first
    target refused in grid order, then point order: outside the outer
    surface or inside the hole first, then the clearance guard, the hole
    before the outer mesh.  A clearance factor below 0 is refused; 0
    switches the guard off.  One single-layer matrix per mesh serves the
    whole grid, built once the targets pass; each eps then costs two
    products.
    """

    def __init__(self, pair: GeometryPair, grid, points, frame: str, clearance_factor: float):
        if frame not in (MACROSCOPIC, MICROSCOPIC):
            raise ValueError(f"unknown frame {frame!r}")
        _check_clearance_factor(clearance_factor)
        self.grid = np.array(grid, dtype=float).reshape(-1)
        if np.any(self.grid == 0):
            raise MeshError("eps = 0 has no hole to evaluate")
        targets = np.atleast_2d(np.asarray(points, dtype=float))
        eps = self.grid[:, None, None]
        # physical points (G, P, 3), and their images x/eps near the unit hole,
        # formed alike in both frames
        if frame == MICROSCOPIC:
            physical = eps * targets
            outer_points = physical.reshape(-1, 3)
        else:
            physical = np.broadcast_to(targets, (len(self.grid),) + targets.shape)
            outer_points = targets
        rescaled = (physical / eps).reshape(-1, 3)
        self._n_points = len(targets)
        self._outer_stride = len(targets) if frame == MICROSCOPIC else 0
        self._check(pair, physical, rescaled, outer_points, clearance_factor)
        self._inner = single_layer_matrix(rescaled, pair.inner)
        self._outer = single_layer_matrix(outer_points, pair.outer)

    def _rows(self, index: int) -> tuple[slice, slice]:
        # rows of grid[index]'s targets in the inner and the outer matrix
        n, start = self._n_points, index * self._outer_stride
        return slice(index * n, (index + 1) * n), slice(start, start + n)

    def _check(self, pair, physical, rescaled, outer_points, factor) -> None:
        n_eps, n = physical.shape[:2]
        outside = ~pair.outer.contains_points(outer_points)
        inside = pair.inner.contains_points(rescaled)
        if factor > 0:
            scale = np.repeat(np.abs(self.grid), n)
            hole_dist, hole_limit = (scale * v for v in _nearest(rescaled, pair.inner, factor))
            outer_dist, outer_limit = _nearest(outer_points, pair.outer, factor)
        for j in range(n_eps):
            rows_i, rows_o = self._rows(j)
            _refuse_outside(physical[j], outside[rows_o], inside[rows_i])
            if factor > 0:
                _refuse_too_close(physical[j], ((hole_dist[rows_i], hole_limit[rows_i]),
                                                (outer_dist[rows_o], outer_limit[rows_o])),
                                  factor)

    def values(self, index: int, densities: DensityPair) -> np.ndarray:
        """The field at the targets at eps = grid[index], from that eps's densities."""
        eps = self.grid[index]
        rows_i, rows_o = self._rows(index)
        # |eps| from the hole's rescaling over the eps^(4-n) of mu_i: sgn(eps)
        return (abs(eps) / eps ** (4 - DIM) * _mm(self._inner[rows_i], densities.mu_inner)
                + _mm(self._outer[rows_o], densities.mu_outer))


def eval_field(pair: GeometryPair, densities: DensityPair, eps: float, points,
               frame: str = MACROSCOPIC,
               clearance_factor: float = EVAL_CLEARANCE_FACTOR) -> np.ndarray:
    """Evaluate the layer representation at interior points: a ``GridField`` of one eps.

    Microscopic points q are mapped to physical points eps*q first.  Points
    must be inside the perforated domain with distance to both surfaces above
    clearance_factor local triangle diameters (set 0 to disable the guard).
    The hole's part is the unit-scale inner layer at the rescaled points, so
    no hole mesh is built.  A 1-D point gives a float.
    """
    values = GridField(pair, [eps], points, frame, clearance_factor).values(0, densities)
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
        """The field at physical points, refused as ``GridField`` refuses them."""
        _check_clearance_factor(clearance_factor)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _refuse_outside(pts, ~self.outer.contains_points(pts), self.hole.contains_points(pts))
        if clearance_factor > 0:
            _clearance_guard(pts, (self.hole, self.outer), clearance_factor)
        values = (
            _mm(single_layer_matrix(pts, self.hole), self.sigma_hole)
            + _mm(single_layer_matrix(pts, self.outer), self.sigma_outer)
        )
        return values if np.asarray(points).ndim > 1 else float(values[0])


def direct_solve(pair: GeometryPair, data: CartesianDataFamily, eps: float) -> DirectSolution:
    pair.require_admissible(eps)
    hole = scale_signed(pair.inner, eps)
    outer = pair.outer
    n_h = hole.n_triangles
    n = n_h + outer.n_triangles
    matrix = np.empty((n, n))
    single_layer_matrix(hole.centroids, hole, self_mesh=True, out=matrix[:n_h, :n_h])
    single_layer_matrix(hole.centroids, outer, out=matrix[:n_h, n_h:])
    single_layer_matrix(outer.centroids, hole, out=matrix[n_h:, :n_h])
    single_layer_matrix(outer.centroids, outer, self_mesh=True, out=matrix[n_h:, n_h:])
    # The hole datum is prescribed in the rescaled variable: value at hole
    # point x is the inner datum at x/eps, which is the unit-mesh centroid.
    x, cond, residual = _dense_solve(matrix, data.rhs(pair, eps), "direct system")
    return DirectSolution(hole, outer, x[:n_h], x[n_h:], cond, residual)
