"""Dense primal-dual path-following solver for small conic programs.

Solves the pair

    (P) min c'x  s.t.  A'x = b,  x in K
    (D) max b'y  s.t.  A y + s = c,  s in K

over K = (nonnegative orthant) x (product of dense PSD blocks), using
Nesterov-Todd scaling with a Mehrotra predictor-corrector and an infeasible
start. Problems here are desk scale (PSD blocks up to ~130), so every
factorization is dense. The implementation is deterministic: no randomness
enters anywhere.

The PSD blocks of one order travel as one (k, p, p) stack: ``ConeDims``
builds, once per cone, the map that gathers a cone vector into the stacks
(with the unpack weights) and the positions that scatter packed stacks back.
Each scaling map, the Schur products and each eigenvalue test then make one
numpy call per order, not one per block. A stacked call runs the same
kernel on each matrix as the per-block call did, so every float is the one
the per-block loops computed; where blocks are summed or compared (the
Schur matrix, mu, the cone's least eigenvalue) that happens block by block
in the order of ``ConeDims.psd``.

The Schur system is worked in column blocks of BLOCK = 128. Its LP part is
summed per block pair over the LP rows that touch both blocks (the rows of
a certificate search hold about three nonzeros each; each block's rows are
gathered once per solve), and solves with its Cholesky factor run block
forward and back substitution. At order up to BLOCK there is one block: the
substitution is the two dense solves of the unblocked form, and (when no LP
row is all zero) the LP sum is the one dense product, bit for bit.

A solve holds one dense problem and one set of per-iteration factors: A,
the Schur data (A's PSD rows unpacked per order and its LP rows gathered per
column block), and per iteration the scaling, the Schur matrix H and its
Cholesky factor (at a jitter rung, also one jittered copy of H). The
least-squares start runs before the Schur data exist, since LAPACK works on
a copy of A; each iteration drops the last one's scaling, H and factor before
it forms its own; and the congruences run one column block at a time.

Symmetric matrices travel in "svec" form: upper-triangle entries row-major,
off-diagonals scaled by sqrt(2), so Euclidean inner products equal trace
inner products.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

SQRT2 = float(np.sqrt(2.0))


class _SvecLayout(NamedTuple):
    """Where the svec entries of a p x p matrix sit, with their weights."""
    upper: np.ndarray     # flat positions in a p*p buffer, upper triangle row-major
    lower: np.ndarray     # the mirrored positions, in the same order
    diag: np.ndarray      # svec positions of the diagonal entries
    pack_w: np.ndarray    # 1 on the diagonal, sqrt(2) off it
    unpack_w: np.ndarray  # 1 on the diagonal, 1/sqrt(2) off it


@functools.cache
def _svec_layout(p: int) -> _SvecLayout:
    """The layout of order p, computed once per order; its arrays are read-only
    because every caller shares them."""
    iu, ju = np.triu_indices(p)
    on_diag = iu == ju
    layout = _SvecLayout(iu * p + ju, ju * p + iu, np.flatnonzero(on_diag),
                         np.where(on_diag, 1.0, SQRT2), np.where(on_diag, 1.0, 1.0 / SQRT2))
    return _read_only(layout)


def _read_only(arrays):
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


class _OrderStack(NamedTuple):
    """The k PSD blocks of order p in a cone, walked as one (k, p, p) stack."""
    p: int
    gather: np.ndarray    # (k, p, p): cone-vector position of each matrix entry
    unpack_w: np.ndarray  # (p, p): 1 on the diagonal, 1/sqrt(2) off it
    diag: np.ndarray      # (k, p): cone-vector position of each diagonal entry


class _Scatter(NamedTuple):
    """Where each cone-vector entry comes from in the LP part followed by
    every stack flattened (``_join``), with its svec weight."""
    pick: np.ndarray
    pack_w: np.ndarray    # 1 on the LP part and the diagonals, sqrt(2) off them


@dataclass(frozen=True)
class ConeDims:
    nonneg: int
    psd: tuple[int, ...] = ()

    @functools.cached_property
    def svec_dims(self) -> tuple[int, ...]:
        return tuple(p * (p + 1) // 2 for p in self.psd)

    @functools.cached_property
    def total(self) -> int:
        return self.nonneg + sum(self.svec_dims)

    @property
    def order(self) -> int:
        """Barrier parameter nu: one per LP coordinate, p per PSD block."""
        return self.nonneg + sum(self.psd)

    @functools.cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """(stack, place in the stack) of each PSD block, in ``psd`` order;
        the stacks hold one order each, in order of first appearance."""
        orders = list(dict.fromkeys(self.psd))
        return tuple((orders.index(p), self.psd[:j].count(p)) for j, p in enumerate(self.psd))

    @functools.cached_property
    def stacks(self) -> tuple[_OrderStack, ...]:
        """The gather map of each stack (see ``slots``)."""
        starts = np.cumsum((self.nonneg,) + self.svec_dims)[:-1]
        stacks = []
        for p in dict.fromkeys(self.psd):
            lay = _svec_layout(p)
            at = starts[np.array(self.psd) == p][:, None]  # where each block's svec starts
            svec_of = np.empty(p * p, dtype=np.intp)        # svec position of each entry
            svec_of[lay.upper] = svec_of[lay.lower] = np.arange(len(lay.upper))
            stacks.append(_read_only(_OrderStack(
                p, (at + svec_of).reshape(-1, p, p), lay.unpack_w[svec_of].reshape(p, p),
                at + lay.diag)))
        return tuple(stacks)

    @functools.cached_property
    def scatter(self) -> _Scatter:
        """The scatter map from the stacks back to a cone vector (``_join``)."""
        pick = np.arange(self.total)
        pack_w = np.ones(self.total)
        starts = np.cumsum((self.nonneg,) + self.svec_dims)[:-1]
        # where each stack starts in the LP part followed by the flattened stacks
        bases = np.cumsum((self.nonneg,) + tuple(g.gather.size for g in self.stacks))
        for p, at, (g, i) in zip(self.psd, starts, self.slots):
            lay = _svec_layout(p)
            pick[at:at + len(lay.upper)] = bases[g] + i * p * p + lay.upper
            pack_w[at:at + len(lay.upper)] = lay.pack_w
        return _read_only(_Scatter(pick, pack_w))


def svec_pack(M: np.ndarray) -> np.ndarray:
    p = M.shape[-1]
    lay = _svec_layout(p)
    return M.reshape(M.shape[:-2] + (p * p,))[..., lay.upper] * lay.pack_w


def svec_unpack(v: np.ndarray, p: int) -> np.ndarray:
    lay = _svec_layout(p)
    lead = v.shape[:-1]
    vw = v * lay.unpack_w
    M = np.zeros(lead + (p * p,))
    M[..., lay.upper] = vw
    M[..., lay.lower] = vw
    return M.reshape(lead + (p, p))


def svec_identity(p: int) -> np.ndarray:
    return svec_pack(np.eye(p))


@dataclass
class ConicResult:
    """The point a solve returns and how the solve ended.

    ``status`` is "optimal" (every measure within tol), "stalled" (the best
    point did not improve for STALL_WINDOW iterations, or the step fell to
    1e-14 or below), "breakdown" (non-finite residuals, or a failed
    factorization in the scaling or in a Newton step) or "max_iters" (the
    last iterate). Short of "optimal", "stalled" and "breakdown" return the
    best point seen: the one with the smallest max(primal_residual,
    dual_residual, rel_gap).
    """
    status: str
    y: np.ndarray
    x: np.ndarray               # cone-space primal variable (svec form)
    s: np.ndarray               # cone-space dual slack (svec form)
    objective: float            # b'y at the returned point
    iterations: int             # Newton steps taken before the solve ended
    snapshot_iteration: int     # Newton steps taken to reach the returned point
    primal_residual: float
    dual_residual: float
    rel_gap: float
    factorizations: int = 0
    jitter_retries: int = 0
    lstsq_fallbacks: int = 0

    def summary(self) -> dict[str, str | int]:
        """How the solve ended, as plain values for reports and errors."""
        return {"status": self.status, "iterations": self.iterations,
                "snapshot_iteration": self.snapshot_iteration,
                "factorizations": self.factorizations,
                "jitter_retries": self.jitter_retries,
                "lstsq_fallbacks": self.lstsq_fallbacks}


def _blocks(dims: ConeDims, v: np.ndarray) -> list[np.ndarray]:
    """The PSD blocks of cone vector v, one (k, p, p) stack per entry of
    ``dims.stacks``; for a batch of cone vectors (one per row), one
    (rows, k, p, p) stack per order."""
    return [v[..., g.gather] * g.unpack_w for g in dims.stacks]


def _join(dims: ConeDims, lp: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
    """The cone vector with LP part lp and PSD blocks ``stacks`` (one per order)."""
    sc = dims.scatter
    return np.concatenate([lp] + [S.reshape(-1) for S in stacks])[sc.pick] * sc.pack_w


def _in_psd_order(dims: ConeDims, per_order: list) -> list:
    """Per-block items in ``dims.psd`` order, from one stacked item per order."""
    return [per_order[g][i] for g, i in dims.slots]


def _mT(M: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (a view)."""
    return M.swapaxes(-1, -2)


class _Scaling:
    """Nesterov-Todd scaling point for one iterate. R, Rinv, W and d hold one
    stack per order of ``dims.stacks``."""

    def __init__(self, dims: ConeDims, x: np.ndarray, s: np.ndarray):
        self.dims = dims
        l = dims.nonneg
        self.w = np.sqrt(x[:l] / s[:l])
        self.w2 = self.w ** 2
        self.lam_lp = np.sqrt(x[:l] * s[:l])
        self.R: list[np.ndarray] = []
        self.Rinv: list[np.ndarray] = []
        self.d: list[np.ndarray] = []
        self.sqrt_d: list[tuple[np.ndarray, np.ndarray]] = []
        for XS in _blocks(dims, np.array((x, s))):
            Lx, Ls = np.linalg.cholesky(XS)
            U, d, Vt = np.linalg.svd(_mT(Ls) @ Lx)
            r = np.sqrt(d)
            self.R.append(Lx @ _mT(Vt) / r[..., None, :])
            self.Rinv.append(_mT(U / r[..., None, :]) @ _mT(Ls))
            self.d.append(d)
            self.sqrt_d.append((r[..., :, None], r[..., None, :]))  # for the step lengths
        self.W = [R @ _mT(R) for R in self.R]
        # the Jordan-product denominators (d_i + d_j) / 2
        self.jordan = [0.5 * (d[..., :, None] + d[..., None, :]) for d in self.d]

    def mu(self) -> float:
        return (float(np.dot(self.lam_lp, self.lam_lp)) +
                sum(float(np.dot(d, d)) for d in _in_psd_order(self.dims, self.d))
                ) / max(self.dims.order, 1)

    # --- scaled-space maps ------------------------------------------------
    def scale_x(self, dx: np.ndarray) -> np.ndarray:
        """dx_bar = W^{-1}(dx): LP divide by w; PSD Rinv (.) Rinv'."""
        return _join(self.dims, dx[:self.dims.nonneg] / self.w,
                     [Rinv @ M @ _mT(Rinv) for M, Rinv in zip(_blocks(self.dims, dx), self.Rinv)])

    def scale_s(self, ds: np.ndarray) -> np.ndarray:
        """ds_bar = W(ds): LP multiply by w; PSD R' (.) R."""
        return _join(self.dims, ds[:self.dims.nonneg] * self.w,
                     [_mT(R) @ M @ R for M, R in zip(_blocks(self.dims, ds), self.R)])

    def unscale_x(self, dxb: np.ndarray) -> np.ndarray:
        """dx = W(dx_bar): LP multiply by w; PSD R (.) R'."""
        return _join(self.dims, dxb[:self.dims.nonneg] * self.w,
                     [R @ M @ _mT(R) for M, R in zip(_blocks(self.dims, dxb), self.R)])

    def apply_w2(self, v: np.ndarray) -> np.ndarray:
        """W^2(v): LP multiply by w^2; PSD W (.) W with W = R R'."""
        return _join(self.dims, v[:self.dims.nonneg] * self.w2,
                     [W @ M @ W for M, W in zip(_blocks(self.dims, v), self.W)])

    # --- complementarity algebra in scaled space ---------------------------
    def solve_jordan(self, rhs: np.ndarray) -> np.ndarray:
        """Solve lam o z = rhs for z, with lam the (diagonal) scaled point."""
        return _join(self.dims, rhs[:self.dims.nonneg] / self.lam_lp,
                     [M / J for M, J in zip(_blocks(self.dims, rhs), self.jordan)])

    def jordan_product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        l = self.dims.nonneg
        return _join(self.dims, u[:l] * v[:l],
                     [0.5 * (U @ V + V @ U) for U, V in _blocks(self.dims, np.array((u, v)))])

    def lam_sq(self) -> np.ndarray:
        """lam o lam, with lam = W^{-1} x = W s the scaled point (diagonal in
        the PSD blocks)."""
        out = np.zeros(self.dims.total)
        out[:self.dims.nonneg] = self.lam_lp ** 2
        for g, d in zip(self.dims.stacks, self.d):
            out[g.diag] = d ** 2
        return out

    def step_to_boundary(self, *dbars: np.ndarray) -> list[float]:
        """For each direction dbar, the largest alpha with lam + alpha*dbar
        staying in the cone (scaled space); one eigenvalue call per order."""
        D = np.array(dbars)
        lp = D[:, :self.dims.nonneg]
        # the least of -lam/dbar over dbar < 0; a NaN there leaves the LP part out
        lp_step = np.divide(-self.lam_lp, lp, out=np.full(lp.shape, np.inf),
                            where=lp < 0).min(axis=1, initial=np.inf)
        steps = [np.where(np.isnan(lp_step), np.inf, lp_step)[:, None]]
        for M, (col, row) in zip(_blocks(self.dims, D), self.sqrt_d):
            emin = np.linalg.eigvalsh(M / col / row)[..., 0]
            steps.append(np.divide(1.0, -emin, out=np.full(emin.shape, np.inf), where=emin < 0))
        return np.concatenate(steps, axis=1).min(axis=1).tolist()


@dataclass
class SolverOptions:
    max_iters: int = 100
    tol: float = 1e-9
    verbose: bool = False

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters={self.max_iters} must be nonnegative")


def _identity_point(dims: ConeDims) -> np.ndarray:
    return np.concatenate([np.ones(dims.nonneg)] + [svec_identity(p) for p in dims.psd])


def _min_cone_eig(dims: ConeDims, v: np.ndarray) -> float:
    m = float(v[:dims.nonneg].min()) if dims.nonneg else np.inf
    least = [np.linalg.eigvalsh(M)[..., 0] for M in _blocks(dims, v)]
    return min([m] + [float(e) for e in _in_psd_order(dims, least)])


def _shift_into_cone(dims: ConeDims, v: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Add a multiple of the cone identity so the minimum eigenvalue is >= floor."""
    m = _min_cone_eig(dims, v)
    if m >= floor:
        return v
    return v + (floor - m) * _identity_point(dims)


BLOCK = 128  # columns per block of the Schur system (see the module docstring)


def _col_blocks(m: int) -> list[slice]:
    return [slice(k, min(k + BLOCK, m)) for k in range(0, m, BLOCK)]


class _Schur:
    """Forms H = A' W^2 A, with the PSD columns pre-unpacked and the LP rows
    gathered per column block."""

    def __init__(self, A: np.ndarray, dims: ConeDims):
        self.A = A
        self.dims = dims
        self.A_lp = A[:dims.nonneg, :]
        # per order: the columns of A unpacked, as one (k, m, p, p) stack
        cols = np.arange(A.shape[1])[:, None, None]
        self.blocks = []
        for g in dims.stacks:
            T = A[g.gather[:, None], cols]
            T *= g.unpack_w
            self.blocks.append(T)
        # per column block: its columns, the LP rows with a nonzero in them,
        # and those rows on those columns (all blocks: at most one copy of A_lp)
        self.lp_blocks = []
        for c in _col_blocks(A.shape[1]):
            rows = np.flatnonzero(self.A_lp[:, c].any(axis=1))
            self.lp_blocks.append((c, rows, self.A_lp[rows, c]))
        # (row block, column block, where their shared LP rows sit in each)
        # below the diagonal, the triangle Cholesky reads; pairs that share
        # no row add nothing
        self.lp_pairs = []
        for i, (_, ri, _) in enumerate(self.lp_blocks):
            for j, (_, rj, _) in enumerate(self.lp_blocks[:i]):
                _, pi, pj = np.intersect1d(ri, rj, assume_unique=True, return_indices=True)
                if len(pi):
                    self.lp_pairs.append((i, j, pi, pj))

    def lp_part(self, w2: np.ndarray) -> np.ndarray:
        """A_lp' diag(w2) A_lp, summed per column block pair."""
        m = self.A.shape[1]
        H = np.zeros((m, m))
        for c, rows, G in self.lp_blocks:
            H[c, c] += G.T @ (G * w2[rows, None])
        for i, j, pi, pj in self.lp_pairs:
            (ci, ri, Gi), (cj, _, Gj) = self.lp_blocks[i], self.lp_blocks[j]
            P = Gi[pi].T @ (Gj[pj] * w2[ri[pi], None])
            H[ci, cj] += P
            H[cj, ci] += P.T
        return H

    def factor(self, sc: _Scaling) -> np.ndarray:
        m = self.A.shape[1]
        H = self.lp_part(sc.w2)
        # H_jk = <R' A_j R, R' A_k R>: one congruence per order and column
        # block, packed into one (k, m, svec) buffer per order; then each
        # block's product, formed in one m x m buffer, is added in psd order
        packed = []
        for T, R in zip(self.blocks, sc.R):
            p = R.shape[-1]
            P = np.empty(T.shape[:2] + (p * (p + 1) // 2,))
            for c in _col_blocks(m):
                P[:, c] = svec_pack(np.matmul(np.matmul(_mT(R)[:, None], T[:, c]), R[:, None]))
            packed.append(P)
        UUt = np.empty((m, m))
        for U in _in_psd_order(self.dims, packed):
            H += np.matmul(U, U.T, out=UUt)
        return H


JITTER_RUNGS = 6
# the solve returns its best snapshot once that many iterations in a row fail
# to improve it (the widest gap between improvements seen is 7 iterations)
STALL_WINDOW = 20
STEP_FRAC = 0.99  # share of the step to the cone boundary that an iteration takes


@dataclass
class _Events:
    factorizations: int = 0     # successful Cholesky factorizations of a Schur matrix
    jitter_retries: int = 0     # moves to the next rung of the jitter ladder
    lstsq_fallbacks: int = 0    # solves left to least squares once every rung failed


def _jittered(H: np.ndarray, jitter: float) -> np.ndarray:
    """H + jitter*I, bit for bit for jitter >= 0 (H's diagonal is nonnegative,
    so the ladder's jitters are), without forming I: adding 0.0 turns each
    -0.0 into +0.0, as the identity's zeros did."""
    Hj = H + 0.0
    Hj[np.diag_indices_from(Hj)] += jitter
    return Hj


def _chol_factor(H: np.ndarray, events: _Events, first_rung: int = 0
                 ) -> tuple[np.ndarray | None, int]:
    """Cholesky factor of H + jitter*I at the first rung >= ``first_rung``
    of the jitter ladder that factors, with that rung; (None, JITTER_RUNGS)
    once every rung has failed. The jitters are 0, then 1e-14 of the mean
    diagonal, growing 100-fold per rung."""
    jitter = 0.0
    for rung in range(JITTER_RUNGS):
        if rung >= first_rung:
            try:
                L = np.linalg.cholesky(_jittered(H, jitter) if rung else H)
            except np.linalg.LinAlgError:
                events.jitter_retries += 1
            else:
                events.factorizations += 1
                return L, rung
        if not rung:
            base = float(np.mean(np.diag(H))) if H.shape[0] else 1.0
        jitter = max(base * 1e-14, jitter * 100 if jitter else base * 1e-14)
    return None, JITTER_RUNGS


def _substitute(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' x = rhs by block forward and back substitution: a dense
    solve with each diagonal block of L (then of L') and matrix-vector
    products with the blocks off it (none at one block)."""
    cols = _col_blocks(len(rhs))
    if len(cols) == 1:
        # the loop below makes the same calls, but its copy and empty
        # products add about 7 us a solve at order 13, some 5% of a t3 search
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    x = rhs.copy()  # solved in place, block by block: L z = rhs, then L' x = z
    for k in cols:
        x[k] = np.linalg.solve(L[k, k], x[k] - L[k, :k.start] @ x[:k.start])
    for k in reversed(cols):
        x[k] = np.linalg.solve(L[k, k].T, x[k] - L[k.stop:, k].T @ x[k.stop:])
    return x


class _CholSolver:
    """Solves with the Schur matrix H of one iteration, factored once.

    A triangular solve that fails moves the factor to the next rung of the
    ladder, for this and every later solve: whether a rung's factor solves
    depends on H alone. Once every rung has failed, solves fall back to
    least squares.
    """

    def __init__(self, H: np.ndarray, events: _Events):
        self.H = H
        self.events = events
        self.L, self.rung = _chol_factor(H, events)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        while self.L is not None:
            try:
                return _substitute(self.L, rhs)
            except np.linalg.LinAlgError:
                self.events.jitter_retries += 1
                self.L, self.rung = _chol_factor(self.H, self.events, self.rung + 1)
        self.events.lstsq_fallbacks += 1
        return np.linalg.lstsq(self.H, rhs, rcond=None)[0]


def solve_conic(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    dims: ConeDims,
    opts: SolverOptions | None = None,
    init_scale: float = 1.0,
) -> ConicResult:
    """Solve max b'y s.t. c - A y in K (and its primal partner)."""
    opts = opts or SolverOptions()
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n, m = A.shape
    if dims.total != n:
        raise ValueError(f"cone dims total {dims.total} != rows of A {n}")
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("b/c shapes do not match A")

    events = _Events()
    # least-squares start shifted into the cone: keeps the initial residuals
    # commensurate with the complementarity scale (for b = 0, as in every
    # certificate search, the least-squares x is zero). It runs before the
    # Schur data exist, since lstsq works on a copy of A.
    y = np.linalg.lstsq(A, c, rcond=None)[0]
    s = _shift_into_cone(dims, c - A @ y, floor=init_scale)
    x0 = np.linalg.lstsq(A.T, b, rcond=None)[0] if b.any() else np.zeros(n)
    x = _shift_into_cone(dims, x0, floor=init_scale)
    schur = _Schur(A, dims)

    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(c))
    e = _identity_point(dims)  # the cone identity, for the corrector's centering term
    best = None

    def finish(result: ConicResult, status: str, iterations: int) -> ConicResult:
        return replace(result, status=status, iterations=iterations,
                       factorizations=events.factorizations,
                       jitter_retries=events.jitter_retries,
                       lstsq_fallbacks=events.lstsq_fallbacks)

    for it in range(opts.max_iters + 1):
        rx = A.T @ x - b            # primal equality residual
        rs = A @ y + s - c          # dual residual
        gap = float(np.dot(x, s))
        pobj = float(np.dot(c, x))
        dobj = float(np.dot(b, y))
        pres = float(np.linalg.norm(rx)) / bnorm
        dres = float(np.linalg.norm(rs)) / cnorm
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        if it == opts.max_iters:
            return finish(ConicResult("", y, x, s, dobj, it, it, pres, dres, relgap),
                          "max_iters", it)
        if not all(map(math.isfinite, (gap, pobj, dobj, pres, dres))):
            if best is not None:
                return finish(best, "breakdown", it)
            inf = float("inf")
            return finish(ConicResult("", y, x, s, dobj, it, it, inf, inf, inf),
                          "breakdown", it)

        if best is None or max(pres, dres, relgap) < max(
                best.primal_residual, best.dual_residual, best.rel_gap):
            best = ConicResult("", y.copy(), x.copy(), s.copy(), dobj, it, it,
                               pres, dres, relgap)
        if opts.verbose:
            print(f"  it {it + 1:3d}  pres {pres:9.2e}  dres {dres:9.2e}  "
                  f"gap {relgap:9.2e}  obj {dobj:+.9e}")
        if pres <= opts.tol and dres <= opts.tol and relgap <= opts.tol:
            return finish(ConicResult("", y, x, s, dobj, it, it, pres, dres, relgap),
                          "optimal", it)
        if it - best.snapshot_iteration >= STALL_WINDOW:
            return finish(best, "stalled", it)

        sc = H = chol = None  # the last iteration's, released before the next are formed
        try:
            sc = _Scaling(dims, x, s)
            mu = sc.mu()
            H = schur.factor(sc)
        except (np.linalg.LinAlgError, FloatingPointError):
            return finish(best, "breakdown", it)
        chol = _CholSolver(H, events)

        def newton(dtarget: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # A' W^2 A dy = -rx - A' W(dtarget_unscaled) - A' W^2 rs
            wd = sc.unscale_x(dtarget)
            rhs = -rx - A.T @ wd - aw2rs
            dy = chol.solve(rhs)
            dy += chol.solve(rhs - H @ dy)  # one round of refinement
            ds = -rs - A @ dy
            dx = wd - sc.apply_w2(ds)
            return dx, dy, ds

        lam_sq = sc.lam_sq()

        try:
            aw2rs = A.T @ sc.apply_w2(rs)  # shared by both Newton steps
            # predictor
            d_aff = sc.solve_jordan(-lam_sq)
            dx_a, dy_a, ds_a = newton(d_aff)
            dxb_a = sc.scale_x(dx_a)
            dsb_a = sc.scale_s(ds_a)
            ap, ad = sc.step_to_boundary(dxb_a, dsb_a)
            a_aff = min(1.0, ap, ad)
            mu_aff = float(np.dot(x + a_aff * dx_a, s + a_aff * ds_a)) / max(dims.order, 1)
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

            # corrector
            corr = sc.jordan_product(dxb_a, dsb_a)
            d_comb = sc.solve_jordan(sigma * mu * e - lam_sq - corr)
            dx, dy, ds = newton(d_comb)
            dxb = sc.scale_x(dx)
            dsb = sc.scale_s(ds)
            ap, ad = sc.step_to_boundary(dxb, dsb)
        except (np.linalg.LinAlgError, FloatingPointError):
            return finish(best, "breakdown", it)
        alpha_p = min(1.0, STEP_FRAC * ap)
        alpha_d = min(1.0, STEP_FRAC * ad)
        if min(alpha_p, alpha_d) <= 1e-14:
            return finish(best, "stalled", it)
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = s + alpha_d * ds
