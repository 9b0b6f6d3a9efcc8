"""The solver's svec layer, its stacked block walk, its factor-once blocked
Newton solves and its stall stop."""
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from lscert import conelp, sdp_search
from lscert.bundled import bundled_pattern, bundled_pattern_meta
from lscert.pep_builder import StepsizePattern


def svec_pack_per_call(M: np.ndarray) -> np.ndarray:
    """Reference: the svec pack that built its indices and weights per call."""
    p = M.shape[-1]
    iu, ju = np.triu_indices(p)
    w = np.where(iu == ju, 1.0, float(np.sqrt(2.0)))
    return M[..., iu, ju] * w


def svec_unpack_per_call(v: np.ndarray, p: int) -> np.ndarray:
    """Reference: the svec unpack that built its indices and weights per call."""
    iu, ju = np.triu_indices(p)
    w = np.where(iu == ju, 1.0, 1.0 / float(np.sqrt(2.0)))
    lead = v.shape[:-1]
    M = np.zeros(lead + (p, p))
    M[..., iu, ju] = v * w
    M[..., ju, iu] = M[..., iu, ju]
    return M


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", range(1, 21))
def test_svec_layer_matches_per_call_reference(p):
    rng = np.random.default_rng(p)
    sd = p * (p + 1) // 2
    M = rng.standard_normal((p, p))
    assert same_bytes(conelp.svec_pack(M), svec_pack_per_call(M))
    v = rng.standard_normal(sd)
    assert same_bytes(conelp.svec_unpack(v, p), svec_unpack_per_call(v, p))
    assert same_bytes(conelp.svec_identity(p), svec_pack_per_call(np.eye(p)))
    # a batch of matrices, as _Schur carries one per constraint column
    T = rng.standard_normal((6, p, p))
    assert same_bytes(conelp.svec_pack(T), svec_pack_per_call(T))
    V = rng.standard_normal((6, sd))
    assert same_bytes(conelp.svec_unpack(V, p), svec_unpack_per_call(V, p))
    # _Schur's inputs: a matmul congruence of the batch, and columns of A
    # read through a transpose (not contiguous)
    R = rng.standard_normal((p, p))
    Tt = np.matmul(np.matmul(R.T, T), R)
    assert same_bytes(conelp.svec_pack(Tt), svec_pack_per_call(Tt))
    assert same_bytes(conelp.svec_pack(Tt.swapaxes(-1, -2)),
                      svec_pack_per_call(Tt.swapaxes(-1, -2)))
    cols = rng.standard_normal((sd + 3, 12))[2:2 + sd, ::2].T
    assert not cols.flags.c_contiguous
    assert same_bytes(conelp.svec_unpack(cols, p), svec_unpack_per_call(cols, p))


def test_svec_layout_is_shared_read_only():
    layout = conelp._svec_layout(5)
    assert conelp._svec_layout(5) is layout  # computed once per order
    rng = np.random.default_rng(3)
    outputs = [conelp.svec_pack(rng.standard_normal((5, 5))),
               conelp.svec_unpack(rng.standard_normal(15), 5),
               conelp.svec_identity(5)]
    for a in layout:
        with pytest.raises(ValueError):
            a[0] = a[0]
        assert not any(np.shares_memory(out, a) for out in outputs)


def chol_solve_per_call(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Reference: the solver's earlier per-call solve, which ran the jitter
    ladder on H afresh for every right-hand side."""
    jitter = 0.0
    base = float(np.mean(np.diag(H))) if H.shape[0] else 1.0
    for _ in range(6):
        try:
            L = np.linalg.cholesky(H + jitter * np.eye(H.shape[0]))
            z = np.linalg.solve(L, rhs)
            return np.linalg.solve(L.T, z)
        except np.linalg.LinAlgError:
            jitter = max(base * 1e-14, jitter * 100 if jitter else base * 1e-14)
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def newton_dy(solve, H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # the two solves of one Newton step: a solve and one round of refinement
    dy = solve(rhs)
    dy += solve(rhs - H @ dy)
    return dy


def spd(n: int, rng) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def singular_psd(n: int, rng) -> np.ndarray:
    # a zero row and column: Cholesky fails at the first rung on any hardware
    H = np.zeros((n, n))
    B = rng.standard_normal((n - 1, n - 2))
    H[1:, 1:] = B @ B.T
    return H


def nearly_psd(n: int, rng) -> np.ndarray:
    # eigenvalue -3e-13 against a mean diagonal near 2: the first jitter
    # (2e-14) is too small, the second (2e-12) factors
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(1.0, 3.0, n)
    eig[0] = -3e-13
    return (Q * eig) @ Q.T


def indefinite(n: int, rng) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(1.0, 3.0, n)
    eig[0] = -1.0  # positive mean diagonal, one clearly negative eigenvalue
    return (Q * eig) @ Q.T


def signed_zero_psd(n: int, rng) -> np.ndarray:
    # singular_psd with its zero row and column written as -0.0 off the
    # diagonal: the factor at rung 1 shows whether the jitter kept their sign
    H = singular_psd(n, rng)
    H[0, 1:] = H[1:, 0] = -0.0
    return H


@pytest.mark.parametrize("kind,expected", [
    (spd, {"factorizations": 1, "jitter_retries": 0, "lstsq_fallbacks": 0}),
    (singular_psd, {"factorizations": 1, "jitter_retries": 1, "lstsq_fallbacks": 0}),
    (nearly_psd, {"factorizations": 1, "jitter_retries": 2, "lstsq_fallbacks": 0}),
    (indefinite, {"factorizations": 0, "jitter_retries": 6, "lstsq_fallbacks": 4}),
    (signed_zero_psd, {"factorizations": 1, "jitter_retries": 1, "lstsq_fallbacks": 0}),
])
def test_factor_once_matches_per_call_solve(kind, expected):
    rng = np.random.default_rng(11)
    H = kind(9, rng)
    events = conelp._Events()
    chol = conelp._CholSolver(H, events)
    for _ in range(2):  # predictor and corrector share the factor
        rhs = rng.standard_normal(9)
        ref = newton_dy(lambda r: chol_solve_per_call(H, r), H, rhs)
        dy = newton_dy(chol.solve, H, rhs)
        assert dy.tobytes() == ref.tobytes()
    assert vars(events) == expected
    if kind is signed_zero_psd:
        # the factor is the one of H + jitter*I with the identity formed
        jitter = float(np.mean(np.diag(H))) * 1e-14
        assert chol.rung == 1 and np.signbit(H[1:, 0]).all()
        assert same_bytes(chol.L, np.linalg.cholesky(H + jitter * np.eye(9)))
        assert not np.signbit(chol.L[1:, 0]).any()


def test_failed_triangular_solve_moves_to_next_rung(monkeypatch):
    """A LinAlgError from a solve with the factor moves on to the next rung,
    as the per-call solve did."""
    rng = np.random.default_rng(12)
    H = spd(7, rng)
    L0 = np.linalg.cholesky(H)
    solve = np.linalg.solve

    def refuse_first_rung(a, b):
        if np.array_equal(a, L0) or np.array_equal(a, L0.T):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refuse_first_rung)
    events = conelp._Events()
    chol = conelp._CholSolver(H, events)
    for _ in range(2):
        rhs = rng.standard_normal(7)
        ref = newton_dy(lambda r: chol_solve_per_call(H, r), H, rhs)
        assert newton_dy(chol.solve, H, rhs).tobytes() == ref.tobytes()
    assert chol.rung == 1
    assert vars(events) == {"factorizations": 2, "jitter_retries": 1, "lstsq_fallbacks": 0}


def schur_unblocked(schur, sc) -> np.ndarray:
    """Reference: H = A' W^2 A with the LP part as one dense product and the
    PSD part added as ``add_blocks_in_psd_order`` adds it."""
    m = schur.A.shape[1]
    H = np.zeros((m, m))
    if len(schur.A_lp):
        H += schur.A_lp.T @ (schur.A_lp * (sc.w ** 2)[:, None])
    return add_blocks_in_psd_order(H, schur, sc)


def add_blocks_in_psd_order(H, schur, sc) -> np.ndarray:
    """Reference: the PSD part of H added to it block by block in psd order,
    each block's congruence over all m columns at once, from the per-block
    unpack of A's columns and the per-block scaling."""
    for T, R in zip(ref_schur_blocks(schur.A, schur.dims), per_block(sc).R):
        U = conelp.svec_pack(np.matmul(np.matmul(R.T, T), R))
        H += U @ U.T
    return H


def substitute_unblocked(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Reference: the solve through L and then L' as two dense solves."""
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def sparse_lp_rows(n_rows: int, m: int, rng) -> np.ndarray:
    """LP rows shaped like a t15 search's: three nonzeros each, at most 150
    columns apart, so that column blocks 0 and 3 share no row; the last row
    is all zero."""
    A = np.zeros((n_rows, m))
    for r in range(n_rows - 1):
        c = rng.integers(m)
        cols = np.minimum(c + rng.integers(0, 151, size=2), m - 1)
        A[r, [c, *cols]] = rng.standard_normal(3)
    return A


def schur_problem(m: int, sparse: bool, rng):
    dims = conelp.ConeDims(1312, (17, 17)) if sparse else conelp.ConeDims(m + 5, (3, 4))
    A = rng.standard_normal((dims.total, m))
    if sparse:
        A[:dims.nonneg] = sparse_lp_rows(dims.nonneg, m, rng)
    x, s = interior_point(dims, rng), interior_point(dims, rng)
    return conelp._Schur(A, dims), conelp._Scaling(dims, x, s)


def close(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.max(np.abs(a - b))) <= 1e-12 * float(np.max(np.abs(b)))


@pytest.mark.parametrize("m,sparse", [(7, False), (120, False), (128, False), (129, False),
                                      (300, False), (496, True)],
                         ids=["7", "120", "128", "129", "300", "t15-shaped"])
def test_blocked_schur_matches_unblocked(m, sparse):
    """At one block the blocked LP sum and substitution are the unblocked
    calls bit for bit; past it they agree to rounding."""
    rng = np.random.default_rng(m)
    schur, sc = schur_problem(m, sparse, rng)
    H, ref = schur.factor(sc), schur_unblocked(schur, sc)
    chol = conelp._CholSolver(H, conelp._Events())
    rhs = rng.standard_normal(m)
    dy, dy_ref = chol.solve(rhs), substitute_unblocked(np.linalg.cholesky(H), rhs)
    if m <= conelp.BLOCK:
        assert same_bytes(H, ref)
        assert same_bytes(dy, dy_ref)
    else:
        assert close(H, ref) and close(dy, dy_ref)
    if sparse:
        # of the six off-diagonal block pairs at m = 496, blocks 3 and 0
        # share no row, and the all-zero row is gathered in no block
        starts = [c.start for c, _, _ in schur.lp_blocks]
        pairs = {(starts[i], starts[j]) for i, j, _, _ in schur.lp_pairs}
        assert len(pairs) == 5 and (384, 0) not in pairs
        assert all(len(schur.A_lp) - 1 not in rows for _, rows, _ in schur.lp_blocks)


@pytest.mark.parametrize("kind", [spd, singular_psd, nearly_psd, indefinite])
def test_jitter_ladder_counts_match_unblocked_above_one_block(kind, monkeypatch):
    def newton_events(substitute) -> dict:
        monkeypatch.setattr(conelp, "_substitute", substitute)
        rng = np.random.default_rng(13)
        H = kind(200, rng)
        events = conelp._Events()
        chol = conelp._CholSolver(H, events)
        for _ in range(2):
            newton_dy(chol.solve, H, rng.standard_normal(200))
        return vars(events)

    blocked = newton_events(conelp._substitute)
    assert blocked == newton_events(substitute_unblocked)
    assert blocked["factorizations"] + blocked["lstsq_fallbacks"] > 0


def test_zero_rhs_start_is_the_least_squares_start(monkeypatch):
    """Every certificate search has b = 0, and solve_conic starts x from
    zero there: a run whose x start goes through the least squares of A'
    instead ends on the same bytes."""
    rng = np.random.default_rng(5)
    dims = conelp.ConeDims(40, (5, 5))
    A = rng.standard_normal((dims.total, 20))
    b = np.zeros(20)
    c = A @ rng.standard_normal(20) + interior_point(dims, rng)
    default = conelp.solve_conic(A, b, c, dims)

    shift, starts = conelp._shift_into_cone, []

    def x_start_by_lstsq(dims, v, floor=1.0):
        starts.append(v)
        if len(starts) == 2:  # the first call shifts s, the second x
            v = np.linalg.lstsq(A.T, b, rcond=None)[0]
        return shift(dims, v, floor=floor)

    monkeypatch.setattr(conelp, "_shift_into_cone", x_start_by_lstsq)
    forced = conelp.solve_conic(A, b, c, dims)
    assert len(starts) == 2 and not starts[1].any()
    assert default.status == "optimal"
    assert same_point(forced, default) and forced.summary() == default.summary()


def conic_results(monkeypatch) -> list:
    """Record every ConicResult the search layer receives."""
    seen = []
    solve = sdp_search.solve_conic

    def recording(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sdp_search, "solve_conic", recording)
    return seen


def same_point(a, b) -> bool:
    return all(getattr(a, v).tobytes() == getattr(b, v).tobytes() for v in "yxs")


def test_stall_stop_returns_the_best_snapshot(monkeypatch):
    # at the default window this solve breaks down first (a scaling
    # Cholesky fails after 28 iterations, past its best point at 16)
    seen = conic_results(monkeypatch)
    pattern = StepsizePattern.from_text("2.9,1.5")
    sdp_search.solve_approx(pattern, 1e-3)
    monkeypatch.setattr(conelp, "STALL_WINDOW", 10)
    sdp_search.solve_approx(pattern, 1e-3)
    full, stopped = seen
    assert (full.status, full.iterations, full.snapshot_iteration) == ("breakdown", 28, 16)
    assert stopped.status == "stalled"
    assert stopped.snapshot_iteration == 16
    assert stopped.iterations == stopped.snapshot_iteration + 10
    assert same_point(stopped, full)


def test_stall_window_changes_no_result(monkeypatch):
    seen = conic_results(monkeypatch)
    pattern = StepsizePattern.from_text("3.9,1.5")  # no member: the solve stalls
    for window in (conelp.STALL_WINDOW, 10 ** 6):
        monkeypatch.setattr(conelp, "STALL_WINDOW", window)
        with pytest.raises(sdp_search.NotFound) as ei:
            sdp_search.solve_approx(pattern, 1e-3)
    stopped, unstopped = seen
    assert stopped.status == "stalled"
    assert stopped.iterations == stopped.snapshot_iteration + 20
    assert unstopped.iterations > stopped.iterations
    assert unstopped.snapshot_iteration == stopped.snapshot_iteration
    assert same_point(stopped, unstopped)
    # the failure explains itself
    assert ei.value.solver == unstopped.summary()
    assert ei.value.solver["factorizations"] == unstopped.iterations


def test_primal_solve_ends_optimal(monkeypatch):
    seen = conic_results(monkeypatch)
    pattern = bundled_pattern("t2")
    pv = sdp_search.evaluate_primal(pattern, float(bundled_pattern_meta("t2")["delta"]) / 2)
    (res,) = seen
    assert pv.status == res.status == "optimal"
    assert res.iterations == res.snapshot_iteration
    assert res.factorizations == res.iterations


def test_small_search_keeps_the_unblocked_arithmetic(monkeypatch):
    """t7's Schur order (120) is one block: the default run, a run with one
    block at any order and a run through the unblocked formulas agree bit
    for bit. So does a run through the per-block references below (one numpy
    call per PSD block, as the solver walked the blocks before it stacked
    them), at t3 and at t7."""
    seen = conic_results(monkeypatch)
    t3, t7 = StepsizePattern.from_text("1.5,4.9,1.5"), bundled_pattern("t7")
    runs = [sdp_search.solve_approx(t7, 1e-5), sdp_search.solve_approx(t3, 1e-4)]
    monkeypatch.setattr(conelp, "BLOCK", 10 ** 9)
    runs.append(sdp_search.solve_approx(t7, 1e-5))
    monkeypatch.setattr(conelp._Schur, "factor", schur_unblocked)
    monkeypatch.setattr(conelp, "_substitute", substitute_unblocked)
    runs.append(sdp_search.solve_approx(t7, 1e-5))
    monkeypatch.setattr(conelp, "_Scaling", PerBlockScaling)
    monkeypatch.setattr(conelp, "_min_cone_eig", ref_min_cone_eig)
    runs += [sdp_search.solve_approx(t7, 1e-5), sdp_search.solve_approx(t3, 1e-4)]
    assert seen[0].y.shape == (120,) and seen[1].y.shape == (28,)
    for k, (fc, res) in enumerate(zip(runs, seen)):
        first = 1 if k in (1, 5) else 0  # t3 or t7
        assert fc.tobytes() == runs[first].tobytes()
        assert same_point(res, seen[first]) and res.summary() == seen[first].summary()


def test_float_certificate_carries_the_solver_summary():
    fc = sdp_search.solve_approx(StepsizePattern((F(1),)), 0.01)
    assert fc.solver["status"] == "optimal"
    assert fc.solver["iterations"] == fc.solver["snapshot_iteration"] > 0


# The scaling maps as the solver wrote them before one block walker served
# them all: each loop walks the block offsets itself. The references for the
# walker, kept byte for byte.
def ref_scaling(dims, x, s):
    l = dims.nonneg
    R_, Rinv_, d_ = [], [], []
    off = l
    for p, sd in zip(dims.psd, dims.svec_dims):
        X = conelp.svec_unpack(x[off:off + sd], p)
        S = conelp.svec_unpack(s[off:off + sd], p)
        Lx = np.linalg.cholesky(X)
        Ls = np.linalg.cholesky(S)
        U, d, Vt = np.linalg.svd(Ls.T @ Lx)
        R_.append(Lx @ Vt.T / np.sqrt(d))
        Rinv_.append((U / np.sqrt(d)).T @ Ls.T)
        d_.append(d)
        off += sd
    return R_, Rinv_, d_


def ref_scale_x(sc, dx):
    l = sc.dims.nonneg
    out = [dx[:l] / sc.w]
    off = l
    for p, sd, Rinv in zip(sc.dims.psd, sc.dims.svec_dims, sc.Rinv):
        M = conelp.svec_unpack(dx[off:off + sd], p)
        out.append(conelp.svec_pack(Rinv @ M @ Rinv.T))
        off += sd
    return np.concatenate(out)


def ref_scale_s(sc, ds):
    l = sc.dims.nonneg
    out = [ds[:l] * sc.w]
    off = l
    for p, sd, R in zip(sc.dims.psd, sc.dims.svec_dims, sc.R):
        M = conelp.svec_unpack(ds[off:off + sd], p)
        out.append(conelp.svec_pack(R.T @ M @ R))
        off += sd
    return np.concatenate(out)


def ref_unscale_x(sc, dxb):
    l = sc.dims.nonneg
    out = [dxb[:l] * sc.w]
    off = l
    for p, sd, R in zip(sc.dims.psd, sc.dims.svec_dims, sc.R):
        M = conelp.svec_unpack(dxb[off:off + sd], p)
        out.append(conelp.svec_pack(R @ M @ R.T))
        off += sd
    return np.concatenate(out)


def ref_apply_w2(sc, v):
    l = sc.dims.nonneg
    out = [v[:l] * sc.w ** 2]
    off = l
    for p, sd, R in zip(sc.dims.psd, sc.dims.svec_dims, sc.R):
        M = conelp.svec_unpack(v[off:off + sd], p)
        W = R @ R.T
        out.append(conelp.svec_pack(W @ M @ W))
        off += sd
    return np.concatenate(out)


def ref_solve_jordan(sc, rhs):
    l = sc.dims.nonneg
    out = [rhs[:l] / sc.lam_lp]
    off = l
    for p, sd, d in zip(sc.dims.psd, sc.dims.svec_dims, sc.d):
        Mr = conelp.svec_unpack(rhs[off:off + sd], p)
        denom = 0.5 * (d[:, None] + d[None, :])
        out.append(conelp.svec_pack(Mr / denom))
        off += sd
    return np.concatenate(out)


def ref_jordan_product(sc, u, v):
    l = sc.dims.nonneg
    out = [u[:l] * v[:l]]
    off = l
    for p, sd in zip(sc.dims.psd, sc.dims.svec_dims):
        U = conelp.svec_unpack(u[off:off + sd], p)
        V = conelp.svec_unpack(v[off:off + sd], p)
        out.append(conelp.svec_pack(0.5 * (U @ V + V @ U)))
        off += sd
    return np.concatenate(out)


def ref_step_to_boundary(sc, dbar):
    l = sc.dims.nonneg
    alpha = np.inf
    lp = dbar[:l]
    neg = lp < 0
    if neg.any():
        alpha = min(alpha, float(np.min(-sc.lam_lp[neg] / lp[neg])))
    off = l
    for p, sd, d in zip(sc.dims.psd, sc.dims.svec_dims, sc.d):
        M = conelp.svec_unpack(dbar[off:off + sd], p)
        T = M / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
        emin = float(np.linalg.eigvalsh(T)[0])
        if emin < 0:
            alpha = min(alpha, 1.0 / (-emin))
        off += sd
    return alpha


def ref_min_cone_eig(dims, v):
    l = dims.nonneg
    m = float(v[:l].min()) if l else np.inf
    off = l
    for p, sd in zip(dims.psd, dims.svec_dims):
        m = min(m, float(np.linalg.eigvalsh(conelp.svec_unpack(v[off:off + sd], p))[0]))
        off += sd
    return m


def ref_schur_blocks(A, dims):
    blocks = []
    off = dims.nonneg
    for p, sd in zip(dims.psd, dims.svec_dims):
        blocks.append(conelp.svec_unpack(A[off:off + sd, :].T, p))
        off += sd
    return blocks


class PerBlockScaling:
    """The scaling as the solver held it before the stacks: one matrix per
    block, with the maps above. In place of conelp._Scaling, a solve runs
    every PSD step block by block."""

    def __init__(self, dims, x, s):
        l = dims.nonneg
        self.dims = dims
        self.w = np.sqrt(x[:l] / s[:l])
        self.lam_lp = np.sqrt(x[:l] * s[:l])
        self.R, self.Rinv, self.d = ref_scaling(dims, x, s)

    def mu(self):
        return (float(np.dot(self.lam_lp, self.lam_lp)) +
                sum(float(np.dot(d, d)) for d in self.d)) / max(self.dims.order, 1)

    def lam_sq(self):
        return np.concatenate([self.lam_lp ** 2] +
                              [svec_pack_per_call(np.diag(d ** 2)) for d in self.d])

    def step_to_boundary(self, *dbars):
        return [ref_step_to_boundary(self, dbar) for dbar in dbars]

    scale_x, scale_s, unscale_x = ref_scale_x, ref_scale_s, ref_unscale_x
    apply_w2, solve_jordan, jordan_product = ref_apply_w2, ref_solve_jordan, ref_jordan_product


def per_block(sc):
    """sc, with R, Rinv and d as one array per block in psd order."""
    if isinstance(sc, PerBlockScaling):
        return sc
    blocks = {k: conelp._in_psd_order(sc.dims, getattr(sc, k)) for k in ("R", "Rinv", "d")}
    return SimpleNamespace(dims=sc.dims, w=sc.w, lam_lp=sc.lam_lp, **blocks)


def interior_point(dims, rng):
    return np.concatenate([rng.random(dims.nonneg) + 0.1] +
                          [conelp.svec_pack(spd(p, rng)) for p in dims.psd])


WALKED = [conelp.ConeDims(4, (3, 5)), conelp.ConeDims(0, (5, 3)), conelp.ConeDims(6),
          conelp.ConeDims(2, (3, 5, 3)), conelp.ConeDims(3, (5, 5)),
          conelp.ConeDims(0, (17, 17)), conelp.ConeDims(0, (4,))]
WALKED_IDS = ["lp+3+5", "5+3", "lp", "lp+3+5+3", "lp+5+5", "17+17", "4"]


@pytest.mark.parametrize("dims", WALKED, ids=WALKED_IDS)
def test_block_walker_matches_per_block_loops(dims):
    rng = np.random.default_rng(21)
    x, s = interior_point(dims, rng), interior_point(dims, rng)
    sc = conelp._Scaling(dims, x, s)
    for got, ref in zip((sc.R, sc.Rinv, sc.d), ref_scaling(dims, x, s)):
        got = conelp._in_psd_order(dims, got)
        assert len(got) == len(ref) == len(dims.psd)
        assert all(same_bytes(a, b) for a, b in zip(got, ref))
    ref_sc = PerBlockScaling(dims, x, s)
    assert np.float64(sc.mu()).tobytes() == np.float64(ref_sc.mu()).tobytes()
    assert same_bytes(sc.lam_sq(), ref_sc.lam_sq())
    pb = per_block(sc)
    directions = [rng.standard_normal(dims.total) for _ in range(4)] + [x, s]
    for u, v in zip(directions, directions[1:]):
        assert same_bytes(sc.scale_x(u), ref_scale_x(pb, u))
        assert same_bytes(sc.scale_s(u), ref_scale_s(pb, u))
        assert same_bytes(sc.unscale_x(u), ref_unscale_x(pb, u))
        assert same_bytes(sc.apply_w2(u), ref_apply_w2(pb, u))
        assert same_bytes(sc.solve_jordan(u), ref_solve_jordan(pb, u))
        assert same_bytes(sc.jordan_product(u, v), ref_jordan_product(pb, u, v))
        for dbar in (u, sc.scale_x(u), sc.scale_s(u)):
            (alpha,) = sc.step_to_boundary(dbar)
            assert type(alpha) is type(ref_step_to_boundary(pb, dbar))
            assert np.float64(alpha).tobytes() == np.float64(ref_step_to_boundary(pb, dbar)).tobytes()
        # two directions in one call, as the predictor and the corrector ask
        both = sc.step_to_boundary(sc.scale_x(u), sc.scale_s(v))
        assert np.array(both).tobytes() == np.array(
            [ref_step_to_boundary(pb, sc.scale_x(u)), ref_step_to_boundary(pb, sc.scale_s(v))]).tobytes()
        assert conelp._min_cone_eig(dims, u) == ref_min_cone_eig(dims, u)
    # a direction into the cone never reaches its boundary
    assert sc.step_to_boundary(sc.scale_x(x)) == [ref_step_to_boundary(pb, sc.scale_x(x))] == [np.inf]
    A = rng.standard_normal((dims.total, 7))
    schur = conelp._Schur(A, dims)
    assert all(same_bytes(a, b) for a, b in
               zip(conelp._in_psd_order(dims, schur.blocks), ref_schur_blocks(A, dims)))
    assert len(schur.blocks) == len(set(dims.psd))  # one stack per order


@pytest.mark.parametrize("dims", WALKED, ids=WALKED_IDS)
def test_schur_adds_blocks_in_psd_order(dims):
    """H from the stacked congruences equals, byte for byte, H summed block
    by block in psd order from the per-block references, also where orders
    interleave (3, 5, 3)."""
    rng = np.random.default_rng(22)
    x, s = interior_point(dims, rng), interior_point(dims, rng)
    A = rng.standard_normal((dims.total, 9))
    schur = conelp._Schur(A, dims)
    H = schur.factor(conelp._Scaling(dims, x, s))
    assert same_bytes(H, schur_unblocked(schur, PerBlockScaling(dims, x, s)))


@pytest.mark.parametrize("dims", WALKED, ids=WALKED_IDS)
def test_chunked_congruence_adds_blocks_in_psd_order(dims):
    """Past one column block the congruence runs in chunks of BLOCK columns
    (300 = 128 + 128 + 44): H still equals, byte for byte, the blocked LP
    part plus each block's product over all columns at once, in psd order."""
    rng = np.random.default_rng(23)
    x, s = interior_point(dims, rng), interior_point(dims, rng)
    A = rng.standard_normal((dims.total, 300))
    schur = conelp._Schur(A, dims)
    sc = conelp._Scaling(dims, x, s)
    assert [c.stop - c.start for c in conelp._col_blocks(300)] == [128, 128, 44]
    H = schur.factor(sc)
    ref = add_blocks_in_psd_order(schur.lp_part(sc.w2), schur, PerBlockScaling(dims, x, s))
    assert same_bytes(H, ref)
