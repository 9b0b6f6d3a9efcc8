from fractions import Fraction

import contextlib
import importlib.util
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lscert.pep_builder
from lscert import sdp_search
from lscert.certificate import Certificate, PreconditionError, check_membership
from lscert.conelp import ConeDims, solve_conic, svec_pack, svec_unpack
from lscert.exact_linalg import RatMatrix
from lscert.pep_builder import STAR, StepsizePattern, pair_table
from lscert.bundled import bundled_pattern
from lscert.pep_builder import index_pairs
from lscert.sdp_search import (
    _affine_space,
    _equality_systems,
    _pair_block_maps,
    FloatCertificate,
    NotFound,
    RoundingFailure,
    SolveOptions as SearchOptions,
    evaluate_primal,
    generate,
    round_to_exact,
    solve_approx,
)
from lscert.two_step import two_step_certificate

F = Fraction


class TestConicSolver:
    def test_lp(self):
        # max y s.t. y <= 3, y <= 5
        A = np.array([[1.0], [1.0]])
        r = solve_conic(A, np.array([1.0]), np.array([3.0, 5.0]), ConeDims(2))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(3.0, abs=1e-6)

    def test_sdp(self):
        # max y s.t. [[1, y], [y, 1]] psd  ->  y* = 1
        c = svec_pack(np.eye(2))
        A = -svec_pack(np.array([[0.0, 1.0], [1.0, 0.0]])).reshape(3, 1)
        r = solve_conic(A, np.array([1.0]), c, ConeDims(0, (2,)))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(1.0, abs=1e-6)

    def test_mixed(self):
        # max y1 + y2 s.t. y1 <= 2, [[3 - y2, 1], [1, 1]] psd  ->  2 + 2
        A = np.zeros((4, 2))
        c = np.zeros(4)
        A[0, 0] = 1.0
        c[0] = 2.0
        E11 = np.zeros((2, 2))
        E11[0, 0] = 1.0
        c[1:] = svec_pack(np.array([[3.0, 1.0], [1.0, 1.0]]))
        A[1:, 1] = svec_pack(E11)
        r = solve_conic(A, np.ones(2), c, ConeDims(1, (2,)))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(4.0, abs=1e-6)

    def test_svec_round_trip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        M = M + M.T
        v = svec_pack(M)
        assert np.allclose(svec_unpack(v, 5), M)
        N = rng.standard_normal((5, 5))
        N = N + N.T
        assert np.dot(svec_pack(M), svec_pack(N)) == pytest.approx(np.trace(M @ N))


class TestSolveApprox:
    def test_unit_pattern(self):
        fc = solve_approx(StepsizePattern((F(1),)), 0.01)
        assert fc.worst_violation() <= 1e-8

    def test_two_step(self):
        fc = solve_approx(StepsizePattern.from_text("2.9,1.5"), 1e-3)
        assert fc.worst_violation() <= 1e-8
        for key in ("eq_lambda_inf", "eq_gamma_inf", "m_lambda_inf"):
            assert fc.residuals[key] <= 1e-8

    def test_not_found_is_not_an_infeasibility_proof(self):
        with pytest.raises(NotFound) as ei:
            solve_approx(StepsizePattern.from_text("10,10"), 1e-3)
        assert "not a proof of emptiness" in str(ei.value)
        assert ei.value.residuals  # best residuals are reported

    def test_non_finite_point_is_not_found(self, monkeypatch):
        # a NaN multiplier makes the worst violation NaN, which must not pass
        real = sdp_search.solve_conic

        def nan_point(*args, **kwargs):
            res = real(*args, **kwargs)
            res.y = np.full_like(res.y, np.nan)
            return res

        monkeypatch.setattr(sdp_search, "solve_conic", nan_point)
        with pytest.raises(NotFound, match="worst violation nan"):
            solve_approx(StepsizePattern((F(1),)), 0.01)

    def test_deterministic_bytes(self):
        h = StepsizePattern.from_text("2.9,1.5")
        a = solve_approx(h, 1e-3, SearchOptions())
        b = solve_approx(h, 1e-3, SearchOptions())
        assert a.tobytes() == b.tobytes()

    def test_delta_range_enforced(self):
        with pytest.raises(PreconditionError):
            solve_approx(StepsizePattern((F(1),)), 0.75)

    def test_residuals_recomputed_on_construction(self):
        h = StepsizePattern((F(1),))
        fc = solve_approx(h, 0.01)
        clone = FloatCertificate(pattern=h, Delta=fc.Delta, lam=fc.lam, gam=fc.gam)
        assert clone.residuals == fc.residuals


class TestFloatBasis:
    @pytest.mark.parametrize("pid", ["const1", "t2", "t7", "t15"])
    def test_bytes_match_per_entry_conversion(self, pid):
        """The float nullspace basis equals the exact basis floated entry by
        entry, bit for bit (no negative zeros), in natural and priority order;
        each exact basis column lies in the nullspace, and the particular
        solution solves the system."""
        pattern = bundled_pattern(pid)
        n = len(list(index_pairs(pattern.t)))
        for E, rhs in _equality_systems(pair_table(pattern)):
            columns = [[(i, E.entry(i, j)) for i in range(E.rows) if E.entry(i, j)]
                       for j in range(n)]

            def apply(v):  # E v, exactly, over v's nonzero entries
                out = [Fraction(0)] * E.rows
                for j, vj in enumerate(v):
                    if vj:
                        for i, a in columns[j]:
                            out[i] += a * vj
                return out

            for priority in (None, np.arange(n) % 5):
                sp = _affine_space(E, rhs, priority)
                assert sorted(sp.pivots + sp.free) == list(range(n))
                assert all(len(row) == len(sp.free) for row in sp.coef)
                assert apply(sp.particular) == list(rhs)
                exact = []
                for k, f in enumerate(sp.free):
                    v = [Fraction(0)] * n
                    v[f] = Fraction(1)
                    for c, row in zip(sp.pivots, sp.coef):
                        v[c] = -row[k]
                    assert apply(v) == [0] * E.rows
                    exact.append(v)
                ref = np.array([[float(v) for v in col] for col in exact]).T
                assert sp.float_basis().tobytes() == ref.tobytes()
                assert sp.float_basis().shape == (n, len(sp.free))
                assert not np.signbit(sp.float_basis()[sp.float_basis() == 0]).any()

    def test_solve_fills_the_pivots_exactly(self):
        pattern = bundled_pattern("t3")
        (E, rhs), _ = _equality_systems(pair_table(pattern))
        sp = _affine_space(E, rhs, np.arange(E.cols) % 7)
        values = [Fraction(k % 5, 3) for k in range(len(sp.free))]
        x = sp.solve(values)
        assert [x[f] for f in sp.free] == values
        lhs = [sum(E.entry(i, j) * x[j] for j in range(E.cols)) for i in range(E.rows)]
        assert lhs == list(rhs)


# The search side's hand-written copies of the pair structure, as they were
# before the pair table replaced them: the references for the table's views.
def _x_trail_entry(h, i, k):
    if i == STAR or k >= i:
        return F(0)
    return -h.h[k]


def _ref_lambda_equality_system(h):
    t = h.t
    pairs = list(index_pairs(t))
    E = [[F(0)] * len(pairs) for _ in range(2 * (t + 1))]
    for col, (i, j) in enumerate(pairs):
        if j != STAR:
            E[j][col] += 1
        if i != STAR:
            E[i][col] -= 1
        if i == STAR:
            E[t + 1 + j][col] = F(-1, 2)
    rhs = [F(0)] * (2 * (t + 1))
    rhs[t] += 1
    rhs[0] -= 1
    return RatMatrix.from_rows(E), tuple(rhs)


def _ref_gamma_equality_system(h):
    t = h.t
    pairs = list(index_pairs(t))
    E = [[F(0)] * len(pairs) for _ in range(t + 1)]
    for col, (i, j) in enumerate(pairs):
        if j != STAR:
            E[j][col] += 1
        if i != STAR:
            E[i][col] -= 1
    rhs = [F(0)] * (t + 1)
    rhs[0] = 2 * h.sum_h
    return RatMatrix.from_rows(E), tuple(rhs)


def _ref_pair_block_maps(h):
    t = h.t
    pairs = list(index_pairs(t))
    dim = t + 2
    sd = dim * (dim + 1) // 2
    BM = np.zeros((len(pairs), sd))
    Bm = np.zeros((len(pairs), sd))
    for e, (i, j) in enumerate(pairs):
        blk = np.zeros((dim, dim))
        if j != STAR:
            for k in range(t + 1):
                w = float(_x_trail_entry(h, i, k) - _x_trail_entry(h, j, k))
                if w:
                    blk[1 + j, 1 + k] += 0.5 * w
                    blk[1 + k, 1 + j] += 0.5 * w
        if i == STAR:
            blk[1 + j, 1 + j] += 0.5
        elif j == STAR:
            blk[1 + i, 1 + i] += 0.5
        else:
            blk[1 + i, 1 + i] += 0.5
            blk[1 + j, 1 + j] += 0.5
            blk[1 + i, 1 + j] -= 0.5
            blk[1 + j, 1 + i] -= 0.5
        BM[e] = svec_pack(blk)
        if i == STAR:
            border = np.zeros((dim, dim))
            border[0, 1 + j] = border[1 + j, 0] = -0.5
            Bm[e] = svec_pack(border)
    return BM, Bm


def _table_patterns():
    rng = random.Random(5)
    return [bundled_pattern(pid) for pid in ("const1", "t2", "t3", "t7", "t15", "t31")] + [
        StepsizePattern(tuple(F(rng.randrange(1, 60), rng.randrange(1, 20))
                              for _ in range(rng.randrange(1, 10))))
        for _ in range(7)]


class TestPairTableViews:
    @pytest.mark.parametrize("pattern", _table_patterns(), ids=lambda h: f"t{h.t}")
    def test_block_maps_match_reference_bytes(self, pattern):
        BM, Bm = _pair_block_maps(pair_table(pattern))
        ref_BM, ref_Bm = _ref_pair_block_maps(pattern)
        assert BM.tobytes() == ref_BM.tobytes()
        assert Bm.tobytes() == ref_Bm.tobytes()

    @pytest.mark.parametrize("pattern", _table_patterns(), ids=lambda h: f"t{h.t}")
    def test_equality_systems_match_reference(self, pattern):
        lam_sys, gam_sys = _equality_systems(pair_table(pattern))
        assert lam_sys == _ref_lambda_equality_system(pattern)
        assert gam_sys == _ref_gamma_equality_system(pattern)


def _count_affine_spaces(monkeypatch) -> list:
    """Record each row reduction that rounding runs, one per pivot choice."""
    calls = []
    real = sdp_search._affine_space

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdp_search, "_affine_space", counted)
    return calls


class TestSearchPlan:
    def test_built_once_and_read_by_the_whole_generation(self, monkeypatch):
        """A pattern's plan is built once and shared read-only; with it built,
        a generation builds no pair table, and its only row reductions are
        the rounding's prioritised ones (one per system at 53 bits)."""
        pattern = StepsizePattern.from_text("1.5,4.9,1.5")
        plan = sdp_search._search_plan(pattern)
        assert sdp_search._search_plan(StepsizePattern.from_text("1.5,4.9,1.5")) is plan
        for a in (plan.lam0, plan.gam0, plan.Nl, plan.Ng, plan.BM, plan.Bm, *plan.pos):
            assert not a.flags.writeable
        table = pair_table(pattern)
        assert plan.table == table and plan.systems == _equality_systems(table)
        for got, ref in zip((plan.BM, plan.Bm), _pair_block_maps(table)):
            assert got.tobytes() == ref.tobytes()
        tables = []
        monkeypatch.setattr(sdp_search, "pair_table", lambda h: tables.append(h))
        calls = _count_affine_spaces(monkeypatch)
        cert, report, _ = generate(pattern, F(1, 10 ** 4))
        assert report.overall and not tables and len(calls) == 2


LONG_CERTIFICATES = Path(__file__).resolve().parents[1] / "tools" / "generate_long_certificates.py"
T15_REQUEST = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("long_certificates", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)  # puts src on the path
from lscert.exact_linalg import rat_to_str
plan = tool.PLAN["t15"]
cert, report, eps_min = tool.generate(
    tool.bundled_pattern("t15"), plan["delta"],
    tool.SolveOptions(max_iters=plan["iters"], tol=plan["tol"]), denom_bits=plan["bits"])
print(report.overall, rat_to_str(cert.Delta), eps_min <= cert.epsilon)
"""


def test_t15_generation_verifies_at_one_blas_thread():
    """The t15 request of the benchmark and of the long-certificate tool
    (Delta 1e-6, tol 1e-10, 400 iterations, 80 bits) ends in a verified
    certificate at one BLAS thread; its search sits near its tolerance, so
    a change in the solver's last bits can turn it into NotFound."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", T15_REQUEST, str(LONG_CERTIFICATES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True", "1/1000000", "True"]


def _long_certificate_tool():
    spec = importlib.util.spec_from_file_location("long_certificates", LONG_CERTIFICATES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_long_certificate_tool_exits_1_when_a_certificate_fails(monkeypatch, capsys):
    """The tool's check survives ``python -O``: a report that does not verify
    ends the run with exit status 1, and nothing is written."""
    tool = _long_certificate_tool()
    failed = SimpleNamespace(overall=False, failed_conditions=lambda: ["psd_at_delta"])
    writes = []
    monkeypatch.setattr(tool, "generate", lambda *args, **kwargs: (None, failed, None))
    monkeypatch.setattr(tool, "save_certificate", lambda *args: writes.append(args))
    assert tool.main(["t15"]) == 1 and not writes
    assert "t15: exact verification failed: ['psd_at_delta']" in capsys.readouterr().err


def test_long_certificate_tool_reports_a_failed_search_and_goes_on(monkeypatch, capsys):
    """A NotFound or RoundingFailure from ``generate`` ends no run with a
    traceback: the tool prints the message, the best residuals, the solver
    summary, the time and the peak memory of that id to stderr, goes on to
    the next id, and exits 1 at the end."""
    tool = _long_certificate_tool()
    monkeypatch.setitem(tool.PLAN, "t7", tool.PLAN["t15"])
    cert = SimpleNamespace(epsilon=F(0), pattern=SimpleNamespace(avg_h=F(3)))
    outcomes = iter([
        NotFound("no approximate certificate for t31", residuals={"lambda_nonneg": 7.3e-8},
                 solver={"status": "stalled", "iterations": 88}),
        RoundingFailure("re-pivoting left 1 negative entry"),
        (cert, SimpleNamespace(overall=True), F(0)),
    ])

    def generating(*args, **kwargs):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    writes = []
    monkeypatch.setattr(tool, "generate", generating)
    monkeypatch.setattr(tool, "save_certificate", lambda cert, path: writes.append(path.name))
    assert tool.main(["t31", "t15", "t7"]) == 1
    assert writes == ["t7.json"]
    out, err = capsys.readouterr()
    assert err.splitlines()[:3] == [
        "t31: NotFound: no approximate certificate for t31",
        't31: best residuals: {"lambda_nonneg": 7.3e-08}',
        't31: solver: {"status": "stalled", "iterations": 88}']
    assert "t15: RoundingFailure: re-pivoting left 1 negative entry" in err
    for pid in ("t31", "t15"):
        assert re.search(rf"^{pid}: no certificate written \[\d+s, peak RSS \d+ MB\]$", err,
                         re.MULTILINE)
    assert "t7: verified exactly" in out and "Traceback" not in err


def test_t15_search_holds_one_copy_of_its_problem(monkeypatch):
    """A t15 search (the tool's settings, plan prebuilt) allocates at its
    peak at most 3.5 times its dense problem matrix A (6.1 MB): A itself,
    the Schur data and one set of per-iteration factors. Holding the row
    blocks next to A, or two iterations' Schur matrices at once, reads
    about 4.5 times."""
    pattern = bundled_pattern("t15")
    sdp_search._search_plan(pattern)
    sizes = []
    real = sdp_search.solve_conic

    def recording(A, *args, **kwargs):
        sizes.append(A.nbytes)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(sdp_search, "solve_conic", recording)
    tracing = tracemalloc.is_tracing()  # as under python -X tracemalloc
    tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        with contextlib.suppress(NotFound):  # the ending is not in question here
            solve_approx(pattern, 1e-6, SearchOptions(max_iters=400, tol=1e-10))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    (a_bytes,) = sizes
    assert peak <= 3.5 * a_bytes, f"peak {peak / a_bytes:.2f} x A"


class TestRounding:
    def test_fixed_point_on_exact_dyadic_input(self):
        # the alternating family at eta = 1 is dyadic-valued and exactly feasible
        cert = two_step_certificate(F(1), F(1, 16))
        lam = np.array([[float(v) for v in cert.lam.row(i)] for i in range(4)])
        gam = np.array([[float(v) for v in cert.gam.row(i)] for i in range(4)])
        fc = FloatCertificate(pattern=cert.pattern, Delta=float(cert.Delta),
                              lam=lam, gam=gam)
        rounded = round_to_exact(fc, 53, exact_delta=cert.Delta)
        assert rounded.lam == cert.lam
        assert rounded.gam == cert.gam

    @pytest.mark.parametrize("bits", [0, -5])
    def test_refuses_denom_bits_below_one(self, bits):
        # at these values every entry up to 2^3 snapped to zero: an eps = 1 pair
        approx = solve_approx(StepsizePattern((F(1),)), 0.01)
        with pytest.raises(PreconditionError, match=f"denom_bits={bits}"):
            round_to_exact(approx, bits, exact_delta=F(1, 100))

    def test_negative_pivot_is_demoted(self, monkeypatch):
        # at 10 bits one lambda pivot of this point solves negative: it is
        # demoted to a free coordinate and the system re-pivoted once, so
        # rounding runs 3 row reductions instead of 2
        approx = solve_approx(StepsizePattern.from_text("1.5,4.9,1.5"), 1e-4)
        calls = _count_affine_spaces(monkeypatch)
        cert = round_to_exact(approx, 10, exact_delta=F(1, 10 ** 4))
        assert len(calls) == 3
        eps_min = sdp_search._eps_min(cert)
        assert float(eps_min) == pytest.approx(2.45e-2, rel=1e-2)
        assert check_membership(cert.with_epsilon(eps_min)).overall

    def test_repivots_give_up_after_eight(self, monkeypatch):
        # at 128 bits the snap threshold 2^-64 is below the solver's noise: a
        # boundary lambda entry stays negative whichever pivots are chosen
        approx = solve_approx(StepsizePattern.from_text("2.9,1.5"), 1e-3)
        calls = _count_affine_spaces(monkeypatch)
        with pytest.raises(RoundingFailure, match="re-pivoting left 1 negative lambda entries"):
            round_to_exact(approx, 128, exact_delta=F(1, 1000))
        assert len(calls) == 8

    @pytest.mark.parametrize("em,tidy", [
        (F(-1, 3), F(0)), (F(0), F(0)), (F(3, 10 ** 5), F(3, 10 ** 5)),
        (F(31, 10 ** 6), F(4, 10 ** 5)), (F(1), F(1)), (F(23, 10), F(3)), (F(250), F(300)),
    ])
    def test_tidy_eps_ceiling(self, em, tidy):
        assert sdp_search._tidy_eps_ceiling(em) == tidy

    def test_free_entries_are_dyadic(self):
        h = StepsizePattern.from_text("2.9,1.5")
        cert, _, _ = generate(h, F(1, 1000), denom_bits=53)
        dyadic = 0
        for i in range(cert.lam.rows):
            for j in range(cert.lam.cols):
                den = cert.lam.entry(i, j).denominator
                if den & (den - 1) == 0:
                    dyadic += 1
        # every entry outside the exactly-solved pivot set is dyadic
        assert dyadic >= cert.lam.rows * cert.lam.cols - 8


class TestGenerate:
    @pytest.mark.parametrize("text,delta,floor", [
        ("1", F(1, 100), F(1)),
        ("2.9,1.5", F(1, 1000), F(11, 5)),
        ("1.5,4.9,1.5", F(1, 10000), F(79, 30)),
    ])
    def test_pipeline(self, text, delta, floor):
        pattern = StepsizePattern.from_text(text)
        cert, report, eps_min = generate(pattern, delta)
        assert report.overall
        assert eps_min <= F(1, 10 ** 6)
        assert cert.Delta == delta
        assert cert.pattern.avg_h - cert.epsilon >= floor - F(1, 10 ** 6)
        # soundness gate: the returned report is the exact verifier's
        assert check_membership(cert).overall

    def test_delta_cap_decided_exactly(self, monkeypatch):
        # 5/44 = 1/(2 sum h) for h = (2.9, 1.5); a Delta just past it is
        # refused before any solve, although its float passes the float check
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called on a refused input")

        monkeypatch.setattr(sdp_search, "solve_conic", no_solve)
        h = StepsizePattern.from_text("2.9,1.5")
        delta = F(5, 44) + F(1, 10 ** 18)
        assert float(delta) <= 1.0 / (2.0 * float(h.sum_h)) + 1e-15
        with pytest.raises(PreconditionError, match="exceeds"):
            generate(h, delta)

    def test_one_rung_builds_one_operator(self, monkeypatch):
        # the final certificate and its report reuse the operator and the
        # eliminations of the eps = 0 probe: one M_rows call per multiplier
        calls = []
        real = lscert.pep_builder.M_rows

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lscert.pep_builder, "M_rows", counted)
        cert, report, _ = generate(StepsizePattern.from_text("2.9,1.5"), F(1, 1000),
                                   denom_bits=53)
        assert len(calls) == 2
        fresh = Certificate(cert.pattern, cert.Delta, cert.epsilon, cert.lam, cert.gam)
        assert report == check_membership(fresh)

    def test_falls_through_to_the_next_rung(self, monkeypatch):
        # the 4-bit rung admits no finite epsilon, so the 53-bit rung decides
        rungs = []
        real = sdp_search.round_to_exact

        def spy(approx, denom_bits, exact_delta=None):
            rungs.append(denom_bits)
            return real(approx, denom_bits, exact_delta=exact_delta)

        h = StepsizePattern.from_text("2.9,1.5")
        at_53, _, _ = generate(h, F(1, 1000), denom_bits=53)
        monkeypatch.setattr(sdp_search, "DENOM_BITS_LADDER", (4, 53))
        monkeypatch.setattr(sdp_search, "round_to_exact", spy)
        cert, report, _ = generate(h, F(1, 1000))
        assert rungs == [4, 53]
        assert report.overall and cert == at_53

    @pytest.mark.parametrize("bits,message", [
        (4, "rounded pair admits no finite epsilon"),
        (128, "re-pivoting left 1 negative lambda entries"),
    ])
    def test_last_rung_failure_raises(self, bits, message):
        with pytest.raises(RoundingFailure, match=message):
            generate(StepsizePattern.from_text("2.9,1.5"), F(1, 1000), denom_bits=bits)

    @pytest.mark.parametrize("bits", [0, -5])
    def test_denom_bits_below_one_refused_before_the_solve(self, monkeypatch, bits):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called on a refused input")

        monkeypatch.setattr(sdp_search, "solve_conic", no_solve)
        with pytest.raises(PreconditionError, match=f"denom_bits={bits}"):
            generate(StepsizePattern((F(1),)), F(1, 100), denom_bits=bits)

    def test_generation_scale_cap(self):
        big = StepsizePattern((F(1),) * 40)
        with pytest.raises(PreconditionError):
            generate(big, F(1, 1000))

    def test_one_scale_cap_for_every_float_solve(self, monkeypatch):
        # refused before any matrix is built: a t63 search matrix alone is ~1.6 GB
        monkeypatch.setattr(sdp_search, "pair_table", None)
        for solve in (lambda h: solve_approx(h, 1e-7), lambda h: evaluate_primal(h, 1e-7)):
            with pytest.raises(PreconditionError, match=r"t <= 31"):
                solve(bundled_pattern("t63"))


class TestEvaluatePrimal:
    def test_unit_pattern_descent(self):
        pv = evaluate_primal(StepsizePattern((F(1),)), 0.1)
        assert pv.value <= 0.1 - 0.1 ** 2 + 1e-6
        assert pv.numerical_rank == 1

    def test_zero_gap(self):
        pv = evaluate_primal(StepsizePattern((F(1),)), 0.0)
        assert abs(pv.value) <= 1e-6

    def test_two_step_bound_and_rank(self):
        pv = evaluate_primal(StepsizePattern.from_text("2.9,1.5"), 1e-3)
        assert pv.value <= 1e-3 - 4.4 * 1e-6 + 1e-6
        assert pv.numerical_rank == 1
        e = pv.gram_eigenvalues
        assert e[-2] < 1e-6 * e[-1]

    def test_duality_sandwich(self):
        h = StepsizePattern.from_text("2.9,1.5")
        cert, _, eps_min = generate(h, F(1, 1000))
        sum_eff = float(h.sum_h - h.t * max(eps_min, 0))
        for delta in (1e-3, 1e-2):
            pv = evaluate_primal(h, delta)
            assert pv.value <= delta - sum_eff * delta ** 2 + 1e-7

    def test_negative_delta_rejected(self):
        with pytest.raises(PreconditionError):
            evaluate_primal(StepsizePattern((F(1),)), -0.1)
