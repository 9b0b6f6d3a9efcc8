"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from lscert.bundled import (
    bundled_certificate,
    bundled_pattern,
    certificate_ids,
    pattern_ids,
)
from lscert.certificate import check_membership, guarantee_of
from lscert.exact_linalg import rref
from lscert.gd_lab import (
    gen_least_squares,
    is_monotone_decreasing,
    kink_descent_gap,
    one_d_worstcase,
    run_gd,
)
from lscert.pep_builder import StepsizePattern
from lscert.rates import ProblemScale, bound_at, rate_guarantee
from lscert.sdp_search import evaluate_primal, generate
from lscert.two_step import bisect_dyadic_delta, two_step_certificate
from oracles import matvec, psd_blocks

F = Fraction
ETAS = (F(1, 2), F(1), F(2))


def ok(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


@pytest.fixture(scope="module")
def pipeline_results():
    """Criterion-4 pipeline runs, shared with the duality checks."""
    out = {}
    for text, delta in (("1", F(1, 100)), ("2.9,1.5", F(1, 1000)),
                        ("1.5,4.9,1.5", F(1, 10000))):
        pattern = StepsizePattern.from_text(text)
        started = time.monotonic()
        cert, report, eps_min = generate(pattern, delta)
        out[text] = (cert, report, eps_min, time.monotonic() - started)
    return out


class TestCriterion1ExactVerification:
    @pytest.mark.parametrize("eta", ETAS, ids=[f"eta={e}" for e in ETAS])
    def test_a_two_step_family(self, eta):
        started = time.monotonic()
        delta = bisect_dyadic_delta(eta)
        assert delta.denominator & (delta.denominator - 1) == 0  # dyadic
        assert delta <= 1 / (6 - eta)
        cert = two_step_certificate(eta, delta)
        assert check_membership(cert).overall  # exact, zero tolerance
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok(f"criterion 1a: two-step family at eta={eta} verified exactly at "
           f"dyadic Delta={delta} ({elapsed:.2f}s)")

    def test_b_three_step(self):
        started = time.monotonic()
        cert = bundled_certificate("t3")
        assert cert.Delta == F(1, 10 ** 4) and cert.epsilon == 0
        assert check_membership(cert).overall
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok(f"criterion 1b: three-step certificate verified exactly at "
           f"Delta=1e-4, eps=0 ({elapsed:.2f}s)")

    def test_c_seven_step(self):
        started = time.monotonic()
        cert = bundled_certificate("t7")
        assert cert.Delta == F(1, 10 ** 5) and cert.epsilon == F(1, 10 ** 9)
        assert check_membership(cert).overall
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        ok(f"criterion 1c: seven-step certificate verified exactly at "
           f"Delta=1e-5, eps=1e-9 ({elapsed:.2f}s)")


class TestCriterion2RateCoefficients:
    @pytest.mark.parametrize("eta", ETAS, ids=[f"eta={e}" for e in ETAS])
    def test_two_step_family_coefficient(self, eta):
        cert = two_step_certificate(eta)
        g = guarantee_of(cert, check_membership(cert))
        assert g.avg_minus_eps == F(9, 4) - eta / 2  # printed as 2.25 - eta/2
        ok(f"criterion 2: two-step coefficient at eta={eta} is exactly "
           f"{g.avg_minus_eps} = 2.25 - eta/2")

    def test_three_step_coefficient(self):
        cert = bundled_certificate("t3")
        g = guarantee_of(cert, check_membership(cert))
        assert g.avg_minus_eps == F(79, 30)
        assert f"{float(g.avg_minus_eps):.5f}" == "2.63333"
        ok("criterion 2: three-step coefficient is exactly 79/30 = 2.6333...")

    def test_seven_step_coefficient(self):
        cert = bundled_certificate("t7")
        g = guarantee_of(cert, check_membership(cert))
        assert g.avg_minus_eps == F(16, 5) - F(1, 10 ** 9)
        # exact decimal expansion 3.199999999: truncates to the printed 3.1999999
        digits = g.avg_minus_eps.numerator * 10 ** 9 // g.avg_minus_eps.denominator
        assert str(digits) == "3199999999"
        ok("criterion 2: seven-step coefficient is exactly 16/5 - 1e-9 = 3.1999999...")


class TestCriterion3BoundarySpectra:
    @pytest.mark.parametrize("eta", ETAS, ids=[f"eta={e}" for e in ETAS])
    def test_two_zero_eigenvalues_with_known_null_space(self, eta):
        cert = two_step_certificate(eta)
        X0, _ = psd_blocks(cert)
        v1 = (F(1, 2), F(1, 2), F(1), F(0))
        v2 = (F(1, 2), F(1, 2), F(0), F(1))
        assert matvec(X0, v1) == (F(0),) * 4
        assert matvec(X0, v2) == (F(0),) * 4
        _, pivots = rref(X0)
        assert len(pivots) == 2  # rank 2: exactly two zero eigenvalues
        ok(f"criterion 3: first PSD block at eta={eta} has exactly two zero "
           "eigenvalues with null space spanned by (1/2,1/2,1,0), (1/2,1/2,0,1)")


class TestCriterion4PipelineSoundness:
    def test_pipeline(self, pipeline_results):
        for text, (cert, report, eps_min, elapsed) in pipeline_results.items():
            assert report.overall
            assert check_membership(cert).overall  # exact re-verification
            assert eps_min <= F(1, 10 ** 6)
            assert elapsed < 60.0
            ok(f"criterion 4: generate h=({text}) -> exactly verified, "
               f"eps_min={float(eps_min):.2e} <= 1e-6 ({elapsed:.1f}s)")


class TestCriterion5OneDimensionalOracle:
    def test_explicit_simulation_matches_recurrence(self):
        delta0 = F(1, 1000)
        for pid in pattern_ids():
            pattern = bundled_pattern(pid)
            seq = one_d_worstcase(delta0, pattern, periods=3)
            d = delta0
            for s in range(3):
                d = kink_descent_gap(d, pattern)  # explicit subgradient steps
                assert d == seq[s + 1]            # exact rational equality
        ok(f"criterion 5: explicit 1-D simulation matches the gap recurrence "
           f"exactly for all {len(pattern_ids())} bundled patterns at delta0=1e-3")


class TestCriterion6WeakDualitySandwich:
    @pytest.mark.parametrize("text", ["1", "2.9,1.5"])
    def test_sandwich_and_rank(self, text, pipeline_results):
        pattern = StepsizePattern.from_text(text)
        _, _, eps_min, _ = pipeline_results[text]
        sum_eff = float(pattern.sum_h - pattern.t * max(eps_min, 0))
        for delta in (1e-3, 1e-2):
            pv = evaluate_primal(pattern, delta)
            bound = delta - sum_eff * delta ** 2 + 1e-5
            assert pv.value <= bound
            e = pv.gram_eigenvalues
            assert e[-2] < 1e-6 * e[-1]  # numerically rank one
        ok(f"criterion 6: primal SDP value for h=({text}) stays below the "
           "certified parabola (+1e-5) with rank-one optimal Gram matrix")


class TestCriterion7TrajectoryOrdering:
    def test_figure_scale_ordering(self):
        started = time.monotonic()
        prob = gen_least_squares(200, 42, ridge=False)
        finals = {}
        for pid in ("const1", "t2", "t3", "t7", "t15"):
            pattern = bundled_pattern(pid)
            rec = run_gd(prob, pattern, 2000, pattern_id=pid)
            finals[pid] = (float(pattern.avg_h), float(rec.gaps[-1]))
        by_avg = sorted(finals.values())
        gaps = [g for _, g in by_avg]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))  # strictly ordered

        rec7 = run_gd(prob, bundled_pattern("t7"), 2000)
        nonmono = any(
            not is_monotone_decreasing(rec7.gaps[s * 7:(s + 1) * 7 + 1])
            for s in range(2000 // 7))
        assert nonmono
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        ok("criterion 7: final gaps at n=200, seed=42, T=2000 are strictly "
           f"ordered by avg(h), and the t=7 run oscillates within a period "
           f"({elapsed:.1f}s)")


class TestCriterion8RateFormulaSafety:
    def test_realized_gaps_below_bound(self):
        # fixed instance: ridge least squares, n=50 (seed pinned for determinism)
        prob = gen_least_squares(50, 0, ridge=True)
        D = float(np.linalg.norm(prob.x_star))  # x0 = 0
        checked = 0
        for pid in certificate_ids():
            cert = bundled_certificate(pid)
            pattern, t = cert.pattern, cert.pattern.t
            threshold = prob.L * D * D * float(cert.Delta)
            periods = max(400, int(4000 / t))
            rec = run_gd(prob, pattern, periods * t, pattern_id=pid)
            boundary_gaps = rec.gaps[::t]
            anchor = next(
                (i for i, v in enumerate(boundary_gaps) if v <= threshold), None)
            assert anchor is not None, f"{pid}: trajectory never reached L D^2 Delta"
            scale = ProblemScale(F(prob.L), F(D),
                                 F(max(float(boundary_gaps[anchor]), 0.0)))
            g = rate_guarantee(scale, pattern.sum_h, t, cert.epsilon, cert.Delta)
            assert g.s_bar == 0
            for k in range(1, len(boundary_gaps) - anchor):
                realized = boundary_gaps[anchor + k]
                if realized <= 0:
                    break  # at float resolution of the gap
                allowed = float(bound_at(k * t, scale, g)) * (1 + 1e-10)
                assert realized <= allowed, (
                    f"{pid}: gap {realized:.3e} above bound {allowed:.3e} "
                    f"at {k} pattern applications past the anchor")
            checked += 1
        assert checked >= 3
        ok(f"criterion 8: realized ridge-least-squares gaps stay below the "
           f"certified bound past the threshold for all {checked} bundled "
           "verified patterns (rel. tolerance 1e-10)")
