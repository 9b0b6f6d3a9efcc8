import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lscert import bundled
from lscert.rates import (
    GrowthSpec,
    ProblemScale,
    RateGuarantee,
    UnsupportedRegimeError,
    _least_done,
    bound_at,
    compute_sbar,
    holder_bound,
    pow_upper,
    rate_guarantee,
)
from oracles import bound_192, doubling_sbar

F = Fraction

T7_SUM = F("22.4")
T7_DELTA = F(1, 10 ** 5)
T7_EPS = F(1, 10 ** 9)
UNIT = ProblemScale(F(1), F(1), F(1))


def t7_guarantee(scale=UNIT) -> RateGuarantee:
    return rate_guarantee(scale, T7_SUM, 7, T7_EPS, T7_DELTA)


class TestComputeSbar:
    def test_at_threshold(self):
        sc = ProblemScale(F(1), F(1), T7_DELTA)  # f0gap = L D^2 Delta
        assert compute_sbar(sc, T7_SUM, T7_DELTA) == 0

    def test_below_threshold(self):
        # one contraction below the threshold: already in the sublinear phase
        f0 = T7_DELTA * (1 - T7_SUM * T7_DELTA)
        sc = ProblemScale(F(1), F(1), f0)
        assert compute_sbar(sc, T7_SUM, T7_DELTA) == 0

    def test_just_above_threshold(self):
        sc = ProblemScale(F(1), F(1), T7_DELTA * F(1000001, 1000000))
        assert compute_sbar(sc, T7_SUM, T7_DELTA) == 1

    def test_against_brute_force_contraction(self):
        # independent oracle: repeatedly apply the contraction factor until
        # the gap drops below L D^2 Delta (float drift ~5e-12 per unit is far
        # below the 2.24e-4 per-step decrement, so the count is trustworthy)
        B = float(1 - T7_SUM * T7_DELTA)
        gap, s = 1.0, 0
        while gap > float(T7_DELTA):
            gap *= B
            s += 1
        assert s == 51392
        assert compute_sbar(UNIT, T7_SUM, T7_DELTA) == s

    def test_zero_gap(self):
        sc = ProblemScale(F(1), F(1), F(0))
        assert compute_sbar(sc, T7_SUM, T7_DELTA) == 0

    def test_vacuous_contraction_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            compute_sbar(UNIT, F(4), F(1, 2))

    def test_exact_power_boundary(self):
        # f0gap = threshold / B^5 exactly: needs exactly 5 applications
        S, D = F(3), F(1, 100)
        B = 1 - S * D
        sc = ProblemScale(F(1), F(1), D / B ** 5)
        assert compute_sbar(sc, S, D) == 5

    def test_pow_upper_is_upper(self):
        B = 1 - T7_SUM * T7_DELTA
        for s in (1, 3, 17, 64):
            assert pow_upper(B, s) >= B ** s
        assert pow_upper(B, 0) == 1


class TestBoundAt:
    def test_contraction_branch_at_boundary(self):
        from lscert.rates import _pow_fixed
        g = t7_guarantee()
        v = bound_at(g.s_bar * 7, UNIT, g)
        # upper-rounded contraction power, still below the threshold region
        assert v <= T7_DELTA * (1 + F(1, 10 ** 12))
        lo = F(_pow_fixed(g.contraction_factor, g.s_bar, 192, up=False), 1 << 192)
        assert v >= lo  # the reported value upper-bounds the exact power

    def test_sublinear_value_7000_steps_past_crossover(self):
        g = t7_guarantee()
        T = (g.s_bar + 1000) * 7
        v = bound_at(T, UNIT, g)
        expect = UNIT.ld2 / ((T7_SUM / 7 - T7_EPS) * 7000 + 10 ** 5)
        assert v == expect
        assert float(v) == pytest.approx(8.16993464099011e-06, rel=1e-12)

    def test_phase_switch_is_continuous_in_spirit(self):
        g = t7_guarantee()
        sub = bound_at((g.s_bar + 1) * 7, UNIT, g)
        con = bound_at(g.s_bar * 7, UNIT, g)
        assert sub <= con * (1 + (T7_SUM * T7_DELTA) ** 2)

    def test_monotone_within_phases(self):
        g = t7_guarantee()
        contraction = [bound_at(s * 7, UNIT, g) for s in (1, 10, 100, g.s_bar)]
        assert all(a >= b for a, b in zip(contraction, contraction[1:]))
        sub = [bound_at(s * 7, UNIT, g) for s in
               (g.s_bar + 1, g.s_bar + 10, g.s_bar + 1000)]
        assert all(a > b for a, b in zip(sub, sub[1:]))

    def test_asymptotic_limit(self):
        g = t7_guarantee()
        avg = g.avg_minus_eps
        tail_needed = int(100 / (avg * g.Delta)) + 1
        s = g.s_bar + (tail_needed // 7) + 1
        T = s * 7
        v = bound_at(T, UNIT, g)
        ratio = v * avg * (T - g.s_bar * 7) / UNIT.ld2
        assert abs(ratio - 1) < F(1, 100)

    def test_scaling_covariance(self):
        g1 = t7_guarantee()
        scale4 = ProblemScale(F(2), F("1.5"), F(1) * 2 * F("1.5") ** 2)
        g4 = rate_guarantee(scale4, T7_SUM, 7, T7_EPS, T7_DELTA)
        assert g4.s_bar == g1.s_bar  # f0gap scaled with L D^2
        T = (g1.s_bar + 12) * 7
        assert bound_at(T, scale4, g4) == bound_at(T, UNIT, g1) * 2 * F("1.5") ** 2

    def test_requires_multiple_of_t(self):
        g = t7_guarantee()
        with pytest.raises(ValueError):
            bound_at(10, UNIT, g)

    def test_one_dimensional_map_never_exceeds_bound(self):
        # worst-case gap recurrence delta' = delta - sum(h) delta^2 with
        # delta0 <= L D^2 Delta stays below the sublinear bound at every step;
        # the iterate is rounded upward to 256-bit fixed point so the exact
        # comparison stays cheap while remaining a valid upper bound
        sc = ProblemScale(F(1), F(1), T7_DELTA)
        g = rate_guarantee(sc, T7_SUM, 7, F(0), T7_DELTA)
        assert g.s_bar == 0
        scale = 1 << 256
        delta = T7_DELTA
        for s in range(1, 200):
            nxt = delta - T7_SUM * delta * delta
            delta = F(-((-nxt.numerator * scale) // nxt.denominator), scale)
            assert delta <= bound_at(s * 7, sc, g)


class TestHolderBound:
    def test_q4_closed_form(self):
        # avg - eps = 3.2 and a tail of 100 steps: 4 * (1/(2*3.2*100))^2
        g = RateGuarantee(F(320), 100, T7_DELTA, s_bar=0)
        v = holder_bound(100, UNIT, g, GrowthSpec(F(4), F(1)))
        assert v == pytest.approx(4 / 409600, rel=1e-12)

    def test_q2_regime_guard(self):
        g = RateGuarantee(F("22.4"), 7, T7_DELTA, s_bar=0)
        with pytest.raises(UnsupportedRegimeError):
            holder_bound(70, UNIT, g, GrowthSpec(F(2), F(1, 10)))

    def test_q2_vanishing_mu_recovers_threshold(self):
        g = RateGuarantee(F("22.4"), 7, T7_DELTA, s_bar=0)
        v = holder_bound(70, UNIT, g, GrowthSpec(F(2), F(1, 10 ** 12)))
        assert v == pytest.approx(float(UNIT.ld2 * T7_DELTA), rel=1e-9)

    def test_q2_linear_rate(self):
        g = RateGuarantee(F(1), 1, F(1, 100), s_bar=0)  # h=(1) style
        growth = GrowthSpec(F(2), F(1, 2))  # mu*avg*t/(2L) = 1/4
        v10 = holder_bound(10, UNIT, g, growth)
        v20 = holder_bound(20, UNIT, g, growth)
        assert v20 == pytest.approx(v10 * 0.75 ** 10, rel=1e-9)

    def test_contraction_phase_redirects(self):
        g = RateGuarantee(F("22.4"), 7, T7_DELTA, s_bar=10)
        with pytest.raises(UnsupportedRegimeError) as ei:
            holder_bound(70, UNIT, g, GrowthSpec(F(4), F(1)))
        assert "bound_at" in str(ei.value)

    def test_growth_spec_validation(self):
        with pytest.raises(ValueError):
            GrowthSpec(F(3, 2), F(1))
        with pytest.raises(ValueError):
            GrowthSpec(F(2), F(0))


# --- s_bar and bound_at against the doubling-and-bisection algorithm ---------

REGISTRY = {pid: (bundled.bundled_pattern(pid), bundled.bundled_pattern_meta(pid))
            for pid in bundled.pattern_ids()}
PIDS = sorted(REGISTRY)
SEARCH = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def registry_sum_delta(pid: str) -> tuple[Fraction, Fraction]:
    """sum(h_i - eps) and Delta of a registry pattern."""
    pattern, meta = REGISTRY[pid]
    return pattern.sum_h - pattern.t * meta["epsilon"], meta["delta"]


# L, D and f0gap as the simulate-rates workload draws them
WORKLOAD_SCALES = st.builds(
    lambda L, D, f0: ProblemScale(F(L, 100), F(D, 100), F(f0, 100)),
    st.integers(1, 10 ** 4 - 1), st.integers(1, 10 ** 3 - 1), st.integers(1, 10 ** 8 - 1))


def sbar_or_refusal(fn, scale, S, Delta):
    try:
        return fn(scale, S, Delta)
    except UnsupportedRegimeError:
        return "unsupported"


class TestLeastDone:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(cap=st.integers(1, 1 << 62), data=st.data())
    def test_least_done_of_any_threshold(self, cap, data):
        answer = data.draw(st.integers(1, cap + 1), "answer")  # cap + 1: never done
        near = st.integers(max(1, answer - 3), min(cap, answer + 3))
        guess = data.draw(st.one_of(near, st.integers(1, cap)), "guess")
        calls = []

        def done(s):
            assert 1 <= s <= cap and len(calls) < 300  # a search that loops fails here
            calls.append(s)
            return s >= answer

        assert _least_done(done, guess, cap) == (answer if answer <= cap else None)
        if guess == answer:
            assert len(calls) <= 2
        assert len(calls) <= 2 * abs(guess - answer).bit_length() + 3


class TestSbarAgainstDoubling:
    @SEARCH
    @given(pid=st.sampled_from(PIDS), scale=WORKLOAD_SCALES)
    def test_workload_queries(self, pid, scale):
        S, Delta = registry_sum_delta(pid)
        assert compute_sbar(scale, S, Delta) == doubling_sbar(scale, S, Delta)

    @SEARCH
    @given(pid=st.sampled_from(PIDS), scale=WORKLOAD_SCALES, num=st.integers(0, 1000),
           den=st.integers(1, 1000))
    def test_at_or_below_threshold(self, pid, scale, num, den):
        S, Delta = registry_sum_delta(pid)
        low = ProblemScale(scale.L, scale.D, scale.ld2 * Delta * F(min(num, den), den))
        assert compute_sbar(low, S, Delta) == doubling_sbar(low, S, Delta) == 0

    @SEARCH
    @given(pid=st.sampled_from(PIDS), scale=WORKLOAD_SCALES, k=st.integers(1, 400))
    def test_ratio_an_exact_power(self, pid, scale, k):
        # f0gap = L D^2 Delta / B^k: B^k equals the target, so s_bar is k
        S, Delta = registry_sum_delta(pid)
        exact = ProblemScale(scale.L, scale.D, scale.ld2 * Delta / (1 - S * Delta) ** k)
        assert compute_sbar(exact, S, Delta) == doubling_sbar(exact, S, Delta) == k

    @SEARCH
    @given(scale=WORKLOAD_SCALES, digits=st.integers(1, 24), mult=st.integers(1, 9),
           near_one=st.booleans(), delta_den=st.integers(2, 10 ** 6))
    def test_contraction_near_one_and_near_zero(self, scale, digits, mult, near_one,
                                                delta_den):
        # S Delta = 1 - m 10^-j or m 10^-j; from j = 18 on s_bar passes 2^62
        small = F(mult, 10 ** digits)
        Delta = F(1, delta_den)
        S = (1 - small if near_one else small) / Delta
        assert (sbar_or_refusal(compute_sbar, scale, S, Delta)
                == sbar_or_refusal(doubling_sbar, scale, S, Delta))

    def test_cap_refused(self):
        S, Delta = F(1, 10 ** 20), F(1, 2)
        for fn in (compute_sbar, doubling_sbar):
            with pytest.raises(UnsupportedRegimeError, match="2\\^62"):
                fn(UNIT, S, Delta)


class TestBoundAtAgainstParent:
    def test_seeded_workload_queries(self):
        # the bounds a rate request returns, query by query, as the workload draws them
        rng = random.Random(7919)
        for _ in range(40):
            scale = ProblemScale(F(rng.randrange(1, 10 ** 4), 100),
                                 F(rng.randrange(1, 10 ** 3), 100),
                                 F(rng.randrange(1, 10 ** 8), 100))
            ks = sorted({max(1, int(10 ** rng.uniform(0, 8))) for _ in range(8)})
            for pid in PIDS:
                pattern, meta = REGISTRY[pid]
                g = rate_guarantee(scale, pattern.sum_h, pattern.t, meta["epsilon"],
                                   meta["delta"])
                assert g.s_bar == doubling_sbar(scale, g.sum_h_minus_eps, g.Delta)
                for k in ks + [g.s_bar, g.s_bar + 1]:
                    if k >= 1:
                        T = k * pattern.t
                        assert bound_at(T, scale, g) == bound_192(T, scale, g)


class TestLargeRatios:
    @pytest.mark.parametrize("digits", [225, 400])
    @pytest.mark.parametrize("pid", PIDS)
    def test_sbar_and_crossover_bound(self, pid, digits):
        # f0gap / (L D^2 Delta) = 10^digits, far below the 2^-768 floor of an
        # absolute fixed-point resolution
        pattern, meta = REGISTRY[pid]
        t, Delta = pattern.t, meta["delta"]
        scale = ProblemScale(F(1), F(1), Delta * 10 ** digits)
        g = rate_guarantee(scale, pattern.sum_h, t, meta["epsilon"], Delta)
        v = bound_at(g.s_bar * t, scale, g)
        assert v <= scale.ld2 * Delta

        def mp(q: Fraction):
            return mpmath.mpf(q.numerator) / q.denominator

        with mpmath.workdps(600):
            B = mp(g.contraction_factor)
            assert g.s_bar == int(mpmath.ceil(mpmath.log(mpmath.mpf(10) ** -digits)
                                              / mpmath.log(B)))
            # an upper bound on the exact power, to about 96 significant bits
            exact = B ** g.s_bar * mp(scale.f0gap)
            assert exact <= mp(v) <= exact * (1 + mpmath.mpf(2) ** -90)
