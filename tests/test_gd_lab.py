from fractions import Fraction

import numpy as np
import pytest

from lscert.bundled import bundled_pattern
from lscert.gd_lab import (
    DivergedError,
    _box_muller_normals,
    SmoothProblem,
    TrajectoryRecord,
    emit_csv,
    gen_least_squares,
    is_monotone_decreasing,
    kink_descent_gap,
    one_d_worstcase,
    run_gd,
    worstcase_gap_threshold,
)
from lscert.pep_builder import StepsizePattern

F = Fraction


def quadratic_1d() -> SmoothProblem:
    return SmoothProblem(
        n=1,
        oracle=lambda x: (float(0.5 * np.dot(x, x)), x.copy()),  # overflows to inf, not OverflowError
        L=1.0,
        f_star=0.0,
        x_star=np.zeros(1),
    )


class TestRunGd:
    def test_unit_step_hits_minimizer(self):
        rec = run_gd(quadratic_1d(), StepsizePattern((F(1),)), 1, x0=np.ones(1))
        assert rec.gaps[1] == 0.0

    def test_long_step_overshoots_then_recovers(self):
        rec = run_gd(quadratic_1d(), StepsizePattern.from_text("2.9,1.5"), 2,
                     x0=np.ones(1))
        # x1 = 1 - 2.9 = -1.9: the objective INCREASES before it decreases
        assert rec.gaps[1] == pytest.approx(1.805, abs=1e-15)
        assert rec.gaps[1] > rec.gaps[0]
        # x2 = -1.9 + 1.5*1.9 = 0.95
        assert rec.gaps[2] == pytest.approx(0.45125, abs=1e-15)

    def test_diverges_with_wrong_smoothness(self):
        bad = quadratic_1d()
        bad.L = 1.0  # true curvature is 1; a 1000x step diverges
        with pytest.raises(DivergedError) as ei:
            run_gd(bad, StepsizePattern((F(1000),)), 2000, x0=np.ones(1))
        assert ei.value.iterate >= 1

    def test_record_length(self):
        rec = run_gd(quadratic_1d(), StepsizePattern((F(1, 2),)), 7, x0=np.ones(1))
        assert len(rec.gaps) == 8

    def test_gap_floor_enforced(self):
        with pytest.raises(ValueError):
            TrajectoryRecord(gaps=np.array([1.0, -0.5]), pattern_id="x",
                             seed=0, T=1, L=1.0)


def three_call_gaps(objective, gradient, L, f_star, pattern, T, x0) -> np.ndarray:
    """run_gd's loop with the objective and the gradient evaluated apart:
    three matrix-vector products per least-squares step."""
    steps = [float(h) / L for h in pattern.h]
    x = np.array(x0, dtype=float)
    gaps = [objective(x) - f_star]
    for k in range(T):
        g = gradient(x)
        if not np.all(np.isfinite(g)):
            raise DivergedError(k)
        x = x - steps[k % pattern.t] * g
        val = objective(x)
        if not np.isfinite(val):
            raise DivergedError(k + 1)
        gaps.append(val - f_star)
    return np.array(gaps)


def least_squares_parts(n: int, seed: int, ridge: bool):
    """The objective and the gradient of gen_least_squares(n, seed, ridge),
    each forming its own residual."""
    z = _box_muller_normals(np.random.Generator(np.random.PCG64(seed)), n * n + n)
    A, b = z[: n * n].reshape(n, n), z[n * n:]

    def objective(x):
        r = A @ x - b
        return float(r @ r) + (float(x @ x) if ridge else 0.0)

    def gradient(x):
        g = 2.0 * (A.T @ (A @ x - b))
        return g + 2.0 * x if ridge else g

    return objective, gradient


def half_square(x):
    return float(0.5 * np.dot(x, x))


def capped_identity(x):
    return x.copy() if np.all(np.abs(x) < 1e10) else np.full_like(x, np.nan)


class TestOneOraclePerIterate:
    @pytest.mark.parametrize("ridge", [False, True])
    @pytest.mark.parametrize("pid", ["const1", "t7", "t127"])
    def test_gaps_bit_equal_to_separate_calls(self, pid, ridge):
        n, T = 60, 400
        prob = gen_least_squares(n, 5, ridge)
        objective, gradient = least_squares_parts(n, 5, ridge)
        assert prob.f_star == objective(prob.x_star)
        pattern = bundled_pattern(pid)
        ref = three_call_gaps(objective, gradient, prob.L, prob.f_star, pattern, T,
                              np.zeros(n))
        assert run_gd(prob, pattern, T).gaps.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("gradient, h, x0", [
        (lambda x: x.copy(), "1000", 1.0),   # the objective overflows first
        (capped_identity, "3", 1.0),         # the gradient fails, the objective is finite
        (lambda x: x.copy(), "1", np.inf),   # non-finite from the start
    ])
    def test_diverged_index_unchanged(self, gradient, h, x0):
        pattern = StepsizePattern.from_text(h)
        with pytest.raises(DivergedError) as ref:
            three_call_gaps(half_square, gradient, 1.0, 0.0, pattern, 2000, [x0])
        prob = SmoothProblem(n=1, oracle=lambda x: (half_square(x), gradient(x)), L=1.0,
                             f_star=0.0, x_star=np.zeros(1))
        with pytest.raises(DivergedError) as got:
            run_gd(prob, pattern, 2000, x0=np.array([x0]))
        assert got.value.iterate == ref.value.iterate


class TestOneDimensionalOracle:
    def test_handoff_value(self):
        h = StepsizePattern.from_text("2.9,1.5")
        seq = one_d_worstcase(F(1, 100), h, periods=1)
        assert seq[1] == F(1, 100) - F("4.4") * F(1, 100) ** 2 == F(239, 25000)

    def test_zero_is_fixed_point(self):
        h = StepsizePattern.from_text("2.9,1.5")
        assert one_d_worstcase(F(0), h, periods=3) == (F(0),) * 4

    def test_boundary_annihilation(self):
        h = StepsizePattern.from_text("2.9,1.5")
        d0 = 1 / h.sum_h
        seq = one_d_worstcase(d0, h, periods=1)
        assert seq[1] == 0

    def test_too_large_rejected_with_threshold(self):
        h = StepsizePattern.from_text("2.9,1.5")
        with pytest.raises(ValueError) as ei:
            one_d_worstcase(F(1, 2), h, periods=1)
        assert str(worstcase_gap_threshold(h)) in str(ei.value)

    @pytest.mark.parametrize("pid", sorted(["const1", "t2", "t3", "t7", "t15",
                                            "t31", "t63", "t127"]))
    def test_subgradient_simulation_agrees_exactly(self, pid):
        # explicit subgradient steps on f(x) = max(delta*x, 0) from x0 = 1,
        # re-instantiated each period, reproduce the recurrence exactly
        pattern = bundled_pattern(pid)
        delta0 = F(1, 1000)
        seq = one_d_worstcase(delta0, pattern, periods=4)
        d = delta0
        for s in range(4):
            d = kink_descent_gap(d, pattern)
            assert d == seq[s + 1]

    def test_gaps_monotone_and_positive(self):
        # exact squaring doubles bit length per period, so keep this short
        h = bundled_pattern("t7")
        seq = one_d_worstcase(F(1, 1000), h, periods=12)
        assert all(a > b > 0 for a, b in zip(seq, seq[1:]))


class TestLeastSquares:
    def test_deterministic_bit_for_bit(self):
        p1 = gen_least_squares(40, 7, ridge=False)
        p2 = gen_least_squares(40, 7, ridge=False)
        r1 = run_gd(p1, StepsizePattern((F(1),)), 50)
        r2 = run_gd(p2, StepsizePattern((F(1),)), 50)
        assert r1.gaps.tobytes() == r2.gaps.tobytes()

    def test_ridge_unit_steps_descend_monotonically(self):
        prob = gen_least_squares(30, 3, ridge=True)
        rec = run_gd(prob, StepsizePattern((F(1),)), 300)
        assert is_monotone_decreasing(rec.gaps)

    def test_smoothness_constant_dominates_hessian(self):
        prob = gen_least_squares(25, 5, ridge=True)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(25)
            y = rng.standard_normal(25)
            gap = np.linalg.norm(prob.oracle(x)[1] - prob.oracle(y)[1])
            assert gap <= prob.L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_descriptor_and_optimum(self):
        prob = gen_least_squares(20, 11, ridge=True)
        assert prob.descriptor["generator"] == "pcg64-box-muller"
        # first-order optimality at the reported minimizer
        val, grad = prob.oracle(prob.x_star)
        assert np.linalg.norm(grad) <= 1e-8
        assert val == prob.f_star

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_least_squares(1, 0, ridge=False)


class TestGuaranteeSafety:
    @pytest.mark.parametrize("n", [50, 200])
    def test_realized_gap_below_certified_bound(self, n):
        # ridge-less least squares: once the gap falls under L D^2 Delta, the
        # certified bound holds at every later pattern boundary (D estimated
        # as the initial distance to the minimizer; x0 = 0)
        from lscert.bundled import bundled_certificate
        from lscert.rates import ProblemScale, bound_at, rate_guarantee

        prob = gen_least_squares(n, 0, ridge=False)
        D = float(np.linalg.norm(prob.x_star))
        cert = bundled_certificate("t3")
        pattern, t = cert.pattern, cert.pattern.t
        threshold = prob.L * D * D * float(cert.Delta)
        T = 1500 - 1500 % t
        rec = run_gd(prob, pattern, T)
        boundary = rec.gaps[::t]
        anchor = next(i for i, v in enumerate(boundary) if v <= threshold)
        scale = ProblemScale(F(prob.L), F(D), F(max(float(boundary[anchor]), 0.0)))
        g = rate_guarantee(scale, pattern.sum_h, t, cert.epsilon, cert.Delta)
        for k in range(1, len(boundary) - anchor):
            if boundary[anchor + k] <= 0:
                break
            assert boundary[anchor + k] <= float(bound_at(k * t, scale, g)) * (1 + 1e-10)


class TestCsv:
    def test_row_count_and_round_trip(self, tmp_path):
        rec = run_gd(quadratic_1d(), StepsizePattern((F(1, 2),)), 3, x0=np.ones(1))
        path = emit_csv(rec, tmp_path / "run.csv")
        text = path.read_text().strip().splitlines()
        assert text[0] == "iter,gap"
        assert len(text) == 5  # header + T + 1 rows
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1], rec.gaps)

    def test_gap_column_nonnegative_for_generated_runs(self, tmp_path):
        prob = gen_least_squares(20, 2, ridge=True)
        rec = run_gd(prob, bundled_pattern("t3"), 60)
        gaps = np.loadtxt(emit_csv(rec, tmp_path / "t3.csv"), delimiter=",", skiprows=1)[:, 1]
        assert gaps.min() >= 0.0
