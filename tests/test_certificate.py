import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lscert.bundled import bundled_certificate, certificate_ids, certificate_path
from lscert.certificate import (
    Certificate,
    CertificateError,
    Infeasible,
    PreconditionError,
    certificate_from_obj,
    check_membership,
    check_pointwise,
    guarantee_of,
    load_certificate,
    minimal_epsilon,
    save_certificate,
)
from oracles import (add_scaled, bordered, dense_slack, dense_sums, dot, ldl_psd_check,
                     psd_blocks, quad_form)
from lscert.exact_linalg import InRangeFailure, RatMatrix, solve_exact
from lscert.pep_builder import StepsizePattern, M_mat, assemble_Z
from lscert.two_step import two_step_certificate

F = Fraction


@pytest.fixture(scope="module")
def t3():
    return bundled_certificate("t3")


@pytest.fixture(scope="module")
def t7():
    return bundled_certificate("t7")


def with_lambda_entry(cert: Certificate, i: int, j: int, value: Fraction) -> Certificate:
    rows = cert.lam.to_rows()
    rows[i][j] = value
    return Certificate(cert.pattern, cert.Delta, cert.epsilon,
                       RatMatrix.from_rows(rows), cert.gam)


class TestMembership:
    def test_t3_reference_passes(self, t3):
        assert t3.Delta == F(1, 10000) and t3.epsilon == 0
        rep = check_membership(t3)
        assert rep.overall

    def test_t7_reference_passes(self, t7):
        assert t7.Delta == F(1, 10 ** 5) and t7.epsilon == F(1, 10 ** 9)
        assert check_membership(t7).overall

    def test_negated_multiplier_fails_nonnegativity(self, t3):
        # lambda_{0,1} lives at matrix position (1, 2)
        bad = with_lambda_entry(t3, 1, 2, F(-1))
        rep = check_membership(bad)
        assert not rep.overall
        assert not rep.lambda_nonneg.ok
        assert ("0", "1", F(-1)) in rep.lambda_nonneg.violations

    def test_broken_equality_is_reported_as_exact_residual(self, t3):
        bad = with_lambda_entry(t3, 1, 2, t3.lam.entry(1, 2) + F(1, 7))
        rep = check_membership(bad)
        assert not rep.eq_lambda.ok
        assert sum(map(abs, rep.eq_lambda.residual)) == F(2, 7)

    def test_t7_at_eps_zero_agrees_with_minimal_epsilon(self, t7):
        em = minimal_epsilon(t7.pattern, t7.Delta, t7.lam, t7.gam)
        zero_eps = Certificate(t7.pattern, t7.Delta, F(0), t7.lam, t7.gam)
        rep = check_membership(zero_eps)
        assert rep.overall == (em <= 0)

    def test_delta_precondition(self, t3):
        too_big = Certificate(t3.pattern, F(1, 4), t3.epsilon, t3.lam, t3.gam)
        with pytest.raises(PreconditionError) as ei:
            check_membership(too_big)
        assert "1/(2*sum(h))" in str(ei.value)
        # the override flag runs the check anyway
        check_membership(too_big, allow_large_delta=True)

    def test_eps_monotonicity(self, t7):
        for mult in (1, 2, 10):
            cert = Certificate(t7.pattern, t7.Delta, t7.epsilon * mult, t7.lam, t7.gam)
            assert check_membership(cert).overall


class TestPointwise:
    @pytest.mark.parametrize("at", ["zero", "delta", "half"])
    def test_t3_pointwise(self, t3, at):
        delta = {"zero": F(0), "delta": t3.Delta, "half": t3.Delta / 2}[at]
        assert check_pointwise(t3, delta)

    def test_out_of_range(self, t3):
        with pytest.raises(PreconditionError):
            check_pointwise(t3, t3.Delta * 2)

    def test_interval_soundness_64_samples(self, t3):
        assert check_membership(t3).overall
        for k in range(64):
            assert check_pointwise(t3, t3.Delta * k / 63)

    def test_two_step_interval_soundness(self):
        cert = two_step_certificate(F(1))
        for k in range(0, 64, 7):
            assert check_pointwise(cert, cert.Delta * k / 63)


class TestMinimalEpsilon:
    def test_zero_multipliers(self):
        h = StepsizePattern((F(1),))
        z = RatMatrix.zeros(3)
        em = minimal_epsilon(h, F(1, 100), z, z, check_preconditions=False)
        assert em == F(-1)  # Schur value 0, so eps_min = -avg(h)

    def test_precondition_failures_named(self):
        h = StepsizePattern((F(1),))
        z = RatMatrix.zeros(3)
        with pytest.raises(PreconditionError) as ei:
            minimal_epsilon(h, F(1, 100), z, z)
        assert "eq_lambda" in str(ei.value)

    def test_t3_is_zero_slack(self, t3):
        assert minimal_epsilon(t3.pattern, t3.Delta, t3.lam, t3.gam) == 0

    def test_t7_below_stored_eps(self, t7):
        em = minimal_epsilon(t7.pattern, t7.Delta, t7.lam, t7.gam)
        assert 0 < em <= F(1, 10 ** 9)

    def test_membership_tight_at_eps_min(self, t7):
        em = minimal_epsilon(t7.pattern, t7.Delta, t7.lam, t7.gam)
        at_min = Certificate(t7.pattern, t7.Delta, em, t7.lam, t7.gam)
        assert check_membership(at_min).overall
        # the Schur value is attained strictly, so shaving eps below eps_min
        # (relatively: an absolute shave would go negative) breaks PSD
        below = Certificate(t7.pattern, t7.Delta, em * F(999, 1000),
                            t7.lam, t7.gam)
        rep = check_membership(below)
        assert not (rep.psd_at_zero.is_psd and rep.psd_at_delta.is_psd)

    def test_two_step_eps_min_is_zero_and_shaving_breaks_psd(self):
        cert = two_step_certificate(F(1, 2))
        em = minimal_epsilon(cert.pattern, cert.Delta, cert.lam, cert.gam)
        assert em == 0

    def test_infeasible_when_m_outside_range(self):
        # lambda = 0 makes the trailing block zero while m(gamma) != 0
        h = StepsizePattern((F(1),))
        gam = RatMatrix.from_rows([
            [0, F(1), 0],
            [0, 0, 0],
            [0, 0, 0],
        ])
        out = minimal_epsilon(h, F(1, 100), RatMatrix.zeros(3), gam,
                              check_preconditions=False)
        assert isinstance(out, Infeasible)

    def test_unchecked_pair_is_still_a_certificate(self):
        # the probe is a Certificate even without the preconditions, so a
        # multiplier with a nonzero diagonal is refused
        h = StepsizePattern((F(1),))
        lam = RatMatrix.from_rows([[F(1), 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(CertificateError, match="diagonal"):
            minimal_epsilon(h, F(1, 100), lam, RatMatrix.zeros(3), check_preconditions=False)


def reference_eps_min(cert: Certificate):
    """minimal_epsilon by the Fraction kernels on the dense oracle's blocks: the
    LDL' reference, then solve_exact, per block."""
    h = cert.pattern
    m = dense_slack(h, cert.gam).row(0)[1:]
    values = []
    for lam in (cert.lam, add_scaled(cert.lam, cert.gam, cert.Delta)):
        S = dense_slack(h, lam)
        M = RatMatrix.from_rows([S.row(r)[1:] for r in range(1, h.t + 2)])
        x = solve_exact(M, m)
        if not ldl_psd_check(M).is_psd or isinstance(x, InRangeFailure):
            return None
        values.append(dot(m, x))
    return max(values) / h.t - h.avg_h


def reference_pointwise(cert: Certificate, delta: Fraction) -> bool:
    """check_pointwise on the dense oracle's dual slack matrix, decided by the
    LDL' reference."""
    h = cert.pattern
    lam_d = add_scaled(cert.lam, cert.gam, delta)
    rhs = [F(0)] * (h.t + 1)
    rhs[0], rhs[h.t] = -(1 - 2 * h.sum_h * delta), F(1)
    if dense_sums(h, lam_d) != tuple(rhs):
        return False
    if any(lam_d.entry(i, j) < 0 for i in range(h.t + 2) for j in range(h.t + 2) if i != j):
        return False
    return ldl_psd_check(dense_Z(h, cert.epsilon, lam_d, delta)).is_psd


def dense_Z(h: StepsizePattern, eps: Fraction, lam: RatMatrix, delta: Fraction) -> RatMatrix:
    """Z at gap level delta from the dense pair matrices: their slack, whose
    corner is 0, with the corner sum_i (h_i + eps) delta^2."""
    rows = dense_slack(h, lam).to_rows()
    rows[0][0] = (h.sum_h + h.t * eps) * delta * delta
    return RatMatrix.from_rows(rows)


def altered(cert: Certificate, seed: int) -> Certificate:
    """The certificate with one off-diagonal multiplier entry moved slightly."""
    rng = random.Random(seed)
    which = rng.choice(("lam", "gam"))
    rows = getattr(cert, which).to_rows()
    i, j = rng.sample(range(cert.t + 2), 2)
    rows[i][j] += F(rng.randrange(1, 2 ** 20), 2 ** 30) * rng.choice((1, -1))
    mats = {"lam": cert.lam, "gam": cert.gam, which: RatMatrix.from_rows(rows)}
    return Certificate(cert.pattern, cert.Delta, cert.epsilon, mats["lam"], mats["gam"])


class TestAgreesWithFractionKernels:
    """The integer eliminations decide exactly what the Fraction LDL' reference
    and solve_exact decide on the dense oracle's blocks."""

    @pytest.fixture(scope="class")
    def certs(self):
        out = []
        for pid in ("t2", "t3", "t7", "t15"):
            c = bundled_certificate(pid)
            out += [c] + [altered(c, seed) for seed in range(3)]
        t7 = bundled_certificate("t7")
        em = minimal_epsilon(t7.pattern, t7.Delta, t7.lam, t7.gam)
        out.append(Certificate(t7.pattern, t7.Delta, em * F(12345, 2 ** 24), t7.lam, t7.gam))
        out.append(two_step_certificate(F(1, 3)))
        return out

    def test_membership_and_witnesses(self, certs):
        for cert in certs:
            rep = check_membership(cert)
            for cond, X in zip((rep.psd_at_zero, rep.psd_at_delta), psd_blocks(cert)):
                assert cond.is_psd == ldl_psd_check(X).is_psd
                if not cond.is_psd:
                    w = cond.witness
                    assert quad_form(X, w.vector) == w.value < 0

    def test_dense_blocks_match_the_closed_forms(self, certs):
        # the oracle's blocks, summed from dense pair matrices, against the
        # operator's views: M_mat and the border of assemble_Z
        for cert in certs:
            h = cert.pattern
            M_lam, m_gam = M_mat(h, cert.lam), assemble_Z(h, F(0), cert.gam, F(0)).row(0)[1:]
            assert psd_blocks(cert) == (
                bordered(cert.corner, m_gam, M_lam),
                bordered(cert.corner, m_gam, add_scaled(M_lam, M_mat(h, cert.gam), cert.Delta)))

    def test_assemble_Z_matches_the_dense_Z(self, certs):
        # on every bundled certificate (and its alterations) at three gap levels
        assert {bundled_certificate(p) for p in certificate_ids()} <= set(certs)
        for cert in certs:
            for delta in (F(0), cert.Delta / 3, cert.Delta):
                lam_d = add_scaled(cert.lam, cert.gam, delta)
                assert (assemble_Z(cert.pattern, cert.epsilon, lam_d, delta)
                        == dense_Z(cert.pattern, cert.epsilon, lam_d, delta))

    def test_minimal_epsilon(self, certs):
        for cert in certs:
            em = minimal_epsilon(cert.pattern, cert.Delta, cert.lam, cert.gam,
                                 check_preconditions=False)
            ref = reference_eps_min(cert)
            assert (None if isinstance(em, Infeasible) else em) == ref
            # the report reads the same value off its own two eliminations
            assert check_membership(cert).eps_min == em

    def test_pointwise(self, certs):
        for cert in certs:
            for k in (0, 1, 3, 4):
                delta = cert.Delta * k / 4
                assert check_pointwise(cert, delta) == reference_pointwise(cert, delta)


class TestGuarantee:
    def test_t7_coefficient(self, t7):
        g = guarantee_of(t7, check_membership(t7))
        assert g.avg_minus_eps == F(16, 5) - F(1, 10 ** 9)
        assert str(g.avg_minus_eps.numerator).startswith("31999999")

    def test_t3_coefficient(self, t3):
        g = guarantee_of(t3, check_membership(t3))
        assert g.avg_minus_eps == F(79, 30)

    def test_two_step_symbolic_family_entry(self):
        cert = two_step_certificate(F(1, 2))
        g = guarantee_of(cert, check_membership(cert))
        assert g.avg_minus_eps == F(9, 4) - F(1, 4) == 2

    def test_refuses_unverified(self, t3):
        bad = with_lambda_entry(t3, 1, 2, F(-1))
        rep = check_membership(bad)
        with pytest.raises(PreconditionError):
            guarantee_of(bad, rep)

    def test_arithmetic_identity(self, t7):
        g = guarantee_of(t7, check_membership(t7))
        t = t7.pattern.t
        assert g.avg_minus_eps * t + t7.epsilon * t == t7.pattern.sum_h


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 40, 10 ** 40), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
LITERALS = st.sampled_from(["0", "-1", "-3/2", "1/0", "1e3", "2.2", "1/3", "3" * 2001])
MUTANTS = st.one_of(LITERALS, LITERALS, st.integers(-3, 200), JSON_VALUES)


def t3_with(key, value, index=None):
    obj = json.loads(certificate_path("t3").read_text())
    if index is None:
        obj[key] = value
    elif isinstance(index, tuple):
        obj[key][index[0]][index[1]] = value
    else:
        obj[key][index] = value
    return obj


class TestHostileDocuments:
    @pytest.mark.parametrize("key,value,index", [
        ("t", True, None), ("t", 128, None), ("t", 10 ** 40, None), ("t", 2.5, None),
        ("h", "-3/2", 0), ("h", "0", 2), ("h", "3" * 2001, 1), ("h", None, 1),
        ("delta", "0", None), ("delta", "1/0", None), ("epsilon", "-1", None),
        ("lambda", [["0"] * 5] * 4, None), ("gamma", ["0"], 2), ("gamma", 7, (1, 2)),
    ])
    def test_refused_as_certificate_error(self, key, value, index):
        with pytest.raises(CertificateError):
            certificate_from_obj(t3_with(key, value, index))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_t3_ends_in_a_verdict_or_certificate_error(self, data):
        # property: any mutant of a bundled document is decided or refused as a
        # CertificateError, never another exception
        key = data.draw(st.sampled_from(["h", "lambda", "gamma", "t", "delta", "epsilon"]))
        obj = json.loads(certificate_path("t3").read_text())
        where = obj[key]
        if isinstance(where, list) and data.draw(st.integers(0, 3)) < 3:
            i = data.draw(st.integers(0, len(where) - 1))
            if isinstance(where[i], list) and data.draw(st.integers(0, 3)) < 3:
                where, i = where[i], data.draw(st.integers(0, len(where[i]) - 1))
            where[i] = data.draw(MUTANTS)
        else:
            obj[key] = data.draw(MUTANTS)
        try:
            cert = certificate_from_obj(obj)
            check_membership(cert)
        except CertificateError:
            pass


class TestSerialization:
    def test_bundled_ids_present(self):
        assert {"t2", "t3", "t7"} <= set(certificate_ids())

    def test_t7_pattern_loaded(self, t7):
        assert t7.pattern.h == (F(3, 2), F(11, 5), F(3, 2), F(12),
                                F(3, 2), F(11, 5), F(3, 2))

    def test_round_trip_identity(self, t3, tmp_path):
        p = tmp_path / "t3.json"
        save_certificate(t3, p)
        again = load_certificate(p)
        assert again == t3
        # saving the reloaded certificate reproduces the file byte for byte
        p2 = tmp_path / "t3b.json"
        save_certificate(again, p2)
        assert p.read_text() == p2.read_text()

    def test_bundled_file_round_trips_modulo_whitespace(self, t3, tmp_path):
        from lscert.bundled import certificate_path
        original = json.loads(certificate_path("t3").read_text())
        p = tmp_path / "resaved.json"
        save_certificate(t3, p)
        assert json.loads(p.read_text()) == original

    def test_dimension_error(self):
        raw = {
            "t": 7,
            "h": ["1.5", "2.2", "1.5", "12.0", "1.5", "2.2", "1.5"],
            "delta": "0.00001",
            "epsilon": "0",
            "lambda": [["0"] * 8 for _ in range(8)],
            "gamma": [["0"] * 9 for _ in range(9)],
        }
        with pytest.raises(CertificateError) as ei:
            certificate_from_obj(raw)
        assert "lambda" in str(ei.value) and "9" in str(ei.value)

    def test_malformed_rational_names_location(self, tmp_path):
        raw = {
            "t": 1, "h": ["1"], "delta": "0.01", "epsilon": "0",
            "lambda": [["0", "0", "0"], ["0", "0", "oops"], ["0", "0", "0"]],
            "gamma": [["0"] * 3 for _ in range(3)],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CertificateError) as ei:
            load_certificate(path)
        assert "lambda[1][2]" in str(ei.value) and "oops" in str(ei.value)

    def test_nonzero_diagonal_rejected(self, tmp_path):
        raw = {
            "t": 1, "h": ["1"], "delta": "0.01", "epsilon": "0",
            "lambda": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            "gamma": [["0"] * 3 for _ in range(3)],
        }
        with pytest.raises(CertificateError) as ei:
            certificate_from_obj(raw)
        assert "diagonal" in str(ei.value)

    def test_not_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("not json {")
        with pytest.raises(CertificateError):
            load_certificate(p)
