"""The dyadic bisection of the two-step family shares one operator across its probes."""
from fractions import Fraction as F

import pytest

import lscert.certificate
import lscert.pep_builder
from lscert import two_step
from lscert.certificate import Certificate, check_membership, delta_cap

ETAS = (F(1, 2), F(1), F(2), F(7, 3), F(1, 7), F(29, 10))


def count_m_rows(monkeypatch) -> list:
    calls = []
    real = lscert.pep_builder.M_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lscert.pep_builder, "M_rows", counted)
    return calls


def record_probes(monkeypatch) -> list:
    """(Delta, verdict) of every membership check the bisection makes."""
    probes = []
    real = two_step.check_membership

    def recording(cert, **kwargs):
        report = real(cert, **kwargs)
        probes.append((cert.Delta, report.overall))
        return report

    monkeypatch.setattr(two_step, "check_membership", recording)
    return probes


def bisect_fresh(eta, resolution_bits=16):
    """Reference: the bisection with a fresh certificate, and so a fresh
    operator, for every probe. Returns Delta and the probes."""
    pattern = two_step.two_step_pattern(eta)
    lam, gam = two_step.two_step_multipliers(eta)
    probes = []

    def passes(d):
        ok = check_membership(Certificate(pattern, d, F(0), lam, gam)).overall
        probes.append((d, ok))
        return ok

    unit = F(1, 2 ** resolution_bits)
    hi_n = int(delta_cap(pattern) / unit)
    lo_n, fail_n = 0, hi_n + 1
    if passes(hi_n * unit):
        return hi_n * unit, probes
    while fail_n - lo_n > 1:
        mid = (lo_n + fail_n) // 2
        if passes(mid * unit):
            lo_n = mid
        else:
            fail_n = mid
    return (lo_n * unit if lo_n else None), probes


@pytest.mark.parametrize("eta", [F(1, 2), F(1)], ids=str)
def test_bisection_builds_one_operator(monkeypatch, eta):
    calls = count_m_rows(monkeypatch)
    probes = record_probes(monkeypatch)
    two_step.bisect_dyadic_delta(eta)
    assert len(probes) > 2
    assert len(calls) == 2  # one M_rows call per multiplier, for the whole search


@pytest.mark.parametrize("bits", [4, 10, 16])
@pytest.mark.parametrize("eta", ETAS, ids=str)
def test_bisection_matches_fresh_certificates(monkeypatch, eta, bits):
    ref_delta, ref_probes = bisect_fresh(eta, bits)
    probes = record_probes(monkeypatch)
    if ref_delta is None:
        with pytest.raises(ValueError, match="no passing dyadic"):
            two_step.bisect_dyadic_delta(eta, bits)
    else:
        assert two_step.bisect_dyadic_delta(eta, bits) == ref_delta
    assert probes == ref_probes


def test_with_delta_shares_only_the_operator():
    eta = F(1)
    pattern = two_step.two_step_pattern(eta)
    lam, gam = two_step.two_step_multipliers(eta)
    cert = Certificate(pattern, F(1, 16), F(0), lam, gam)
    assert cert.eliminations and cert.nonneg_levels  # computed at Delta = 1/16
    other = cert.with_delta(F(1, 8))
    assert other.operator is cert.operator
    assert "eliminations" not in other.__dict__ and "nonneg_levels" not in other.__dict__
    assert check_membership(other) == check_membership(Certificate(pattern, F(1, 8), F(0), lam, gam))
    with pytest.raises(lscert.certificate.CertificateError):
        cert.with_delta(F(0))
