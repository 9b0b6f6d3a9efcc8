#!/usr/bin/env python3
"""Verify every bundled certificate in exact rational arithmetic.

Each certificate is a multiplier pair (lambda, gamma) for one stepsize
pattern. Verification checks the defining conditions of the certificate set
with Fractions only, so a PASS here is a machine-checked proof that the
pattern contracts the objective gap once per cycle.
"""
from lscert.bundled import bundled_certificate, certificate_ids
from lscert.certificate import check_membership, guarantee_of

for pid in certificate_ids():
    cert = bundled_certificate(pid)
    report = check_membership(cert)
    print(f"{pid}: h = ({cert.pattern.as_text()})")
    for name, flag in report.condition_flags().items():
        print(f"    {name:32s} {'ok' if flag else 'FAILED'}")
    assert report.overall
    g = guarantee_of(cert, report)
    print(f"    => gap bound L*D^2 / ({float(g.avg_minus_eps):.9f} * T) + O(1/T^2)")
    print(f"    => smallest certifiable eps for this pair: {float(report.eps_min):.3e} "
          f"(stored: {float(cert.epsilon):.3e})")
    print()
