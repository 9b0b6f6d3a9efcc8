#!/usr/bin/env python3
"""Generate a certificate from scratch for the alternating pattern (2.9, 1.5).

Pipeline: a dense interior-point solve follows the central path to an
approximate multiplier pair; rounding snaps it to rationals that satisfy
the equality conditions exactly; the exact verifier has the final word.
"""
from fractions import Fraction

from lscert.certificate import check_membership
from lscert.pep_builder import StepsizePattern
from lscert.sdp_search import generate, solve_approx

pattern = StepsizePattern.from_text("2.9,1.5")
Delta = Fraction(1, 1000)

approx = solve_approx(pattern, float(Delta))
print("numerical stage:")
print(f"  solver status     : {approx.solver['status']}")
print(f"  iterations run    : {approx.solver['iterations']} "
      f"(returned point from iteration {approx.solver['snapshot_iteration']})")
print("  (boundary solutions are expected: exact certificates are PSD-singular)")
for key, val in approx.residuals.items():
    print(f"  {key:28s} {val:+.3e}")

cert, report, eps_min = generate(pattern, Delta)
print("\nexact stage:")
print(f"  all conditions verified: {report.overall}")
print(f"  minimal certifiable eps: {float(eps_min):.3e}")
print(f"  certified rate coefficient, avg(h) - eps = "
      f"{float(cert.pattern.avg_h - cert.epsilon):.9f}")

# the exact verifier is the arbiter: floats above were only a search heuristic
assert check_membership(cert).overall

# a λ entry, exactly as stored (pivot entries are solved rationals)
entry = cert.lam.entry(1, 2)
print(f"  sample multiplier entry: {entry} (~{float(entry):.6f})")
