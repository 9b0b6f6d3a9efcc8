"""Certificates, rate guarantees, and experiments for long-step gradient descent."""

import os

# Generated certificates depend on the BLAS thread count, so pin one OpenBLAS
# thread unless the environment sets a count. This takes effect only if numpy
# has not been imported yet, which holds for the lscert script.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .exact_linalg import (
    RatMatrix,
    PsdVerdict,
    rat_from_decimal,
    rat_to_str,
    rref,
)
from .pep_builder import STAR, StepsizePattern
from .certificate import (
    Certificate,
    GuaranteeStatement,
    Infeasible,
    MembershipReport,
    check_membership,
    check_pointwise,
    guarantee_of,
    load_certificate,
    minimal_epsilon,
    save_certificate,
)
from .rates import GrowthSpec, ProblemScale, RateGuarantee, bound_at, compute_sbar, holder_bound
from .gd_lab import SmoothProblem, TrajectoryRecord, gen_least_squares, one_d_worstcase, run_gd
from .sdp_search import FloatCertificate, SolveOptions, evaluate_primal, generate, round_to_exact, solve_approx

__version__ = "0.1.0"
