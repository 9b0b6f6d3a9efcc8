"""The exact PSD proof from a float-proposed factor (``exact_linalg.prove_psd``
with ``certificate._propose_factor``), against ``schur_eliminate`` and, at small
orders, sympy. The proof may fail to accept a PSD block, but must never accept
a block that elimination rejects."""
import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import lscert.certificate as cm
from lscert.bundled import bundled_pattern, certificate_path
from lscert.exact_linalg import prove_psd, schur_eliminate
from lscert.sdp_search import generate

KINDS = ("positive_definite", "rank_deficient", "indefinite_by_one", "zero_rows")


def eliminated_psd(N: list[list[int]]) -> bool:
    """schur_eliminate's verdict on N, read as [[c, b'], [b, A]]."""
    A = [row[1:] for row in N[1:]]
    b = [row[0] for row in N[1:]]
    return schur_eliminate(A, b, 1).bordered(Fraction(N[0][0])).is_psd


def sylvester_psd(N: list[list[int]]) -> bool:
    """PSD exactly when every principal minor is >= 0 (sympy determinants)."""
    S = sympy.Matrix(N)
    return all(S.extract(list(idx), list(idx)).det(method="bareiss") >= 0
               for r in range(1, len(N) + 1) for idx in itertools.combinations(range(len(N)), r))


def gram(B: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(u, v)) for v in B] for u in B]


def seeded_matrix(seed: int, kind: str, n: int, bits: int) -> list[list[int]]:
    """A symmetric integer matrix of order n with entries of about 2*bits bits."""
    rng = random.Random(seed)
    draw = lambda: rng.randrange(-2 ** bits, 2 ** bits + 1)  # noqa: E731
    if kind == "positive_definite":
        N = gram([[draw() for _ in range(n)] for _ in range(n)])
        for i in range(n):
            N[i][i] += 1
        return N
    if kind in ("rank_deficient", "indefinite_by_one"):
        N = gram([[draw() for _ in range(rng.randrange(n))] for _ in range(n)])
        if kind == "indefinite_by_one":
            i = rng.randrange(n)
            N[i][i] -= 1
        return N
    # zero rows next to a zero diagonal with a nonzero off-diagonal entry
    m = max(1, n - 2)
    K = gram([[draw() for _ in range(m)] for _ in range(m)])
    for i in range(m):
        K[i][i] += 1
    N = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            N[i][j] = K[i][j]
    if n >= m + 2:  # row m: all zero; row m + 1: zero diagonal, one nonzero entry
        j = rng.randrange(m)
        N[m + 1][j] = N[j][m + 1] = draw() or 1
    perm = list(range(n))
    rng.shuffle(perm)
    return [[N[p][q] for q in perm] for p in perm]


class TestDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(KINDS), n=st.integers(1, 6),
           bits=st.sampled_from([3, 30, 92]))
    def test_against_elimination_and_sympy(self, seed, kind, n, bits):
        N = seeded_matrix(seed, kind, n, bits)
        psd = eliminated_psd(N)
        assert psd == sylvester_psd(N)
        if kind == "zero_rows" and n >= 3:
            assert not psd  # a zero diagonal beside a nonzero entry
        if prove_psd(N, cm._propose_factor):
            assert psd

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(KINDS), n=st.integers(7, 14),
           bits=st.sampled_from([30, 92]))
    def test_against_elimination_at_larger_orders(self, seed, kind, n, bits):
        N = seeded_matrix(seed, kind, n, bits)
        if prove_psd(N, cm._propose_factor):
            assert eliminated_psd(N)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(KINDS), n=st.integers(1, 5),
           data=st.data())
    def test_no_proposal_proves_a_rejected_block(self, seed, kind, n, data):
        # whatever factor and exponents are proposed, an accept is exact
        N = seeded_matrix(seed, kind, n, 2)
        keep = [i for i, row in enumerate(N) if any(row)]
        L = [[data.draw(st.integers(-6, 6)) for _ in range(i + 1)] for i in range(len(keep))]
        e = [data.draw(st.integers(-2, 3)) for _ in keep]
        if prove_psd(N, lambda K: (L, e)):
            assert eliminated_psd(N)

    def test_positive_definite_blocks_are_proved(self):
        # liveness: well-conditioned blocks with 184-bit entries, orders 8 to 40
        rng = random.Random(7)
        for n in (8, 17, 40):
            N = gram([[rng.randrange(-2 ** 90, 2 ** 90) for _ in range(n)] for _ in range(n)])
            assert prove_psd(N, cm._propose_factor)


class TestEachTestOfTheProofIsNeeded:
    def test_negative_remainder_diagonal_is_refused(self):
        # E = [[-1]] has nothing off the diagonal, so only the sign test refuses it
        assert not prove_psd([[-1]], lambda K: ([[0]], [0]))
        assert not eliminated_psd([[-1]])

    def test_remainder_must_be_diagonally_dominant(self):
        # E = K = [[1, 2], [2, 1]] has a nonnegative diagonal and eigenvalue -1
        N = [[1, 2], [2, 1]]
        assert not prove_psd(N, lambda K: ([[0], [0, 0]], [0, 0]))
        assert not eliminated_psd(N)

    def test_a_zero_diagonal_row_with_an_off_diagonal_entry_is_kept(self):
        # [[0, 1], [1, 1]] is indefinite; without row 0 it would read [[1]]
        for N in ([[0, 1], [1, 1]], [[1, 0, 1], [0, 0, 0], [1, 0, 0]]):
            assert not prove_psd(N, cm._propose_factor)
            assert not eliminated_psd(N)

    def test_all_zero_rows_are_dropped(self):
        assert prove_psd([[0, 0], [0, 0]], lambda K: pytest.fail("nothing to propose for"))
        assert prove_psd([[0, 0, 0], [0, 4, 2], [0, 2, 3]], cm._propose_factor)

    def test_a_factor_needs_a_row_per_kept_row(self):
        with pytest.raises(ValueError):
            prove_psd([[2, 1], [1, 2]], lambda K: ([[1]], [0]))

    @pytest.mark.parametrize("K", [[[0, 1], [1, 0]], [[-4]], [[2 ** 1100]]])
    def test_float_failures_propose_nothing(self, K):
        # a zero or negative diagonal, and an entry past the float range
        assert cm._propose_factor(K) is None


def block_levels(cert):
    """The 17 pointwise levels and the two membership blocks, as _proved_psd takes them."""
    levels = [(d, False, cert.corner * d * d) for d in (cert.Delta * k / 16 for k in range(17))]
    return levels + [(Fraction(0), True, cert.corner), (cert.Delta, True, cert.corner)]


class TestOnCertificates:
    @pytest.mark.parametrize("pid", ["t7", "t15"])
    def test_bundled_blocks_are_proved(self, pid):
        cert = cm.load_certificate(certificate_path(pid))
        assert cert.t + 2 >= cm.PROOF_MIN_ORDER
        assert all(cm._proved_psd(cert, *level) for level in block_levels(cert))

    @pytest.fixture
    def attempts(self, monkeypatch):
        calls = []
        real = cm.prove_psd
        monkeypatch.setattr(cm, "prove_psd", lambda N, propose: calls.append(len(N)) or
                            real(N, propose))
        return calls

    @pytest.mark.parametrize("pid", ["t2", "t3"])
    def test_small_orders_stay_on_elimination(self, attempts, pid):
        cert = cm.load_certificate(certificate_path(pid))
        assert cert.t + 2 < cm.PROOF_MIN_ORDER
        assert cm.check_membership(cert).overall
        assert all(cm.check_pointwise(cert, d) for d, *_ in block_levels(cert)[:17])
        assert attempts == []

    def test_generate_decides_from_its_cached_eliminations(self, attempts):
        cert, report, eps_min = generate(bundled_pattern("t7"), Fraction(1, 10 ** 5))
        assert report.overall and attempts == []
        # the same document verified afresh takes the proof on both blocks
        fresh = cm.certificate_from_obj(json.loads(json.dumps(cm._cert_to_obj(cert))))
        assert cm.check_membership(fresh).overall
        assert attempts == [cert.t + 2] * 2

    def test_eps_min_is_computed_on_first_read(self):
        cert = cm.load_certificate(certificate_path("t15"))
        report = cm.check_membership(cert)
        assert report.overall and "eliminations" not in cert.__dict__
        assert report.eps_min == cm.minimal_epsilon(cert.pattern, cert.Delta, cert.lam, cert.gam)
        assert "eliminations" in cert.__dict__

    def test_a_reject_still_carries_a_witness(self):
        cert = cm.load_certificate(certificate_path("t15"))
        report = cm.check_membership(cert.with_epsilon(Fraction(1, 20000)))  # eps_min ~ 5.42e-5
        w = report.psd_at_zero.witness
        assert not report.overall and w is not None and w.value < 0
