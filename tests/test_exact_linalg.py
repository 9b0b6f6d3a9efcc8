import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from lscert.exact_linalg import (
    MAX_LITERAL_CHARS,
    InRangeFailure,
    RatMatrix,
    RationalParseError,
    dot,
    integer_rows,
    psd_check,
    quad_form,
    rat_from_decimal,
    rat_to_str,
    rref,
    schur_eliminate,
    solve_exact,
)
from lscert.pep_builder import bordered


def gram(H: RatMatrix) -> RatMatrix:
    """H'H, exactly: positive semidefinite by construction."""
    cols = list(zip(*H.to_rows()))
    return RatMatrix.from_rows([[dot(u, v) for v in cols] for u in cols])


class TestParsing:
    def test_exact_decimal(self):
        assert rat_from_decimal("1.5") == Fraction(3, 2)

    def test_table_entry(self):
        assert rat_from_decimal("29.7") == Fraction(297, 10)

    def test_big_fraction_literal(self):
        q = rat_from_decimal("5370688140802311/2305843009213693952")
        assert q == Fraction(5370688140802311, 2305843009213693952)

    def test_signs(self):
        assert rat_from_decimal("-2.2") == Fraction(-11, 5)
        assert rat_from_decimal("+3/4") == Fraction(3, 4)

    def test_never_a_float(self):
        # 2.2 as a binary float is NOT 11/5
        assert rat_from_decimal("2.2") == Fraction(11, 5) != Fraction(2.2)

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1/0", "1e3", "0x10", "3/-4", "a/b"])
    def test_malformed(self, bad):
        with pytest.raises(RationalParseError) as ei:
            rat_from_decimal(bad)
        assert repr(bad) in str(ei.value) or bad in str(ei.value)

    def test_literal_length_cap(self):
        assert rat_from_decimal("7" * MAX_LITERAL_CHARS) == int("7" * MAX_LITERAL_CHARS)
        with pytest.raises(RationalParseError, match="exceeds the limit"):
            rat_from_decimal("1/" + "3" * MAX_LITERAL_CHARS)

    def test_round_trip_text(self):
        assert rat_to_str(Fraction(-7, 3)) == "-7/3"
        assert rat_to_str(Fraction(4)) == "4"


class TestPsdCheck:
    def test_identity(self):
        v = psd_check(RatMatrix.identity(3))
        assert v.is_psd and v.witness is None

    def test_hand_indefinite(self):
        M = RatMatrix.from_rows([[1, 2], [2, 1]])
        v = psd_check(M)
        assert not v.is_psd
        assert v.witness.value < 0
        assert quad_form(M, v.witness.vector) == v.witness.value
        # the canonical witness here is (1, -1) up to scaling
        assert quad_form(M, (Fraction(1), Fraction(-1))) == Fraction(-2)

    def test_zero_matrix(self):
        assert psd_check(RatMatrix.zeros(4)).is_psd

    def test_rank_deficient_psd(self):
        M = RatMatrix.from_rows([[1, 1], [1, 1]])
        v = psd_check(M)
        assert v.is_psd and v.witness is None

    def test_zero_diagonal_nonzero_row(self):
        M = RatMatrix.from_rows([[0, 1], [1, 0]])
        v = psd_check(M)
        assert not v.is_psd
        assert v.witness.value < 0

    def test_negative_diagonal_after_elimination(self):
        M = RatMatrix.from_rows([[1, 2], [2, 1]])
        v = psd_check(M)
        assert v.witness.value == quad_form(M, v.witness.vector) < 0

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            psd_check(RatMatrix.from_rows([[1, 2], [0, 1]]))

    def test_gram_matrices_are_psd(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(1, 6)
            H = RatMatrix.from_rows(
                [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)])
            v = psd_check(gram(H))
            assert v.is_psd and v.witness is None

    def test_fuzz_against_float_eigenvalues(self):
        rng = random.Random(20240817)
        checked = 0
        while checked < 25:
            n = 10
            sym = [[Fraction(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(n)]
                   for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    sym[i][j] = sym[j][i]
            M = RatMatrix.from_rows(sym)
            eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in sym]))
            if min(abs(e) for e in eigs) < 1e-6:
                continue  # spectrum too close to zero to trust float signs
            checked += 1
            assert psd_check(M).is_psd == bool(eigs.min() > 0)


class TestSolveExact:
    def test_identity(self):
        x = solve_exact(RatMatrix.identity(2), (Fraction(1), Fraction(2)))
        assert x == (Fraction(1), Fraction(2))

    def test_zero_zero(self):
        x = solve_exact(RatMatrix.zeros(3), (Fraction(0),) * 3)
        assert x == (Fraction(0),) * 3

    def test_zero_matrix_infeasible(self):
        out = solve_exact(RatMatrix.zeros(1), (Fraction(1),))
        assert isinstance(out, InRangeFailure)

    def test_singular_consistent(self):
        M = RatMatrix.from_rows([[1, 1], [1, 1]])
        b = (Fraction(2), Fraction(2))
        x = solve_exact(M, b)
        assert M.matvec(x) == b

    def test_singular_inconsistent(self):
        M = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert isinstance(solve_exact(M, (Fraction(1), Fraction(0))), InRangeFailure)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_exact(RatMatrix.identity(2), (Fraction(1),))

    def test_random_solutions_are_exact(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randrange(1, 6)
            H = RatMatrix.from_rows(
                [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)])
            M = gram(H)
            z = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(n))
            b = M.matvec(z)
            x = solve_exact(M, b)
            assert not isinstance(x, InRangeFailure)
            assert M.matvec(x) == b


def eliminate(M: RatMatrix, m):
    """The integer kernel on M and m scaled to integers by one common denominator."""
    den, rows = integer_rows([*M.to_rows(), m])
    return schur_eliminate(rows[:-1], rows[-1], den)


def random_block(rng: random.Random, kind: str, n: int):
    """A seeded symmetric rational trailing block and a border of the named kind."""
    def rat():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 12))

    if kind == "zero":
        M = RatMatrix.zeros(n)
    elif kind in ("indefinite", "zero_diagonal"):
        rows = [[rat() if kind == "indefinite" or i != j else Fraction(0) for j in range(n)]
                for i in range(n)]
        M = RatMatrix.from_rows([[rows[min(i, j)][max(i, j)] for j in range(n)]
                                 for i in range(n)])
    elif kind == "padded":
        # a PSD block on a random subset of the indices, zero rows and columns elsewhere
        keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        H = RatMatrix.from_rows([[rat() for _ in keep] for _ in keep])
        K = gram(H)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                rows[i][j] = K.entry(a, b)
        M = RatMatrix.from_rows(rows)
    else:
        r = n if kind in ("full_rank", "big_corner") else rng.randrange(1, max(n, 2))
        H = RatMatrix.from_rows([[rat() for _ in range(n)] for _ in range(r)])
        M = gram(H)
        if kind == "full_rank":
            M = M + RatMatrix.identity(n).scale(Fraction(1, rng.randrange(1, 50)))
    if rng.random() < 0.7:
        m = M.matvec(tuple(rat() for _ in range(n)))  # in range(M)
    else:
        m = tuple(rat() for _ in range(n))
    return M, m


KINDS = ("full_rank", "singular", "padded", "indefinite", "zero_diagonal", "zero", "big_corner")


def corners(rng: random.Random, kind: str, M: RatMatrix, m):
    """Corners on both sides of m' M^+ m where it exists, else arbitrary ones."""
    x = solve_exact(M, m)
    base = Fraction(0) if isinstance(x, InRangeFailure) else dot(m, x)
    if kind == "big_corner":
        tiny = Fraction(rng.getrandbits(1100) | 1, (rng.getrandbits(1100) | 1) << 1100)
        out = [base + tiny, base - tiny]
        assert all(c.denominator.bit_length() > 1000 for c in out)
        return out
    return [base, base + Fraction(1, rng.randrange(1, 100)),
            base - Fraction(1, rng.randrange(1, 100)), Fraction(rng.randrange(-3, 4))]


class TestSchurEliminationDifferential:
    """The integer kernel against the Fraction LDL' psd_check, solve_exact and sympy."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_psd_check_and_solve_exact(self, kind):
        rng = random.Random(f"schur-{kind}")
        rejects = 0
        for _ in range(40):
            M, m = random_block(rng, kind, rng.randrange(1, 9))
            e = eliminate(M, m)
            assert e.psd == psd_check(M).is_psd
            x = solve_exact(M, m)
            if e.psd:
                assert e.in_range == (not isinstance(x, InRangeFailure))
            if e.psd and e.in_range:
                assert e.value == dot(m, x)
            for c in corners(rng, kind, M, m):
                X = bordered(c, m, M)
                verdict = e.bordered(c)
                assert verdict.is_psd == psd_check(X).is_psd
                if not verdict.is_psd:
                    rejects += 1
                    w = verdict.witness
                    assert w.value < 0
                    assert quad_form(X, w.vector) == w.value
        assert rejects > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_sympy(self, kind):
        # Sylvester's criterion: PSD exactly when every principal minor is >= 0
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"sympy-{kind}")
        for _ in range(12):
            M, m = random_block(rng, kind, rng.randrange(1, 5))
            e = eliminate(M, m)
            for c in corners(rng, kind, M, m)[:2]:
                X = bordered(c, m, M)
                S = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in X.row(i)]
                                  for i in range(X.rows)])
                minors = (S.extract(list(idx), list(idx)).det(method="bareiss")
                          for r in range(1, X.rows + 1)
                          for idx in itertools.combinations(range(X.rows), r))
                assert e.bordered(c).is_psd == all(d >= 0 for d in minors)

    def test_zero_trailing_block(self):
        M = RatMatrix.zeros(3)
        e = eliminate(M, (Fraction(0),) * 3)
        assert e.psd and e.in_range and e.value == 0
        assert e.bordered(Fraction(0)).is_psd
        assert not e.bordered(Fraction(-1, 3)).is_psd
        out = eliminate(M, (Fraction(0), Fraction(1, 2), Fraction(0)))
        assert out.psd and not out.in_range
        X = bordered(Fraction(5), (Fraction(0), Fraction(1, 2), Fraction(0)), M)
        w = out.bordered(Fraction(5)).witness
        assert quad_form(X, w.vector) == w.value < 0

    def test_failed_corner_witness_is_one_minus_x(self):
        M = RatMatrix.from_rows([[2, 1], [1, 1]])
        m = (Fraction(1), Fraction(1))
        e = eliminate(M, m)
        x = solve_exact(M, m)
        assert e.value == dot(m, x) == 1
        w = e.bordered(Fraction(1, 2)).witness
        assert w.vector == (Fraction(1), *(-xi for xi in x))
        assert w.value == Fraction(1, 2) - dot(m, x)


class TestRref:
    def test_identity(self):
        R, piv = rref(RatMatrix.identity(3))
        assert R == RatMatrix.identity(3)
        assert piv == (0, 1, 2)

    def test_rank_one(self):
        R, piv = rref(RatMatrix.from_rows([[1, 1], [2, 2]]))
        assert R == RatMatrix.from_rows([[1, 1], [0, 0]])
        assert piv == (0,)

    def test_zero(self):
        R, piv = rref(RatMatrix.zeros(2, 3))
        assert R == RatMatrix.zeros(2, 3)
        assert piv == ()

    def test_pivots_strictly_increasing(self):
        rng = random.Random(11)
        for _ in range(20):
            m, n = rng.randrange(1, 5), rng.randrange(1, 6)
            A = RatMatrix.from_rows(
                [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(m)])
            _, piv = rref(A)
            assert list(piv) == sorted(set(piv))

    @pytest.mark.parametrize("kind", ["full_rank", "rank_deficient", "zero_columns"])
    def test_against_sympy(self, kind):
        """rref picks the rounding pivots on the generate path: it must agree
        with an independent exact rref, matrix and pivot columns."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"rref-{kind}")
        for _ in range(12):
            m, n = rng.randrange(1, 7), rng.randrange(1, 9)
            rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)]
                    for _ in range(m)]
            if kind == "rank_deficient" and m > 1:
                # the last row combines two earlier ones
                a, b = Fraction(rng.randrange(-4, 5), 3), Fraction(rng.randrange(1, 5), 7)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(m - 1) // 2])]
            elif kind == "zero_columns":
                for c in rng.sample(range(n), max(1, n // 3)):
                    for r in rows:
                        r[c] = Fraction(0)
            R, piv = rref(RatMatrix.from_rows(rows))
            S, spiv = sympy.Matrix(
                [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows]).rref()
            assert piv == spiv
            assert [[Fraction(int(v.p), int(v.q)) for v in S.row(i)] for i in range(m)] \
                == R.to_rows()
            if kind == "rank_deficient" and m > 1:
                assert len(piv) < m


def test_fractions_always_reduced():
    # every operation stores reduced fractions with positive denominators
    M = RatMatrix.from_rows([["2/4", "0.50"], ["-6/8", "1.25"]])
    for i in range(2):
        for j in range(2):
            q = M.entry(i, j)
            assert q.denominator > 0
            from math import gcd
            assert gcd(abs(q.numerator), q.denominator) == 1
