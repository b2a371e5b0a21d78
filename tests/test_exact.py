import random
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import (
    CycloElement,
    QPoly,
    cyclo_rank,
    cyclo_rref,
    cyclotomic_polynomial,
    poly_xgcd,
    q_gcd,
    unity_reduction_table,
)
from singres.exact import (
    derivative,
    exact_quo,
    exact_rref,
    kernel_basis,
    modular_kernel_vector,
    modular_rank,
    is_prime,
    power_table,
    primitive,
    prs_gcd,
    root_multiplicity,
    root_of_order,
    split_primes,
)
from singres.strata import _certificate_prime
from singres.supports import SupportSet
from test_minors import closed_form_rank


def euler_phi(n: int) -> int:
    """Euler's totient by trial division: the oracle for cyclotomic degrees."""
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def brute_force_rank(matrix) -> int:
    """Independent rank oracle: largest k with a nonvanishing k×k minor."""
    rows = [list(r) for r in matrix]
    n, m = len(rows), len(rows[0])

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 1:
            return Fraction(rows[idx_r[0]][idx_c[0]])
        acc = Fraction(0)
        sign = 1
        for t, c in enumerate(idx_c):
            acc += sign * Fraction(rows[idx_r[0]][c]) * det(idx_r[1:], idx_c[:t] + idx_c[t + 1 :])
            sign = -sign
        return acc

    for k in range(min(n, m), 0, -1):
        for ir in combinations(range(n), k):
            for ic in combinations(range(m), k):
                if det(tuple(ir), tuple(ic)) != 0:
                    return k
    return 0


def poly(*coeffs):
    return QPoly(coeffs)


class TestUniPoly:
    """The integer-primitive univariate core: primitive integer coefficient
    tuples, ascending in degree."""

    def test_divmod_roundtrip(self):
        assert exact_quo((1, 2, 1), (1, 1)) == (1, 1)
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_quo((1, 0, 1), (1, 1))

    def test_primitive_clears_denominators_and_sign(self):
        assert primitive((Fraction(-1, 2), 0, Fraction(-3, 4))) == (2, 0, 3)
        assert primitive((6, -4, 0)) == (-3, 2)

    def test_from_roots_and_multiplicity(self):
        p = primitive(QPoly.from_roots([Fraction(2), Fraction(2), Fraction(3)]).coeffs)
        assert root_multiplicity(p, Fraction(2)) == 2
        assert root_multiplicity(p, Fraction(3)) == 1
        assert root_multiplicity(p, Fraction(5)) == 0

    def test_derivative(self):
        assert derivative((1, 2, 3)) == (2, 6)


class TestGcd:
    """`prs_gcd` on primitive integer tuples, against the Euclidean gcd of
    the `QPoly` oracle."""

    def test_simple(self):
        assert prs_gcd((-1, 0, 1), (-1, 1)) == (-1, 1)

    def test_x_factor(self):
        # gcd(x^3 - x, x^2) = x
        assert prs_gcd((0, -1, 0, 1), (0, 0, 1)) == (0, 1)

    def test_factored_oracle(self):
        # gcd((x-2)^2 (x-3), 2 (x-2)(x-5)) = x - 2
        p = QPoly.from_roots([2, 2, 3])
        q = QPoly.from_roots([2, 5]) * 2
        assert prs_gcd(p.coeffs, q.coeffs) == (-2, 1) == q_gcd(p, q).coeffs

    def test_both_zero_rejected(self):
        # a zero polynomial enters the core through its primitive part, which it has not
        with pytest.raises(ValueError, match="zero polynomial"):
            prs_gcd(primitive(()), primitive(()))

    def test_xgcd_identity(self):
        p, q = poly(2, 0, 1), poly(1, 1)
        g, u, v = poly_xgcd(p, q)
        assert u * p + v * q == g

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_gcd_multiplicative(self, data):
        def rand_poly():
            deg = data.draw(st.integers(0, 3))
            coeffs = [data.draw(st.integers(-4, 4)) for _ in range(deg)] + [
                data.draw(st.integers(1, 4))
            ]
            return QPoly(coeffs)

        p, q, h = rand_poly(), rand_poly(), rand_poly()
        left = prs_gcd((p * h).coeffs, (q * h).coeffs)
        right = primitive((h * QPoly(prs_gcd(p.coeffs, q.coeffs))).coeffs)
        assert left == right == primitive(q_gcd(p * h, q * h).coeffs)


class TestCyclotomic:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, poly(-1, 1)), (4, poly(1, 0, 1)), (6, poly(1, -1, 1))],
    )
    def test_small(self, n, expected):
        assert cyclotomic_polynomial(n) == expected

    def test_product_identity_up_to_60(self):
        for n in range(1, 61):
            prod = QPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            target = QPoly((-1,) + (0,) * (n - 1) + (1,))
            assert prod == target, f"divisor product fails at n={n}"

    def test_degree_is_euler_phi(self):
        for n in range(1, 40):
            assert cyclotomic_polynomial(n).degree == euler_phi(n)


class TestCycloElement:
    def test_zero_examples(self):
        assert CycloElement.from_poly(3, [1, 1, 1]).is_zero
        assert CycloElement.from_poly(4, [1, 0, 1]).is_zero
        assert not CycloElement.from_poly(5, [1, 1]).is_zero

    def test_subtraction_gives_zero(self):
        rng = random.Random(1)
        for n in (5, 8, 12):
            deg = cyclotomic_polynomial(n).degree
            a = CycloElement(n, [rng.randint(-9, 9) for _ in range(deg)])
            assert (a - a).is_zero

    def test_integral_domain(self):
        rng = random.Random(2)
        for n in (3, 4, 5, 6, 7, 12):
            deg = cyclotomic_polynomial(n).degree
            for _ in range(20):
                a = CycloElement(n, [rng.randint(-3, 3) for _ in range(deg)])
                b = CycloElement(n, [rng.randint(-3, 3) for _ in range(deg)])
                if not a.is_zero and not b.is_zero:
                    assert not (a * b).is_zero

    def test_root_power_order(self):
        z = CycloElement.root_power(5, 1)
        acc = CycloElement.from_int(5, 1)
        for _ in range(5):
            acc = acc * z
        assert acc == CycloElement.from_int(5, 1)

    def test_inverse(self):
        e = CycloElement.root_power(7, 3) + CycloElement.from_int(7, 2)
        assert (e * e.inverse()) == CycloElement.from_int(7, 1)

    def test_reduction_table_matches_multiplication(self):
        for n in (6, 8, 12):
            table = unity_reduction_table(n)
            z = CycloElement.root_power(n, 1)
            acc = CycloElement.from_int(n, 1)
            for j in range(n):
                assert tuple(acc.coeffs) == table[j]
                acc = acc * z


def rank_mod_p(rows, p):
    """Rank over F_p by Gauss-Jordan elimination with inverses."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRank:
    def test_identity(self):
        assert exact_rref([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[0] == 3

    def test_all_ones(self):
        assert exact_rref([[1] * 5] * 3)[0] == 1

    def test_vandermonde(self):
        assert exact_rref([[1, 1, 1], [1, 2, 4], [1, 3, 9]])[0] == 3

    def test_fractions(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert exact_rref(m)[0] == 1

    def test_against_brute_force_sampled(self):
        rng = random.Random(3)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            assert exact_rref(m)[0] == brute_force_rank(m)

    def test_kernel_annihilates(self):
        rng = random.Random(4)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            for v in kernel_basis(m):
                for r in m:
                    assert sum(a * b for a, b in zip(r, v)) == 0

    def test_modular_kernel_vector(self):
        # random stacks over F_p at mixed primes, many with planted dependent
        # rows: one elimination gives modular_rank's rank (a Gauss-Jordan
        # oracle's, at most the rank over Q) and a kernel vector, nonzero
        # exactly when the kernel is (the weights are units mod p)
        rng = random.Random(31)
        mats, primes = [], []
        for _ in range(300):
            p = rng.choice((7, 1009, 2**31 - 1))
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(6)] for _ in range(nrows)]
            for i in range(1, nrows):
                if rng.random() < 0.5:
                    a, j = rng.randrange(p), rng.randrange(i)
                    rows[i] = [(a * x + y) % p for x, y in zip(rows[j], rows[rng.randrange(i)])]
            mat = [[x if c < ncols else 0 for c, x in enumerate(row)] for row in rows]
            mats.append(mat + [[0] * 6] * (5 - nrows))
            primes.append(p)
        weights = [[rng.randrange(1, 7) for _ in range(6)] for _ in mats]
        rank, vecs = modular_kernel_vector(np.array(mats, dtype=np.int64), primes, weights)
        assert rank.tolist() == modular_rank(np.array(mats, dtype=np.int64), primes).tolist()
        deficient = 0
        for mat, p, r, v in zip(mats, primes, rank.tolist(), vecs.tolist()):
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in mat)
            assert any(v) == (r < 6)
            assert r == rank_mod_p(mat, p) <= exact_rref(mat)[0]
            deficient += r < min(sum(any(row) for row in mat), 6)
        assert deficient > 30

    def test_cyclo_elimination(self):
        # rows of unity powers for B = {0,3,6} at (1, w, w^2), w^3 = 1: rank 1
        n = 3
        rows = [
            [CycloElement.root_power(n, p * b) for b in (0, 3, 6)]
            for p in (0, 1, 2)
        ]
        rank, _, _ = cyclo_rref(rows)
        assert rank == 1
        assert cyclo_rank(rows) == 1
        assert closed_form_rank(SupportSet((0, 3, 6)), n, [1], [2]).tolist() == [1]

    def test_cyclo_rank_with_integer_content_and_fractions(self):
        # rows sharing integer content are divided by it; a Fraction entry
        # skips the division; neither changes the rank
        z = CycloElement.root_power(6, 1)
        rows = [[6 * z, 4, 2 * z * z], [3 * z, 2, z * z], [Fraction(1, 2) * z, Fraction(1, 3), 1]]
        assert cyclo_rank(rows) == cyclo_rref(rows)[0] == 2
        content = [[12 * z, 8 * z * z], [18 * z * z, 30]]
        assert cyclo_rank(content) == cyclo_rref(content)[0] == 2

    def test_cyclo_rank_matches_rref(self):
        # the oracle's division-free elimination over Z[zeta_n] against its field RREF,
        # with planted dependent rows so that rank deficiency is common
        rng = random.Random(9)
        deficient = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)

            def entry():
                if rng.random() < 0.3:
                    return CycloElement.zero(n)
                return sum(
                    (rng.randint(-3, 3) * CycloElement.root_power(n, rng.randrange(n)) for _ in range(2)),
                    CycloElement.zero(n),
                )

            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            for i in range(1, nrows):
                if rng.random() < 0.4:
                    a, b = entry(), entry()
                    rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
            want = cyclo_rref(rows)[0]
            assert cyclo_rank(rows) == want, (n, rows)
            deficient += want < min(nrows, ncols)
        assert deficient > 50


def prime_factors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


class TestRootOfOrder:
    """The one search for an element of order n in F_p^*, against the two
    searches it replaced: the split primes' a^((p - 1)/n) and the
    certificates' least generator."""

    def test_split_primes(self):
        for n in range(1, 41):
            for p, z in islice(split_primes(n), 3):
                candidates = (pow(a, (p - 1) // n, p) for a in range(2, p))
                want = next(w for w in candidates if all(pow(w, n // q, p) != 1 for q in prime_factors(n)))
                assert z == root_of_order(n, p) == want, (n, p)
                assert pow(z, n, p) == 1 and all(pow(z, n // q, p) != 1 for q in prime_factors(n))

    def test_certificate_generators(self):
        for g in range(1, 31):
            for index in range(3):
                p = _certificate_prime(g, index)
                want = next(a for a in range(2, p) if all(pow(a, (p - 1) // q, p) != 1 for q in prime_factors(p - 1)))
                assert root_of_order(p - 1, p) == want, (g, index)
                # order exactly p - 1: its powers run over all of F_p^*
                assert sorted(power_table(want, p - 1, p).tolist()) == list(range(1, p))

    def test_order_must_divide(self):
        with pytest.raises(ValueError):
            root_of_order(5, 13)

    def test_power_table(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rng.choice((7, 1009, 2**31 - 1))
            z, n = rng.randrange(p), rng.randint(1, 50)
            table = power_table(z, n, p)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert table.tolist() == [pow(z, k, p) for k in range(n)]
            assert power_table(z, n, p) is table
