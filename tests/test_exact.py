import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singres.exact import (
    CycloElement,
    UniPoly,
    brute_force_rank,
    cyclotomic_polynomial,
    euler_phi,
    exact_rank,
    exact_rref,
    kernel_basis,
    poly_gcd,
    poly_xgcd,
    solve_exact,
    squarefree_decomposition,
    unity_reduction_table,
)


def poly(*coeffs):
    return UniPoly(coeffs)


class TestUniPoly:
    def test_divmod_roundtrip(self):
        p = poly(Fraction(1), Fraction(2), Fraction(1))
        d = poly(Fraction(1), Fraction(1))
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero

    def test_from_roots_and_multiplicity(self):
        p = UniPoly.from_roots([Fraction(2), Fraction(2), Fraction(3)])
        assert p.root_multiplicity(Fraction(2)) == 2
        assert p.root_multiplicity(Fraction(3)) == 1
        assert p.root_multiplicity(Fraction(5)) == 0

    def test_derivative(self):
        assert poly(1, 2, 3).derivative() == poly(2, 6)


class TestGcd:
    def test_simple(self):
        assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)

    def test_x_factor(self):
        # gcd(x^3 - x, x^2) = x
        assert poly_gcd(poly(0, -1, 0, 1), poly(0, 0, 1)) == poly(0, 1)

    def test_factored_oracle(self):
        # gcd((x-2)^2 (x-3), (x-2)(x-5)) = x - 2
        p = UniPoly.from_roots([2, 2, 3])
        q = UniPoly.from_roots([2, 5])
        assert poly_gcd(p, q) == poly(-2, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="undefined gcd"):
            poly_gcd(UniPoly.zero(), UniPoly.zero())

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
            return UniPoly(coeffs)

        p, q, h = rand_poly(), rand_poly(), rand_poly()
        left = poly_gcd(p * h, q * h)
        right = (h * poly_gcd(p, q)).monic()
        assert left == right


class TestSquarefree:
    def test_layers(self):
        p = UniPoly.from_roots([1, 1, 2, 2, 2, 5])
        layers = dict((m, f) for f, m in squarefree_decomposition(p))
        assert layers[1] == poly(-5, 1)
        assert layers[2] == poly(-1, 1)
        assert layers[3] == poly(-2, 1)


class TestCyclotomic:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, poly(-1, 1)), (4, poly(1, 0, 1)), (6, poly(1, -1, 1))],
    )
    def test_small(self, n, expected):
        assert cyclotomic_polynomial(n) == expected

    def test_product_identity_up_to_60(self):
        for n in range(1, 61):
            prod = UniPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            target = UniPoly((-1,) + (0,) * (n - 1) + (1,))
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


class TestRank:
    def test_identity(self):
        assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_all_ones(self):
        assert exact_rank([[1] * 5] * 3) == 1

    def test_vandermonde(self):
        assert exact_rank([[1, 1, 1], [1, 2, 4], [1, 3, 9]]) == 3

    def test_fractions(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert exact_rank(m) == 1

    def test_against_brute_force_sampled(self):
        rng = random.Random(3)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            assert exact_rank(m) == brute_force_rank(m)

    def test_kernel_annihilates(self):
        rng = random.Random(4)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            for v in kernel_basis(m):
                for r in m:
                    assert sum(a * b for a, b in zip(r, v)) == 0

    def test_solve(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        x = solve_exact(m, [Fraction(3), Fraction(1)])
        assert x == [Fraction(2), Fraction(1)]
        assert solve_exact([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [Fraction(0), Fraction(1)]) is None

    def test_cyclo_elimination(self):
        # rows of unity powers for B = {0,3,6} at (1, w, w^2), w^3 = 1: rank 1
        n = 3
        rows = [
            [CycloElement.root_power(n, p * b) for b in (0, 3, 6)]
            for p in (0, 1, 2)
        ]
        rank, _, _ = exact_rref(rows)
        assert rank == 1
        assert exact_rank(rows) == 1

    def test_cyclo_rank_matches_rref(self):
        # the division-free elimination over Z[zeta_n] against the field RREF,
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
            want = exact_rref(rows)[0]
            assert exact_rank(rows) == want, (n, rows)
            deficient += want < min(nrows, ncols)
        assert deficient > 50
