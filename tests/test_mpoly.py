import random
from fractions import Fraction
from itertools import combinations

import pytest

from singres.laurent import LaurentPoly, common_roots
from singres.mpoly import (
    MPoly,
    determinant,
    jacobian_vanishes,
    resultant_poly,
    specialize,
    sylvester_matrix,
)
from singres.supports import SupportPair, SupportSet


def pair(b1, b2):
    return SupportPair(SupportSet.of(*b1), SupportSet.of(*b2))


class TestMPoly:
    def test_arith(self):
        v = ("x", "y")
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_substitute_partial(self):
        v = ("x", "y")
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        p = x * y + y
        q = p.substitute({"x": Fraction(2)})
        assert q == 3 * y

    def test_json_roundtrip(self):
        v = ("x", "y")
        p = MPoly.var(v, "x") ** 3 - 7 * MPoly.var(v, "y")
        assert MPoly.from_json(p.to_json()) == p

    def test_divexact(self):
        v = ("x", "y")
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        p = (x + y) * (x * x + 3 * y)
        assert p.divexact(x + y) == x * x + 3 * y

    def test_divexact_one_term_divisor(self):
        v = ("x", "y", "z")
        x, y, z = (MPoly.var(v, n) for n in v)
        q = 2 * x**3 * z - 5 * y + 7 * x * y * z**2
        d = -3 * x**2 * y**4
        got = (q * d).divexact(d)
        assert got == q
        assert all(type(c) is int for c in got.terms.values())

    def test_divexact_fraction_quotient(self):
        v = ("x", "y")
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        got = (3 * x * y + 6 * y + 2).divexact(MPoly.const(v, 4))
        assert got.terms == {(1, 1): Fraction(3, 4), (0, 1): Fraction(3, 2), (0, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in got.terms.values())
        exact = (4 * x * y - 8).divexact(MPoly.const(v, 4))
        assert exact.terms == {(1, 1): 1, (0, 0): -2}
        assert all(type(c) is int for c in exact.terms.values())

    def test_divexact_errors(self):
        v = ("x", "y")
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        with pytest.raises(ArithmeticError, match="inexact"):
            (x * x + y).divexact(x + y)
        with pytest.raises(ArithmeticError, match="inexact"):
            (x**3 * y + 1).divexact(x * y**2)
        with pytest.raises(ArithmeticError, match="inexact"):
            (x * y**2).divexact(x**2 * y)
        with pytest.raises(ArithmeticError, match="inexact"):
            (x * y**2 + x).divexact(x**2 * y + x)
        with pytest.raises(ZeroDivisionError):
            x.divexact(MPoly.zero(v))


class TestSylvester:
    def test_degree_one(self):
        syl = sylvester_matrix(pair((0, 1), (0, 1)))
        assert syl.size == 2
        names = [[next(iter(e.terms), None) for e in row] for row in syl.entries]
        # [[f1, f0], [g1, g0]] by descending x-degree
        v = syl.vars
        assert syl.entries[0][0] == MPoly.var(v, "f1")
        assert syl.entries[0][1] == MPoly.var(v, "f0")
        assert syl.entries[1][0] == MPoly.var(v, "g1")
        assert syl.entries[1][1] == MPoly.var(v, "g0")

    def test_gap_slots_zero(self):
        syl = sylvester_matrix(pair((0, 1, 3), (0, 3)))
        assert syl.size == 6
        # first f row: x^3, x^2, x^1, x^0 coefficients = f3, 0, f1, f0
        row = syl.entries[0]
        assert row[1].is_zero
        assert not row[0].is_zero and not row[2].is_zero and not row[3].is_zero

    def test_middle_gap(self):
        syl = sylvester_matrix(pair((0, 2), (0, 1)))
        assert syl.size == 3
        assert syl.entries[0][1].is_zero  # x-slot of f is empty


def _random_poly_with_root(rng, support, root):
    """Exact polynomial on the support vanishing at the given nonzero root."""
    elems = support.elements
    while True:
        coeffs = {b: Fraction(rng.randint(-5, 5)) for b in elems[1:]}
        val = sum(c * root**b for b, c in coeffs.items())
        coeffs[elems[0]] = -val / root ** elems[0]
        f = LaurentPoly(support, coeffs)
        if not f.is_zero:
            return f


def _random_poly(rng, support):
    while True:
        f = LaurentPoly(support, {b: Fraction(rng.randint(-5, 5)) for b in support.elements})
        if not f.is_zero:
            return f


def _specialize_at(poly, p, f, g):
    assignment = {}
    for b in p.b1:
        assignment[f"f{b}"] = f.coeff(b)
    for b in p.b2:
        assignment[f"g{b}"] = g.coeff(b)
    return specialize(poly, assignment)


def small_pairs(max_total_spread):
    out = []
    for s1 in (1, 2, 3, 4):
        for s2 in (1, 2, 3, 4):
            if s1 + s2 > max_total_spread:
                continue
            for b1 in combinations(range(s1 + 1), min(s1 + 1, 3)):
                if 0 not in b1 or s1 not in b1:
                    continue
                for b2 in combinations(range(s2 + 1), min(s2 + 1, 2)):
                    if 0 not in b2 or s2 not in b2:
                        continue
                    out.append(pair(b1, b2))
    return out


# the resultant shapes of the pair-queries benchmark workload, Sylvester sizes 5 to 40
PAIR_QUERY_SHAPES = (
    ((0, 1, 3), (0, 2)), ((0, 2, 5), (0, 3)), ((0, 1, 4), (0, 2, 5)),
    ((0, 3, 6), (0, 1, 4)), ((0, 1, 5), (0, 3, 5)), ((0, 1, 2), (0, 1, 8)),
    ((0, 3, 7), (0, 3)), ((0, 2, 7), (0, 1, 8)), ((0, 4, 9), (0, 9)),
    ((0, 5, 10), (0, 10)), ((0, 1, 12), (0, 12)), ((0, 5, 13), (0, 13)),
    ((0, 7, 14), (0, 14)), ((0, 11, 16), (0, 16)), ((0, 3, 20), (0, 20)),
)


def laplace_det(rows):
    """Reference determinant: cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = MPoly.zero(rows[0][0].vars)
    for j, cell in enumerate(rows[0]):
        if cell:
            term = cell * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
            acc = acc - term if j % 2 else acc + term
    return acc


def _random_entry(rng, vars, fractions):
    """Sparse random MPoly of total degree at most 3, zero about a third of the time."""
    if rng.random() < 0.35:
        return MPoly.zero(vars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * len(vars)
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(len(vars))] += 1
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[tuple(exp)] = Fraction(c, rng.randint(1, 3)) if fractions else c
    return MPoly(vars, terms)


class TestResultant:
    def test_closed_form(self):
        r = resultant_poly(pair((0, 1, 3), (0, 3)))
        v = r.vars
        a, b, c = (MPoly.var(v, n) for n in ("f3", "f1", "f0"))
        d, e = (MPoly.var(v, n) for n in ("g3", "g0"))
        expected = (a * e - c * d) ** 3 + b**3 * d**2 * e
        assert r == expected or r == -expected

    def test_degree_one(self):
        r = resultant_poly(pair((0, 1), (0, 1)))
        v = r.vars
        expected = MPoly.var(v, "f1") * MPoly.var(v, "g0") - MPoly.var(v, "f0") * MPoly.var(v, "g1")
        assert r in (expected, -expected)

    def test_size_bound(self):
        with pytest.raises(ValueError, match="determinant too large"):
            resultant_poly(pair((0, 10), (0, 10)), bound=16)

    def test_vanishes_on_common_root(self):
        rng = random.Random(11)
        for p in small_pairs(6):
            poly = resultant_poly(p)
            for _ in range(12):
                root = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                f = _random_poly_with_root(rng, p.b1, root)
                g = _random_poly_with_root(rng, p.b2, root)
                assert _specialize_at(poly, p, f, g) == 0

    def test_nonzero_without_common_root(self):
        rng = random.Random(12)
        for p in small_pairs(6):
            poly = resultant_poly(p)
            hits = 0
            for _ in range(12):
                f = _random_poly(rng, p.b1)
                g = _random_poly(rng, p.b2)
                if common_roots(f, g):
                    continue
                hits += 1
                assert _specialize_at(poly, p, f, g) != 0
            assert hits > 0

    def test_bihomogeneous(self):
        rng = random.Random(13)
        p = pair((0, 1, 3), (0, 3))
        poly = resultant_poly(p)
        d1, d2 = p.b1.spread, p.b2.spread
        for _ in range(10):
            f = _random_poly(rng, p.b1)
            g = _random_poly(rng, p.b2)
            lam = Fraction(rng.randint(2, 5))
            base = _specialize_at(poly, p, f, g)
            scaled_f = LaurentPoly(p.b1, {b: lam * c for b, c in f.coeffs.items()})
            assert _specialize_at(poly, p, scaled_f, g) == lam**d2 * base
            scaled_g = LaurentPoly(p.b2, {b: lam * c for b, c in g.coeffs.items()})
            assert _specialize_at(poly, p, f, scaled_g) == lam**d1 * base

    def test_det_matches_laplace(self):
        for p in small_pairs(6):
            rows = [list(r) for r in sylvester_matrix(p).entries]
            assert determinant(rows) == laplace_det(rows)

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(14)
        for b1, b2 in PAIR_QUERY_SHAPES:
            p = pair(b1, b2)
            poly = resultant_poly(p, bound=40)
            for _ in range(2):
                values = {f"f{b}": rng.choice((-1, 1)) * rng.randint(1, 4) for b in b1}
                values.update({f"g{b}": rng.choice((-1, 1)) * rng.randint(1, 4) for b in b2})
                f = sum(values[f"f{b}"] * x ** (b - b1[0]) for b in b1)
                g = sum(values[f"g{b}"] * x ** (b - b2[0]) for b in b2)
                want = int(sympy.resultant(f, g, x))
                assert specialize(poly, values) in (want, -want)


class TestDeterminant:
    VARS = ("x", "y", "z")

    def _matrix(self, rng, n, fractions=False):
        return [[_random_entry(rng, self.VARS, fractions) for _ in range(n)] for _ in range(n)]

    def test_random_sparse_matrices(self):
        rng = random.Random(21)
        for trial in range(36):
            n = 1 + trial % 6
            rows = self._matrix(rng, n, fractions=trial % 3 == 0)
            assert determinant(rows) == laplace_det(rows)

    def test_zero_leading_pivot(self):
        rng = random.Random(22)
        for n in (2, 4, 6):
            rows = self._matrix(rng, n)
            rows[0][0] = MPoly.zero(self.VARS)
            rows[-1][0] = MPoly.var(self.VARS, "x")
            assert determinant(rows) == laplace_det(rows)

    def test_zero_pivot_mid_elimination(self):
        v = self.VARS
        x, y, one, zero = MPoly.var(v, "x"), MPoly.var(v, "y"), MPoly.const(v, 1), MPoly.zero(v)
        # after the first step the (1, 1) entry is x*y - x*y = 0: a row swap at step 1
        rows = [[x, y, one], [x, y, zero], [one, zero, y]]
        got = determinant(rows)
        assert got == laplace_det(rows)
        assert got == -y

    def test_fraction_entries(self):
        v = self.VARS
        x, y = MPoly.var(v, "x"), MPoly.var(v, "y")
        rows = [[Fraction(1, 2) * x, y], [Fraction(-2, 3) * y, 3 * x + Fraction(1, 5)]]
        assert determinant(rows) == Fraction(3, 2) * x * x + Fraction(1, 10) * x + Fraction(2, 3) * y * y

    def test_high_degree_entries(self):
        # entries of total degree 3 in one variable: exponents up to 2 * n * 3 while eliminating
        v = self.VARS
        x, y, z = (MPoly.var(v, n) for n in v)
        rows = [
            [x**3, y**3 + 1, z**3],
            [z**3 - x, x**3, 2 * y**3],
            [y**3, z**3 + x * y * z, x**3 - 1],
        ]
        assert determinant(rows) == laplace_det(rows)

    def test_singular_matrix(self):
        rng = random.Random(23)
        for n in (2, 3, 5):
            rows = self._matrix(rng, n)
            rows[1] = [MPoly.var(self.VARS, "y") * c for c in rows[0]]  # row 1 = y * row 0
            assert determinant(rows).is_zero
        empty_column = [[MPoly.zero(self.VARS), MPoly.var(self.VARS, "x")]] * 2
        assert determinant(empty_column).is_zero

    def test_one_by_one(self):
        v = self.VARS
        cell = 2 * MPoly.var(v, "x") ** 3 - Fraction(1, 3)
        assert determinant([[cell]]) == cell
        with pytest.raises(ValueError, match="determinant too large"):
            determinant([[cell]], bound=0)


class TestSpecializeJacobian:
    def test_specialize_scalar(self):
        r = resultant_poly(pair((0, 1), (0, 1)))
        val = specialize(r, {"f1": 1, "g0": 1, "f0": 1, "g1": 1})
        assert val == 0

    def test_jacobian_at_origin(self):
        r = resultant_poly(pair((0, 1), (0, 1)))
        assert jacobian_vanishes(r, {name: 0 for name in r.vars})
        assert not jacobian_vanishes(r, {"f1": 1, "g0": 1, "f0": 1, "g1": 1})

    def test_jacobian_on_singular_curve(self):
        r = resultant_poly(pair((0, 1, 3), (0, 3)))
        assert jacobian_vanishes(r, {"f3": 1, "f1": 0, "f0": 1, "g3": 1, "g0": 1})
        assert jacobian_vanishes(r, {"f3": 1, "f1": 0, "f0": Fraction(7, 3), "g3": 1, "g0": Fraction(7, 3)})
