import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from mpoly_oracle import RingPoly
from singres import verify
from singres.laurent import LaurentPoly, common_roots
from singres.mpoly import (
    DEFAULT_DET_BOUND,
    MPoly,
    _coefficient_vars,
    _divexact_packed,
    _divisor,
    _dot,
    _neg,
    _Packing,
    jacobian_vanishes,
    resultant_poly,
)
from singres.supports import SupportPair, SupportSet


def pair(b1, b2):
    return SupportPair(SupportSet(sorted({*b1})), SupportSet(sorted({*b2})))


def _max_exponent(polys):
    return max((max(e, default=0) for p in polys for e in p.terms), default=0)


def pack(packing, poly):
    """The terms of an MPoly keyed by packed monomials."""
    shifts = packing.shifts
    return {sum(k << s for k, s in zip(e, shifts)): c for e, c in poly.terms.items()}


def divexact(p, d):
    """p / d by the package's packed exact division; raises ArithmeticError
    if it leaves a remainder, a quotient coefficient outside Z included."""
    if not d.terms:
        raise ZeroDivisionError("division by zero polynomial")
    packing = _Packing(len(p.vars), _max_exponent((p, d)))
    quo = _divexact_packed(pack(packing, p), _divisor(pack(packing, d)), packing.guard)
    return packing.unpack(p.vars, quo)


def substitute(poly, assignment):
    """Substitute scalars for a subset of the variables, in Fractions: an
    RingPoly over the same variable tuple, substituted variables at exponent 0."""
    idx = {poly.vars.index(name): value for name, value in assignment.items()}
    out = {}
    for e, c in poly.terms.items():
        val = c
        ne = list(e)
        for i, v in idx.items():
            if e[i]:
                val = val * v ** e[i]
                ne[i] = 0
        key = tuple(ne)
        out[key] = out.get(key, 0) + val
    return RingPoly(poly.vars, out)


def specialize(poly, assignment):
    """The scalar value of poly at a full assignment."""
    return substitute(poly, assignment).terms.get((0,) * len(poly.vars), 0)


class TestMPoly:
    def test_arith(self):
        v = ("x", "y")
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_substitute_partial(self):
        v = ("x", "y")
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        p = x * y + y
        q = substitute(p, {"x": Fraction(2)})
        assert q == 3 * y

    def test_json_format(self):
        v = ("x", "y")
        p = RingPoly.var(v, "x") ** 3 - Fraction(7, 2) * RingPoly.var(v, "y")
        assert p.to_json() == {
            "vars": ["x", "y"],
            "terms": [{"exp": [0, 1], "coef": "-7/2"}, {"exp": [3, 0], "coef": "1"}],
        }

    def test_divexact(self):
        v = ("x", "y")
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        p = (x + y) * (x * x + 3 * y)
        assert divexact(p, x + y) == x * x + 3 * y

    def test_divexact_one_term_divisor(self):
        v = ("x", "y", "z")
        x, y, z = (RingPoly.var(v, n) for n in v)
        q = 2 * x**3 * z - 5 * y + 7 * x * y * z**2
        d = -3 * x**2 * y**4
        got = divexact(q * d, d)
        assert got == q
        assert all(type(c) is int for c in got.terms.values())

    def test_divexact_fraction_quotient(self):
        # a quotient coefficient outside Z is an inexact division, with a
        # one-term divisor and with a longer one
        v = ("x", "y")
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(3 * x * y + 6 * y + 2, RingPoly.const(v, 4))
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(x * x + 2 * x * y + y, 2 * x + y)
        exact = divexact(4 * x * y - 8, RingPoly.const(v, 4))
        assert exact.terms == {(1, 1): 1, (0, 0): -2}
        assert all(type(c) is int for c in exact.terms.values())

    def test_divexact_errors(self):
        v = ("x", "y")
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(x * x + y, x + y)
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(x**3 * y + 1, x * y**2)
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(x * y**2, x**2 * y)
        with pytest.raises(ArithmeticError, match="inexact"):
            divexact(x * y**2 + x, x**2 * y + x)
        with pytest.raises(ZeroDivisionError):
            divexact(x, RingPoly(v))

    def test_pretty_constant_term(self):
        # a germ off the curve has a constant term, written as its value
        st = ("s", "t")
        assert repr(MPoly(st, {(0, 0): 3, (1, 0): -1})) == "MPoly(-s + 3)"
        assert repr(MPoly(st, {(0, 0): -1})) == "MPoly(-1)"
        assert MPoly(st, {(0, 0): Fraction(1, 2), (1, 1): -2}).pretty() == "-2*s*t + 1/2"
        assert MPoly(st, {}).pretty() == "0"
        assert MPoly(("f0", "g1"), {(1, 1): 1, (2, 0): -3}).pretty() == "f0*g1 - 3*f0^2"


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


def binomial_trinomial_supports(max_spread):
    """Every support {0, s} and {0, m, s} with 0 < m < s <= max_spread."""
    out = [(0, s) for s in range(1, max_spread + 1)]
    out += [(0, m, s) for s in range(2, max_spread + 1) for m in range(1, s)]
    return out


def laplace_det(rows):
    """Reference determinant: cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = RingPoly(rows[0][0].vars)
    for j, cell in enumerate(rows[0]):
        if cell:
            term = cell * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
            acc = acc - term if j % 2 else acc + term
    return acc


@dataclass(frozen=True)
class SylvesterMatrix:
    size: int
    entries: tuple  # tuple of tuples of RingPoly
    vars: tuple


def sylvester_matrix(pair: SupportPair) -> SylvesterMatrix:
    """Sylvester matrix of the two homogenized forms with symbolic entries.

    Homogenization maps exponent b to x-degree b - min B, so the form of side
    i has degree d_i = spread(B_i); row blocks are d_2 shifted copies of the
    f coefficients (descending x-degree) over d_1 copies of the g rows.
    Exponents absent from the support contribute zero entries.
    """
    vars = _coefficient_vars(pair)
    d1, d2 = pair.b1.spread, pair.b2.spread
    size = d1 + d2

    def coeff_row(support, prefix, degree):
        # descending x-degree: position t holds the coefficient of x^(degree-t)
        row = []
        for t in range(degree + 1):
            b = support.min + degree - t
            if b in support:
                row.append(RingPoly.var(vars, f"{prefix}{b}"))
            else:
                row.append(RingPoly(vars))
        return row

    frow = coeff_row(pair.b1, "f", d1)
    grow = coeff_row(pair.b2, "g", d2)
    zero = RingPoly(vars)
    entries = []
    for i in range(d2):
        entries.append(tuple([zero] * i + frow + [zero] * (size - d1 - 1 - i)))
    for i in range(d1):
        entries.append(tuple([zero] * i + grow + [zero] * (size - d2 - 1 - i)))
    return SylvesterMatrix(size, tuple(entries), vars)


def determinant(entries, bound=DEFAULT_DET_BOUND):
    """Reference determinant of a square RingPoly matrix by fraction-free
    elimination, the oracle for `resultant_poly`.

    Bareiss's recurrence a_ij <- (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1) keeps
    every entry a minor of the input, so each division is exact, in Z once
    the entries are scaled to integer coefficients: with D the lcm of their
    denominators, det M = det(D M) / D^n.  A zero pivot is replaced by the first nonzero entry below it (a row swap, which
    flips the sign); a column with no nonzero pivot makes the matrix
    singular.
    """
    n = len(entries)
    if n > bound:
        raise ValueError("determinant too large")
    if n == 0:
        raise ValueError("empty matrix")
    vars = entries[0][0].vars
    # every entry stays a minor, so its exponents are at most n * (largest
    # input exponent); a product of two entries may set guard bits but cannot
    # carry, and its exact quotient is again a valid minor
    packing = _Packing(len(vars), n * _max_exponent(cell for row in entries for cell in row))
    guard = packing.guard
    den = math.lcm(*(c.denominator for row in entries for cell in row for c in cell.terms.values()))
    a = [[{m: int(c * den) for m, c in pack(packing, cell).items()} for cell in row] for row in entries]
    sign = 1
    prev, divisor = None, None  # the previous pivot; None stands for 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return RingPoly(vars)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            if not lead and pivot == prev:
                continue  # the row is scaled by pivot / prev = 1
            for j in range(k + 1, n):
                if row[j] or lead and top[j]:
                    num = _dot([(pivot, row[j]), (_neg(lead), top[j])])
                    row[j] = _divexact_packed(num, divisor, guard) if divisor and num else num
        prev, divisor = pivot, _divisor(pivot)
    det = {m: Fraction(c, den**n) if den > 1 else c for m, c in a[n - 1][n - 1].items()}
    return packing.unpack(vars, _neg(det) if sign < 0 else det)


def sylvester_det(p, bound=DEFAULT_DET_BOUND):
    """The resultant as the Bareiss determinant of the Sylvester matrix."""
    return determinant([list(r) for r in sylvester_matrix(p).entries], bound=bound)


class TestSylvester:
    def test_degree_one(self):
        syl = sylvester_matrix(pair((0, 1), (0, 1)))
        assert syl.size == 2
        names = [[next(iter(e.terms), None) for e in row] for row in syl.entries]
        # [[f1, f0], [g1, g0]] by descending x-degree
        v = syl.vars
        assert syl.entries[0][0] == RingPoly.var(v, "f1")
        assert syl.entries[0][1] == RingPoly.var(v, "f0")
        assert syl.entries[1][0] == RingPoly.var(v, "g1")
        assert syl.entries[1][1] == RingPoly.var(v, "g0")

    def test_gap_slots_zero(self):
        syl = sylvester_matrix(pair((0, 1, 3), (0, 3)))
        assert syl.size == 6
        # first f row: x^3, x^2, x^1, x^0 coefficients = f3, 0, f1, f0
        row = syl.entries[0]
        assert not row[1].terms
        assert row[0].terms and row[2].terms and row[3].terms

    def test_middle_gap(self):
        syl = sylvester_matrix(pair((0, 2), (0, 1)))
        assert syl.size == 3
        assert not syl.entries[0][1].terms  # x-slot of f is empty


def _random_entry(rng, vars, fractions):
    """Sparse random RingPoly of total degree at most 3, zero about a third of the time."""
    if rng.random() < 0.35:
        return RingPoly(vars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * len(vars)
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(len(vars))] += 1
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[tuple(exp)] = Fraction(c, rng.randint(1, 3)) if fractions else c
    return RingPoly(vars, terms)


class TestResultant:
    def test_closed_form(self):
        r = resultant_poly(pair((0, 1, 3), (0, 3)))
        v = r.vars
        a, b, c = (RingPoly.var(v, n) for n in ("f3", "f1", "f0"))
        d, e = (RingPoly.var(v, n) for n in ("g3", "g0"))
        expected = (a * e - c * d) ** 3 + b**3 * d**2 * e
        assert r == expected or r == -expected

    def test_degree_one(self):
        r = resultant_poly(pair((0, 1), (0, 1)))
        v = r.vars
        expected = RingPoly.var(v, "f1") * RingPoly.var(v, "g0") - RingPoly.var(v, "f0") * RingPoly.var(v, "g1")
        assert r in (expected, -expected)

    def test_verify_term_maps_are_the_closed_forms(self, monkeypatch):
        # the two resultant checks of verify-paper compare r.terms with term
        # maps written out by hand; fed the ring's expansions of the closed
        # forms in place of resultant_poly, each check passes with the sign
        # it is fed, and fails on a perturbed form
        def closed_form(p):
            x = {name: RingPoly.var(_coefficient_vars(p), name) for name in _coefficient_vars(p)}
            if "f3" in x:
                return (x["f3"] * x["g0"] - x["f0"] * x["g3"]) ** 3 + x["f1"] ** 3 * x["g3"] ** 2 * x["g0"]
            return x["f1"] * x["g0"] - x["f0"] * x["g1"]

        for sign, want in ((1, "+"), (-1, "-")):
            monkeypatch.setattr(verify, "resultant_poly", lambda p: sign * closed_form(p))
            assert verify.check_closed_form_resultant() == (True, {"matched_sign": want})
            assert verify.check_degree_one_resultant() == (True, {})
        monkeypatch.setattr(verify, "resultant_poly", lambda p: closed_form(p) + RingPoly.var(_coefficient_vars(p), "g0"))
        assert verify.check_closed_form_resultant() == (False, {"matched_sign": None})
        assert verify.check_degree_one_resultant() == (False, {})

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

    def assert_matches_oracle(self, pairs, bound=DEFAULT_DET_BOUND):
        for p in pairs:
            assert resultant_poly(p, bound=bound).to_json() == sylvester_det(p, bound).to_json(), p.to_json()

    def test_oracle_small_pairs(self):
        self.assert_matches_oracle(small_pairs(6))

    def test_oracle_pair_query_shapes(self):
        self.assert_matches_oracle([pair(b1, b2) for b1, b2 in PAIR_QUERY_SHAPES], bound=40)

    def test_oracle_binomial_trinomial_pairs(self):
        supports = binomial_trinomial_supports(6)
        assert len(supports) == 21
        self.assert_matches_oracle([pair(b1, b2) for b1 in supports for b2 in supports])

    def test_oracle_every_support_to_spread_four(self):
        # dense supports too, with normal and defective remainder steps
        supports = [(0, *mid, s) for s in range(1, 5) for k in range(s) for mid in combinations(range(1, s), k)]
        assert len(supports) == 15
        self.assert_matches_oracle([pair(b1, b2) for b1 in supports for b2 in supports])

    def test_oracle_swapped_degrees(self):
        # d1 * d2 odd, either side the larger: the sign (-1)^(d1 d2) of the swap
        # shows; shifted and negative exponents homogenize the same way
        shapes = [((0, 1), (0, 7)), ((0, 7), (0, 1)), ((0, 3), (0, 5)), ((0, 2, 5), (0, 1, 3)),
                  ((0, 1, 3), (0, 4, 5)), ((-2, 1, 4), (3, 6, 9)), ((0, 5, 9), (-3, 0))]
        self.assert_matches_oracle([pair(b1, b2) for b1, b2 in shapes])

    def test_anchor_sympy(self):
        # the 80 x 80 anchor resultant of the pair-queries benchmark
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(15)
        b1, b2 = (0, 1, 40), (0, 40)
        poly = resultant_poly(pair(b1, b2), bound=80)
        for _ in range(2):
            values = {f"f{b}": rng.choice((-1, 1)) * rng.randint(1, 4) for b in b1}
            values.update({f"g{b}": rng.choice((-1, 1)) * rng.randint(1, 4) for b in b2})
            f = sum(values[f"f{b}"] * x**b for b in b1)
            g = sum(values[f"g{b}"] * x**b for b in b2)
            assert specialize(poly, values) == int(sympy.resultant(f, g, x))

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
                assert specialize(poly, values) == int(sympy.resultant(f, g, x))


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
            rows[0][0] = RingPoly(self.VARS)
            rows[-1][0] = RingPoly.var(self.VARS, "x")
            assert determinant(rows) == laplace_det(rows)

    def test_zero_pivot_mid_elimination(self):
        v = self.VARS
        x, y, one, zero = RingPoly.var(v, "x"), RingPoly.var(v, "y"), RingPoly.const(v, 1), RingPoly(v)
        # after the first step the (1, 1) entry is x*y - x*y = 0: a row swap at step 1
        rows = [[x, y, one], [x, y, zero], [one, zero, y]]
        got = determinant(rows)
        assert got == laplace_det(rows)
        assert got == -y

    def test_fraction_entries(self):
        v = self.VARS
        x, y = RingPoly.var(v, "x"), RingPoly.var(v, "y")
        rows = [[Fraction(1, 2) * x, y], [Fraction(-2, 3) * y, 3 * x + Fraction(1, 5)]]
        assert determinant(rows) == Fraction(3, 2) * x * x + Fraction(1, 10) * x + Fraction(2, 3) * y * y

    def test_high_degree_entries(self):
        # entries of total degree 3 in one variable: exponents up to 2 * n * 3 while eliminating
        v = self.VARS
        x, y, z = (RingPoly.var(v, n) for n in v)
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
            rows[1] = [RingPoly.var(self.VARS, "y") * c for c in rows[0]]  # row 1 = y * row 0
            assert not determinant(rows).terms
        empty_column = [[RingPoly(self.VARS), RingPoly.var(self.VARS, "x")]] * 2
        assert not determinant(empty_column).terms

    def test_one_by_one(self):
        v = self.VARS
        cell = 2 * RingPoly.var(v, "x") ** 3 - Fraction(1, 3)
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
