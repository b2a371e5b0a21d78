"""The integer-primitive univariate core, the germ slice and the Jacobian test
against Fraction oracles: `QPoly` long division and Euclidean gcd, Fraction
germ products and Fraction substitution."""

import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import QPoly, q_gcd
from singres.exact import clear_denominators, exact_quo, primitive, prs_gcd, root_multiplicity
from singres.germs import slice_germ
from singres.laurent import LaurentPoly, classify_point, common_roots
from singres.mpoly import MPoly, jacobian_vanishes, resultant_poly
from singres.supports import SupportPair, SupportSet

# irreducible factors over Q that give the class factors irrational roots
IRREDUCIBLE = ((-2, 0, 1), (1, 0, 1), (1, 1, 1), (-3, 0, 0, 1))


def _root(num_max, den_max):
    return st.builds(
        Fraction,
        st.integers(1, num_max).flatmap(lambda n: st.sampled_from((n, -n))),
        st.integers(1, den_max),
    )


@st.composite
def poly_pairs(draw, num_max=10**6, den_max=50):
    """Two polynomials over Q sharing some of their rational roots, each
    root of order 0-4 in each, with irreducible factors, a power of x and
    a scale of up to 30 digits: (pf, pg, the rational roots used)."""
    roots = draw(st.lists(_root(num_max, den_max), min_size=1, max_size=4, unique=True))
    out = []
    for _ in range(2):
        p = QPoly.one()
        for r in roots:
            p = p * QPoly.from_roots([r] * draw(st.integers(0, 4)))
        for q in draw(st.lists(st.sampled_from(IRREDUCIBLE), max_size=2)):
            p = p * QPoly(q)
        p = p * QPoly((0,) * draw(st.integers(0, 3)) + (1,))
        scale = Fraction(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**6)))
        out.append(p * (scale if draw(st.booleans()) else -scale))
    return out[0], out[1], roots


class TestAgainstQOracle:
    @settings(max_examples=60, deadline=None)
    @given(poly_pairs())
    def test_gcd(self, data):
        pf, pg, _ = data
        assert prs_gcd(primitive(pf.coeffs), primitive(pg.coeffs)) == primitive(q_gcd(pf, pg).coeffs)

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs())
    def test_exact_division(self, data):
        pf, pg, _ = data
        prod = pf * pg
        want = primitive((prod // pg).coeffs)
        assert exact_quo(primitive(prod.coeffs), primitive(pg.coeffs)) == want == primitive(pf.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(), st.integers(1, 9))
    def test_root_multiplicity(self, data, shift_den):
        pf, _, roots = data
        p = primitive(pf.coeffs)
        for r in roots + [r + Fraction(1, shift_den) for r in roots] + [Fraction(0)]:
            assert root_multiplicity(p, r) == pf.root_multiplicity(r)

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(num_max=40, den_max=9))
    def test_common_roots_records(self, data):
        pf, pg, _ = data
        f, g = _dense(pf), _dense(pg)
        assert finite_records(f, g) == q_finite_common_roots(pf, pg)

    def test_one_class_of_fifteen_rational_roots(self):
        """Fifteen rational roots of orders (1, 1), and the roots of the
        other factors, which are not common."""
        roots = sorted({Fraction(p, q) for p in (1, 2, 3, 6) for q in (1, 2, 5)})
        roots += [-r for r in roots]
        random.Random(4).shuffle(roots)
        pf = QPoly.from_roots(roots) * 3
        pg = QPoly.from_roots(roots[:15] + [Fraction(7)]) * QPoly(IRREDUCIBLE[2])
        got = finite_records(_dense(pf), _dense(pg))
        assert got == q_finite_common_roots(pf, pg) == Counter({(1, 1): 15})


class TestLargeRoots:
    """Roots with 15-31 digits: the root search is polynomial in the
    coefficient length."""

    def test_common_roots_of_thirty_digits(self):
        r1, r2 = Fraction(10**30), Fraction(10**30, 7)
        pf = QPoly.from_roots([r1, r2, r2, -3])
        pg = QPoly.from_roots([r1, r1, r2, 5]) * QPoly(IRREDUCIBLE[0])
        start = time.perf_counter()
        recs = common_roots(_dense(pf), _dense(pg))
        assert time.perf_counter() - start < 1.0
        assert [(r.kind, r.ord1, r.ord2) for r in recs] == [("finite", 1, 2), ("finite", 2, 1)]

    def test_classify_in_under_a_second(self):
        start = time.perf_counter()
        for r1, r2 in ((Fraction(10**30), Fraction(10**30, 7)), (Fraction(-(10**30), 7), Fraction(10**30))):
            smooth = classify_point(_dense(QPoly.from_roots([r1, 2])), _dense(QPoly.from_roots([r1, -1])))
            node = classify_point(_dense(QPoly.from_roots([r1, r2, 2])), _dense(QPoly.from_roots([r1, r2, -1])))
            double = classify_point(_dense(QPoly.from_roots([r2, r2, 1])), _dense(QPoly.from_roots([r2, r2])))
            assert (smooth.tag, node.tag, double.reason) == ("SmoothPoint", "NodeA1", "MultipleRoot")
        f = LaurentPoly(SupportSet((0, 1)), {0: -(10**14), 1: 1})
        g = LaurentPoly(SupportSet((0, 2)), {0: -(10**28), 2: 1})
        assert classify_point(f, g).tag == "SmoothPoint"
        assert time.perf_counter() - start < 1.0


def _dense(p):
    return LaurentPoly(SupportSet(range(p.degree + 1)), dict(enumerate(p.coeffs)))


def finite_records(f, g):
    """The (ord1, ord2) multiset of the finite records of common_roots."""
    return Counter((r.ord1, r.ord2) for r in common_roots(f, g) if r.kind == "finite")


def q_finite_common_roots(pf, pg):
    """The (ord1, ord2) multiset of the finite nonzero common roots of pf
    and pg, over Q: Euclidean gcds and long division split the gcd's
    squarefree part by order, and a class factor of degree d holds d
    roots."""
    h = q_gcd(pf, pg)
    while not h.coeffs[0]:
        h = QPoly(h.coeffs[1:])
    out = Counter()
    if h.degree <= 0:
        return out
    for a, fa in _q_split_by_order(h // q_gcd(h, h.derivative()), pf):
        for b, q in _q_split_by_order(fa, pg):
            out[a, b] += q.degree
    return out


def _q_split_by_order(s, p):
    a = 1
    while s.degree > 0:
        p = p // s
        nxt = q_gcd(s, p)
        q = s // nxt
        if q.degree > 0:
            yield a, q
        s, a = nxt, a + 1


# --- germ slices and the Jacobian test -----------------------------------------

SLICE_PAIRS = (((0, 1, 3), (0, 3)), ((0, 1), (0, 1, 2)), ((0, 2, 3), (0, 1)))


def _rational(rng, zero_ok=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if x or zero_ok:
            return x


def slice_oracle(poly, point, dir1, dir2):
    """The germ of poly on point + s*dir1 + t*dir2 by Fraction products,
    each power of a linear germ rebuilt per term."""

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = (e1[0] + e2[0], e1[1] + e2[1])
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return out

    acc = {}
    for exp, coef in poly.terms.items():
        term = {(0, 0): Fraction(coef)}
        for v, e in zip(poly.vars, exp):
            base = {(0, 0): Fraction(point.get(v, 0)), (1, 0): Fraction(dir1.get(v, 0)), (0, 1): Fraction(dir2.get(v, 0))}
            for _ in range(e):
                term = mul(term, base)
        for e, c in term.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return MPoly(("s", "t"), acc)


def jacobian_oracle(poly, point):
    """Whether poly and its first partials vanish at the point, by Fraction
    evaluation of each term and each term's derivatives."""

    def value(exp_coef):
        total = Fraction(0)
        for exp, c in exp_coef:
            term = Fraction(c)
            for v, k in zip(poly.vars, exp):
                term *= Fraction(point[v]) ** k
            total += term
        return total

    terms = list(poly.terms.items())
    partials = [
        [(exp[:i] + (exp[i] - 1,) + exp[i + 1 :], c * exp[i]) for exp, c in terms if exp[i]]
        for i in range(len(poly.vars))
    ]
    return value(terms) == 0 and all(value(p) == 0 for p in partials)


class TestSliceAndJacobian:
    def test_slice_matches_oracle(self):
        rng = random.Random(24)
        for _ in range(60):
            b1, b2 = rng.choice(SLICE_PAIRS)
            r = resultant_poly(SupportPair(SupportSet(sorted({*b1})), SupportSet(sorted({*b2}))))
            point = {v: _rational(rng) for v in r.vars}
            while True:
                d1 = {v: _rational(rng) for v in rng.sample(r.vars, 2)}
                d2 = {v: _rational(rng) for v in rng.sample(r.vars, 2)}
                try:
                    got = slice_germ(r, point, d1, d2)
                except ValueError:
                    continue
                break
            want = slice_oracle(r, point, d1, d2)
            assert got.terms == want.terms
            assert all(type(c) is Fraction for c in got.terms.values())

    def test_jacobian_matches_oracle(self):
        rng = random.Random(31)
        singular = 0
        for i in range(600):
            b1, b2 = SLICE_PAIRS[i % len(SLICE_PAIRS)]
            r = resultant_poly(SupportPair(SupportSet(sorted({*b1})), SupportSet(sorted({*b2}))))
            point = {v: _rational(rng) for v in r.vars}
            if i % 3 == 0 and b1 == (0, 1, 3):
                # the singular locus of (f3 g0 - f0 g3)^3 + f1^3 g3^2 g0
                a, d, e = (_rational(rng, zero_ok=False) for _ in range(3))
                point = {"f3": a, "f1": 0, "f0": a * e / d, "g3": d, "g0": e}
            elif i % 3 == 1 and b1 == (0, 1):
                # R = f0^2 g2 - f0 f1 g1 + f1^2 g0 is a quadratic form in (f0, f1)
                point = {**point, "f1": 0, "f0": 0}
            want = jacobian_oracle(r, point)
            assert jacobian_vanishes(r, point) == want
            singular += want
        assert singular >= 100


class TestFloatsRefused:
    """A float is not an exact rational: the integer core refuses it with a
    TypeError rather than truncate it, while numpy integers pass as ints."""

    def test_classify_point(self):
        # f = 1 - 2.5x + x^2 = (x - 2)(x - 1/2) and g = (x - 1)(x - 3) share
        # no root; 2.5 truncated to 2 would make x = 1 a common root
        s = SupportSet((0, 1, 2))
        g = LaurentPoly(s, {0: 3, 1: -4, 2: 1})
        with pytest.raises(TypeError):
            classify_point(LaurentPoly(s, {0: 1, 1: -2.5, 2: 1}), g)
        assert classify_point(LaurentPoly(s, {0: 1, 1: Fraction(-5, 2), 2: 1}), g).tag == "NotOnResultant"

    def test_jacobian_vanishes(self):
        r = resultant_poly(SupportPair(SupportSet((0, 1)), SupportSet((0, 1, 2))))
        point = {v: 0 for v in r.vars}
        assert jacobian_vanishes(r, point)
        with pytest.raises(TypeError):
            jacobian_vanishes(r, {**point, "f0": 0.5})
        assert not jacobian_vanishes(r, {**point, "f0": Fraction(1, 2)})

    def test_clear_denominators(self):
        assert clear_denominators([np.int64(3), Fraction(1, 2), True]) == ([6, 1, 2], 2)
        assert [type(c) for c in clear_denominators([np.int64(3), Fraction(4, 2)])[0]] == [int, int]
        for bad in (2.5, np.float64(2.0), 1j, "3"):
            with pytest.raises(TypeError):
                clear_denominators([1, bad])
