import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from cyclo_oracle import QPoly, q_gcd
from singres.cli import _laurent
from singres.exact import exact_rref, kernel_basis
from singres.laurent import LaurentPoly, classify_point, common_roots, homogenize
from singres.strata import _draw_filtration_pair, parse_label
from singres.supports import SupportPair, SupportSet, gap_gcd


def S(*xs):
    return SupportSet(sorted({*xs}))


def lp(support, coeffs):
    return LaurentPoly(S(*support), coeffs)


def from_roots_on(support, roots, rng=None):
    """Exact polynomial with full dense support equal to prod (x - r)."""
    p = QPoly.from_roots([Fraction(r) for r in roots])
    sup = S(*range(len(roots) + 1))
    return LaurentPoly(sup, {i: c for i, c in enumerate(p.coeffs)})


def on_dense(p):
    """The exact polynomial p on the dense support {0, ..., deg p}."""
    return LaurentPoly(S(*range(p.degree + 1)), dict(enumerate(p.coeffs)))


def end_orders(f):
    """f's orders at 0 and at infinity, read off the boundary records of
    common_roots(f, f), 0 where it has none."""
    ends = {r.kind: r.ord1 for r in common_roots(f, f)}
    return ends.get("zero", 0), ends.get("infinity", 0)


def power(q, m):
    out = QPoly.one()
    for _ in range(m):
        out = out * q
    return out


class TestHomogenize:
    def test_examples(self):
        assert homogenize(lp((0, 1, 2), {1: 1, 2: 1})) == [0, 1, 1]
        assert homogenize(lp((2, 3), {2: -1, 3: 1})) == [-1, 1]
        assert homogenize(lp((0, 3), {0: 5, 3: 7})) == [5, 0, 0, 7]

    def test_identity_on_random(self):
        rng = random.Random(5)
        for _ in range(100):
            lo = rng.randint(-3, 2)
            elems = sorted({lo, lo + rng.randint(1, 3), lo + rng.randint(4, 6)})
            f = LaurentPoly(
                S(*elems), {b: Fraction(rng.randint(-9, 9)) for b in elems}
            )
            if f.is_zero:
                continue
            x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            form = homogenize(f)
            value = sum(c * x**j for j, c in enumerate(form))
            assert value == sum(c * x**b for b, c in f.coeffs.items()) * x ** (-f.support.min)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            homogenize(lp((0, 1), {}))


class TestOrd:
    def test_boundary(self):
        f = lp((0, 1, 2), {1: 1, 2: 1})
        assert end_orders(f)[0] == 1
        g = lp((0, 1, 2), {0: 1, 1: 1})
        assert end_orders(g)[1] == 1

    def test_finite_double(self):
        # a finite order comes from a finite record of common_roots
        f = lp((0, 1, 2), {0: 1, 1: -2, 2: 1})  # (x-1)^2
        assert [(r.kind, r.ord1, r.ord2) for r in common_roots(f, f)] == [("finite", 2, 2)]
        assert end_orders(f) == (0, 0)

    def test_gap_counts(self):
        f = lp((0, 3), {3: 2})  # support {0,3}, zero constant coefficient
        assert end_orders(f) == (3, 0)

    def test_orders_sum_to_spread(self):
        rng = random.Random(7)
        for _ in range(60):
            roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            f = from_roots_on(None, roots)
            total = sum(end_orders(f))
            finite = sorted(r.ord1 for r in common_roots(f, f) if r.kind == "finite")
            assert finite == sorted(Counter(r for r in roots if r != 0).values())
            total += sum(finite)
            assert total == f.support.spread


class TestCommonRoots:
    def test_single_simple(self):
        f = lp((0, 1, 2), {0: 2, 1: -3, 2: 1})  # (x-1)(x-2)
        g = lp((0, 1, 2), {0: 3, 1: -4, 2: 1})  # (x-1)(x-3)
        recs = common_roots(f, g)
        assert len(recs) == 1
        assert recs[0].kind == "finite" and (recs[0].ord1, recs[0].ord2) == (1, 1)

    def test_boundary_orders(self):
        f = lp((0, 1, 2), {1: 1, 2: 1})
        g = lp((0, 1, 2), {2: 1})
        recs = common_roots(f, g)
        assert len(recs) == 1
        assert recs[0].kind == "zero" and (recs[0].ord1, recs[0].ord2) == (1, 2)

    def test_mixed_orders(self):
        f = lp((0, 1, 2), {0: 1, 1: -2, 2: 1})  # (x-1)^2
        g = lp((0, 1, 2), {0: -1, 2: 1})  # (x-1)(x+1)
        recs = common_roots(f, g)
        assert len(recs) == 1
        assert (recs[0].ord1, recs[0].ord2) == (2, 1)

    def test_symmetry(self):
        rng = random.Random(9)
        for _ in range(40):
            f = from_roots_on(None, [rng.randint(-3, 3) or 1 for _ in range(3)])
            g = from_roots_on(None, [rng.randint(-3, 3) or 1 for _ in range(3)])
            a = Counter((r.kind, r.ord1, r.ord2) for r in common_roots(f, g))
            b = Counter((r.kind, r.ord2, r.ord1) for r in common_roots(g, f))
            assert a == b

    def test_common_factor_multiplicities(self):
        rng = random.Random(10)
        for _ in range(30):
            h_roots = [Fraction(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            u_root = Fraction(rng.randint(4, 6))
            v_root = Fraction(rng.randint(7, 9))
            f = from_roots_on(None, h_roots + [u_root])
            g = from_roots_on(None, h_roots + [v_root])
            recs = [r for r in common_roots(f, g) if r.kind == "finite"]
            mults = Counter(h_roots)
            assert sorted(r.pair_ord for r in recs) == sorted(mults.values())

    def test_irrational_roots_tracked_exactly(self):
        # f = g share the factor x^2 - 2
        f = lp((0, 1, 2, 3), {0: -2, 1: -2, 2: 1, 3: 1})  # (x^2-2)(x+1)
        g = lp((0, 1, 2), {0: -2, 2: 1})  # x^2 - 2
        recs = [(r.kind, r.ord1, r.ord2) for r in common_roots(f, g)]
        assert recs == [("finite", 1, 1)] * 2

    def test_one_layer_of_h_mixes_orders(self):
        # h = (x^2-2)(x^2-3) is squarefree, yet its roots have orders 2 and 1 in pf
        q2, q3 = QPoly((-2, 0, 1)), QPoly((-3, 0, 1))
        f = on_dense(q2 * q2 * q3)
        g = on_dense(q2 * q3 * q3)
        got = [(r.ord1, r.ord2) for r in common_roots(f, g)]
        assert got == [(1, 2), (1, 2), (2, 1), (2, 1)]

    def test_class_factors_against_the_gcd(self):
        """pf and pg are products of powers of known irreducible factors q,
        q^a exactly dividing pf and q^b pg: the finite records are deg q
        records (a, b) per factor with a, b >= 1, and their pair orders sum
        to the degree of gcd(pf, pg) without its root at 0."""
        rng = random.Random(18)
        quads = [QPoly((-2, 0, 1)), QPoly((-3, 0, 1)), QPoly((1, 1, 1)), QPoly((-5, 0, 1))]
        for _ in range(150):
            lin = [QPoly((-r, 1)) for r in {Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)} - {0}]
            pf, pg, want = QPoly.one(), QPoly.one(), Counter()
            for q in lin + quads + [QPoly((0, 1))]:
                a, b = rng.randint(0, 3), rng.randint(0, 3)
                pf, pg = pf * power(q, a), pg * power(q, b)
                if a and b and q.coeffs[0]:
                    want[a, b] += q.degree
            pf, pg = pf * Fraction(rng.randint(1, 5), rng.randint(1, 4)), pg * rng.randint(-3, -1)
            if pf.degree <= 0 or pg.degree <= 0:
                continue
            finite = [r for r in common_roots(on_dense(pf), on_dense(pg)) if r.kind == "finite"]
            assert Counter((r.ord1, r.ord2) for r in finite) == want
            h = q_gcd(pf, pg)
            while not h.coeffs[0]:
                h = QPoly(h.coeffs[1:])
            assert sum(r.pair_ord for r in finite) == h.degree


# The covector oracle: the branch covectors as exact rows and their rank,
# against which `classify_point`'s node rule (the records' kinds and the
# gap-gcd parity) is checked.


def reference_covector(f, g, x):
    """The branch covector term by term in Fractions: g'(x) x^i, i in B1,
    then -f'(x) x^j, j in B2, each derivative summed term by term."""
    x = Fraction(x)
    gp, fp = (sum(c * b * x ** (b - 1) for b, c in h.coeffs.items()) for h in (g, f))
    return [gp * x**i for i in f.support] + [-fp * x**j for j in g.support]


def boundary_covector(f, g, at_zero):
    """Two-term covector of the branch at 0 or infinity.

    In the affine chart at the boundary point the x-parts start (or end)
    with a zero coefficient; the derivative there is the adjacent
    coefficient, 0 off the support."""
    n1 = len(f.support)
    row = [0] * (n1 + len(g.support))
    if at_zero:
        row[0], row[n1] = g.coeff(g.support.min + 1), -f.coeff(f.support.min + 1)
    else:
        row[n1 - 1], row[-1] = g.coeff(g.support.max - 1), -f.coeff(f.support.max - 1)
    return row


def covector_at(f, g, point):
    """The covector at "zero", "infinity" or a nonzero rational root."""
    if point in ("zero", "infinity"):
        return boundary_covector(f, g, point == "zero")
    return reference_covector(f, g, point)


def rank_two(v1, v2):
    """Whether the exact rows v1, v2 have rank 2: some 2x2 minor
    v1[k]*v2[j] - v1[j]*v2[k] is nonzero.  The minors at one column k with
    v1[k] != 0 decide it: if they all vanish, v2 = (v2[k]/v1[k]) v1.  A
    zero v1 gives rank at most 1."""
    k = next((i for i, a in enumerate(v1) if a), None)
    return k is not None and any(v1[k] * b != a * v2[k] for a, b in zip(v1, v2))


class TestCovector:
    def test_example(self):
        f = lp((0, 1), {0: -1, 1: 1})
        g = lp((0, 1, 2), {0: -1, 2: 1})
        cov = reference_covector(f, g, Fraction(1))
        assert cov == [2, 2, -1, -1, -1]

    def test_rank_two_matches_exact_rank(self):
        """The 2x2-minor test equals the rational rank on random pairs,
        with dependent pairs (zero rows, multiples, sparse rows) planted."""
        rng = random.Random(17)

        def entry():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0

        kinds = {"random": 0, "multiple": 0, "zero": 0}
        for _ in range(600):
            n = rng.randint(1, 7)
            v1 = [entry() for _ in range(n)]
            kind = rng.choice(tuple(kinds))
            if kind == "random":
                v2 = [entry() for _ in range(n)]
            elif kind == "multiple":
                lam = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                v2 = [lam * a for a in v1]
            else:
                v2 = [0] * n
            if rng.random() < 0.5:
                v1, v2 = v2, v1
            want = exact_rref([v1, v2])[0] == 2
            kinds[kind] += want
            assert rank_two(v1, v2) is want, (v1, v2)
        assert kinds["multiple"] == kinds["zero"] == 0 < kinds["random"]


class TestClassifyPoint:
    def test_not_on_resultant(self):
        f = lp((0, 1), {0: 1, 1: 1})
        g = lp((0, 1), {0: 1, 1: 2})
        assert classify_point(f, g).tag == "NotOnResultant"

    def test_smooth(self):
        f = lp((0, 1, 2), {0: 2, 1: -3, 2: 1})
        g = lp((0, 1, 2), {0: 3, 1: -4, 2: 1})
        assert classify_point(f, g).tag == "SmoothPoint"

    def test_node_with_rank2_covectors(self):
        # common simple roots at 1 and 2 on generic supports
        f = lp((0, 1, 2), {0: 2, 1: -3, 2: 1})
        g = lp((0, 1, 2, 3), {0: -2, 1: 5, 2: -4, 3: 1})  # (x-1)(x-2)(x+... ) check
        # g = (x-1)(x-2)(x+1) = x^3 - 2x^2 - x + 2
        g = lp((0, 1, 2, 3), {0: 2, 1: -1, 2: -2, 3: 1})
        out = classify_point(f, g)
        assert out.tag == "NodeA1"
        c1 = reference_covector(f, g, 1)
        c2 = reference_covector(f, g, 2)
        assert exact_rref([c1, c2])[0] == 2

    def test_multiple_root(self):
        f = lp((0, 1, 2), {0: 1, 1: -2, 2: 1})  # (x-1)^2
        g = lp((0, 1, 2, 3), {0: -1, 1: 1, 2: -1, 3: 1})  # (x-1)(x^2+1)
        # pair multiplicity at 1 is min(2, 1) = 1: simple; make g double too
        out = classify_point(f, g)
        assert out.tag != "Degenerate" or out.reason != "MultipleRoot"
        g2 = lp((0, 1, 2), {0: 1, 1: -2, 2: 1})
        out2 = classify_point(f, g2)
        assert (out2.tag, out2.reason) == ("Degenerate", "MultipleRoot")

    def test_three_roots(self):
        # three simple common roots: each has pair multiplicity 1
        f = from_roots_on(None, [1, 2, 3])
        g = from_roots_on(None, [1, 2, 3])
        out = classify_point(f, g)
        assert (out.tag, out.reason) == ("Degenerate", "ThreeRoots")
        g2 = from_roots_on(None, [1, 2, 4])
        f2 = from_roots_on(None, [1, 2, 3])
        out2 = classify_point(f2, g2)
        assert out2.tag == "NodeA1"

    def test_multiple_beats_three(self):
        # a double pair-root among three common roots reports MultipleRoot
        f_poly = QPoly.from_roots([1, 1, 2, 3])
        g_poly = QPoly.from_roots([1, 1, 2, 3])
        f = LaurentPoly(S(*range(5)), {i: c for i, c in enumerate(f_poly.coeffs)})
        g = LaurentPoly(S(*range(5)), {i: c for i, c in enumerate(g_poly.coeffs)})
        out = classify_point(f, g)
        assert (out.tag, out.reason) == ("Degenerate", "MultipleRoot")

    def test_two_double_same_factor(self):
        # f has double roots at 1 and 2; g simple at both
        f_poly = QPoly.from_roots([1, 1, 2, 2])
        f = LaurentPoly(S(*range(5)), {i: c for i, c in enumerate(f_poly.coeffs)})
        g_poly = QPoly.from_roots([1, 2, 5])
        g = LaurentPoly(S(*range(4)), {i: c for i, c in enumerate(g_poly.coeffs)})
        out = classify_point(f, g)
        assert (out.tag, out.reason) == ("Degenerate", "TwoDoubleForSameFactor")

    def test_boundary_node(self):
        # simple common roots at 0 and at x = 1: a node with one boundary branch
        f = lp((0, 1, 2), {1: -1, 2: 1})  # x(x-1)
        g = lp((0, 1, 2), {1: -1, 2: 1})
        out = classify_point(f, g)
        assert out.tag == "NodeA1"

    def test_boundary_covector_rows(self):
        # the chart derivative at 0 (at infinity) is the coefficient one step
        # inside the lowest (highest) exponent, 0 where that step leaves the
        # support: f = x - x^2 on {0, ..., 3}, g = 2 + 3x^2 on {-1, 0, 2, 4}
        f = lp((0, 1, 2, 3), {1: 1, 2: -1})
        g = lp((-1, 0, 2, 4), {0: 2, 2: 3})
        assert boundary_covector(f, g, True) == [2, 0, 0, 0, -1, 0, 0, 0]
        assert boundary_covector(f, g, False) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_infinity_node(self):
        # 1 - x and (1 - x)(x + 2) = 2 - x - x^2, each on a support one step
        # past its degree: simple common roots at x = 1 and at infinity, a
        # node whose boundary branch is read in the chart at infinity
        f = lp((0, 1, 2), {0: 1, 1: -1})
        g = lp((0, 1, 2, 3), {0: 2, 1: -1, 2: -1})
        assert [(r.kind, r.ord1, r.ord2) for r in common_roots(f, g)] == [("infinity", 1, 1), ("finite", 1, 1)]
        assert boundary_covector(f, g, False) == [0, 0, -1, 0, 0, 0, 1]
        assert classify_point(f, g).tag == classify_point(g, f).tag == "NodeA1"

    def test_infinity_boundary_orders(self):
        f = lp((0, 1, 2), {0: 1, 1: -1})  # 1 - x: ord at infinity 1
        assert end_orders(f)[1] == 1
        g = lp((0, 1, 2), {0: 1})
        assert end_orders(g)[1] == 2

    def test_sublattice_violation_raises(self):
        # condition-(1) supports: proportional covectors must raise, not mislabel
        f = lp((0, 2), {0: -1, 2: 1})
        g = lp((0, 2), {0: -2, 2: 2})
        with pytest.raises(ValueError, match="sublattice"):
            classify_point(f, g)


class Conjugates:
    """Q(a) = Q[x]/(m) for an irreducible quadratic m = (m0, m1, m2),
    ascending: an element p + q a is the pair (p, q)."""

    def __init__(self, m):
        self.m0, self.m1, self.m2 = (Fraction(c) for c in m)

    def mul(self, u, v):
        (p, q), (r, s) = u, v  # a^2 = -(m0 + m1 a) / m2
        return p * r - q * s * self.m0 / self.m2, p * s + q * r - q * s * self.m1 / self.m2

    def conj(self, u):
        """u with a replaced by the other root b = -m1/m2 - a."""
        p, q = u
        return p - q * self.m1 / self.m2, -q

    def powers(self, n):
        out = [(Fraction(1), Fraction(0))]
        for _ in range(n):
            out.append(self.mul(out[-1], (0, 1)))
        return out

    def derivative(self, h, powers):
        """h'(a) for h on nonnegative exponents, powers[k] = a^k."""
        terms = [(c * b, powers[b - 1]) for b, c in h.coeffs.items() if c and b]
        return tuple(sum(c * w[k] for c, w in terms) for k in (0, 1))


def covectors_proportional(f, g, m):
    """Whether the branch covectors at the two roots a, b of m are
    proportional: every 2x2 minor v_k(a) v_l(b) - v_l(a) v_k(b) of
    v(x) = (g'(x) x^i ; -f'(x) x^j) is 0, computed in Q[x]/(m), v(b) being
    the conjugate of v(a)."""
    field = Conjugates(m)
    powers = field.powers(max(f.support.max, g.support.max))
    gp, fp = field.derivative(g, powers), field.derivative(f, powers)
    va = [field.mul(gp, powers[i]) for i in f.support] + [field.mul((-fp[0], -fp[1]), powers[j]) for j in g.support]
    vb = [field.conj(u) for u in va]
    return all(
        field.mul(va[k], vb[l]) == field.mul(va[l], vb[k]) for k in range(len(va)) for l in range(k + 1, len(va))
    )


def divisible_on(support, m, rng):
    """A random polynomial on `support` (nonnegative exponents) that m
    divides: a random integer combination of a basis of the kernel of
    (c_b) -> sum c_b x^b mod m."""
    powers = Conjugates(m).powers(max(support))
    basis = kernel_basis([[powers[b][k] for b in support] for k in (0, 1)])
    weights = [rng.randint(-4, 4) for _ in basis]
    coeffs = [sum(w * v[i] for w, v in zip(weights, basis)) for i in range(len(support))]
    return lp(support, dict(zip(support, coeffs)))


class TestConjugatePair:
    """At two conjugate irrational roots the covector test reads the
    supports' gap gcds (the lemma in `classify_point`); checked against the
    2x2 minors computed exactly in Q[x]/(m)."""

    QUADRATICS = {
        "m1 = 0": [(-2, 0, 1), (-3, 0, 1), (1, 0, 1), (-3, 0, 2), (5, 0, 1), (-7, 0, 3)],
        "m1 != 0": [(1, 1, 1), (-1, -1, 1), (1, 3, 1), (-2, 1, 2), (1, -3, 1), (1, 5, 1)],
    }

    @staticmethod
    def supports(rng, even):
        """Two supports of 3 to 5 exponents with G = gcd(g1, g2) = 1, or with
        G even."""
        while True:
            b1, b2 = (sorted(rng.sample(range(7), rng.randint(3, 5))) for _ in range(2))
            if even:
                step, shifts = rng.choice((2, 4)), (rng.randint(0, 1), rng.randint(0, 1))
                b1, b2 = ([shift + step * b for b in b] for shift, b in zip(shifts, (b1, b2)))
            g = gcd(gap_gcd(S(*b1)), gap_gcd(S(*b2)))
            if (g % 2 == 0) if even else g == 1:
                return b1, b2

    def test_lemma_against_exact_minors(self):
        rng = random.Random(56)
        tally = Counter()
        for _ in range(150):
            for even in (False, True):
                for kind, quads in self.QUADRATICS.items():
                    m = rng.choice(quads)
                    b1, b2 = self.supports(rng, even)
                    f, g = divisible_on(b1, m, rng), divisible_on(b2, m, rng)
                    if f.is_zero or g.is_zero:
                        continue
                    try:
                        got = classify_point(f, g).tag
                    except ValueError:
                        got = "proportional"
                    if got in ("NodeA1", "proportional"):
                        assert [(r.kind, r.ord1, r.ord2) for r in common_roots(f, g)] == [("finite", 1, 1)] * 2
                        assert (got == "proportional") is covectors_proportional(f, g, m), (m, f, g)
                    tally[even, kind, got] += 1
        # G = 1: always a node, whether b = -a or not
        assert tally[False, "m1 = 0", "NodeA1"] > 100 and tally[False, "m1 != 0", "NodeA1"] > 100
        assert not tally[False, "m1 = 0", "proportional"] and not tally[False, "m1 != 0", "proportional"]
        # G even: x -> -x maps common roots to common roots, so b = -a or a third root
        assert tally[True, "m1 = 0", "proportional"] > 50
        assert not tally[True, "m1 = 0", "NodeA1"] and not tally[True, "m1 != 0", "NodeA1"]
        assert not tally[True, "m1 != 0", "proportional"]

    def test_small_singular_value_is_a_node(self):
        # f = 2x(x + 1)(x^2 - 3x + 1)(x^2 + 5x + 1) on 1..6 and
        # g = x^2(x^2 + 5x + 1)(x^3 - 3x^2 - 4x + 2) on 2..7 share the roots of
        # x^2 + 5x + 1 and have G = 1; their covectors' float singular values
        # have sigma_min / sigma_max = 3.7e-10, under a relative cut of 1e-9
        f = lp(range(1, 7), dict(zip(range(1, 7), (2, 6, -22, -22, 6, 2))))
        g = lp(range(2, 8), dict(zip(range(2, 8), (2, 6, -21, -18, 2, 1))))
        assert [(r.kind, r.ord1, r.ord2) for r in common_roots(f, g)] == [("finite", 1, 1)] * 2
        assert not covectors_proportional(f, g, (1, 5, 1))
        assert classify_point(f, g).tag == classify_point(g, f).tag == "NodeA1"

    def test_irrational_node(self):
        # (x^2 - 2)(x - 3) against (x^2 - 2)(x + 5) on (0, 1, 2, 3)
        f = lp((0, 1, 2, 3), {0: 6, 1: -2, 2: -3, 3: 1})
        g = lp((0, 1, 2, 3), {0: -10, 1: -2, 2: 5, 3: 1})
        assert not covectors_proportional(f, g, (-2, 0, 1))
        assert classify_point(f, g).tag == "NodeA1"


def vanishes(f, point):
    """Whether f vanishes at "zero", "infinity" (its end coefficient on the
    support is 0) or at a nonzero rational, summed term by term."""
    if point in ("zero", "infinity"):
        return not f.coeff(f.support.min if point == "zero" else f.support.max)
    return not sum(c * point**b for b, c in f.coeffs.items())


class TestNodeRule:
    """`classify_point` decides its covector test by the two records' kinds
    and the gap-gcd parity (the lemma in its docstring).  The oracle builds
    both covectors at the roots each draw plants, with x -> -x's images when
    G is even, and ranks them."""

    LABELS = ("N(1,1)", "N_1(1)", "N^1(1)", "N_1^1", "N(2,1;1,2)")

    @staticmethod
    def support(rng, even):
        """A support of spread 2 to 7, min in [-2, 1] and at least one
        interior exponent, or one of 2 to 4 exponents on a lattice of step
        2 or 4."""
        if even:
            step, lo = rng.choice((2, 4)), rng.randint(-1, 1)
            return [lo + step * b for b in rng.sample(range(5), rng.randint(2, 4))]
        spread, lo = rng.randint(2, 7), rng.randint(-2, 1)
        return [lo, lo + spread, *(lo + b for b in rng.sample(range(1, spread), rng.randint(1, spread - 1)))]

    def test_rule_against_covector_oracle(self):
        rng = random.Random(57)
        tally = Counter()
        for _ in range(2800):
            # one root planted on even-G supports, where x -> -x gives the second
            even = rng.random() < 0.3
            label = parse_label("N(1)" if even else rng.choice(self.LABELS))
            pair = SupportPair(*(S(*self.support(rng, even)) for _ in range(2)))
            drawn = _draw_filtration_pair(pair, label, rng)
            if drawn is None or drawn[0].is_zero or drawn[1].is_zero:
                continue
            f, g, pts = drawn
            try:
                got = classify_point(f, g).tag
            except ValueError:
                got = "proportional"
            if got not in ("NodeA1", "proportional"):
                continue
            g_even = gcd(gap_gcd(f.support), gap_gcd(g.support)) % 2 == 0
            planted = ["zero"] * (label.j0 > 0) + ["infinity"] * (label.jinf > 0) + pts + [-x for x in pts if g_even]
            points = [p for p in dict.fromkeys(planted) if vanishes(f, p) and vanishes(g, p)]
            kinds = sorted(r.kind for r in common_roots(f, g))
            if len(points) < 2:  # a common root the draw did not plant
                tally["unplanted"] += 1
                continue
            assert sorted(p if p in ("zero", "infinity") else "finite" for p in points) == kinds
            assert (got == "proportional") is not rank_two(*(covector_at(f, g, p) for p in points)), (f, g, points)
            tally[(*kinds, got, g_even)] += 1
        assert sum(tally.values()) - tally["unplanted"] >= 2000
        for kinds in (("finite", "finite"), ("finite", "zero"), ("finite", "infinity"), ("infinity", "zero")):
            assert tally[(*kinds, "NodeA1", False)] > 0
        assert tally[("finite", "finite", "proportional", True)] > 50
        assert {key for key in tally if "proportional" in key} == {("finite", "finite", "proportional", True)}


    def test_double_in_f_at_the_boundary_and_at_a_finite_root(self):
        # f = x^2 (x - 1)^2 and g = x (x - 1): records (2, 1) at 0 and at 1.
        # TwoDoubleForSameFactor is decided on two finite records only, so
        # this pair reaches the covector test, whose rows are independent
        f = lp(range(5), {2: 1, 3: -2, 4: 1})
        g = lp(range(3), {1: -1, 2: 1})
        assert [(r.kind, r.ord1, r.ord2) for r in common_roots(f, g)] == [("zero", 2, 1), ("finite", 2, 1)]
        assert rank_two(covector_at(f, g, "zero"), covector_at(f, g, 1))
        assert classify_point(f, g).tag == classify_point(g, f).tag == "NodeA1"


class TestLaurentSupports:
    def test_negative_exponents(self):
        # x^-2 (x-1)(x-2) and x^-1 (x-1)(x-3): common simple root at 1
        f = lp((-2, -1, 0), {-2: 2, -1: -3, 0: 1})
        g = lp((-1, 0, 1), {-1: 3, 0: -4, 1: 1})
        recs = common_roots(f, g)
        assert [(r.kind, r.ord1, r.ord2) for r in recs] == [("finite", 1, 1)]
        assert classify_point(f, g).tag == "SmoothPoint"

    def test_negative_support_orders(self):
        f = lp((-3, 0), {0: 4})  # leftmost hull coefficient vanishes
        assert end_orders(f)[0] == 3
        assert homogenize(f) == [0, 0, 0, 4]


class TestSerialization:
    """`cli._laurent`, the reader of point-classify's --input polynomials."""

    def test_exact_strings(self):
        f = _laurent({"support": [-1, 0, 2], "coeffs": {"-1": "3/7", "0": "-2", "2": "1"}}, "f")
        assert f.support == S(-1, 0, 2)
        assert f.coeffs == {-1: Fraction(3, 7), 0: -2, 2: 1}
        assert [type(f.coeff(b)) for b in (-1, 0, 2)] == [Fraction, int, int]
        assert not f.is_zero
        zero = _laurent({"support": [0, 1], "coeffs": {"0": "0", "1": "0/5"}}, "f")
        assert zero.is_zero
