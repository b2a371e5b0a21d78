import random
from fractions import Fraction

import pytest

from singres.germs import classify_germ, slice_germ
from singres.mpoly import MPoly, resultant_poly
from singres.supports import SupportPair, SupportSet


def germ(terms):
    return MPoly(("s", "t"), terms)


def linear_change(g, a, b, c, d):
    """The germ of g(a*s + b*t, c*s + d*t): the slice at the origin along
    (a, c) and (b, d), an invertible change."""
    return slice_germ(g, {}, {"s": a, "t": c}, {"s": b, "t": d})


class TestClassifyGerm:
    def test_node(self):
        assert classify_germ(germ({(1, 1): 1})).tag == "NodeA1"

    def test_three_lines(self):
        out = classify_germ(germ({(3, 0): 1, (0, 3): -1}))
        assert (out.tag, out.m) == ("OrdinaryMultiple", 3)

    def test_cusp(self):
        out = classify_germ(germ({(0, 2): 1, (3, 0): -1}))
        assert (out.tag, out.m, out.slope) == ("UniTangent", 2, Fraction(2, 3))

    def test_smooth_and_off_curve(self):
        assert classify_germ(germ({(1, 0): 1, (2, 0): 3})).tag == "Smooth"
        assert classify_germ(germ({(0, 0): 1, (1, 0): 1})).tag == "NotOnCurve"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_germ(germ({}))

    def test_tangent_off_axis_cusp(self):
        # (t - s)^2 = s^3 after shifting the tangent: still a cusp signature
        base = germ({(0, 2): 1, (1, 1): -2, (2, 0): 1, (3, 0): -1})
        out = classify_germ(base)
        assert (out.tag, out.m, out.slope) == ("UniTangent", 2, Fraction(2, 3))

    def test_double_line_is_other(self):
        out = classify_germ(germ({(0, 2): 1, (1, 2): 1}))
        assert out.tag == "Other"

    def test_mixed_repeated_tangents_other(self):
        # s * t^2: two tangents, one repeated
        out = classify_germ(germ({(1, 2): 1}))
        assert out.tag == "Other"


class TestRandomizedProperties:
    def test_products_of_distinct_lines(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randint(2, 4)
            slopes = rng.sample(range(-6, 7), m)
            terms = {(0, 0): Fraction(1)}
            prod = {(0, 0): Fraction(1)}
            for s in slopes:
                nxt = {}
                for (i, j), c in prod.items():
                    nxt[(i + 1, j)] = nxt.get((i + 1, j), Fraction(0)) + c
                    nxt[(i, j + 1)] = nxt.get((i, j + 1), Fraction(0)) - c * s
                prod = nxt
            # add higher-order noise
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randint(0, 3), rng.randint(0, 3)
                if i + j > m:
                    prod[(i, j)] = prod.get((i, j), Fraction(0)) + rng.randint(-4, 4)
            out = classify_germ(germ(prod))
            if m == 2:
                assert out.tag == "NodeA1"
            else:
                assert (out.tag, out.m) == ("OrdinaryMultiple", m)

    def test_squares_never_node(self):
        rng = random.Random(32)
        for _ in range(50):
            h = {}
            for (i, j) in [(1, 0), (0, 1), (2, 0), (1, 1)]:
                h[(i, j)] = Fraction(rng.randint(-3, 3))
            if not any(h[k] for k in [(1, 0), (0, 1)]):
                continue
            sq = {}
            for e1, c1 in h.items():
                for e2, c2 in h.items():
                    key = (e1[0] + e2[0], e1[1] + e2[1])
                    sq[key] = sq.get(key, Fraction(0)) + c1 * c2
            g = germ(sq)
            if not g.terms:
                continue
            assert classify_germ(g).tag != "NodeA1"

    def test_tag_invariance_under_linear_changes(self):
        rng = random.Random(33)
        samples = [
            germ({(1, 1): 1}),
            germ({(3, 0): 1, (0, 3): -1}),
            germ({(2, 0): 1, (0, 1): 1}),
            germ({(0, 0): 2, (1, 0): 1}),
            germ({(2, 0): 1, (1, 1): 5, (0, 2): 1, (3, 0): 2}),
        ]
        for g in samples:
            base = classify_germ(g)
            for _ in range(10):
                while True:
                    a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
                    if a * d - b * c != 0:
                        break
                moved = classify_germ(linear_change(g, a, b, c, d))
                if base.tag in ("NotOnCurve", "Smooth", "NodeA1", "OrdinaryMultiple"):
                    assert moved.tag == base.tag and moved.m == base.m

    def test_unitangent_tag_survives_generic_rotation(self):
        rng = random.Random(34)
        cusp = germ({(0, 2): 1, (3, 0): -1})
        for _ in range(10):
            while True:
                a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            moved = classify_germ(linear_change(cusp, a, b, c, d))
            assert moved.tag == "UniTangent" and moved.m == 2

    def test_linear_change_round_trip(self):
        # p(a s + b t, c s + d t) under the inverse change is p again, term
        # for term; s t under s -> s + t is s t + t^2
        assert linear_change(germ({(1, 1): 1}), 1, 1, 0, 1).terms == {(1, 1): 1, (0, 2): 1}
        rng = random.Random(35)
        for _ in range(60):
            g = germ({(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))})
            a, b, c, d = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            det = a * d - b * c
            if not g.terms or not det:
                continue
            inverse = (d / det, -b / det, -c / det, a / det)
            assert linear_change(linear_change(g, a, b, c, d), *inverse).terms == g.terms, (g, a, b, c, d)


class TestSliceGerm:
    def test_resultant_slices(self):
        r = resultant_poly(SupportPair(SupportSet((0, 1, 3)), SupportSet((0, 3))))
        point = {"f3": 1, "f1": 0, "f0": 1, "g3": 1, "g0": 1}
        g = slice_germ(r, point, {"f1": 1}, {"f0": 1})
        assert dict(g.terms) == {(3, 0): Fraction(1), (0, 3): Fraction(-1)}

    def test_node_slice(self):
        r = resultant_poly(SupportPair(SupportSet((0, 1)), SupportSet((0, 1))))
        g = slice_germ(r, {v: 0 for v in r.vars}, {"f1": 1}, {"g0": 1})
        assert classify_germ(g).tag == "NodeA1"

    def test_dependent_directions_rejected(self):
        r = resultant_poly(SupportPair(SupportSet((0, 1)), SupportSet((0, 1))))
        with pytest.raises(ValueError, match="dependent"):
            slice_germ(r, {v: 0 for v in r.vars}, {"f1": 1}, {"f1": 2})

    def test_random_direction_cusp(self):
        rng = random.Random(35)
        r = resultant_poly(SupportPair(SupportSet((0, 1, 3)), SupportSet((0, 3))))
        point = {"f3": 0, "f1": 2, "f0": 3, "g3": 0, "g0": 5}
        # generic rational directions hitting the (a, d) plane
        for _ in range(5):
            d1 = {"f3": Fraction(rng.randint(1, 4)), "g3": Fraction(rng.randint(-4, -1))}
            d2 = {"f3": Fraction(rng.randint(1, 3)), "g3": Fraction(rng.randint(1, 3))}
            g = slice_germ(r, point, d1, d2)
            out = classify_germ(g)
            assert out.tag in ("UniTangent", "Other")
            assert out.m == 2
