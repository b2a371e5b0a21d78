"""Univariate Laurent polynomials with prescribed support and exact
rational coefficients, and the classification of a pair of them as a point
of the resultant hypersurface.

Multiplicity bookkeeping runs on the projective line: the order at 0 (resp.
infinity) counts vanishing leftmost (rightmost) coefficients along the
convex hull of the support, and finite orders are root multiplicities of the
homogenized form.  A common root is its kind and its two orders: every
decision reads orders, record counts and the supports' gap gcds, exactly,
on the primitive integer forms, and no root is ever located.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import derivative, exact_quo, primitive, prs_gcd
from .supports import SupportSet, gap_gcd

__all__ = [
    "LaurentPoly",
    "RootRecord",
    "PointClass",
    "homogenize",
    "common_roots",
    "classify_point",
]


def falling(b, d):
    """Falling factorial b(b-1)...(b-d+1): the factor the d-th derivative
    puts on x^b (any integer b, so Laurent exponents too)."""
    out = 1
    for t in range(d):
        out *= b - t
    return out


@dataclass(frozen=True)
class RootRecord:
    """A common root of f and g on the projective line, held as its kind
    and its two vanishing orders: no decision reads a root's value, so none
    is computed.  A finite record stands for one nonzero root; the roots of
    one order class give equal records, one per root."""

    kind: str  # "zero" | "infinity" | "finite"
    ord1: int
    ord2: int

    @property
    def pair_ord(self):
        return min(self.ord1, self.ord2)


@dataclass(frozen=True)
class PointClass:
    """Resultant-point classification.

    Degenerate reasons match the three non-node cases exactly: three common
    roots, two double roots for the same factor, or a multiple pair-root.
    Degenerate means "needs further analysis", not "confirmed non-A1".
    """

    tag: str  # NotOnResultant | SmoothPoint | NodeA1 | Degenerate
    reason: str | None = None  # ThreeRoots | TwoDoubleForSameFactor | MultipleRoot

    def to_json(self):
        return {"tag": self.tag, "reason": self.reason}


class LaurentPoly:
    """Polynomial with prescribed integer support and int or Fraction
    coefficients.

    `is_zero` (every coefficient is zero) is decided once, by the
    constructor: nothing changes `coeffs` after it."""

    __slots__ = ("support", "coeffs", "is_zero")

    def __init__(self, support: SupportSet, coeffs):
        coeffs = dict(coeffs)
        for b in coeffs:
            if b not in support.elements:
                raise ValueError(f"coefficient exponent {b} outside support")
        self.support = support
        self.coeffs = coeffs
        self.is_zero = not any(coeffs.values())

    def coeff(self, b):
        return self.coeffs.get(b, 0)

    def __repr__(self):
        bits = " + ".join(f"{c!r}*x^{b}" for b, c in sorted(self.coeffs.items()) if c)
        return f"LaurentPoly({bits or '0'})"


def homogenize(f: LaurentPoly):
    """Coefficients of the degree-spread binary form, ascending in x-degree:
    the one dense coefficient list of a Laurent polynomial.

    Position j carries the coefficient of x^j y^(spread-j), i.e. the support
    exponent min B + j.
    """
    if f.is_zero:
        raise ValueError("cannot homogenize the zero polynomial")
    lo, d = f.support.min, f.support.spread
    return [f.coeff(lo + j) for j in range(d + 1)]


def _end_orders(f: LaurentPoly) -> tuple:
    """(order at 0, order at infinity) of a nonzero f's homogenized form:
    the number of zero coefficients from each end of the convex hull."""
    live = [b for b, c in f.coeffs.items() if c]
    return min(live) - f.support.min, f.support.max - max(live)


def _finite_common_roots(f: LaurentPoly, g: LaurentPoly):
    """RootRecords over nonzero finite points, in Z[x].

    Every common root is a root of h = gcd(pf, pg), pf and pg the primitive
    homogenized forms.  The root at 0 is stripped from h (it belongs to the
    boundary bookkeeping), and the squarefree part s = h / gcd(h, h') is
    split by root order in pf, then each class by order in pg, so every
    common root lands in exactly one (a, b) order class.  A class factor q
    has deg q distinct nonzero roots, so it gives deg q equal records.
    """
    pf, pg = primitive(homogenize(f)), primitive(homogenize(g))
    h = prs_gcd(pf, pg)
    h = h[next(i for i, c in enumerate(h) if c) :]
    if len(h) <= 1:
        return []
    records = []
    for a, fa in _split_by_order(exact_quo(h, prs_gcd(h, derivative(h))), pf):
        for b, q in _split_by_order(fa, pg):
            records += [RootRecord("finite", a, b)] * (len(q) - 1)
    return records


def _split_by_order(s, p):
    """Yield (a, q_a) for a = 1, 2, ..., q_a the factor of s whose roots are
    those of order exactly a in p, skipping empty classes.

    s is primitive and squarefree, and each of its roots is a root of p.
    With s_1 = s, p_a = p_{a-1} / s_a and s_{a+1} = gcd(s_a, p_a), s_a is
    the product over the roots of s of order >= a in p, each of order
    ord_p(r) - a + 1 in p_{a-1}.  Induction: true for a = 1; s_a divides
    p_{a-1} (its roots are simple and have order >= 1 there), so p_a is
    exact and lowers each of their orders by one, and gcd(s_a, p_a) keeps
    those of order >= a + 1.  So q_a = s_a / s_{a+1} is exact as well, and
    all of them are in Z[x] by Gauss's lemma.
    """
    a = 1
    while len(s) > 1:
        p = exact_quo(p, s)
        nxt = prs_gcd(s, p)
        q = exact_quo(s, nxt)
        if len(q) > 1:
            yield a, q
        s, a = nxt, a + 1


def common_roots(f: LaurentPoly, g: LaurentPoly):
    """All projective points where both orders are >= 1, with both orders.

    The records at 0 and infinity come first, from `_end_orders`; a
    boundary record exists exactly when both orders there are >= 1, so a
    caller reads min(ord f, ord g) at 0 or infinity as its pair order, or 0
    without one.  The finite records follow (`_finite_common_roots`).
    """
    if f.is_zero or g.is_zero:
        raise ValueError("common roots of a zero polynomial are undefined")
    (o0f, oif), (o0g, oig) = _end_orders(f), _end_orders(g)
    records = [
        RootRecord(kind, a, b) for kind, a, b in (("zero", o0f, o0g), ("infinity", oif, oig)) if a >= 1 and b >= 1
    ]
    return records + _finite_common_roots(f, g)


def classify_point(f: LaurentPoly, g: LaurentPoly) -> PointClass:
    """Classify (f, g) as a point of the resultant hypersurface.

    A node needs two common roots of pair order 1 whose branch covectors
    have rank 2; two finite roots both multiple in f, or both in g, are
    TwoDoubleForSameFactor.  A boundary record beside a finite one, both
    double in f, answers NodeA1 by the gap-gcd rule (f = x^2 (x - 1)^2 on
    0..4, g = x (x - 1) on 0..2); whether the paper counts a double root at
    0 or infinity toward that stratum is open.  Under the
    no-common-sublattice hypothesis (the caller's to meet) the covectors
    have rank 2, and proportional ones raise ValueError.  No covector is
    built: the test reads one gcd.

    The covector at a finite common root x is v(x) = (g'(x) x^i, i in B1;
    -f'(x) x^j, j in B2).  At 0 it is the row that holds, at the first
    position of each block, the coefficients of g and -f one step inside
    their lowest exponents (the derivatives in the chart at 0), and zeros
    elsewhere; at infinity the same one step inside the highest exponents,
    at the last positions.

    Lemma.  Let the covector test be reached with records r1 and r2, and
    let g1, g2 be the gap gcds of B1 and B2 and G = gcd(g1, g2).  Then the
    covectors are proportional iff G is even, and then r1 and r2 are
    finite.

    Proof.  (0) A boundary record of pair order 1 has order 1 in f or in g:
    that polynomial's coefficient one step inside the end is nonzero, so
    its support holds two adjacent exponents, and G = 1.  (1) If r^G = 1,
    every exponent of B1 is s = min B1 mod G, so f(r x) = r^s f(x);
    likewise g(r x) = r^t g(x) with t = min B2.  So x -> r x maps the
    common roots to common roots with the same orders, and differentiating
    gives v(r a) = r^(s + t - 1) v(a).  (2) G even: by (0) both records are
    finite, and (1) with r = -1 makes -a != a a record with the orders of
    a = r1.  With two records, these are all of them, and v(-a) = +-v(a):
    proportional.  (3) Both finite, a and b, G odd.  Pair order 1 makes
    f' or g' nonzero at each, so each of v(a), v(b) has a block of
    nonzero entries.  If a block of v(a) is zero, say f'(a) = 0, then
    f'(b) != 0, or TwoDoubleForSameFactor would have returned: v(b) is
    nonzero on the block where v(a) is zero, and v(a) != 0, so the rows
    are independent; likewise with a and b swapped.  Otherwise every
    entry of both is nonzero.  If v(b) = k v(a), then k != 0, and with
    r = b/a != 1 the B1 block gives r^(i - i') = 1 for all i, i' in B1, so
    r^g1 = 1; the B2 block gives r^g2 = 1; so r^G = 1.  With G odd, r has
    odd order >= 3, and by (1) a, r a and r^2 a are three records, so
    ThreeRoots would have returned.  (4) A boundary record.  Its row is
    nonzero, by (0).  It is nonzero only at the first (or last) position
    of each block, and a record at 0 or infinity makes an end coefficient
    of f and of g vanish, so both supports have at least 2 elements.  A
    finite row is nonzero on a whole block, of at least 2 positions, so it
    is not a multiple of this row, nor this row of it; the other boundary
    row is nonzero only at positions disjoint from this row's.  So both
    are independent of it.  (2)-(4) cover every case.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("cannot classify a zero polynomial")
    records = common_roots(f, g)
    if not records:
        return PointClass("NotOnResultant")
    if any(r.pair_ord >= 2 for r in records):
        return PointClass("Degenerate", "MultipleRoot")
    if len(records) >= 3:
        return PointClass("Degenerate", "ThreeRoots")
    if len(records) == 1:
        return PointClass("SmoothPoint")
    r1, r2 = records
    if r1.kind == r2.kind == "finite" and ((r1.ord1 >= 2 and r2.ord1 >= 2) or (r1.ord2 >= 2 and r2.ord2 >= 2)):
        return PointClass("Degenerate", "TwoDoubleForSameFactor")
    if gcd(gap_gcd(f.support), gap_gcd(g.support)) % 2 == 0:
        raise ValueError(
            "branch covectors are proportional; the supports violate the "
            "no-common-sublattice hypothesis"
        )
    return PointClass("NodeA1")
