"""Univariate Laurent polynomials with prescribed support and exact
rational coefficients, and the classification of a pair of them as a point
of the resultant hypersurface.

Multiplicity bookkeeping runs on the projective line: the order at 0 (resp.
infinity) counts vanishing leftmost (rightmost) coefficients along the
convex hull of the support, and finite orders are root multiplicities of the
homogenized form.  Every decision is exact, made on the primitive integer
forms; floats appear only as the printed value of an irrational root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .exact import derivative, exact_quo, is_prime, primitive, prs_gcd, root_multiplicity
from .supports import SupportSet, gap_gcd

__all__ = [
    "LaurentPoly",
    "ProjPoint",
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
class ProjPoint:
    """Point of the projective line: 0, infinity, or a nonzero finite value."""

    kind: str  # "zero" | "infinity" | "finite"
    value: object = None

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def infinity(cls):
        return cls("infinity")

    @classmethod
    def finite(cls, value):
        if not value:
            raise ValueError("finite projective point must be nonzero")
        return cls("finite", value)

    def __repr__(self):
        if self.kind == "finite":
            return f"ProjPoint({self.value!r})"
        return f"ProjPoint({self.kind})"


@dataclass(frozen=True)
class RootRecord:
    """Common root with its per-polynomial vanishing orders.

    For irrational roots `min_poly` holds the root's order-class factor
    with its rational roots divided out, as a primitive integer coefficient
    tuple ascending in degree: a positive multiple of the product of x - r
    over the irrational common roots r with the same (ord1, ord2).  The
    point's value is then a complex approximation, for printing only: no
    decision reads it.
    """

    point: ProjPoint
    ord1: int
    ord2: int
    min_poly: tuple | None = None

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
    common root lands in exactly one (a, b) order class.  Irrational roots keep the
    irrational part of their class factor and get a numeric approximation
    per root.
    """
    pf, pg = primitive(homogenize(f)), primitive(homogenize(g))
    h = prs_gcd(pf, pg)
    h = h[next(i for i, c in enumerate(h) if c) :]
    if len(h) <= 1:
        return []
    records = []
    for a, fa in _split_by_order(exact_quo(h, prs_gcd(h, derivative(h))), pf):
        for b, q in _split_by_order(fa, pg):
            for root, min_poly in _roots_of_squarefree(q):
                records.append(RootRecord(ProjPoint.finite(root), a, b, min_poly))
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


def _roots_of_squarefree(q):
    """(root, min_poly): rational roots exactly, with no min_poly, then the
    others numerically, with the primitive quotient rem of q by the rational
    factors; np.roots gets rem made monic, each coefficient rounded once,
    and gives each root's value, a complex, for printing only."""
    out = []
    rem = q
    for r in _rational_roots(q):
        out.append((r, None))
        rem = exact_quo(rem, (-r.numerator, r.denominator))
    if len(rem) > 1:
        for z in np.roots(np.array([float(c / rem[-1]) for c in reversed(rem)], dtype=complex)).tolist():
            out.append((z, rem))
    return out


def _rational_roots(q):
    """All rational roots of a squarefree integer polynomial q with
    q(0) != 0, sorted by (|numerator|, denominator, positive first).

    A root u/d in lowest terms has u | q(0) and d | lc(q), so |u| <= N =
    |q(0)| and 0 < d <= D = |lc(q)|.  Two such fractions that agree modulo
    m > 2ND are equal, since |u d' - u' d| <= 2ND.  So take the first prime
    p not dividing lc(q) at which every root of q mod p is simple (found by
    trying all of F_p); each rational root reduces to one of them, whose
    Newton (Hensel) lift modulo m = p^k > 2ND determines it, and rational
    reconstruction recovers it (von zur Gathen and Gerhard, Modern Computer
    Algebra, 5.10).  Each candidate is tested exactly.  The cost is
    polynomial in the coefficient length.
    """
    if len(q) == 2:  # a linear factor's root is read off
        return [Fraction(-q[0], q[1])]
    bound_n, bound_d = abs(q[0]), abs(q[-1])
    dq = derivative(q)
    p = 2
    while True:
        if bound_d % p and is_prime(p):
            lifts = [x for x in range(p) if not _eval_mod(q, x, p)]
            if all(_eval_mod(dq, x, p) for x in lifts):
                break
        p += 1
    roots = []
    for x in lifts:
        m = p
        while m <= 2 * bound_n * bound_d:
            m *= m
            x = (x - _eval_mod(q, x, m) * pow(_eval_mod(dq, x, m), -1, m)) % m
        r = _reconstruct(x, m, bound_n, bound_d)
        if r is not None and root_multiplicity(q, r):
            roots.append(r)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _eval_mod(a, x, m):
    """a(x) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _reconstruct(x, m, bound_n, bound_d):
    """The fraction u/d with |u| <= bound_n, 0 < d <= bound_d and
    u = d*x mod m, if there is one (2 * bound_n * bound_d < m), else None."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound_n:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if not r1 or abs(t1) > bound_d:
        return None
    return Fraction(r1, t1)


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
        RootRecord(point, a, b)
        for point, a, b in ((ProjPoint.zero(), o0f, o0g), (ProjPoint.infinity(), oif, oig))
        if a >= 1 and b >= 1
    ]
    return records + _finite_common_roots(f, g)


def _covector(f, g, x):
    """Tangent covector of the resultant branch through a nonzero simple
    rational common root x = u/d: g'(x)*x^i, i in B1, then -f'(x)*x^j, j in
    B2, with no check of the root's orders, in Fractions.  It is evaluated
    in integers with x's denominator cleared once: one Fraction, and so one
    gcd, per entry.

    Take lo <= 0 <= hi bounding every exponent b - 1 (b in B1 or B2) and
    every exponent of B1 and B2, and T(e) = u^(e - lo) d^(hi - e), an
    integer; then x^e = T(e) / N with N = u^(-lo) d^hi.  For h = f, g let
    D_h be the lcm of its coefficients' denominators, so that
    S_h = sum_b (D_h c_b) b T(b - 1) is an integer and h'(x) = S_h / (D_h N).
    The entries are g'(x) x^i = S_g T(i) / (D_g N^2) and
    -f'(x) x^j = -S_f T(j) / (D_f N^2)."""
    u, d = x.numerator, x.denominator
    exps = [*f.support, *g.support]
    lo, hi = min(0, min(exps) - 1), max(0, max(exps))
    u_pow = [u**k for k in range(hi - lo + 1)]
    d_pow = [d**k for k in range(hi - lo + 1)]
    n2 = (u_pow[-lo] * d_pow[hi]) ** 2

    def cleared(h):
        """(S_h, D_h N^2)."""
        den = lcm(*(c.denominator for c in h.coeffs.values()))
        terms = h.coeffs.items()
        s = sum(c.numerator * (den // c.denominator) * b * u_pow[b - 1 - lo] * d_pow[hi - b + 1] for b, c in terms)
        return s, den * n2

    (sg, dg), (sf, df) = cleared(g), cleared(f)
    return [Fraction(sg * u_pow[i - lo] * d_pow[hi - i], dg) for i in f.support] + [
        Fraction(-sf * u_pow[j - lo] * d_pow[hi - j], df) for j in g.support
    ]


def boundary_covector(f: LaurentPoly, g: LaurentPoly, at_zero: bool):
    """Two-term covector of the branch at 0 or infinity.

    In the affine chart at the boundary point the x-parts start (or end)
    with a zero coefficient; the derivative there is the adjacent
    coefficient, 0 off the support (`LaurentPoly.coeff`).
    """
    n1 = len(f.support)
    row = [0] * (n1 + len(g.support))
    if at_zero:
        row[0], row[n1] = g.coeff(g.support.min + 1), -f.coeff(f.support.min + 1)
    else:
        row[n1 - 1], row[-1] = g.coeff(g.support.max - 1), -f.coeff(f.support.max - 1)
    return row


def _covector_for_record(f, g, rec: RootRecord):
    """The branch covector at a rational or boundary common root of pair
    order 1, whose orders the record already carries."""
    if rec.point.kind == "finite":
        return _covector(f, g, rec.point.value)
    return boundary_covector(f, g, rec.point.kind == "zero")


def _rank_two(v1, v2) -> bool:
    """Whether the exact rows v1, v2 have rank 2: some 2x2 minor
    v1[k]*v2[j] - v1[j]*v2[k] is nonzero.  The minors at one column k with
    v1[k] != 0 decide it: if they all vanish, v2 = (v2[k]/v1[k]) v1.  A
    zero v1 gives rank at most 1."""
    k = next((i for i, a in enumerate(v1) if a), None)
    return k is not None and any(v1[k] * b != a * v2[k] for a, b in zip(v1, v2))


def classify_point(f: LaurentPoly, g: LaurentPoly) -> PointClass:
    """Classify (f, g) as a point of the resultant hypersurface.

    A node needs two common roots of pair order 1, not both multiple in the
    same polynomial, whose branch covectors have rank 2.  Under the
    no-common-sublattice hypothesis (which the caller is responsible for)
    they do, and proportional covectors raise ValueError.  At rational and
    boundary roots the covectors are exact rows, ranked by `_rank_two`.
    At irrational roots the test is one gcd and one comparison:

    Lemma.  Let the covector test be reached with a finite irrational
    record r1, and let g1, g2 be the gap gcds of B1 and B2 and G =
    gcd(g1, g2).  Then the two records are the roots a, b of one
    irreducible quadratic m = m0 + m1 x + m2 x^2, which is `r1.min_poly`,
    and their covectors are proportional iff m1 = 0 (b = -a) and G is
    even; and G even already gives m1 = 0.

    Proof.  (1) f and g have rational coefficients, so the set of common
    roots, with their orders, is Galois-stable: r1's conjugates are records
    too.  With two records, r1 and one conjugate are all of them, and
    `r1.min_poly` is their quadratic m.  (2) Conjugates share their orders.
    MultipleRoot has returned if the pair order is 2 or more, and
    TwoDoubleForSameFactor if both roots are multiple in f or both in g;
    so a and b are simple roots of f and of g, and f', g' vanish at
    neither.  (3) Let v(x) = (g'(x) x^i, i in B1; -f'(x) x^j, j in B2) and
    r = b/a.  If v(b) = k v(a), then k != 0 and the B1 block gives
    r^(i - i') = 1 for all i, i' in B1, so r^g1 = 1; the B2 block gives
    r^g2 = 1; so r^G = 1.  Conversely, if r^G = 1, every exponent of B1 is
    min B1 = s mod G, so f(r x) = r^s f(x), likewise g(r x) = r^t g(x)
    with t = min B2, and differentiating gives v(r a) = r^(s + t - 1)
    v(a).  (4) The same identities make the common roots closed under
    x -> r x when r^G = 1.  So if v(b) is proportional to v(a), the order
    of r is at most 2, or a, r a, r^2 a would be three records and
    ThreeRoots would have returned; r != 1, so r = -1: m1 = 0, and r^G = 1
    says G is even.  Conversely, if G is even, (4) with r = -1 makes -a a
    common root other than a, so -a = b, m1 = 0, and (3) makes the
    covectors proportional.  So the test reads G alone.
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
    both_interior = r1.point.kind == "finite" and r2.point.kind == "finite"
    if both_interior and ((r1.ord1 >= 2 and r2.ord1 >= 2) or (r1.ord2 >= 2 and r2.ord2 >= 2)):
        return PointClass("Degenerate", "TwoDoubleForSameFactor")
    if r1.min_poly is None:  # a rational or boundary root, so r2 is one too
        independent = _rank_two(_covector_for_record(f, g, r1), _covector_for_record(f, g, r2))
    else:
        independent = gcd(gap_gcd(f.support), gap_gcd(g.support)) % 2 == 1
    if not independent:
        raise ValueError(
            "branch covectors are proportional; the supports violate the "
            "no-common-sublattice hypothesis"
        )
    return PointClass("NodeA1")
