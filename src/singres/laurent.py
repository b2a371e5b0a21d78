"""Univariate Laurent polynomials with prescribed support.

Multiplicity bookkeeping runs on the projective line: the order at 0 (resp.
infinity) counts vanishing leftmost (rightmost) coefficients along the
convex hull of the support, and finite orders are root multiplicities of the
homogenized form.  Two scalar instantiations share the contract: exact
rationals (authoritative), decided on the primitive integer forms, and
complex floats.  Nothing in the package builds a complex polynomial; only
JSON input that gives a coefficient as [re, im] does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .exact import derivative, exact_quo, is_prime, primitive, prs_gcd, root_multiplicity
from .supports import SupportSet

__all__ = [
    "LaurentPoly",
    "ProjPoint",
    "RootRecord",
    "PointClass",
    "homogenize",
    "common_roots",
    "classify_point",
    "CLUSTER_TOL",
]

CLUSTER_TOL = 1e-8


def falling(b, d):
    """Falling factorial b(b-1)...(b-d+1): the factor the d-th derivative
    puts on x^b (any integer b, so Laurent exponents too)."""
    out = 1
    for t in range(d):
        out *= b - t
    return out


def _is_exact_scalar(c):
    return isinstance(c, (int, Fraction))


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

    For exact irrational roots `min_poly` holds the root's order-class
    factor with its rational roots divided out, as a primitive integer
    coefficient tuple ascending in degree: a positive multiple of the product
    of x - r over the irrational common roots r with the same (ord1, ord2).
    `value` is a numeric approximation; order bookkeeping never depends on
    it.
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
    """Polynomial with prescribed integer support; scalars exact or complex.

    `is_zero` (every coefficient is zero) and `is_exact` (every coefficient
    is an int or a Fraction) are decided once, by the constructor: nothing
    changes `coeffs` after it."""

    __slots__ = ("support", "coeffs", "is_zero", "is_exact")

    def __init__(self, support: SupportSet, coeffs):
        coeffs = dict(coeffs)
        for b in coeffs:
            if b not in support.elements:
                raise ValueError(f"coefficient exponent {b} outside support")
        self.support = support
        self.coeffs = coeffs
        self.is_zero = not any(coeffs.values())
        self.is_exact = all(map(_is_exact_scalar, coeffs.values()))

    def coeff(self, b):
        return self.coeffs.get(b, 0)

    def derivative_value(self, x):
        """Value of the first derivative at nonzero x (Laurent exponents)."""
        acc = 0
        for b, c in self.coeffs.items():
            if c and b:
                acc += c * b * x ** (b - 1)
        return acc

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


def _end_orders(f: LaurentPoly, exact: bool, tol) -> tuple:
    """(order at 0, order at infinity, scale) of a nonzero f's homogenized
    form: the number of zero coefficients from each end of the convex hull
    (exact scalars exactly, floats within `tol` times the largest modulus),
    both from one pass over the coefficients, and that largest modulus
    (None for exact scalars, which the exact path never scales).  The
    float path cuts its forms at these orders and divides them by the
    scale (`_numeric_common_roots`)."""
    if exact:
        live, scale = [b for b, c in f.coeffs.items() if c], None
    else:
        scale = max(abs(complex(c)) for c in f.coeffs.values())
        cut = tol * max(scale, 1e-300)
        live = [b for b, c in f.coeffs.items() if abs(complex(c)) > cut]
        if not live:
            raise ValueError("polynomial is numerically zero")
    return min(live) - f.support.min, f.support.max - max(live), scale


def _exact_finite_common_roots(f: LaurentPoly, g: LaurentPoly):
    """RootRecords over nonzero finite points, exact path, in Z[x].

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
    factors; np.roots gets rem made monic, each coefficient rounded once."""
    out = []
    rem = q
    for r in _rational_roots(q):
        out.append((r, None))
        rem = exact_quo(rem, (-r.numerator, r.denominator))
    if len(rem) > 1:
        for z in np.roots([complex(c / rem[-1]) for c in reversed(rem)]):
            out.append((complex(z), rem))
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


def _numeric_common_roots(f: LaurentPoly, g: LaurentPoly, ends, tol):
    """Float path: cluster the roots of both forms, each cut at its end
    orders and divided by its scale, ends = ((ord_0 f, ord_inf f, scale f),
    (ord_0 g, ord_inf g, scale g)) of `_end_orders`, and intersect
    clusters.  An exact form beside a float one comes with no scale, and
    its largest modulus is taken here."""

    def clusters(poly: LaurentPoly, lo, hi, scale):
        form = [complex(c) for c in homogenize(poly)]
        if scale is None:
            scale = max(map(abs, form))
        finite = [c / scale for c in form[lo : len(form) - hi]]
        roots = list(np.roots(list(reversed(finite)))) if len(finite) > 1 else []
        groups = []
        for z in roots:
            for grp in groups:
                if abs(z - grp[0]) <= max(tol, tol * abs(grp[0])) * 10:
                    grp.append(z)
                    break
            else:
                groups.append([z])
        return [(sum(grp) / len(grp), len(grp)) for grp in groups]

    records = []
    for center_f, mult_f in clusters(f, *ends[0]):
        for center_g, mult_g in clusters(g, *ends[1]):
            if abs(center_f - center_g) <= max(tol, tol * abs(center_f)) * 10:
                center = (center_f + center_g) / 2
                if abs(center) > tol:
                    records.append(RootRecord(ProjPoint.finite(center), mult_f, mult_g))
    return records


def common_roots(f: LaurentPoly, g: LaurentPoly, tol=CLUSTER_TOL):
    """All projective points where both orders are >= 1, with both orders.

    The records at 0 and infinity come first, from `_end_orders`; a
    boundary record exists exactly when both orders there are >= 1, so a
    caller reads min(ord f, ord g) at 0 or infinity as its pair order, or 0
    without one.  Each polynomial's exactness and end orders are decided
    once, the float path cutting its forms at those orders, and the finite
    records come from one homogenized form per polynomial.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("common roots of a zero polynomial are undefined")
    exact = f.is_exact, g.is_exact
    ends = (o0f, oif, _), (o0g, oig, _) = _end_orders(f, exact[0], tol), _end_orders(g, exact[1], tol)
    records = [
        RootRecord(point, a, b)
        for point, a, b in ((ProjPoint.zero(), o0f, o0g), (ProjPoint.infinity(), oif, oig))
        if a >= 1 and b >= 1
    ]
    records += _exact_finite_common_roots(f, g) if all(exact) else _numeric_common_roots(f, g, ends, tol)
    return records


def _covector(f, g, x):
    """Tangent covector of the resultant branch through a nonzero simple
    common root x: g'(x)*x^i, i in B1, then -f'(x)*x^j, j in B2, with no
    check of the root's orders.  At an exact x with exact coefficients it is
    `_exact_covector`, in Fractions."""
    if _is_exact_scalar(x) and f.is_exact and g.is_exact:
        return _exact_covector(f, g, x)
    gp, fp = g.derivative_value(x), f.derivative_value(x)
    return [gp * x**i for i in f.support] + [-fp * x**j for j in g.support]


def _exact_covector(f, g, x):
    """`_covector` at a nonzero rational x = u/d over exact coefficients,
    evaluated in integers with x's denominator cleared once: one Fraction,
    and so one gcd, per entry.

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
    """The branch covector at a common root of pair order 1, whose orders
    the record already carries, at the record's value: a Fraction at a
    rational root, a complex (so floats) at an irrational or float one."""
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


def _covectors_independent(f, g, r1, r2):
    v1 = _covector_for_record(f, g, r1)
    v2 = _covector_for_record(f, g, r2)
    if all(_is_exact_scalar(c) for c in v1 + v2):
        return _rank_two(v1, v2)
    m = np.array([[complex(c) for c in v1], [complex(c) for c in v2]])
    s = np.linalg.svd(m, compute_uv=False)
    return s[-1] > 1e-9 * max(s[0], 1e-300)


def classify_point(f: LaurentPoly, g: LaurentPoly, tol=CLUSTER_TOL) -> PointClass:
    """Classify (f, g) as a point of the resultant hypersurface.

    Node detection additionally checks that the two branch covectors span a
    rank-2 space; under the no-common-sublattice hypothesis (which the caller
    is responsible for) that check always passes.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("cannot classify a zero polynomial")
    records = common_roots(f, g, tol)
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
    if not _covectors_independent(f, g, r1, r2):
        raise ValueError(
            "branch covectors are proportional; the supports violate the "
            "no-common-sublattice hypothesis"
        )
    return PointClass("NodeA1")
