"""Univariate Laurent polynomials with prescribed support.

Multiplicity bookkeeping runs on the projective line: the order at 0 (resp.
infinity) counts vanishing leftmost (rightmost) coefficients along the
convex hull of the support, and finite orders are root multiplicities of the
x-part.  Two scalar instantiations share the contract: exact rationals
(authoritative) and complex floats (for samplers and grid scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import UniPoly, exact_rank, poly_gcd, squarefree_decomposition
from .supports import SupportSet

__all__ = [
    "LaurentPoly",
    "ProjPoint",
    "RootRecord",
    "PointClass",
    "homogenize",
    "ord_at",
    "common_roots",
    "branch_covector",
    "classify_point",
    "CLUSTER_TOL",
]

CLUSTER_TOL = 1e-8


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

    For exact irrational roots `min_poly` holds the squarefree factor the
    root came from and `value` a numeric approximation; order bookkeeping
    never depends on the approximation.
    """

    point: ProjPoint
    ord1: int
    ord2: int
    min_poly: UniPoly | None = None

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
    """Polynomial with prescribed integer support; scalars exact or complex."""

    __slots__ = ("support", "coeffs")

    def __init__(self, support: SupportSet, coeffs):
        if not isinstance(support, SupportSet):
            support = SupportSet(tuple(support))
        coeffs = dict(coeffs)
        for b in coeffs:
            if b not in support:
                raise ValueError(f"coefficient exponent {b} outside support")
        self.support = support
        self.coeffs = coeffs

    def coeff(self, b):
        return self.coeffs.get(b, 0)

    @property
    def is_zero(self):
        return not any(self.coeffs.values())

    @property
    def is_exact(self):
        return all(_is_exact_scalar(c) for c in self.coeffs.values())

    def x_part(self) -> UniPoly:
        """The polynomial sum c_b x^(b - min B); exact scalars only."""
        lo = self.support.min
        out = [0] * (self.support.spread + 1)
        for b, c in self.coeffs.items():
            out[b - lo] = c
        return UniPoly(out)

    def evaluate(self, x):
        return sum(c * x**b for b, c in self.coeffs.items() if c)

    def derivative_value(self, x, order=1):
        """Value of the order-th derivative at nonzero x (Laurent exponents)."""
        acc = 0
        for b, c in self.coeffs.items():
            if not c:
                continue
            fall = 1
            for t in range(order):
                fall *= b - t
            if fall:
                acc += c * fall * x ** (b - order)
        return acc

    def to_json(self):
        def enc(c):
            if _is_exact_scalar(c):
                return str(c)
            return [c.real, c.imag]

        return {
            "support": self.support.to_json(),
            "coeffs": {str(b): enc(c) for b, c in self.coeffs.items()},
        }

    @classmethod
    def from_json(cls, data):
        support = SupportSet.from_json(data["support"])
        coeffs = {}
        for key, enc in data["coeffs"].items():
            if isinstance(enc, list):
                coeffs[int(key)] = complex(enc[0], enc[1])
            else:
                coeffs[int(key)] = Fraction(enc) if "/" in enc else int(enc)
        return cls(support, coeffs)

    def __repr__(self):
        bits = " + ".join(f"{c!r}*x^{b}" for b, c in sorted(self.coeffs.items()) if c)
        return f"LaurentPoly({bits or '0'})"


def homogenize(f: LaurentPoly):
    """Coefficients of the degree-spread binary form, ascending in x-degree.

    Position j carries the coefficient of x^j y^(spread-j), i.e. the support
    exponent min B + j.
    """
    if f.is_zero:
        raise ValueError("cannot homogenize the zero polynomial")
    lo, d = f.support.min, f.support.spread
    return [f.coeff(lo + j) for j in range(d + 1)]


def _float_tol(coeffs, tol):
    scale = max((abs(complex(c)) for c in coeffs), default=0.0)
    return tol * max(scale, 1e-300)


def ord_at(f: LaurentPoly, p: ProjPoint, tol=CLUSTER_TOL) -> int:
    """Vanishing order of the homogenized form at a projective point.

    At 0 / infinity this counts zero coefficients from the respective end of
    the convex hull; at finite x it is the root multiplicity of the x-part
    (exact for rational scalars, deflation within `tol` for floats).
    """
    if f.is_zero:
        raise ValueError("order of the zero polynomial is undefined")
    form = homogenize(f)
    if f.is_exact:
        nonzero = [j for j, c in enumerate(form) if c]
    else:
        cut = _float_tol(form, tol)
        nonzero = [j for j, c in enumerate(form) if abs(complex(c)) > cut]
        if not nonzero:
            raise ValueError("polynomial is numerically zero")
    if p.kind == "zero":
        return nonzero[0]
    if p.kind == "infinity":
        return len(form) - 1 - nonzero[-1]
    x = p.value
    if f.is_exact and _is_exact_scalar(x):
        return f.x_part().root_multiplicity(Fraction(x))
    # float path: deflate by evaluating successive derivatives
    scale = max(abs(complex(c)) for c in form)
    m = 0
    xf = complex(x)
    while m <= f.support.spread:
        val = f.derivative_value(xf, order=m) if m else f.evaluate(xf)
        if abs(complex(val)) > tol * scale * max(1.0, abs(xf)) ** (f.support.max - m):
            return m
        m += 1
    return m


def _exact_finite_common_roots(f: LaurentPoly, g: LaurentPoly):
    """RootRecords over nonzero finite points, exact path.

    Strips the x-part's root at 0, takes squarefree layers of both sides and
    pairs them by gcd, so every common root lands in exactly one (a, b)
    order class.  Irrational roots keep their squarefree factor and get a
    numeric approximation per root.
    """
    pf, pg = f.x_part(), g.x_part()
    for p in (pf, pg):
        if p.is_zero:
            raise ValueError("zero polynomial")
    # remove roots at x = 0 (they belong to the boundary bookkeeping)
    while pf.coeffs and not pf.coeffs[0]:
        pf = UniPoly(pf.coeffs[1:])
    while pg.coeffs and not pg.coeffs[0]:
        pg = UniPoly(pg.coeffs[1:])
    if pf.degree <= 0 or pg.degree <= 0:
        return []
    sf = squarefree_decomposition(pf)
    sg = squarefree_decomposition(pg)
    records = []
    for fa, a in sf:
        for gb, b in sg:
            h = poly_gcd(fa, gb)
            if h.degree <= 0:
                continue
            for factor, root in _roots_of_squarefree(h):
                if isinstance(root, (int, Fraction)):
                    records.append(RootRecord(ProjPoint.finite(root), a, b))
                else:
                    records.append(RootRecord(ProjPoint.finite(root), a, b, min_poly=factor))
    return records


def _roots_of_squarefree(h: UniPoly):
    """(factor, root) pairs: rational roots exactly, the rest numerically."""
    out = []
    rem = h
    for r in _rational_roots(h):
        out.append((UniPoly((-r, 1)), r))
        rem = rem // UniPoly((-r, 1))
    if rem.degree > 0:
        coeffs = [complex(c) for c in reversed(rem.coeffs)]
        for z in np.roots(coeffs):
            out.append((rem, complex(z)))
    return out


def _rational_roots(h: UniPoly):
    """All rational roots of a rational polynomial, by clearing denominators
    and scanning divisors of the constant/leading coefficients."""
    lcm = 1
    for c in h.coeffs:
        if isinstance(c, Fraction):
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in h.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # x = 0 roots never occur here (stripped earlier)
    if not ints:
        return []
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    roots = []
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if h.evaluate(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _numeric_common_roots(f: LaurentPoly, g: LaurentPoly, tol):
    """Float path: cluster the roots of both x-parts and intersect clusters."""

    def clusters(poly: LaurentPoly):
        form = [complex(c) for c in homogenize(poly)]
        scale = max(abs(c) for c in form)
        form = [c / scale for c in form]
        lo = 0
        while lo < len(form) - 1 and abs(form[lo]) <= tol:
            lo += 1
        hi = len(form) - 1
        while hi > lo and abs(form[hi]) <= tol:
            hi -= 1
        finite = form[lo : hi + 1]
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
    for center_f, mult_f in clusters(f):
        for center_g, mult_g in clusters(g):
            if abs(center_f - center_g) <= max(tol, tol * abs(center_f)) * 10:
                center = (center_f + center_g) / 2
                if abs(center) > tol:
                    records.append(RootRecord(ProjPoint.finite(center), mult_f, mult_g))
    return records


def common_roots(f: LaurentPoly, g: LaurentPoly, tol=CLUSTER_TOL):
    """All projective points where both orders are >= 1, with both orders."""
    if f.is_zero or g.is_zero:
        raise ValueError("common roots of a zero polynomial are undefined")
    records = []
    o0f, o0g = ord_at(f, ProjPoint.zero(), tol), ord_at(g, ProjPoint.zero(), tol)
    if o0f >= 1 and o0g >= 1:
        records.append(RootRecord(ProjPoint.zero(), o0f, o0g))
    oif, oig = ord_at(f, ProjPoint.infinity(), tol), ord_at(g, ProjPoint.infinity(), tol)
    if oif >= 1 and oig >= 1:
        records.append(RootRecord(ProjPoint.infinity(), oif, oig))
    if f.is_exact and g.is_exact:
        records.extend(_exact_finite_common_roots(f, g))
    else:
        records.extend(_numeric_common_roots(f, g, tol))
    return records


def branch_covector(f: LaurentPoly, g: LaurentPoly, x):
    """Tangent covector of the resultant branch through a simple common root.

    Entries indexed by B1 then B2: g'(x)*x^i on the f side, -f'(x)*x^j on
    the g side.  Requires pair multiplicity exactly 1 at x.
    """
    if not x:
        raise ValueError("covector at a boundary point needs boundary_covector")
    of = ord_at(f, ProjPoint.finite(x))
    og = ord_at(g, ProjPoint.finite(x))
    if min(of, og) != 1:
        raise ValueError("covector undefined")
    gp = g.derivative_value(x)
    fp = f.derivative_value(x)
    row = [gp * x**i for i in f.support]
    row += [-fp * x**j for j in g.support]
    return row


def boundary_covector(f: LaurentPoly, g: LaurentPoly, at_zero: bool):
    """Two-term covector of the branch at 0 or infinity.

    In the affine chart at the boundary point the x-parts start (or end)
    with a zero coefficient; the derivative there is the adjacent convex-hull
    coefficient.
    """
    n1, n2 = len(f.support), len(g.support)

    def chart_derivative(poly: LaurentPoly):
        if at_zero:
            return poly.coeff(poly.support.min + 1) if (poly.support.min + 1) in poly.support else 0
        return poly.coeff(poly.support.max - 1) if (poly.support.max - 1) in poly.support else 0

    fp = chart_derivative(f)
    gp = chart_derivative(g)
    row = [0] * (n1 + n2)
    slot_f = 0 if at_zero else n1 - 1
    slot_g = n1 if at_zero else n1 + n2 - 1
    row[slot_f] = gp
    row[slot_g] = -fp
    return row


def _covector_for_record(f, g, rec: RootRecord):
    if rec.point.kind == "finite":
        value = rec.point.value
        if rec.min_poly is not None or not _is_exact_scalar(value):
            x = complex(value)
            gp, fp = g.derivative_value(x), f.derivative_value(x)
            return [gp * x**i for i in f.support] + [-fp * x**j for j in g.support]
        return branch_covector(f, g, value)
    return boundary_covector(f, g, rec.point.kind == "zero")


def _covectors_independent(f, g, r1, r2, tol=CLUSTER_TOL):
    v1 = _covector_for_record(f, g, r1)
    v2 = _covector_for_record(f, g, r2)
    if all(_is_exact_scalar(c) for c in v1 + v2):
        return exact_rank([v1, v2]) == 2
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
    if not _covectors_independent(f, g, r1, r2, tol):
        raise ValueError(
            "branch covectors are proportional; the supports violate the "
            "no-common-sublattice hypothesis"
        )
    return PointClass("NodeA1")
