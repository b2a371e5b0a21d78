"""Plane-curve germ classification for transversal singularity types.

A germ is an `MPoly` in the local coordinates (s, t) around the origin,
`MPoly(("s", "t"), terms)`, the type of the resultant it is sliced from.
Classification looks at the lowest homogeneous form: squarefree forms give
nodes / ordinary multiple points, a single repeated tangent leads to a
Newton-polygon slope signature (2/3 for the cusp), anything else is the
safe fallback Other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import clear_denominators, derivative, primitive, prs_gcd
from .mpoly import MPoly, _dot, _Packing

__all__ = ["GermClass", "slice_germ", "classify_germ"]


@dataclass(frozen=True)
class GermClass:
    tag: str  # NotOnCurve | Smooth | NodeA1 | OrdinaryMultiple | UniTangent | Other
    m: int | None = None
    slope: Fraction | None = None

    def to_json(self):
        return {
            "tag": self.tag,
            "m": self.m,
            "slope": None if self.slope is None else str(self.slope),
        }


def slice_germ(poly: MPoly, point: dict, dir1: dict, dir2: dict) -> MPoly:
    """Restrict a polynomial to the plane point + s*dir1 + t*dir2, exactly:
    the germ in (s, t), with Fraction coefficients.

    Directions must be linearly independent as coefficient vectors.  Each
    variable is (P + s*U + t*W) / D in ints, D one common denominator, so a
    term c * x^e of total degree k is (L*c) * D^(top - k) * prod (P + s*U +
    t*W)^e over L * D^top, L that of the coefficients: the germ is computed
    in ints on `mpoly`'s packed monomials (each field sized for the degree
    top), each power of a linear germ once, with one Fraction per term.
    """
    values = [Fraction(d.get(v, 0)) for v in poly.vars for d in (point, dir1, dir2)]
    ints, den = clear_denominators(values)
    lin = {v: ints[3 * i : 3 * i + 3] for i, v in enumerate(poly.vars)}
    vecs = [w[1:] for w in lin.values()]
    if not any(u[0] * w[1] != u[1] * w[0] for i, u in enumerate(vecs) for w in vecs[i + 1 :]):
        raise ValueError("slice directions are linearly dependent")
    coefs, lcd = clear_denominators(list(poly.terms.values()))
    top = max((sum(e) for e in poly.terms), default=0)
    packing = _Packing(2, top)
    s, t = (1 << shift for shift in packing.shifts)
    powers = {}

    def power(v, e):
        key = (v, e)
        if key not in powers:
            p, u, w = lin[v]
            base = {m: c for m, c in ((0, p), (s, u), (t, w)) if c}
            powers[key] = base if e == 1 else _dot([(power(v, e - 1), base)])
        return powers[key]

    pairs = []  # (scaled coefficient, product of powers) per term
    for exp, coef in zip(poly.terms, coefs):
        product = {0: 1}
        for v, e in zip(poly.vars, exp):
            if e:
                product = _dot([(product, power(v, e))])
        pairs.append(({0: coef * den ** (top - sum(exp))}, product))
    scale = lcd * den**top
    return packing.unpack(("s", "t"), {m: Fraction(c, scale) for m, c in _dot(pairs).items()})


def _form_profile(terms, m):
    """(t_mult, s_mult, q~) of the degree-m form of a germ's terms, q~ a
    primitive integer coefficient tuple ascending in degree.

    Writing L = sum c_i s^i t^(m-i), q(z) = sum c_i z^i factors as
    z^s_mult * q~(z) with q~(0) != 0, and t divides L exactly m - deg(q)
    times.  q~ is the primitive part, so a nonzero rational scale of L
    gives the same triple.
    """
    coeffs = [0] * (m + 1)
    for (i, j), c in terms.items():
        if i + j == m:
            coeffs[i] = c
    q = primitive(coeffs)
    s_mult = next(i for i, c in enumerate(q) if c)
    return m + 1 - len(q), s_mult, q[s_mult:]


def classify_germ(germ: MPoly) -> GermClass:
    """Classify by the lowest homogeneous form; exact, no root finding.

    Squarefreeness of the form and the distinct-tangent count come from the
    primitive gcd of q~ and its derivative (`prs_gcd`), in integers.  Single
    repeated tangents are rotated onto the t = 0 form and read off the
    Newton polygon's steepest edge from (0, m).
    """
    if not germ.terms:
        raise ValueError("cannot classify the zero germ")
    m = min(i + j for i, j in germ.terms)
    if m == 0:
        return GermClass("NotOnCurve")
    if m == 1:
        return GermClass("Smooth", 1)
    t_mult, s_mult, q = _form_profile(germ.terms, m)
    deg = len(q) - 1
    # deg gcd(q~, q~') sums multiplicity - 1 over the roots of q~
    repeated = len(prs_gcd(q, derivative(q))) - 1 if deg else 0
    tangents = (1 if t_mult else 0) + (1 if s_mult else 0) + deg - repeated
    squarefree = t_mult <= 1 and s_mult <= 1 and not repeated
    if squarefree:
        return GermClass("NodeA1", 2) if m == 2 else GermClass("OrdinaryMultiple", m)
    if tangents != 1:
        return GermClass("Other", m)
    # single repeated tangent: normalize it to the pure t^m form by a slice
    # at the origin ({})
    if t_mult == m:
        normalized = germ
    else:
        # q~ = unit * (z - r)^m, z = s/t, so the tangent factor is (s - r*t),
        # with r = 0 for the tangent s (s_mult = m, deg = 0); p(r*s + t, s),
        # axes swapped and t shifted to t + r*s, turns it into t
        r = Fraction(-q[-2], deg * q[-1]) if deg else 0
        normalized = slice_germ(germ, {}, {"s": r, "t": 1}, {"s": 1})
    slope = None
    for (i, j), _ in normalized.terms.items():
        if j < m and i > 0:
            cand = Fraction(m - j, i)
            if slope is None or cand > slope:
                slope = cand
    if slope is None:
        return GermClass("Other", m)
    return GermClass("UniTangent", m, slope)
