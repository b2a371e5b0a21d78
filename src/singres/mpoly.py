"""The Sylvester resultant of a support pair with symbolic coefficients,
and `MPoly`, the sparse multivariate polynomial that holds it.

Coefficient variables are named f<b> / g<b> after the exponents of the two
supports.  The resultant is the determinant of the classical Sylvester
matrix of the two homogenized forms, sign included.  It is computed without
building that matrix, by the subresultant polynomial remainder sequence of
the two forms as polynomials in x whose coefficients are polynomials in the
f/g variables (Brown's sequence, with Ducos's reduction); every division in
it is exact.  Remainders and divisions run on Kronecker-packed monomials:
each exponent tuple becomes one int, so a monomial product is one addition
and a divisibility test one subtraction plus a guard-bit mask.
"""

from __future__ import annotations

import heapq
import math

from .exact import clear_denominators
from .supports import SupportPair

__all__ = [
    "MPoly",
    "resultant_poly",
    "jacobian_vanishes",
]

DEFAULT_DET_BOUND = 16


class MPoly:
    """Sparse multivariate polynomial: exponent tuples -> nonzero
    coefficients, the value type of `resultant_poly` and of the plane germs
    in (s, t) that `germs.slice_germ` cuts from it.  It has no arithmetic:
    the resultant is computed on packed monomials, and its readers
    (`jacobian_vanishes`, `germs`) walk `terms`."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exp, c in (terms or {}).items():
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": str(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    def pretty(self):
        """The terms by falling total degree, as "x^2*y - 3*z + 1": a
        constant term is written as its value, and the zero polynomial as
        "0"."""
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            if not mono:
                bits.append(f"{sign} {mag}")
            elif mag == 1:
                bits.append(f"{sign} {mono}")
            else:
                bits.append(f"{sign} {mag}*{mono}")
        if not bits:
            return "0"
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"MPoly({self.pretty()})"


class _Packing:
    """Kronecker packing of exponent tuples into single ints.

    Variable i occupies bits [i*width, (i+1)*width), so the exponent tuple e
    packs to sum(e[i] << shifts[i]); the top bit of every field is a guard
    bit that is clear in every packed monomial whose exponents are at most
    `max_exp`.  Packed ints add as exponent tuples do while no field carries
    out of its width, and compare in the lexicographic order with the last
    variable most significant, which is a monomial order.
    """

    def __init__(self, nvars, max_exp):
        width = max_exp.bit_length() + 1
        self.shifts = tuple(i * width for i in range(nvars))
        self.mask = (1 << (width - 1)) - 1
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)

    def unpack(self, vars, terms):
        shifts, mask = self.shifts, self.mask
        return MPoly(vars, {tuple((m >> s) & mask for s in shifts): c for m, c in terms.items()})


def _divisor(div):
    """(lead monomial, lead coefficient, the other terms as offsets from the
    lead) of a nonzero packed divisor."""
    lead = max(div)
    return lead, div[lead], [(d - lead, c) for d, c in div.items() if d != lead]


def _divexact_packed(rem, divisor, guard):
    """Exact quotient of packed polynomials; `rem` is consumed as the remainder.

    A quotient monomial q = lead(rem) - lead(div) is valid iff q >= 0 and no
    field borrowed, i.e. no guard bit is set, and its coefficient iff the
    divisor's lead coefficient divides it in Z; otherwise the division is
    inexact.  Brown's and Ducos's divisions are exact in the domain
    Z[f, g] itself, so no quotient the resultant divides out leaves Z.
    Valid q plus a divisor monomial cannot carry out of a field, so the
    remainder's monomials stay faithful even where they leave the
    dividend's exponent range (which only an inexact division does).  The
    remainder's monomials wait in a max-heap with lazy deletion: a popped
    monomial that has since cancelled is skipped, and a monomial, once
    divided out, never returns, since every monomial a step adds lies below
    the one it divides out.
    """
    lead, lc, tail = divisor
    quo = {}
    if not tail:
        for m, c in rem.items():
            q = m - lead
            qc, r = divmod(c, lc)
            if q < 0 or q & guard or r:
                raise ArithmeticError("inexact polynomial division")
            quo[q] = qc
        return quo
    get, pop = rem.get, rem.pop
    heap = [-m for m in rem]
    heapq.heapify(heap)
    push, popmax = heapq.heappush, heapq.heappop
    while heap:
        m = -popmax(heap)
        c = pop(m, 0)
        if not c:
            continue
        q = m - lead
        qc, r = divmod(c, lc)
        if q < 0 or q & guard or r:
            raise ArithmeticError("inexact polynomial division")
        quo[q] = qc
        for off, dc in tail:
            t = m + off
            v = get(t)
            if v is None:
                rem[t] = -qc * dc
                push(heap, -t)
            else:
                v -= qc * dc
                if v:
                    rem[t] = v
                else:
                    del rem[t]
    return quo


def _dot(terms):
    """Sum of a * b over the (a, b) pairs of packed polynomials."""
    out = {}
    get = out.get
    for a, b in terms:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    return {m: v for m, v in out.items() if v}


def _coefficient_vars(pair: SupportPair):
    return tuple(f"f{b}" for b in pair.b1) + tuple(f"g{b}" for b in pair.b2)


def _neg(a):
    return {m: -c for m, c in a.items()}


def _pow(a, k):
    out = {0: 1}
    for _ in range(k):
        out = _dot([(out, a)])
    return out


def _lazard(x, y, k, guard):
    """x^k / y^(k-1) for k >= 1, one exact division per factor (Lazard): in
    a UFD each x^i / y^(i-1), 1 <= i <= k, is exact when x^k / y^(k-1) is,
    as i v(x) - (i-1) v(y) is linear in i for every prime valuation v."""
    out, div = x, _divisor(y)
    for _ in range(k - 1):
        out = _divexact_packed(_dot([(out, x)]), div, guard)
    return out


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b, deg a >= deg b.

    Polynomials in x are lists of packed coefficients by ascending degree,
    with a nonzero last entry.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    owed = len(a) - db  # factors of lb still to apply
    while len(r) > db:
        nlr = _neg(r.pop())
        shift = len(r) - db  # r <- lb r - lr x^shift b, the top cancelled
        r = [_dot([(lb, c), (nlr, b[i - shift] if i >= shift else {})]) for i, c in enumerate(r)]
        owed -= 1
        while r and not r[-1]:
            r.pop()
    if owed and r:
        scale = _pow(lb, owed)
        r = [_dot([(scale, c)]) for c in r]
    return r


def _next_subresultant(p, q, z, s, guard):
    """prem(p, q) / (lc(p) s^delta), delta = deg p - deg q >= 1, for z =
    q (lc(q) / s)^(delta - 1), by Ducos's reduction.

    Let M = q / lc(q), monic, and H_j = lc(z) x^j mod M for deg q <= j <=
    deg p: H_(deg q) = lc(z) x^(deg q) - z, and H_j = x H_(j-1) - h M with h
    the top coefficient of H_(j-1), exact in the ring.  Then lc(z) (p mod M)
    = S + lc(p) H_(deg p) with S = sum_(j < deg p) p_j H_j + lc(z) (p mod
    x^(deg q)).  As prem(p, q) = lc(q)^(delta + 1) (p mod M) and lc(z) =
    lc(q)^delta / s^(delta - 1), the quotient is lc(q) (S / lc(p) +
    H_(deg p)) / s: no full-size pseudo-remainder is formed.
    """
    dp, dq = len(p) - 1, len(q) - 1
    q0, qdiv = q[-1], _divisor(q[-1])
    h = [_neg(c) for c in z[:dq]]
    terms = [[(p[dq], hi), (z[-1], pi)] for hi, pi in zip(h, p)]  # S, term lists per degree
    for j in range(dq + 1, dp):
        nh0 = _neg(h[-1])
        h = [_divexact_packed(_dot([(q0, hi), (nh0, qi)]), qdiv, guard) for hi, qi in zip([{}] + h[:-1], q)]
        for t, hi in zip(terms, h):
            t.append((p[j], hi))
    pdiv, sdiv, nh0 = _divisor(p[-1]), _divisor(s), _neg(h[-1])
    out = [
        _divexact_packed(_dot([(q0, _divexact_packed(_dot(t), pdiv, guard)), (q0, hi), (nh0, qi)]), sdiv, guard)
        for t, hi, qi in zip(terms, [{}] + h[:-1], q)
    ]
    while out and not out[-1]:
        out.pop()
    return out


def resultant_poly(pair: SupportPair, bound=DEFAULT_DET_BOUND) -> MPoly:
    """Defining polynomial of the sparse resultant: det of the Sylvester
    matrix of the homogenized forms.

    Normalization is this determinant's sign; when both supports shift into a
    common sublattice the determinant may be a proper power of the
    irreducible equation, so comparisons are up to sign and integer power.
    `bound` caps the Sylvester size n = d1 + d2.

    The forms are f = sum f_b x^(b - min B1), of degree d1 = spread(B1), and
    g likewise, of degree d2; the determinant is Res(f, g).  It comes from
    the subresultant PRS (Collins 1967; Brown 1978; Knuth, TAOCP vol. 2,
    4.6.1), without building the matrix.  Brown's sequence (Cohen, A Course
    in Computational Algebraic Number Theory, Algorithm 3.3.7) starts from
    A, B = f, g, swapped and signed by (-1)^(d1 d2) when d1 < d2, and
    replaces A, B by B, prem(A, B) / (lc(A) h^delta), delta = deg A - deg B,
    with h = 1 at first and then h <- lc(B)^delta / h^(delta - 1) (so h is
    the leading coefficient of the subresultant of degree deg B); each
    replacement multiplies the sign by (-1)^(deg A deg B), and once B is a
    nonzero constant, Res = sign lc(B)^deg A / h^(deg A - 1).  Past the
    first step the sequence is computed as Ducos does (Ducos 2000,
    "Optimizations of the subresultant algorithm"): A is replaced by the
    subresultant z = B (lc(B) / h)^(delta - 1), of leading coefficient h,
    whose remainder quotients are Brown's, and each quotient comes from
    `_next_subresultant`, which never forms a full pseudo-remainder.  Every
    division is exact.

    No remainder is zero: f and g are coprime over the field of the f/g
    variables, as their resultant is nonzero at f = x^d1 - 2, g = x^d2 - 3
    (leading coefficients 1, so it specializes there): a common root a
    would make the even 2^d2 = a^(d1 d2) equal the odd 3^d1.  So the
    sequence ends in a nonzero constant.

    Packing width.  Every coefficient here is homogeneous in the f/g
    variables, and all the coefficients of one polynomial in x share a total
    degree.  Each PRS element and each z is f, g or a subresultant, whose
    coefficients are minors of order n - 2j of the Sylvester matrix, and
    each h is a leading coefficient of one, so all have total degree at most
    n.  So have each H_j and each S / lc(p) of `_next_subresultant` (the
    degree of lc(z)), each partial power x^i / y^(i - 1) of `_lazard` (its
    degree is linear in i, so at most that of x or of the result, a leading
    coefficient of z or the resultant), and the first pseudo-remainder and
    its partial remainders (at most delta + 2 <= n).  Every product is of
    two such coefficients, of degree at most 2n, and an exponent is at most
    the total degree: fields sized for 2n hold every operand and every
    product below the guard bit.
    """
    d1, d2 = pair.b1.spread, pair.b2.spread
    if d1 + d2 > bound:
        raise ValueError("determinant too large")
    vars = _coefficient_vars(pair)
    packing = _Packing(len(vars), 2 * (d1 + d2))
    guard = packing.guard
    shifts = iter(packing.shifts)  # one field per variable, in the order of vars

    def form(support):
        coeffs = [{} for _ in range(support.spread + 1)]
        for b in support:
            coeffs[b - support.min] = {1 << next(shifts): 1}
        return coeffs

    a, b = form(pair.b1), form(pair.b2)
    sign = 1
    if d1 < d2:
        a, b = b, a
        sign = -1 if d1 * d2 % 2 else 1
    da, db = len(a) - 1, len(b) - 1
    if da % 2 and db % 2:
        sign = -sign
    a, b, h = b, _prem(a, b), _pow(b[-1], da - db)
    while len(b) > 1:  # until the remainder is a constant
        da, db = len(a) - 1, len(b) - 1
        if da % 2 and db % 2:
            sign = -sign
        z = b
        if da - db > 1:
            c, hdiv = _lazard(b[-1], h, da - db - 1, guard), _divisor(h)
            z = [_divexact_packed(_dot([(c, cb)]), hdiv, guard) for cb in b]
        a, b, h = z, _next_subresultant(a, b, z, h, guard), z[-1]
    res = _lazard(b[0], h, len(a) - 1, guard)
    if sign < 0:
        res = _neg(res)
    return packing.unpack(vars, res)


def jacobian_vanishes(poly: MPoly, point) -> bool:
    """Do the polynomial and all first partials vanish at the point? Exact:
    with the point X / D, X integral, D^top times the value and D^(top - 1)
    times each partial (top the largest total degree) are sums in ints."""
    if set(point) != set(poly.vars):
        raise ValueError("full assignment required")
    xs, den = clear_denominators([point[v] for v in poly.vars])
    top = max((sum(e) for e in poly.terms), default=0)
    value, grad = 0, [0] * len(xs)
    for e, c in poly.terms.items():
        c = c * den ** (top - sum(e))
        pows = [x**k for x, k in zip(xs, e)]
        value += c * math.prod(pows)
        for i, k in enumerate(e):
            if k:
                rest = math.prod(pows[:i]) * math.prod(pows[i + 1 :])
                grad[i] += c * k * xs[i] ** (k - 1) * rest
    return value == 0 and not any(grad)
