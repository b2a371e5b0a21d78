"""Exact rational helpers for building benchmark inputs and checking outputs.

They are written apart from singres on purpose: the inputs must not change
when the program's own linear algebra changes, and the checks must not share
code with what they check.  Polynomials are coefficient lists, lowest degree
first.
"""

from __future__ import annotations

import math
from fractions import Fraction


def gap_gcd(elems) -> int:
    """gcd of consecutive differences of a sorted exponent list."""
    g = 0
    for a, b in zip(elems, elems[1:]):
        g = math.gcd(g, b - a)
    return g


def falling(b: int, d: int) -> int:
    out = 1
    for t in range(d):
        out *= b - t
    return out


def nullspace(rows, ncols):
    """Basis of {v : rows v = 0} over Q, from the reduced row echelon form."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][col]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][free]
        basis.append(v)
    return basis


def vanishing_rows(support, constraints):
    """Rows f^(d)(x) = 0 for d < j, per (x, j), over the support's monomials."""
    return [
        [falling(b, d) * Fraction(x) ** (b - d) for b in support]
        for x, j in constraints
        for d in range(j)
    ]


def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(p, q):
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    rem = [Fraction(v) for v in p]
    while len(trim(rem)) >= len(q):
        rem = trim(rem)
        shift = len(rem) - len(q)
        c = rem[-1] / q[-1]
        quo[shift] = c
        for i, v in enumerate(q):
            rem[shift + i] -= c * v
    return trim(quo), trim(rem)


def poly_gcd(p, q):
    """Monic gcd over Q; [] for gcd(0, 0)."""
    p, q = trim(p), trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if not p:
        return []
    return [Fraction(v) / p[-1] for v in p]


def root_multiplicity(p, x) -> int:
    p = trim(p)
    mult = 0
    while p:
        quo, rem = poly_divmod(p, [-Fraction(x), Fraction(1)])
        if rem:
            break
        p = quo
        mult += 1
    return mult


def evaluate_terms(vars, terms, values):
    """Value of a polynomial given as [{'exp': [...], 'coef': 'p/q'}, ...]."""
    total = Fraction(0)
    for term in terms:
        mono = Fraction(term["coef"])
        for name, e in zip(vars, term["exp"]):
            if e:
                mono *= Fraction(values[name]) ** e
        total += mono
    return total
