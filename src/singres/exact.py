"""Exact arithmetic substrate.

Dense univariate polynomials over the rationals, and exact rank / kernel
computations over Q.  Scalars are `int` / `fractions.Fraction` throughout;
nothing in this module touches floating point.  Facts in Z[zeta_n] are
decided modulo primes p = 1 mod n (`split_primes`), which split completely
in Q(zeta_n): the phi(n) maps zeta_n -> z^k mod p, k a unit mod n, are the
reductions at the primes above p, so a norm bound turns their values into
exact answers.  Stacks of matrices over F_p, p < 2^31, are ranked in int64
arrays (`modular_rank`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "UniPoly",
    "poly_gcd",
    "exact_rank",
    "split_primes",
    "split_prime",
    "modular_rank",
    "exact_rref",
    "kernel_basis",
]


def _exact_div(a, b):
    """a / b, staying in int when the division is exact."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


class UniPoly:
    """Dense univariate polynomial, coefficients indexed by ascending degree.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    Coefficients may be ints or Fractions; operations that divide promote to
    Fraction as needed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def from_roots(cls, roots):
        p = cls.one()
        for r in roots:
            p = p * cls((-r, 1))
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        return UniPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dl = other.lead
        dd = other.degree
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) > dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) <= dd:
                break
            q = _exact_div(rem[-1], dl)
            pos = len(rem) - 1 - dd
            quo[pos] = q
            for j, c in enumerate(other.coeffs):
                rem[pos + j] -= q * c
            rem.pop()
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero:
            return self
        l = self.lead
        if l == 1:
            return self
        return UniPoly(tuple(Fraction(c) / l for c in self.coeffs))

    def root_multiplicity(self, x):
        """Multiplicity of x as a root (0 when not a root)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        m = 0
        p = self
        lin = UniPoly((-x, 1))
        while True:
            q, r = divmod(p, lin)
            if not r.is_zero:
                return m
            m += 1
            p = q
            if p.is_zero:
                return m

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("undefined gcd")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def clear_denominators(values):
    """The ints and Fractions `values` times the lcm of their denominators,
    as ints (a rank- and root-preserving rescaling)."""
    lcm = 1
    for c in values:
        if isinstance(c, Fraction):
            lcm = math.lcm(lcm, c.denominator)
    if lcm == 1:
        return [int(c) for c in values]
    return [c.numerator * (lcm // c.denominator) for c in values]


def _is_prime(m):
    """Deterministic Miller-Rabin for m < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if m < 2:
        return False
    for a in (2, 3, 5, 7):
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def split_primes(n: int):
    """Yield (p, z) for every prime p < 2^31 with p = 1 mod n, largest
    first, z an element of order exactly n in F_p.

    z is a root of Phi_n mod p, and so is z^k for every unit k mod n: the
    phi(n) maps zeta_n -> z^k are ring maps Z[zeta_n] -> F_p, the reductions
    at the phi(n) primes above p, which splits completely in Q(zeta_n)
    (Cohen, A Course in Computational Algebraic Number Theory).  An element
    that vanishes under all of them lies in pZ[zeta_n].
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for p in range((2**31 - 2) // n * n + 1, n, -n):
        if not _is_prime(p):
            continue
        for a in range(2, p):  # F_p* is cyclic, so some a^((p-1)/n) has order n
            z = pow(a, (p - 1) // n, p)
            if all(pow(z, n // q, p) != 1 for q in factors):
                yield p, z
                break


@lru_cache(maxsize=None)
def split_prime(n: int):
    """The first (p, z) of split_primes(n): a minor that is nonzero under
    zeta_n -> z is nonzero over Z[zeta_n], so the rank of a reduced matrix
    is at most the rank over Q(zeta_n)."""
    return next(split_primes(n))


def modular_rank(stack, primes) -> np.ndarray:
    """Rank of each matrix of an int64 stack (S, rows, cols) over F_p, p =
    primes[s] < 2^31, the entries lying in [0, p): an int array.

    One elimination for the whole stack, column by column, division-free:
    every row not yet used as a pivot becomes piv * row - a * pivrow mod p,
    which scales it by the unit piv and so leaves the rank; no product
    exceeds 2^62.
    """
    a = np.array(stack, dtype=np.int64)
    count, nrows, ncols = a.shape
    primes = np.asarray(primes, dtype=np.int64)[:, None, None]
    idx = np.arange(count)
    free = np.ones((count, nrows), dtype=bool)
    rank = np.zeros(count, dtype=np.int64)
    for col in range(ncols):
        cand = free & (a[:, :, col] != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pivrow = a[idx, piv]
        pval = np.where(has, pivrow[:, col], 1)
        free[idx[has], piv[has]] = False
        coef = np.where(free, a[:, :, col], 0)
        a = (pval[:, None, None] * a - coef[:, :, None] * pivrow[:, None, :]) % primes
        rank += has
    return rank


def exact_rref(matrix):
    """Reduced row echelon form over Q (ints and Fractions).

    Returns (rank, pivot_columns, rref_rows); the input is not modified.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pval = rows[r][col]
        inv = Fraction(1) / Fraction(pval)
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


def exact_rank(matrix) -> int:
    """Rank over Q: the number of pivots of `exact_rref`."""
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty")
    return exact_rref(matrix)[0]


def kernel_basis(matrix):
    """Basis of the right kernel {v : M v = 0} over Q.

    Basis vectors use 1/0/(-pivot entries).
    """
    rows = [list(r) for r in matrix]
    if not rows:
        raise ValueError("matrix must be nonempty")
    ncols = len(rows[0])
    rank, pivots, rref = exact_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -rref[ri][fc]
        basis.append(v)
    return basis
