"""Exact arithmetic substrate.

An integer-primitive univariate core, and exact rank / kernel computations
over Q.  A polynomial over Q enters the univariate core as its primitive
part in Z[x] (content and primitive part, pseudo-remainders, the primitive
PRS gcd, exact division), a tuple of ints ascending in degree, and stays in
integers throughout; there is no polynomial class.  The matrices are over
Q, in ints and `fractions.Fraction`s.
Nothing in this module touches floating point.  Facts in Z[zeta_n] are
decided modulo primes p = 1 mod n (`split_primes`), which split completely
in Q(zeta_n): the phi(n) maps zeta_n -> z^k mod p, k a unit mod n, are the
reductions at the primes above p, so a norm bound turns their values into
exact answers.  Every element of a given order in F_p^* comes from one
search (`root_of_order`) and every table of its powers from one cached
constructor (`power_table`).  Stacks of matrices over F_p, p < 2^31, are
ranked in int64 arrays (`modular_rank`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "primitive",
    "prs_gcd",
    "exact_quo",
    "root_multiplicity",
    "is_prime",
    "split_primes",
    "split_prime",
    "units",
    "root_of_order",
    "power_table",
    "modular_rank",
    "modular_kernel_vector",
    "exact_rref",
    "kernel_basis",
]


def clear_denominators(values):
    """(ints, D): the ints and Fractions `values` times D, the lcm of their
    denominators (a rank- and root-preserving rescaling).  Any other value
    raises TypeError: a float is not an exact rational, and truncating it
    would move roots.  An integer type such as numpy's passes, as an int."""
    ints, lcm = list(values), 1
    for i, c in enumerate(ints):
        if isinstance(c, Fraction):
            lcm = math.lcm(lcm, c.denominator)
        else:
            ints[i] = operator.index(c)
    return [c.numerator * (lcm // c.denominator) for c in ints], lcm


# The univariate core works in Z[x] on coefficient sequences, ascending in
# degree, with no trailing zero.  A polynomial over Q enters as its
# primitive part, which has the same roots with the same multiplicities; by
# Gauss's lemma a primitive divisor over Q of an integer polynomial divides
# it over Z, so every division below is exact over Z (Knuth, TAOCP vol. 2,
# 4.6.1).


def primitive(values):
    """The primitive part of a nonzero polynomial with int / Fraction
    coefficients: integer coefficients with gcd 1 and a positive leading
    one, as a tuple."""
    ints = clear_denominators(values)[0]
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        raise ValueError("zero polynomial has no primitive part")
    return _primitive(ints)


def _primitive(a):
    """The primitive part of a nonzero integer polynomial."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(a) if g == 1 else tuple(c // g for c in a)


def derivative(a):
    """The derivative of the coefficient sequence a."""
    return tuple(i * c for i, c in enumerate(a))[1:]


def _pseudo_rem(a, b):
    """A multiple lc(b)^k * (a mod b) with k >= 0, in Z[x]: the remainder
    of a after scaling it by lc(b) before each elimination step."""
    r = list(a)
    n, lb = len(b) - 1, b[-1]
    while len(r) > n:
        c = r.pop()
        if c:
            shift = len(r) - n
            r = [lb * x for x in r]
            for j in range(n):
                r[shift + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def prs_gcd(a, b):
    """gcd in Z[x] of two nonzero integer polynomials by the primitive PRS:
    primitive, with a positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def exact_quo(a, b):
    """a / b in Z[x] for integer polynomials where b divides a over Z."""
    r = list(a)
    n, lb = len(b) - 1, b[-1]
    quo = [0] * (len(r) - n)
    for pos in range(len(quo) - 1, -1, -1):
        q, m = divmod(r[pos + n], lb)
        if m:
            raise ArithmeticError("inexact polynomial division")
        quo[pos] = q
        if q:
            for j in range(n):
                r[pos + j] -= q * b[j]
    if any(r[:n]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def root_multiplicity(a, x) -> int:
    """Multiplicity of the rational x as a root of the nonzero integer
    polynomial a (0 when not a root).  With x = u/d in lowest terms, d*x - u
    is primitive, so it divides a over Q iff `exact_quo`, a synthetic
    division whose every step divides by d, divides it out over Z."""
    if not a:
        raise ValueError("zero polynomial")
    x = Fraction(x)
    lin, m = (-x.numerator, x.denominator), 0
    try:
        while True:
            a, m = exact_quo(a, lin), m + 1
    except ArithmeticError:
        return m


def is_prime(m):
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
    first, z = root_of_order(n, p).

    z is a root of Phi_n mod p, and so is z^k for every unit k mod n: the
    phi(n) maps zeta_n -> z^k are ring maps Z[zeta_n] -> F_p, the reductions
    at the phi(n) primes above p, which splits completely in Q(zeta_n)
    (Cohen, A Course in Computational Algebraic Number Theory).  An element
    that vanishes under all of them lies in pZ[zeta_n].
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    for p in range((2**31 - 2) // n * n + 1, n, -n):
        if is_prime(p):
            yield p, root_of_order(n, p)


@lru_cache(maxsize=None)
def units(n: int) -> np.ndarray:
    """The units k mod n, 0 <= k < n, ascending (k = 0 alone for n = 1), as
    a read-only array cached per n."""
    ks = (np.gcd(np.arange(n), n) == 1).nonzero()[0]
    ks.setflags(write=False)
    return ks


@lru_cache(maxsize=None)
def root_of_order(n: int, p: int) -> int:
    """An element of order exactly n in F_p^*, p prime, n | p - 1:
    a^((p - 1)/n) for the least a >= 1 that has that order (a = 1 only for
    n = 1).  F_p^* is cyclic, so some a works; for n = p - 1 it is the least
    generator of F_p^*."""
    if (p - 1) % n:
        raise ValueError(f"{n} does not divide {p} - 1")
    factors = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for a in range(1, p):
        z = pow(a, (p - 1) // n, p)
        if all(pow(z, n // q, p) != 1 for q in factors):
            return z


@lru_cache(maxsize=None)
def power_table(z: int, n: int, p: int) -> np.ndarray:
    """powers[k] = z^k mod p for k < n, as a read-only int64 array, cached
    per (z, n, p).  With z of order n, x^e for x = z^i is powers[i * e mod
    n], for every integer e."""
    powers = np.empty(n, dtype=np.int64)
    x = 1
    for k in range(n):
        powers[k] = x
        x = x * z % p
    powers.setflags(write=False)
    return powers


@lru_cache(maxsize=None)
def split_prime(n: int):
    """The first (p, z) of split_primes(n): a minor that is nonzero under
    zeta_n -> z is nonzero over Z[zeta_n], so the rank of a reduced matrix
    is at most the rank over Q(zeta_n)."""
    return next(split_primes(n))


def _modular_echelon(stack, primes):
    """(a, pivots): an echelon form over F_p, p = primes[s] < 2^31, of each
    matrix of an int64 stack (S, rows, cols) with entries in [0, p), and
    pivots[s, col], the row of a[s] whose pivot lies in column col, or -1.

    One elimination for the whole stack, column by column, division-free:
    every row not yet used as a pivot becomes piv * row - a * pivrow mod p,
    which scales it by the unit piv and so leaves the row space; no product
    exceeds 2^62.  A pivot row is zero left of its pivot column, and the
    rows that never pivot end zero.
    """
    a = np.array(stack, dtype=np.int64)
    count, nrows, ncols = a.shape
    primes = np.asarray(primes, dtype=np.int64)[:, None, None]
    idx = np.arange(count)
    free = np.ones((count, nrows), dtype=bool)
    pivots = np.full((count, ncols), -1, dtype=np.int64)
    for col in range(ncols):
        cand = free & (a[:, :, col] != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pivrow = a[idx, piv]
        pval = np.where(has, pivrow[:, col], 1)
        free[idx[has], piv[has]] = False
        pivots[has, col] = piv[has]
        coef = np.where(free, a[:, :, col], 0)
        a = (pval[:, None, None] * a - coef[:, :, None] * pivrow[:, None, :]) % primes
    return a, pivots


def modular_rank(stack, primes) -> np.ndarray:
    """Rank of each matrix of an int64 stack (S, rows, cols) over F_p, p =
    primes[s] < 2^31, the entries lying in [0, p): an int array, the pivot
    count of `_modular_echelon`."""
    return (_modular_echelon(stack, primes)[1] >= 0).sum(axis=1)


def modular_kernel_vector(stack, primes, weights):
    """(rank, v): the rank over F_p of each matrix of an int64 stack (S,
    rows, cols), as `modular_rank` gives it, and a vector v[s] of its
    kernel, from one elimination (`_modular_echelon`).

    Its free coordinates (the columns without a pivot) are weights[s] mod
    p, times a unit, so v[s] is nonzero when the kernel is and those weights
    are not all 0 mod p.  Each pivot coordinate is solved from its row, last
    pivot first, without a division: for a pivot row with value piv at
    column c and sum s over its other columns, v becomes piv * v and then
    v_c = -s, which keeps every row solved so far (a unit multiple of a
    solution is one).
    """
    a, pivots = _modular_echelon(stack, primes)
    primes = np.asarray(primes, dtype=np.int64)[:, None]
    idx = np.arange(len(a))
    v = np.where(pivots < 0, np.asarray(weights, dtype=np.int64) % primes, 0)
    for col in range(a.shape[2] - 1, -1, -1):
        has = pivots[:, col] >= 0
        row = a[idx, np.maximum(pivots[:, col], 0)]
        dot = (row * v % primes).sum(axis=1) % primes[:, 0]
        v = np.where(has[:, None], row[:, col : col + 1] * v % primes, v)
        v[has, col] = -dot[has] % primes[has, 0]
    return (pivots >= 0).sum(axis=1), v


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
