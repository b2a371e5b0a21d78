"""The cyclotomic zero-test kernel: the independent side of the unity check.

An evaluation table for zeta_n has shape (n, phi(n)); its row j holds the
images of zeta_n^j under the phi(n) maps zeta_n -> z^k mod p of a split
prime (p, z) = `split_prime(n)`.  A signed integer combination
sum_t c_t zeta_n^(e_t) with sum |c_t| < p is therefore zero in Z[zeta_n]
iff the same combination of table rows is 0 mod p.  `unity_combos_vanish`
asks that question for a whole array of combinations at once, in plain
numpy, and `det3_exponents` phrases the 3x3 power-matrix minors as such an
array, to be weighted by `DET3_SIGNS`.  Whether all minors of a power
matrix, or one, vanish needs no table: the closed-form rank `minors._rank`
answers it, and the unity-minor check compares the two.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .exact import power_table, split_prime

# Upper bound on the int64 entries of one gathered block of table rows in
# unity_combos_vanish: the leading axis is processed in chunks below it.
BATCH_ELEMENTS = 1 << 15

# det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] with x = z^p, y = z^q is
# z^(pb+qc) - z^(pc+qb) - z^(pa+qc) + z^(pc+qa) + z^(pa+qb) - z^(pb+qa):
# term t is DET3_SIGNS[t] * z^(p * triple[_DET3_X[t]] + q * triple[_DET3_Y[t]]).
_DET3_X = (1, 2, 0, 2, 0, 1)
_DET3_Y = (2, 1, 2, 0, 1, 0)
DET3_SIGNS = (1, -1, -1, 1, 1, -1)


@lru_cache(maxsize=None)
def evaluation_table(n: int) -> np.ndarray:
    """Evaluation table for zeta_n as a C-contiguous, read-only int64 array
    (n, phi(n)): row j, column i is z^(k_i * j) mod p, (p, z) =
    split_prime(n), k_i the i-th unit mod n: z has order n, so the entry is
    `power_table(z, n, p)` at k_i * j mod n.  Cached per n, so every caller
    shares one array."""
    p, z = split_prime(n)
    units = [k for k in range(n) if gcd(k, n) == 1]
    arr = power_table(z, n, p)[np.outer(np.arange(n), units) % n]
    arr.setflags(write=False)
    return arr


def _chunk_length(row_elements):
    """Leading-axis rows per chunk when one row gathers `row_elements`
    table entries: as many as fit in BATCH_ELEMENTS, at least one."""
    return max(1, BATCH_ELEMENTS // max(1, row_elements))


def unity_combos_vanish(table, exps, coefs) -> np.ndarray:
    """Is alpha = sum_t coefs[..., t] * zeta_n^exps[..., t] zero in Z[zeta_n]?

    `table` is evaluation_table(n).  `exps` is an integer array of at least
    two axes whose last axis runs over the terms of one combination (any
    exponent, reduced mod n here); `coefs` broadcasts against it.  Returns
    a bool array of shape exps.shape[:-1].  The leading axis is processed in
    chunks so that a gathered block of table rows holds at most
    BATCH_ELEMENTS entries.

    Claim.  With p the table's prime and sum_t |coefs[..., t]| < p, alpha
    is zero iff every column of coefs @ rows is 0 mod p.

    Proof.  Column i is alpha's image under zeta_n -> z^(k_i) in F_p, so a
    zero alpha gives zero columns.  Conversely, the phi(n) maps are the
    reductions at the phi(n) distinct primes P_i above p; p = 1 mod n is
    unramified, so pZ[zeta_n] is their product and also their intersection.
    Zero columns put alpha in every P_i, hence alpha = p * beta with beta
    in Z[zeta_n].  If alpha were nonzero, its norm p^phi(n) N(beta) would
    be at least p^phi(n) in absolute value, so some embedding would give
    |sigma(alpha)| >= p; but |sigma(alpha)| <= sum_t |coefs[..., t]| < p,
    since every sigma(zeta_n^e) has modulus 1.  So alpha = 0.

    A combination with sum |coefs| >= p raises ValueError.  Below that
    bound |coefs @ rows| < p^2 < 2^62, so the int64 products are exact.
    """
    n, phi = table.shape
    p, _ = split_prime(n)
    exps = np.asarray(exps, dtype=np.int64)
    coefs = np.atleast_1d(np.asarray(coefs, dtype=np.int64))
    # a term axis of length 1 broadcasts its coefficient to every term
    norm = int(np.abs(coefs).sum(axis=-1).max(initial=0)) * (exps.shape[-1] // max(1, coefs.shape[-1]))
    if norm >= p:
        raise ValueError(f"combination with sum |coefs| = {norm} >= p = {p}: no exact zero test")
    coefs = np.broadcast_to(coefs, exps.shape)
    out = np.empty(exps.shape[:-1], dtype=bool)
    chunk = _chunk_length(phi * int(np.prod(exps.shape[1:])))
    for start in range(0, len(exps), chunk):
        stop = start + chunk
        rows = np.take(table, exps[start:stop] % n, axis=0)
        acc = (coefs[start:stop, ..., None, :] @ rows)[..., 0, :]
        out[start:stop] = ~(acc % p).any(axis=-1)
    return out


def det3_exponents(triples, ps, qs) -> np.ndarray:
    """Exponents of the six det3 terms for every pair (ps[i], qs[i]) and
    every row (a, b, c) of `triples`: an int array (pairs, triples, 6),
    to be weighted by DET3_SIGNS."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    p = np.asarray(ps, dtype=np.int64)[:, None, None]
    q = np.asarray(qs, dtype=np.int64)[:, None, None]
    exps = p * np.ascontiguousarray(triples[:, _DET3_X])
    exps += q * np.ascontiguousarray(triples[:, _DET3_Y])
    return exps
