"""The cyclotomic zero-test kernel behind every 3x3 unity-minor question.

A reduction table for zeta_n has shape (n, phi(n)); its row j is zeta_n^j
reduced modulo the n-th cyclotomic polynomial.  A signed integer combination
sum_t c_t zeta_n^(e_t) is therefore zero in Z[zeta_n] iff the same
combination of table rows is the zero vector.  `unity_combos_vanish` asks
that question for a whole array of combinations at once.  `det3_vanish`
phrases the 3x3 power-matrix minors as such arrays, built chunk by chunk,
and `all_minors_vanish_batch` reduces them to the all-minors test.  All are
plain numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .exact import unity_reduction_table

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
def reduction_table_array(n: int) -> np.ndarray:
    """Reduction table for zeta_n as a C-contiguous, read-only int64 array.

    Cached per n, so every caller shares one array.  Cyclotomic coefficient
    growth is mild for desk-scale n, but guard the int64 cast anyway.
    """
    rows = unity_reduction_table(n)
    arr = np.array(rows, dtype=np.int64)
    if arr.size and np.abs(arr).max() > 2**40:
        raise OverflowError(f"reduction table coefficients too large for n={n}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _chunk_length(row_elements):
    """Leading-axis rows per chunk when one row gathers `row_elements`
    table entries: as many as fit in BATCH_ELEMENTS, at least one."""
    return max(1, BATCH_ELEMENTS // max(1, row_elements))


def unity_combos_vanish(table, exps, coefs) -> np.ndarray:
    """Is sum_t coefs[..., t] * zeta_n^exps[..., t] zero in Z[zeta_n]?

    `exps` is an integer array of at least two axes whose last axis runs
    over the terms of one combination (any exponent, reduced mod n here);
    `coefs` broadcasts against it.  Returns a bool array of shape
    exps.shape[:-1].  The leading axis is processed in chunks so that a
    gathered block of table rows holds at most BATCH_ELEMENTS entries.
    """
    n, phi = table.shape
    exps = np.asarray(exps, dtype=np.int64)
    coefs = np.broadcast_to(np.asarray(coefs, dtype=np.int64), exps.shape)
    out = np.empty(exps.shape[:-1], dtype=bool)
    chunk = _chunk_length(phi * int(np.prod(exps.shape[1:])))
    for start in range(0, len(exps), chunk):
        stop = start + chunk
        rows = np.take(table, exps[start:stop] % n, axis=0)
        acc = (coefs[start:stop, ..., None, :] @ rows)[..., 0, :]
        out[start:stop] = ~acc.any(axis=-1)
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


def det3_vanish(table, triples, ps, qs) -> np.ndarray:
    """Does det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] vanish, x = zeta_n^p,
    y = zeta_n^q, for every pair (ps[i], qs[i]) and row (a, b, c) of
    `triples`?  A bool array (pairs, triples).

    The exponents are built and tested in chunks of pairs, so neither a
    chunk's exponent block nor its gathered table rows exceed
    BATCH_ELEMENTS entries.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ps = np.asarray(ps, dtype=np.int64)
    qs = np.asarray(qs, dtype=np.int64)
    out = np.empty((len(ps), len(triples)), dtype=bool)
    chunk = _chunk_length(table.shape[1] * len(triples) * len(DET3_SIGNS))
    for start in range(0, len(ps), chunk):
        stop = start + chunk
        exps = det3_exponents(triples, ps[start:stop], qs[start:stop])
        out[start:stop] = unity_combos_vanish(table, exps, DET3_SIGNS)
    return out


def all_minors_vanish_batch(table, bexps, ps, qs) -> np.ndarray:
    """Do all 3x3 minors of [[1...1], [x^b]_b, [y^b]_b], x = zeta_n^p,
    y = zeta_n^q, b in bexps, vanish?  One answer per pair (ps[i], qs[i]).

    The det3 of every pair and 3-subset of bexps goes to det3_vanish.
    Vacuously true for fewer than three exponents.
    """
    if len(bexps) < 3:
        return np.ones(len(ps), dtype=bool)
    return det3_vanish(table, list(combinations(bexps, 3)), ps, qs).all(axis=1)
