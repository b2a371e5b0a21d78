"""Backend selection for the minor-scan kernels.

Prefers the compiled extension `singres._kernels`; falls back to the
pure-Python/numpy twin `singres._kernels_py` when the extension was not
built.  Both expose the same per-call functions over the same
reduction-table convention, and the test suite asserts they agree.

`all_minors_vanish_batch` answers the all-minors question for many (p, q)
pairs at once; it is plain numpy and runs the same whatever the backend.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .exact import unity_reduction_table

try:  # pragma: no cover - depends on whether the extension was built
    from . import _kernels as _impl

    COMPILED = True
except ImportError:  # pragma: no cover
    from . import _kernels_py as _impl

    COMPILED = False

BACKEND = _impl.BACKEND


def backend_name() -> str:
    return BACKEND


# Upper bound on the int64 entries of the gathered (pairs, 6, triples, phi(n))
# block in all_minors_vanish_batch: pairs are processed in chunks below it.
BATCH_ELEMENTS = 1 << 15


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


def unity_combo_is_zero(table, exps, coefs) -> bool:
    return bool(_impl.unity_combo_is_zero(table, list(exps), list(coefs)))


def det3_unity_is_zero(table, a, b, c, p, q) -> bool:
    return bool(_impl.det3_unity_is_zero(table, a, b, c, p, q))


def all_minors_vanish_kernel(table, bexps, p, q) -> bool:
    b = np.ascontiguousarray(np.asarray(bexps, dtype=np.int64))
    return bool(_impl.all_minors_vanish(table, b, p, q))


def all_minors_vanish_batch(table, bexps, ps, qs) -> np.ndarray:
    """all_minors_vanish_kernel(table, bexps, p, q) for every pair (ps[i], qs[i]).

    One gather of the reduction-table rows of the six det3 terms, for every
    pair and every 3-subset of bexps, then the signed six-term sum and a
    zero test over the minors and phi(n) axes.  Pairs are processed in
    chunks so that a gathered block holds at most BATCH_ELEMENTS entries.
    Returns a bool array; vacuously true for fewer than three exponents.
    """
    n, phi = table.shape
    ps = np.asarray(ps, dtype=np.int64)
    qs = np.asarray(qs, dtype=np.int64)
    out = np.ones(len(ps), dtype=bool)
    if len(bexps) < 3:
        return out
    a, b, c = np.array(list(combinations(bexps, 3)), dtype=np.int64).T
    # det3 = z^(pb+qc) - z^(pc+qb) - z^(pa+qc) + z^(pc+qa) + z^(pa+qb) - z^(pb+qa)
    u = np.stack([b, c, a, c, a, b])
    v = np.stack([c, b, c, a, b, a])
    chunk = max(1, BATCH_ELEMENTS // (u.size * phi))
    for start in range(0, len(ps), chunk):
        p = ps[start : start + chunk, None, None]
        q = qs[start : start + chunk, None, None]
        rows = table[(p * u + q * v) % n]
        acc = rows[:, 0] - rows[:, 1] - rows[:, 2] + rows[:, 3] + rows[:, 4] - rows[:, 5]
        out[start : start + chunk] = ~acc.any(axis=(1, 2))
    return out


def get_backends():
    """(name, module) pairs of every available backend, for benchmarks/tests."""
    from . import _kernels_py

    out = [("python", _kernels_py)]
    if COMPILED:
        out.append(("compiled", _impl))
    return out
