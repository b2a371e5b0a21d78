"""The float sampler of the minor-curve components: the independent oracle
for the mod-p certificate of `singres.strata._minor_certificates`.

A sample is a float tuple (c, c t, c u) on the curve of an exponent triple,
u a root of the curve's polynomial at a random t (`np.roots`), with the
orbit and curve tangents; `span_dimensions` evaluates a stack of samples
at once (one stacked SVD per side and per final matrix shape, ranked by one
threshold, `svd_rank`), and a component's float dimension is the majority
`vote` of its VOTE_SAMPLES samples.  The tests compare the certified
dimensions with these votes.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from singres.laurent import falling
from singres.strata import _effective_elements

SVD_RTOL = 1e-7
VOTE_SAMPLES = 5
# Largest exponent spread of a triple whose minor `np.roots` solves; a wider
# triple gets no sample.
ROOTS_SPREAD_MAX = 60
# Largest row exponent that a float holds exactly.  Past it x^e rounds its
# exponent, so a sample row carries no information even where it is finite.
FLOAT_EXACT_EXPONENT = 2**53


def svd_rank(sv):
    """Numeric rank of each matrix of a stack from its singular values
    (shape (..., q), each row descending): the number above SVD_RTOL times
    the largest."""
    return np.sum(sv > SVD_RTOL * sv[..., :1], axis=-1)


def random_unit_annulus(rng):
    rho = rng.uniform(-0.6, 0.6)
    theta = rng.uniform(0, 2 * np.pi)
    return complex(np.exp(rho) * np.cos(theta), np.exp(rho) * np.sin(theta))


def draw_minor_tuple(triple, rng):
    """A float point tuple (c, c t, c u) on the minor curve of the exponent
    triple, where det[[1,1,1],[t^a,t^b,t^c],[u^a,u^b,u^c]] vanishes.

    Returns (points, tangent_directions), each direction a length-3 vector
    spanning the curve's tangent at the sample, or None when no tuple is
    found (among others, for a triple that spreads wider than
    ROOTS_SPREAD_MAX, and for (a, a+1, a+2): its det t^a u^a (t-1)(u-1)(u-t)
    has no root off {0, 1, t}, so its twelve t are drawn and no root solved).
    """
    a_, b_, c_ = triple
    if c_ - a_ > ROOTS_SPREAD_MAX:
        return None
    for _ in range(12):
        t = random_unit_annulus(rng)
        if c_ - a_ == 2:
            continue
        coeffs = minor_poly_in_u(a_, b_, c_, t)
        if coeffs is None:
            continue
        roots = np.roots(coeffs)
        good = [
            u
            for u in roots
            if abs(u) > 1e-9 and abs(u - 1) > 1e-9 and abs(u - t) > 1e-9
        ]
        if not good:
            continue
        u = complex(good[0])
        c = random_unit_annulus(rng)
        pts = [c, c * t, c * u]
        dpdt = minor_du_dt(a_, b_, c_, t, u)
        if dpdt is None:
            dirs = [[1, t, u]]
        else:
            dirs = [[1, t, u], [0, c, c * dpdt]]
        return pts, dirs
    return None


def minor_poly_in_u(a, b, c, t):
    """Coefficients (descending) of det[[1,1,1],[t^a,t^b,t^c],[u^a,u^b,u^c]]
    as a polynomial in u, exponents shifted to be non-negative."""
    lo = min(a, b, c)
    a, b, c = a - lo, b - lo, c - lo
    deg = max(a, b, c)
    coeffs = [0j] * (deg + 1)
    # det = (t^b - t^c) u^a + (t^c - t^a) u^b + (t^a - t^b) u^c
    coeffs[deg - a] += t**b - t**c
    coeffs[deg - b] += t**c - t**a
    coeffs[deg - c] += t**a - t**b
    if all(abs(x) < 1e-14 for x in coeffs):
        return None
    return coeffs


def minor_du_dt(a, b, c, t, u):
    """Implicit derivative du/dt on the minor curve, None at critical points."""
    dd_dt = (
        (b * t ** (b - 1) - c * t ** (c - 1)) * u**a
        + (c * t ** (c - 1) - a * t ** (a - 1)) * u**b
        + (a * t ** (a - 1) - b * t ** (b - 1)) * u**c
    )
    dd_du = (
        (t**b - t**c) * a * u ** (a - 1)
        + (t**c - t**a) * b * u ** (b - 1)
        + (t**a - t**b) * c * u ** (c - 1)
    )
    if abs(dd_du) < 1e-12:
        return None
    return -dd_dt / dd_du


@lru_cache(maxsize=None)
def vandermonde_tables(eff, js):
    """Row layout of the multiplicity Vandermonde of the exponents `eff` at
    len(js) points with orders js, as read-only arrays: the point of each
    row, falling(e, d) and e - d for its entries, and falling(e, d + 1) and
    e - d - 1 for the entries of its derivative in that point."""
    rows = [(m, d) for m, j in enumerate(js) for d in range(j)]
    derivs = np.array([d for _, d in rows])[:, None]
    tables = (
        np.array([m for m, _ in rows]),
        np.array([[falling(e, d) for e in eff] for _, d in rows], dtype=float),
        np.array(eff) - derivs,
        np.array([[falling(e, d + 1) for e in eff] for _, d in rows], dtype=float),
        np.array(eff) - derivs - 1,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def span_dimensions(pair, label, pts, dirs):
    """Span dimension of the locus parameterization's differential at each
    tuple of a stack, or None where a side kernel is empty or a tangent
    solve is inconsistent.

    `pts` is an (S, k) complex array of solution tuples (k >= 1) and
    dirs[s] a sequence of length-k tangent directions of the locus at tuple
    s.  Each side's multiplicity Vandermonde is built for the whole stack.
    A tuple whose rows, or their derivatives, are not finite (x^e past the
    float range) is a failed sample, None, before any SVD; so is every tuple
    when a row exponent e - d or e - d - 1 exceeds FLOAT_EXACT_EXPONENT in
    modulus (x^e past the float precision).  Every row, and
    the same row of the tangent right-hand side, is divided by the row's
    largest modulus: a nonsingular diagonal left factor, so every kernel
    and every consistent solve is unchanged, while a row of large points no
    longer dwarfs the others below the rank threshold (van der Sluis;
    Higham, Accuracy and Stability of Numerical Algorithms, 7.3).  The
    scaled matrix is factored by one stacked SVD: the right singular
    vectors past the thresholded rank span the side's kernel, and the same
    factors give the minimum-norm tangent solves (what lstsq returns, with
    its default cutoff), whose residual is tested on the scaled rows.  The
    kernel combinations f1, f2 are drawn per tuple from a generator seeded
    by the tuple's hash.  The final ranks, of the row-normalized kernel and
    tangent rows, take one stacked SVD per matrix shape.
    """
    count = len(pts)
    dims = [None] * count
    effs = [_effective_elements(b, label.j0, label.jinf) for b in (pair.b1, pair.b2)]
    if not count or not all(effs):
        return dims
    tables = [vandermonde_tables(eff, label.side_orders(side)) for side, eff in enumerate(effs, 1)]
    if any(np.abs(t[i]).max() > FLOAT_EXACT_EXPONENT for t in tables for i in (2, 4)):
        return dims
    ndirs = np.array([len(d) for d in dirs])
    tangents = np.zeros((count, ndirs.max(), label.k), dtype=complex)
    for s, d in enumerate(dirs):
        tangents[s, : len(d)] = d
    live = np.ones(count, dtype=bool)
    sides, kdims = [], []
    for eff, (point, fall, exps, dfall, dexps) in zip(effs, tables):
        with np.errstate(over="ignore", invalid="ignore"):
            mat = fall * pts[:, point, None] ** exps
            dmat = dfall * pts[:, point, None] ** dexps
        finite = np.isfinite(mat).all(axis=(1, 2)) & np.isfinite(dmat).all(axis=(1, 2))
        live &= finite
        mat[~finite] = dmat[~finite] = 0
        scale = np.abs(mat).max(axis=2, keepdims=True)
        scale[scale == 0] = 1.0
        mat /= scale
        dmat /= scale
        u, sv, vh = np.linalg.svd(mat)
        kdim = len(eff) - svd_rank(sv)
        live &= kdim > 0
        sides.append((point, mat, dmat, u, sv, vh))
        kdims.append(kdim)
    weights = [np.zeros((count, len(eff)), dtype=complex) for eff in effs]
    for s in np.flatnonzero(live):
        rng = np.random.default_rng(abs(hash(tuple(map(complex, pts[s])))) % (2**32))
        for w, kdim in zip(weights, kdims):
            kd = kdim[s]
            w[s, w.shape[1] - kd :] = rng.normal(size=kd) + 1j * rng.normal(size=kd)
    kernels, solutions = [], []
    while sides:  # consumed side by side, so each side's factors are freed once solved
        point, mat, dmat, u, sv, vh = sides.pop(0)
        kernels.append(vh.conj())
        f = (weights.pop(0)[:, None, :] @ kernels[-1])[:, 0, :]
        # rhs[s, :, i] = -(derivative of the matrix along tangent i) @ f
        rhs = -(dmat @ f[:, :, None]) * tangents[:, :, point].swapaxes(1, 2)
        q = sv.shape[1]
        cut = np.finfo(float).eps * max(mat.shape[1:]) * sv[:, :1]
        inv = np.divide(1, sv, out=np.zeros_like(sv), where=sv > cut)
        sol = kernels[-1][:, :q].swapaxes(1, 2) @ (inv[:, :, None] * (u[:, :, :q].conj().swapaxes(1, 2) @ rhs))
        resid = np.linalg.norm(mat @ sol - rhs, axis=1)
        live &= ~np.any(resid > 1e-6 * np.maximum(1, np.linalg.norm(rhs, axis=1)), axis=1)
        solutions.append(sol.swapaxes(1, 2))
    n1 = len(pair.b1.elements)
    cols = (
        [pair.b1.elements.index(e) for e in effs[0]],
        [n1 + pair.b2.elements.index(e) for e in effs[1]],
    )
    kernels1, kernels2 = kernels
    shapes = np.stack([*kdims, ndirs], axis=1)
    for k1, k2, nd in {tuple(row) for row in shapes[live].tolist()}:
        idx = np.flatnonzero(live & (shapes == (k1, k2, nd)).all(axis=1))
        rows = np.zeros((len(idx), k1 + k2 + nd, n1 + len(pair.b2.elements)), dtype=complex)
        rows[:, :k1, cols[0]] = kernels1[idx, len(cols[0]) - k1 :]
        rows[:, k1 : k1 + k2, cols[1]] = kernels2[idx, len(cols[1]) - k2 :]
        rows[:, k1 + k2 :, cols[0]] = solutions[0][idx, :nd]
        rows[:, k1 + k2 :, cols[1]] = solutions[1][idx, :nd]
        norms = np.linalg.norm(rows, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        rows /= norms
        sv = np.linalg.svd(rows, compute_uv=False)
        for i, rank in zip(idx.tolist(), svd_rank(sv).tolist()):
            dims[i] = rank
    return dims


def vote(dims):
    """Majority of the non-None sample dimensions, ties broken to the
    smallest; None when every sample failed."""
    votes = Counter(d for d in dims if d is not None).most_common()
    if not votes:
        return None
    return min(d for d, cnt in votes if cnt == votes[0][1])
