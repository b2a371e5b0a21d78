"""The cyclotomic zero test of the unity check.

`conjugate_zeros` decides which of an array of signed sums of powers of
zeta_n are zero, evaluating each sum once modulo a split prime: the rows
of a sweep closed under the units mod n hold every Galois conjugate.  The
closed-form rank `minors._rank` needs no such test, and the unity-minor
check compares the two.
"""

from __future__ import annotations

import numpy as np

from .exact import power_table, split_prime, units


def conjugate_zeros(n: int, exps, coefs, conj) -> np.ndarray:
    """Is alpha_r = sum_t coefs[..., t] * zeta_n^exps[r, ..., t] zero in
    Z[zeta_n], for every row r?  A bool array of shape exps.shape[:-1].

    `exps` is an integer array, rows first and the terms of one sum last
    (any exponent, reduced mod n here); `coefs` broadcasts against it, a
    term axis of length 1 to every term.  conj[r, i] is the row whose sum is
    +-sigma_k(alpha_r), sigma_k: zeta_n -> zeta_n^k, k = units(n)[i].

    Claim.  With (p, z) = split_prime(n) and sum_t |coefs[..., t]| < p,
    alpha_r is zero iff the sum of every row conj[r, i] is 0 mod p under
    zeta_n -> z.

    Proof.  That value is +- the image of alpha_r under zeta_n -> z^k, so a
    zero alpha_r gives zero values.  Conversely, the phi(n) maps
    zeta_n -> z^k are the reductions at the phi(n) distinct primes P_i above
    p; p = 1 mod n is unramified, so pZ[zeta_n] is their product and also
    their intersection.  Zero values put alpha_r in every P_i, hence
    alpha_r = p * beta with beta in Z[zeta_n].  If alpha_r were nonzero,
    its norm p^phi(n) N(beta) would be at least p^phi(n) in absolute value,
    so some embedding would give |sigma(alpha_r)| >= p; but
    |sigma(alpha_r)| <= sum_t |coefs[..., t]| < p, since every
    sigma(zeta_n^e) has modulus 1.  So alpha_r = 0.

    The unity sweeps of `verify` are closed.  sigma_k takes the power minor
    det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] at x = zeta_n^u, y = zeta_n^v,
    1 <= u < v < n, to the minor at ku, kv mod n, again two distinct
    nonzero residues; in ascending order they name an admissible pair, and
    the swap of x and y only negates the minor.  It takes the exponent-row
    minor at x = zeta_n^u, 0 <= u < n, to the one at ku mod n.

    A sum with sum |coefs| >= p raises ValueError, and so does an index that
    is not phi(n) rows of the sweep per row: a row set that is not closed
    misses some image.  Below that bound |sum_t coefs * z^e| < p^2 < 2^62,
    so the int64 sums are exact.
    """
    p, z = split_prime(n)
    exps = np.asarray(exps, dtype=np.int64)
    coefs = np.asarray(coefs, dtype=np.int64)
    conj = np.asarray(conj, dtype=np.int64)
    norm = int(np.abs(coefs).sum(axis=-1).max(initial=0)) * (exps.shape[-1] // coefs.shape[-1])
    if norm >= p:
        raise ValueError(f"combination with sum |coefs| = {norm} >= p = {p}: no exact zero test")
    if conj.shape != (len(exps), len(units(n))) or not ((conj >= 0) & (conj < len(exps))).all():
        raise ValueError(f"conjugate-row index of shape {conj.shape} does not close {len(exps)} rows under the units mod {n}")
    value = (coefs * power_table(z, n, p)[exps % n]).sum(axis=-1) % p
    return ~value.astype(bool)[conj].any(axis=1)
