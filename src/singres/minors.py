"""Exact root-of-unity analysis of the 3-row power matrices.

The central object is M(B; x, y) with rows (1...1), (x^b)_b, (y^b)_b for
roots of unity x = zeta_n^p, y = zeta_n^q.  Its rank has a closed form in
integer congruences (`_rank`, from a residue count and `gap_root`), which
`singres.strata` reads at every tuple of its scan table when it builds the
corank classes of a pair of side signatures: all 3x3 minors
vanish iff one of p*g, q*g, (p - q)*g is 0 mod n, g the gap gcd of B, or
the columns (p*b mod n, q*b mod n) take at most two values over B.  That is
not the same as a two-residue-class split of B: an order-2 root with x^g,
y^g or (x/y)^g = 1 kills every minor without a split.  The scan below
checks the two against each other exhaustively, in one array pass over
every support and every admissible pair of every modulus: both sides read
one table of residue counts |B mod k| (`supports.class_counts`, one call
per support), and the
splits it uses are backed by one verified certificate per (B, k) from the
one split search of `singres.supports`.  A single minor is the rank at
|B| = 3, so `_rank` is also what the verification sweeps compare with the
Galois-conjugate zero test `kernels.conjugate_zeros`.

Negative and arbitrarily large exponents are harmless: residue counts are
taken in Python ints (`supports.class_counts`), and the rank multiplies no
two residues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .supports import SupportSet, class_counts, gap_gcd, split_dividing

__all__ = [
    "gap_root",
    "two_class_split",
    "minors_split_equivalence_scan",
    "ScanReport",
]


@lru_cache(maxsize=None)
def admissible_pairs(n: int):
    """Every admissible (p, q) at modulus n up to swapping, 1 <= p < q < n,
    as two read-only int arrays in p-major order, built once per n."""
    ps, qs = np.triu_indices(n - 1, k=1)
    ps, qs = ps + 1, qs + 1
    ps.setflags(write=False)
    qs.setflags(write=False)
    return ps, qs


def _rank(keys, root):
    """The rank of M(B; x, y), x = zeta_n^p, y = zeta_n^q, from its two
    tests: `keys`, the number |B mod m| of distinct column keys, m the
    period below, and `root`, the gap test `gap_root`.  Rank 1 for one key;
    else 2 for two keys or a gap root, else 3.  Elementwise, broadcasting;
    int8 inputs give an int8 rank.  `strata._side_coranks` ranks a side at
    every tuple of the scan table in one call on arrays.  The same call
    ranks the rows 1, e, w^e over B (lemma (2, 1) rows), with keys = |B|
    and root = [ord w | g].

    Lemma (rank).  Call (p*b mod n, q*b mod n) the key of the column b.
    The rank is 1 iff the key is constant over B, and at most 2 iff
    p*g = 0, q*g = 0 or (p - q)*g = 0 mod n, g the gap gcd of B, or the key
    takes at most two values over B.

    Proof.  The rank is at most 2 iff some nonzero (alpha, beta, gamma) has
    alpha + beta x^b + gamma y^b = 0 for every b in B.  gamma = 0 forces x^b
    to be constant on B, that is x^g = 1; beta = 0 gives y^g = 1, and
    alpha = 0 gives (x/y)^g = 1.  If all three are nonzero, u = x^b lies on
    the unit circle and on the circle |alpha + beta u| = |gamma|; the two
    differ because alpha != 0, so u takes at most two values, and
    y^b = -(alpha + beta u)/gamma is fixed by u: at most two distinct
    columns.  Each condition plainly gives rank <= 2.  Two distinct columns
    (1, x^a, y^a), (1, x^b, y^b) are independent, so the rank is 1 exactly
    when every column is the same.

    Lemma (period).  Columns b, b' share a key iff m = n/gcd(n, p, q)
    divides b - b', so the key takes |B mod m| values.  Proof: n | p*d iff
    n/gcd(n, p) | d, likewise for q, and lcm(n/gcd(n, p), n/gcd(n, q)) =
    n/gcd(n, p, q), as at each prime l both have the valuation
    v(n) - min(v(n), v(p), v(q)).  Likewise r*g = 0 mod n iff h | r, with
    h = n/gcd(n, g) the order of zeta_n^g.

    Lemma ((2, 1) rows).  For w on the unit circle the rows 1, e, w^e over
    e in B have rank min(|B|, 3 - [ord w | g]).  Proof.  Rank < 3 means
    alpha + beta e + gamma w^e = 0 on B, (alpha, beta, gamma) nonzero.
    gamma = 0 leaves |B| <= 1.  Otherwise the points w^e lie on a line,
    which meets the unit circle in at most two points; with beta != 0,
    e -> w^e is injective and |B| <= 2; with beta = 0, w^e is constant on
    B, that is w^g = 1, and (-w^e, 0, 1) does vanish.  The rows 1 and e keep
    the rank at 2 once |B| >= 2.  At w = zeta_n^p, w^g = 1 iff h | p.
    """
    return np.minimum(keys, 3 - root)


def _order(n, r):
    """n/gcd(n, r), the order of zeta_n^r, elementwise: on int arrays, or
    exactly on object arrays of Python ints (`strata._side_coranks`)."""
    return n // np.gcd(n, r)


def gap_root(h, p, q):
    """The gap test of `_rank`: is x^g, y^g or (x/y)^g equal to 1
    at x = zeta_n^p, y = zeta_n^q, given h = n/gcd(n, g), the order of
    zeta_n^g?  That is, does h divide p, q or p - q?  Elementwise on int
    arrays; a bool on ints."""
    xg, yg = p % h, q % h
    return (xg == 0) | (yg == 0) | (xg == yg)


def two_class_split(b: SupportSet, n: int):
    """Smallest k >= 3 dividing n with B in at most two residue classes mod
    k, as a SplitWitness; None if none.

    Every returned witness is re-verified against its definitional
    predicate (each part's gap gcd divisible by k, and k | n).
    """
    w = split_dividing(b, n)
    if w is not None and not (w.verify(b) and n % w.k == 0):
        raise AssertionError(f"invalid split certificate for B={b.elements}, n={n}")
    return w


@dataclass
class ScanReport:
    """Equivalence-scan outcome, forward and converse directions separated.

    Forward counterexamples (minors vanish, no split certificate) are
    additionally classified: `order2_explained` collects the cases where the
    vanishing comes from a single power row (or the row ratio) being constant
    with the responsible root of order 2, i.e. one of x, y, x/y equals -1 and
    2 divides the gap gcd of B.  The split criterion provably cannot cover
    those, so they are reported as a separate known family; anything in
    `unexplained` would be a genuinely new phenomenon.
    """

    n_max: int
    spread_max: int
    sizes: tuple
    pairs_checked: int = 0
    sets_checked: int = 0
    forward_counterexamples: list = field(default_factory=list)
    converse_counterexamples: list = field(default_factory=list)
    order2_explained: list = field(default_factory=list)
    unexplained: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def counterexamples(self):
        return self.forward_counterexamples + self.converse_counterexamples

    def to_json(self):
        return {
            "n_max": self.n_max,
            "spread_max": self.spread_max,
            "sizes": list(self.sizes),
            "pairs_checked": self.pairs_checked,
            "sets_checked": self.sets_checked,
            "forward_counterexamples": self.forward_counterexamples,
            "converse_counterexamples": self.converse_counterexamples,
            "order2_explained_count": len(self.order2_explained),
            "unexplained": self.unexplained,
            "wall_time_s": self.wall_time,
        }


def _order2_mechanism(g, n, p, q):
    """Does one of x, y, x/y equal -1 with its power row constant over B?

    `g` is the gap gcd of B.  Returns the responsible exponent difference
    class or None.  (A constant power row of order m >= 3 always yields the
    trivial split B' = B, so only the order-2 case can defeat the split
    criterion.)
    """
    if g % 2 == 0:
        for name, r in (("x", p), ("y", q), ("x/y", p - q)):
            if r % n and 2 * r % n == 0:  # zeta_n^r has order 2
                return name
    return None


def _admissible_table(n_max: int):
    """Every admissible (n, p, q) with n <= n_max, 1 <= p < q < n, ordered by
    n, then p, then q: `admissible_pairs(n)` stacked over n, as three int
    arrays (ns, ps, qs)."""
    # n = 2 admits no pair; it keeps the list nonempty when n_max < 3
    moduli = range(2, max(n_max, 2) + 1)
    pairs = [admissible_pairs(n) for n in moduli]
    ns = np.repeat(np.array(moduli, dtype=np.int64), [len(ps) for ps, _ in pairs])
    return ns, np.concatenate([ps for ps, _ in pairs]), np.concatenate([qs for _, qs in pairs])


def minors_split_equivalence_scan(n_max: int, spread_max: int, sizes) -> ScanReport:
    """Exhaustive check: [some admissible pair kills all minors] iff
    [a two-class split certificate exists], plus the per-pair forward
    direction (minors vanish implies split exists).

    Both sides are questions about |B mod k|, so the scan reads one table,
    counts[s, k - 3] = min(|B_s mod k|, 3) for every support B_s and
    3 <= k <= n_max (one `supports.class_counts` call per support), in
    one array pass over every support and every admissible pair of every
    modulus n <= n_max.  The rank at (B_s, p, q) is the rank lemma of
    `_rank` at counts[s, m - 3], m the period n/gcd(n, p, q).  B_s splits
    at n iff some k >= 3 dividing n has counts[s, k - 3] <= 2.  For each
    distinct (B_s, k), k the smallest such divisor of some n (that is, a
    split k with no split proper divisor), one certificate from
    `two_class_split(B_s, k)` is verified and must have that k; it serves
    every n that k divides.

    Counterexamples are listed by n, then B, then pair (p-major).  n <= 2
    admits no pair with x, y != 1, x != y and is skipped.  Every forward
    counterexample is classified (see ScanReport): the order-2 family is a
    real gap between the minors condition and the split criterion,
    witnessed e.g. by B = {0,2,4}, n = 6, (p, q) = (1, 3).
    """
    sizes = tuple(sorted(set(sizes)))
    report = ScanReport(n_max, spread_max, sizes)
    start = time.perf_counter()
    universe = range(0, spread_max + 1)
    subsets = [
        SupportSet(comb)
        for size in sizes
        for comb in combinations(universe, size)
    ]
    moduli = np.arange(3, n_max + 1)  # the column n - 3, and k - 3 of counts
    counts = np.array([class_counts(b, moduli.tolist()) for b in subsets], dtype=np.int64)
    # neither test tells 3 classes from more, so (supports, pairs) arrays stay int8
    counts = np.minimum(counts.reshape(len(subsets), len(moduli)), 3).astype(np.int8)
    gaps = np.array([gap_gcd(b) for b in subsets], dtype=np.int64)
    ns, ps, qs = _admissible_table(n_max)
    # the gap test per gap gcd 0 <= g <= spread_max, then per support
    roots = gap_root(_order(ns, np.arange(spread_max + 1)[:, None]), ps, qs).astype(np.int8)
    # the period n/gcd(n, p, q) is at least 3: a divisor d >= n/2 of n has
    # one multiple in [1, n), so it cannot divide both p < q
    vanish = _rank(counts[:, _order(ns, np.gcd(ps, qs)) - 3], roots[gaps]) <= 2
    divides = moduli % moduli[:, None] == 0  # [k - 3, n - 3]: does k divide n?
    small = counts <= 2  # [s, k - 3]: is B_s in at most two classes mod k?
    split = small @ divides
    # the smallest split divisor of some n: a split k with no split proper divisor
    for s, c in np.argwhere(small & ~(small @ np.triu(divides, 1))).tolist():
        k = c + 3
        w = two_class_split(subsets[s], k)
        if w is None or w.k != k:
            raise AssertionError(f"no split certificate mod {k} for B={subsets[s].elements}")
    hit = vanish @ (ns[:, None] == moduli)  # some pair of modulus n kills every minor
    s_f, i_f = np.nonzero(vanish & ~split[:, ns - 3])
    report.pairs_checked = len(ns) * len(subsets)
    report.sets_checked = len(moduli) * len(subsets)
    for j in np.lexsort((i_f, s_f, ns[i_f])).tolist():
        s, i = int(s_f[j]), int(i_f[j])
        n, p, q = int(ns[i]), int(ps[i]), int(qs[i])
        cex = {"n": n, "B": list(subsets[s].elements), "p": p, "q": q}
        report.forward_counterexamples.append(cex)
        mech = _order2_mechanism(int(gaps[s]), n, p, q)
        if mech is not None:
            report.order2_explained.append({**cex, "mechanism": mech})
        else:
            report.unexplained.append(cex)
    report.converse_counterexamples = [
        {"n": int(moduli[c]), "B": list(subsets[s].elements)}
        for c, s in np.argwhere((split & ~hit).T).tolist()
    ]
    report.wall_time = time.perf_counter() - start
    return report
