"""Exact root-of-unity analysis of the 3-row power matrices.

The central object is M(B; x, y) with rows (1...1), (x^b)_b, (y^b)_b for
roots of unity x, y.  Vanishing of all its 3x3 minors is equivalent to a
two-residue-class split of B; the scan below checks that equivalence
exhaustively, and the single-minor checkers explain every vanishing
determinant by row/column proportionality.

All zero tests are exact in Z[zeta_n]; the all-minors tests go through the
batched kernel `kernels.all_minors_vanish_batch`.  Negative exponents are
harmless since exponents reduce mod n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import kernels
from .exact import CycloElement
from .supports import SupportSet, gap_gcd

__all__ = [
    "RootOfUnity",
    "UnityPair",
    "SplitCertificate",
    "all_minors_vanish",
    "two_class_split",
    "minors_split_equivalence_scan",
    "unity_minor_check",
    "exponent_power_minor_check",
    "proportionality_structure",
    "MinorCheck",
    "ScanReport",
]


@dataclass(frozen=True)
class RootOfUnity:
    """Exact root of unity zeta_n^k (no admissibility constraints)."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "k", self.k % self.n)

    def power(self, e: int) -> CycloElement:
        return CycloElement.root_power(self.n, self.k * e)

    def pow_equal(self, e1: int, e2: int) -> bool:
        """zeta^(k*e1) == zeta^(k*e2), as an integer congruence."""
        return (self.k * (e1 - e2)) % self.n == 0

    def to_complex(self):
        import cmath

        return cmath.exp(2j * cmath.pi * self.k / self.n)


@dataclass(frozen=True)
class UnityPair:
    """Admissible pair x = zeta_n^p, y = zeta_n^q: x, y != 1 and x != y."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("modulus must be positive")
        p, q = self.p % n, self.q % n
        if p == 0 or q == 0 or p == q:
            raise ValueError("unity pair requires x != 1, y != 1, x != y")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def x(self):
        return RootOfUnity(self.n, self.p)

    @property
    def y(self):
        return RootOfUnity(self.n, self.q)


@dataclass(frozen=True)
class SplitCertificate:
    """Partition B = B' | B'' with gap gcds of both parts divisible by k >= 3.

    The empty part is allowed (its gap gcd 0 is divisible by everything).
    """

    k: int
    part_main: tuple
    part_rest: tuple

    def verify(self, b: SupportSet, n: int) -> bool:
        if self.k < 3 or n % self.k:
            return False
        merged = tuple(sorted(self.part_main + self.part_rest))
        if merged != b.elements:
            return False
        for part in (self.part_main, self.part_rest):
            if part:
                g = gap_gcd(SupportSet(part))
                if g % self.k:
                    return False
        return True

    def to_json(self):
        return {"k": self.k, "part_main": list(self.part_main), "part_rest": list(self.part_rest)}


def admissible_pairs(n: int):
    """Every admissible (p, q) at modulus n up to swapping, 1 <= p < q < n,
    as two int arrays in p-major order."""
    ps, qs = np.triu_indices(n - 1, k=1)
    return ps + 1, qs + 1


def all_minors_vanish(b: SupportSet, u: UnityPair) -> bool:
    """Do all 3x3 minors of M(B; x, y) vanish?  Vacuously true for |B| < 3."""
    table = kernels.reduction_table_array(u.n)
    return bool(kernels.all_minors_vanish_batch(table, b.elements, [u.p], [u.q])[0])


def two_class_split(b: SupportSet, n: int):
    """Smallest k >= 3 dividing n with B in at most two residue classes mod k.

    Every returned certificate is re-verified against its definitional
    predicates before being handed out.
    """
    for k in range(3, n + 1):
        if n % k:
            continue
        classes = {}
        for e in b.elements:
            classes.setdefault(e % k, []).append(e)
        if len(classes) <= 2:
            main_res = b.min % k
            main = tuple(classes.pop(main_res))
            rest = tuple(next(iter(classes.values()))) if classes else ()
            cert = SplitCertificate(k, main, rest)
            if not cert.verify(b, n):
                raise AssertionError(f"invalid split certificate for B={b.elements}, n={n}")
            return cert
    return None


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
    for name, r in (("x", p), ("y", q), ("x/y", p - q)):
        r %= n
        if r == 0:
            continue
        order = n // math.gcd(r, n)
        if order == 2 and g % 2 == 0:
            return name
    return None


def minors_split_equivalence_scan(n_max: int, spread_max: int, sizes) -> ScanReport:
    """Exhaustive check: [some admissible pair kills all minors] iff
    [a two-class split certificate exists], plus the per-pair forward
    direction (minors vanish implies split exists).

    Each (B, n) is one batched kernel call over every admissible pair, and
    its counterexamples are listed pair-major.  n <= 2 admits no pair with
    x, y != 1, x != y and is skipped.  Every forward counterexample is
    classified (see ScanReport): the order-2 family is a real gap between
    the minors condition and the split criterion, witnessed e.g. by
    B = {0,2,4}, n = 6, (p, q) = (1, 3).
    """
    sizes = tuple(sorted(set(sizes)))
    report = ScanReport(n_max, spread_max, sizes)
    start = time.perf_counter()
    universe = range(0, spread_max + 1)
    subsets = [
        comb
        for size in sizes
        for comb in combinations(universe, size)
    ]
    for n in range(3, n_max + 1):
        table = kernels.reduction_table_array(n)
        ps, qs = admissible_pairs(n)
        for elems in subsets:
            b = SupportSet(elems)
            split = two_class_split(b, n)
            vanish = kernels.all_minors_vanish_batch(table, elems, ps, qs)
            report.pairs_checked += len(ps)
            if split is None:
                g = gap_gcd(b)
                for i in np.flatnonzero(vanish):
                    p, q = int(ps[i]), int(qs[i])
                    cex = {"n": n, "B": list(elems), "p": p, "q": q}
                    report.forward_counterexamples.append(cex)
                    mech = _order2_mechanism(g, n, p, q)
                    if mech is not None:
                        report.order2_explained.append({**cex, "mechanism": mech})
                    else:
                        report.unexplained.append(cex)
            if split is not None and not vanish.any():
                report.converse_counterexamples.append({"n": n, "B": list(elems)})
            if split is not None and not split.verify(b, n):
                report.unexplained.append(
                    {"n": n, "B": list(elems), "bad_certificate": split.to_json()}
                )
            report.sets_checked += 1
    report.wall_time = time.perf_counter() - start
    return report


@dataclass(frozen=True)
class MinorCheck:
    """Outcome of a single 3x3 minor check."""

    tag: str  # Nondegenerate | PropRows | PropCols | EqualRows13
    rows: tuple | None = None
    cols: tuple | None = None

    def to_json(self):
        return {"tag": self.tag, "rows": self.rows, "cols": self.cols}


def _is_unity(x):
    return isinstance(x, RootOfUnity)


def unity_minor_check(a: int, b: int, c: int, x, y, tol=1e-9) -> MinorCheck:
    """Structure of det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]].

    For unit-modulus x, y a vanishing determinant always comes with two
    proportional rows or two proportional columns; this returns which.
    Exact for RootOfUnity inputs, tolerance-based for complex ones.
    """
    exps = (a, b, c)
    if _is_unity(x) and _is_unity(y):
        if x.n != y.n:
            # lift to the common modulus
            n = x.n * y.n // math.gcd(x.n, y.n)
            x = RootOfUnity(n, x.k * (n // x.n))
            y = RootOfUnity(n, y.k * (n // y.n))
        xa, xb, xc = (x.power(e) for e in exps)
        ya, yb, yc = (y.power(e) for e in exps)
        det = (xb * yc - xc * yb) - (xa * yc - xc * ya) + (xa * yb - xb * ya)
        if not det.is_zero:
            return MinorCheck("Nondegenerate")
        x_eq = {(i, j) for i, j in combinations(range(3), 2) if x.pow_equal(exps[i], exps[j])}
        y_eq = {(i, j) for i, j in combinations(range(3), 2) if y.pow_equal(exps[i], exps[j])}
        if len(x_eq) == 3:  # x^a = x^b = x^c: rows 1, 2 proportional
            return MinorCheck("PropRows", rows=(1, 2))
        if len(y_eq) == 3:
            return MinorCheck("PropRows", rows=(1, 3))
        ratio_eq = {
            (i, j)
            for i, j in combinations(range(3), 2)
            if ((x.k - y.k) * (exps[i] - exps[j])) % x.n == 0
        }
        if len(ratio_eq) == 3:  # (x/y)^a = (x/y)^b = (x/y)^c: rows 2, 3 proportional
            return MinorCheck("PropRows", rows=(2, 3))
        for i, j in sorted(x_eq & y_eq):
            return MinorCheck("PropCols", cols=(i + 1, j + 1))
        return MinorCheck("Degenerate-unexplained")  # impossible per the dichotomy
    # float path
    xv, yv = complex(x), complex(y)
    m = [
        [1, 1, 1],
        [xv**a, xv**b, xv**c],
        [yv**a, yv**b, yv**c],
    ]
    det = (
        m[1][1] * m[2][2]
        - m[1][2] * m[2][1]
        - (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if abs(det) > tol:
        return MinorCheck("Nondegenerate")
    if abs(m[1][0] - m[1][1]) <= tol and abs(m[1][1] - m[1][2]) <= tol:
        return MinorCheck("PropRows", rows=(1, 2))
    if abs(m[2][0] - m[2][1]) <= tol and abs(m[2][1] - m[2][2]) <= tol:
        return MinorCheck("PropRows", rows=(1, 3))
    r = [m[1][i] / m[2][i] for i in range(3)]
    if abs(r[0] - r[1]) <= tol and abs(r[1] - r[2]) <= tol:
        return MinorCheck("PropRows", rows=(2, 3))
    for i, j in combinations(range(3), 2):
        if abs(m[1][i] - m[1][j]) <= tol and abs(m[2][i] - m[2][j]) <= tol:
            return MinorCheck("PropCols", cols=(i + 1, j + 1))
    return MinorCheck("Degenerate-unexplained")


def exponent_power_minor_check(a: int, b: int, c: int, x, tol=1e-9) -> MinorCheck:
    """Structure of det [[1,1,1],[a,b,c],[x^a,x^b,x^c]] for distinct a, b, c.

    A vanishing determinant forces x^a = x^b = x^c (rows 1 and 3 equal up to
    the factor x^a).
    """
    if len({a, b, c}) != 3:
        raise ValueError("exponents must be distinct")
    exps = (a, b, c)
    if _is_unity(x):
        xa, xb, xc = (x.power(e) for e in exps)
        det = (b * xc - c * xb) - (a * xc - c * xa) + (a * xb - b * xa)
        if not det.is_zero:
            return MinorCheck("Nondegenerate")
        if x.pow_equal(a, b) and x.pow_equal(b, c):
            return MinorCheck("EqualRows13", rows=(1, 3))
        return MinorCheck("Degenerate-unexplained")
    xv = complex(x)
    det = (
        (b * xv**c - c * xv**b)
        - (a * xv**c - c * xv**a)
        + (a * xv**b - b * xv**a)
    )
    if abs(det) > tol * max(abs(a), abs(b), abs(c), 1):
        return MinorCheck("Nondegenerate")
    if abs(xv**a - xv**b) <= tol and abs(xv**b - xv**c) <= tol:
        return MinorCheck("EqualRows13", rows=(1, 3))
    return MinorCheck("Degenerate-unexplained")


def proportionality_structure(matrix, is_zero=None):
    """Row/column proportionality structure of a matrix with nonzero entries.

    Returns ("TwoPropRows", (i, j)), ("ColumnGroups", partition) when the
    columns fall into at most two proportionality classes, or ("Neither",).
    Works over any exact scalar type; pass `is_zero` for custom zero tests.
    """
    if is_zero is None:
        is_zero = lambda v: (v.is_zero if isinstance(v, CycloElement) else not v)
    rows = [list(r) for r in matrix]
    nr, nc = len(rows), len(rows[0])
    if nc < 3:
        raise ValueError("need at least three columns")
    for r in rows:
        for v in r:
            if is_zero(v):
                raise ValueError("matrix entries must be nonzero")

    def vec_prop(u, v):
        return all(
            is_zero(u[i] * v[j] - u[j] * v[i])
            for i, j in combinations(range(len(u)), 2)
        )

    for i, j in combinations(range(nr), 2):
        if vec_prop(rows[i], rows[j]):
            return ("TwoPropRows", (i + 1, j + 1))
    cols = [[rows[r][c] for r in range(nr)] for c in range(nc)]
    groups = []
    for ci, col in enumerate(cols):
        for grp in groups:
            if vec_prop(cols[grp[0]], col):
                grp.append(ci)
                break
        else:
            groups.append([ci])
    if len(groups) <= 2:
        return ("ColumnGroups", tuple(tuple(g + 1 for g in grp) for grp in groups))
    return ("Neither",)
