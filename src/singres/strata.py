"""Filtration-subset labels, multiplicity Vandermonde matrices, the exact
kernel sampler, and the stratification of the solution space (§4) that the
codimension estimator and the corank-strata scan both read.

A label (j0, jinf, multiset of per-root order pairs) indexes the subset of
coefficient pairs whose common roots have at least the prescribed orders.
The sampler of a filtration subset is exact: distinct rational points,
rational kernels of the multiplicity Vandermonde matrices and rational
kernel combinations, in one draw that is always a member (None only for an
empty side kernel); `verify`'s point-classifier constructions draw through
it too (`_draw_filtration_pair`).
One enumeration (`_solution_strata`) lists the strata of the solution space
{(x, f1, f2): f_s in ker M_s(x)}, sets of point tuples x with constant side
ranks, in three kinds; each kind proves its strata's dimension kd1 + kd2 +
r where it builds them, with no sampling and no floating point:
- generic, by Descartes' rule of signs (`_solution_strata` itself);
- unity, one stratum per nonzero root-of-unity corank class
  (`_corank_classes`), by the torus orbit (`_unity_strata`);
- minor_curve, three roots only, one per class of translated exponent
  triples, decided mod small primes at Hensel-liftable points of its
  branches (`_minor_certificates`); a curve out of the certificate's reach
  is listed undecided with its reason, never dropped.
The estimator reports the ambient dimension minus the largest stratum
dimension, an upper bound on the codimension, as every listed dimension
is realized.  The scan reports the strata's nonzero side coranks, never
computes a curve, and takes from its seed only the generic witness.
Every multiplicity Vandermonde mod p, at a root-of-unity tuple under a
split prime or at a point of a minor curve in F_p^*, comes from one
builder (`_hermite_stack`), and the scan and the estimator read their
root-of-unity tuples from one table that lists each tuple once
(`_scan_table`).  Each request derives a side's effective support, root
orders and gap gcd once, into the side record (`_sides`) that every helper
reads; equal records are ranked once (`_per_side`).  Both ranks of the
root-of-unity tuples give one corank array per side over the whole table,
and one grouping turns two such arrays into the classes (`_classes_of`):
a label with a closed-form rank reads each side's array from a cache keyed
by its signature, its table values and the gcd of its gap gcd with the lcm
of the table's moduli (`_side_coranks`), and the classes from a cache
keyed by both signatures (`_signature_classes`); any other label ranks
every tuple mod split primes (`_unity_coranks`).
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import __version__
from .exact import (
    is_prime,
    kernel_basis,
    modular_kernel_vector,
    modular_rank,
    power_table,
    root_of_order,
    split_prime,
    split_primes,
    units,
)
from .laurent import LaurentPoly, common_roots, falling
from .minors import _order, _rank, gap_root
from .supports import SupportPair, SupportSet, class_counts, gap_gcd, split_dividing

__all__ = [
    "StratumLabel",
    "CodimEstimate",
    "label_dominates",
    "in_filtration_subset",
    "multiplicity_vandermonde",
    "sample_filtration_subset",
    "estimate_codim",
    "scan_corank_strata",
    "parse_label",
    "ScanSReport",
]

DEFAULT_N_MAX = 12  # the largest root-of-unity order of a scan or an estimate

# The minor-curve certificate decides the curve of a triple whose gap gcd g
# is at most CERT_GAP_MAX (every triple of spread <= 60 is); it draws up to
# CERT_T_TRIES * g parameters t0 at each of CERT_PRIMES primes p = 1 mod g
# above CERT_PRIME_MIN.  A curve past that gcd, or with a class that none of
# the draws decides, is listed undecided.
CERT_GAP_MAX = 30
CERT_PRIME_MIN = 1000
CERT_PRIMES = 3
CERT_T_TRIES = 8


@dataclass(frozen=True)
class StratumLabel:
    """(j0, jinf, multiset of per-root order pairs), canonically sorted.

    Its notation is written once, here, since every scan and codim report
    names its label; it is no field, so equality, hash and repr read the
    three fields alone."""

    j0: int = 0
    jinf: int = 0
    roots: tuple = ()

    def __post_init__(self):
        if self.j0 < 0 or self.jinf < 0:
            raise ValueError("boundary orders must be non-negative")
        roots = tuple(sorted((tuple(r) for r in self.roots), reverse=True))
        for j1, j2 in roots:
            if j1 < 1 or j2 < 1:
                raise ValueError("root orders must be >= 1")
        object.__setattr__(self, "roots", roots)
        sub = f"_{self.j0}" if self.j0 else ""
        sup = f"^{self.jinf}" if self.jinf else ""
        body = ",".join(str(r[0]) for r in roots)
        if not self.is_symmetric:
            body += ";" + ",".join(str(r[1]) for r in roots)
        object.__setattr__(self, "_notation", f"N{sub}{sup}({body})" if roots else f"N{sub}{sup}")

    @property
    def k(self):
        return len(self.roots)

    @property
    def is_symmetric(self):
        return all(j1 == j2 for j1, j2 in self.roots)

    def side_orders(self, side):
        return tuple(r[side - 1] for r in self.roots)

    @classmethod
    def symmetric(cls, j0, jinf, orders):
        return cls(j0, jinf, tuple((j, j) for j in orders))

    def notation(self):
        """'N(1,1,1)', 'N_1^0(1)', 'N(2,1;1,1)' style notation, as
        `parse_label` reads it."""
        return self._notation


_ORDERS = r"\d+(?:,\d+)*"
_LABEL_RE = re.compile(rf"^N(?:_(\d+))?(?:\^(\d+))?(?:\(({_ORDERS}(?:;{_ORDERS})?)?\))?$")


def parse_label(text: str) -> StratumLabel:
    """Parse 'N(1,1,1)', 'N_1^0(1)', 'N(2,1;1,1)' style notation.  Any other
    text, two rows of unequal length included, raises ValueError naming it."""
    m = _LABEL_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse label {text!r}")
    j0 = int(m.group(1) or 0)
    jinf = int(m.group(2) or 0)
    body = m.group(3)
    if not body:
        return StratumLabel(j0, jinf, ())
    if ";" in body:
        top, bottom = body.split(";")
        j1s = [int(x) for x in top.split(",")]
        j2s = [int(x) for x in bottom.split(",")]
        if len(j1s) != len(j2s):
            raise ValueError(f"cannot parse label {text!r}")
        return StratumLabel(j0, jinf, tuple(zip(j1s, j2s)))
    js = [int(x) for x in body.split(",")]
    return StratumLabel.symmetric(j0, jinf, js)


def label_dominates(q: StratumLabel, p: StratumLabel) -> bool:
    """Degeneration partial order on symmetric labels.

    q >= p iff p's root system maps into q's (0 -> 0, inf -> inf, finite
    roots anywhere, possibly merging) with capacity g_s at each target s.
    The map need not be surjective: q may carry extra roots.
    """
    if not (q.is_symmetric and p.is_symmetric):
        raise ValueError("order is defined on symmetric labels")
    if p.j0 > q.j0 or p.jinf > q.jinf:
        return False
    targets = [q.j0 - p.j0, q.jinf - p.jinf] + [j for j, _ in q.roots]
    weights = [j for j, _ in p.roots]

    def assign(i, caps):
        if i == len(weights):
            return True
        w = weights[i]
        seen = set()
        for s, cap in enumerate(caps):
            if cap >= w and (s, cap) not in seen:
                seen.add((s, cap))
                caps[s] -= w
                if assign(i + 1, caps):
                    caps[s] += w
                    return True
                caps[s] += w
        return False

    return assign(0, targets)


def _match_size(left_adj, n_right):
    match_r = [-1] * n_right

    def augment(u, seen):
        for v in left_adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    count = 0
    for u in range(len(left_adj)):
        if augment(u, [False] * n_right):
            count += 1
    return count


def in_filtration_subset(f: LaurentPoly, g: LaurentPoly, label: StratumLabel) -> bool:
    """Membership test: boundary orders and an injective assignment of the
    label's root pairs to distinct finite common roots (bipartite matching).

    One `common_roots` call gives both: min(ord f, ord g) at 0 is the pair
    order of its record at 0, and 0 when it has none (a boundary record
    exists exactly when both orders are >= 1); likewise at infinity.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    records = common_roots(f, g)
    ends = {r.kind: r.pair_ord for r in records}
    if ends.get("zero", 0) < label.j0 or ends.get("infinity", 0) < label.jinf:
        return False
    finite = [r for r in records if r.kind == "finite"]
    adj = [
        [ri for ri, rec in enumerate(finite) if rec.ord1 >= j1 and rec.ord2 >= j2]
        for j1, j2 in label.roots
    ]
    return _match_size(adj, len(finite)) == label.k


def multiplicity_vandermonde(b: SupportSet, xs, js):
    """Rows f^(d)(x_m) for d < j_m at rational points x_m (ints or
    Fractions, compared exactly), columns indexed by the support.

    Entry for exponent col b and derivative d is b(b-1)...(b-d+1) * x^(b-d)
    (falling-factorial convention, valid for negative Laurent exponents).
    """
    pts = [Fraction(x) for x in xs]
    if len(pts) != len(js):
        raise ValueError("one multiplicity per point required")
    if not all(pts) or len(set(pts)) != len(pts):
        raise ValueError("points must be nonzero and pairwise distinct")
    rows = []
    for x, j in zip(pts, js):
        for d in range(j):
            rows.append([falling(e, d) * x ** (e - d) for e in b.elements])
    return rows


def _effective_elements(b: SupportSet, j0, jinf):
    lo, hi = b.min + j0, b.max - jinf
    return tuple(e for e in b.elements if lo <= e <= hi)


class _Side(NamedTuple):
    """One side s of a (pair, label): its effective support (the exponents
    of B_s that the boundary orders j0, jinf leave free; None when they
    leave none), its root orders js and the effective support's gap gcd."""

    support: SupportSet | None
    js: tuple
    gap: int


def _sides(pair, label):
    """The two `_Side` records of (pair, label), each fact derived once;
    with no boundary orders the effective support is B_s itself.  When side
    2's support and orders equal side 1's, side 2 is side 1's record."""
    out = []
    for side, b in ((1, pair.b1), (2, pair.b2)):
        js = label.side_orders(side)
        if out and js == out[0].js and b.elements == pair.b1.elements:
            return out[0], out[0]
        if label.j0 or label.jinf:
            eff = _effective_elements(b, label.j0, label.jinf)
            b = SupportSet(eff) if eff else None
        out.append(_Side(b, js, gap_gcd(b) if b else 0))
    return tuple(out)


def _embed(vec, eff, b: SupportSet):
    pos = {e: i for i, e in enumerate(eff)}
    return [vec[pos[e]] if e in pos else 0 for e in b.elements]


def _random_fraction(rng):
    """A nonzero rational num/den, num in [-9, 9] and den in [1, 6]."""
    while True:
        num = rng.randint(-9, 9)
        if num:
            return Fraction(num, rng.randint(1, 6))


def _distinct_points(rng, k, positive=False):
    """k pairwise distinct nonzero `_random_fraction` points, in draw order;
    with positive=True their absolute values, distinct after abs()."""
    pts = []
    while len(pts) < k:
        x = abs(_random_fraction(rng)) if positive else _random_fraction(rng)
        if x not in pts:
            pts.append(x)
    return pts


def _side_matrices(sides, pts):
    """(eff1, eff2, M1, M2) at the points pts; None for an empty side."""
    if not (sides[0].support and sides[1].support):
        return None
    m1, m2 = (multiplicity_vandermonde(s.support, pts, s.js) for s in sides)
    return sides[0].support.elements, sides[1].support.elements, m1, m2


def _kernel_of(mat, ncols):
    if not mat:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    return kernel_basis(mat)


def _kernel_combination(b: SupportSet, eff, kern, rng):
    """The Laurent polynomial on b whose coefficients on eff are the
    combination of the kernel basis kern with one `_random_fraction` weight
    per vector, and zero outside eff."""
    w = [_random_fraction(rng) for _ in kern]
    vec = [sum(wi * v[i] for wi, v in zip(w, kern)) for i in range(len(eff))]
    return LaurentPoly(b, dict(zip(b.elements, _embed(vec, eff, b))))


def _draw_filtration_pair(pair: SupportPair, label: StratumLabel, rng):
    """One draw (f, g, xs) of `sample_filtration_subset` from rng: label.k
    distinct points, the side kernels there and one combination per side,
    in that order of rng calls.  None when a side kernel is empty."""
    pts = _distinct_points(rng, label.k)
    mats = _side_matrices(_sides(pair, label), pts)
    if mats is None:
        return None
    eff1, eff2, m1, m2 = mats
    k1, k2 = _kernel_of(m1, len(eff1)), _kernel_of(m2, len(eff2))
    if not k1 or not k2:
        return None
    return _kernel_combination(pair.b1, eff1, k1, rng), _kernel_combination(pair.b2, eff2, k2, rng), pts


def sample_filtration_subset(pair: SupportPair, label: StratumLabel, seed=0):
    """Draw an exact (f, g, xs) from the filtration subset in one draw, or
    None when a side kernel is empty.

    xs are label.k distinct nonzero rationals, and f, g random rational
    combinations of the kernels of the multiplicity Vandermonde matrices at
    xs over the effective supports (boundary orders are imposed by zeroing
    convex-hull coefficients).

    The draw is always a member, so it is never repeated.  Each kernel basis
    is the rref basis of `kernel_basis` (the identity with no rows): its
    vector for a free column has a 1 there and 0 in every other free column.
    So the combination's coordinate at that column is the vector's weight,
    which `_random_fraction` never draws 0, and f and g are nonzero.  The
    coefficient vector of f on eff1 lies in the kernel of M1, whose rows are
    f^(d)(x_m) for d < j1_m, so f vanishes to order >= j1_m at each x_m;
    likewise g.  Its coefficients below min(B1) + j0 and above
    max(B1) - jinf are zero, so its orders at 0 and infinity are >= j0 and
    >= jinf; likewise g.  The x_m are distinct, nonzero and finite, so
    root pair m -> x_m is an injective assignment to common roots of orders
    at least the label's.  The draw is still checked by
    `in_filtration_subset`, and a failure raises AssertionError.
    """
    drawn = _draw_filtration_pair(pair, label, random.Random(seed))
    if drawn is not None and not in_filtration_subset(drawn[0], drawn[1], label):
        raise AssertionError(f"a draw of {label.notation()} is not a member")
    return drawn


@dataclass
class CodimEstimate:
    """Codimension report for one filtration subset.

    `strata` holds the listed `_Stratum` records in enumeration order, and
    each writes its own report entry (`_Stratum.entry`).  best_dim_found is
    their largest certified dimension, a dimension the subset realizes, so
    `estimate` = ambient_dim - best_dim_found, reported once as
    codim_estimate, bounds the codimension from above.  `timings` gives the
    seconds spent on each kind of stratum.
    """

    ambient_dim: int
    strata: list = field(default_factory=list)
    sample_count: int = 0
    seed: int = 0
    label: str = ""
    pair: dict | None = None
    timings: dict = field(default_factory=dict)

    @property
    def best_dim_found(self):
        return max([dim for stratum in self.strata if (dim := stratum.dim) is not None], default=None)

    @property
    def estimate(self):
        best = self.best_dim_found
        return None if best is None else self.ambient_dim - best

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "best_dim_found": self.best_dim_found,
            "codim_estimate": self.estimate,
            "components_probed": [stratum.entry() for stratum in self.strata],
            "sample_count": self.sample_count,
            "seed": self.seed,
            "label": self.label,
            "pair": self.pair,
            "version": __version__,
            "timings": self.timings,
        }


def _generic_kernel_dims(sides):
    """d = (|eff1| - sum(j1), |eff2| - sum(j2)), |eff_s| = 0 for an empty
    side: where positive, the side kernel dimension on the generic stratum;
    where negative, minus the side corank there (`_solution_strata`)."""
    (b1, js1, _), (b2, js2, _) = sides
    return (0 if b1 is None else len(b1.elements)) - sum(js1), (0 if b2 is None else len(b2.elements)) - sum(js2)


@lru_cache(maxsize=None)
def _scan_table(k, n_max):
    """The projectivized root-of-unity tuples (x1 = 1) of k points with n <=
    n_max, in scan order: (ns, exps, configs, moduli, at) with configs the
    (n, (0, p[, q])) with 0 < p [< q] < n and gcd(n, p[, q]) = 1, in (n, p,
    q) order, ns the read-only modulus array, exps the read-only
    (len(configs), k) exponent array, moduli the distinct n in increasing
    order and at the read-only array of each tuple's index into moduli.

    Lemma.  Each tuple appears once, at the least n that gives it.  Proof:
    (1, zeta_n^p, zeta_n^q) = (1, zeta_m^(p/d), zeta_m^(q/d)) with d =
    gcd(n, p, q) and m = n/d, so every tuple appears with d = 1.  A modulus
    m gives the tuple iff n | m p and n | m q, that is (the period lemma of
    `minors._rank`) iff n/d | m; with d = 1 no m < n does.  Distinct
    exponents at one modulus give distinct tuples.
    """
    configs = tuple(
        (n, (0, *tup))
        for n in range(1, n_max + 1)
        for tup in combinations(range(1, n), k - 1)
        if gcd(n, *tup) == 1
    )
    ns = np.array([n for n, _ in configs], dtype=np.int64)
    exps = np.array([e for _, e in configs], dtype=np.int64).reshape(len(configs), k)
    moduli, at = np.unique(ns, return_inverse=True)
    for table in (ns, exps, at):
        table.setflags(write=False)
    return ns, exps, configs, tuple(moduli.tolist()), at


def _classes_of(cork1, cork2, configs):
    """The nonzero corank classes of the tuples configs, given both sides'
    coranks there as int arrays: {(c1, c2): (count, first tuple)} for every
    pair but (0, 0), in scan order of first tuple, with Python int keys and
    counts.  Each pair is coded c1 * base + c2, base above every c2, so
    only (0, 0) codes 0; one bincount gives the counts, and each of the few
    codes that occur its first tuple."""
    base = int(cork2.max(initial=0)) + 1
    codes = cork1 * base + cork2
    counts = np.bincount(codes).tolist()
    firsts = sorted((int((codes == code).argmax()), code) for code in range(1, len(counts)) if counts[code])
    return {divmod(code, base): (counts[code], configs[i]) for i, code in firsts}


@lru_cache(maxsize=None)
def _side_coranks(k, n_max, cs, g):
    """The corank k - _rank(c_s, gap_root(h_s, p, q)) of a side with the
    signature (cs, g) of `_table_values` at every tuple (n, (0, p[, q])) of
    _scan_table(k, n_max), with q = p at k = 2 and h_s = n/gcd(n, g) the
    order of zeta_n^(g_s) (`minors._order`, on Python ints, as g may pass
    int64 at n_max >= 43): a read-only int array in scan order, built in
    one array pass and cached per signature.  The key space is bounded by
    n_max: c_s <= 3 and g divides the lcm of the table's moduli.
    Capping c_s at 3 changes no rank, which is at most 3.

    Lemma (tally).  At the tuple (n, (0, p[, q])) of the table, side s has
    corank k - min(c_s, 3 - gap_root(h_s, p, q)).  Proof.  An order-1
    side's matrix is M(B_s; zeta_n^p, zeta_n^q), of rank
    min(|B_s mod m|, 3 - [gap test]) by the lemmas of `minors._rank`, and
    its period m = n/gcd(n, p, q) is n because the table lists
    gcd(n, p, q) = 1 only.  At k = 2 the gap flag is always set (h | p - p),
    so the corank is 2 - min(c_s, 2), and the build takes the flag as set.
    A side of orders (2, 1) at (1, w), w = zeta_n^p of order n, has the rows
    f(1), f'(1), f(w), that is 1, e and w^e over e in B_s, of rank
    min(|B_s|, 3 - [n | g_s]) by the lemma (2, 1) rows of `minors._rank`,
    and n | g_s iff h_s = 1.  Orders (1, 2) give the rows 1, w^e,
    e w^(e - 1); the last row times w and the column e times w^(-e) give
    w^(-e), 1, e, the case (2, 1) at w^(-1), also of order n.  So the
    corank is 3 - min(|B_s|, 3 - [n | g_s]) = 2 - min(c_s, 2), as for an
    order-1 side.  Each modulus n divides the lcm of the moduli, so
    gcd(n, g_s) = gcd(n, g): h_s is read off g.
    """
    _, exps, _, moduli, at = _scan_table(k, n_max)
    flags = k == 2 or gap_root(_order(np.array(moduli, dtype=object), g).astype(np.int64)[at], exps[:, 1], exps[:, -1])
    cork = k - _rank(np.array(cs, dtype=np.int64)[at], flags)
    cork.setflags(write=False)
    return cork


@lru_cache(maxsize=None)
def _signature_classes(k, n_max, cs1, g1, cs2, g2):
    """The nonzero corank classes of _scan_table(k, n_max) for two sides
    with the signatures (cs1, g1) and (cs2, g2) of `_table_values`, as a
    read-only {(c1, c2): (count, first tuple)} in scan order, grouped from
    the two sides' `_side_coranks` arrays.  Every caller gets the same
    mapping, so it admits no writes.  The key space is bounded by n_max, as
    that of `_side_coranks` is.

    Lemma (signature).  The classes of a label with a closed-form rank are
    a function of (k, n_max) and the two sides' signatures alone.  Proof.
    By the lemma (tally) of `_side_coranks` each tuple's corank pair is a
    function of k, its modulus n, its exponents and (c_s, h_s) at n for
    both sides; the tuples are those of _scan_table(k, n_max), and each
    signature lists c_s at every modulus and gives h_s = n/gcd(n, g) there.
    So scans whose sides share their signatures share their classes, and
    the cached mapping serves them all.
    """
    cork1, cork2 = _side_coranks(k, n_max, cs1, g1), _side_coranks(k, n_max, cs2, g2)
    return MappingProxyType(_classes_of(cork1, cork2, _scan_table(k, n_max)[2]))


def _per_side(value, sides, *args):
    """(value(side 1, *args), value(side 2, *args)) for a label's two side
    records, with value computed once when the records are equal: the one
    equal-side rule of both corank paths (`_corank_classes`)."""
    first = value(sides[0], *args)
    return first, first if sides[1] == sides[0] else value(sides[1], *args)


def _table_values(side, moduli, top):
    """The signature (cs, g) of a side record: its table values c_s at
    every modulus n of the tuple moduli, as a tuple, and g = gcd(g_s, top),
    g_s the gap gcd of its effective support B_s and top the lcm of moduli.
    c_s is min(|B_s mod n|, 3) for an order-1 side and _rank(|B_s|, n | g)
    - 1 for orders (2, 1) or (1, 2) (`_side_coranks` reads them).  As every
    n divides top, gcd(n, g_s) = gcd(n, g), so g gives h_s = n/gcd(n, g_s)
    at every modulus; and the h_s give g back, as each prime power l^a that
    exactly divides top divides some modulus n, and then v_l(g) =
    min(a, v_l(g_s)) = v_l(gcd(n, g_s)): the key (cs, g) is one-to-one with
    (cs, h_s).
    The residues come from one `class_counts` call; both branches reduce
    in Python ints, so exponents of any size stay exact."""
    b, js, g = side
    g = gcd(g, top)
    if max(js) == 1:
        return tuple([c if c < 3 else 3 for c in class_counts(b, moduli)]), g
    return tuple((_rank(len(b), g % np.array(moduli, dtype=object) == 0) - 1).tolist()), g


# --- solution strata (§4) ----------------------------------------------------


@dataclass(slots=True)
class _Stratum:
    """A stratum of `_solution_strata`: kind, report name, side kernel
    dimensions kd (None for a minor curve left undecided), side coranks kd_s
    - d_s (d = `_generic_kernel_dims`), the dimension r of its point tuples,
    the rest of its report entry, and the first tuple (n, exps) of a
    root-of-unity class."""

    kind: str
    name: str
    kd: tuple | None
    corank: tuple | None
    r: int
    fields: dict
    at: tuple | None = None

    @property
    def dim(self):
        """kd1 + kd2 + r when both side kernels are nonempty, else None."""
        return self.kd[0] + self.kd[1] + self.r if self.kd and min(self.kd) > 0 else None

    def entry(self):
        """Its report entry: name, dimension, whether it is decided, kd1, kd2
        and r when it is, and the rest of its fields."""
        decided = {"kd1": self.kd[0], "kd2": self.kd[1], "r": self.r} if self.kd else {}
        return {"component": self.name, "dim_found": self.dim, "exact": self.kd is not None, **decided, **self.fields}


def _solution_strata(pair, sides, n_max, seed):
    """The solution strata (§4) of a pair under a label with side records
    sides, lazily one kind at a time: (kind, strata, samples) for the kinds
    generic, unity (root-of-unity tuples with n <= n_max) and minor_curve
    in that order, the last two only when the label has roots.  A stratum's
    solution space has dimension kd1 + kd2 + r when both side kernels are
    nonempty and is empty otherwise.  At k = 1 the one root-of-unity tuple
    (1,) is a positive point, so of the generic stratum, and the unity kind is
    empty.  A side whose boundary orders leave no exponent has only empty
    kernels, so both later kinds are empty, decided here alone, and rank
    no sample.  samples counts the kind's exact decisions: 1, every tuple of
    the table at k >= 2, and every decided branch class of the curves, drawn from
    random.Random(seed), which no other kind reads.  A kind is computed only
    when a caller reaches it: the scan stops after unity.

    The generic stratum has kd_s = max(d_s, 0) and side corank max(0, -d_s),
    d = `_generic_kernel_dims`, and r = k; at k = 0 it is the coordinate
    subspace of the effective supports.

    Lemma (Descartes).  At distinct positive points x_1..x_k the side's
    multiplicity Vandermonde M_s (rows f^(d)(x_m), d < j_m; columns eff_s)
    has rank min(sum(j_s), |eff_s|), the largest any tuple allows.  By
    Descartes' rule of signs a nonzero Laurent polynomial with m terms has
    at most m - 1 positive roots counted with multiplicity.  So any r <= m
    Hermite conditions at distinct positive points are independent (the
    total positivity of generalized Vandermonde matrices, Gantmacher-Krein).
    Signed points are not safe: (1, -1) on B = (0, 2, 4) repeats a row.

    Dimension.  The parameters (x, f1, f2) with f_s in ker M_s(x) span k +
    kd1 + kd2 dimensions when both kernels are nonempty, and the
    differential of (x, f1, f2) -> (f1, f2) reaches that rank at positive
    points.  Its image is ker M1 + ker M2 plus one tangent row (df1, df2) per
    point x_m, where M_s df_s = -(dM_s/dx_m) f_s.  The right side vanishes
    outside point m's last row, where it is -f_s^(j_s,m)(x_m), and M_s is
    injective modulo its kernel; so modulo the kernels the row of point m is
    (f1^(j1_m)(x_m), f2^(j2_m)(x_m)), placed in point m's rows only.  It is
    nonzero for generic f_s: with sum(j_s) + 1 <= |eff_s| the Hermite
    conditions plus f^(j_m)(x_m) = 0 are independent at positive points, so
    that derivative is not identically zero on ker M_s.  Rows of distinct
    points are thus independent.
    """
    k = len(sides[0].js)
    d1, d2 = d = _generic_kernel_dims(sides)
    yield "generic", [_Stratum("generic", "generic" if k else "coordinate-subspace", (max(d1, 0), max(d2, 0)), (max(-d1, 0), max(-d2, 0)), k, {})], 1
    if k:
        full = sides[0].support is not None and sides[1].support is not None
        unity = _unity_strata(sides, n_max, d) if full and k > 1 else []
        yield "unity", unity, len(_scan_table(k, n_max)[2]) if full and k > 1 else 0
        yield "minor_curve", *(_curve_strata(pair, sides, d, random.Random(seed)) if full and k == 3 else ([], 0))


def _unity_strata(sides, n_max, d):
    """The root-of-unity strata: one per nonzero corank class (c1, c2) of
    `_corank_classes` in scan order, under its first tuple, with its tuple
    count, kd_s = d_s + c_s (d = `_generic_kernel_dims`) and r = 1.

    Claim.  Let omega be a tuple with x1 = 1, M_s = M_s(omega) side s's
    multiplicity Vandermonde on eff_s and kd_s = |eff_s| - rank M_s.  When
    both kd_s > 0 the stratum through omega has dimension kd1 + kd2 + r with
    r = 1; otherwise it is empty.

    Proof.  T_c maps f to f(x/c), that is f_b to c^(-b) f_b.  Since
    (T_c f)^(d)(c x) = c^(-d) f^(d)(x), ker M_s(c omega) = T_c ker M_s(omega),
    so the stratum is the orbit {(T_c f1, T_c f2)}: f_s in ker M_s(omega),
    c nonzero.  Its dimension is constant along the orbit, so c = 1
    suffices, and a random annulus factor c, as a float sample draws it,
    adds nothing.  At c = 1 the differential spans ker M1 + ker M2 and the
    orbit's tangent row d/dc (T_c f1, T_c f2) = -(D f1, D f2), D = diag(b),
    b in eff_s.  For generic (f1, f2) that row lies in ker M1 + ker M2 iff
    M_s D vanishes on ker M_s on both sides, that is iff rank [M_s; M_s D]
    = rank M_s, and then D maps ker M_s into itself.  It never does: D has
    the distinct eigenvalues b, so a nonzero D-invariant subspace contains
    some coordinate vector e_b, while M_s e_b, the column of b, holds the
    entry x_m^b != 0 of every order-0 row.  So r = 1.

    So a stratum depends on its tuple only through the coranks.  The class
    (0, 0) has kd_s = d_s, so it is empty or of dimension d1 + d2 + 1 < d1
    + d2 + k (k >= 2), inside the generic stratum's closure.  Called at k >=
    2 with both effective supports nonempty only (`_solution_strata`).
    """
    return [
        _Stratum("unity", f"unity(n={n}, exps={list(exps)})", (d[0] + c1, d[1] + c2), (c1, c2), 1, {"tuples": count}, (n, exps))
        for (c1, c2), (count, (n, exps)) in _corank_classes(sides, n_max).items()
    ]


def _curve_strata(pair, sides, d, rng):
    """(strata, branch classes decided) of a three-point label: one stratum
    per curve of the exponent triples (a, b, c) of both sides, grouped by
    their translate (0, b - a, c - a), under its first triple, side 1
    before side 2 in combination order, with its triple count and its
    certificate (p, t0, u0) from `_minor_certificates`, which proves its
    dimension kd1 + kd2 + 2, or with kd None and the `reason` when no draw
    decides it.  A curve decided empty is no stratum.  The certificate gets
    each curve as its translate and gap gcd g = gcd(b - a, c - a), once.

    Lemma (translation).  The minor of (a + s, b + s, c + s) is (t u)^s P,
    so translates have one curve, decided on the translate T' = (0, b - a,
    c - a).  On the torus P and P' = (t u)^(-a) P have the same zeros, and
    at a zero the gradient of P is (t u)^a times that of P', so a root u0 is
    simple for both or neither and du/dt = -P_t / P_u agrees; the roots,
    their classes and their slopes (`_branch_points`) are those of P'.  The
    class keys (`_branch_classes`) read g and c - a, the kernel floors
    (`_kernel_floor`) the differences e - a, and the primes and draws g.

    Under boundary orders the triples still come from the full supports: a
    curve with no translate in an effective support can certify a line
    class that no effective triple's curve decides (on B_1 = B_2 = (0, 1,
    63, 125, 127) under N_1^1(1,1,1) the effective (1, 63, 125) has gap gcd
    62, and (63, 125, 127) certifies u = -t at the estimate).
    """
    groups = {}  # translate -> [side, first triple, triple count]
    for side, support in ((1, pair.b1), (2, pair.b2)):
        for a, b, c in combinations(support.elements, 3):
            groups.setdefault((0, b - a, c - a), [side, (a, b, c), 0])[2] += 1
    curves = [(shape, gcd(*shape)) for shape in groups]
    decided, points = _minor_certificates(sides, curves, rng)
    strata = []
    for i, ((_, g), (side, triple, count)) in enumerate(zip(curves, groups.values())):
        name = f"minor-curve(side={side}, triple={triple})"
        if i not in decided:
            reason = f"gap gcd {g} above {CERT_GAP_MAX}" if g > CERT_GAP_MAX else "a branch class no draw decided"
            strata.append(_Stratum("minor_curve", name, None, None, 2, {"triples": count, "reason": reason}))
        elif decided[i] is not None:
            _, kd1, kd2, p, t0, u0 = decided[i]
            fields = {"triples": count, "certificate": {"p": p, "t0": t0, "u0": u0}}
            strata.append(_Stratum("minor_curve", name, (kd1, kd2), (kd1 - d[0], kd2 - d[1]), 2, fields))
    return strata, points


def estimate_codim(
    pair: SupportPair,
    label: StratumLabel,
    seed: int = 0,
    n_max: int = DEFAULT_N_MAX,
) -> CodimEstimate:
    """Estimate the codimension of the filtration subset: the ambient
    dimension minus the largest dimension over the strata of
    `_solution_strata` (generic, root-of-unity tuples with n <= n_max, and
    single-minor curves), each decided exactly.

    The report lists the strata in enumeration order, with kd1, kd2 and r
    when decided, but not an empty root-of-unity class, which only the scan
    reads: the generic stratum whatever its dimension, each root-of-unity
    class with its tuple count, and each minor curve of a three-point label
    with its triple count and certificate (p, t0, u0), or, left undecided,
    with no dimension, `exact` false and the `reason`.  The curves draw from
    random.Random(seed).  `sample_count` sums the kinds' exact decisions and
    `timings` gives the seconds of each kind."""
    est = CodimEstimate(
        ambient_dim=len(pair.b1.elements) + len(pair.b2.elements),
        seed=seed,
        label=label.notation(),
        pair=pair.to_json(),
    )
    start = time.perf_counter()
    for kind, strata, samples in _solution_strata(pair, _sides(pair, label), n_max, seed):
        est.sample_count += samples
        est.strata += [stratum for stratum in strata if stratum.kind != "unity" or stratum.dim is not None]
        now = time.perf_counter()
        est.timings[f"{kind}_s"], start = now - start, now
    return est


# --- corank stratum scan ----------------------------------------------------


@dataclass
class ScanSReport:
    pair: dict
    label: str
    n_max: int
    found: dict = field(default_factory=dict)
    predictions: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    generic_corank: tuple | None = None
    generic_witness: dict | None = None
    wall_time: float = 0.0
    configs_scanned: int = 0
    timings: dict = field(default_factory=dict)

    def observed_strata(self) -> set:
        """The names of the strata that a probed tuple realized, in the
        notation of `predictions` (side1:c1, side2:c2 and joint:c1,c2), from
        the found corank pairs and the generic corank."""
        keys = set(self.found)
        if self.generic_corank is not None:
            keys.add(self.generic_corank)
        return {name for c1, c2 in keys for name in (f"side1:{c1}", f"side2:{c2}", f"joint:{c1},{c2}")}

    def side_observed(self, side: int, corank: int) -> bool:
        """Did any probed tuple realize the given corank on the given side?"""
        return f"side{side}:{corank}" in self.observed_strata()

    def to_json(self):
        return {
            "pair": self.pair,
            "label": self.label,
            "n_max": self.n_max,
            "found": {f"{k[0]},{k[1]}": v for k, v in self.found.items()},
            "predictions": {key: val for key, val in self.predictions.items()},
            "mismatches": self.mismatches,
            "generic_corank": self.generic_corank,
            "generic_witness": self.generic_witness,
            "wall_time_s": self.wall_time,
            "configs_scanned": self.configs_scanned,
            "version": __version__,
            "timings": self.timings,
        }


def _unity_coranks(side, ns, exps):
    """Exact corank sum(js) - rank of the multiplicity Vandermonde of a side
    record's support b and orders js at every root-of-unity tuple of a scan
    table (ns, exps); an int array.

    The side is ranked mod split_prime(n) for every tuple at once
    (`_hermite_stack`, `modular_rank`): rank_p <= rank <= min(rows, |b|),
    so a full rank_p is the rank, and only the other tuples take the
    conjugate ranks of `_conjugate_ranks`.  Only labels with no closed form
    (`_corank_classes`) come here, every side of them, order-1 sides too.
    """
    b, js, _ = side
    primes, roots = np.array([split_prime(n) for n in ns.tolist()], dtype=np.int64).reshape(-1, 2).T
    rank = modular_rank(_hermite_stack(b.elements, js, exps, ns, primes, roots), primes)
    short = np.flatnonzero(rank < min(sum(js), len(b)))
    if len(short):
        rank[short] = _conjugate_ranks(b.elements, js, ns[short], exps[short])
    return sum(js) - rank


def _conjugate_ranks(eff, js, ns, exps):
    """Exact rank over Q(zeta_n) of the multiplicity Vandermonde of the
    exponents eff at every root-of-unity tuple zeta_n^p, p in exps[s], n =
    ns[s]: the largest rank mod p of its phi(n) conjugates (the tuple times
    each unit k mod n) at each of the first m primes p = 1 mod n of
    split_primes(n), m the least with prod(p) > H.  One modular_rank call.

    Claim.  Let r be the rank and H the product of the R = min(rows, |eff|)
    largest row bounds isqrt(sum_e falling(e, d)^2) + 1, e unreduced, and
    let prod p > H.  Then the largest of those ranks is r.

    Proof.  Each conjugate at p is the image of the matrix under a ring map
    Z[zeta_n] -> F_p, so every rank mod p is at most r.  Some r-minor delta
    is nonzero.  An entry falling(e, d) x^(e-d) has |sigma(entry)| =
    |falling(e, d)| under every embedding sigma, so Hadamard's inequality
    gives |sigma(delta)| <= H: the row bounds exceed the row norms and are
    at least 1, so H covers any r <= R rows.  If delta vanished under every
    map zeta_n -> z^k mod p of every prime used, it would lie in pZ[zeta_n]
    for each p (`split_primes`), hence in (prod p)Z[zeta_n], and being
    nonzero its norm would force |sigma(delta)| >= prod p > H for some
    sigma.  So delta survives some (p, k), where the rank is at least r.
    """
    rows = [d for j in js for d in range(j)]
    norms = sorted((isqrt(sum(falling(e, d) ** 2 for e in eff)) + 1 for d in rows), reverse=True)
    bound = prod(norms[: min(len(rows), len(eff))])
    chosen = {}
    for n in set(ns.tolist()):
        chosen[n], modulus = [], 1
        for p, z in split_primes(n):
            chosen[n].append((p, z))
            modulus *= p
            if modulus > bound:
                break
    cases = [
        (s, n, [t * k % n for t in tup], p, z)
        for s, (n, tup) in enumerate(zip(ns.tolist(), exps.tolist()))
        for p, z in chosen[n]
        for k in units(n).tolist()
    ]
    owner, cns, cexps, primes, roots = (np.array(col, dtype=np.int64) for col in zip(*cases))
    ranks = modular_rank(_hermite_stack(eff, js, cexps, cns, primes, roots), primes)
    out = np.zeros(len(ns), dtype=np.int64)
    np.maximum.at(out, owner, ranks)
    return out


@lru_cache(maxsize=256)
def _hermite_layout(eff, js, n, p, shift):
    """The layout of `_hermite_stack` at one (n, p), as read-only arrays: the
    point m of each row (m, d), e - d - shift mod n and falling(e, d + shift)
    mod p for its entries.  Huge exponents reduce in Python ints.  Bounded,
    as eff comes from the input; a request at n_max 12 reads a few dozen."""
    rows = [(m, d + shift) for m, j in enumerate(js) for d in range(j)]
    tables = (
        np.array([m for m, _ in rows]),
        np.array([[(e - d) % n for e in eff] for _, d in rows], dtype=np.int64),
        np.array([[falling(e, d) % p for e in eff] for _, d in rows], dtype=np.int64),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _hermite_stack(eff, js, logs, orders, primes, roots, shift=0):
    """The multiplicity Vandermonde of the exponents eff with orders js mod
    p at every point x = (z^logs[s, m])_m, z = roots[s] of order n =
    orders[s] in F_p^*, p = primes[s]: the int64 stack (S, sum(js),
    len(eff)) whose row (m, d) holds falling(e, d + shift) x_m^(e - d -
    shift) mod p.  shift=1 gives its derivative in x_m, row by row.

    A root-of-unity tuple (zeta_n^(a_m))_m passes logs (a_m), order n and
    a split prime with its root z of order n: zeta_n -> z is a reduction of
    Z[zeta_n].  A point of F_p^* passes its logarithms to a generator of
    F_p^*, with n = p - 1.  One array pass per (n, p, z), on the cached
    `_hermite_layout` and `power_table`.
    """
    stack = np.empty((len(logs), sum(js), len(eff)), dtype=np.int64)
    for n, p, z in sorted(set(zip(orders.tolist(), primes.tolist(), roots.tolist()))):
        sel = np.flatnonzero((orders == n) & (primes == p) & (roots == z))
        point, exps, fall = _hermite_layout(eff, js, n, p, shift)
        stack[sel] = fall * power_table(z, n, p)[logs[sel][:, point, None] * exps % n] % p
    return stack


def _corank_classes(sides, n_max):
    """The nonzero corank classes of _scan_table(k, n_max), for the
    root-of-unity strata: {(c1, c2): (count, first tuple)} in scan order,
    a mapping that no caller writes to, grouped by `_classes_of` from both
    sides' corank arrays.
    A label of at most three roots whose every side has orders all 1, or
    (2, 1) or (1, 2) at k = 2, has a closed-form rank: each distinct side's
    signature (`_table_values`: its table values, and the gcd of its gap gcd
    with the lcm of the moduli, which a request computes once) is computed
    once, and the classes are one lookup in the cache of
    `_signature_classes`, read-only and keyed by (k, n_max) and the two
    signatures.  The rank lemma behind them is one of three rows, so any
    other label, such as N(2,2;1,1), k = 3 with multiplicities or k >= 4
    roots, ranks both sides at every tuple mod split primes
    (`_unity_coranks`).  Either way a side equal to the first is computed
    once (`_per_side`)."""
    k = len(sides[0].js)
    ns, exps, configs, moduli, _ = _scan_table(k, n_max)
    if k <= 3 and all(max(s.js) == 1 or sorted(s.js) == [1, 2] for s in sides):
        (cs1, g1), (cs2, g2) = _per_side(_table_values, sides, moduli, lcm(*moduli))
        return _signature_classes(k, n_max, cs1, g1, cs2, g2)
    return _classes_of(*_per_side(_unity_coranks, sides, ns, exps), configs)


# --- minor-curve certificate -------------------------------------------------


@lru_cache(maxsize=None)
def _certificate_prime(g, index):
    """The index-th prime p = 1 mod g above CERT_PRIME_MIN (index from 0)."""
    p, found = CERT_PRIME_MIN // g * g + 1, -1
    while True:
        if p > CERT_PRIME_MIN and is_prime(p):
            found += 1
            if found == index:
                return p
        p += g


def _log_powers(p):
    """powers[k] = gamma^k mod p for k < p - 1, gamma the least generator of
    F_p^*, as a read-only int64 array.  A point of F_p^* is named by its
    logarithm k, and x^e is powers[k * e mod (p - 1)] for every integer e."""
    return power_table(root_of_order(p - 1, p), p - 1, p)


def _class_key(coincide, order, gaps):
    """Per side, the pair of points whose g_s-th powers agree along a line
    branch of the given root-of-unity order if ord | g_s, else None."""
    g1, g2 = gaps
    return coincide if g1 % order == 0 else None, coincide if g2 % order == 0 else None


def _branch_classes(curve, gaps):
    """The class keys of the branches over t of the minor curve ((0, d1,
    d2), g), g = gcd(d1, d2) its gap gcd: one per line u = zeta t and u =
    zeta, zeta^g = 1 != zeta, merged by key, and (None, None) for the other
    branches, which exist iff the triple is no arithmetic progression (see
    `_minor_certificates`)."""
    (_, _, d2), g = curve
    keys = {_class_key(pair, d, gaps) for d in range(2, g + 1) if g % d == 0 for pair in ((1, 2), (0, 2))}
    if d2 > 2 * g:
        keys.add((None, None))
    return keys


def _kernel_floor(eff, js, triple, coincide):
    """L_s = |eff_s| - (a rank cap of side s along a branch class): the
    cap is the row count sum(js), less min(j_m, j_n) when the points
    coincide = (m, n) agree in their g_s-th powers (their rows of each order
    are then proportional), and 2 for three order-1 rows when eff_s is a
    translate of the triple (0, d1, d2) (the curve's minor, times a monomial
    per row)."""
    if js == (1, 1, 1) and len(eff) == 3 and (eff[1] - eff[0], eff[2] - eff[0]) == triple[1:]:
        return 1
    cap = sum(js) - (min(js[coincide[0]], js[coincide[1]]) if coincide else 0)
    return len(eff) - min(cap, len(eff))


def _branch_points(curves, gaps, p, taus):
    """Per minor curve ((0, d1, d2), g), (class key, log i, du/dt) for every
    simple root u0 = gamma^i of its minor polynomial at t0 = gamma^tau mod p
    with u0 not in {1, t0} whose coincidences x_m^(g_s) = x_n^(g_s) mod p
    are those of its class, in increasing i, from one evaluation at every
    point of F_p^* for all the curves at once.

    The minor is P = A + B u^d1 + C u^d2 with A = t^d1 - t^d2, B = t^d2 - 1,
    C = 1 - t^d1; a root u0 is simple iff u P_u = d1 B u0^d1 + d2 C u0^d2 is
    nonzero, and there the slope of the curve, du/dt = -P_t / P_u =
    -(u0 / t0) (t P_t) / (u P_u) with t P_t = d1 t0^d1 (1 - u0^d2) +
    d2 t0^d2 (u0^d1 - 1), is read off the same values."""
    powers, n = _log_powers(p), p - 1
    taus = np.asarray(taus, dtype=np.int64)
    tb, tc = powers[taus[:, None] * [[d1 % n, d2 % n] for (_, d1, d2), _ in curves] % n].T
    # int32 holds A + B v + C w < 3 p^2 for the primes of g <= CERT_GAP_MAX (p < 2^15)
    coef = (np.stack([tb - tc, tc - 1, 1 - tb]) % p).astype(np.int32)
    residues = sorted({d % n for (_, d1, d2), _ in curves for d in (d1, d2)})
    rows = powers[np.outer(residues, np.arange(n)) % n].astype(np.int32)
    at = {d: k for k, d in enumerate(residues)}
    v = rows[[at[d1 % n] for (_, d1, _), _ in curves]]
    w = rows[[at[d2 % n] for (_, _, d2), _ in curves]]
    value = (coef[0][:, None] + coef[1][:, None] * v + coef[2][:, None] * w) % p
    value[:, 0] = value[np.arange(len(taus)), taus] = 1  # drop u0 = 1 = gamma^0 and u0 = t0
    out = [[] for _ in curves]
    for c, i in zip(*(x.tolist() for x in np.nonzero(value == 0))):
        (_, d1, d2), g = curves[c]
        tau, vi, wi = int(taus[c]), int(v[c, i]), int(w[c, i])
        u_pu = (d1 * int(coef[1][c]) * vi + d2 * int(coef[2][c]) * wi) % p
        if u_pu == 0:
            continue
        if (i - tau) * g % n == 0:
            key = _class_key((1, 2), n // gcd(i - tau, n), gaps)
        elif i * g % n == 0:
            key = _class_key((0, 2), n // gcd(i, n), gaps)
        else:
            key = (None, None)
        # skip a point whose powers x^(g_s) agree mod p where its branch's do
        # not: its rank mod p drops, and it would certify nothing
        if any((tau * h % n == 0, (i - tau) * h % n == 0, i * h % n == 0) != (False, k == (1, 2), k == (0, 2)) for h, k in zip(gaps, key) if h):
            continue
        t_pt = d1 * int(tb[c]) * (1 - wi) + d2 * int(tc[c]) * (vi - 1)
        out[c].append((key, i, -int(powers[(i - tau) % n]) * t_pt * pow(u_pu, -1, p) % p))
    return out


def _certify_points(sides, points, seed):
    """(kd1, kd2, rank) mod p at every point (p, logs, du/dt) of a stack,
    logs = (0, tau, i) naming x0 = (1, t0, u0) in F_p^*: per side the kernel
    dimension |eff_s| - rank_p M_s(x0), from one `modular_kernel_vector` call
    per side that also draws f_s in ker M_s(x0) (free coordinates from
    random.Random(seed)), and the rank mod p of the two rows
    (dM1/dt f1, dM2/dt f2) and (M1 D f1, M2 D f2), D = diag(e), ranked by
    one `modular_rank` call on their transpose.  dM/dt moves x2 by 1 and x3
    by du/dt; M and its derivatives in x_m come from `_hermite_stack`, and
    D's entries are reduced mod p in Python ints, so an exponent past int64
    stays exact."""
    count = len(points)
    primes = np.array([p for p, _, _ in points], dtype=np.int64)
    logs = np.array([lg for _, lg, _ in points], dtype=np.int64)
    moves = np.array([[0, 1, dudt] for _, _, dudt in points], dtype=np.int64)
    roots = np.array([root_of_order(p - 1, p) for p in primes.tolist()], dtype=np.int64)
    col = primes[:, None]
    gen = random.Random(seed)
    kds, rows = [], []
    for b, js, _ in sides:
        eff = b.elements
        mat, dmat = (_hermite_stack(eff, js, logs, primes - 1, primes, roots, shift) for shift in (0, 1))
        rank, f = modular_kernel_vector(mat, primes, [[gen.getrandbits(31) for _ in eff] for _ in range(count)])
        kds.append(len(eff) - rank)
        rows.append(np.repeat(moves, js, axis=1) * ((dmat @ f[:, :, None])[:, :, 0] % col) % col)
        residues = (np.array(eff, dtype=object) % col).astype(np.int64)
        rows.append((mat @ (residues * f % col)[:, :, None])[:, :, 0] % col)
    tangent, orbit = np.concatenate(rows[0::2], axis=1), np.concatenate(rows[1::2], axis=1)
    return kds[0], kds[1], modular_rank(np.stack([tangent, orbit], axis=2), primes)


def _minor_certificates(sides, curves, rng):
    """Decide minor curves under a three-point label mod small primes, each
    given as its translate and gap gcd ((0, d1, d2), g) (`_curve_strata`):
    (decided, points) with decided[i] the best certified class of
    curves[i], (dim, kd1, kd2, p, t0, u0), or None when every class is
    empty; a curve whose gap gcd exceeds CERT_GAP_MAX, or which no retry
    decides, is absent.  `points` counts the certified points.

    The curve of the triple (a, b, c) = (0, d1, d2) is P(t, u) = 0, P the
    minor (t^b - t^c) u^a + (t^c - t^a) u^b + (t^a - t^b) u^c at x = (1, t,
    u); the torus factor c is 1 by the orbit argument of `_unity_strata`,
    and its direction is the orbit row below.  Each curve takes t0 =
    gamma^tau from rng at a prime p = 1 mod g (the index-th of
    `_certificate_prime`, CERT_PRIMES primes with up to CERT_T_TRIES * g
    draws each), and on each class that is still open, the first simple
    root u0 of P(t0, .) with u0 not in {0, 1, t0} and the slope du/dt
    there, both from one evaluation (`_branch_points`).  All points of a
    prime index are decided by one `_certify_points` call; each decided
    point counts once.  The cost of a curve, and the int32 bound of
    `_branch_points`, depend on g alone: the primes are those of g (all
    below 2^15 for g <= CERT_GAP_MAX), each draw evaluates P(t0, .) once
    over F_p^*, and exponents enter reduced mod p - 1.

    Lemma (lines).  P(t, zeta t) and P(t, zeta) vanish identically iff
    zeta^g = 1: the coefficients of P(t, zeta t) at the distinct powers
    t^(a+b), t^(a+c), t^(b+c) are zeta^a - zeta^b, zeta^c - zeta^a, zeta^b -
    zeta^c (up to sign), and likewise for P(t, zeta).  An irreducible
    branch along which u^h = t^h or u^h = 1 holds is one line u = zeta t or
    u = zeta with zeta^h = 1, so it is one of these lines; the other branches
    carry no coincidence of powers, and their degree in u is (c - a) - 2 -
    2(g - 1) = (c - a) - 2g, none when the triple is an arithmetic
    progression.  The lines t = zeta are not met: t^0 below is no root of
    unity.

    Class.  The simple root u0 lifts (Hensel) to the one root u^ in Z_p of
    P(t^0, .) with u^ = u0 mod p, t^0 the integer in [2, p) with t^0 = t0;
    x^ = (1, t^0, u^) is a smooth point of exactly one branch.  If (u0 /
    t0)^g = 1 mod p, the Teichmueller lift zeta of u0 / t0 has zeta^g = 1,
    so zeta t^0 is a root of P(t^0, .) (lemma) congruent to u0, hence it is
    u^: x^ lies on the line u = zeta t, zeta of the order of u0 / t0 in
    F_p^* (reduction is injective on the (p - 1)-th roots of unity).  The
    same holds for u0^g = 1 mod p and the line u = zeta.  Otherwise x^ is on
    no such line, hence on a branch with no coincidence.  Along the line u =
    zeta t of order d, x3^(g_s) = x2^(g_s) iff d | g_s, g_s the gap gcd of
    eff_s; never from a congruence of u0 on another branch.

    Claim.  Let L_s (`_kernel_floor`) bound kd_s from below along the class
    of x^, kd_p,s = |eff_s| - rank M_s(x0) mod p, and rho the rank mod p of
    the two rows of `_certify_points`.  If some kd_p,s = 0, the branch of
    x^ has kd_s = 0 generically and adds nothing.  If kd_p,s = L_s on both
    sides and rho = 2, the branch's component has dimension L1 + L2 + 2.

    Proof.  M_s(x^) has entries in Z_p, so rank M_s(x0) mod p <= rank M_s(x^)
    and kd(x^) <= kd_p; kernel dimension is upper semicontinuous, so
    kd_gen <= kd(x^) on the branch.  So L_s <= kd_gen <= kd(x^) <= kd_p,s
    = L_s forces equality, and kd_p = 0 forces kd_gen = 0.  Then the
    saturated lattice ker M_s(x^) cap Z_p^n reduces onto ker M_s(x0), so f_s
    lifts to f^_s in ker M_s(x^), and near x^ the kernels form a bundle of
    rank L_s over the branch times the torus.  The differential of (x, f1,
    f2) -> (f1, f2) at (x^, f^) spans ker M1 + ker M2 and one row (w1, w2)
    per tangent, M_s w_s = -(dM_s) f^_s: the t-tangent, consistent because
    the bundle is smooth, with du/dt = -P_t / P_u (P_u(x^) a unit), and the
    orbit row -(D f^1, D f^2).  Modulo the kernels, (w1, w2) -> (M1 w1, M2
    w2) is injective, so the rank is L1 + L2 + the rank of the two image
    rows over Q_p, at least their rank rho = 2 mod p.  It is at most the
    bundle's dimension L1 + L2 + 2, and the rank at a point bounds the
    generic rank, the component's dimension, from below.
    """
    gaps = [s.gap for s in sides]
    open_ = {i: _branch_classes(curve, gaps) for i, curve in enumerate(curves) if curve[1] <= CERT_GAP_MAX}
    found = {i: [] for i in open_}
    points = 0
    for index in range(CERT_PRIMES):
        # per open class, the first simple root over CERT_T_TRIES * g draws
        # of t0, in stages of 1, 1, 2, 4, ... draws for the curves with a
        # class still unmet.  Off the lines, P(t, u) = P'(t^g, u^g) for the
        # reduced triple's minor P', so a draw meets such a branch with odds
        # of about 1/g, those of v0 being a g-th power
        probes, wanted = [], {i: set(keys) for i, keys in open_.items() if keys}
        drawn = dict.fromkeys(wanted, 0)
        while wanted:
            by_prime = {}
            for i in wanted:
                _, g = curves[i]
                p = _certificate_prime(g, index)
                draws = min(max(drawn[i], 1), CERT_T_TRIES * g - drawn[i])
                if draws:
                    drawn[i] += draws
                    by_prime.setdefault(p, []).extend((i, rng.randrange(1, p - 1)) for _ in range(draws))
            if not by_prime:
                break
            for p, draws in by_prime.items():
                for start in range(0, len(draws), 64):  # bounds the (draws, p - 1) arrays
                    chunk = draws[start : start + 64]
                    roots = _branch_points([curves[i] for i, _ in chunk], gaps, p, [tau for _, tau in chunk])
                    for (i, tau), found_roots in zip(chunk, roots):
                        for key, iu, dudt in found_roots:
                            if key in wanted[i]:
                                wanted[i].discard(key)
                                probes.append((i, key, p, tau, iu, dudt))
            wanted = {i: keys for i, keys in wanted.items() if keys}
        if not probes:
            continue
        points_mod_p = [(p, (0, tau, iu), dudt) for _, _, p, tau, iu, dudt in probes]
        kd1, kd2, rho = _certify_points(sides, points_mod_p, rng.getrandbits(64))
        for (i, key, p, tau, iu, _), k1, k2, r in zip(probes, kd1.tolist(), kd2.tolist(), rho.tolist()):
            floors = [_kernel_floor(b.elements, js, curves[i][0], coincide) for (b, js, _), coincide in zip(sides, key)]
            if min(k1, k2) == 0:
                open_[i].discard(key)
            elif [k1, k2] == floors and r == 2:
                powers = _log_powers(p)
                found[i].append((k1 + k2 + 2, k1, k2, p, int(powers[tau]), int(powers[iu])))
                open_[i].discard(key)
            else:
                continue
            points += 1
    decided = {i: max(found[i], default=None, key=lambda c: c[0]) for i, keys in open_.items() if not keys}
    return decided, points


def scan_corank_strata(pair: SupportPair, label: StratumLabel, n_max: int = DEFAULT_N_MAX, seed: int = 0):
    """The nonzero side coranks (c1, c2) of the generic and root-of-unity
    strata of `_solution_strata` (n <= n_max), compared against the
    predicted nonempty corank strata (gap-gcd and split criteria).

    `found` holds each root-of-unity class with its tuple count and first
    tuple, in scan order.  A nonzero `generic_corank` has k distinct
    positive rationals from random.Random(seed) as its `generic_witness`
    (None at corank (0, 0)): Descartes' rule certifies it there
    (`_solution_strata`), so no generic tuple is ranked.  The report
    records the tuples scanned, the package version and the time spent on
    the unity and the generic strata.  Labels with boundary orders j0 or
    jinf raise ValueError: the scan ranks finite tuples only.
    """
    if label.k < 1 or label.k > 3:
        raise ValueError("scan supports labels with 1..3 roots")
    if label.j0 or label.jinf:
        raise ValueError(f"scan supports labels without boundary orders, got {label.notation()}")
    start = time.perf_counter()
    report = ScanSReport(pair.to_json(), label.notation(), n_max)
    sides = _sides(pair, label)
    kinds = _solution_strata(pair, sides, n_max, seed)
    (_, (generic,), _), (_, classes, report.configs_scanned) = next(kinds), next(kinds)
    for stratum in classes:
        n, tup = stratum.at
        report.found[stratum.corank] = {"count": stratum.fields["tuples"], "witness": {"kind": "unity", "n": n, "exponents": list(tup)}}
    unity_done = time.perf_counter()

    report.generic_corank = generic.corank
    if generic.corank != (0, 0):
        points = _distinct_points(random.Random(seed), label.k, positive=True)
        report.generic_witness = {"kind": "generic", "points": [str(x) for x in points]}
    generic_done = time.perf_counter()
    report.timings = {"unity_s": unity_done - start, "generic_s": generic_done - unity_done}

    report.predictions = _stratum_predictions(sides)
    realized = report.observed_strata()
    for key, predicted in report.predictions.items():
        observed = key in realized
        if predicted != observed:
            report.mismatches.append(
                {"stratum": key, "predicted_nonempty": predicted, "observed": observed}
            )
    report.wall_time = time.perf_counter() - start
    return report


def _stratum_predictions(sides):
    """Nonemptiness predictions for the characterized corank strata.

    Side predictions cover the one-polynomial strata (corank c on side i for
    some tuple); joint predictions cover the two-polynomial intersections.
    Strata without a sharp criterion are omitted.
    """
    (b1, js1, g1), (b2, js2, g2) = sides
    if max(js1 + js2) > 1:
        return {}
    k = len(js1)
    out = {}
    if k == 2:
        out["side1:1"] = g1 >= 2
        out["side2:1"] = g2 >= 2
        out["joint:1,1"] = gcd(g1, g2) >= 2
    if k == 3:
        out["side1:2"] = g1 >= 3
        out["side2:2"] = g2 >= 3
        out["joint:2,2"] = gcd(g1, g2) >= 3
        # the split criterion characterizes the mixed strata only when the
        # supports share no sublattice; order-2 row degeneracies defeat it
        # otherwise.  Coprime gap gcds also rule out a one-class split.
        if gcd(g1, g2) == 1:
            out["joint:1,2"] = split_dividing(b1, g2) is not None
            out["joint:2,1"] = split_dividing(b2, g1) is not None
    return out
