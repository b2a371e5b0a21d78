"""Support-set combinatorics for pairs of sparse univariate polynomials.

A support set is a finite strictly increasing tuple of integer exponents.
This module decides the six degeneracy conditions on a support pair and
builds the per-filtration-subset guarantee table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "SupportSet",
    "SupportPair",
    "SplitWitness",
    "ConditionReport",
    "SubsetGuarantee",
    "Verdict",
    "gap_gcd",
    "class_counts",
    "split_dividing",
    "check_conditions",
    "classify",
    "GUARANTEE_TABLE",
]


def _exponents(values):
    """The tuple of ints that `operator.index` gives for values, so numpy
    ints pass; a bool, or a value that is not an integer (1.5, "2"), raises
    ValueError naming it.  Both maps run in C: no Python call per value."""
    values = tuple(values)
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    bad = next(e for e in values if isinstance(e, bool) or not hasattr(e, "__index__"))
    raise ValueError(f"exponents must be integers, got {bad!r}")


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing finite set of integer exponents."""

    elements: tuple

    def __post_init__(self):
        elems = _exponents(self.elements)
        if not elems:
            raise ValueError("support set must be nonempty")
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("support set must be strictly increasing")
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    @property
    def min(self):
        return self.elements[0]

    @property
    def max(self):
        return self.elements[-1]

    @property
    def spread(self):
        return self.elements[-1] - self.elements[0]

    def to_json(self):
        return list(self.elements)


@dataclass(frozen=True)
class SupportPair:
    b1: SupportSet
    b2: SupportSet

    def __post_init__(self):
        if len(self.b1.elements) < 2 or len(self.b2.elements) < 2:
            raise ValueError("each support set needs at least two elements")

    def to_json(self):
        return {"b1": self.b1.to_json(), "b2": self.b2.to_json()}


def gap_gcd(b: SupportSet) -> int:
    """gcd of consecutive differences; 0 for singletons.

    The 0 convention makes singletons (and the empty part of a split)
    divisible by every modulus, matching how empty split parts behave.
    """
    g = 0
    for a, c in zip(b.elements, b.elements[1:]):
        g = math.gcd(g, c - a)
    return g


@dataclass(frozen=True)
class SplitWitness:
    """Partition target = part_main | part_rest with the gap gcd of each part
    divisible by k >= 3: target occupies at most two residue classes mod k.

    The empty part is allowed (its gap gcd 0 is divisible by everything).
    """

    k: int
    part_main: tuple
    part_rest: tuple

    def verify(self, target: SupportSet) -> bool:
        if self.k < 3:
            return False
        merged = tuple(sorted(self.part_main + self.part_rest))
        if merged != target.elements:
            return False
        # a part's gap gcd is the gcd of its differences from any one element
        parts = (self.part_main, self.part_rest)
        return all(math.gcd(*(e - part[0] for e in part)) % self.k == 0 for part in parts if part)

    def to_json(self):
        return {"k": self.k, "part_main": list(self.part_main), "part_rest": list(self.part_rest)}


def class_counts(b: SupportSet, moduli) -> list:
    """|B mod n| for every n >= 1 of moduli, the number of residue classes
    mod n that B meets, as a list in the order of moduli.

    Every difference of two elements lies in (0, spread], so for n > spread
    no two share a class and the count is |B|, with no residue taken.  The
    one residue count of the package: O(|B|) per modulus, whatever the
    spread.
    """
    elems = b.elements
    size, spread = len(elems), elems[-1] - elems[0]
    return [len({e % n for e in elems}) if n <= spread else size for n in moduli]


def split_dividing(target: SupportSet, m: int):
    """Smallest k >= 3 dividing m whose residues split target into at most
    two classes (`class_counts` <= 2), with the residue-class partition
    (part_main holds the class of the minimum); None if none, so for every
    m <= 2, 0 included.

    Lemma (pigeonhole).  A target of at most two elements splits mod every
    k.  A target of three or more, a < b < c its three smallest elements,
    splits mod k only if k divides b - a, c - a or c - b.  Proof.  Two
    elements meet at most two classes.  If the target meets at most two
    classes mod k, two of a, b and c share one, and k divides their
    difference.

    Lemma (least split).  The least such k is 4 or an odd prime.  Proof.
    If the target splits mod k and j >= 3 divides k, j divides m and the
    target splits mod j: each class mod j is a union of classes mod k.  A
    k >= 3 that is neither 4 nor a prime is a * b with 2 <= a <= b < k,
    and b >= 3 unless k = 4, so b is such a j below k.

    So the candidates are 4 and the odd primes that divide one of the gcds
    of m with b - a, c - a and c - b (three or more elements), or m itself
    (gcd(m, 0), at most two).  Such a k divides one of them iff it divides
    their lcm L, a divisor of m, as a prime or 4 divides an lcm iff it
    divides one of its terms.  Trial division of L's odd part finds its
    primes in increasing order, each divided out once found, and the first
    k that splits ends the search.  Once k * k exceeds the odd part left,
    that part, if above 1, is a prime above every k tried, and is tried
    last.  So the search takes O(min(k, sqrt(r))) steps, r the odd part
    left, at most sqrt(m): a power of two m gives 4 on the second step,
    whatever its size.
    """
    if m <= 2:
        return None
    elems = target.elements
    a, b, c = elems[:3] if elems[2:] else (0, 0, 0)
    lcm = math.lcm(math.gcd(m, b - a), math.gcd(m, c - a), math.gcd(m, c - b))

    def candidates(odd):
        k = 3
        while k <= 4 or k * k <= odd:
            if k == 4:
                if lcm % 4 == 0:
                    yield 4
            elif odd % k == 0:
                yield k
                while odd % k == 0:
                    odd //= k
            k += 1 if k < 5 else 2
        if odd > 1:
            yield odd

    for k in candidates(lcm // (lcm & -lcm)):
        if class_counts(target, (k,))[0] <= 2:
            main = tuple(e for e in elems if (e - elems[0]) % k == 0)
            rest = tuple(e for e in elems if (e - elems[0]) % k)
            return SplitWitness(k, main, rest)
    return None


@dataclass(frozen=True)
class ConditionReport:
    """The six degeneracy conditions, each held by its witness: condition i
    holds iff `witnesses` has the key f"cond{i}".

    cond1: both gap gcds share a divisor k >= 2.
    cond2: one side splits into two residue classes mod some k >= 3 dividing
           the other side's gap gcd.
    cond3/cond4: on both sides the two leftmost / rightmost exponents differ
           by more than 1.
    cond5: one side has exactly two exponents while the other side's spread
           exceeds 2.
    cond6: both sides are two-element sets with the same gap.
    """

    witnesses: dict = field(default_factory=dict)

    def flag(self, i: int) -> bool:
        return f"cond{i}" in self.witnesses

    def to_json(self):
        out = {f"cond{i}": self.flag(i) for i in range(1, 7)}
        out["witnesses"] = dict(self.witnesses)
        return out


def check_conditions(pair: SupportPair) -> ConditionReport:
    b1, b2 = pair.b1, pair.b2
    g1, g2 = gap_gcd(b1), gap_gcd(b2)
    witnesses = {}

    common = math.gcd(g1, g2)
    if common >= 2:
        witnesses["cond1"] = {"k": common}

    # a set shifts into kZ iff it lies in one residue class mod k iff k divides
    # its gap gcd, so searching the divisors of the other gap gcd is complete
    w12 = split_dividing(b1, g2)
    w21 = split_dividing(b2, g1)
    if w12 is not None:
        witnesses["cond2"] = {"side_split": 1, **w12.to_json()}
    elif w21 is not None:
        witnesses["cond2"] = {"side_split": 2, **w21.to_json()}

    if all(b.elements[1] - b.elements[0] > 1 for b in (b1, b2)):
        witnesses["cond3"] = {
            "leftmost_gaps": [b1.elements[1] - b1.elements[0], b2.elements[1] - b2.elements[0]]
        }
    if all(b.elements[-1] - b.elements[-2] > 1 for b in (b1, b2)):
        witnesses["cond4"] = {
            "rightmost_gaps": [b1.elements[-1] - b1.elements[-2], b2.elements[-1] - b2.elements[-2]]
        }
    if len(b1) == 2 and b2.spread > 2:
        witnesses["cond5"] = {"two_element_side": 1}
    elif len(b2) == 2 and b1.spread > 2:
        witnesses["cond5"] = {"two_element_side": 2}
    if len(b1) == 2 and len(b2) == 2 and b1.spread == b2.spread:
        witnesses["cond6"] = {"k": b1.spread}

    return ConditionReport(witnesses)


# (subset name, expected codimension, conditions that break the guarantee)
GUARANTEE_TABLE = (
    ("N(1)", 1, ()),
    ("N(1,1)", 2, (1,)),
    ("N_1^0", 2, ()),
    ("N_0^1", 2, ()),
    ("N(2)", 3, ()),
    ("N(1,1,1)", 3, (1, 2, 3, 4, 5)),
    ("N_0^1(1)", 3, ()),
    ("N_1^0(1)", 3, ()),
    ("N(2,1;1,1)", 3, (1,)),
    ("N(1,1;2,1)", 3, (1,)),
)


@dataclass(frozen=True)
class SubsetGuarantee:
    subset: str
    expected_codim: int
    guaranteed: bool
    blocking_conditions: tuple

    def to_json(self):
        return {
            "subset": self.subset,
            "expected_codim": self.expected_codim,
            "guaranteed": self.guaranteed,
            "blocking_conditions": list(self.blocking_conditions),
        }


@dataclass(frozen=True)
class Verdict:
    """Generic-A1 / codimension-2 verdict with the per-subset guarantee table.

    part_i_generic_a1: no degeneracy condition (1)-(5) holds, so away from a
    codimension-3 exceptional set the resultant's transversal singularity
    type at singular points is A1.
    part_ii_codim2: condition (6) does not hold, so the singular locus has
    components of codimension 2.
    """

    part_i_generic_a1: bool
    part_ii_codim2: bool
    per_subset: tuple

    def to_json(self):
        return {
            "part_i_generic_A1": self.part_i_generic_a1,
            "part_ii_codim2": self.part_ii_codim2,
            "per_subset_guarantees": [g.to_json() for g in self.per_subset],
        }


def classify(report: ConditionReport) -> Verdict:
    """The verdict and guarantee table of a condition report.  Condition (1)
    implies (3) and (4), so part (i) never rests on (1) alone."""
    rows = []
    for name, codim, breaking in GUARANTEE_TABLE:
        blocking = tuple(i for i in breaking if report.flag(i))
        rows.append(SubsetGuarantee(name, codim, not blocking, blocking))
    part_i = not any(report.flag(i) for i in range(1, 6))
    part_ii = not report.flag(6)
    return Verdict(part_i, part_ii, tuple(rows))
