import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singres import cli, supports
from singres.supports import (
    SupportPair,
    SupportSet,
    SplitWitness,
    check_conditions,
    class_counts,
    classify,
    gap_gcd,
    split_dividing,
)


def S(*xs):
    return SupportSet(sorted({*xs}))


def pair(b1, b2):
    return SupportPair(S(*b1), S(*b2))


class TestSupportSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupportSet(())
        with pytest.raises(ValueError):
            SupportSet((3, 1))

    def test_exponents_are_integers(self):
        b = SupportSet((np.int64(0), np.int32(2), 5))
        assert b.elements == (0, 2, 5) and {type(e) for e in b} == {int}
        for bad in (1.5, True, "2", 2.0):
            with pytest.raises(ValueError, match=f"exponents must be integers, got {bad!r}"):
                SupportSet((0, bad, 3))

    def test_json_roundtrip(self):
        p = pair((0, 1, 3), (-2, 0))
        assert cli._pair(p.to_json()) == p


class TestGapGcd:
    def test_examples(self):
        assert gap_gcd(S(0, 1, 3)) == 1
        assert gap_gcd(S(0, 3, 6)) == 3
        assert gap_gcd(S(5)) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(st.integers(-10, 10), min_size=1, max_size=6),
        st.integers(-20, 20),
    )
    def test_shift_invariant(self, elems, m):
        b = SupportSet(tuple(sorted(elems)))
        assert gap_gcd(SupportSet(tuple(e + m for e in b.elements))) == gap_gcd(b)

    def test_divides_iff_one_residue_class(self):
        for elems in combinations(range(0, 9), 3):
            b = SupportSet(elems)
            g = gap_gcd(b)
            for k in range(2, 10):
                one_class = len({e % k for e in elems}) == 1
                assert one_class == (g % k == 0)



class TestClassCount:
    # the sides of the corank tally's negative and huge exponent test
    # (tests/test_strata.py), past int64 and below zero, and a spread past
    # any modulus the package asks for
    BIG = (2**62 + 1, 2**63 + 5, 2**64 + 1, -(2**70) - 1)
    SIDES = [S(0, 2, b) for b in BIG] + [S(-7, -2, 0, 5), S(-(2**65), 3, 2**63), S(-12, -6, 0, 6), S(0, 3), S(0, 10**6), S(-(10**6), -3, 0)]

    def test_matches_residue_set(self):
        # one call per support over every n <= 12 and every n <= spread + 3:
        # the moduli past the spread take the |B| shortcut, those up to it
        # the residues; a huge spread is checked at the small moduli and on
        # both sides of the spread
        sides = self.SIDES + [S(0, *mid, top) for top in range(1, 9) for r in range(top) for mid in combinations(range(1, top), r)]
        checked = 0
        for i, b in enumerate(sides):
            ns = set(range(1, max(12, min(b.spread + 3, 64)) + 1)) | {b.spread + d for d in range(-3, 4) if b.spread + d >= 1}
            ns = sorted(ns, reverse=i % 2 == 1)  # the moduli may come in any order
            assert class_counts(b, ns) == [len({e % n for e in b}) for n in ns], b.elements
            checked += len(ns)
        assert len(sides) == 265 and checked > 3000
        assert class_counts(S(0, 1), []) == []


def brute_force_split(target: SupportSet, other: SupportSet):
    """Independent oracle: all 2-colorings of target, all k in [3, g]."""
    g = gap_gcd(other)
    n = len(target)
    for k in range(3, g + 1):
        if g % k:
            continue
        for mask in range(2**n):
            part1 = [e for i, e in enumerate(target.elements) if mask >> i & 1]
            part2 = [e for i, e in enumerate(target.elements) if not mask >> i & 1]
            ok = True
            for part in (part1, part2):
                if len({e % k for e in part}) > 1:
                    ok = False
            if ok:
                return True
    return False


class TestSplitWitness:
    def test_examples(self):
        w = split_dividing(S(0, 1, 3), gap_gcd(S(0, 3)))
        assert (w.k, w.part_main, w.part_rest) == (3, (0, 3), (1,))
        assert split_dividing(S(0, 1, 2), gap_gcd(S(0, 3))) is None
        w2 = split_dividing(S(0, 3, 6), gap_gcd(S(0, 6)))
        assert (w2.k, w2.part_main, w2.part_rest) == (3, (0, 3, 6), ())

    def test_witness_reverifies(self):
        for b1 in combinations(range(7), 3):
            for b2 in combinations(range(0, 9, 2), 2):
                w = split_dividing(SupportSet(b1), gap_gcd(SupportSet(b2)))
                if w is not None:
                    assert w.verify(SupportSet(b1))

    def test_verify_checks_part_gap_gcds(self):
        b = S(0, 1, 3, 4)
        assert SplitWitness(3, (0, 3), (1, 4)).verify(b)
        assert not SplitWitness(3, (0, 1), (3, 4)).verify(b)  # part gap gcds are 1
        assert not SplitWitness(3, (0, 3), (1,)).verify(b)  # not a partition of b
        assert not SplitWitness(2, (0, 4), (1, 3)).verify(b)  # k < 3
        assert SplitWitness(3, (0, 3, 6), ()).verify(S(0, 3, 6))  # empty part

    def test_against_brute_force(self):
        import itertools

        targets = [SupportSet(c) for c in itertools.combinations(range(8), 3)]
        others = [S(0, 3), S(0, 6), S(0, 4, 8), S(2, 5), S(0, 12)]
        for t in targets:
            for o in others:
                assert (split_dividing(t, gap_gcd(o)) is not None) == brute_force_split(t, o)

    def test_against_brute_force_larger_targets(self):
        import itertools

        others = [S(0, 6), S(0, 12)]
        for size in (4, 5, 6):
            for c in itertools.combinations(range(0, 11), size):
                t = SupportSet(c)
                for o in others:
                    assert (split_dividing(t, gap_gcd(o)) is not None) == brute_force_split(t, o)


def split_dividing_loop(target, m):
    """The search over every k in 3..m: the oracle of `split_dividing`."""
    for k in range(3, m + 1):
        if m % k == 0 and class_counts(target, (k,))[0] <= 2:
            main = tuple(e for e in target.elements if (e - target.min) % k == 0)
            rest = tuple(e for e in target.elements if (e - target.min) % k)
            return SplitWitness(k, main, rest)
    return None


class TestSplitDividing:
    def test_matches_full_search(self):
        # the pigeonhole candidates give the full search's witness, None
        # included: targets of 1 to 6 elements, spread up to 40 and shifted
        # by up to +-50, against moduli 0..360 and products of small primes
        rng = random.Random(20261020)
        moduli = list(range(0, 361)) + [2**a * 3**b * 5**c * 7**d for a in range(4) for b in range(3) for c in range(3) for d in range(2)]
        found = 0
        for _ in range(3000):
            shift = rng.randint(-50, 50)
            target = SupportSet(tuple(sorted(shift + e for e in rng.sample(range(41), rng.randint(1, 6)))))
            m = rng.choice(moduli)
            w = split_dividing(target, m)
            assert w == split_dividing_loop(target, m), (target.elements, m)
            found += w is not None
        assert found > 1000

    def test_huge_moduli(self):
        # no search up to m: a two-element target takes the least divisor
        # >= 3 of m, and a larger one only divisors of its first differences
        big = 10**12
        assert split_dividing(S(0, big), big).k == 4
        assert split_dividing(S(0, 1, 3), big) is None
        w = split_dividing(S(0, 1, 3, 7), 3 * big)
        assert (w.k, w.part_main, w.part_rest) == (3, (0, 3), (1, 7))
        prime = 10**12 + 39
        assert split_dividing(S(5, 6), prime).k == prime
        assert split_dividing(S(5, 6), 2 * prime).k == prime
        for m in (-3, 0, 1, 2):
            assert split_dividing(S(0, 3, 6), m) is None

    @pytest.mark.parametrize(
        "target, m, k",
        [
            ((0, 1), 2**60, 4),
            ((0, 1), 2**80, 4),
            ((0, 2**60, 2**61), 2**80, 4),
            ((0, 1), 3**60 * 5, 3),
            ((0, 1), 5**40 * 2**3, 4),
            ((0, 1), 7**30 * 5**30, 5),
            # meets three classes mod 4 and mod every power of two
            ((0, 2**80, 2**81, 2**81 + 1, 2**81 + 2), 2**80 * 3**40, None),
        ],
    )
    def test_smooth_gcd_search_is_short(self, monkeypatch, target, m, k):
        # a gcd with only small prime factors is divided down at once: the
        # search tries 4 and the odd primes dividing it, with no trial
        # division up to its square root, and stops at the first split
        tried = []
        monkeypatch.setattr(supports, "class_counts", lambda b, moduli: tried.extend(moduli) or class_counts(b, moduli))
        w = split_dividing(SupportSet(target), m)
        assert (w and w.k) == k
        assert tried == ([k] if k else [4])


class TestConditions:
    def test_worked_pair(self):
        r = check_conditions(pair((0, 1, 3), (0, 3)))
        assert tuple(i for i in range(1, 7) if r.flag(i)) == (2, 4, 5)

    def test_classical(self):
        r = check_conditions(pair((0, 1, 2, 3), (0, 1, 2)))
        assert not any(r.flag(i) for i in range(1, 7))

    def test_equal_gap_two_element(self):
        r = check_conditions(pair((2, 5), (7, 10)))
        assert r.flag(1) and r.flag(6)
        assert r.witnesses["cond1"]["k"] == 3
        assert r.witnesses["cond6"]["k"] == 3

    def test_end_gap_witnesses(self):
        # the differences themselves, on supports whose minima are not 0
        r = check_conditions(pair((1, 3, 6), (2, 5, 9)))
        assert r.witnesses["cond3"] == {"leftmost_gaps": [2, 3]}
        assert r.witnesses["cond4"] == {"rightmost_gaps": [3, 4]}

    def test_cond1_implies_cond3_and_cond4(self):
        # every gap is a multiple of the common k >= 2
        sets = [S(*c) for n in (2, 3, 4) for c in combinations(range(7), n)]
        for b1, b2 in combinations(sets, 2):
            r = check_conditions(SupportPair(b1, b2))
            assert not r.flag(1) or (r.flag(3) and r.flag(4))

    def test_swap_symmetry(self):
        import itertools

        sets = [S(0, 1, 3), S(0, 3), S(0, 2, 4), S(1, 5), S(0, 1, 2)]
        for b1, b2 in itertools.permutations(sets, 2):
            a = check_conditions(SupportPair(b1, b2))
            b = check_conditions(SupportPair(b2, b1))
            for i in (1, 2, 3, 4, 5, 6):
                assert a.flag(i) == b.flag(i), f"condition {i} not symmetric"


class TestClassify:
    def test_classical_all_guaranteed(self):
        v = classify(check_conditions(pair((0, 1, 2, 3), (0, 1, 2, 3))))
        assert v.part_i_generic_a1
        assert all(row.guaranteed for row in v.per_subset)

    def test_sublattice_blocks(self):
        v = classify(check_conditions(pair((0, 3, 6), (0, 3))))
        rows = {r.subset: r for r in v.per_subset}
        assert not rows["N(1,1)"].guaranteed
        assert 1 in rows["N(1,1)"].blocking_conditions

    def test_common_gap_pair(self):
        v = classify(check_conditions(pair((0, 1), (0, 1))))
        assert not v.part_ii_codim2
        assert v.part_i_generic_a1

    def test_two_element_spread(self):
        for b2 in [(0, 1, 3), (0, 4), (0, 2, 5)]:
            v = classify(check_conditions(pair((0, 1), b2)))
            spread = max(b2) - min(b2)
            assert v.part_i_generic_a1 == (spread <= 2)

    def test_part_i_implies_all_guaranteed(self):
        import itertools

        for b1 in itertools.combinations(range(5), 3):
            for b2 in itertools.combinations(range(5), 2):
                v = classify(check_conditions(SupportPair(SupportSet(b1), SupportSet(b2))))
                if v.part_i_generic_a1:
                    assert all(r.guaranteed for r in v.per_subset)
