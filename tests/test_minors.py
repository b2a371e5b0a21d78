import cmath
import itertools
import random

import numpy as np
import pytest

from singres.exact import CycloElement
from singres import kernels
from singres.kernels import det3_unity_is_zero, reduction_table_array, unity_combo_is_zero
from singres.minors import (
    RootOfUnity,
    UnityPair,
    all_minors_vanish,
    exponent_power_minor_check,
    minors_split_equivalence_scan,
    proportionality_structure,
    two_class_split,
    unity_minor_check,
)
from singres.supports import SupportSet


def S(*xs):
    return SupportSet.of(*xs)


class TestUnityPair:
    def test_admissibility(self):
        with pytest.raises(ValueError):
            UnityPair(6, 0, 1)
        with pytest.raises(ValueError):
            UnityPair(6, 2, 2)
        u = UnityPair(6, 7, 2)  # reduces mod 6
        assert (u.p, u.q) == (1, 2)


class TestAllMinorsVanish:
    def test_examples(self):
        assert all_minors_vanish(S(0, 3, 6, 9), UnityPair(3, 1, 2))
        assert not all_minors_vanish(S(0, 1, 2), UnityPair(3, 1, 2))
        assert all_minors_vanish(S(0, 2, 3, 5), UnityPair(6, 2, 4))

    def test_small_support_vacuous(self):
        assert all_minors_vanish(S(0, 5), UnityPair(4, 1, 2))

    def test_negative_exponents(self):
        assert all_minors_vanish(S(-3, 0, 3), UnityPair(3, 1, 2))

    def test_float_cross_check(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(3, 12)
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - 1)
            if p == q:
                continue
            elems = sorted(rng.sample(range(-4, 9), rng.randint(3, 5)))
            b = SupportSet(tuple(elems))
            exact = all_minors_vanish(b, UnityPair(n, p, q))
            x = cmath.exp(2j * cmath.pi * p / n)
            y = cmath.exp(2j * cmath.pi * q / n)
            approx = True
            for a_, b_, c_ in itertools.combinations(elems, 3):
                m = np.array(
                    [[1, 1, 1], [x**a_, x**b_, x**c_], [y**a_, y**b_, y**c_]]
                )
                if abs(np.linalg.det(m)) > 1e-7:
                    approx = False
                    break
            assert exact == approx


class TestTwoClassSplit:
    def test_examples(self):
        c = two_class_split(S(0, 3, 6, 9), 3)
        assert (c.k, c.part_main, c.part_rest) == (3, (0, 3, 6, 9), ())
        c2 = two_class_split(S(0, 2, 3, 5), 6)
        assert (c2.k, c2.part_main, c2.part_rest) == (3, (0, 3), (2, 5))
        assert two_class_split(S(0, 1, 2), 3) is None

    def test_certificate_validity(self):
        for n in range(3, 13):
            for elems in itertools.combinations(range(9), 3):
                c = two_class_split(SupportSet(elems), n)
                if c is not None:
                    assert c.verify(SupportSet(elems), n)


class TestEquivalenceScan:
    def test_no_unexplained_and_converse_clean(self):
        rep = minors_split_equivalence_scan(8, 8, (3, 4))
        assert rep.unexplained == []
        assert rep.converse_counterexamples == []
        # every literal counterexample is an order-2 row degeneracy
        assert len(rep.order2_explained) == len(rep.forward_counterexamples)

    def test_known_order2_witness(self):
        b = S(0, 2, 4)
        assert all_minors_vanish(b, UnityPair(6, 1, 3))
        assert two_class_split(b, 6) is None

    def test_degenerate_n_skipped(self):
        rep = minors_split_equivalence_scan(2, 4, (3,))
        assert rep.pairs_checked == 0 and rep.counterexamples == []

    def test_hand_enumeration_n3_size3(self):
        # triples of [0, 8] mod 3: minors vanish for some admissible pair
        # iff at most 2 residue classes (split criterion with k = 3)
        for elems in itertools.combinations(range(9), 3):
            b = SupportSet(elems)
            classes = len({e % 3 for e in elems})
            expect = classes <= 2
            got = any(
                all_minors_vanish(b, UnityPair(3, p, q))
                for p, q in [(1, 2)]
            )
            assert got == expect


class TestMinorChecks:
    def test_power_matrix_examples(self):
        assert unity_minor_check(0, 1, 2, RootOfUnity(4, 1), RootOfUnity(4, 2)).tag == "Nondegenerate"
        out = unity_minor_check(0, 2, 4, RootOfUnity(4, 2), RootOfUnity(4, 1))
        assert (out.tag, out.rows) == ("PropRows", (1, 2))

    def test_power_matrix_property(self):
        # every vanishing determinant over roots of unity is explained
        for n in range(3, 31):
            table = reduction_table_array(n)
            for p in range(1, n):
                for q in range(p + 1, n):
                    for a, b, c in itertools.combinations(range(-6, 7), 3):
                        if det3_unity_is_zero(table, a, b, c, p, q):
                            out = unity_minor_check(a, b, c, RootOfUnity(n, p), RootOfUnity(n, q))
                            assert out.tag in ("PropRows", "PropCols"), (n, p, q, a, b, c)

    def test_power_matrix_float(self):
        out = unity_minor_check(0, 1, 2, cmath.exp(0.7j), cmath.exp(1.9j))
        assert out.tag == "Nondegenerate"
        out2 = unity_minor_check(0, 2, 4, -1 + 0j, cmath.exp(0.5j))
        assert out2.tag == "PropRows"

    def test_exponent_matrix_examples(self):
        assert exponent_power_minor_check(0, 1, 2, RootOfUnity(1, 0)).tag == "EqualRows13"
        assert exponent_power_minor_check(0, 1, 2, RootOfUnity(4, 1)).tag == "Nondegenerate"
        assert exponent_power_minor_check(0, 2, 4, RootOfUnity(2, 1)).tag == "EqualRows13"

    def test_exponent_matrix_property(self):
        for n in range(1, 31):
            for p in range(n):
                x = RootOfUnity(n, p)
                for a, b, c in itertools.combinations(range(-6, 7), 3):
                    out = exponent_power_minor_check(a, b, c, x)
                    if out.tag != "Nondegenerate":
                        assert out.tag == "EqualRows13"
                        assert x.pow_equal(a, b) and x.pow_equal(b, c)

    def test_distinct_exponents_required(self):
        with pytest.raises(ValueError):
            exponent_power_minor_check(1, 1, 2, RootOfUnity(5, 1))


class TestProportionalityStructure:
    def test_two_prop_rows(self):
        m = [[1, 2, 3], [2, 4, 6], [1, 5, 7]]
        assert proportionality_structure(m) == ("TwoPropRows", (1, 2))

    def test_column_groups(self):
        m = [
            [1, 1, 2, 1, 3],
            [1, 1, 2, 2, 6],
            [1, 1, 2, 3, 9],
        ]
        kind, groups = proportionality_structure(m)
        assert kind == "ColumnGroups"
        assert groups == ((1, 2, 3), (4, 5))

    def test_neither_on_generic_vandermonde(self):
        m = [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
        assert proportionality_structure(m) == ("Neither",)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            proportionality_structure([[1, 0, 1], [1, 1, 1], [1, 1, 2]])

    def test_vanishing_unity_matrices_never_neither(self):
        rng = random.Random(42)
        found = 0
        for _ in range(400):
            n = rng.randint(3, 10)
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - 1)
            if p == q:
                continue
            elems = tuple(sorted(rng.sample(range(0, 10), rng.randint(3, 5))))
            b = SupportSet(elems)
            u = UnityPair(n, p, q)
            if not all_minors_vanish(b, u):
                continue
            found += 1
            rows = [
                [CycloElement.root_power(n, 0) for _ in elems],
                [CycloElement.root_power(n, p * e) for e in elems],
                [CycloElement.root_power(n, q * e) for e in elems],
            ]
            assert proportionality_structure(rows)[0] != "Neither"
        assert found >= 10


class TestBackendsAgree:
    def test_kernels_match(self):
        from singres.kernels import get_backends

        backends = get_backends()
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(3, 14)
            table = reduction_table_array(n)
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - 1)
            elems = np.array(sorted(rng.sample(range(-5, 10), rng.randint(3, 5))), dtype=np.int64)
            results = {
                name: bool(mod.all_minors_vanish(table, elems, p, q))
                for name, mod in backends
            }
            assert len(set(results.values())) == 1, results
            a, b, c = map(int, elems[:3])
            single = {
                name: bool(mod.det3_unity_is_zero(table, a, b, c, p, q))
                for name, mod in backends
            }
            assert len(set(single.values())) == 1
            exps = [int(e) for e in elems[:3]]
            coefs = [rng.randint(-3, 3) for _ in exps]
            combo = {
                name: bool(mod.unity_combo_is_zero(table, exps, coefs))
                for name, mod in backends
            }
            assert len(set(combo.values())) == 1

    def test_combo_matches_cyclo_arithmetic(self):
        rng = random.Random(44)
        for _ in range(100):
            n = rng.randint(2, 15)
            table = reduction_table_array(n)
            exps = [rng.randint(-8, 8) for _ in range(4)]
            coefs = [rng.randint(-4, 4) for _ in range(4)]
            acc = CycloElement.zero(n)
            for e, c in zip(exps, coefs):
                acc = acc + CycloElement.root_power(n, e) * c
            assert unity_combo_is_zero(table, exps, coefs) == acc.is_zero


class TestBatchKernel:
    @staticmethod
    def _agrees(n, elems):
        table = reduction_table_array(n)
        pairs = [(p, q) for p in range(1, n) for q in range(1, n)]
        ps, qs = zip(*pairs)
        batch = kernels.all_minors_vanish_batch(table, elems, ps, qs)
        single = [kernels.all_minors_vanish_kernel(table, elems, p, q) for p, q in pairs]
        return batch.tolist() == single

    def test_matches_per_call_kernel(self):
        for n in range(3, 13):
            for size in range(3, 6):
                for elems in itertools.combinations(range(9), size):
                    assert self._agrees(n, elems), (n, elems)

    def test_chunked(self, monkeypatch):
        # six det3 terms x 10 triples x phi(7) = 360 entries per pair: 2 pairs a chunk
        monkeypatch.setattr(kernels, "BATCH_ELEMENTS", 720)
        for elems in [(0, 1, 3, 4, 6), (0, 2, 3, 5, 7), (-2, 0, 5, 7, 12)]:
            assert self._agrees(7, elems)

    def test_small_support_vacuous(self):
        out = kernels.all_minors_vanish_batch(reduction_table_array(5), (0, 4), [1, 2], [3, 4])
        assert out.tolist() == [True, True]

    def test_cached_table_is_read_only(self):
        table = reduction_table_array(9)
        assert reduction_table_array(9) is table
        with pytest.raises(ValueError):
            table[0, 0] = 7

