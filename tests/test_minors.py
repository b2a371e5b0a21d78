import cmath
import itertools
import random

import numpy as np
import pytest

from singres.exact import CycloElement
from singres import kernels
from singres.kernels import DET3_SIGNS, det3_exponents, reduction_table_array, unity_combos_vanish
from singres.minors import (
    RootOfUnity,
    UnityPair,
    admissible_pairs,
    all_minors_vanish,
    exponent_power_minor_check,
    minors_split_equivalence_scan,
    proportionality_structure,
    two_class_split,
    unity_minor_check,
)
from singres.supports import SupportSet
from singres.verify import check_unity_minor_explanations


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

    def test_admissible_pairs(self):
        ps, qs = admissible_pairs(5)
        assert list(zip(ps.tolist(), qs.tolist())) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert [len(admissible_pairs(n)[0]) for n in (2, 3, 12)] == [0, 1, 55]


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
        # every literal counterexample is an order-2 row degeneracy, listed
        # by n, then B, then pair (p-major)
        assert len(rep.order2_explained) == len(rep.forward_counterexamples) == 66
        assert rep.order2_explained[:3] == [
            {"n": 6, "B": [0, 2, 4], "p": 1, "q": 3, "mechanism": "y"},
            {"n": 6, "B": [0, 2, 4], "p": 1, "q": 4, "mechanism": "x/y"},
            {"n": 6, "B": [0, 2, 4], "p": 2, "q": 3, "mechanism": "y"},
        ]

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
        triples = list(itertools.combinations(range(-6, 7), 3))
        for n in range(3, 31):
            ps, qs = admissible_pairs(n)
            exps = det3_exponents(triples, ps, qs)
            vanish = unity_combos_vanish(reduction_table_array(n), exps, DET3_SIGNS)
            for i, t in np.argwhere(vanish).tolist():
                p, q = int(ps[i]), int(qs[i])
                out = unity_minor_check(*triples[t], RootOfUnity(n, p), RootOfUnity(n, q))
                assert out.tag in ("PropRows", "PropCols"), (n, p, q, triples[t])

    def test_unity_sweep_counts(self):
        # frozen (checked, power-matrix zeros, exponent-row zeros) of small sweeps
        expected = {
            (8, 4): (7728, 1149, 744),
            (10, 3): (6125, 450, 381),
            (12, 2): (2980, 87, 126),
            (14, 2): (4690, 105, 147),
        }
        for args, counts in expected.items():
            ok, d = check_unity_minor_explanations(*args)
            assert ok and d["unexplained"] == []
            assert (d["checked"], d["zeros_power_matrix"], d["zeros_exponent_matrix"]) == counts

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


def cyclo_det3(n, a, b, c, p, q):
    """det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]], x = z^p, y = z^q, in exact
    Z[zeta_n] arithmetic: cofactor expansion along the row of ones."""
    x = [CycloElement.root_power(n, p * e) for e in (a, b, c)]
    y = [CycloElement.root_power(n, q * e) for e in (a, b, c)]
    return (x[1] * y[2] - x[2] * y[1]) - (x[0] * y[2] - x[2] * y[0]) + (x[0] * y[1] - x[1] * y[0])


def det3_vanishes(table, a, b, c, p, q):
    """Reference det3 zero test over the reduction table, one minor per call:
    cofactor expansion along the row of ones, x^s y^t = z^(ps + qt)."""
    n = table.shape[0]

    def minor(s, t):  # x^s y^t - x^t y^s
        return table[(p * s + q * t) % n] - table[(p * t + q * s) % n]

    return not (minor(b, c) - minor(a, c) + minor(a, b)).any()


def all_minors_reference(table, elems, p, q):
    m = len(elems)
    return all(
        det3_vanishes(table, elems[i], elems[j], elems[k], p, q)
        for i in range(m - 2)
        for j in range(i + 1, m - 1)
        for k in range(j + 1, m)
    )


class TestComboKernel:
    def test_det3_matches_cyclo_arithmetic(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(3, 14)
            table = reduction_table_array(n)
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - 1)
            elems = sorted(rng.sample(range(-5, 10), rng.randint(3, 5)))
            triples = list(itertools.combinations(elems, 3))
            got = unity_combos_vanish(table, det3_exponents(triples, [p], [q]), DET3_SIGNS)[0]
            exact = [cyclo_det3(n, *t, p, q).is_zero for t in triples]
            assert got.tolist() == exact, (n, p, q, elems)
            batch = kernels.all_minors_vanish_batch(table, elems, [p], [q])
            assert batch.tolist() == [all(exact)]

    def test_combo_matches_cyclo_arithmetic(self, monkeypatch):
        rng = random.Random(44)
        cases = {}
        for _ in range(100):
            n = rng.randint(2, 15)
            exps = [rng.randint(-8, 8) for _ in range(4)]
            coefs = [rng.randint(-4, 4) for _ in range(4)]
            acc = CycloElement.zero(n)
            for e, c in zip(exps, coefs):
                acc = acc + CycloElement.root_power(n, e) * c
            table = reduction_table_array(n)
            assert unity_combos_vanish(table, [exps], [coefs]).tolist() == [acc.is_zero]
            cases.setdefault(n, []).append((exps, coefs, acc.is_zero))
        # the same combinations, one batch per modulus, whole and one row a chunk
        for budget in (kernels.BATCH_ELEMENTS, 1):
            monkeypatch.setattr(kernels, "BATCH_ELEMENTS", budget)
            for n, group in cases.items():
                exps, coefs, expect = zip(*group)
                got = unity_combos_vanish(reduction_table_array(n), exps, coefs)
                assert got.tolist() == list(expect)

    def test_empty_batch(self):
        out = unity_combos_vanish(reduction_table_array(5), np.zeros((0, 4, 6), dtype=np.int64), DET3_SIGNS)
        assert out.shape == (0, 4)


class TestBatchKernel:
    @staticmethod
    def _agrees(n, elems):
        table = reduction_table_array(n)
        pairs = [(p, q) for p in range(1, n) for q in range(1, n)]
        ps, qs = zip(*pairs)
        batch = kernels.all_minors_vanish_batch(table, elems, ps, qs)
        single = [all_minors_reference(table, elems, p, q) for p, q in pairs]
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

