import cmath
import functools
import itertools
import random
from math import gcd

import numpy as np
import pytest

import cyclo_oracle
from cyclo_oracle import CycloElement, RootOfUnity, UnityPair, cyclo_det3, power_rank
from singres import minors, verify
from singres.exact import split_prime, units
from singres.kernels import conjugate_zeros
from singres.minors import (
    _order2_mechanism,
    _rank,
    ScanReport,
    admissible_pairs,
    gap_root,
    minors_split_equivalence_scan,
    two_class_split,
)
from singres.supports import SplitWitness, SupportSet, class_counts, gap_gcd
from singres.verify import _DET3_SIGNS, _DET3_X, _DET3_Y, _conjugate_rows, check_unity_minor_explanations


def S(*xs):
    return SupportSet(sorted({*xs}))


def closed_form_rank(b, n, ps, qs):
    """The rank of M(B; zeta_n^p, zeta_n^q) for every pair (ps[i], qs[i]),
    n one modulus or one per pair, composed from the lemmas of
    `minors._rank`: the period m = n/gcd(n, p, q), the residue count
    |B mod m| (`class_counts`, once per distinct period) and the gap test
    (`gap_root`) at h = n/gcd(n, g), the order of zeta_n^g, g the gap gcd
    of B (in Python ints, so a huge g stays exact)."""
    ps, qs = np.asarray(ps, dtype=np.int64), np.asarray(qs, dtype=np.int64)
    ns = np.broadcast_to(np.asarray(n, dtype=np.int64), ps.shape)
    periods = (ns // np.gcd(ns, np.gcd(ps, qs))).tolist()
    distinct = sorted(set(periods))
    counts = dict(zip(distinct, class_counts(b, distinct)))
    g = gap_gcd(b)
    h = np.array([k // gcd(k, g) for k in ns.tolist()], dtype=np.int64)
    return _rank(np.array([counts[m] for m in periods], dtype=np.int64), gap_root(h, ps, qs))


def power_minor_rank(n, ps, qs, triples):
    """closed_form_rank at B = {a, b, c} for every row of triples: an int
    array (pairs, triples)."""
    return np.stack([closed_form_rank(S(*t), n, ps, qs) for t in triples], axis=-1)


def exponent_minor_rank(n, ps, triples):
    """The rank of the rows 1, e, x^e over e in {a, b, c}, x = zeta_n^p, for
    every p of ps and row of triples, by `minors._rank` (lemma (2, 1) rows):
    an int array (ps, triples)."""
    g = np.array([gap_gcd(S(*t)) for t in np.asarray(triples).tolist()], dtype=np.int64)
    return _rank(3, np.asarray(ps, dtype=np.int64)[:, None] % (n // np.gcd(n, g)) == 0)


def all_minors_vanish(b, u):
    """The oracle's all-minors test in Z[zeta_n], asserted equal to the
    closed form of closed_form_rank."""
    want = cyclo_oracle.all_minors_vanish(b, u)
    assert (closed_form_rank(b, u.n, [u.p], [u.q]) <= 2).tolist() == [want], (b, u)
    return want


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


def reference_equivalence_scan(n_max, spread_max, sizes):
    """minors_split_equivalence_scan one (B, n) at a time: one
    closed_form_rank call per support and modulus over that modulus's
    admissible pairs, the report filled in n, B, pair order as it goes."""
    sizes = tuple(sorted(set(sizes)))
    report = ScanReport(n_max, spread_max, sizes)
    subsets = [comb for size in sizes for comb in itertools.combinations(range(spread_max + 1), size)]
    for n in range(3, n_max + 1):
        ps, qs = admissible_pairs(n)
        for elems in subsets:
            b = SupportSet(elems)
            split = two_class_split(b, n)
            vanish = closed_form_rank(b, n, ps, qs) <= 2
            report.pairs_checked += len(ps)
            if split is None:
                for i in np.flatnonzero(vanish):
                    p, q = int(ps[i]), int(qs[i])
                    cex = {"n": n, "B": list(elems), "p": p, "q": q}
                    report.forward_counterexamples.append(cex)
                    mech = _order2_mechanism(gap_gcd(b), n, p, q)
                    if mech is not None:
                        report.order2_explained.append({**cex, "mechanism": mech})
                    else:
                        report.unexplained.append(cex)
            if split is not None and not vanish.any():
                report.converse_counterexamples.append({"n": n, "B": list(elems)})
            report.sets_checked += 1
    return report


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
                    assert c.verify(SupportSet(elems)) and n % c.k == 0


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

    @pytest.mark.parametrize(
        "args",
        [(10, 8, (3, 4))]
        + [(n, 5, sizes) for n in (6, 7, 8) for sizes in ((3,), (4,), (3, 4))]
        # one modulus; singletons and two-element sets; n_max < 3; no subset
        + [(3, 2, (3,)), (3, 5, (1, 2)), (2, 4, (3,)), (5, 3, (5,)), (9, 6, (2, 3))],
    )
    def test_matches_per_modulus_reference(self, args):
        got, want = minors_split_equivalence_scan(*args), reference_equivalence_scan(*args)
        for rep in (got, want):
            rep.wall_time = 0.0
        assert got.to_json() == want.to_json()
        assert (got.order2_explained, got.unexplained) == (want.order2_explained, want.unexplained)

    def test_split_flags_need_verified_certificates(self, monkeypatch):
        monkeypatch.setattr(SplitWitness, "verify", lambda self, target: False)
        with pytest.raises(AssertionError):
            minors_split_equivalence_scan(8, 5, (3, 4))

    def test_one_certificate_per_support_and_divisor(self, monkeypatch):
        calls = []

        def counted(b, k):
            calls.append((b.elements, k))
            return two_class_split(b, k)

        monkeypatch.setattr(minors, "two_class_split", counted)
        minors_split_equivalence_scan(10, 8, (3, 4))
        assert len(calls) == len(set(calls)) == 209

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


def det3_zeros(n, triples, ps, qs):
    """Does det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] vanish, x = zeta_n^p,
    y = zeta_n^q, for every pair (ps[i], qs[i]) and row (a, b, c) of
    `triples`?  A bool array (pairs, triples), from one zero test of the six
    det3 terms; the pairs must be closed under the units mod n, up to
    swapping p and q."""
    ps, qs = np.asarray(ps, dtype=np.int64), np.asarray(qs, dtype=np.int64)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    exps = ps[:, None, None] * triples[:, _DET3_X] + qs[:, None, None] * triples[:, _DET3_Y]
    return conjugate_zeros(n, exps, _DET3_SIGNS, _conjugate_rows(n, ps, qs))


@functools.cache
def _det3_grid(n, triples):
    """det3_zeros at every (p, q) in [0, n)^2, a closed row set, as a
    read-only bool array (n * n, triples), row p * n + q; cached, since the
    oracles ask one (n, triples) again and again."""
    grid_p, grid_q = np.divmod(np.arange(n * n), n)
    zeros = det3_zeros(n, triples, grid_p, grid_q)
    zeros.setflags(write=False)
    return zeros


def det3_vanish(n, triples, ps, qs):
    """det3_zeros at any pairs (ps[i], qs[i]), read off `_det3_grid`."""
    grid = _det3_grid(n, tuple(map(tuple, triples)))
    return grid[np.asarray(ps) % n * n + np.asarray(qs) % n]


def exponent_vanish(n, triples, ps):
    """Does (b-a) x^c + (a-c) x^b + (c-b) x^a vanish, x = zeta_n^p, for
    every ps[i] and row (a, b, c) of `triples`?  A bool array (len(ps),
    triples), read off one zero test at every p in [0, n), a closed row
    set."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    a, b, c = triples.T
    rows = np.arange(n)
    vanish = conjugate_zeros(n, rows[:, None, None] * triples[:, ::-1], np.stack([b - a, a - c, c - b], axis=1), _conjugate_rows(n, rows))
    return vanish[np.asarray(ps) % n]


def orbit_vanish(n, exps, coefs):
    """Is sum_t coefs[s][t] zeta_n^exps[s][t] zero in Z[zeta_n], for each
    sum s?  A bool list from one zero test over the phi(n) conjugates of
    every sum: row i * len(exps) + s is sum s with its exponents times the
    unit k_i, so sigma_(k_j) takes it to the row of the unit k_i k_j mod n."""
    ks, exps = units(n), np.asarray(exps, dtype=np.int64)
    at = np.full(n, -1)
    at[ks] = np.arange(len(ks))
    index = at[np.outer(ks, ks) % n][:, None, :] * len(exps) + np.arange(len(exps))[:, None]
    orbit = (ks[:, None, None] * exps).reshape(-1, exps.shape[-1])
    vanish = conjugate_zeros(n, orbit, np.tile(coefs, (len(ks), 1)), index.reshape(-1, len(ks))).reshape(len(ks), -1)
    assert (vanish == vanish[0]).all()  # a sum and its conjugates vanish together
    return vanish[0].tolist()


class TestMinorChecks:
    def test_power_matrix_examples(self):
        assert cyclo_oracle.unity_minor_check(0, 1, 2, RootOfUnity(4, 1), RootOfUnity(4, 2)).tag == "Nondegenerate"
        out = cyclo_oracle.unity_minor_check(0, 2, 4, RootOfUnity(4, 2), RootOfUnity(4, 1))
        assert (out.tag, out.rows) == ("PropRows", (1, 2))
        # the package's two paths: the split-prime zero test and the closed form
        want = [[False, True], [False, True]]
        assert det3_vanish(4, [(0, 1, 2), (0, 2, 4)], [1, 2], [2, 1]).tolist() == want
        assert (power_minor_rank(4, [1, 2], [2, 1], [(0, 1, 2), (0, 2, 4)]) <= 2).tolist() == want

    def test_power_matrix_property(self):
        # rank <= 2 by the closed form equals the split-prime zero set, both
        # ways, at every residue: n <= 36, 1 <= p < q < n and (0, b, c) with
        # 0 < b < c < n.
        # a = 0 loses nothing: shifting every exponent by s scales the
        # determinant by (xy)^s
        zeros = 0
        for n in range(3, 37):
            ps, qs = admissible_pairs(n)
            triples = [(0, b, c) for b, c in itertools.combinations(range(1, n), 2)]
            vanish = det3_zeros(n, triples, ps, qs)
            closed = power_minor_rank(n, ps, qs, triples) <= 2
            wrong = [(int(ps[i]), int(qs[i]), triples[t]) for i, t in np.argwhere(closed != vanish)[:3].tolist()]
            assert wrong == [], n
            zeros += int(vanish.sum())
        assert zeros == 123244
        # the oracle's determinant against the package's paths, once per outcome
        spot = [
            ((0, 1, 2), 4, 1, 2, ("Nondegenerate", None, None)),
            ((0, 2, 4), 4, 2, 1, ("PropRows", (1, 2), None)),
            ((0, 2, 4), 4, 1, 2, ("PropRows", (1, 3), None)),
            ((0, 2, 4), 6, 1, 4, ("PropRows", (2, 3), None)),
            ((0, 1, 4), 3, 1, 2, ("PropCols", None, (2, 3))),
        ]
        for triple, n, p, q, want in spot:
            out = cyclo_oracle.unity_minor_check(*triple, RootOfUnity(n, p), RootOfUnity(n, q))
            assert (out.tag, out.rows, out.cols) == want, (triple, n, p, q)
            vanish = det3_vanish(n, [triple], [p], [q])[0, 0]
            assert vanish == (out.tag != "Nondegenerate")
            assert (power_minor_rank(n, [p], [q], [triple]) <= 2)[0, 0] == vanish

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

    def test_sweep_reads_the_rank(self, monkeypatch):
        # a rank with no gap test misses the proportional-row zeros, and the
        # check must say so
        monkeypatch.setattr(verify, "_rank", lambda keys, root: _rank(keys, False))
        ok, d = check_unity_minor_explanations(8, 4)
        assert not ok and d["unexplained"] and not d["closed_form_only"]

    def test_exponent_matrix_examples(self):
        cases = [((0, 1, 2), 1, 0, "EqualRows13"), ((0, 1, 2), 4, 1, "Nondegenerate"), ((0, 2, 4), 2, 1, "EqualRows13")]
        for (a, b, c), n, p, tag in cases:
            assert cyclo_oracle.exponent_power_minor_check(a, b, c, RootOfUnity(n, p)).tag == tag
            # the package's exact path: (b-a) x^c + (a-c) x^b + (c-b) x^a
            vanish = exponent_vanish(n, [(a, b, c)], [p])
            assert vanish.tolist() == [[tag == "EqualRows13"]]
            assert (exponent_minor_rank(n, [p], [(a, b, c)]) <= 2).tolist() == [[tag == "EqualRows13"]]

    def test_exponent_matrix_property(self):
        # the ones/exponents/powers determinant (b-a) x^c + (a-c) x^b + (c-b) x^a
        # vanishes exactly where `_rank` gives rank <= 2, x^a = x^b = x^c: both
        # ways, for n <= 36, 0 <= p < n and (0, b, c) with 0 < b < c < n
        zeros = 0
        for n in range(3, 37):
            triples = np.array([(0, b, c) for b, c in itertools.combinations(range(1, n), 2)])
            ps = np.arange(n)
            vanish = exponent_vanish(n, triples, ps)
            closed = exponent_minor_rank(n, ps, triples) <= 2
            wrong = [(p, triples[t].tolist()) for p, t in np.argwhere(closed != vanish)[:3].tolist()]
            assert wrong == [], n
            zeros += int(vanish.sum())
        assert zeros == 8862

    def test_distinct_exponents_required(self):
        with pytest.raises(ValueError):
            cyclo_oracle.exponent_power_minor_check(1, 1, 2, RootOfUnity(5, 1))


def proportionality_structure(matrix):
    """Row/column proportionality structure of a matrix with nonzero entries.

    Returns ("TwoPropRows", (i, j)), ("ColumnGroups", partition) when the
    columns fall into at most two proportionality classes, or ("Neither",).
    Works over any exact scalar type whose truth value is nonzeroness.
    """
    rows = [list(r) for r in matrix]
    nr, nc = len(rows), len(rows[0])
    if nc < 3:
        raise ValueError("need at least three columns")
    for r in rows:
        for v in r:
            if not v:
                raise ValueError("matrix entries must be nonzero")

    def vec_prop(u, v):
        return not any(
            u[i] * v[j] - u[j] * v[i]
            for i, j in itertools.combinations(range(len(u)), 2)
        )

    for i, j in itertools.combinations(range(nr), 2):
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


def all_minors_oracle(n, elems, ps, qs):
    """Per pair (ps[i], qs[i]): does every 3x3 minor of M(B; zeta_n^p,
    zeta_n^q) vanish in Z[zeta_n]?  One det3 zero test per 3-subset of B,
    so vacuously true below three exponents."""
    triples = list(itertools.combinations(elems, 3))
    return det3_vanish(n, triples, ps, qs).all(axis=1)


class TestComboKernel:
    def test_det3_matches_cyclo_arithmetic(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(3, 14)
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - 1)
            elems = sorted(rng.sample(range(-5, 10), rng.randint(3, 5)))
            triples = list(itertools.combinations(elems, 3))
            got = det3_vanish(n, triples, [p], [q])[0]
            exact = [cyclo_det3(n, *t, p, q).is_zero for t in triples]
            assert got.tolist() == exact, (n, p, q, elems)
            assert all_minors_oracle(n, elems, [p], [q]).tolist() == [all(exact)]
            b = SupportSet(tuple(elems))
            assert (closed_form_rank(b, n, [p], [q]) <= 2).tolist() == [all(exact)]

    def test_combo_matches_cyclo_arithmetic(self):
        rng = random.Random(44)
        cases = {}
        for _ in range(100):
            n = rng.randint(2, 15)
            exps = [rng.randint(-8, 8) for _ in range(4)]
            coefs = [rng.randint(-4, 4) for _ in range(4)]
            acc = CycloElement.zero(n)
            for e, c in zip(exps, coefs):
                acc = acc + CycloElement.root_power(n, e) * c
            assert orbit_vanish(n, [exps], [coefs]) == [acc.is_zero]
            cases.setdefault(n, []).append((exps, coefs, acc.is_zero))
        # the same combinations, one zero test per modulus
        for n, group in cases.items():
            exps, coefs, expect = zip(*group)
            assert orbit_vanish(n, exps, coefs) == list(expect)

    def test_split_prime_zero_test_matches_oracle(self):
        # random signed combinations of up to eight terms, n 1..30, with
        # planted zeros (a combination minus its own rotation by a period)
        rng = random.Random(48)
        zeros = 0
        for n in range(1, 31):
            exps, coefs, want = [], [], []
            for _ in range(40):
                terms = rng.randint(1, 4)
                e = [rng.randint(-40, 40) for _ in range(terms)]
                c = [rng.randint(-9, 9) for _ in range(terms)]
                if rng.random() < 0.3:
                    e, c = e + [t + n for t in e], c + [-v for v in c]
                if rng.random() < 0.2 and n % 2 == 0:  # zeta^(n/2) = -1
                    e, c = e + [t + n // 2 for t in e], c + c
                e, c = (e + [0] * 8)[:8], (c + [0] * 8)[:8]
                acc = CycloElement.zero(n)
                for t, v in zip(e, c):
                    acc = acc + CycloElement.root_power(n, t) * v
                exps.append(e)
                coefs.append(c)
                want.append(acc.is_zero)
            assert orbit_vanish(n, exps, coefs) == want, n
            zeros += sum(want)
        assert zeros > 100

    def test_sweep_zeros_match_cyclo_arithmetic(self):
        # both unity sweeps of `verify` at n <= 12 and span 3, every cell
        # against Z[zeta_n] arithmetic; each conjugate-row index names rows
        # of its sweep, the sorted (kp mod n, kq mod n) or kp mod n, and
        # k = 1 keeps every row
        triples = list(itertools.combinations(range(-3, 4), 3))
        for n in range(1, 13):
            ks = units(n).tolist()
            ps = np.arange(n)
            rows = _conjugate_rows(n, ps)
            assert rows.tolist() == [[k * p % n for k in ks] for p in range(n)]
            assert rows[:, ks.index(1 % n)].tolist() == list(range(n))
            got = exponent_vanish(n, triples, ps)
            want = [[cyclo_oracle.exponent_power_minor_check(*t, RootOfUnity(n, p)).tag != "Nondegenerate" for t in triples] for p in range(n)]
            assert got.tolist() == want, n
            if n < 3:
                continue
            ps, qs = admissible_pairs(n)
            pairs = list(zip(ps.tolist(), qs.tolist()))
            rows = _conjugate_rows(n, ps, qs)
            assert rows.tolist() == [[pairs.index(tuple(sorted((k * p % n, k * q % n)))) for k in ks] for p, q in pairs]
            assert rows[:, ks.index(1)].tolist() == list(range(len(pairs)))
            want = [[cyclo_det3(n, *t, p, q).is_zero for t in triples] for p, q in pairs]
            assert det3_zeros(n, triples, ps, qs).tolist() == want, n

    def test_open_row_set_raises(self):
        # (1, 2) and (2, 1) at n = 4: the unit 3 takes (1, 2) to (3, 2),
        # which is no row, so the zero test would miss a conjugate
        with pytest.raises(ValueError, match="does not close"):
            det3_zeros(4, [(0, 1, 2)], [1, 2], [2, 1])
        with pytest.raises(ValueError, match="does not close"):
            conjugate_zeros(5, [[0, 1]], [1, -1], [[0]])

    def test_norm_bound_raises(self):
        # sum |coefs| must stay below the split prime
        p, _ = split_prime(7)
        assert orbit_vanish(7, [[0, 1]], [[p - 2, 1]]) == [False]
        with pytest.raises(ValueError, match="sum"):
            orbit_vanish(7, [[0, 1]], [[p - 1, 1]])
        with pytest.raises(ValueError, match="sum"):
            orbit_vanish(7, [[0, 0], [0, 1]], [[1, -1], [-p, 0]])

    def test_empty_batch(self):
        out = conjugate_zeros(5, np.zeros((0, 4, 6), dtype=np.int64), _DET3_SIGNS, np.zeros((0, 4), dtype=np.int64))
        assert out.shape == (0, 4)


def sorted_key_rank(b, n, ps, qs):
    """The rank of M(B; zeta_n^p, zeta_n^q) from the rank lemma of
    `minors._rank` alone, without the period lemma: every column key
    (p*b mod n, q*b mod n) is formed, the keys are sorted and their distinct
    values counted, and the gap test reduces p*g and q*g mod n.  Python ints
    throughout, so products past int64 stay exact at any modulus."""
    values = np.array([*b.elements, gap_gcd(b)], dtype=object)
    ps = np.asarray(ps, dtype=object)
    m = np.broadcast_to(np.asarray(n, dtype=object), ps.shape)[:, None]
    x = ps[:, None] % m * (values % m) % m  # p*b, then p*g, mod n
    y = np.asarray(qs, dtype=object)[:, None] % m * (values % m) % m
    keys = np.sort(x[:, :-1] * m + y[:, :-1], axis=1)
    distinct = 1 + np.count_nonzero(np.diff(keys, axis=1), axis=1)
    xg, yg = x[:, -1], y[:, -1]
    gap = ((xg == 0) | (yg == 0) | (xg == yg)).astype(np.int64)
    return np.minimum(distinct, 3 - gap)


class TestBatchKernel:
    """The closed-form rank (closed_form_rank) against the
    all-minors oracle, over every p and q in [0, n), and against the
    sorted column keys of sorted_key_rank where no oracle reaches."""

    @staticmethod
    def _agrees(n, elems):
        ps, qs = np.divmod(np.arange(n * n), n)
        b = SupportSet(elems)
        lemma = closed_form_rank(b, n, ps, qs) <= 2
        return lemma.tolist() == all_minors_oracle(n, elems, ps, qs).tolist()

    def test_matches_per_call_kernel(self):
        for n in range(3, 13):
            for size in range(3, 6):
                for elems in itertools.combinations(range(9), size):
                    assert self._agrees(n, elems), (n, elems)

    def test_negative_exponents(self):
        for n in range(3, 19):
            for size in range(3, 6):
                for elems in itertools.combinations(range(-4, 3), size):
                    assert self._agrees(n, elems), (n, elems)

    def test_rank_matches_cyclotomic_elimination(self):
        rng = random.Random(45)
        for _ in range(300):
            n = rng.randint(2, 12)
            p, q = rng.randrange(n), rng.randrange(n)
            elems = tuple(sorted(rng.sample(range(-5, 9), rng.randint(1, 5))))
            b = SupportSet(elems)
            rank = closed_form_rank(b, n, [p], [q])
            assert rank.tolist() == [power_rank(b, n, p, q)], (n, p, q, elems)
            assert sorted_key_rank(b, n, [p], [q]).tolist() == rank.tolist()

    def test_mixed_moduli_match_per_modulus_calls(self):
        rng = random.Random(46)
        supports = [S(0, 1, 3, 4, 6), S(-2, 0, 5, 7, 12), S(0, 3, 6), S(0, 4), S(5)]
        ns = np.array([rng.randint(1, 14) for _ in range(400)])
        ps = np.array([rng.randrange(-20, 20) for _ in ns])
        qs = np.array([rng.randrange(-20, 20) for _ in ns])
        for b in supports:
            want = np.empty(len(ns), dtype=np.int64)
            for n in set(ns.tolist()):
                rows = np.flatnonzero(ns == n)
                want[rows] = closed_form_rank(b, n, ps[rows], qs[rows])
            assert closed_form_rank(b, ns, ps, qs).tolist() == want.tolist(), b
        assert closed_form_rank(S(0, 1, 3), np.zeros(0, dtype=np.int64), [], []).shape == (0,)

    def test_huge_exponents_reduce_exactly(self):
        # products of unreduced exponents would wrap in int64; the reference
        # eliminates over Z[zeta_n] with Python-int exponents
        rng = random.Random(47)
        for big in (2**62 + 1, 2**63 - 1, 2**63 + 5, 3 * 2**64 + 7, -(2**70) + 3):
            elems = tuple(sorted({0, 2, big}))
            for _ in range(30):
                n = rng.randint(2, 12)
                p, q = rng.randrange(n), rng.randrange(n)
                b = SupportSet(elems)
                rank = closed_form_rank(b, n, [p], [q])
                assert rank.tolist() == [power_rank(b, n, p, q)], (big, n, p, q)

    def test_large_moduli_match_sorted_keys(self):
        # moduli near 2^40 with gcd(n, p, q) > 1, huge and negative exponents:
        # each support is a few residue classes mod a divisor of n plus
        # multiples of it, so every rank and the gap roots all occur; every
        # support is ranked at the pairs of all four moduli in one call
        rng = random.Random(49)
        ns, ps, qs, supports = [], [], [], []
        for n in (2**40, 3**25, 2**20 * 3**6 * 5**3 * 7, 2**40 - 87):
            divisors = [d for d in (1, 2, 3, 4, 8, 9, 2**20, 3**12, 5**3, 7 * 2**15, n) if n % d == 0]
            for _ in range(40):
                d = rng.choice(divisors)
                step = n // rng.choice(divisors)
                bases = [rng.randrange(-n, n) for _ in range(rng.randint(1, 3))]
                size = rng.randint(1, 5)
                elems = {rng.choice(bases) + step * rng.randrange(-(2**70), 2**70) for _ in range(size)}
                supports.append(SupportSet(sorted({*elems})))
                ns.append(n)
                ps.append(d * rng.randrange(-(2**20), 2**20))
                qs.append(rng.choice([d, n // rng.choice(divisors)]) * rng.randrange(-(2**20), 2**20))
        ranks = set()
        for b in supports:
            got = closed_form_rank(b, np.array(ns), ps, qs)
            assert got.tolist() == sorted_key_rank(b, ns, ps, qs).tolist(), b
            ranks.update(got.tolist())
        assert ranks == {1, 2, 3}

    def test_small_support_vacuous(self):
        assert all_minors_oracle(5, (0, 4), [1, 2], [3, 4]).tolist() == [True, True]
        assert closed_form_rank(S(0, 4), 5, [1, 2, 0], [3, 4, 0]).tolist() == [2, 2, 1]
