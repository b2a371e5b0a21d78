import random
from fractions import Fraction

import pytest

import singres
from singres.laurent import LaurentPoly
from singres.minors import RootOfUnity
from singres.strata import (
    GenericPoints,
    MinorCurve,
    RootsOfUnity,
    SolutionTuple,
    StratumLabel,
    actual_label,
    corank_kernel,
    estimate_codim,
    expected_codim,
    in_filtration_subset,
    label_dominates,
    multiplicity_vandermonde,
    parse_label,
    sample_filtration_subset,
    scan_corank_strata,
)
from singres.strata import (
    _random_fraction,
    _unity_configs,
    _unity_corank_general,
    _unity_corank_monomial,
)
from singres.supports import SupportPair, SupportSet, gap_gcd
from singres.verify import _normalized_supports


def S(*xs):
    return SupportSet.of(*xs)


def pair(b1, b2):
    return SupportPair(S(*b1), S(*b2))


class TestLabels:
    def test_expected_codim_examples(self):
        assert expected_codim(parse_label("N(1)")) == 1
        assert expected_codim(parse_label("N(2)")) == 3
        assert expected_codim(parse_label("N(2,1;1,1)")) == 3
        assert expected_codim(parse_label("N_1^0")) == 2

    def test_unit_roots_codim_equals_count(self):
        for k in range(1, 5):
            label = StratumLabel.symmetric(0, 0, [1] * k)
            assert expected_codim(label) == k

    def test_parse_roundtrip(self):
        for text in ("N(1,1,1)", "N_1^0(1)", "N_0^2", "N(2,1;1,1)", "N"):
            label = parse_label(text)
            assert parse_label(label.notation()) == label

    def test_canonicalization(self):
        a = StratumLabel(0, 0, ((1, 2), (2, 1)))
        b = StratumLabel(0, 0, ((2, 1), (1, 2)))
        assert a == b


class TestDomination:
    def test_boundary_and_gluing(self):
        n11 = parse_label("N(1,1)")
        assert label_dominates(parse_label("N_1^0(1)"), n11)
        assert label_dominates(parse_label("N(2)"), n11)
        assert not label_dominates(parse_label("N(1)"), n11)

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            label_dominates(parse_label("N(2,1;1,1)"), parse_label("N(1,1)"))

    def test_new_roots_allowed(self):
        # the assignment need not be surjective
        assert label_dominates(parse_label("N(1,1,1)"), parse_label("N(1,1)"))

    def test_boundary_roots_fixed(self):
        # a boundary order cannot migrate back to a finite root
        assert not label_dominates(parse_label("N(1,1)"), parse_label("N_1^0"))


class TestActualLabel:
    def test_no_common_roots(self):
        f = LaurentPoly(S(0, 1), {0: 1, 1: 1})
        g = LaurentPoly(S(0, 1), {0: 1, 1: 2})
        assert actual_label(f, g) == StratumLabel(0, 0, ())

    def test_boundary_only(self):
        f = LaurentPoly(S(0, 1, 2), {1: 1, 2: 1})
        g = LaurentPoly(S(0, 1, 2), {1: 2, 2: 1})
        assert actual_label(f, g) == StratumLabel(1, 0, ())

    def test_mixed(self):
        f = LaurentPoly(S(0, 1, 2), {0: 1, 1: -2, 2: 1})  # (x-1)^2
        g = LaurentPoly(S(0, 1, 2), {1: -1, 2: 1})  # x(x-1)
        assert actual_label(f, g) == StratumLabel(0, 0, ((2, 1),))


class TestMembership:
    def test_simple(self):
        f = LaurentPoly(S(0, 1, 2), {0: 2, 1: -3, 2: 1})
        g = LaurentPoly(S(0, 1, 2), {0: 3, 1: -4, 2: 1})
        assert in_filtration_subset(f, g, parse_label("N(1)"))
        assert not in_filtration_subset(f, g, parse_label("N(1,1)"))

    def test_order_direction(self):
        f = LaurentPoly(S(0, 1, 2), {0: 1, 1: -2, 2: 1})
        g = LaurentPoly(S(0, 1, 2), {1: -1, 2: 1})
        assert in_filtration_subset(f, g, parse_label("N(2;1)"))
        assert not in_filtration_subset(f, g, parse_label("N(1;2)"))

    def test_boundary_roots_do_not_fill_interior_slots(self):
        # pair with a common root at 0 and one interior root
        f = LaurentPoly(S(0, 1, 2), {1: -1, 2: 1})  # x(x-1)
        g = LaurentPoly(S(0, 1, 2), {1: -2, 2: 2})  # 2x(x-1)... same roots
        g = LaurentPoly(S(0, 1, 2), {1: 1, 2: 1})  # x(x+1)
        assert in_filtration_subset(f, g, parse_label("N_1^0"))
        assert not in_filtration_subset(f, g, parse_label("N(1,1)"))


class TestVandermonde:
    def test_derivative_rows(self):
        rows = multiplicity_vandermonde(S(0, 1, 2), (Fraction(1),), (2,))
        assert rows == [[1, 1, 1], [0, 1, 2]]

    def test_unity_corank(self):
        pts = [RootOfUnity(3, 0), RootOfUnity(3, 1), RootOfUnity(3, 2)]
        rows = multiplicity_vandermonde(S(0, 3, 6), pts, (1, 1, 1))
        cork, _ = corank_kernel(rows)
        assert cork == 2

    def test_pm_one(self):
        rows = multiplicity_vandermonde(S(0, 2), (Fraction(1), Fraction(-1)), (1, 1))
        assert rows == [[1, 1], [1, 1]]
        assert corank_kernel(rows)[0] == 1

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_vandermonde(S(0, 1), (Fraction(1), Fraction(1)), (1, 1))
        with pytest.raises(ValueError):
            SolutionTuple((Fraction(0),))

    def test_scaling_invariance(self):
        rng = random.Random(51)
        for _ in range(30):
            elems = tuple(sorted(rng.sample(range(-3, 9), rng.randint(2, 5))))
            b = SupportSet(elems)
            k = rng.randint(1, 3)
            pts, js = [], []
            while len(pts) < k:
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                if x and x not in pts:
                    pts.append(x)
                    js.append(rng.randint(1, 2))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            base = corank_kernel(multiplicity_vandermonde(b, pts, js))[0]
            scaled = corank_kernel(multiplicity_vandermonde(b, [c * x for x in pts], js))[0]
            assert base == scaled

    def test_laurent_exponents(self):
        rows = multiplicity_vandermonde(S(-2, 0, 1), (Fraction(1, 2),), (2,))
        # falling factorial with negative exponent: -2 * x^(-3)
        assert rows[1][0] == -2 * Fraction(1, 2) ** (-3)


class TestCorankKernel:
    def test_generic_rational_vandermonde(self):
        pts = (Fraction(1), Fraction(2), Fraction(3))
        rows = multiplicity_vandermonde(S(0, 1, 2, 3), pts, (1, 1, 1))
        cork, kern = corank_kernel(rows)
        assert cork == 0 and len(kern) == 1

    def test_all_ones(self):
        cork, kern = corank_kernel([[1, 1, 1]] * 3)
        assert cork == 2 and len(kern) == 2

    def test_float_path(self):
        import numpy as np

        rows = [[1 + 0j, 1, 1], [1, 1, 1], [0, 1, 2]]
        cork, kern = corank_kernel(rows)
        assert cork == 1
        for v in kern:
            assert np.linalg.norm(np.array(rows, dtype=complex) @ np.array(v)) < 1e-9


class TestSampling:
    def test_generic_samples_members(self):
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        for name in ("N(1)", "N(1,1)", "N(2)", "N(1,1,1)", "N(2,1;1,1)", "N_1^0(1)"):
            label = parse_label(name)
            got = sample_filtration_subset(p, label, GenericPoints(), seed=61)
            assert got is not None, name
            f, g, _ = got
            assert in_filtration_subset(f, g, label), name

    def test_overdetermined_returns_none(self):
        p = pair((0, 1), (0, 1))
        label = parse_label("N(1,1)")  # two roots need kernel dim >= 1 each
        assert sample_filtration_subset(p, label, GenericPoints(), seed=62) is None

    def test_unity_locus_corank_sample(self):
        p = pair((0, 3, 6), (0, 3, 6))
        got = sample_filtration_subset(p, parse_label("N(1,1)"), RootsOfUnity(3), seed=63)
        assert got is not None
        f, g, pts = got
        assert in_filtration_subset(f, g, parse_label("N(1,1)"))

    def test_minor_curve_sample(self):
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        got = sample_filtration_subset(
            p, parse_label("N(1,1,1)"), MinorCurve(1, (0, 1, 3)), seed=64
        )
        if got is not None:
            f, g, pts = got
            assert in_filtration_subset(f, g, parse_label("N(1,1,1)"))


class TestScan:
    def test_sublattice_s22(self):
        rep = scan_corank_strata(pair((0, 3, 6), (0, 3, 6)), parse_label("N(1,1,1)"), 12)
        assert (2, 2) in rep.found
        assert rep.predictions["joint:2,2"] is True
        assert rep.mismatches == []

    def test_split_s12(self):
        rep = scan_corank_strata(
            pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label("N(1,1,1)"), 12
        )
        assert (1, 2) in rep.found
        assert rep.predictions["joint:1,2"] is True
        assert rep.mismatches == []

    def test_classical_clean(self):
        rep = scan_corank_strata(pair((0, 1, 2), (0, 1, 2)), parse_label("N(1,1,1)"), 12)
        assert rep.found == {}
        assert rep.generic_corank == (0, 0)
        assert rep.mismatches == []

    def test_pairwise_corank1_iff_gap_gcd(self):
        # two-point label: corank-1 tuples exist iff the gap gcd is >= 2
        for b in [(0, 1, 2), (0, 2, 4), (0, 3, 6), (0, 2, 5)]:
            rep = scan_corank_strata(pair(b, b), parse_label("N(1,1)"), 12)
            assert rep.side_observed(1, 1) == (gap_gcd(S(*b)) >= 2)
            assert rep.mismatches == []

    def test_multiplicity_label_uses_cyclo_elimination(self):
        rep = scan_corank_strata(pair((0, 3, 6), (0, 3, 6)), parse_label("N(2,1;1,1)"), 6)
        # derivative rows break row-constancy; scan must still run exactly
        assert rep.label == "N(2,1;1,1)"

    def test_matches_per_config_reference(self):
        rng = random.Random(5)
        cases = [(b, b, "N(1,1,1)", 12) for b in _normalized_supports(10)[::23]]
        cases += [((0, 3, 6), (0, 3, 6), "N(1,1)", 12), ((0, 2, 4, 6), (0, 2, 4, 6), "N(1)", 12)]
        for i in range(30):
            b1 = tuple(sorted({0, 9, *rng.sample(range(1, 9), rng.randint(1, 4))}))
            b2 = tuple(sorted({0, 8, *rng.sample(range(1, 8), rng.randint(1, 4))}))
            cases.append((b1, b2, ("N(1)", "N(1,1)", "N(1,1,1)")[i % 3], 12))
        cases += [((0, 3, 6), (0, 3, 6), "N(2,1)", 7), ((0, 2, 4, 7), (0, 1, 5, 7), "N(2,1)", 7)]
        for b1, b2, name, n_max in cases:
            p, label = pair(b1, b2), parse_label(name)
            rep = scan_corank_strata(p, label, n_max, seed=3)
            found, generic = reference_scan(p, label, n_max, seed=3)
            assert (rep.found, rep.generic_corank) == (found, generic), (b1, b2, name)
            assert rep.mismatches == []

    def test_report_observability(self):
        rep = scan_corank_strata(pair((0, 3, 6), (0, 1, 3)), parse_label("N(1,1,1)"), 12)
        data = rep.to_json()
        assert data["configs_scanned"] == len(_unity_configs(3, 12))
        assert data["version"] == singres.__version__
        assert set(data["timings"]) == {"unity_s", "generic_s"}
        assert all(t >= 0 for t in data["timings"].values())


def reference_scan(p, label, n_max, seed):
    """The found strata and generic corank of scan_corank_strata, computed
    one configuration and one side at a time with corank_kernel."""
    js = label.side_orders(1), label.side_orders(2)
    sides = (p.b1, p.b2)
    found = {}

    def note(key, payload):
        found.setdefault(key, {"count": 0, "witness": payload})["count"] += 1

    configs = [(1, (0,))] if label.k == 1 else _unity_configs(label.k, n_max)
    for n, exps in configs:
        if all(j == 1 for j in js[0] + js[1]):
            key = tuple(_unity_corank_monomial(b.elements, exps, n) for b in sides)
        else:
            key = tuple(_unity_corank_general(b, exps, n, j) for b, j in zip(sides, js))
        if key != (0, 0):
            note(key, {"kind": "unity", "n": n, "exponents": list(exps)})
    rng = random.Random(seed)
    generic = None
    for _ in range(4):
        pts = []
        while len(pts) < label.k:
            x = _random_fraction(rng)
            if x not in pts:
                pts.append(x)
        key = tuple(
            corank_kernel(multiplicity_vandermonde(b, pts, j))[0] for b, j in zip(sides, js)
        )
        generic = key if generic is None else tuple(map(min, generic, key))
        if key != (0, 0):
            note(key, {"kind": "generic", "points": [str(x) for x in pts]})
    return found, generic


class TestEstimates:
    def test_classical(self):
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        for name, want in [("N(1)", 1), ("N(1,1)", 2), ("N(2)", 3), ("N(1,1,1)", 3)]:
            est = estimate_codim(p, parse_label(name), seed=71)
            assert est.estimate == want, name
            assert est.best_dim_found <= est.ambient_dim

    def test_boundary_subsets(self):
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        assert estimate_codim(p, parse_label("N_1^0"), seed=72).estimate == 2
        assert estimate_codim(p, parse_label("N_0^1(1)"), seed=72).estimate == 3

    def test_sublattice_deficiency(self):
        est = estimate_codim(pair((0, 3, 6), (0, 3, 6)), parse_label("N(1,1)"), seed=73)
        assert est.estimate == 1
        comps = dict(est.components_probed)
        assert any(k.startswith("unity") and v == 5 for k, v in comps.items())

    def test_split_deficiency(self):
        est = estimate_codim(
            pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label("N(1,1,1)"), seed=74
        )
        assert est.estimate == 2

    def test_empty_subset_reports_none(self):
        # two-element supports cannot vanish at two points with orders (2, 2)
        est = estimate_codim(pair((0, 1), (0, 1)), parse_label("N(2,2)"), seed=75)
        assert est.best_dim_found is None and est.estimate is None


class TestMonotonicity:
    def test_sampled_domination(self):
        p = pair((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
        n11 = parse_label("N(1,1)")
        for name in ("N(2)", "N(1,1,1)"):
            q = parse_label(name)
            got = sample_filtration_subset(p, q, GenericPoints(), seed=76)
            assert got is not None
            f, g, _ = got
            sym = actual_label(f, g).symmetrized()
            assert label_dominates(sym, n11)
