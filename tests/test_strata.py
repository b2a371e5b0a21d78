import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np

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
    SVD_RTOL,
    VOTE_SAMPLES,
    CodimEstimate,
    _derivative_rhs,
    _draw_tuple,
    _embed,
    _effective_elements,
    _random_fraction,
    _random_unit_annulus,
    _side_matrices,
    _span_dimension_exact,
    _span_dimensions,
    _unity_configs,
    _unity_corank_general,
    _unity_corank_monomial,
)
from singres.supports import SupportPair, SupportSet, gap_gcd
from singres.verify import _normalized_supports
from test_guarantees import LABELS as GUARANTEE_LABELS
from test_guarantees import PAIRS as GUARANTEE_PAIRS


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

    def test_report_observability(self):
        est = estimate_codim(pair((0, 1, 2, 3), (0, 1, 2, 3)), parse_label("N(1,1,1)"), seed=7)
        data = est.to_json()
        assert data["version"] == singres.__version__
        assert set(data["timings"]) == {"generic_s", "unity_s", "minor_curve_s"}
        assert all(t >= 0 for t in data["timings"].values())
        comps = data["components_probed"]
        assert comps[0]["component"] == "generic"
        assert sum(n for _, n in comps[0]["votes"]) + comps[0]["none_samples"] == 3
        for comp in comps[1:]:
            votes = dict(comp["votes"])
            assert comp["dim_found"] == min(d for d, n in votes.items() if n == max(votes.values()))
            assert 1 <= sum(votes.values()) + comp["none_samples"] <= VOTE_SAMPLES
        assert sum(sum(n for _, n in c["votes"]) + c["none_samples"] for c in comps) <= est.sample_count


# The paper's six codim cases (verify-paper's check 07); with the pairs x
# labels of test_guarantees, the sets the batched estimator must reproduce.
VERIFY_CODIM_CASES = [
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1)"),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1)"),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(2)"),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1,1)"),
    ((0, 3, 6), (0, 3, 6), "N(1,1)"),
    ((0, 1, 3, 4, 6, 7), (0, 3, 6), "N(1,1,1)"),
]


def reference_span_dimension(pair, label, pts, dirs, rtol=SVD_RTOL):
    """One sample of the span dimension, with per-sample SVDs and lstsq."""
    sides = _side_matrices(pair, label, pts)
    if sides is None:
        return None
    eff1, eff2, m1, m2 = sides
    a1 = np.array([[complex(v) for v in r] for r in m1]) if m1 else np.zeros((0, len(eff1)))
    a2 = np.array([[complex(v) for v in r] for r in m2]) if m2 else np.zeros((0, len(eff2)))

    def kern(a, ncols):
        if a.shape[0] == 0:
            return np.eye(ncols, dtype=complex)
        u, s, vh = np.linalg.svd(a)
        cut = rtol * (s[0] if len(s) else 0)
        rank = int(np.sum(s > cut))
        return vh[rank:].conj()

    k1 = kern(a1, len(eff1))
    k2 = kern(a2, len(eff2))
    if k1.shape[0] == 0 or k2.shape[0] == 0:
        return None
    rng = np.random.default_rng(abs(hash(tuple(map(complex, pts)))) % (2**32))
    f1 = (rng.normal(size=k1.shape[0]) + 1j * rng.normal(size=k1.shape[0])) @ k1
    f2 = (rng.normal(size=k2.shape[0]) + 1j * rng.normal(size=k2.shape[0])) @ k2
    n1, n2 = len(pair.b1.elements), len(pair.b2.elements)
    rows = []
    for v in k1:
        rows.append(_embed(list(v), eff1, pair.b1) + [0] * n2)
    for w in k2:
        rows.append([0] * n1 + _embed(list(w), eff2, pair.b2))
    js1, js2 = label.side_orders(1), label.side_orders(2)
    pow_ = lambda x, e: complex(x) ** e
    xs = [complex(x) for x in pts]
    for direction in dirs:
        rhs1 = np.zeros(a1.shape[0], dtype=complex)
        rhs2 = np.zeros(a2.shape[0], dtype=complex)
        for m, d in enumerate(direction):
            if not d:
                continue
            rhs1 += np.array(_derivative_rhs(f1, eff1, js1, m, xs, pow_), dtype=complex) * complex(d)
            rhs2 += np.array(_derivative_rhs(f2, eff2, js2, m, xs, pow_), dtype=complex) * complex(d)
        df = np.linalg.lstsq(a1, rhs1, rcond=None)[0] if a1.shape[0] else np.zeros(len(eff1))
        dg = np.linalg.lstsq(a2, rhs2, rcond=None)[0] if a2.shape[0] else np.zeros(len(eff2))
        if a1.shape[0] and np.linalg.norm(a1 @ df - rhs1) > 1e-6 * max(1, np.linalg.norm(rhs1)):
            return None
        if a2.shape[0] and np.linalg.norm(a2 @ dg - rhs2) > 1e-6 * max(1, np.linalg.norm(rhs2)):
            return None
        rows.append(_embed(list(df), eff1, pair.b1) + _embed(list(dg), eff2, pair.b2))
    mat = np.array([[complex(v) for v in r] for r in rows])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    s = np.linalg.svd(mat, compute_uv=False)
    cut = rtol * (s[0] if len(s) else 0)
    return int(np.sum(s > cut))


def reference_estimate_codim(pair, label, trials=3, seed=0, n_max=12, max_minor_curves=48):
    """estimate_codim one sample at a time, with reference_span_dimension."""
    rng = random.Random(seed)
    ambient = len(pair.b1.elements) + len(pair.b2.elements)
    est = CodimEstimate(ambient, None, seed=seed, label=label.notation(), pair=pair.to_json())

    def record(desc, dim):
        est.components_probed.append((desc, dim))
        if dim is not None and (est.best_dim_found is None or dim > est.best_dim_found):
            est.best_dim_found = dim

    def majority(dims):
        vote = Counter(dims).most_common()
        return min(d for d, cnt in vote if cnt == vote[0][1])

    k = label.k
    if k == 0:
        eff1 = _effective_elements(pair.b1, label.j0, label.jinf)
        eff2 = _effective_elements(pair.b2, label.j0, label.jinf)
        record("coordinate-subspace", len(eff1) + len(eff2) if eff1 and eff2 else None)
        est.sample_count = 1
        return est
    best = None
    for _ in range(max(1, trials)):
        pts, dirs = _draw_tuple(pair, label, GenericPoints(), rng)
        dim = _span_dimension_exact(pair, label, pts, dirs)
        est.sample_count += 1
        if dim is not None and (best is None or dim > best):
            best = dim
    record("generic", best)
    for n, exps in _unity_configs(k, n_max):
        if n < k or len(set(e % n for e in exps)) < len(exps):
            continue
        dims = []
        for _ in range(VOTE_SAMPLES):
            c = _random_unit_annulus(rng)
            omega = [np.exp(2j * np.pi * e / n) for e in exps]
            dim = reference_span_dimension(pair, label, [c * w for w in omega], [list(omega)])
            est.sample_count += 1
            if dim is not None:
                dims.append(dim)
        if dims:
            record(f"unity(n={n}, exps={list(exps)})", majority(dims))
    if k == 3:
        curves = []
        for side, b in ((1, pair.b1), (2, pair.b2)):
            for triple in itertools.combinations(b.elements, 3):
                curves.append(MinorCurve(side, triple))
        rng.shuffle(curves)
        for curve in curves[:max_minor_curves]:
            dims = []
            for _ in range(VOTE_SAMPLES):
                drawn = _draw_tuple(pair, label, curve, rng)
                if drawn is None:
                    continue
                dim = reference_span_dimension(pair, label, *drawn)
                est.sample_count += 1
                if dim is not None:
                    dims.append(dim)
            if dims:
                record(f"minor-curve(side={curve.side}, triple={curve.triple})", majority(dims))
    return est


def without_vote_fields(data):
    data = {key: val for key, val in data.items() if key not in ("version", "timings")}
    data["components_probed"] = [
        {"component": c["component"], "dim_found": c["dim_found"]} for c in data["components_probed"]
    ]
    return data


class TestBatchedEstimate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("b1,b2,name", VERIFY_CODIM_CASES)
    def test_verify_cases_match_reference(self, b1, b2, name, seed):
        p, label = pair(b1, b2), parse_label(name)
        got = without_vote_fields(estimate_codim(p, label, seed=seed).to_json())
        assert got == without_vote_fields(reference_estimate_codim(p, label, seed=seed).to_json())

    @pytest.mark.parametrize("p", GUARANTEE_PAIRS, ids=lambda p: f"{p.b1.elements}-{p.b2.elements}")
    def test_guarantee_cases_match_reference(self, p):
        for name, label in GUARANTEE_LABELS.items():
            got = estimate_codim(p, label, trials=2, seed=17, n_max=8).to_json()
            want = reference_estimate_codim(p, label, trials=2, seed=17, n_max=8).to_json()
            assert without_vote_fields(got) == without_vote_fields(want), name

    def test_failed_samples_are_reported(self):
        # most side-1 minor curves of this pair fail their tangent solve
        p, label = pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label("N(1,1,1)")
        est = estimate_codim(p, label, seed=4)
        data = est.to_json()
        assert without_vote_fields(data) == without_vote_fields(reference_estimate_codim(p, label, seed=4).to_json())
        curve = next(c for c in data["components_probed"] if c["component"] == "minor-curve(side=1, triple=(1, 3, 4))")
        assert (curve["dim_found"], curve["votes"], curve["none_samples"]) == (8, [[8, 1]], 4)

    def test_samples_match_reference(self):
        """The batched evaluator against the per-sample reference, tuple by
        tuple, on a stack mixing unity tuples and minor-curve tuples with
        one and two tangent directions."""
        rng = random.Random(11)
        outcomes = []
        for b1, b2, name in [((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1,1)"), ((0, 1, 3, 4, 6, 7), (0, 3, 6), "N(1,1,1)"),
                             ((0, 2, 3, 5), (0, 1, 4, 5), "N(2,1;1,1)"), ((0, 3, 6), (0, 3, 6), "N(1,1)")]:
            p, label = pair(b1, b2), parse_label(name)
            stack = []
            for n, exps in _unity_configs(label.k, 9):
                if n >= label.k and len(set(e % n for e in exps)) == len(exps):
                    c = _random_unit_annulus(rng)
                    omega = [np.exp(2j * np.pi * e / n) for e in exps]
                    stack.append(([c * w for w in omega], [omega]))
            if label.k == 3:
                for triple in itertools.combinations(p.b1.elements, 3):
                    for _ in range(2):
                        drawn = _draw_tuple(p, label, MinorCurve(1, triple), rng)
                        if drawn is not None:
                            stack.append(drawn)
            pts = np.array([s[0] for s in stack], dtype=complex)
            got = _span_dimensions(p, label, pts, [s[1] for s in stack])
            want = [reference_span_dimension(p, label, *s) for s in stack]
            assert got == want, name
            outcomes += want
        assert None in outcomes


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
