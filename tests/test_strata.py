import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

import pytest

import singres
from cyclo_oracle import CycloElement, RootOfUnity, cyclo_rank, cyclo_rref, cyclotomic_polynomial, unity_vandermonde
import float_oracle
from float_oracle import SVD_RTOL, VOTE_SAMPLES, draw_minor_tuple, minor_poly_in_u, random_unit_annulus, span_dimensions, vote
from singres import cli
from singres.exact import exact_quo, exact_rref, kernel_basis, modular_rank, prs_gcd, root_of_order, split_prime, split_primes
from singres.laurent import LaurentPoly, common_roots, falling
from singres.minors import _rank, admissible_pairs
from singres.strata import (
    StratumLabel,
    estimate_codim,
    in_filtration_subset,
    label_dominates,
    multiplicity_vandermonde,
    parse_label,
    sample_filtration_subset,
    scan_corank_strata,
)
from singres.strata import (
    CERT_GAP_MAX,
    CERT_PRIME_MIN,
    _branch_classes,
    _branch_points,
    _certificate_prime,
    _certify_points,
    _conjugate_ranks,
    _corank_classes,
    _distinct_points,
    _draw_filtration_pair,
    _embed,
    _effective_elements,
    _generic_kernel_dims,
    _hermite_stack,
    _kernel_floor,
    _kernel_of,
    _log_powers,
    _minor_certificates,
    _random_fraction,
    _scan_table,
    _Side,
    _side_matrices,
    _side_coranks,
    _sides,
    _signature_classes,
    _solution_strata,
    _stratum_predictions,
    _table_values,
    _unity_coranks,
)
from singres.supports import SupportPair, SupportSet, gap_gcd
from singres.verify import _construction_is_clean, _normalized_supports, check_codim_estimates, check_stratum_order
from test_digests import CODIM_LABELS, SETS, _pairs
from test_guarantees import LABELS as GUARANTEE_LABELS
from test_guarantees import PAIRS as GUARANTEE_PAIRS
from test_guarantees import expected_codim
from test_minors import all_minors_oracle, closed_form_rank


def S(*xs):
    return SupportSet(sorted({*xs}))


def pair(b1, b2):
    return SupportPair(S(*b1), S(*b2))


def corank_kernel(rows):
    """(corank, kernel basis) of a nonempty rational matrix, from one exact
    elimination: rows - rank, the rank being columns - kernel dimension."""
    kernel = kernel_basis(rows)
    return len(rows) - (len(rows[0]) - len(kernel)), kernel


def unity_configs(k, n_max):
    """The distinct projectivized root-of-unity tuples (x1 = 1) of k = 2 or 3
    points with 2 <= n <= n_max, as (n, exponents) in increasing n,
    deduplicated by their sorted reduced fractions e/n: the oracle of
    `_scan_table`.  Empty for any other k."""
    seen = set()
    out = []
    for n in range(2, n_max + 1):
        if k == 2:
            combos = [(p,) for p in range(1, n)]
        elif k == 3:
            combos = zip(*(e.tolist() for e in admissible_pairs(n)))
        else:
            combos = []
        for exps in combos:
            key = tuple(sorted((e // gcd(e, n), n // gcd(e, n)) for e in exps))
            if key not in seen:
                seen.add(key)
                out.append((n, (0,) + exps))
    return tuple(out)


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


def actual_label(f, g):
    """General label of (f, g): boundary pair orders plus per-root order pairs."""
    if f.is_zero or g.is_zero:
        raise ValueError("label of a zero polynomial is undefined")
    j0 = jinf = 0
    roots = []
    for r in common_roots(f, g):
        if r.kind == "zero":
            j0 = r.pair_ord
        elif r.kind == "infinity":
            jinf = r.pair_ord
        else:
            roots.append((r.ord1, r.ord2))
    return StratumLabel(j0, jinf, tuple(roots))


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

    def test_boundary_orders_match_end_zero_counts(self):
        # every ordered pair of min-0 supports of spread <= 4 under five
        # labels with boundary orders or multiplicities, seeds 0-1: each draw
        # is a member, and zeroing the lowest or highest coefficient of f or
        # g leaves a member exactly when the oracle says so.  The oracle
        # counts zero coefficients from each end of the form for the orders
        # at 0 and infinity, and matches the label's root pairs to the finite
        # common roots by brute force
        def end_zeros(h):
            nonzero = [j for j, c in enumerate(h.coeff(e) for e in range(h.support.min, h.support.max + 1)) if c]
            return nonzero[0], h.support.spread - nonzero[-1]

        def oracle(f, g, label):
            (f0, finf), (g0, ginf) = end_zeros(f), end_zeros(g)
            if min(f0, g0) < label.j0 or min(finf, ginf) < label.jinf:
                return False
            finite = [r for r in common_roots(f, g) if r.kind == "finite"]
            return any(
                all(r.ord1 >= j1 and r.ord2 >= j2 for r, (j1, j2) in zip(chosen, label.roots))
                for chosen in itertools.permutations(finite, label.k)
            )

        sups = [(0, *mid, top) for top in range(1, 5) for r in range(top) for mid in itertools.combinations(range(1, top), r)]
        members, outcomes = 0, Counter()
        for b1, b2 in itertools.product(sups, repeat=2):
            for name in ("N_1^0(1)", "N_0^1(1)", "N_1^1(1,1)", "N_2^0", "N(2,1;1,1)"):
                label = parse_label(name)
                for seed in (0, 1):
                    got = sample_filtration_subset(pair(b1, b2), label, seed=seed)
                    if got is None:
                        continue
                    f, g, _ = got
                    assert in_filtration_subset(f, g, label) and oracle(f, g, label), (b1, b2, name, seed)
                    members += 1
                    for side, h in enumerate((f, g)):
                        for end in (h.support.min, h.support.max):
                            cut = LaurentPoly(h.support, {**h.coeffs, end: 0})
                            if cut.is_zero:
                                continue
                            fg = (cut, g) if side == 0 else (f, cut)
                            want = oracle(*fg, label)
                            assert in_filtration_subset(*fg, label) == want, (b1, b2, name, seed, side, end)
                            outcomes[want] += 1
        assert members == 988 and outcomes[True] and outcomes[False], (members, outcomes)


class TestVandermonde:
    def test_derivative_rows(self):
        rows = multiplicity_vandermonde(S(0, 1, 2), (Fraction(1),), (2,))
        assert rows == [[1, 1, 1], [0, 1, 2]]

    def test_unity_corank(self):
        # the cube roots of unity, by the oracle's RREF
        pts = [RootOfUnity(3, 0), RootOfUnity(3, 1), RootOfUnity(3, 2)]
        rows = unity_vandermonde(S(0, 3, 6), pts, (1, 1, 1))
        assert len(rows) - cyclo_rref(rows)[0] == 2

    def test_pm_one(self):
        rows = multiplicity_vandermonde(S(0, 2), (Fraction(1), Fraction(-1)), (1, 1))
        assert rows == [[1, 1], [1, 1]]
        assert corank_kernel(rows)[0] == 1

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_vandermonde(S(0, 1), (Fraction(1), Fraction(1)), (1, 1))
        with pytest.raises(ValueError):
            multiplicity_vandermonde(S(0, 1), (Fraction(0), Fraction(1)), (1, 1))

    def test_distinct_rationals_of_one_float(self):
        # distinctness is exact: these two points round to the same float
        pts = (Fraction(1, 10**20), Fraction(1, 10**20 + 1))
        assert float(pts[0]) == float(pts[1])
        rows = multiplicity_vandermonde(S(0, 1, 2), pts, (1, 1))
        assert rows == [[1, x, x**2] for x in pts]
        assert corank_kernel(rows)[0] == 0

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


class TestSampling:
    def test_generic_samples_members(self):
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        for name in ("N(1)", "N(1,1)", "N(2)", "N(1,1,1)", "N(2,1;1,1)", "N_1^0(1)"):
            label = parse_label(name)
            got = sample_filtration_subset(p, label, seed=61)
            assert got is not None, name
            f, g, _ = got
            assert in_filtration_subset(f, g, label), name

    def test_samples_are_exact(self):
        # every draw of this grid succeeds: rational coefficients, and
        # distinct nonzero rational points
        p = pair((0, 1, 2, 3, 4), (0, 1, 2, 3))
        for name in ("N(1)", "N(1,1)", "N(2)", "N(1,1,1)", "N(2,1;1,1)", "N_1^0(1)", "N(2,2;1,1)"):
            label = parse_label(name)
            for seed in range(10):
                f, g, pts = sample_filtration_subset(p, label, seed=seed)
                values = [*f.coeffs.values(), *g.coeffs.values(), *pts]
                assert all(type(v) in (int, Fraction) for v in values), (name, seed)
                assert len(set(pts)) == len(pts) == label.k and all(pts), (name, seed)

    def test_overdetermined_returns_none(self):
        p = pair((0, 1), (0, 1))
        label = parse_label("N(1,1)")  # two roots need kernel dim >= 1 each
        assert sample_filtration_subset(p, label, seed=62) is None

    def test_one_draw_is_a_member_unless_a_side_kernel_is_empty(self):
        # every ordered pair of supports of spread <= 3: the one draw is None
        # exactly when a side's effective support is empty or its multiplicity
        # Vandermonde at the drawn points has full column rank, and a member
        # at those points otherwise
        sups = [(0, *mid, top) for top in (1, 2, 3) for r in range(top) for mid in itertools.combinations(range(1, top), r)]
        names = ("N(1)", "N(1,1)", "N(2)", "N(1,1,1)", "N(2,1;1,1)", "N_1^0(1)", "N(2,2;1,1)")

        def kernel_is_empty(b, label, pts, side):
            eff = [e for e in b if b[0] + label.j0 <= e <= b[-1] - label.jinf]
            js = label.side_orders(side)
            return not eff or bool(js) and exact_rref(multiplicity_vandermonde(S(*eff), pts, js))[0] == len(eff)

        outcomes = Counter()
        for b1, b2 in itertools.product(sups, repeat=2):
            for name in names:
                label = parse_label(name)
                for seed in (0, 1):
                    pts = _distinct_points(random.Random(seed), label.k)
                    empty = kernel_is_empty(b1, label, pts, 1) or kernel_is_empty(b2, label, pts, 2)
                    got = sample_filtration_subset(pair(b1, b2), label, seed=seed)
                    outcomes[empty] += 1
                    if empty:
                        assert got is None, (b1, b2, name, seed)
                    else:
                        f, g, xs = got
                        assert xs == pts and in_filtration_subset(f, g, label), (b1, b2, name, seed)
        assert sum(outcomes.values()) == 49 * 7 * 2 and outcomes[True] and outcomes[False]
        # the membership proof rests on nonzero weights and points
        rng = random.Random(0)
        assert all(_random_fraction(rng) for _ in range(2000))

    def test_point_classifier_draws_are_frozen(self):
        # verify-paper's point-classifier draws its N(1), N(1,1) and N(2)
        # constructions from one rng at seed 23; on the first family its
        # first three draws are clean, so they are the first construction of
        # each scenario, and a changed draw stream shows here
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        rng = random.Random(23)
        got = []
        for name in ("N(1)", "N(1,1)", "N(2)"):
            label = parse_label(name)
            f, g, pts = _draw_filtration_pair(p, label, rng)
            assert _construction_is_clean(f, g, [(x, *orders) for x, orders in zip(pts, label.roots)]), name
            got.append((pts, [f.coeffs[e] for e in range(4)], [g.coeffs[e] for e in range(4)]))
        F = Fraction
        assert got == [
            ([-7], [F(2317, 3), 3, 1, F(7, 3)], [F(10549, 6), F(-5, 6), -1, 5]),
            ([F(-2, 5), 5], [F(-9, 5), F(-357, 50), -6, F(3, 2)], [F(-26, 3), F(-113, 5), F(-9, 5), F(4, 3)]),
            ([-4], [F(-1024, 15), F(-144, 5), F(-8, 5), F(1, 3)], [F(256, 5), F(88, 5), F(-4, 5), F(-1, 2)]),
        ]

    def test_stratum_order_draws_are_frozen(self):
        # verify-paper's stratum-order check samples N(2,2;1,1) on the classical
        # pair at seeds 11..30; a changed draw stream shows here
        ok, details = check_stratum_order()
        assert ok and details == {"domination_facts": True, "inclusion_samples": 20, "labels_checked": 51}
        classical = pair((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
        f, g, pts = sample_filtration_subset(classical, parse_label("N(2,2;1,1)"), seed=11)
        assert pts == [1, Fraction(5, 4)]
        assert [f.coeffs[e] for e in range(5)] == [
            Fraction(35, 16), Fraction(-63, 8), Fraction(847, 80), Fraction(-63, 10), Fraction(7, 5)
        ]
        assert [g.coeffs[e] for e in range(5)] == [
            Fraction(-1025, 64), Fraction(1265, 64), Fraction(-3, 2), Fraction(7, 4), -4
        ]


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

    def test_mixed_predictions_match_two_class_oracle(self):
        # with coprime gap gcds, joint:1,2 is predicted iff B1 falls into
        # exactly two residue classes mod some k >= 3 dividing gap_gcd(B2)
        def two_classes(target, g_other):
            return any(len({e % k for e in target}) == 2 for k in range(3, g_other + 1) if g_other % k == 0)

        label = parse_label("N(1,1,1)")
        sups = [
            (0, *mid, top)
            for top in range(1, 13)
            for size in range(3)
            for mid in itertools.combinations(range(1, top), size)
        ]
        gaps = {b: gap_gcd(S(*b)) for b in sups}
        checked = 0
        for b1, b2 in itertools.product(sups, repeat=2):
            g1, g2 = gaps[b1], gaps[b2]
            if gcd(g1, g2) != 1:
                continue
            pred = _stratum_predictions(_sides(pair(b1, b2), label))
            assert pred["joint:1,2"] == two_classes(b1, g2), (b1, b2)
            assert pred["joint:2,1"] == two_classes(b2, g1), (b1, b2)
            checked += 1
        assert (len(sups), checked) == (298, 86926)

    def test_multiplicity_label_scans_exactly(self):
        rep = scan_corank_strata(pair((0, 3, 6), (0, 3, 6)), parse_label("N(2,1;1,1)"), 6)
        # derivative rows break row-constancy; scan must still run exactly
        assert rep.label == "N(2,1;1,1)"

    def test_multiplicity_scan_inverts_nothing(self, monkeypatch):
        # unity coranks by division-free elimination mod p, generic ones by formula
        def forbidden(*args):
            raise AssertionError("field elimination in the corank scan")

        monkeypatch.setattr(singres.exact, "exact_rref", forbidden)
        for name in ("N(2,1)", "N(2,1;1,1)", "N(2,2)"):
            for b1, b2 in [((0, 3, 6), (0, 3, 6)), ((0, 1, 4, 6), (0, 2, 5))]:
                rep = scan_corank_strata(pair(b1, b2), parse_label(name), 8, seed=1)
                assert rep.configs_scanned == len(_scan_table(2, 8)[2])
        assert not hasattr(singres.strata, "exact_rref")

    def test_generic_corank_is_descartes_bound(self):
        # at distinct positive points the multiplicity Vandermonde has rank
        # min(sum(js), |B|), negative exponents included
        rng = random.Random(11)
        deficient = 0
        for _ in range(150):
            lo = rng.randint(-6, 0)
            b = S(*rng.sample(range(lo, lo + 10), rng.randint(1, 6)))
            js = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            pts = []
            while len(pts) < len(js):
                x = abs(_random_fraction(rng))
                if x not in pts:
                    pts.append(x)
            rows = multiplicity_vandermonde(b, pts, js)
            want = max(0, sum(js) - len(b))
            assert len(rows) - exact_rref(rows)[0] == want, (b, pts, js)
            deficient += want > 0
        assert deficient > 20
        # signed points are not covered: (1, -1) on B = (0, 2, 4) repeats a row
        assert corank_kernel(multiplicity_vandermonde(S(0, 2, 4), [1, -1], [1, 1]))[0] == 1

    def test_multiplicity_rank_matches_rref(self):
        # every multiplicity Vandermonde the scan ranks for these labels,
        # with n <= 8, against the CycloElement RREF oracle: the scan's
        # coranks, and the conjugate ranks on every tuple, fallback or not
        sups = [S(0, 2, 4, 6), S(-2, 0, 3), S(0, 3, 6, 8, 9)]
        checked = deficient = 0
        for name in ("N(2,1)", "N(2,2)", "N(3,1)", "N(2,1,1)"):
            label = parse_label(name)
            js = label.side_orders(1)
            ns, exps, configs, *_ = _scan_table(label.k, 8)
            for b in sups:
                want = []
                for n, tup in configs:
                    rows = unity_vandermonde(b, [RootOfUnity(n, p) for p in tup], js)
                    want.append(cyclo_rref(rows)[0])
                    assert cyclo_rank(rows) == want[-1], (name, n, tup, b)
                assert _conjugate_ranks(b.elements, js, ns, exps).tolist() == want, (name, b)
                assert (sum(js) - _unity_coranks(_Side(b, js, gap_gcd(b)), ns, exps)).tolist() == want, (name, b)
                checked += len(want)
                deficient += sum(rank < min(sum(js), len(b)) for rank in want)
        assert checked == 3 * (3 * len(_scan_table(2, 8)[2]) + len(_scan_table(3, 8)[2]))
        assert deficient > 10

    def test_fallback_tuples_match_rref(self):
        # every tuple whose first rank mod p is not full, on the symmetric
        # pairs (b, b) of spread <= 7 at n_max 12, against the oracle's RREF
        checked = 0
        for name in ("N(2,1)", "N(2,1;1,1)", "N(3)", "N(2,2)"):
            label = parse_label(name)
            ns, exps, configs, *_ = _scan_table(label.k, 12)
            primes, roots = np.array([split_prime(n) for n in ns.tolist()], dtype=np.int64).reshape(-1, 2).T
            for b in _normalized_supports(7):
                for js in {label.side_orders(1), label.side_orders(2)}:
                    if all(j == 1 for j in js):
                        continue
                    first = modular_rank(_hermite_stack(b.elements, js, exps, ns, primes, roots), primes)
                    cork = _unity_coranks(_Side(b, js, gap_gcd(b)), ns, exps)
                    for i in np.flatnonzero(first < min(sum(js), len(b))).tolist():
                        n, tup = configs[i]
                        rows = unity_vandermonde(b, [RootOfUnity(n, p) for p in tup], js)
                        assert cork[i] == len(rows) - cyclo_rref(rows)[0], (name, b, n, tup)
                        checked += 1
        assert checked == 51

    def test_fallback_takes_several_primes_for_huge_exponents(self):
        # (0, 3, 2^62 + 3) under N(2,1): the Hadamard bound passes 2^62, so
        # the conjugates are taken at three split primes
        b = S(0, 3, 2**62 + 3)
        label = parse_label("N(2,1)")
        js = label.side_orders(1)
        ns, exps, configs, *_ = _scan_table(2, 12)
        primes_used = []
        real = singres.strata.split_primes

        def counted(n):
            for prime in real(n):
                primes_used.append((n, prime[0]))
                yield prime

        for n in (3, 6, 9, 12):
            sel = np.flatnonzero(ns == n)
            want = []
            for i in sel.tolist():
                rows = unity_vandermonde(b, [RootOfUnity(n, p) for p in configs[i][1]], js)
                want.append(cyclo_rref(rows)[0])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(singres.strata, "split_primes", counted)
                got = _conjugate_ranks(b.elements, js, ns[sel], exps[sel])
            assert got.tolist() == want, n
            assert (sum(js) - _unity_coranks(_Side(b, js, gap_gcd(b)), ns[sel], exps[sel])).tolist() == want, n
            assert [p for m, p in primes_used if m == n] == [p for p, _ in itertools.islice(real(n), 3)]

    def test_hermite_layout_cache_is_bounded(self):
        # the layout cache is keyed by the effective support, which comes
        # from the input: 62 Hermite-path scans on distinct supports build
        # over 1,000 layouts, and the cache keeps at most 256
        singres.strata._hermite_layout.cache_clear()
        label = parse_label("N(2,2;1,1)")
        for b in supports_up_to(6):
            scan_corank_strata(SupportPair(b, b), label, 12)
        info = singres.strata._hermite_layout.cache_info()
        assert info.misses > 1000 and info.currsize <= info.maxsize == 256

    def test_matches_per_config_reference(self):
        rng = random.Random(5)
        cases = [(b, b, "N(1,1,1)", 12) for b in _normalized_supports(10)[::23]]
        cases += [((0, 3, 6), (0, 3, 6), "N(1,1)", 12), ((0, 2, 4, 6), (0, 2, 4, 6), "N(1)", 12)]
        for i in range(30):
            b1 = tuple(sorted({0, 9, *rng.sample(range(1, 9), rng.randint(1, 4))}))
            b2 = tuple(sorted({0, 8, *rng.sample(range(1, 8), rng.randint(1, 4))}))
            cases.append((b1, b2, ("N(1)", "N(1,1)", "N(1,1,1)")[i % 3], 12))
        cases += [((0, 3, 6), (0, 3, 6), "N(2,1)", 7), ((0, 2, 4, 7), (0, 1, 5, 7), "N(2,1)", 7)]
        cases += [
            ((0, 2, 4, 6), (0, 2, 4, 6), "N(2,2)", 7),
            ((0, 1, 3), (0, 2, 5, 6), "N(2,2)", 7),
            ((0, 3, 6, 9), (0, 1, 4), "N(3,1)", 7),
            ((0, 2, 4), (0, 1, 2, 6), "N(3,1)", 7),
            ((0, 2, 4, 6), (0, 3, 6), "N(1,1;2,1)", 7),
            ((0, 1, 5), (0, 4, 8), "N(1,1;2,1)", 7),
        ]
        for b1, b2, name, n_max in cases:
            p, label = pair(b1, b2), parse_label(name)
            rep = scan_corank_strata(p, label, n_max, seed=3)
            assert (rep.found, rep.generic_corank, rep.generic_witness) == reference_scan(p, label, n_max, seed=3), (b1, b2, name)
            assert rep.mismatches == []

    def test_scans_without_unity_tuples(self):
        # k = 3 below n = 3 and k = 2 below n = 2 have no tuple to rank; the
        # report still carries the generic corank and the predictions
        cases = [("N(1,1,1)", 2), ("N(1,1,1)", 1), ("N(1,1)", 1), ("N(2,1)", 1), ("N(1,1,1)", 0)]
        for name, n_max in cases:
            for b1, b2 in [((0, 3, 6), (0, 3, 6)), ((0, 1), (0, 2, 5, 6))]:
                p, label = pair(b1, b2), parse_label(name)
                rep = scan_corank_strata(p, label, n_max, seed=2)
                assert rep.configs_scanned == 0, (name, n_max)
                assert (rep.found, rep.generic_corank, rep.generic_witness) == reference_scan(p, label, n_max, seed=2)
                assert json.loads(json.dumps(rep.to_json()))["configs_scanned"] == 0

    def test_single_root_scans(self):
        # k = 1 ranks no tuple, whatever n_max: the table's one tuple (1,),
        # n = 1, is a positive point, of the generic stratum
        for name in ("N(1)", "N(2)", "N(3)", "N(1;2)"):
            for b1, b2 in [((0, 3, 6), (0, 3, 6)), ((0, 1), (0, 2, 5, 6)), ((-4, 2), (0, 2))]:
                p, label = pair(b1, b2), parse_label(name)
                for n_max in (1, 12):
                    rep = scan_corank_strata(p, label, n_max, seed=4)
                    assert (rep.configs_scanned, rep.found) == (0, {})
                    assert (rep.found, rep.generic_corank, rep.generic_witness) == reference_scan(p, label, n_max, seed=4)
                    assert rep.mismatches == [], (name, b1, b2)

    def test_huge_exponents_match_python_int_reference(self):
        # p*b in int64 would wrap for these exponents (and fail to convert
        # past 2^63); (0, 2, 2^62 + 1) is (0, 2, 2) mod 3, so its first
        # side has corank 1 at zeta_3, not 0
        p = pair((0, 2, 2**62 + 1), (0, 3))
        rep = scan_corank_strata(p, parse_label("N(1,1,1)"), 3)
        assert (list(rep.found), rep.generic_corank) == ([(1, 2)], (0, 1))
        # at least k exponents a side, so the generic corank is (0, 0)
        big = (2**62 + 1, 2**63 + 5, 2**64 + 1, -(2**70) - 1)
        cases = [((0, 2, b), (0, 3, 6)) for b in big] + [((0, 1, big[2]), (0, big[1], 2**66 + 4))]
        for b1, b2 in cases:
            for name in ("N(1,1)", "N(1,1,1)"):
                p, label = pair(b1, b2), parse_label(name)
                rep = scan_corank_strata(p, label, 12, seed=6)
                assert rep.generic_corank == (0, 0)
                want, _, _ = reference_scan(p, label, 12, seed=6, generic_tuples=False)
                assert rep.found == want, (b1, b2, name)
                assert rep.mismatches == [], (b1, b2, name)

    def test_multiplicity_free_scan_needs_no_split_prime(self, monkeypatch):
        # the closed-form rank needs no arithmetic mod p, and the side
        # coranks (`_side_coranks`) take no rank mod p: they read |B mod n|
        # (order-1 sides), |B| (sides of orders (2, 1) and (1, 2)) and
        # gcd(n, g) per modulus, for the scan and the estimator alike
        def forbidden(*args):
            raise AssertionError(f"split-prime arithmetic or a per-tuple rank in a closed-form scan: {args}")

        monkeypatch.setattr(singres.kernels, "conjugate_zeros", forbidden)
        for attr in ("split_prime", "modular_rank", "_hermite_stack"):
            monkeypatch.setattr(singres.strata, attr, forbidden)
        for name in ("N(1)", "N(1,1)", "N(1,1,1)", "N(2,1)", "N(2,1;1,1)", "N(1,1;2,1)"):
            label = parse_label(name)
            for b1, b2 in [((0, 3, 6, 7), (0, 2, 4)), ((0, 3, 6), (0, 3, 6)), ((0, 2, 2**62 + 1), (0, 3)), ((0, 1), (0, 4))]:
                rep = scan_corank_strata(pair(b1, b2), label, 12)
                assert rep.mismatches == []
                if label.k == 2:
                    estimate_codim(pair(b1, b2), label)

    def test_boundary_orders_rejected(self):
        # the scan ranks finite tuples only, so a j0/jinf label would be
        # reported under its name with the boundary orders ignored
        for name in ("N_1(1,1)", "N^1(1,1)", "N_1^1(1,1)"):
            with pytest.raises(ValueError, match="boundary orders"):
                scan_corank_strata(pair((0, 1, 3, 6), (0, 2, 3)), parse_label(name), 8)

    def test_scan_table_matches_fraction_dedup(self):
        # gcd(n, p[, q]) = 1 lists each tuple once, at its least n, in the
        # order that deduplicating reduced fractions finds them
        for k in (1, 2, 3):
            for n_max in range(1, 31):
                ns, exps, configs, moduli, at = _scan_table(k, n_max)
                assert configs == (((1, (0,)),) if k == 1 else unity_configs(k, n_max)), (k, n_max)
                assert ns.tolist() == [n for n, _ in configs]
                assert exps.tolist() == [list(e) for _, e in configs]
                assert moduli == tuple(sorted(set(ns.tolist())))
                assert [moduli[i] for i in at.tolist()] == ns.tolist()

    def test_report_observability(self):
        rep = scan_corank_strata(pair((0, 3, 6), (0, 1, 3)), parse_label("N(1,1,1)"), 12)
        data = rep.to_json()
        assert data["configs_scanned"] == len(_scan_table(3, 12)[2])
        assert data["version"] == singres.__version__
        assert set(data["timings"]) == {"unity_s", "generic_s"}
        assert all(t >= 0 for t in data["timings"].values())


def supports_up_to(spread):
    """Every support with min 0 and spread 1..spread."""
    return [S(0, *mid, top) for top in range(1, spread + 1) for size in range(top) for mid in itertools.combinations(range(1, top), size)]


class PerTupleScan:
    """The per-tuple oracle of the multiplicity-free scan: each support's
    coranks at every tuple of _scan_table(k, top), from one closed_form_rank
    call on the tuples' power rows (p, q) (the closed-form rank, tuple by
    tuple); the strata at n_max <= top come from the table's prefix with
    n <= n_max, by np.unique."""

    def __init__(self, k, top=12):
        self.k = k
        self.ns, self.exps, self.configs, *_ = _scan_table(k, top)
        self.sides = {}

    def side(self, b):
        if b not in self.sides:
            k, exps = self.k, self.exps
            self.sides[b] = k - closed_form_rank(b, self.ns, exps[:, min(k, 2) - 1], exps[:, k - 1])
        return self.sides[b]

    def tally(self, p, n_max):
        """{(c1, c2): (count, first tuple)}, as `_corank_classes` returns
        them."""
        stop = len(_scan_table(self.k, n_max)[2])
        cork1, cork2 = self.side(p.b1)[:stop], self.side(p.b2)[:stop]
        codes = cork1 * (self.k + 1) + cork2
        live = np.flatnonzero(codes)
        _, first, counts = np.unique(codes[live], return_index=True, return_counts=True)
        return {(int(cork1[i]), int(cork2[i])): (count, self.configs[i]) for i, count in zip(live[first].tolist(), counts.tolist())}

    def found(self, p, n_max):
        """The scan's `found`: each nonzero corank pair with its count and
        first witness, in order of first witness."""
        out = {}
        for key, (count, (n, tup)) in sorted(self.tally(p, n_max).items(), key=lambda item: item[1][1]):
            out[key] = {"count": count, "witness": {"kind": "unity", "n": n, "exponents": list(tup)}}
        return out


def assert_tally(oracle, p, label, n_max):
    """The classes of `_corank_classes` are the per-tuple oracle's strata.
    A table that lists a tuple with gcd(n, p, q) > 1, of period below n,
    fails the comparison.

    The oracle checks no gap form beside the tally, as none can fail.
    Lemma (gap form).  Every corank-2 tuple (n, (0, p, q)) of the table on
    side 1 has h_1 = n/gcd(n, g_1) dividing p and q.  At k = 3 it has
    min(|B_1 mod n|, 3 - flag) = 1, so |B_1 mod n| = 1: n divides g_1, so
    h_1 = 1.  At k = 2 it has c_1 = 0: never on an order-1 side, and on a
    side of orders (2, 1) or (1, 2) only for |B_1| = 1, whose gap gcd 0
    gives h_1 = 1 again."""
    assert _corank_classes(_sides(p, label), n_max) == oracle.tally(p, n_max), (p.b1.elements, p.b2.elements, n_max)


class TestCorankTally:
    """The multiplicity-free scan's class tables (`_side_coranks`,
    `_signature_classes`) against the per-tuple coranks.  They are read at
    k = 2 and 3 only: a one-root label has no root-of-unity stratum."""

    LABELS = ("N(1,1)", "N(1,1,1)")

    def test_tables_are_prefixes(self):
        # the oracle reads the table at n_max <= 12 as a prefix of the one at 12
        for k in (1, 2, 3):
            full = _scan_table(k, 12)[2]
            for n_max in range(0, 13):
                configs = _scan_table(k, n_max)[2]
                assert configs == full[: len(configs)] == tuple(c for c in full if c[0] <= n_max)

    def test_symmetric_supports_match_per_tuple_scan(self):
        # every symmetric support of the corank2-dichotomy check, whole
        # reports: counts, witnesses, their order, and the mismatch list
        oracle, label = PerTupleScan(3), parse_label("N(1,1,1)")
        sups = _normalized_supports(10)
        for b in sups:
            p = SupportPair(b, b)
            rep = scan_corank_strata(p, label, 12, seed=5)
            assert list(rep.found.items()) == list(oracle.found(p, 12).items()), b.elements
            assert rep.mismatches == [], b.elements
        assert len(sups) == 1013

    @pytest.mark.parametrize("name", LABELS)
    def test_asymmetric_pairs_match_per_tuple_scan(self, name):
        # every ordered pair of supports of spread <= 6 at n_max 12, and at
        # every n_max from 1 to 11 on every seventh pair, twice: right after
        # the class caches are cleared, and warm, when every tally is a hit
        # of the signature cache, so a wrong or stale cached mapping fails
        label = parse_label(name)
        oracle, sups = PerTupleScan(label.k), supports_up_to(6)
        pairs = list(itertools.product(sups, repeat=2))
        for cache in (_signature_classes, _side_coranks):
            cache.cache_clear()
        for warm in (False, True):
            misses = _signature_classes.cache_info().misses
            checked = 0
            for i, (b1, b2) in enumerate(pairs):
                p = SupportPair(b1, b2)
                for n_max in range(1, 13) if i % 7 == 0 else (12,):
                    assert_tally(oracle, p, label, n_max)
                    checked += 1
            assert (len(sups), checked) == (63, 3969 + 567 * 11)
            assert (_signature_classes.cache_info().misses == misses) == warm
        # whole reports on a sample
        for b1, b2 in pairs[::97]:
            p = SupportPair(b1, b2)
            rep = scan_corank_strata(p, label, 12, seed=1)
            assert list(rep.found.items()) == list(oracle.found(p, 12).items()), (b1.elements, b2.elements)

    def test_negative_and_huge_exponents(self):
        # residues and gap gcds of exponents past int64, and below zero
        big = (2**62 + 1, 2**63 + 5, 2**64 + 1, -(2**70) - 1)
        sides = [S(0, 2, b) for b in big] + [S(-7, -2, 0, 5), S(-(2**65), 3, 2**63), S(-12, -6, 0, 6), S(0, 3)]
        for name in self.LABELS:
            label = parse_label(name)
            oracle = PerTupleScan(label.k)
            for b1, b2 in itertools.product(sides, repeat=2):
                p = SupportPair(b1, b2)
                for n_max in range(1, 13):
                    assert_tally(oracle, p, label, n_max)

    def test_gap_gcd_past_int64(self):
        # at n_max 47 the lcm of the moduli passes int64, and so does the key
        # g = gcd(g_s, lcm) of a side whose gap gcd is lcm/9: its orders
        # n/gcd(n, g), 9 at n = 27, and its (2, 1) flags n | g are exact
        top = lcm(*range(1, 48))
        assert top // 9 > 2**63
        sides = [S(0, top // 9, 2 * top // 9), S(0, top // 9, 5 * top // 9, top), S(0, top), S(0, 2, top + 2), S(0, 1, 3)]
        for name in self.LABELS:
            label = parse_label(name)
            oracle = PerTupleScan(label.k, 47)
            for b1, b2 in itertools.product(sides, repeat=2):
                assert_tally(oracle, SupportPair(b1, b2), label, 47)
        ns, exps, _, moduli, _ = _scan_table(2, 47)
        for b in sides:
            side = _Side(b, (2, 1), gap_gcd(b))
            value = dict(zip(moduli, _table_values(side, moduli, top)[0]))
            want = _unity_coranks(side, ns, exps).tolist()
            assert [2 - int(_rank(value[n], True)) for n in ns.tolist()] == want, b.elements

    def test_cached_classes_are_read_only(self):
        # every scan whose sides share their signatures reads one cached
        # mapping, so no caller may write to it
        for name in ("N(1,1)", "N(1,1,1)", "N(2,1)"):
            sides = _sides(pair((0, 3, 6), (0, 2, 5)), parse_label(name))
            classes = _corank_classes(sides, 12)
            assert classes is _corank_classes(sides, 12) and classes
            key, (count, (n, exps)) = next(iter(classes.items()))
            with pytest.raises(TypeError):
                classes[key] = (count + 1, (n, exps))
            with pytest.raises(TypeError):
                del classes[key]
            for method in ("clear", "pop", "popitem", "setdefault", "update"):
                assert not hasattr(classes, method), method
            assert type(exps) is tuple and _corank_classes(sides, 12)[key] == (count, (n, exps))

    def test_two_one_sides_match_hermite_path(self):
        # the closed form of a side of orders (2, 1) or (1, 2) against the
        # Hermite path (`_unity_coranks`) at all 45 tuples of
        # _scan_table(2, 12), on every support of spread <= 8 with min 0,
        # plus {0}, and on their translates by -3: per tuple from the table
        # value c_s (`_table_values`) as the cached table reads it, 2 -
        # min(c_s, 2), and per support through the whole tally, with the
        # (2, 1) side on side 1 and the (1, 2) side on side 2
        ns, exps, configs, *_ = _scan_table(2, 12)
        moduli = tuple(sorted(set(ns.tolist())))
        top = lcm(*moduli)
        sups = [S(0)] + supports_up_to(8)
        sups += [SupportSet(tuple(e - 3 for e in b.elements)) for b in sups]
        checked = 0
        for b in sups:
            sides = tuple(_Side(b, js, gap_gcd(b)) for js in ((2, 1), (1, 2)))
            hermite = [_unity_coranks(side, ns, exps).tolist() for side in sides]
            for side, want in zip(sides, hermite):
                value = dict(zip(moduli, _table_values(side, moduli, top)[0]))
                assert [2 - int(_rank(value[n], True)) for n in ns.tolist()] == want, (b.elements, side.js)
                checked += len(want)
            classes = {}
            for config, key in zip(configs, zip(*hermite)):
                if key != (0, 0):
                    count, first = classes.get(key, (0, config))
                    classes[key] = (count + 1, first)
            assert _corank_classes(sides, 12) == classes, b.elements
        assert (len(sups), checked) == (512, 46080)

def reference_corank_monomial(b_elems, exps, n):
    """Corank of the k x |B| matrix with rows zeta_n^(p*e), e in B, for one
    configuration exps = (0, p[, q]): k - 1 when every row is constant,
    else for k = 3 whether all 3x3 minors vanish (the cyclotomic oracle).
    Exact for exponents of any size."""
    k = len(exps)
    if all((p * (e - b_elems[0])) % n == 0 for p in exps for e in b_elems):
        return k - 1
    if k < 3:
        return 0
    # zeta_n^e depends on e mod n only: reduce in Python ints, whatever the size
    return int(all_minors_oracle(n, [e % n for e in b_elems], [exps[1]], [exps[2]])[0])


def reference_corank_elimination(b, exps, n, js):
    """Corank of the multiplicity Vandermonde at the tuple zeta_n^p, p in
    exps, by the CycloElement RREF oracle."""
    rows = unity_vandermonde(b, [RootOfUnity(n, p) for p in exps], js)
    return len(rows) - cyclo_rref(rows)[0]


def reference_scan(p, label, n_max, seed, generic_tuples=True):
    """The found strata, generic corank and generic witness of
    scan_corank_strata, computed one configuration and one side at a time:
    unity coranks from the cyclotomic oracles, generic coranks by
    eliminating four positive tuples with corank_kernel, the first of them
    the witness of a nonzero one.  generic_tuples=False leaves the generic
    tuples out (their exact powers are out of reach for huge exponents) and
    returns None for the generic corank and witness."""
    js = label.side_orders(1), label.side_orders(2)
    sides = (p.b1, p.b2)
    found = {}

    def note(key, payload):
        found.setdefault(key, {"count": 0, "witness": payload})["count"] += 1

    for n, exps in unity_configs(label.k, n_max):  # none at k = 1, whose (1,) is a generic point
        if all(j == 1 for j in js[0] + js[1]):
            key = tuple(reference_corank_monomial(b.elements, exps, n) for b in sides)
        else:
            key = tuple(reference_corank_elimination(b, exps, n, j) for b, j in zip(sides, js))
        if key != (0, 0):
            note(key, {"kind": "unity", "n": n, "exponents": list(exps)})
    rng = random.Random(seed)
    generic = witness = None
    for _ in range(4 if generic_tuples else 0):
        pts = []
        while len(pts) < label.k:
            x = abs(_random_fraction(rng))
            if x not in pts:
                pts.append(x)
        key = tuple(
            corank_kernel(multiplicity_vandermonde(b, pts, j))[0] for b, j in zip(sides, js)
        )
        if generic is None and key != (0, 0):
            witness = {"kind": "generic", "points": [str(x) for x in pts]}
        generic = key if generic is None else tuple(map(min, generic, key))
    return found, generic, witness


def counted_certified_points(monkeypatch):
    """Patch the estimator's minor-curve certificate to record the number of
    points it certifies, one entry per call; returns that list."""
    counts = []
    real = singres.strata._minor_certificates

    def counted(*args):
        decided, points = real(*args)
        counts.append(points)
        return decided, points

    monkeypatch.setattr(singres.strata, "_minor_certificates", counted)
    return counts


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
        assert any(s.kind == "unity" and s.dim == 5 for s in est.strata)

    def test_split_deficiency(self):
        est = estimate_codim(
            pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label("N(1,1,1)"), seed=74
        )
        assert est.estimate == 2

    def test_empty_subset_reports_none(self):
        # two-element supports cannot vanish at two points with orders (2, 2)
        est = estimate_codim(pair((0, 1), (0, 1)), parse_label("N(2,2)"), seed=75)
        assert est.best_dim_found is None and est.estimate is None

    def test_report_observability(self, monkeypatch):
        points = counted_certified_points(monkeypatch)
        p, label = pair((0, 1, 2, 3), (0, 1, 2, 3)), parse_label("N(1,1,1)")
        est = estimate_codim(p, label, seed=7)
        data = est.to_json()
        assert data["version"] == singres.__version__
        assert set(data["timings"]) == {"generic_s", "unity_s", "minor_curve_s"}
        assert all(t >= 0 for t in data["timings"].values())
        # the same fields on a pair whose tuples fall into nonzero classes
        split = estimate_codim(pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), label, seed=7).to_json()["components_probed"]
        points.pop()
        comps = data["components_probed"]
        # every component is decided: no votes, kernels plus r directions
        assert all(c["exact"] is True and "votes" not in c for c in comps + split)
        assert all(c["dim_found"] == c["kd1"] + c["kd2"] + c["r"] for c in comps)
        assert comps[0]["component"] == "generic" and comps[0]["r"] == 3
        unity = [c for c in comps if c["component"].startswith("unity")]
        minors = [c for c in comps if c["component"].startswith("minor-curve")]
        assert minors and len(comps) == 1 + len(unity) + len(minors)
        # all 196 live tuples have the generic coranks (0, 0): no class is listed
        assert len(live_tuple_components(p, label)) == 196 and unity == grouped_classes(p, label) == []
        unity = [c for c in split if c["component"].startswith("unity")]
        assert len(unity) == 2 and all(c["kd1"] > 0 and c["kd2"] > 0 and c["r"] == 1 for c in unity)
        assert all(c["dim_found"] == c["kd1"] + c["kd2"] + 1 and c["tuples"] > 0 for c in unity)
        for comp in minors:
            # the certificate names a simple root u0 of the curve at t0 mod p
            assert comp["r"] == 2
            cert = comp["certificate"]
            p, t0, u0 = cert["p"], cert["t0"], cert["u0"]
            a, b, c = (int(e) for e in comp["component"].split("triple=(")[1].rstrip(")").split(","))
            assert p > CERT_PRIME_MIN and (p - 1) % gcd(b - a, c - a) == 0
            value = (pow(t0, b, p) - pow(t0, c, p)) * pow(u0, a, p) + (pow(t0, c, p) - pow(t0, a, p)) * pow(u0, b, p)
            assert (value + (pow(t0, a, p) - pow(t0, b, p)) * pow(u0, c, p)) % p == 0
            assert u0 not in (0, 1, t0)
        # one sample for the generic component and for each unity tuple, live
        # or not, plus one per certified point of the minor curves
        assert est.sample_count == 1 + len(_scan_table(3, 12)[2]) + points[-1] and points[-1] >= len(minors)

    @pytest.mark.parametrize("seed", range(40))
    def test_paper_values_at_every_seed(self, seed, monkeypatch):
        # the six verify-paper codim cases; never shrink this seed range
        monkeypatch.setattr(singres.verify, "CODIM_SEED", seed)
        ok, details = check_codim_estimates()
        assert ok, details


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


def reference_derivative_rhs(poly_coeffs, eff, js, point_index, x_values, scalar_pow):
    """-(dM/dx_m) f for the tangent solve: rows of point m step one
    derivative order up, other rows vanish."""
    rhs = []
    for m, j in enumerate(js):
        for d in range(j):
            if m != point_index:
                rhs.append(0)
            else:
                val = 0
                for e, cf in zip(eff, poly_coeffs):
                    val += cf * falling(e, d + 1) * scalar_pow(x_values[m], e - d - 1)
                rhs.append(-val)
    return rhs


def solve_exact(matrix, rhs):
    """One exact solution of M x = rhs, or None when inconsistent."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    rank, pivots, rref = exact_rref(rows)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = rref[ri][ncols]
    return x


def draw_generic_tuple(k, rng):
    """k distinct nonzero rationals drawn by `_distinct_points`, with the k
    coordinate tangent directions."""
    return _distinct_points(rng, k), [[int(i == m) for i in range(k)] for m in range(k)]


def reference_span_dimension_exact(pair, label, pts, dirs):
    """One exact sample of the span dimension at a rational tuple, with
    rational tangent directions: Fraction kernels, solve_exact tangent
    solves and the rank of exact_rref."""
    sides = _side_matrices(_sides(pair, label), pts)
    if sides is None:
        return None
    eff1, eff2, m1, m2 = sides
    k1 = _kernel_of(m1, len(eff1))
    k2 = _kernel_of(m2, len(eff2))
    if not k1 or not k2:
        return None
    rng = random.Random(1234577)
    f1 = [sum(_random_fraction(rng) * v[i] for v in k1) for i in range(len(eff1))]
    f2 = [sum(_random_fraction(rng) * v[i] for v in k2) for i in range(len(eff2))]
    n1, n2 = len(pair.b1.elements), len(pair.b2.elements)
    rows = []
    for v in k1:
        rows.append(_embed(v, eff1, pair.b1) + [0] * n2)
    for w in k2:
        rows.append([0] * n1 + _embed(w, eff2, pair.b2))
    js1, js2 = label.side_orders(1), label.side_orders(2)
    pow_ = lambda x, e: Fraction(x) ** e
    for direction in dirs:
        rhs1, rhs2 = [0] * len(m1), [0] * len(m2)
        for m, d in enumerate(direction):
            if d:
                rhs1 = [a + d * b for a, b in zip(rhs1, reference_derivative_rhs(f1, eff1, js1, m, pts, pow_))]
                rhs2 = [a + d * b for a, b in zip(rhs2, reference_derivative_rhs(f2, eff2, js2, m, pts, pow_))]
        df = solve_exact(m1, rhs1) if m1 else [0] * len(eff1)
        dg = solve_exact(m2, rhs2) if m2 else [0] * len(eff2)
        if df is None or dg is None:
            return None
        rows.append(_embed(df, eff1, pair.b1) + _embed(dg, eff2, pair.b2))
    return exact_rref(rows)[0]


def complex_side_matrices(pair, label, pts):
    """_side_matrices at complex points, whose multiplicity Vandermonde rows
    `multiplicity_vandermonde` (rational points only) does not build."""
    effs = [_effective_elements(b, label.j0, label.jinf) for b in (pair.b1, pair.b2)]
    if not all(effs):
        return None
    xs = [complex(x) for x in pts]
    m1, m2 = (
        [[falling(e, d) * x ** (e - d) for e in eff] for x, j in zip(xs, label.side_orders(side)) for d in range(j)]
        for side, eff in zip((1, 2), effs)
    )
    return (*effs, m1, m2)


def reference_span_dimension(pair, label, pts, dirs, rtol=SVD_RTOL):
    """One sample of the span dimension, with per-sample SVDs and lstsq."""
    sides = complex_side_matrices(pair, label, pts)
    if sides is None:
        return None
    eff1, eff2, m1, m2 = sides
    a1 = np.array([[complex(v) for v in r] for r in m1]) if m1 else np.zeros((0, len(eff1)))
    a2 = np.array([[complex(v) for v in r] for r in m2]) if m2 else np.zeros((0, len(eff2)))
    # rows, and the same rows of the right-hand sides, over their largest modulus
    s1, s2 = (np.where(a.any(axis=1), np.abs(a).max(axis=1), 1.0) for a in (a1, a2))
    a1, a2 = a1 / s1[:, None], a2 / s2[:, None]

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
            rhs1 += np.array(reference_derivative_rhs(f1, eff1, js1, m, xs, pow_), dtype=complex) * complex(d)
            rhs2 += np.array(reference_derivative_rhs(f2, eff2, js2, m, xs, pow_), dtype=complex) * complex(d)
        rhs1, rhs2 = rhs1 / s1, rhs2 / s2
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


def majority(dims):
    """Majority of the sample dimensions, ties to the smallest."""
    vote = Counter(dims).most_common()
    return min(d for d, cnt in vote if cnt == vote[0][1])


def reference_unity_votes(pair, label, seed, n_max, stacked=False):
    """Float votes of the root-of-unity components, the float path the exact
    one replaced: VOTE_SAMPLES tuples c * omega per configuration, c drawn
    from random.Random(seed), with tangent omega; each component records the
    majority of its non-None samples, none when all failed.  The samples
    are evaluated one at a time by reference_span_dimension, or with
    stacked=True as one stack by span_dimensions."""
    rng = random.Random(seed)
    descs, samples = [], []
    for n, exps in unity_configs(label.k, n_max):
        omega = [np.exp(2j * np.pi * e / n) for e in exps]
        descs.append(f"unity(n={n}, exps={list(exps)})")
        for _ in range(VOTE_SAMPLES):
            c = random_unit_annulus(rng)
            samples.append(([c * w for w in omega], [omega]))
    if stacked and samples:
        dims = span_dimensions(pair, label, np.array([s[0] for s in samples]), [s[1] for s in samples])
    else:
        dims = [reference_span_dimension(pair, label, *s) for s in samples]
    out = []
    for i, desc in enumerate(descs):
        live = [d for d in dims[i * VOTE_SAMPLES : (i + 1) * VOTE_SAMPLES] if d is not None]
        if live:
            out.append((desc, majority(live)))
    return out


def minor_curve_groups(p):
    """The minor curves of a pair, {(b - a, c - a): (side, first triple,
    triple count)}: the triples (a, b, c) of side 1, then side 2, in
    combination order, grouped by translation."""
    groups = {}
    for side, b in ((1, p.b1), (2, p.b2)):
        for triple in itertools.combinations(b.elements, 3):
            shape = (triple[1] - triple[0], triple[2] - triple[0])
            first_side, first, count = groups.get(shape, (side, triple, 0))
            groups[shape] = (first_side, first, count + 1)
    return groups


def minor_curve(triple):
    """The curve of an exponent triple (a, b, c) as `_minor_certificates`
    takes it: its translate (0, b - a, c - a) and its gap gcd."""
    a, b, c = triple
    return (0, b - a, c - a), gcd(b - a, c - a)


def reference_estimate_codim(pair, label, seed=0, n_max=12):
    """estimate_codim one sample at a time, with reference_span_dimension;
    the generic component is the best of three exact samples at signed
    rational tuples, and the root-of-unity components are float votes
    (reference_unity_votes), each drawn from a generator of its own; each
    minor curve (`minor_curve_groups`) takes VOTE_SAMPLES draws on its first
    triple from one stream, random.Random(seed).  Its report holds the
    fields of `CodimEstimate.to_json` that without_vote_fields keeps."""
    rng = random.Random(seed)
    ambient = len(pair.b1.elements) + len(pair.b2.elements)
    comps = []

    def record(desc, dim):
        comps.append({"component": desc, "dim_found": dim})

    def report():
        best = max((c["dim_found"] for c in comps if c["dim_found"] is not None), default=None)
        estimate = None if best is None else ambient - best
        return {"ambient_dim": ambient, "best_dim_found": best, "codim_estimate": estimate, "components_probed": comps, "seed": seed, "label": label.notation(), "pair": pair.to_json()}

    k = label.k
    if k == 0:
        eff1 = _effective_elements(pair.b1, label.j0, label.jinf)
        eff2 = _effective_elements(pair.b2, label.j0, label.jinf)
        record("coordinate-subspace", len(eff1) + len(eff2) if eff1 and eff2 else None)
        return report()
    generic_rng = random.Random(seed)
    dims = [
        reference_span_dimension_exact(pair, label, *draw_generic_tuple(k, generic_rng))
        for _ in range(3)
    ]
    record("generic", max((d for d in dims if d is not None), default=None))
    for desc, dim in reference_unity_votes(pair, label, seed, n_max):
        record(desc, dim)
    if k == 3:
        for side, triple, _ in minor_curve_groups(pair).values():
            dims = []
            for _ in range(VOTE_SAMPLES):
                drawn = draw_minor_tuple(triple, rng)
                if drawn is None:
                    continue
                dim = reference_span_dimension(pair, label, *drawn)
                if dim is not None:
                    dims.append(dim)
            if dims:
                record(f"minor-curve(side={side}, triple={triple})", majority(dims))
    return report()


def without_vote_fields(data):
    """A report without the fields that depend on how the components were
    decided: version, timings, the sample count and each component's
    details beyond its dimension."""
    data = {key: val for key, val in data.items() if key not in ("version", "timings", "sample_count")}
    data["components_probed"] = [
        {"component": c["component"], "dim_found": c["dim_found"]} for c in data["components_probed"]
    ]
    return data


def with_unity_classes(data, p, label, n_max=12):
    """A reference report from without_vote_fields whose root-of-unity
    entries, one per tuple, are checked tuple by tuple against the per-tuple
    kernel dimensions, then replaced by their classes (class_components),
    as the estimator lists them."""
    comps = data["components_probed"]
    unity = [(c["component"], c["dim_found"]) for c in comps if c["component"].startswith("unity")]
    assert unity == live_tuple_components(p, label, n_max)
    rest = [c for c in comps if not c["component"].startswith("unity")]
    classes = [{"component": desc, "dim_found": dim} for desc, dim in class_components(p, label, n_max)]
    return {**data, "components_probed": rest[:1] + classes + rest[1:]}


class TestBatchedEstimate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("b1,b2,name", VERIFY_CODIM_CASES)
    def test_verify_cases_match_reference(self, b1, b2, name, seed):
        p, label = pair(b1, b2), parse_label(name)
        got = without_vote_fields(estimate_codim(p, label, seed=seed).to_json())
        assert got == with_unity_classes(without_vote_fields(reference_estimate_codim(p, label, seed=seed)), p, label)

    @pytest.mark.parametrize("p", GUARANTEE_PAIRS, ids=lambda p: f"{p.b1.elements}-{p.b2.elements}")
    def test_guarantee_cases_match_reference(self, p):
        for name, label in GUARANTEE_LABELS.items():
            got = estimate_codim(p, label, seed=17, n_max=8).to_json()
            want = reference_estimate_codim(p, label, seed=17, n_max=8)
            assert without_vote_fields(got) == with_unity_classes(without_vote_fields(want), p, label, 8), name

    def test_failed_samples_are_reported(self, monkeypatch):
        # most side-1 minor curves of this pair fail their float tangent
        # solve.  At seed 11, unscaled float rows gave the curve of (3, 6, 7)
        # one spurious 8-vote (a side-2 kernel from row scale alone) and the
        # estimate 1; the certificate decides it empty, as the float oracle's
        # equilibrated rows, whose five samples all fail.  (3, 6, 7) is a
        # translate of (0, 3, 4), which names its curve
        points = counted_certified_points(monkeypatch)
        p, label = pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label("N(1,1,1)")
        est = estimate_codim(p, label, seed=11)
        data = est.to_json()
        assert without_vote_fields(data) == with_unity_classes(without_vote_fields(reference_estimate_codim(p, label, seed=11)), p, label)
        minors = {c["component"]: c for c in data["components_probed"] if c["component"].startswith("minor")}
        assert minor_curve_groups(p)[3, 4] == (1, (0, 3, 4), 2)
        assert "minor-curve(side=1, triple=(0, 3, 4))" not in minors
        assert (data["codim_estimate"], data["best_dim_found"]) == (2, 7)
        # the 21 triples are 15 curves, all decided, each class at one
        # certified point; only one curve has a nonempty class: that of
        # (0, 3, 6), (1, 4, 7) and side 2's (0, 3, 6), listed once
        gaps = [gap_gcd(p.b1), gap_gcd(p.b2)]
        assert len(minor_curve_groups(p)) == 15
        assert points[-1] == sum(len(_branch_classes(minor_curve((0, *shape)), gaps)) for shape in minor_curve_groups(p)) == 16
        assert data["sample_count"] == 1 + len(_scan_table(3, 12)[2]) + points[-1]
        assert [(c["component"], c["exact"], c["dim_found"], c["triples"]) for c in minors.values()] == [
            ("minor-curve(side=1, triple=(0, 3, 6))", True, 6, 3),
        ]

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize(
        "b, name, estimate, setter",
        [
            (tuple(range(6)), "N_1^1(1,1,1)", (7, 5), "generic"),
            ((0, 1, 63, 125, 127), "N_1^1(1,1,1)", (6, 4), "minor-curve(side=1, triple=(63, 125, 127))"),
            ((0, 29, 87, 145), "N^1(1,1,1)", (4, 4), "minor-curve(side=1, triple=(0, 29, 145))"),
        ],
    )
    def test_boundary_label_probes_full_support_triples(self, b, name, estimate, setter, seed):
        # a boundary label ranks the effective supports, but its curves come
        # from the full supports, since a curve with no effective translate
        # can set the estimate.  The effective (1, 63, 125) has gap gcd 62,
        # out of reach, while (63, 125, 127) certifies the line u = -t at 4;
        # the effective (0, 29, 87) is left undecided by a branch class,
        # while (0, 29, 145) certifies a line class at 4.  On (0..5) the
        # shapes of no effective translate certify only 4 < 5
        data = estimate_codim(pair(b, b), parse_label(name), seed=seed).to_json()
        assert (data["codim_estimate"], data["best_dim_found"]) == estimate
        dims = {c["component"]: c["dim_found"] for c in data["components_probed"]}
        assert dims[setter] == estimate[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_exponents_past_float_precision_give_no_votes(self, seed):
        # side 1 holds x^(2^62+1): a float row of it that stays finite (|x| <= 1)
        # has lost the exponent, and such rows once gave the side-2 curve
        # (0, 3, 6) dimension-4 votes.  The certificate reduces the exponent
        # mod p - 1 exactly and decides that curve empty: on both its line
        # classes side 1 keeps rank 3, kd1 = 0.  The side-1 curve has gap gcd
        # gcd(2, 2^62 + 1) = 1, so it is probed too, at one class, and
        # decided empty: side 2 keeps rank 3 off the lines, kd2 = 0
        p, label = pair((0, 2, 2**62 + 1), (0, 3, 6)), parse_label("N(1,1,1)")
        data = estimate_codim(p, label, seed=seed).to_json()
        assert [c["component"] for c in data["components_probed"] if c["component"].startswith("minor")] == []
        assert data["codim_estimate"] == 2
        triples = [(0, 2, 2**62 + 1), (0, 3, 6)]
        assert _branch_classes(minor_curve((0, 3, 6)), [1, 3]) == {(None, (1, 2)), (None, (0, 2))}
        assert _branch_classes(minor_curve((0, 2, 2**62 + 1)), [1, 3]) == {(None, None)}
        assert _minor_certificates(_sides(p, label), list(map(minor_curve, triples)), random.Random(seed)) == ({0: None, 1: None}, 3)
        # the float oracle's samples of that curve all fail
        rng = random.Random(seed)
        stack = [draw_minor_tuple((0, 3, 6), rng) for _ in range(VOTE_SAMPLES)]
        pts = np.array([s[0] for s in stack], dtype=complex)
        assert span_dimensions(p, label, pts, [s[1] for s in stack]) == [None] * VOTE_SAMPLES

    @pytest.mark.parametrize("triple", [(0, 1, 2), (-3, -2, -1), (5, 6, 7)])
    def test_spread_two_draw_solves_no_roots(self, triple, monkeypatch):
        # det = t^a u^a (t-1)(u-1)(u-t): the draw fails without a root solve
        # and leaves the rng where twelve failed tries leave it
        def no_roots(coeffs):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", no_roots)
        rng, twin = random.Random(5), random.Random(5)
        assert draw_minor_tuple(triple, rng) is None
        for _ in range(12):
            random_unit_annulus(twin)
        assert rng.getstate() == twin.getstate()

    def test_spread_two_minor_has_no_root_off_one_and_t(self):
        # the factorisation behind the skipped draw, on the float polynomial
        rng = random.Random(6)
        for a in (-4, 0, 3):
            for _ in range(200):
                t = random_unit_annulus(rng)
                roots = np.roots(minor_poly_in_u(a, a + 1, a + 2, t))
                assert all(min(abs(u), abs(u - 1), abs(u - t)) < 1e-9 for u in roots), (a, t, roots)

    def test_generic_closed_form_matches_exact_samples(self):
        """The certified generic dimension against the exact span dimension
        at positive rational tuples: negative exponents, multiplicities,
        boundary orders and one to three roots."""
        rng = random.Random(23)
        covered, empty = set(), 0
        for _ in range(300):
            sides = []
            for _ in range(2):
                lo = rng.randint(-5, 0)
                sides.append(rng.sample(range(lo, lo + 10), rng.randint(2, 8)))
            p = pair(*(sorted(b) for b in sides))
            k = rng.randint(1, 3)
            roots = tuple((rng.choice((1, 1, 1, 2, 3)), rng.choice((1, 1, 2))) for _ in range(k))
            label = StratumLabel(rng.choice((0, 0, 1)), rng.choice((0, 0, 1)), roots)
            pts = []
            while len(pts) < k:
                x = abs(_random_fraction(rng))
                if x not in pts:
                    pts.append(x)
            dirs = [[int(i == m) for i in range(k)] for m in range(k)]
            dims = _generic_kernel_dims(_sides(p, label))
            want = sum(dims) + k if min(dims) > 0 else None
            assert reference_span_dimension_exact(p, label, pts, dirs) == want, (p.to_json(), label, pts)
            if want is None:
                empty += 1
            else:
                covered.add((k, bool(label.j0 or label.jinf), max(map(max, roots)) > 1))
        assert len(covered) == 12 and empty > 100

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
            for n, exps in unity_configs(label.k, 9):
                if n >= label.k and len(set(e % n for e in exps)) == len(exps):
                    c = random_unit_annulus(rng)
                    omega = [np.exp(2j * np.pi * e / n) for e in exps]
                    stack.append(([c * w for w in omega], [omega]))
            if label.k == 3:
                for triple in itertools.combinations(p.b1.elements, 3):
                    for _ in range(2):
                        drawn = draw_minor_tuple(triple, rng)
                        if drawn is not None:
                            stack.append(drawn)
            pts = np.array([s[0] for s in stack], dtype=complex)
            got = span_dimensions(p, label, pts, [s[1] for s in stack])
            want = [reference_span_dimension(p, label, *s) for s in stack]
            assert got == want, name
            outcomes += want
        assert None in outcomes


def float_minor_votes(p, label, seed):
    """The float oracle's minor-curve components, {desc: majority dim}: the
    curves of `minor_curve_groups`, VOTE_SAMPLES draws on each first triple
    from random.Random(seed), evaluated as one stack (the float path the
    certificate replaced)."""
    rng = random.Random(seed)
    curves = [(side, triple) for side, triple, _ in minor_curve_groups(p).values()]
    owners, stack = [], []
    for i, (_, triple) in enumerate(curves):
        for _ in range(VOTE_SAMPLES):
            drawn = draw_minor_tuple(triple, rng)
            if drawn is not None:
                owners.append(i)
                stack.append(drawn)
    pts = np.array([s[0] for s in stack], dtype=complex).reshape(-1, 3)
    dims = span_dimensions(p, label, pts, [s[1] for s in stack])
    out = {}
    for i, (side, triple) in enumerate(curves):
        top = vote([d for owner, d in zip(owners, dims) if owner == i])
        if top is not None:
            out[f"minor-curve(side={side}, triple={triple})"] = top
    return out


class PlantedRandom(random.Random):
    """random.Random whose first randrange calls return planted values."""

    def __init__(self, seed, planted):
        super().__init__(seed)
        self.planted = list(planted)

    def randrange(self, *args):
        return self.planted.pop(0) if self.planted else super().randrange(*args)


class TestMinorCertificate:
    """The minor curves decided mod p (`_minor_certificates`) against the
    float oracle's votes, with planted bad reductions and the branch-class
    lemma checked over Z."""

    def test_hermite_stack_derivative(self):
        # at random points of F_p^*, named by logarithms to the least
        # generator: the shift-0 entries are falling(e, d) x_m^(e - d), and
        # shift=1 gives their x_m-derivative, the entry times (e - d) / x_m
        rng = random.Random(19)
        for _ in range(40):
            eff = tuple(sorted(rng.sample(range(-4, 12), rng.randint(2, 6)) + [2**62 + rng.randint(1, 9)]))
            js = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            primes = np.array([_certificate_prime(rng.randint(1, 4), rng.randrange(3)) for _ in range(6)])
            logs = np.array([[rng.randrange(p - 1) for _ in js] for p in primes.tolist()])
            roots = np.array([root_of_order(p - 1, p) for p in primes.tolist()])
            m0, m1 = (_hermite_stack(eff, js, logs, primes - 1, primes, roots, shift).tolist() for shift in (0, 1))
            rows = [(m, d) for m, j in enumerate(js) for d in range(j)]
            for s, p in enumerate(primes.tolist()):
                xs = [pow(int(roots[s]), lg, p) for lg in logs[s].tolist()]
                for r, (m, d) in enumerate(rows):
                    for c, e in enumerate(eff):
                        assert m0[s][r][c] == falling(e, d) * pow(xs[m], e - d, p) % p
                        assert m1[s][r][c] == m0[s][r][c] * (e - d) * pow(xs[m], -1, p) % p

    @pytest.mark.parametrize("seed", [7, 11])
    def test_grid_matches_float_votes(self, seed):
        # every pair of supports {0} u S of spread <= 4 with at least three
        # points under N(1,1,1): every minor curve is certified, and the
        # certified components are exactly the float oracle's voted ones;
        # `compared` counts the triples of the compared curves
        label = parse_label("N(1,1,1)")
        supports = [(0,) + s for r in (2, 3, 4) for s in itertools.combinations(range(1, 5), r)]
        compared = 0
        for i, b1 in enumerate(supports):
            for b2 in supports[i:]:
                p = pair(b1, b2)
                comps = estimate_codim(p, label, seed=seed, n_max=4).to_json()["components_probed"]
                minors = {c["component"]: c for c in comps if c["component"].startswith("minor")}
                assert all(c["exact"] for c in minors.values()), (b1, b2)
                assert {d: c["dim_found"] for d, c in minors.items()} == float_minor_votes(p, label, seed), (b1, b2)
                compared += sum(c["triples"] for c in minors.values())
        assert len(supports) == 11 and compared > 150

    def test_line_classes_over_z(self):
        # the lemma behind _branch_classes, by prs_gcd over Z at integer t:
        # the minor over (u - 1)(u - t) shares exactly the g - 1 roots zeta t
        # and the g - 1 roots zeta (zeta^g = 1 != zeta) with the binomials
        # u^h - t^h and u^h - 1 for every multiple h of g, and its remaining
        # degree (c - a) - 2g is nonzero iff the generic class exists
        checked = 0
        for triple in itertools.combinations(range(11), 3):
            a, b, c = triple
            g = gcd(b - a, c - a)
            for t in (2, 3, -5):
                poly = [0] * (c - a + 1)
                for e, coef in zip(triple, (t**b - t**c, t**c - t**a, t**a - t**b)):
                    poly[e - a] += coef
                rest = exact_quo(exact_quo(poly, (-1, 1)), (-t, 1))
                for h in (g, 2 * g, 6 * g):
                    for root in (t, 1):
                        binomial = (-(root**h),) + (0,) * (h - 1) + (1,)
                        assert len(prs_gcd(rest, binomial)) - 1 == g - 1, (triple, t, h)
                assert ((None, None) in _branch_classes(minor_curve(triple), [g, g])) == (len(rest) - 1 > 2 * (g - 1))
                checked += 1
        assert checked == 495

    def test_certify_points_reduces_huge_exponents(self):
        # an exponent e enters the rows mod p - 1 (the powers x^e) and mod p
        # (the falling factorials and D = diag(e)), so 2^63 + 5 and a
        # positive exponent congruent to it mod p(p - 1) give one answer.
        # p = 823 divides 2^63 + 5; when it divides every exponent of both
        # sides, both rows vanish mod p (each term has a factor e): rank 0 at
        # every point, where a wrapped int64 residue, -2^63 + 5 = 10 mod p,
        # gives rank 2
        prime, big = 823, 2**63 + 5
        small = big % (prime * (prime - 1)) + prime * (prime - 1)
        assert big % prime == 0 and small < 2**63
        rng = random.Random(5)
        points = [(prime, (0, rng.randrange(1, prime - 1), rng.randrange(1, prime - 1)), rng.randrange(prime)) for _ in range(30)]
        for name in ("N(1,1,1)", "N(2,1,1)"):
            label = parse_label(name)
            for other in ((0, 2 * prime, 5 * prime), (0, 2, 5, 7)):
                for flip in (False, True):
                    answers = []
                    for e in (big, small):
                        sides = ((0, prime, 3 * prime, e), other)
                        kd1, kd2, rank = _certify_points(_sides(pair(*sides[:: -1 if flip else 1]), label), points, 7)
                        answers.append((kd1.tolist(), kd2.tolist(), rank.tolist()))
                    assert answers[0] == answers[1], (name, other, flip)
                    if other[1] % prime == 0:
                        assert max(answers[0][2]) == 0, (name, flip)

    def test_planted_rank_drop_is_retried(self, monkeypatch):
        # (0, 2, 3) is no translate of the curve's triple (0, 1, 3), so side 2
        # has L2 = 0 and is generically empty along the curve.  At a planted
        # t0 where its 3 x 3 minor vanishes mod p at the curve's root, kd2 = 1
        # mod p: the point certifies nothing, and the next prime decides the
        # curve empty
        p_, label, triple = pair((0, 1, 3), (0, 2, 3)), parse_label("N(1,1,1)"), (0, 1, 3)
        prime = _certificate_prime(1, 0)
        taus = list(range(1, prime - 1))
        roots = _branch_points([minor_curve(triple)] * len(taus), [1, 1], prime, taus)
        probes = [(tau, i) for tau, found in zip(taus, roots) for _, i, _ in found]
        points = [(prime, (0, tau, i), 0) for tau, i in probes]
        kd1, kd2, _ = _certify_points(_sides(p_, label), points, 0)
        floors = [_kernel_floor((0, 1, 3), (1, 1, 1), (0, 1, 3), None), _kernel_floor((0, 2, 3), (1, 1, 1), (0, 1, 3), None)]
        assert floors == [1, 0] and set(kd1.tolist()) == {1}
        bad = [probe for probe, k2 in zip(probes, kd2.tolist()) if k2 > 0]
        assert bad and len(bad) < len(probes) // 50
        clean = _minor_certificates(_sides(p_, label), [minor_curve(triple)], random.Random(3))
        assert clean == ({0: None}, 1)
        # planted as the first draw, the bad point is probed, certifies
        # nothing, and the next prime decides the curve
        rounds = []

        def recorded(*args):
            rounds.append(_certify_points(*args))
            return rounds[-1]

        monkeypatch.setattr(singres.strata, "_certify_points", recorded)
        assert _minor_certificates(_sides(p_, label), [minor_curve(triple)], PlantedRandom(3, [bad[0][0]])) == clean
        assert [(k1.tolist(), k2.tolist()) for k1, k2, _ in rounds] == [([1], [1]), ([1], [0])]

    def test_spurious_coincidence_mod_p_is_not_certified(self):
        # (0, 1, 3) has gap gcd 1, so its curve has no line: its one other root
        # is u = -1 - t.  At t0 = omega, a cube root of unity mod p, the point
        # (1, omega, omega^2) has equal cubes mod p only; side 2, (0, 3, 6),
        # then has rank 1 mod p, kd2 = 2.  Reading that coincidence as a class
        # would certify dimension 1 + 2 + 2.  The point's class is that of its
        # branch, with L2 = 0, so it certifies nothing, and _branch_points
        # skips it before any rank is taken
        p_, label, triple = pair((0, 1, 3), (0, 3, 6)), parse_label("N(1,1,1)"), (0, 1, 3)
        prime = _certificate_prime(1, 0)
        powers = _log_powers(prime).tolist()
        n = prime - 1
        assert n % 3 == 0
        tau = n // 3
        iu = powers.index(powers[tau] ** 2 % prime)
        assert (1 + powers[tau] + powers[iu]) % prime == 0  # u0 = -1 - t0
        assert _branch_points([minor_curve(triple)], [1, 3], prime, [tau]) == [[]]
        assert _branch_points([minor_curve(triple)], [1, 1], prime, [tau]) == [[((None, None), iu, prime - 1)]]  # du/dt = -1
        kd1, kd2, _ = _certify_points(_sides(p_, label), [(prime, (0, tau, iu), 0)], 0)
        assert (kd1.tolist(), kd2.tolist()) == ([1], [2])
        assert [_kernel_floor(eff, (1, 1, 1), (0, 1, 3), None) for eff in ((0, 1, 3), (0, 3, 6))] == [1, 0]
        clean = _minor_certificates(_sides(p_, label), [minor_curve(triple)], random.Random(4))
        assert _minor_certificates(_sides(p_, label), [minor_curve(triple)], PlantedRandom(4, [tau])) == clean == ({0: None}, 1)
        # (0, 2, 8) has the lines u = -t and u = -1 and other branches.  At t0 =
        # gamma^126 mod 1009 the root u0 = gamma^252 is on no line (u0^2 != 1,
        # (u0 / t0)^2 != 1), yet u0^4 = 1 mod p; beside side 2's gap 4 that
        # reads like the line u = -1, whose class it must not join
        prime, tau, iu = _certificate_prime(2, 0), 126, 252
        assert prime == 1009 and iu * 4 % (prime - 1) == 0 and iu * 2 % (prime - 1) and (iu - tau) * 2 % (prime - 1)
        assert ((None, None), iu) in [root[:2] for root in _branch_points([minor_curve((0, 2, 8))], [1, 1], prime, [tau])[0]]
        (found,) = _branch_points([minor_curve((0, 2, 8))], [2, 4], prime, [tau])
        assert found and all(key[1] is None or i != iu for key, i, _ in found)

    @pytest.mark.parametrize("triple", [(0, 1, 3), (0, 2, 8), (0, 3, 6)])
    def test_branch_point_slopes(self, triple):
        # at every root (t0, u0) that _branch_points returns over all t0, with
        # gaps that skip none, du/dt solves P_t + P_u du/dt = 0 mod p, the
        # partials taken from the minor P = (t^b - t^c) u^a + (t^c - t^a) u^b
        # + (t^a - t^b) u^c
        a, b, c = triple
        prime = _certificate_prime(gcd(b - a, c - a), 0)
        powers = _log_powers(prime).tolist()
        taus = list(range(1, prime - 1))

        def d(e, x):
            return e * pow(x, e - 1, prime)

        checked = 0
        for tau, found in zip(taus, _branch_points([minor_curve(triple)] * len(taus), [1, 1], prime, taus)):
            t = powers[tau]
            tp = [pow(t, e, prime) for e in triple]
            for _, i, dudt in found:
                u = powers[i]
                up = [pow(u, e, prime) for e in triple]
                assert ((tp[1] - tp[2]) * up[0] + (tp[2] - tp[0]) * up[1] + (tp[0] - tp[1]) * up[2]) % prime == 0
                p_t = (d(b, t) - d(c, t)) * up[0] + (d(c, t) - d(a, t)) * up[1] + (d(a, t) - d(b, t)) * up[2]
                p_u = (tp[1] - tp[2]) * d(a, u) + (tp[2] - tp[0]) * d(b, u) + (tp[0] - tp[1]) * d(c, u)
                assert p_u % prime and (p_t + p_u * dudt) % prime == 0, (triple, tau, i)
                checked += 1
        assert checked > len(taus) // 2

    def test_even_lines_match_exact_rational_samples(self):
        # (a, a + 2, a + 4) has only the lines u = -t and u = -1, which carry
        # rational points: the certified dimension of its curve is the best
        # exact span dimension at (1, t, -t) and (1, t, -1), t = 7/5, with the
        # orbit and t tangents; multiplicities and boundary orders included
        rng = random.Random(41)
        t = Fraction(7, 5)
        checked = set()
        for _ in range(60):
            sides = [sorted({0, 6} | set(rng.sample(range(1, 6), rng.randint(1, 4)))) for _ in range(2)]
            p = pair(*sides)
            name = rng.choice(("N(1,1,1)", "N(2,1,1)", "N(1,1,1;1,2,1)", "N_1(1,1,1)"))
            label = parse_label(name)
            for b in (p.b1, p.b2):
                for triple in itertools.combinations(b.elements, 3):
                    if triple[1] - triple[0] != 2 or triple[2] - triple[1] != 2:
                        continue
                    dims = [
                        reference_span_dimension_exact(p, label, [1, t, u], [[1, t, u], [0, 1, dudt]])
                        for u, dudt in ((-t, -1), (Fraction(-1), 0))
                    ]
                    want = max((d for d in dims if d is not None), default=None)
                    decided, _ = _minor_certificates(_sides(p, label), [minor_curve(triple)], random.Random(0))
                    assert (decided[0] and decided[0][0]) == want, (sides, name, triple, dims)
                    checked.add((name, want))
        assert len(checked) > 8

    def test_shifted_supports_keep_every_certificate(self):
        # moving both supports by s moves every triple by s, so each curve
        # keeps its translate (Lemma (translation) of `_curve_strata`), and
        # at every point M_s of the shifted side is M_s times an invertible
        # row operation: estimate_codim's estimate and each curve's kd1, kd2
        # and certificate stay put, under the curve's triple moved by s, for
        # shifts below zero, small ones and shifts past +-2^62
        rng = random.Random(43)
        labels = [parse_label(name) for name in ("N(1,1,1)", "N(2,1,1)", "N_1(1,1,1)")]

        def minors(sides, label, seed, shift):
            data = estimate_codim(pair(*([e + shift for e in b] for b in sides)), label, seed=seed).to_json()
            entries = [c for c in data["components_probed"] if c["component"].startswith("minor")]
            for c in entries:
                side, *triple = map(int, re.findall(r"-?\d+", c.pop("component")))
                c["at"] = (side, [e - shift for e in triple])
            return data["codim_estimate"], entries

        checked, certified = 0, Counter()
        for i in range(12):
            sides = [sorted(rng.sample(range(-4, 9), rng.randint(4, 8))) for _ in range(2)]
            label, seed = labels[i % 3], rng.randrange(1000)
            want = minors(sides, label, seed, 0)
            for shift in (rng.randint(-40, -1), rng.randint(1, 40), 2**62 + rng.randint(0, 9), -(2**63) - rng.randint(0, 9)):
                assert minors(sides, label, seed, shift) == want, (sides, label, shift)
                checked += 1
            certified[label] += sum("certificate" in c for c in want[1])
        assert checked == 48 and min(certified[label] for label in labels) > 10

    def test_float_votes_agree_on_translates(self):
        # the float oracle solves one curve for T and T + s: from the same
        # rng, its votes agree (small shifts only: t^e past the float range
        # leaves no sample)
        rng = random.Random(47)
        label = parse_label("N(1,1,1)")
        voted = 0
        for _ in range(30):
            p = pair(*(sorted(rng.sample(range(0, 8), rng.randint(3, 5))) for _ in range(2)))
            triple, seed = tuple(sorted(rng.sample(range(0, 8), 3))), rng.randrange(1000)
            votes = []
            for shift in (0, rng.randint(-6, -1), rng.randint(1, 6)):
                draws = random.Random(seed)
                stack = [draw_minor_tuple(tuple(e + shift for e in triple), draws) for _ in range(VOTE_SAMPLES)]
                stack = [s for s in stack if s is not None]
                pts = np.array([s[0] for s in stack], dtype=complex).reshape(-1, 3)
                votes.append(vote(span_dimensions(p, label, pts, [s[1] for s in stack])))
            assert votes[0] == votes[1] == votes[2], (p, triple, votes)
            voted += votes[0] is not None
        assert voted > 12

    def test_each_curve_is_certified_once(self, monkeypatch):
        # estimate_codim passes each translation class of triples once, as
        # its translate (0, d1, d2) and gap gcd, to one _minor_certificates
        # call, and every (side, triple) of the pair lands in exactly one
        # listed, decided-empty or undecided curve, named by its first triple
        calls = []
        real = singres.strata._minor_certificates

        def recorded(sides, curves, rng):
            calls.append((list(curves), real(sides, curves, rng)))
            return calls[-1][1]

        monkeypatch.setattr(singres.strata, "_minor_certificates", recorded)
        cases = [((0, 1, 3, 4, 6, 7), (0, 3, 6)), (tuple(range(8)), (0, 2, 4, 6)), ((0, 1, 2, 3), (0, 1, 32, 63)), ((-3, 0, 2, 5), (1, 4, 6, 9))]
        landed = Counter()
        for b1, b2 in cases:
            p = pair(b1, b2)
            calls.clear()
            data = estimate_codim(p, parse_label("N(1,1,1)"), seed=5).to_json()
            ((curves, (decided, _)),) = calls
            shapes = [shape for shape, _ in curves]
            assert curves == [(shape, gcd(*shape)) for shape in shapes] and all(shape[0] == 0 for shape in shapes)
            assert len(set(shapes)) == len(shapes) == len(minor_curve_groups(p))
            members = [[] for _ in curves]
            for side, b in ((1, p.b1), (2, p.b2)):
                for a, b_, c in itertools.combinations(b.elements, 3):
                    members[shapes.index((0, b_ - a, c - a))].append((side, (a, b_, c)))
            listed = {c["component"]: c for c in data["components_probed"] if c["component"].startswith("minor")}
            for i in range(len(curves)):
                side, first = members[i][0]
                comp = listed.pop(f"minor-curve(side={side}, triple={first})", None)
                if i not in decided:
                    kind = "undecided"
                    assert (comp["dim_found"], comp["exact"], comp["triples"]) == (None, False, len(members[i])) and comp["reason"]
                elif decided[i] is None:
                    kind = "empty"
                    assert comp is None
                else:
                    kind = "listed"
                    assert (comp["dim_found"], comp["exact"], comp["triples"]) == (decided[i][0], True, len(members[i]))
                landed[kind] += len(members[i])
            assert listed == {}
        assert sum(landed.values()) == sum(comb(len(b), 3) for b1, b2 in cases for b in (b1, b2))
        assert min(landed.values()) > 0 and len(landed) == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_curve_sets_the_codim(self, seed):
        # the curve of (0, 3, 61) spreads past 60 with gap gcd 1: it has
        # dimension 4 in ambient 7, so the codim is 3, where skipping the
        # curve left 4
        data = estimate_codim(pair((0, 1, 2, 3), (0, 3, 61)), parse_label("N(1,1,1)"), seed=seed).to_json()
        minors = [(c["component"], c["dim_found"], c["exact"], c["triples"]) for c in data["components_probed"] if c["component"].startswith("minor")]
        assert minors == [("minor-curve(side=2, triple=(0, 3, 61))", 4, True, 1)]
        assert (data["codim_estimate"], data["ambient_dim"]) == (3, 7)

    def test_undecided_curves_are_listed_with_a_reason(self, monkeypatch):
        # a curve of gap gcd above CERT_GAP_MAX draws nothing and is listed
        # undecided with its reason; at the bound it is decided
        p, label = pair((0, 1, 2, 3), (0, 1, 32, 63)), parse_label("N(1,1,1)")
        rng = random.Random(0)
        state = rng.getstate()
        assert CERT_GAP_MAX == 30
        assert _minor_certificates(_sides(p, label), [minor_curve((1, 32, 63))], rng) == ({}, 0) and rng.getstate() == state
        assert 0 in _minor_certificates(_sides(p, label), [minor_curve((0, 30, 60))], rng)[0]
        data = estimate_codim(p, label, seed=0).to_json()
        undecided = [c for c in data["components_probed"] if not c["exact"]]
        want = {"component": "minor-curve(side=2, triple=(1, 32, 63))", "dim_found": None, "exact": False, "triples": 1}
        assert undecided == [{**want, "reason": "gap gcd 31 above 30"}]
        assert data["codim_estimate"] == 3
        # a curve whose every point certifies nothing is listed the same way
        monkeypatch.setattr(
            singres.strata,
            "_certify_points",
            lambda sides, points, seed: (np.full(len(points), 9), np.full(len(points), 9), np.zeros(len(points), dtype=np.int64)),
        )
        comps = estimate_codim(pair((0, 1, 3), (0, 1, 3)), label, seed=0).to_json()["components_probed"]
        assert comps[-1] == {**want, "component": "minor-curve(side=1, triple=(0, 1, 3))", "triples": 2, "reason": "a branch class no draw decided"}

    @pytest.mark.parametrize("seed", range(40))
    def test_verify_cases_run_no_float_path(self, seed, monkeypatch):
        # the six verify-paper codim cases decide every component exactly:
        # no root solve, no eigenproblem, no SVD and no float oracle call
        def banned(*args, **kwargs):
            raise AssertionError("float path called")

        for owner, name in ((np, "roots"), (np.linalg, "svd"), (np.linalg, "eigvals"), (np.linalg, "lstsq")):
            monkeypatch.setattr(owner, name, banned)
        for name in ("span_dimensions", "draw_minor_tuple"):
            monkeypatch.setattr(float_oracle, name, banned)
        monkeypatch.setattr(singres.verify, "CODIM_SEED", seed)
        ok, details = check_codim_estimates()
        assert ok, details
        for b1, b2, name in VERIFY_CODIM_CASES:
            comps = estimate_codim(pair(b1, b2), parse_label(name), seed=seed).to_json()["components_probed"]
            assert all(c["exact"] for c in comps), (b1, b2, name)


def unity_kind(p, label, n_max=12):
    """The root-of-unity kind of `_solution_strata`: (samples, [((n, exps),
    kd1, kd2, tuples)] over its nonempty strata, in order); (0, []) for a
    label with no roots.  The minor-curve kind is not computed."""
    kinds = itertools.islice(_solution_strata(p, _sides(p, label), n_max, 0), 2)
    samples, strata = {kind: (samples, strata) for kind, strata, samples in kinds}.get("unity", (0, []))
    return samples, [(s.at, *s.kd, s.fields["tuples"]) for s in strata if s.dim is not None]


def unity_components(p, label, n_max=12):
    """The estimator's root-of-unity components, (desc, dim) in order."""
    return [(s.name, s.dim) for s in estimate_codim(p, label, n_max=n_max).strata if s.kind == "unity"]


def tuple_kernel_dims(p, label, n_max=12):
    """The side kernel dimensions kd_s = |eff_s| - rank M_s at every tuple
    of _scan_table(k, n_max), [((n, exps), kd1, kd2)] in scan order; empty
    for k = 1 or an empty side.  An order-1 side is ranked tuple by tuple by
    closed_form_rank, a side with multiplicities by the Hermite path
    (`_unity_coranks`), once per distinct side."""
    sides, k = _sides(p, label), label.k
    if k not in (2, 3) or not (sides[0].support and sides[1].support):
        return []
    ns, exps, configs, *_ = _scan_table(k, n_max)
    kds, ranked = [], {}
    for side in sides:
        b, js, _ = side
        if set(js) == {1}:
            cork = k - closed_form_rank(b, ns, exps[:, min(k, 2) - 1], exps[:, k - 1])
        else:
            if side not in ranked:
                ranked[side] = _unity_coranks(side, ns, exps)
            cork = ranked[side]
        kds.append((len(b) - sum(js) + cork).tolist())
    return list(zip(configs, *kds))


def live_tuple_components(p, label, n_max=12):
    """(desc, kd1 + kd2 + 1) of every tuple with both kernels nonempty, in
    scan order: the per-tuple components."""
    live = [(c, kd1, kd2) for c, kd1, kd2 in tuple_kernel_dims(p, label, n_max) if kd1 > 0 and kd2 > 0]
    return [(f"unity(n={n}, exps={list(exps)})", kd1 + kd2 + 1) for (n, exps), kd1, kd2 in live]


def grouped_classes(p, label, n_max=12):
    """tuple_kernel_dims grouped by (kd1, kd2), each group under its first
    tuple with its size, in scan order, less the groups with an empty kernel
    and the group of coranks (0, 0), whose kd are the generic
    `_generic_kernel_dims`: the oracle of the root-of-unity strata (`unity_kind`)."""
    generic = _generic_kernel_dims(_sides(p, label))
    groups = {}
    for config, kd1, kd2 in tuple_kernel_dims(p, label, n_max):
        first, size = groups.get((kd1, kd2), (config, 0))
        groups[kd1, kd2] = (first, size + 1)
    return [(first, kd1, kd2, size) for (kd1, kd2), (first, size) in groups.items() if min(kd1, kd2) > 0 and (kd1, kd2) != generic]


def class_components(p, label, n_max=12):
    """grouped_classes as (desc, dim) report entries."""
    return [(f"unity(n={n}, exps={list(exps)})", kd1 + kd2 + 1) for (n, exps), kd1, kd2, _ in grouped_classes(p, label, n_max)]


def cyclo_mod(value, p, z):
    """The image of a CycloElement (or int) under zeta_n -> z in F_p."""
    coeffs = value.coeffs if isinstance(value, CycloElement) else (value,)
    return sum(c * pow(z, i, p) for i, c in enumerate(coeffs)) % p


class TestExactUnity:
    """The root-of-unity strata decided exactly (`_unity_strata`)
    against the float votes they replaced and against the CycloElement
    oracle."""

    @pytest.mark.parametrize("b1,b2,name", VERIFY_CODIM_CASES)
    def test_verify_cases_match_float_votes(self, b1, b2, name):
        # the exact answer does not depend on the seed; the float votes
        # draw other annulus factors at every seed
        p, label = pair(b1, b2), parse_label(name)
        live = live_tuple_components(p, label)
        assert bool(live) == (label.k > 1)
        for seed in range(20):
            assert live == reference_unity_votes(p, label, seed, 12, stacked=True), seed
        assert unity_components(p, label) == class_components(p, label)

    @pytest.mark.parametrize("p", GUARANTEE_PAIRS, ids=lambda p: f"{p.b1.elements}-{p.b2.elements}")
    def test_guarantee_cases_match_float_votes(self, p):
        # multiplicity labels (N(2,1;1,1), N(1,1;2,1)) and boundary orders included
        for name, label in GUARANTEE_LABELS.items():
            assert live_tuple_components(p, label, 8) == reference_unity_votes(p, label, 17, 8), name
            assert unity_components(p, label, 8) == class_components(p, label, 8), name

    def test_uncertified_tuples_take_conjugate_rank(self, monkeypatch):
        # with a first rank mod p that certifies nothing, every Hermite-path
        # rank comes from the conjugate ranks, with identical components
        no_closed_form = ("N(2,2)", "N(3,1)", "N(2,1,1)", "N(2,2;1,1)")
        labels = [parse_label(name) for name in ("N(2,1)", "N(2,1;1,1)", "N(1,1;2,1)", "N_1(2,1)", *no_closed_form)]
        cases = [(p, label, 8) for p in GUARANTEE_PAIRS for label in labels]
        cases += [(pair((0, 3, 6), (0, 1, 3, 6, 9)), label, 9) for label in labels]
        want = [unity_kind(p, label, n_max) for p, label, n_max in cases]
        tuples = [tuple_kernel_dims(p, label, n_max) for p, label, n_max in cases]
        assert [comps for _, comps in want] == [grouped_classes(p, label, n_max) for p, label, n_max in cases]
        calls, inside = [], []
        real_rank, real_conjugates = singres.strata.modular_rank, singres.strata._conjugate_ranks

        def counted(eff, js, ns, exps):
            calls.extend(ns.tolist())
            inside.append(True)
            try:
                return real_conjugates(eff, js, ns, exps)
            finally:
                inside.pop()

        def first_pass_fails(stack, primes):
            # only the conjugate pass, inside counted(), ranks for real
            return real_rank(stack, primes) if inside else np.zeros(len(stack), dtype=np.int64)

        monkeypatch.setattr(singres.strata, "modular_rank", first_pass_fails)
        monkeypatch.setattr(singres.strata, "_conjugate_ranks", counted)
        assert [unity_kind(p, label, n_max) for p, label, n_max in cases] == want
        # the estimator takes one conjugate rank per tuple and distinct side
        # of a label with no closed form, order-1 sides included, and none
        # for the others; the oracle one per tuple and distinct multiplicity
        # side (none where a side's effective support is empty; a side with
        # the first side's effective support and orders is ranked once)
        ranked = oracle_ranked = 0
        for (p, label, _), (decided, _) in zip(cases, want):
            sides = {(_effective_elements(b, label.j0, label.jinf), label.side_orders(side)) for side, b in ((1, p.b1), (2, p.b2))}
            if all(eff for eff, _ in sides):
                ranked += decided * len(sides) * (label.notation() in no_closed_form)
                oracle_ranked += decided * sum(max(js) > 1 for _, js in sides)
        assert len(calls) == ranked > 1000
        # and tuple by tuple
        calls.clear()
        assert [tuple_kernel_dims(p, label, n_max) for p, label, n_max in cases] == tuples
        assert len(calls) == oracle_ranked > ranked
        assert sum(kd1 > 0 and kd2 > 0 for dims in tuples for _, kd1, kd2 in dims) > 100

    def test_equal_sides_are_ranked_once(self, monkeypatch):
        # as in the scan, a side equal to the first is ranked once
        calls = []
        real = singres.strata._unity_coranks

        def counted(side, ns, exps):
            calls.append(side.support.elements)
            return real(side, ns, exps)

        monkeypatch.setattr(singres.strata, "_unity_coranks", counted)
        # a closed-form label ranks no tuple mod p: its classes come from
        # the cached side arrays of its signatures (TestCorankTally)
        cases = [((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1,1)", 0), ((0, 3, 6), (0, 3, 6), "N(2,1)", 0)]
        cases += [((0, 3, 6), (0, 3, 6), "N(2,1;1,1)", 0), ((0, 1, 3, 4, 6, 7), (0, 3, 6), "N(1,1,1)", 0)]
        cases += [((0, 3, 6, 9), (0, 3, 6, 9), "N(2,2)", 1), ((0, 3, 6, 9), (0, 3, 6, 9), "N(2,2;1,1)", 2)]
        for b1, b2, name, ranked in cases:
            calls.clear()
            p, label = pair(b1, b2), parse_label(name)
            decided, components = unity_kind(p, label, 12)
            assert len(calls) == ranked, (b1, b2, name)
            assert decided == len(_scan_table(label.k, 12)[2]) and live_tuple_components(p, label), (b1, b2, name)
            assert components == grouped_classes(p, label), (b1, b2, name)

    def test_orbit_direction_is_never_in_the_kernels(self):
        # the lemma behind r = 1: on every nonempty component, the oracle
        # rank of [M_i; M_i D] exceeds rank M_i on each side with a kernel
        cases = [(pair(b1, b2), parse_label(name), 8) for b1, b2, name in VERIFY_CODIM_CASES]
        cases += [(p, label, 6) for p in GUARANTEE_PAIRS for label in GUARANTEE_LABELS.values()]
        checked = 0
        for p, label, n_max in cases:
            assert unity_kind(p, label, n_max)[1] == grouped_classes(p, label, n_max)
            for (n, exps), *kds in tuple_kernel_dims(p, label, n_max):
                if min(kds) <= 0:
                    continue
                for b, side, kd in ((p.b1, 1, kds[0]), (p.b2, 2, kds[1])):
                    eff = _effective_elements(b, label.j0, label.jinf)
                    rows = unity_vandermonde(S(*eff), [RootOfUnity(n, q) for q in exps], label.side_orders(side))
                    assert len(eff) - cyclo_rank(rows) == kd > 0
                    scaled = [[v * e for v, e in zip(row, eff)] for row in rows]
                    assert cyclo_rank(rows + scaled) > cyclo_rank(rows), (p, label, n, exps)
                    checked += 1
        assert checked > 400

    def test_empty_and_rank_deficient_components(self):
        # (0, 3, 6) takes one value at all cube roots: kd = 2 on both sides
        # at (1, zeta_3), one class of two tuples, and 1 at (1, -1), the
        # generic kernels, which is not listed
        p, label = pair((0, 3, 6), (0, 3, 6)), parse_label("N(1,1)")
        decided, comps = unity_kind(p, label, 3)
        assert decided == len(_scan_table(2, 3)[2]) == 3
        assert tuple_kernel_dims(p, label, 3) == [((2, (0, 1)), 1, 1), ((3, (0, 1)), 2, 2), ((3, (0, 2)), 2, 2)]
        assert comps == [((3, (0, 1)), 2, 2, 2)]
        assert unity_kind(pair((0, 1), (0, 1, 2)), parse_label("N(1,1)"), 6) == (len(_scan_table(2, 6)[2]), [])
        assert unity_kind(pair((0, 1, 2), (0, 1, 2)), parse_label("N(1)"), 12) == (0, [])
        assert unity_kind(pair((0, 1, 2), (0, 1, 2)), parse_label("N(1,1,1)"), 2) == (0, [])

    def test_huge_exponents_reduce_exactly(self):
        # 2^62 + 1 = 13865 mod 27720 = lcm(2..12): the same components as
        # the congruent support, and exponents past int64 decide as well
        label = parse_label("N(1,1)")
        for huge in (2**62 + 1, 2**63 + 5):
            p, small = pair((0, 2, huge), (0, 3, 6)), pair((0, 2, huge % 27720), (0, 3, 6))
            want = tuple_kernel_dims(small, label)
            assert live_tuple_components(small, label) and tuple_kernel_dims(p, label) == want
            assert unity_components(p, label) == unity_components(small, label) == class_components(small, label)
        # multiplicity rows carry falling factorials of the huge exponents,
        # which reduce mod p in Python ints; the oracle's rank decides
        for name in ("N(2,1)", "N(2,1;1,1)"):
            label = parse_label(name)
            b1 = S(0, 1, 2, 2**62 + 1)
            p = SupportPair(b1, S(0, 3, 6, 9))
            decided, comps = unity_kind(p, label, 12)
            assert comps and comps == grouped_classes(p, label)
            live = [(config, kd1) for config, kd1, kd2 in tuple_kernel_dims(p, label) if kd1 > 0 and kd2 > 0]
            assert live
            for (n, exps), kd1 in live:
                rows = unity_vandermonde(b1, [RootOfUnity(n, q) for q in exps], label.side_orders(1))
                assert kd1 == len(b1) - cyclo_rank(rows)

    def test_split_prime(self):
        for n in range(1, 41):
            p, z = split_prime(n)
            assert p < 2**31 and (p - 1) % n == 0
            assert all(p % q for q in range(2, 46341) if q * q <= p)
            assert pow(z, n, p) == 1 and all(pow(z, d, p) != 1 for d in range(1, n))
            # the successive primes: descending, each the next p = 1 mod n
            primes = list(itertools.islice(split_primes(n), 3))
            assert primes[0] == (p, z)
            for (hi, _), (lo, w) in zip(primes, primes[1:]):
                assert lo < hi and (hi - lo) % n == 0 and pow(w, n, lo) == 1
                assert not any(all(m % q for q in range(2, 46341) if q * q <= m) for m in range(lo + n, hi, n))

    def test_modular_rank_matches_exact_rank(self):
        # seeded random matrices over Z[zeta_n], n 2..12, up to 5 x 6, many
        # with planted dependent rows, ranked as one padded stack against
        # the oracle's exact rank
        rng = random.Random(29)
        mats, primes, want = [], [], []
        deficient = 0
        for _ in range(400):
            n = rng.randint(2, 12)
            deg = cyclotomic_polynomial(n).degree
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)

            def entry():
                if rng.random() < 0.3:
                    return CycloElement.zero(n)
                return CycloElement(n, [rng.randint(-3, 3) for _ in range(deg)])

            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            for i in range(1, nrows):
                if rng.random() < 0.5:
                    a, b = entry(), entry()
                    j = rng.randrange(i)
                    rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[rng.randrange(i)])]
            p, z = split_prime(n)
            mat = np.zeros((5, 6), dtype=np.int64)
            mat[:nrows, :ncols] = [[cyclo_mod(v, p, z) for v in row] for row in rows]
            mats.append(mat)
            primes.append(p)
            want.append(cyclo_rank(rows))
            deficient += want[-1] < min(nrows, ncols)
        got = modular_rank(np.array(mats), primes)
        assert got.tolist() == want
        assert deficient > 100 and len(set(want)) == 6

    def test_report_marks_exact_components(self):
        p, label = pair((0, 3, 6), (0, 3, 6)), parse_label("N(1,1)")
        est = estimate_codim(p, label, seed=73)
        data = est.to_json()
        unity = [c for c in data["components_probed"] if c["component"].startswith("unity")]
        assert unity and all(c["exact"] is True and "votes" not in c for c in unity)
        # per tuple kd is (2, 2) or the generic (1, 1); only the first is a class
        assert {(kd1, kd2) for _, kd1, kd2 in tuple_kernel_dims(p, label)} == {(2, 2), (1, 1)}
        assert [(c["kd1"], c["kd2"], c["r"], c["dim_found"]) for c in unity] == [(2, 2, 1, 5)]
        assert [(c["component"], c["kd1"], c["kd2"], c["tuples"]) for c in unity] == [
            (f"unity(n={n}, exps={list(exps)})", kd1, kd2, size) for (n, exps), kd1, kd2, size in grouped_classes(p, label)
        ]
        assert data["sample_count"] == 1 + len(_scan_table(2, 12)[2])
        assert set(data["timings"]) == {"generic_s", "unity_s", "minor_curve_s"}


class TestMonotonicity:
    def test_sampled_domination(self):
        p = pair((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
        n11 = parse_label("N(1,1)")
        for name in ("N(2)", "N(1,1,1)"):
            q = parse_label(name)
            got = sample_filtration_subset(p, q, seed=76)
            assert got is not None
            f, g, _ = got
            got = actual_label(f, g)
            sym = StratumLabel.symmetric(got.j0, got.jinf, [min(r) for r in got.roots])
            assert label_dominates(sym, n11)


class TestSideRecord:
    @pytest.mark.parametrize("name", ["N(1,1,1)", "N(1,1)", "N(2,1;1,1)", "N_1(1,1)"])
    def test_each_side_is_derived_once(self, name, monkeypatch):
        # one scan and one codim estimate derive each side's effective
        # support, root orders and gap gcd once (`_sides`), however many
        # helpers read them, and the class tables take the record's gap
        # gcd, so `minors` derives none; the scan refuses the boundary-order
        # label
        counts = Counter()

        def count(owner, attr):
            real = getattr(owner, attr)
            key = f"{getattr(owner, '__name__', owner)}.{attr}"

            def counted(*args):
                counts[key] += 1
                return real(*args)

            monkeypatch.setattr(owner, attr, counted)

        owners = (singres.strata, "gap_gcd"), (singres.minors, "gap_gcd"), (singres.strata, "_effective_elements"), (StratumLabel, "side_orders")
        for owner, attr in owners:
            count(owner, attr)
        p, label = pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), parse_label(name)
        runs = {"estimate_codim": lambda: estimate_codim(p, label)}
        if not label.j0:
            runs["scan_corank_strata"] = lambda: scan_corank_strata(p, label, 12)
        for entry, run in runs.items():
            counts.clear()
            run()
            assert counts["StratumLabel.side_orders"] == 2 and max(counts.values()) <= 2, (name, entry, counts)
            assert counts["singres.minors.gap_gcd"] == 0, (name, entry, counts)

    def test_equal_sides_share_one_record(self):
        # side 2 is side 1's record when its support and orders are side
        # 1's, boundary orders or not; otherwise it is derived on its own
        b, other = (0, 1, 3, 4, 6, 7), (0, 3, 6)
        for b1, b2, name in [(b, b, "N(1,1,1)"), (b, b, "N_1(1,1)"), (b, b, "N(2,1;1,1)"), (b, other, "N(1,1,1)")]:
            label = parse_label(name)
            sides = _sides(pair(b1, b2), label)
            want = []
            for side, elems in ((1, b1), (2, b2)):
                eff = _effective_elements(S(*elems), label.j0, label.jinf)
                want.append(_Side(S(*eff), label.side_orders(side), gap_gcd(S(*eff))))
            assert sides == tuple(want), name
            assert (sides[1] is sides[0]) == (b1 == b2 and label.is_symmetric), (b1, b2, name)


class TestUnityClasses:
    """The estimator's root-of-unity entries are the scan's corank classes."""

    CASES = [(pair(b1, b2), parse_label(name)) for b1, b2, name in VERIFY_CODIM_CASES]
    CASES += [(p, label) for p in GUARANTEE_PAIRS for label in GUARANTEE_LABELS.values() if not (label.j0 or label.jinf)]

    def test_entries_are_the_scan_classes(self):
        # one entry per unity-witnessed class of scan_corank_strata with both
        # kernels nonempty, under the class's first tuple, with its count
        listed = 0
        for p, label in self.CASES:
            for n_max in (8, 12):
                comps = estimate_codim(p, label, n_max=n_max).to_json()["components_probed"]
                got = [(c["component"], c["kd1"], c["kd2"], c["tuples"]) for c in comps if c["component"].startswith("unity")]
                d1, d2 = _generic_kernel_dims(_sides(p, label))
                want = []
                for (c1, c2), val in scan_corank_strata(p, label, n_max).found.items():
                    witness = val["witness"]
                    if d1 + c1 > 0 and d2 + c2 > 0:
                        want.append((f"unity(n={witness['n']}, exps={witness['exponents']})", d1 + c1, d2 + c2, val["count"]))
                assert got == want, (p, label, n_max)
                listed += len(got)
        assert (len(self.CASES), listed) == (30, 16)

    @pytest.mark.parametrize("name", ["N(1,1)", "N(1,1,1)", "N_1(1,1)"])
    def test_order_one_estimate_ranks_no_tuple(self, name, monkeypatch):
        # an order-1 label reads the scan's tally; N(2,2;1,1), a label with
        # no closed form, still ranks per tuple, which shows that the wraps
        # count
        calls = Counter()
        real = singres.strata._unity_coranks

        def counted(*args):
            calls["_unity_coranks"] += 1
            return real(*args)

        monkeypatch.setattr(singres.strata, "_unity_coranks", counted)
        pairs = [pair((0, 1, 2, 3), (0, 1, 2, 3)), pair((0, 1, 3, 4, 6, 7), (0, 3, 6)), pair((0, 3, 6), (0, 3, 6))]
        for p in pairs:
            estimate_codim(p, parse_label(name))
        assert calls == Counter(), name
        for p in pairs:
            estimate_codim(p, parse_label("N(2,2;1,1)"))
        assert calls == Counter(_unity_coranks=6)


KINDS = ("generic", "unity", "minor_curve")


class TestSolutionStrata:
    """§4's solution strata (`_solution_strata`) against the reports of
    both readers, on the report sets of `test_digests.py`."""

    # per label of CODIM_LABELS, the kinds of the strata it enumerates on
    # every seventh pair of spread <= 5 (empty strata included)
    LABEL_KINDS = {
        "N": ("generic",),
        "N(1)": ("generic",),
        "N(1,1)": ("generic", "unity"),
        "N(2)": ("generic",),
        "N(3)": ("generic",),
        "N(1,1,1)": KINDS,
        "N(2,2)": ("generic", "unity"),
        "N(2,2;1,1)": ("generic", "unity"),
        "N_1^0": ("generic",),
        "N_0^1(1)": ("generic",),
        "N_1^0(1)": ("generic",),
        "N_1(1,1)": ("generic", "unity"),
        "N_1^1(1,1,1)": KINDS,
        "N^1(1,1,1)": KINDS,
    }

    def test_codim_is_the_largest_stratum(self):
        # every report of the codim_label_pairs set: the estimate is the
        # ambient dimension minus the largest stratum dimension, the report
        # lists every stratum but the empty root-of-unity classes, and the
        # samples are the kinds' decisions
        reports = iter(SETS["codim_label_pairs"]())
        for name in CODIM_LABELS:
            label, seen = parse_label(name), set()
            for p in _pairs()[::7]:
                est = next(reports)
                assert (est.pair, est.label) == (p.to_json(), label.notation())
                batches = list(_solution_strata(p, _sides(p, label), 12, 0))
                assert [kind for kind, _, _ in batches] == list(KINDS if label.k else KINDS[:1]), name
                assert all(stratum.kind == kind for kind, strata, _ in batches for stratum in strata)
                strata = [stratum for _, strata, _ in batches for stratum in strata]
                dims = [stratum.dim for stratum in strata if stratum.dim is not None]
                assert est.estimate == (est.ambient_dim - max(dims) if dims else None), (p, name)
                assert est.strata == [st for st in strata if st.kind != "unity" or st.dim is not None]
                assert est.sample_count == sum(samples for _, _, samples in batches)
                seen.update(stratum.kind for stratum in strata)
            assert tuple(kind for kind in KINDS if kind in seen) == self.LABEL_KINDS[name]
        assert next(reports, None) is None

    @pytest.mark.parametrize("name", ["N_2^1(1,1)", "N_2^1(1,1,1)", "N_1^2(2,1,1)"])
    def test_an_empty_side_ranks_nothing(self, name, monkeypatch):
        # boundary orders that leave side 1 no exponent empty every kernel of
        # that side: the unity and minor-curve kinds are decided empty in
        # `_solution_strata` alone, with no corank class, no certificate and
        # no sample
        def refused(*args):
            raise AssertionError("an empty side reached a stratum helper")

        monkeypatch.setattr(singres.strata, "_corank_classes", refused)
        monkeypatch.setattr(singres.strata, "_minor_certificates", refused)
        p, label = pair((0, 1, 2), (0, 1, 2, 3, 4, 5, 6)), parse_label(name)
        sides = _sides(p, label)
        assert sides[0].support is None and sides[1].support is not None
        batches = list(_solution_strata(p, sides, 12, 0))
        assert [(kind, strata, samples) for kind, strata, samples in batches[1:]] == [("unity", [], 0), ("minor_curve", [], 0)]
        est = estimate_codim(p, label)
        assert [stratum.kind for stratum in est.strata] == ["generic"] and est.sample_count == 1

    @pytest.mark.parametrize("name", ["symmetric_1013", "pairs_spread_5", "pairs_spread_5_mixed", "pairs_spread_5_no_closed_form"])
    def test_scan_keys_are_the_nonzero_coranks(self, name):
        # every scan of the digest sets: found's keys are the kd - d of the
        # root-of-unity strata in order, each nonzero, and generic_corank is
        # the generic stratum's, d the generic kernel dimensions; the
        # minor-curve kind is not reached
        for rep in SETS[name]():
            p, label = cli._pair(rep.pair), parse_label(rep.label)
            sides = _sides(p, label)
            d = _generic_kernel_dims(sides)
            strata = [stratum for _, batch, _ in itertools.islice(_solution_strata(p, sides, rep.n_max, 0), 2) for stratum in batch]
            coranks = [tuple(kd - ds for kd, ds in zip(stratum.kd, d)) for stratum in strata]
            assert coranks == [stratum.corank for stratum in strata]
            assert list(rep.found) == coranks[1:] and (0, 0) not in rep.found
            assert rep.generic_corank == coranks[0]

    def test_codim_invariant_under_reflection_swap_and_translation(self):
        # the estimate of every 28th pair of spread <= 5 under every label of
        # CODIM_LABELS but N stays put under B -> max B - B on both sides
        # with j0 and jinf swapped, under swapping the supports with each
        # root's order pair, and under moving side 1 by 3 and side 2 by -2
        reports, pairs = SETS["codim_label_pairs"](), _pairs()[::7]

        def moved(b, shift, sign=1):
            return SupportSet(sorted({*(sign * e + shift for e in b.elements)}))

        checked = 0
        for row, name in enumerate(CODIM_LABELS):
            label = parse_label(name)
            if label == StratumLabel():
                continue
            images = (
                (lambda p: SupportPair(moved(p.b1, p.b1.max, -1), moved(p.b2, p.b2.max, -1)), StratumLabel(label.jinf, label.j0, label.roots)),
                (lambda p: SupportPair(p.b2, p.b1), StratumLabel(label.j0, label.jinf, tuple((j2, j1) for j1, j2 in label.roots))),
                (lambda p: SupportPair(moved(p.b1, 3), moved(p.b2, -2)), label),
            )
            for i in range(0, len(pairs), 4):
                want = reports[row * len(pairs) + i].estimate
                for move, image in images:
                    assert estimate_codim(move(pairs[i]), image).estimate == want, (pairs[i], name, image.notation())
                    checked += 1
        assert checked == 3 * 35 * 13


class TestFourRoots:
    """Labels of four or more roots take the Hermite ranks (`_unity_coranks`),
    order-1 sides too: the closed form of the tally is a lemma on three
    rows, which at k = 4 gave every tuple a corank of at least 1."""

    LABEL = parse_label("N(1,1,1,1)")

    def test_four_shared_roots_leave_no_pair(self):
        # two cubics that share four distinct roots are both zero, so the
        # subset is empty, as N(2,1,1) reports for the same supports
        p = pair((0, 1, 2, 3), (0, 1, 2, 3))
        est = estimate_codim(p, self.LABEL)
        assert est.estimate is None and [s.name for s in est.strata] == ["generic"]
        assert estimate_codim(p, parse_label("N(2,1,1)")).estimate is None

    def test_squares_list_their_classes(self):
        # on (0, 2, 4, 6, 8) a tuple's rank is the number of distinct
        # squares (at most 4): two at (1, i, -1, -i), three first at n = 6
        est = estimate_codim(pair((0, 2, 4, 6, 8), (0, 2, 4, 6, 8)), self.LABEL)
        unity = [(s.at, s.kd, s.fields["tuples"]) for s in est.strata if s.kind == "unity"]
        assert est.estimate == 3 and unity == [((4, (0, 1, 2, 3)), (3, 3), 11), ((6, (0, 1, 2, 3)), (2, 2), 152)]

    @pytest.mark.parametrize("b1,b2", [((0, 1, 2, 3), (0, 1, 2, 3)), ((0, 2, 4, 6, 8), (0, 2, 4, 6, 8)), ((0, 3, 6, 9, 12), (0, 1, 2, 4, 6)), ((0, 1, 3, 4, 6, 7), (0, 2, 4, 6, 8))])
    def test_classes_match_the_cyclotomic_oracle(self, b1, b2):
        # every tuple of _scan_table(4, 8) ranked over Q(zeta_n), grouped
        # by its nonzero corank pair under its first tuple, with its count
        p = pair(b1, b2)
        classes = {}
        for config in _scan_table(4, 8)[2]:
            n, exps = config
            key = tuple(4 - cyclo_rank(unity_vandermonde(b, [RootOfUnity(n, e) for e in exps], (1,) * 4)) for b in (p.b1, p.b2))
            if key != (0, 0):
                count, first = classes.get(key, (0, config))
                classes[key] = (count + 1, first)
        assert _corank_classes(_sides(p, self.LABEL), 8) == classes
