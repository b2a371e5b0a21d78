"""Canned verification suite: each check reproduces one of the headline
facts at desk scale and reports pass/fail with timings.

The checks are deliberately self-contained so both the CLI and the test
suite can run them; expected values are either exact worked examples or
computed by the stated independent oracles.  The root-of-unity minor checks
make one batched kernel call per modulus (see `singres.kernels`).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .exact import exact_rank
from .germs import PlaneGerm, classify_germ, slice_germ
from .kernels import det3_vanish, reduction_table_array, unity_combos_vanish
from .laurent import LaurentPoly, classify_point
from .minors import admissible_pairs, minors_split_equivalence_scan
from .mpoly import MPoly, jacobian_vanishes, resultant_poly
from .project import GridConfig, Support3D, grid_scan, project_supports
from .strata import (
    GenericPoints,
    StratumLabel,
    estimate_codim,
    in_filtration_subset,
    label_dominates,
    multiplicity_vandermonde,
    parse_label,
    sample_filtration_subset,
    scan_corank_strata,
    corank_kernel,
)
from .supports import SupportPair, SupportSet, gap_gcd

__all__ = ["CheckResult", "run_checks", "CHECK_IDS", "run_one"]


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.check_id}  ({self.elapsed:.2f}s){note}"

    def to_json(self):
        return {
            "check": self.check_id,
            "passed": self.passed,
            "elapsed_s": self.elapsed,
            "details": self.details,
            "note": self.note,
        }


def _pair(b1, b2):
    return SupportPair(SupportSet.of(*b1), SupportSet.of(*b2))


# --- individual checks -------------------------------------------------------


def check_closed_form_resultant():
    pair = _pair((0, 1, 3), (0, 3))
    r = resultant_poly(pair)
    v = r.vars
    a, b, c = (MPoly.var(v, n) for n in ("f3", "f1", "f0"))
    d, e = (MPoly.var(v, n) for n in ("g3", "g0"))
    expected = (a * e - c * d) ** 3 + b ** 3 * d ** 2 * e
    ok = r == expected or r == -expected
    return ok, {"matched_sign": "+" if r == expected else ("-" if r == -expected else None)}


def check_degree_one_resultant():
    pair = _pair((0, 1), (0, 1))
    r = resultant_poly(pair)
    v = r.vars
    expected = MPoly.var(v, "f1") * MPoly.var(v, "g0") - MPoly.var(v, "f0") * MPoly.var(v, "g1")
    ok = r == expected or r == -expected
    origin = {name: 0 for name in v}
    ok = ok and jacobian_vanishes(r, origin)
    generic = {"f0": 1, "f1": 1, "g0": 1, "g1": 1}
    ok = ok and not jacobian_vanishes(r, generic)
    return ok, {}


def check_germ_classification():
    pair = _pair((0, 1, 3), (0, 3))
    r = resultant_poly(pair)
    point = {"f3": 1, "f1": 0, "f0": 1, "g3": 1, "g0": 1}
    lines = classify_germ(slice_germ(r, point, {"f1": 1}, {"f0": 1}))
    ok = lines.tag == "OrdinaryMultiple" and lines.m == 3
    cusp_pt = {"f3": 0, "f1": 2, "f0": 3, "g3": 0, "g0": 5}
    cusp = classify_germ(slice_germ(r, cusp_pt, {"f3": 1}, {"g3": 1}))
    ok = ok and cusp.tag == "UniTangent" and cusp.m == 2 and cusp.slope == Fraction(2, 3)
    node = classify_germ(PlaneGerm({(1, 1): 1}))
    ok = ok and node.tag == "NodeA1"
    return ok, {"lines": lines.to_json(), "cusp": cusp.to_json()}


def check_minors_split_equivalence():
    """Criterion as stated: zero counterexamples over n <= 10, B in [0, 8],
    |B| in {3, 4}.

    Known to fail: the split criterion misses the order-2 row degeneracies
    (witness B = {0,2,4}, n = 6, x = z, y = z^3 = -1), so the literal count
    is nonzero.  The companion regression fact (every counterexample is
    order-2 explained, converse clean) is asserted by the test suite.
    """
    rep = minors_split_equivalence_scan(10, 8, (3, 4))
    details = {
        "pairs_checked": rep.pairs_checked,
        "counterexamples": len(rep.counterexamples),
        "order2_explained": len(rep.order2_explained),
        "unexplained": len(rep.unexplained),
        "converse_counterexamples": len(rep.converse_counterexamples),
        "first_counterexample": rep.forward_counterexamples[0] if rep.forward_counterexamples else None,
    }
    ok = len(rep.counterexamples) == 0
    note = ""
    if not ok and not rep.unexplained and not rep.converse_counterexamples:
        note = (
            "known defect of the split criterion as stated: all "
            f"{len(rep.order2_explained)} counterexamples are order-2 row "
            "degeneracies; see the decisions ledger"
        )
    return ok, details, note


def _explained_power_matrix_zero(n, p, q, a, b, c):
    """Zero of the all-powers minor explained by proportional rows/columns."""
    exps = (a, b, c)

    def const(r):
        return all((r * (e1 - e2)) % n == 0 for e1, e2 in itertools.combinations(exps, 2))

    if const(p) or const(q) or const(p - q):
        return True
    for e1, e2 in itertools.combinations(exps, 2):
        if (p * (e1 - e2)) % n == 0 and (q * (e1 - e2)) % n == 0:
            return True
    return False


def check_unity_minor_explanations(n_max=24, span=5):
    """Every vanishing 3x3 minor over roots of unity is explained.

    Two sweeps over the triples a < b < c of [-span, span]: the power matrix
    [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] for x = z^p, y = z^q with
    1 <= p < q < n, and the ones/exponents/powers matrix
    [[1,1,1],[a,b,c],[x^a,x^b,x^c]] for x = z^p, 0 <= p < n.  Each sweep
    makes one batched zero test per modulus n; the zeros are then explained
    in (n, p, q, triple) order.
    """
    triple_list = list(itertools.combinations(range(-span, span + 1), 3))
    triples = np.array(triple_list, dtype=np.int64)
    a, b, c = triples.T
    unexplained = []
    zeros = 0
    checked = 0
    for n in range(3, n_max + 1):
        ps, qs = admissible_pairs(n)
        table = reduction_table_array(n)
        vanish = det3_vanish(table, triples, ps, qs)
        checked += vanish.size
        for i, t in np.argwhere(vanish).tolist():
            zeros += 1
            p, q = int(ps[i]), int(qs[i])
            if not _explained_power_matrix_zero(n, p, q, *triple_list[t]):
                unexplained.append({"n": n, "p": p, "q": q, "triple": list(triple_list[t])})
    # ones / exponents / powers matrix: det = (b-a) x^c + (a-c) x^b + (c-b) x^a
    zeros65 = 0
    row_exps = np.stack([c, b, a], axis=1)
    coefs = np.stack([b - a, a - c, c - b], axis=1)
    for n in range(1, n_max + 1):
        table = reduction_table_array(n)
        vanish = unity_combos_vanish(table, np.arange(n)[:, None, None] * row_exps, coefs)
        checked += vanish.size
        for p, t in np.argwhere(vanish).tolist():
            zeros65 += 1
            a_, b_, c_ = triple_list[t]
            powers_equal = (p * (a_ - b_)) % n == 0 and (p * (b_ - c_)) % n == 0
            if not powers_equal:
                unexplained.append({"n": n, "p": p, "triple": [a_, b_, c_], "kind": "exponent-row"})
    ok = not unexplained
    return ok, {
        "checked": checked,
        "zeros_power_matrix": zeros,
        "zeros_exponent_matrix": zeros65,
        "unexplained": unexplained[:5],
    }


def _normalized_supports(max_spread):
    """All support sets with min 0, spread <= max_spread, |B| >= 3."""
    out = []
    for spread in range(2, max_spread + 1):
        interior = list(range(1, spread))
        for r in range(1, len(interior) + 1):
            for mid in itertools.combinations(interior, r):
                out.append(SupportSet(tuple([0, *mid, spread])))
    return out


def check_corank2_dichotomy(max_spread=10, n_max=12):
    label = StratumLabel.symmetric(0, 0, (1, 1, 1))
    bad = []
    for b in _normalized_supports(max_spread):
        rep = scan_corank_strata(SupportPair(b, b), label, n_max)
        observed = rep.side_observed(1, 2)
        predicted = gap_gcd(b) >= 3
        if observed != predicted:
            bad.append({"B": list(b.elements), "observed": observed, "predicted": predicted})
        if rep.mismatches:
            bad.append({"B": list(b.elements), "mismatches": rep.mismatches})
    return not bad, {"supports_checked": len(_normalized_supports(max_spread)), "failures": bad[:5]}


def check_codim_estimates(seed=7):
    cases = [
        (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1)", 1),
        (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1,1)", 2),
        (((0, 1, 2, 3), (0, 1, 2, 3)), "N(2)", 3),
        (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1,1,1)", 3),
        (((0, 3, 6), (0, 3, 6)), "N(1,1)", 1),
        (((0, 1, 3, 4, 6, 7), (0, 3, 6)), "N(1,1,1)", 2),
    ]
    results = []
    ok = True
    for (b1, b2), name, want in cases:
        est = estimate_codim(_pair(b1, b2), parse_label(name), seed=seed)
        got = est.estimate
        results.append({"pair": [list(b1), list(b2)], "label": name, "estimate": got, "expected": want})
        ok = ok and got == want
    return ok, {"cases": results}


def _symmetric_labels_up_to_weight(w):
    labels = []
    for j0 in range(w + 1):
        for jinf in range(w + 1 - j0):
            rest = w - j0 - jinf
            for part in _partitions_up_to(rest):
                labels.append(StratumLabel.symmetric(j0, jinf, part))
    # dedupe (partitions of every total <= rest are generated)
    return sorted(set(labels), key=lambda l: (l.j0, l.jinf, l.roots))


def _partitions_up_to(total, minimum=1):
    yield ()
    for first in range(minimum, total + 1):
        for rest in _partitions_up_to(total - first, first):
            yield (first,) + rest


def check_stratum_order(seed=11):
    ok = True
    details = {}
    boundary = parse_label("N_1^0(1)")
    double = parse_label("N(2)")
    pair11 = parse_label("N(1,1)")
    ok = ok and label_dominates(boundary, pair11)
    ok = ok and label_dominates(double, pair11)
    ok = ok and not label_dominates(parse_label("N(1)"), pair11)
    details["domination_facts"] = ok

    # membership-level inclusion on sampled pairs
    classical = _pair((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
    tight = parse_label("N(2,2;1,1)")
    loose = parse_label("N(2,1;1,1)")
    sampled = 0
    for s in range(20):
        drawn = sample_filtration_subset(classical, tight, GenericPoints(), seed=seed + s)
        if drawn is None:
            continue
        f, g, _ = drawn
        sampled += 1
        if not in_filtration_subset(f, g, loose):
            ok = False
            details["inclusion_failure_seed"] = seed + s
    details["inclusion_samples"] = sampled
    ok = ok and sampled >= 5

    labels = _symmetric_labels_up_to_weight(4)
    rel = {}
    for q in labels:
        for p in labels:
            rel[(q, p)] = label_dominates(q, p)
    for l in labels:
        if not rel[(l, l)]:
            ok = False
    for q in labels:
        for p in labels:
            if rel[(q, p)] and rel[(p, q)] and q != p:
                ok = False
                details["antisymmetry_failure"] = [q.notation(), p.notation()]
    for q in labels:
        for m in labels:
            if not rel[(q, m)]:
                continue
            for p in labels:
                if rel[(m, p)] and not rel[(q, p)]:
                    ok = False
                    details["transitivity_failure"] = [q.notation(), m.notation(), p.notation()]
    details["labels_checked"] = len(labels)
    return ok, details


def _random_kernel_poly(support, constraints, rng):
    """Random exact polynomial on the support vanishing to the prescribed
    orders: constraints = [(point, order), ...]."""
    pts = [p for p, _ in constraints]
    js = [j for _, j in constraints]
    rows = multiplicity_vandermonde(support, pts, js) if pts else []
    if rows:
        _, kern = corank_kernel(rows)
    else:
        kern = [[1 if i == j else 0 for i in range(len(support.elements))] for j in range(len(support.elements))]
    if not kern:
        return None
    for _ in range(6):
        weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in kern]
        vec = [sum(w * v[i] for w, v in zip(weights, kern)) for i in range(len(support.elements))]
        if any(vec):
            return LaurentPoly(support, dict(zip(support.elements, vec)))
    return None


def _distinct_rationals(rng, count):
    out = []
    while len(out) < count:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if x and x not in out:
            out.append(x)
    return out


def check_point_classifier(per_scenario=67, seed=23):
    """>= 200 constructed pairs per support family, across the three
    scenarios (one simple root, two simple roots, a double root)."""
    families = [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2), (0, 1, 2, 3)),
        ((0, 1, 2, 4), (0, 1, 3, 4)),
    ]
    rng = random.Random(seed)
    mis = []
    counts = {"SmoothPoint": 0, "NodeA1": 0, "MultipleRoot": 0}
    for fam in families:
        pair = _pair(*fam)
        done = {"smooth": 0, "node": 0, "double": 0}
        while min(done.values()) < per_scenario:
            scenario = min(done, key=done.get)
            if scenario == "smooth":
                (r,) = _distinct_rationals(rng, 1)
                f = _random_kernel_poly(pair.b1, [(r, 1)], rng)
                g = _random_kernel_poly(pair.b2, [(r, 1)], rng)
                want = "SmoothPoint"
                needed = [(r, 1, 1)]
            elif scenario == "node":
                r1, r2 = _distinct_rationals(rng, 2)
                f = _random_kernel_poly(pair.b1, [(r1, 1), (r2, 1)], rng)
                g = _random_kernel_poly(pair.b2, [(r1, 1), (r2, 1)], rng)
                want = "NodeA1"
                needed = [(r1, 1, 1), (r2, 1, 1)]
            else:
                (r,) = _distinct_rationals(rng, 1)
                f = _random_kernel_poly(pair.b1, [(r, 2)], rng)
                g = _random_kernel_poly(pair.b2, [(r, 2)], rng)
                want = "MultipleRoot"
                needed = [(r, 2, 2)]
            if f is None or g is None:
                continue
            if not _construction_is_clean(f, g, needed):
                continue
            done[scenario] += 1
            got = classify_point(f, g)
            tag = got.reason if got.tag == "Degenerate" else got.tag
            if tag != want:
                mis.append({"family": fam, "want": want, "got": got.to_json()})
            else:
                counts[want] += 1
            if want == "NodeA1" and got.tag == "NodeA1":
                from .laurent import branch_covector

                cov = [branch_covector(f, g, x) for x, _, _ in needed]
                if exact_rank(cov) != 2:
                    mis.append({"family": fam, "want": "rank-2 covectors"})
    return not mis, {"classified": counts, "misclassifications": mis[:5]}


def _construction_is_clean(f, g, needed):
    """Independent sanity of a constructed pair: exactly the prescribed
    common roots, with exactly the prescribed orders, and nothing at the
    boundary."""
    from .exact import poly_gcd

    pf, pg = f.x_part(), g.x_part()
    if not pf.coeffs or not pf.coeffs[0] or not pg.coeffs or not pg.coeffs[0]:
        return False  # wandered onto the boundary
    if not pf.coeffs[-1] or not pg.coeffs[-1]:
        return False
    h = poly_gcd(pf, pg)
    want_deg = sum(min(o1, o2) for _, o1, o2 in needed)
    if h.degree != want_deg:
        return False
    for r, o1, o2 in needed:
        if pf.root_multiplicity(r) != o1 or pg.root_multiplicity(r) != o2:
            return False
    return True


def check_projection_pipeline():
    ok = True
    details = {}
    a1 = Support3D(((0, 0, 0), (1, 0, 1)))
    a2 = Support3D(((0, 0, 0), (0, 1, 1), (1, 1, 2), (0, 0, 3)))
    out = project_supports(a1, a2)
    ok = ok and not out.positive and out.conditions.cond5
    details["negative_case"] = out.to_json()["projection_verdict"]

    a1b = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
    out2 = project_supports(a1b, a2)
    ok = ok and out2.positive
    details["positive_case"] = out2.to_json()["projection_verdict"]

    # constructed common root at (x1, x2) = (1, 1), t = 1
    c1 = Support3D(((1, 0, 0), (0, 0, 2)))
    c2 = Support3D(((0, 1, 0), (0, 0, 1)))
    coeffs1 = {(1, 0, 0): -1 + 0j, (0, 0, 2): 1 + 0j}
    coeffs2 = {(0, 1, 0): -1 + 0j, (0, 0, 1): 1 + 0j}
    grid = GridConfig(rho_min=-0.4, rho_max=0.4, rho_steps=3, theta_steps=4)
    scan = grid_scan(c1, c2, coeffs1, coeffs2, grid, threshold=1e-8)
    hit = any(
        abs(cell["rho1"]) < 1e-12
        and abs(cell["theta1"]) < 1e-12
        and abs(cell["rho2"]) < 1e-12
        and abs(cell["theta2"]) < 1e-12
        for cell in scan.near_zero_cells
    )
    ok = ok and hit
    details["near_zero_cells"] = len(scan.near_zero_cells)
    return ok, details


# --- harness -----------------------------------------------------------------

_CHECKS = (
    ("closed-form-resultant", check_closed_form_resultant),
    ("degree-one-resultant", check_degree_one_resultant),
    ("germ-classification", check_germ_classification),
    ("minors-split-equivalence", check_minors_split_equivalence),
    ("unity-minor-explanations", check_unity_minor_explanations),
    ("corank2-dichotomy", check_corank2_dichotomy),
    ("codim-estimates", check_codim_estimates),
    ("stratum-order", check_stratum_order),
    ("point-classifier", check_point_classifier),
    ("projection-pipeline", check_projection_pipeline),
)

CHECK_IDS = tuple(cid for cid, _ in _CHECKS)


def run_one(check_id: str) -> CheckResult:
    fn = dict(_CHECKS).get(check_id)
    if fn is None:
        raise KeyError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    if len(out) == 3:
        ok, details, note = out
    else:
        ok, details = out
        note = ""
    return CheckResult(check_id, bool(ok), elapsed, details, note)


def run_checks(only=None):
    ids = CHECK_IDS if only is None else tuple(only)
    return [run_one(cid) for cid in ids]
