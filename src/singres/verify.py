"""Canned verification suite: each check reproduces one of the headline
facts at desk scale and reports pass/fail with timings.

The checks are deliberately self-contained so both the CLI and the test
suite can run them; expected values are either exact worked examples or
computed by the stated independent oracles.  The single-minor unity sweeps
make one split-prime zero test per modulus over rows closed under the units
mod n (`kernels.conjugate_zeros`) and compare its zero set with the
closed-form rank `minors._rank`, both ways.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import primitive, prs_gcd, root_multiplicity, units
from .germs import classify_germ, slice_germ
from .kernels import conjugate_zeros
from .laurent import classify_point, homogenize
from .minors import _order, _rank, admissible_pairs, gap_root, minors_split_equivalence_scan
from .mpoly import MPoly, jacobian_vanishes, resultant_poly
from .project import GridConfig, Support3D, grid_scan, project_supports
from .strata import (
    StratumLabel,
    _draw_filtration_pair,
    estimate_codim,
    in_filtration_subset,
    label_dominates,
    parse_label,
    sample_filtration_subset,
    scan_corank_strata,
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
    return SupportPair(SupportSet(b1), SupportSet(b2))


# --- individual checks -------------------------------------------------------


def _matched_sign(r, terms):
    """"+" when the resultant r has exactly the given terms, "-" when it has
    their negatives, else None."""
    if r.terms == terms:
        return "+"
    return "-" if r.terms == {e: -c for e, c in terms.items()} else None


def check_closed_form_resultant():
    r = resultant_poly(_pair((0, 1, 3), (0, 3)))
    # (f3 g0 - f0 g3)^3 + f1^3 g3^2 g0, exponents over (f0, f1, f3, g0, g3)
    sign = _matched_sign(
        r, {(0, 0, 3, 3, 0): 1, (1, 0, 2, 2, 1): -3, (2, 0, 1, 1, 2): 3, (3, 0, 0, 0, 3): -1, (0, 3, 0, 1, 2): 1}
    )
    return sign is not None, {"matched_sign": sign}


def check_degree_one_resultant():
    r = resultant_poly(_pair((0, 1), (0, 1)))
    v = r.vars
    # f1 g0 - f0 g1, exponents over (f0, f1, g0, g1)
    ok = _matched_sign(r, {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1}) is not None
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
    node = classify_germ(MPoly(("s", "t"), {(1, 1): 1}))
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
            "degeneracies; see test_minors_split_equivalence_regression and "
            "the ScanReport docstring"
        )
    return ok, details, note


# det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] with x = z^p, y = z^q is
# z^(pb+qc) - z^(pc+qb) - z^(pa+qc) + z^(pc+qa) + z^(pa+qb) - z^(pb+qa):
# term t is _DET3_SIGNS[t] * z^(p * triple[_DET3_X[t]] + q * triple[_DET3_Y[t]]).
_DET3_X = (1, 2, 0, 2, 0, 1)
_DET3_Y = (2, 1, 2, 0, 1, 0)
_DET3_SIGNS = (1, -1, -1, 1, 1, -1)


def _conjugate_rows(n, ps, qs=None):
    """The conjugate-row index of a unity sweep at modulus n, column i for
    k = units(n)[i]: for the exponent rows ps = 0, ..., n - 1, k p mod n;
    for power pairs (ps[r], qs[r]), the row of the sorted (k p mod n,
    k q mod n), or -1 where there is none.  `kernels.conjugate_zeros`
    proves both sweeps closed."""
    ks = units(n)
    kp = ps[:, None] * ks % n
    if qs is None:
        return kp
    kq, at = qs[:, None] * ks % n, np.full((n, n), -1)
    at[ps, qs] = np.arange(len(ps))
    return at[np.minimum(kp, kq), np.maximum(kp, kq)]


def check_unity_minor_explanations(n_max=24, span=5):
    """Every vanishing 3x3 minor over roots of unity is explained, and
    every closed-form zero vanishes.

    Two sweeps over the triples a < b < c of [-span, span]: the power matrix
    [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] for x = z^p, y = z^q with
    1 <= p < q < n, and the ones/exponents/powers matrix
    [[1,1,1],[a,b,c],[x^a,x^b,x^c]] for x = z^p, 0 <= p < n.  The rows of
    each sweep are closed under the units mod n, so one split-prime zero
    test per modulus evaluates each minor once (`kernels.conjugate_zeros`
    over `_conjugate_rows`); its zero set is compared with rank <= 2 by the
    closed form `minors._rank` at B = {a, b, c}, both ways, in one array
    pass per modulus, with one comparison for both sweeps (`compare`):
    `unexplained` lists zeros the closed form misses and `closed_form_only`
    closed-form zeros the test finds nonzero, each in (n, p, q, triple)
    order.  The power matrix is M(B; x, y), whose keys |B mod m| are
    3 - z + z // 3, z the number of differences b - a, c - b, c - a that the
    period m = n/gcd(n, p, q) divides; the other has the rows 1, e, x^e of
    lemma (2, 1) rows, of keys |B| = 3.  Both gap tests read h = n/gcd(n, g),
    g = gcd(b - a, c - b).
    """
    triples = np.array(list(itertools.combinations(range(-span, span + 1), 3)), dtype=np.int64)
    a, b, c = triples.T
    diffs, g = np.stack([b - a, c - b, c - a], axis=1), np.gcd(b - a, c - b)
    unexplained, closed_form_only = [], []
    checked = 0

    def compare(vanish, closed, entry):
        """List each (row, triple) cell where the zero test vanish and the
        closed form disagree, as entry(row, triple index), under the side
        that misses it; return the zero count."""
        nonlocal checked
        checked += vanish.size
        for cells, out in ((vanish & ~closed, unexplained), (closed & ~vanish, closed_form_only)):
            out += [entry(int(i), int(t)) for i, t in zip(*cells.nonzero())]
        return int(vanish.sum())

    zeros = zeros65 = 0
    for n in range(3, n_max + 1):
        ps, qs = admissible_pairs(n)
        exps = ps[:, None, None] * triples[:, _DET3_X] + qs[:, None, None] * triples[:, _DET3_Y]
        vanish = conjugate_zeros(n, exps, _DET3_SIGNS, _conjugate_rows(n, ps, qs))
        z = (diffs % _order(n, np.gcd(ps, qs))[:, None, None] == 0).sum(axis=-1)
        closed = _rank(3 - z + z // 3, gap_root(_order(n, g), ps[:, None], qs[:, None])) <= 2
        zeros += compare(vanish, closed, lambda i, t: {"n": n, "p": int(ps[i]), "q": int(qs[i]), "triple": triples[t].tolist()})
    # ones / exponents / powers matrix: det = (b-a) x^c + (a-c) x^b + (c-b) x^a
    coefs = np.stack([b - a, a - c, c - b], axis=1)
    for n in range(1, n_max + 1):
        ps = np.arange(n)
        vanish = conjugate_zeros(n, ps[:, None, None] * triples[:, ::-1], coefs, _conjugate_rows(n, ps))
        closed = _rank(3, ps[:, None] % _order(n, g) == 0) <= 2
        zeros65 += compare(vanish, closed, lambda p, t: {"n": n, "p": p, "triple": triples[t].tolist(), "kind": "exponent-row"})
    return not unexplained and not closed_form_only, {
        "checked": checked,
        "zeros_power_matrix": zeros,
        "zeros_exponent_matrix": zeros65,
        "unexplained": unexplained[:5],
        "closed_form_only": closed_form_only[:5],
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


DICHOTOMY_MAX_SPREAD = 10  # the largest support spread checked
DICHOTOMY_N_MAX = 12  # the scans' largest root-of-unity order


def check_corank2_dichotomy():
    label = StratumLabel.symmetric(0, 0, (1, 1, 1))
    supports = _normalized_supports(DICHOTOMY_MAX_SPREAD)
    bad = []
    for b in supports:
        rep = scan_corank_strata(SupportPair(b, b), label, DICHOTOMY_N_MAX)
        observed = rep.side_observed(1, 2)
        predicted = gap_gcd(b) >= 3
        if observed != predicted:
            bad.append({"B": list(b.elements), "observed": observed, "predicted": predicted})
        if rep.mismatches:
            bad.append({"B": list(b.elements), "mismatches": rep.mismatches})
    return not bad, {"supports_checked": len(supports), "failures": bad[:5]}


CODIM_CASES = [  # (supports, label, expected codim estimate)
    (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1)", 1),
    (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1,1)", 2),
    (((0, 1, 2, 3), (0, 1, 2, 3)), "N(2)", 3),
    (((0, 1, 2, 3), (0, 1, 2, 3)), "N(1,1,1)", 3),
    (((0, 3, 6), (0, 3, 6)), "N(1,1)", 1),
    (((0, 1, 3, 4, 6, 7), (0, 3, 6)), "N(1,1,1)", 2),
]
CODIM_SEED = 7  # the seed of every codim case's minor-curve draws


def check_codim_estimates():
    results = []
    ok = True
    for (b1, b2), name, want in CODIM_CASES:
        est = estimate_codim(_pair(b1, b2), parse_label(name), seed=CODIM_SEED)
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
    return sorted(labels, key=lambda l: (l.j0, l.jinf, l.roots))


def _partitions_up_to(total, minimum=1):
    yield ()
    for first in range(minimum, total + 1):
        for rest in _partitions_up_to(total - first, first):
            yield (first,) + rest


STRATUM_ORDER_SEED = 11  # the first of the 20 sampler seeds


def check_stratum_order():
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
        drawn = sample_filtration_subset(classical, tight, seed=STRATUM_ORDER_SEED + s)
        if drawn is None:
            continue
        f, g, _ = drawn
        sampled += 1
        if not in_filtration_subset(f, g, loose):
            ok = False
            details["inclusion_failure_seed"] = STRATUM_ORDER_SEED + s
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


CLASSIFIER_PER_SCENARIO = 67  # constructions per scenario and support family
CLASSIFIER_SEED = 23


def check_point_classifier():
    """>= 200 constructed pairs per support family, across the three
    scenarios N(1), N(1,1) and N(2) (one simple root, two simple roots, a
    double root), drawn by the filtration-subset sampler.  Every side has at
    least 3 exponents and at most 2 conditions, so no draw has an empty
    side kernel."""
    families = [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2), (0, 1, 2, 3)),
        ((0, 1, 2, 4), (0, 1, 3, 4)),
    ]
    names = (("N(1)", "SmoothPoint"), ("N(1,1)", "NodeA1"), ("N(2)", "MultipleRoot"))
    scenarios = {parse_label(name): want for name, want in names}
    rng = random.Random(CLASSIFIER_SEED)
    mis = []
    counts = dict.fromkeys(scenarios.values(), 0)
    for fam in families:
        pair = _pair(*fam)
        done = dict.fromkeys(scenarios, 0)
        while min(done.values()) < CLASSIFIER_PER_SCENARIO:
            label = min(done, key=done.get)
            want = scenarios[label]
            f, g, pts = _draw_filtration_pair(pair, label, rng)
            if not _construction_is_clean(f, g, [(x, *orders) for x, orders in zip(pts, label.roots)]):
                continue
            done[label] += 1
            got = classify_point(f, g)
            tag = got.reason if got.tag == "Degenerate" else got.tag
            if tag != want:
                mis.append({"family": fam, "want": want, "got": got.to_json()})
            else:
                counts[want] += 1
    return not mis, {"classified": counts, "misclassifications": mis[:5]}


def _construction_is_clean(f, g, needed):
    """Independent sanity of a constructed pair: exactly the prescribed
    common roots, with exactly the prescribed orders, and nothing at the
    boundary."""
    forms = homogenize(f), homogenize(g)
    # a zero constant term is a root at 0, a zero top coefficient one at infinity
    if not all(form[0] and form[-1] for form in forms):
        return False
    pf, pg = (primitive(form) for form in forms)
    want_deg = sum(min(o1, o2) for _, o1, o2 in needed)
    if len(prs_gcd(pf, pg)) - 1 != want_deg:
        return False
    for r, o1, o2 in needed:
        if root_multiplicity(pf, r) != o1 or root_multiplicity(pg, r) != o2:
            return False
    return True


def check_projection_pipeline():
    ok = True
    details = {}
    a1 = Support3D(((0, 0, 0), (1, 0, 1)))
    a2 = Support3D(((0, 0, 0), (0, 1, 1), (1, 1, 2), (0, 0, 3)))
    out = project_supports(a1, a2)
    ok = ok and not out.verdict.part_i_generic_a1 and out.conditions.flag(5)
    details["negative_case"] = out.to_json()["projection_verdict"]

    a1b = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
    out2 = project_supports(a1b, a2)
    ok = ok and out2.verdict.part_i_generic_a1
    details["positive_case"] = out2.to_json()["projection_verdict"]

    # constructed common root at (x1, x2) = (1, 1), t = 1
    c1 = Support3D(((1, 0, 0), (0, 0, 2)))
    c2 = Support3D(((0, 1, 0), (0, 0, 1)))
    coeffs1 = {(1, 0, 0): -1 + 0j, (0, 0, 2): 1 + 0j}
    coeffs2 = {(0, 1, 0): -1 + 0j, (0, 0, 1): 1 + 0j}
    grid = GridConfig(rho_min=-0.4, rho_max=0.4, rho_steps=3, theta_steps=4)
    scan = grid_scan(c1, c2, coeffs1, coeffs2, grid)
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
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
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
