"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 4 is asserted exactly as stated and is expected to FAIL: the
split-certificate equivalence is falsified by the order-2 row degeneracies
(see test_minors_split_equivalence_regression for the frozen truth and
/root/notes/decisions.md for the analysis), so a red result there is the
honest outcome rather than a bug in this artifact.
"""

import time

from singres import verify


def _report(name, result):
    print(result.line())
    return result


def _run(check_id, budget_s):
    start = time.perf_counter()
    result = verify.run_one(check_id)
    elapsed = time.perf_counter() - start
    _report(check_id, result)
    assert elapsed < budget_s, f"{check_id} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    return result


def test_criterion_01_closed_form_resultant():
    result = _run("closed-form-resultant", 1.0)
    assert result.passed


def test_criterion_02_degree_one_resultant():
    result = _run("degree-one-resultant", 1.0)
    assert result.passed


def test_criterion_03_germ_suite():
    result = _run("germ-classification", 5.0)
    assert result.passed


def test_criterion_04_minors_split_equivalence():
    """Asserted exactly as stated (zero counterexamples over n <= 10,
    B in [0, 8], |B| in {3, 4}); known to be unattainable.

    The minors condition is strictly weaker than the split certificate:
    for B = {0,2,4}, n = 6, (p, q) = (1, 3) the y-row of the power matrix is
    constant (y = -1 and every gap of B is even), so all minors vanish, but B
    meets three residue classes mod every k >= 3 dividing 6.  The companion
    regression below freezes what the exhaustive oracle actually certifies.
    """
    result = _run("minors-split-equivalence", 300.0)
    assert result.passed, (
        f"{result.details['counterexamples']} counterexamples "
        f"({result.details['order2_explained']} order-2 explained, "
        f"{result.details['unexplained']} unexplained); "
        "known statement defect - see test_minors_split_equivalence_regression "
        "and the ScanReport docstring"
    )


def test_minors_split_equivalence_regression():
    """Frozen oracle truth for the equivalence scan: every literal
    counterexample is an order-2 row degeneracy, the converse direction is
    clean, and the known witness reproduces.

    Census by the clauses of the rank lemma of minors._rank: each
    counterexample meets exactly one gap clause (x^g, y^g or (x/y)^g = 1, g
    the gap gcd of B), its root has order 2, and none meets the two-column
    clause."""
    import math
    from collections import Counter

    from cyclo_oracle import UnityPair, all_minors_vanish
    from singres.minors import minors_split_equivalence_scan, two_class_split
    from singres.supports import SupportSet, gap_gcd
    from test_minors import closed_form_rank

    rep = minors_split_equivalence_scan(10, 8, (3, 4))
    assert rep.unexplained == []
    assert rep.converse_counterexamples == []
    assert len(rep.order2_explained) == len(rep.forward_counterexamples) == 306
    census = Counter()
    for cex in rep.forward_counterexamples:
        n, elems, p, q = cex["n"], cex["B"], cex["p"], cex["q"]
        g = gap_gcd(SupportSet(tuple(elems)))
        met = [(name, r % n) for name, r in (("x", p), ("y", q), ("x/y", p - q)) if (r * g) % n == 0]
        assert len(met) == 1, cex
        name, r = met[0]
        assert n // math.gcd(r, n) == 2, cex
        assert len({(p * b % n, q * b % n) for b in elems}) > 2, cex
        census[name] += 1
    assert census == {"x": 102, "y": 102, "x/y": 102}
    witness = SupportSet((0, 2, 4))
    assert all_minors_vanish(witness, UnityPair(6, 1, 3))
    assert closed_form_rank(witness, 6, [1], [3]).tolist() == [2]
    assert two_class_split(witness, 6) is None


def test_criterion_05_unity_minor_explanations():
    result = _run("unity-minor-explanations", 300.0)
    assert result.passed, (result.details["unexplained"], result.details["closed_form_only"])


def test_criterion_06_corank2_dichotomy():
    result = _run("corank2-dichotomy", 120.0)
    assert result.passed, result.details["failures"]


def test_criterion_07_codim_estimates():
    start = time.perf_counter()
    result = verify.run_one("codim-estimates")
    _report("codim-estimates", result)
    assert result.passed, result.details
    # every case individually well under a minute; the whole set is too
    assert time.perf_counter() - start < 6 * 60


def test_criterion_08_stratum_order():
    result = _run("stratum-order", 60.0)
    assert result.passed, result.details


def test_criterion_09_point_classifier():
    result = _run("point-classifier", 60.0)
    assert result.passed, result.details["misclassifications"]


def test_criterion_10_projection_pipeline():
    result = _run("projection-pipeline", 60.0)
    assert result.passed, result.details
