"""Cross-validation of the guarantee table against the codimension estimator.

For pairs where a subset's blocking conditions are absent, no probed
component may realize a dimension above ambient minus the expected
codimension; where condition (1) holds, the known deficient components must
be found.  This ties the combinatorial verdicts to the sampling machinery.
"""

from singres.germs import classify_germ, slice_germ
from singres.mpoly import resultant_poly
from singres.strata import StratumLabel, estimate_codim, parse_label
from singres.supports import GUARANTEE_TABLE, SupportPair, SupportSet, check_conditions


def pair(b1, b2):
    return SupportPair(SupportSet(sorted({*b1})), SupportSet(sorted({*b2})))


PAIRS = [
    pair((0, 1, 2, 3), (0, 1, 2, 3)),
    pair((0, 1, 3), (0, 3)),
    pair((0, 2, 3, 5), (0, 1, 4, 5)),
    pair((0, 1, 4), (0, 2, 3)),
]

LABELS = {
    "N(1)": parse_label("N(1)"),
    "N(1,1)": parse_label("N(1,1)"),
    "N_1^0": parse_label("N_1^0"),
    "N_0^1": parse_label("N_0^1"),
    "N(2)": parse_label("N(2)"),
    "N(1,1,1)": parse_label("N(1,1,1)"),
    "N_0^1(1)": parse_label("N_0^1(1)"),
    "N_1^0(1)": parse_label("N_1^0(1)"),
    "N(2,1;1,1)": parse_label("N(2,1;1,1)"),
    "N(1,1;2,1)": parse_label("N(1,1;2,1)"),
}


def expected_codim(label: StratumLabel) -> int:
    """The expected codimension of a filtration subset, the oracle for the
    codim column of GUARANTEE_TABLE: 2*j0 + 2*jinf + sum over roots of
    (j1 + j2 - 1)."""
    return 2 * label.j0 + 2 * label.jinf + sum(j1 + j2 - 1 for j1, j2 in label.roots)


def test_codim_column_is_the_label_formula():
    assert [(name, expected_codim(LABELS[name])) for name, _, _ in GUARANTEE_TABLE] == [
        (name, codim) for name, codim, _ in GUARANTEE_TABLE
    ]


def test_guaranteed_subsets_never_exceed_expected_dimension():
    for p in PAIRS:
        report = check_conditions(p)
        for name, want_codim, breaking in GUARANTEE_TABLE:
            if any(report.flag(i) for i in breaking):
                continue  # guarantee withdrawn; nothing to check
            est = estimate_codim(p, LABELS[name], seed=17, n_max=8)
            assert est.estimate is None or est.estimate >= want_codim, (
                p.to_json(),
                name,
                est.to_json(),
            )


def test_condition1_deficiency_is_detected():
    # shared sublattice: the unity component drops N(1,1) below codim 2
    est = estimate_codim(pair((0, 2, 4), (0, 2, 4)), parse_label("N(1,1)"), seed=17)
    assert est.estimate == 1
    est3 = estimate_codim(pair((0, 3, 6, 9), (0, 3, 6)), parse_label("N(1,1)"), seed=17)
    assert est3.estimate == 1


def test_vacuously_empty_subset():
    # a two-element support cannot vanish to second order at a nonzero point
    est = estimate_codim(pair((0, 1, 3), (0, 3)), parse_label("N(2)"), seed=17)
    assert est.estimate is None


def test_identically_zero_side_component_branches():
    """The coefficient plane where one polynomial vanishes identically meets
    the resultant in a multi-branch transversal germ: slicing the closed-form
    resultant at generic coefficients of the other side gives one branch per
    unit of its spread."""
    r = resultant_poly(pair((0, 1, 3), (0, 3)))
    point = {"f3": 2, "f1": 3, "f0": 5, "g3": 0, "g0": 0}
    germ = slice_germ(r, point, {"g3": 1}, {"g0": 1})
    out = classify_germ(germ)
    assert (out.tag, out.m) == ("OrdinaryMultiple", 3)
