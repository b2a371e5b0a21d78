"""Frozen digests of the corank-strata scan's reports, of the
`verify-paper` results and of CLI output.

A report digest is the sha256 of the sorted-key JSON of a list of
`scan_corank_strata` reports or `verify` check results, with the fields
that do not describe the result stripped (`wall_time_s`, `timings`,
`elapsed_s` and the package `version`).  A CLI digest is the sha256 of
the stdout bytes of a list of `singres` runs, or, for `project3d --scan`,
of the scan's decisions alone.  A one-byte
change in any covered report changes its digest, so a change meant to keep
every report byte-identical is checked here, not by a one-off script.  A
change that alters a report on purpose updates the expected digest below
and says why in CHANGES.md.

The sets:
- the 1,013 symmetric supports of the corank2-dichotomy check (min 0,
  spread 2..10, at least three points) under N(1,1,1);
- every ordered pair of supports of spread <= 5 (min 0) under N(1,1) and
  N(1,1,1), plus every seventh pair under N(2,1) and N(2,1;1,1); the scan
  seed is the pair's index, so the generic witnesses are covered too;
- every seventh such pair under N(1,1;2,1), seeded alike;
- every seventh such pair under N(2), N(3), N(2,2), N(2,2;1,1) and
  N(2,1,1), seeded alike: labels with no closed-form rank, whose sides are
  ranked tuple by tuple;
- the `estimate_codim` reports of every seventh such pair under N(2,1),
  N(2,1;1,1) and N(1,1;2,1) at seed 0, with `timings` and `version`
  stripped;
- the `estimate_codim` reports of every seventh such pair under the 14
  labels of CODIM_LABELS (no roots, one to three roots, multiplicities and
  boundary orders) at seed 0, stripped alike;
- the stdout of `classify` over every ordered pair of supports of
  spread 1..4 (min 0);
- the stdout of `germ-classify` and `point-classify` on fixed inputs
  (GERM_INPUTS, POINT_INPUTS);
- the stdout of `resultant --det-bound 100`, with `timings` and `version`
  stripped, over the RESULTANT_SHAPES, the anchor ((0,1,40),(0,40)) and
  every ordered pair of supports of spread 1..3 (min 0);
- the verdict, cell count and near-zero cell indices of 60
  seeded `project3d --scan` requests on the default grid.  Their |R|
  values are left out: a change of evaluation order moves them in the
  last digits;
- the ten `verify-paper` results (`verify.run_checks()`), with their
  `elapsed_s` stripped;
- the `estimate_codim` reports of the six `check_codim_estimates` cases
  (`verify.CODIM_CASES`) at seeds 0..39, with `timings` and `version`
  stripped;
- the scan reports of the benchmark's strata-scan request lists at seeds
  1, 2, 3, 7 and 31 (`perfbench/workloads.py`, imported read-only), its
  minor and unity sweeps left out.

Print the current digests by hand from the root of a checkout:

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from singres import cli
from singres.strata import estimate_codim, parse_label, scan_corank_strata
from singres.supports import SupportPair, SupportSet
from singres.verify import CODIM_CASES, _normalized_supports, run_checks

N_MAX = 12
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
STRATA_SCAN_SEEDS = (1, 2, 3, 7, 31)
STRIPPED = ("wall_time_s", "timings", "elapsed_s", "version")


def digest(reports):
    rows = [{key: val for key, val in rep.to_json().items() if key not in STRIPPED} for rep in reports]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def symmetric_scans():
    label = parse_label("N(1,1,1)")
    return [scan_corank_strata(SupportPair(b, b), label, N_MAX) for b in _normalized_supports(10)]


def _supports(max_spread):
    """Every support of spread 1..max_spread with min 0."""
    return [SupportSet((0, *mid, top)) for top in range(1, max_spread + 1) for r in range(top) for mid in itertools.combinations(range(1, top), r)]


def _pairs():
    """Every ordered pair of supports of spread 1..5 with min 0."""
    return [SupportPair(*p) for p in itertools.product(_supports(5), repeat=2)]


def _pair_scans(labels):
    """The scans of every step-th pair of `_pairs` under each (name, step)
    of `labels`, seeded by the pair's index."""
    pairs = _pairs()
    reports = []
    for name, step in labels:
        label = parse_label(name)
        for i in range(0, len(pairs), step):
            reports.append(scan_corank_strata(pairs[i], label, N_MAX, seed=i))
    return reports


def pair_scans():
    return _pair_scans((("N(1,1)", 1), ("N(1,1,1)", 1), ("N(2,1)", 7), ("N(2,1;1,1)", 7)))


def mixed_pair_scans():
    return _pair_scans((("N(1,1;2,1)", 7),))


def no_closed_form_scans():
    return _pair_scans(tuple((name, 7) for name in ("N(2)", "N(3)", "N(2,2)", "N(2,2;1,1)", "N(2,1,1)")))


CODIM_LABELS = (
    "N", "N(1)", "N(1,1)", "N(2)", "N(3)", "N(1,1,1)", "N(2,2)", "N(2,2;1,1)",
    "N_1^0", "N_0^1(1)", "N_1^0(1)", "N_1(1,1)", "N_1^1(1,1,1)", "N^1(1,1,1)",
)


def label_codim_reports():
    pairs = _pairs()[::7]
    return [estimate_codim(p, parse_label(name), seed=0) for name in CODIM_LABELS for p in pairs]


def multiplicity_codim_reports():
    pairs = _pairs()[::7]
    return [estimate_codim(p, parse_label(name), seed=0) for name in ("N(2,1)", "N(2,1;1,1)", "N(1,1;2,1)") for p in pairs]


def codim_reports():
    return [
        estimate_codim(SupportPair(SupportSet(b1), SupportSet(b2)), parse_label(name), seed=seed)
        for seed in range(40)
        for (b1, b2), name, _ in CODIM_CASES
    ]


def strata_scan_reports():
    """The scans of the strata-scan request lists of STRATA_SCAN_SEEDS, in
    request order."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import StrataScan
    finally:
        sys.path.remove(PERFBENCH)
    return [
        scan_corank_strata(pair, label, n_max, seed=seed)
        for run in STRATA_SCAN_SEEDS
        for req in StrataScan().requests(run)
        if req.kind in ("symmetric", "asymmetric", "multiplicity")
        for pair, label, n_max, seed in (req.args,)
    ]


def _stdout(argv, stdin=None):
    """The stdout of `singres argv` run in process, `stdin` (JSON) on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(stdin))
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _bytes_digest(outputs):
    return hashlib.sha256("".join(outputs).encode()).hexdigest()


def classify_outputs():
    csv = [",".join(map(str, b.elements)) for b in _supports(4)]
    return [_stdout(["classify", "--b1", b1, "--b2", b2]) for b1, b2 in itertools.product(csv, repeat=2)]


# fifteen resultant shapes of Sylvester size 5..40, and the anchor
RESULTANT_SHAPES = (
    ((0, 1, 3), (0, 2)), ((0, 2, 5), (0, 3)), ((0, 1, 4), (0, 2, 5)),
    ((0, 3, 6), (0, 1, 4)), ((0, 1, 5), (0, 3, 5)), ((0, 1, 2), (0, 1, 8)),
    ((0, 3, 7), (0, 3)), ((0, 2, 7), (0, 1, 8)), ((0, 4, 9), (0, 9)),
    ((0, 5, 10), (0, 10)), ((0, 1, 12), (0, 12)), ((0, 5, 13), (0, 13)),
    ((0, 7, 14), (0, 14)), ((0, 11, 16), (0, 16)), ((0, 3, 20), (0, 20)),
    ((0, 1, 40), (0, 40)),
)


def resultant_outputs():
    """The stdout of `resultant --det-bound 100`, `timings` and `version`
    stripped, over RESULTANT_SHAPES and every ordered pair of supports of
    spread 1..3."""
    small = [b.elements for b in _supports(3)]
    outputs = []
    for b1, b2 in (*RESULTANT_SHAPES, *itertools.product(small, repeat=2)):
        out = _stdout(["resultant", "--b1", ",".join(map(str, b1)), "--b2", ",".join(map(str, b2)), "--det-bound", "100"])
        outputs.append(json.dumps({k: v for k, v in json.loads(out).items() if k not in STRIPPED}, sort_keys=True) + "\n")
    return outputs


def _laurent(support, coeffs):
    return {"support": list(support), "coeffs": dict(zip(map(str, support), coeffs))}


GERM_INPUTS = (
    {"terms": [{"exp": [1, 1], "coef": "1"}]},
    {"terms": [{"exp": [3, 0], "coef": "1"}, {"exp": [0, 3], "coef": "-1"}]},
    {"terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [3, 0], "coef": "-1"}]},
    {"terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [1, 1], "coef": "-2"}, {"exp": [2, 0], "coef": "1"}, {"exp": [3, 0], "coef": "-1"}]},
    {"terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [2, 0], "coef": "3"}]},
    {"terms": [{"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1"}]},
    {"terms": [{"exp": [2, 0], "coef": "1/2"}, {"exp": [0, 2], "coef": "-3/7"}, {"exp": [3, 1], "coef": "5"}]},
    {"terms": [{"exp": [0, 3], "coef": "2"}, {"exp": [5, 0], "coef": "-1"}, {"exp": [2, 2], "coef": "1"}]},
    # a repeated tangent on the s axis: s^2 + t^3
    {"terms": [{"exp": [2, 0], "coef": "1"}, {"exp": [0, 3], "coef": "1"}]},
    # a non-monic rational repeated tangent, 4/3 (s - 3/2 t)^2 + s^3: the rotated branch
    {"terms": [{"exp": [2, 0], "coef": "4/3"}, {"exp": [1, 1], "coef": "-4"}, {"exp": [0, 2], "coef": "3"}, {"exp": [3, 0], "coef": "1"}]},
)
POINT_INPUTS = (
    {"f": _laurent((0, 1, 2), ("2", "-3", "1")), "g": _laurent((0, 1, 2), ("3", "-4", "1"))},
    {"f": _laurent((0, 1, 2), ("2", "-3", "1")), "g": _laurent((0, 1, 2), ("5", "-7", "2"))},
    {"f": _laurent((0, 1), ("1", "-1")), "g": _laurent((0, 1), ("2", "-2"))},
    {"f": _laurent((0, 1, 2, 3), ("-6", "11", "-6", "1")), "g": _laurent((0, 1, 2, 3), ("-6", "5", "2", "-1"))},
    {"f": _laurent((0, 2, 3), ("4", "-5", "1")), "g": _laurent((0, 1, 3), ("1", "3/2", "-1/2"))},
    {"f": _laurent((0, 1, 2), ("1", "-2", "1")), "g": _laurent((0, 1, 2), ("1", "-3", "2"))},
    # irrational common roots: (x^2 - 2)(x - 3) against (x^2 - 2)(x + 5), a node
    # at two conjugate roots, and against (x^2 - 2)^2, an order class (1, 2)
    {"f": _laurent((0, 1, 2, 3), ("6", "-2", "-3", "1")), "g": _laurent((0, 1, 2, 3), ("-10", "-2", "5", "1"))},
    {"f": _laurent((0, 1, 2, 3), ("6", "-2", "-3", "1")), "g": _laurent((0, 2, 4), ("4", "-4", "1"))},
)


def germ_outputs():
    return [_stdout(["germ-classify", "--input", "-"], data) for data in GERM_INPUTS]


def point_outputs():
    return [_stdout(["point-classify", "--input", "-"], data) for data in POINT_INPUTS]


def _points3d(rng, count):
    while True:
        pts = sorted({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)) for _ in range(count)})
        if len({p[2] for p in pts}) >= 2:
            return [list(p) for p in pts]


def project3d_decisions():
    rng = random.Random("project3d")
    rows = []
    for i in range(60):
        data = {"a1": _points3d(rng, 2 + i % 3), "a2": _points3d(rng, 2 + (i + 1) % 3)}
        report = json.loads(_stdout(["project3d", "--input", "-", "--scan", "--seed", str(rng.randrange(2**31))], data))
        scan = report["curve_scan"]
        row = [report["projection_verdict"], scan["cells"], [c["index"] for c in scan["near_zero_cells"]]]
        rows.append(json.dumps(row) + "\n")
    return rows


SETS = {
    "symmetric_1013": symmetric_scans,
    "pairs_spread_5": pair_scans,
    "pairs_spread_5_mixed": mixed_pair_scans,
    "pairs_spread_5_no_closed_form": no_closed_form_scans,
    "verify_paper": run_checks,
    "codim_verify_cases": codim_reports,
    "codim_multiplicity_pairs": multiplicity_codim_reports,
    "codim_label_pairs": label_codim_reports,
    "strata_scan_seeds": strata_scan_reports,
}
# each set is built once per process: `test_strata.py` reads the same reports
SETS = {name: functools.cache(build) for name, build in SETS.items()}
CLI_SETS = {
    "classify_spread_4": classify_outputs,
    "germ_classify": germ_outputs,
    "point_classify": point_outputs,
    "project3d_decisions": project3d_decisions,
    "resultant": resultant_outputs,
}

EXPECTED = {  # (report count, digest)
    "symmetric_1013": (1013, "cec0c96586e26a2b700c5884a2445ff3c6a73996558cb7818487684447141f54"),
    "pairs_spread_5": (2 * 961 + 2 * 138, "566e205f62127a96105836a291da8d22b6dca59caed9dfb3eac282438aae34cb"),
    "pairs_spread_5_mixed": (138, "ba74478855e9b24864b14a6d681f647420aead93945a421cbd4b90aaf2ac055f"),
    "verify_paper": (10, "a34336cf6047b391bedb6ad9516879981193e3300823a1e8c22b2b1bd8f86a36"),
    "codim_verify_cases": (6 * 40, "52abfbca14abad37d1f095d2ac93227f0c8dbfda30658518baa6bdec1ecc8eb6"),
    "codim_multiplicity_pairs": (3 * 138, "7f7bb25bfd371cdff43183893390962bac7b514fd7dd6979add0169c4ff9912c"),
    "pairs_spread_5_no_closed_form": (5 * 138, "4bf6f76bd0cb2fdd8c78ed3dac3b95c0c17e3c407092586bd22218f71ff40d06"),
    "codim_label_pairs": (14 * 138, "2e8cadd2777a548a0b11365d75626d6956abcbf89007e86be9299b436f06ab0b"),
    "strata_scan_seeds": (2250, "0e4c898f972d13ac7e2a776bad4edff32d30d3eb7ff6d8a34316e90308d2c17f"),
}


CLI_EXPECTED = {  # (output count, digest)
    "classify_spread_4": (225, "c89ccfa4b2034badd1bf38ec8e9b811865c111d7be08d65a1a0ccb46718fceae"),
    "germ_classify": (len(GERM_INPUTS), "c79bd65b5b0af73dcf80bcff850d836683884a6c1644eddd321e40e4c8c65673"),
    "point_classify": (len(POINT_INPUTS), "c533f30d42e86aca48ed7fa4d778814c956fb416b81a9d5014856e61e4d0e165"),
    "project3d_decisions": (60, "ae68823b40d7cc65de7355f21d3a2f3763fecabe02759f4400af06559f9d6d17"),
    "resultant": (16 + 49, "1c2d39fa15e544af57f5ac10281c200bedbbd79ed2a54db8a15d922d5ec9a6a8"),
}


@pytest.mark.parametrize("name", SETS)
def test_scan_digest(name):
    reports = SETS[name]()
    assert (len(reports), digest(reports)) == EXPECTED[name]


@pytest.mark.parametrize("name", CLI_SETS)
def test_cli_digest(name):
    outputs = CLI_SETS[name]()
    assert (len(outputs), _bytes_digest(outputs)) == CLI_EXPECTED[name]


if __name__ == "__main__":
    for name, run in SETS.items():
        print(name, digest(run()))
    for name, run in CLI_SETS.items():
        print(name, _bytes_digest(run()))
