"""Frozen digests of the corank-strata scan's reports.

Each digest is the sha256 of the sorted-key JSON of a list of
`scan_corank_strata` reports, with the fields that do not describe the
result stripped (`wall_time_s`, `timings` and the package `version`).  A
one-byte change in any covered report changes its digest, so a change meant
to keep every report byte-identical is checked here, not by a one-off
script.  A change that alters a report on purpose updates the expected
digest below and says why in CHANGES.md.

The sets:
- the 1,013 symmetric supports of the corank2-dichotomy check (min 0,
  spread 2..10, at least three points) under N(1,1,1);
- every ordered pair of supports of spread <= 5 (min 0) under N(1,1) and
  N(1,1,1), plus every seventh pair under N(2,1) and N(2,1;1,1); the scan
  seed is the pair's index, so the generic witnesses are covered too.

Print the current digests by hand from the root of a checkout:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import itertools
import json

import pytest

from singres.strata import parse_label, scan_corank_strata
from singres.supports import SupportPair, SupportSet
from singres.verify import _normalized_supports

N_MAX = 12
STRIPPED = ("wall_time_s", "timings", "version")


def digest(reports):
    rows = [{key: val for key, val in rep.to_json().items() if key not in STRIPPED} for rep in reports]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def symmetric_scans():
    label = parse_label("N(1,1,1)")
    return [scan_corank_strata(SupportPair(b, b), label, N_MAX) for b in _normalized_supports(10)]


def pair_scans():
    supports = [SupportSet((0, *mid, top)) for top in range(1, 6) for r in range(top) for mid in itertools.combinations(range(1, top), r)]
    pairs = list(itertools.product(supports, repeat=2))
    reports = []
    for name, step in (("N(1,1)", 1), ("N(1,1,1)", 1), ("N(2,1)", 7), ("N(2,1;1,1)", 7)):
        label = parse_label(name)
        for i in range(0, len(pairs), step):
            reports.append(scan_corank_strata(SupportPair(*pairs[i]), label, N_MAX, seed=i))
    return reports


SETS = {"symmetric_1013": symmetric_scans, "pairs_spread_5": pair_scans}

EXPECTED = {  # (report count, digest)
    "symmetric_1013": (1013, "447c0d788eb8f9011c0ddf84eec4691277d407bdc254271eb5ee39bc9b78a752"),
    "pairs_spread_5": (2 * 961 + 2 * 138, "7df8993958c8d834e59e0069a08b436feb572bee3f077fc464a58e508ab09f53"),
}


@pytest.mark.parametrize("name", SETS)
def test_scan_digest(name):
    reports = SETS[name]()
    assert (len(reports), digest(reports)) == EXPECTED[name]


if __name__ == "__main__":
    for name, run in SETS.items():
        print(name, digest(run()))
