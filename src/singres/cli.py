"""Command-line interface.

Subcommands: classify, resultant, point-classify, germ-classify,
verify-paper, project3d, scan.  Outputs are machine-readable JSON (and CSV
for grid scans); every report embeds the run configuration.  Exit codes:
0 success, 1 verification-suite failure, 2 usage error, 3 degenerate input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__, verify
from .germs import PlaneGerm, classify_germ
from .laurent import LaurentPoly, classify_point
from .minors import minors_split_equivalence_scan
from .mpoly import DEFAULT_DET_BOUND, resultant_poly
from .project import (
    DegenerateProjectionError,
    GridConfig,
    Support3D,
    grid_scan,
    project_supports,
)
from .strata import estimate_codim, parse_label, scan_corank_strata
from .supports import SupportPair, SupportSet, check_conditions, classify

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


@dataclass
class RunConfig:
    seed: int = 0
    tolerance: float = 1e-8
    n_max: int = 12
    trials: int = 3
    det_bound: int = DEFAULT_DET_BOUND
    out: str | None = None

    def to_json(self):
        return asdict(self)


def _global_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--det-bound", type=int, default=DEFAULT_DET_BOUND, dest="det_bound")
    p.add_argument("--out", type=str, default=None, help="output file or directory")


def _config(args) -> RunConfig:
    return RunConfig(args.seed, args.tolerance, args.n_max, args.trials, args.det_bound, args.out)


def _parse_support(text: str) -> SupportSet:
    return SupportSet.of(*(int(t) for t in text.replace(" ", "").split(",") if t))


def _load_json_input(args):
    """The JSON object named by --input ('-' for stdin), or None without
    --input.  A missing or unreadable file, malformed JSON and JSON that is
    not an object raise ValueError."""
    if not getattr(args, "input", None):
        return None
    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"--input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"--input: malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"--input: expected a JSON object, got {type(data).__name__}")
    return data


def _require_input(args, command):
    data = _load_json_input(args)
    if data is None:
        raise ValueError(f"{command} requires --input")
    return data


def _pair_from_args(args) -> SupportPair:
    data = _load_json_input(args)
    if data is not None:
        return SupportPair.from_json(data)
    if args.b1 is None or args.b2 is None:
        raise ValueError("provide --input JSON or both --b1 and --b2")
    return SupportPair(_parse_support(args.b1), _parse_support(args.b2))


def _emit(payload, config: RunConfig, path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    target = path or config.out
    if target:
        p = Path(target)
        if p.is_dir():
            p = p / f"report-{int(time.time())}.json"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text + "\n")
        print(str(p))
    else:
        print(text)


def cmd_classify(args) -> int:
    config = _config(args)
    try:
        pair = _pair_from_args(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check_conditions(pair)
    verdict = classify(pair)
    _emit(
        {
            "pair": pair.to_json(),
            "conditions": report.to_json(),
            "verdict": verdict.to_json(),
            "config": config.to_json(),
        },
        config,
    )
    return EXIT_OK


def cmd_resultant(args) -> int:
    config = _config(args)
    try:
        pair = _pair_from_args(args)
        start = time.perf_counter()
        poly = resultant_poly(pair, bound=config.det_bound)
        det_s = time.perf_counter() - start
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(
        {
            "pair": pair.to_json(),
            "resultant": poly.to_json(),
            "pretty": poly.pretty(),
            "sylvester_size": pair.b1.spread + pair.b2.spread,
            "terms": len(poly.terms),
            "timings": {"det_s": det_s},
            "version": __version__,
            "config": config.to_json(),
        },
        config,
    )
    return EXIT_OK


def cmd_point_classify(args) -> int:
    config = _config(args)
    try:
        data = _require_input(args, "point-classify")
        f = LaurentPoly.from_json(data["f"])
        g = LaurentPoly.from_json(data["g"])
        result = classify_point(f, g, tol=config.tolerance)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"classification": result.to_json(), "config": config.to_json()}, config)
    return EXIT_OK


def cmd_germ_classify(args) -> int:
    config = _config(args)
    try:
        data = _require_input(args, "germ-classify")
        germ = PlaneGerm.from_json(data)
        result = classify_germ(germ)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"classification": result.to_json(), "config": config.to_json()}, config)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    config = _config(args)
    only = [args.only] if args.only else None
    try:
        results = verify.run_checks(only)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for r in results:
        print(r.line())
    payload = {
        "results": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
        "config": config.to_json(),
    }
    if config.out:
        _emit(payload, config)
    return EXIT_OK if payload["all_passed"] else EXIT_SUITE_FAILURE


def _parse_coeffs(mapping):
    out = {}
    for key, val in mapping.items():
        triple = tuple(int(t) for t in key.replace(" ", "").split(","))
        out[triple] = complex(val[0], val[1]) if isinstance(val, list) else complex(val)
    return out


def cmd_project3d(args) -> int:
    config = _config(args)
    try:
        data = _require_input(args, "project3d")
        a1 = Support3D.from_json(data["a1"])
        a2 = Support3D.from_json(data["a2"])
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = project_supports(a1, a2)
    except DegenerateProjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    if args.scan:
        grid = GridConfig(args.rho_min, args.rho_max, args.rho_steps, args.theta_steps)
        coeffs1 = _parse_coeffs(data["coeffs1"]) if "coeffs1" in data else None
        coeffs2 = _parse_coeffs(data["coeffs2"]) if "coeffs2" in data else None
        outcome.scan = grid_scan(
            a1, a2, coeffs1, coeffs2, grid, threshold=config.tolerance, seed=config.seed
        )
        if args.csv:
            csv_path = Path(args.csv)
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            csv_path.write_text("\n".join(outcome.scan.to_csv_lines()) + "\n")
    payload = outcome.to_json()
    payload["config"] = config.to_json()
    _emit(payload, config)
    return EXIT_OK


def cmd_scan(args) -> int:
    config = _config(args)
    started = time.strftime("%Y%m%dT%H%M%S")
    if args.kind == "minors":
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
            if min(sizes) < 1:
                raise ValueError(f"sizes must be positive, got {args.sizes!r}")
        except ValueError as exc:
            print(f"error: --sizes: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report = minors_split_equivalence_scan(config.n_max, args.spread, sizes)
        payload = {"kind": "minors", "report": report.to_json()}
    elif args.kind == "strata":
        try:
            pair = _pair_from_args(args)
            label = parse_label(args.label)
            report = scan_corank_strata(pair, label, config.n_max, seed=config.seed)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload = {"kind": "strata", "report": report.to_json()}
    elif args.kind == "codim":
        try:
            pair = _pair_from_args(args)
            label = parse_label(args.label)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        est = estimate_codim(
            pair, label, trials=config.trials, seed=config.seed, n_max=config.n_max
        )
        payload = {"kind": "codim", "report": est.to_json()}
    else:
        print(f"error: unknown scan kind {args.kind!r}", file=sys.stderr)
        return EXIT_USAGE
    payload["config"] = config.to_json()
    payload["started"] = started
    if config.out:
        out_dir = Path(config.out)
        if out_dir.suffix:  # looks like a file
            _emit(payload, config)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"scan-{args.kind}-{started}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(str(path))
    else:
        _emit(payload, config)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singres",
        description="singular-locus analysis of sparse resultants of support pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="condition report and verdict for a support pair")
    p.add_argument("--input", help="JSON file with {'b1': [...], 'b2': [...]} ('-' for stdin)")
    p.add_argument("--b1", help="comma-separated exponents")
    p.add_argument("--b2", help="comma-separated exponents")
    _global_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("resultant", help="symbolic sparse resultant of a support pair")
    p.add_argument("--input")
    p.add_argument("--b1")
    p.add_argument("--b2")
    _global_flags(p)
    p.set_defaults(fn=cmd_resultant)

    p = sub.add_parser("point-classify", help="classify a coefficient pair on the resultant")
    p.add_argument("--input", required=False)
    _global_flags(p)
    p.set_defaults(fn=cmd_point_classify)

    p = sub.add_parser("germ-classify", help="classify a plane-curve germ at the origin")
    p.add_argument("--input", required=False)
    _global_flags(p)
    p.set_defaults(fn=cmd_germ_classify)

    p = sub.add_parser("verify-paper", help="run the canned verification suite")
    p.add_argument("--only", help=f"run a single check; one of: {', '.join(verify.CHECK_IDS)}")
    _global_flags(p)
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("project3d", help="project 3d supports and scan the plane curve")
    p.add_argument("--input", help="JSON with a1, a2 (and optional coeffs1/coeffs2)")
    p.add_argument("--scan", action="store_true", help="evaluate |R| over the torus grid")
    p.add_argument("--csv", help="CSV output path for the grid scan")
    p.add_argument("--rho-min", type=float, default=-0.5, dest="rho_min")
    p.add_argument("--rho-max", type=float, default=0.5, dest="rho_max")
    p.add_argument("--rho-steps", type=int, default=5, dest="rho_steps")
    p.add_argument("--theta-steps", type=int, default=8, dest="theta_steps")
    _global_flags(p)
    p.set_defaults(fn=cmd_project3d)

    p = sub.add_parser("scan", help="exhaustive scans: minors, strata, codim")
    p.add_argument("kind", choices=("minors", "strata", "codim"))
    p.add_argument("--input")
    p.add_argument("--b1")
    p.add_argument("--b2")
    p.add_argument("--label", default="N(1,1,1)")
    p.add_argument("--spread", type=int, default=8)
    p.add_argument("--sizes", default="3,4")
    _global_flags(p)
    p.set_defaults(fn=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
