"""Command-line interface.

Subcommands: classify, resultant, point-classify, germ-classify,
verify-paper, project3d, scan.  Outputs are machine-readable JSON (and CSV
for grid scans); every report embeds the flags its subcommand read.  A
report holds dicts with str keys, lists, tuples, strs, ints, finite
floats, bools and None, and nothing else.  Its bytes are those of
`json.dumps(report, indent=2, sort_keys=True, allow_nan=False)` plus a
newline, written by this module's own writer (`_emit`), which refuses any
other type; no other module writes JSON.  Likewise this module alone reads
input (--input, --b1, --b2): the library layers take constructed objects.
Exit codes: 0 success, 1 verification-suite failure, 2 usage error,
3 degenerate projection.  A subcommand refuses its input by raising; `main`
alone maps the exception to its exit code (DegenerateProjectionError 3,
any other ValueError or KeyError 2) and prints one `error: <message>` line
on stderr, with no traceback.

`build_parser` declares every flag, and argparse writes all help, usage
lines and refusals.  `main` reads a well-formed argv itself, off the table
that `_flag` writes as it declares each flag (`_read_argv`): the command
words, then exact flags, each value not starting with '-'.  Any other argv
(-h, `--flag=value`, an abbreviation, `--b1=-3,1,2` and every refusal) goes
to argparse, and both give the same Namespace.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import __version__, verify
from .germs import classify_germ
from .laurent import LaurentPoly, classify_point
from .minors import minors_split_equivalence_scan
from .mpoly import DEFAULT_DET_BOUND, MPoly, resultant_poly
from .project import (
    DEFAULT_TOLERANCE,
    DegenerateProjectionError,
    GridConfig,
    Support3D,
    grid_scan,
    project_supports,
)
from .strata import DEFAULT_N_MAX, estimate_codim, parse_label, scan_corank_strata
from .supports import SupportPair, SupportSet, _exponents, check_conditions, classify

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


_LONG_EXPONENT = re.compile(r"[eE][+-]?0*[0-9]{5}[0-9]*\s*$")

# The flags a report echoes in its `config`: dest -> (option, type, default,
# help).  A subcommand registers only those it reads.
SHARED_FLAGS = {
    "seed": ("--seed", int, 0, "seed of the random draws"),
    "tolerance": ("--tolerance", float, DEFAULT_TOLERANCE, "numeric zero tolerance"),
    "n_max": ("--n-max", int, DEFAULT_N_MAX, "largest root-of-unity order scanned"),
    "det_bound": ("--det-bound", int, DEFAULT_DET_BOUND, "largest Sylvester size d1 + d2"),
    "out": ("--out", str, None, "report file, or directory of timestamped reports"),
}


def _integers(text):
    """The ints of integer text: decimal integers separated by commas, blank
    items skipped ('0, 1,3,' reads as (0, 1, 3)).  Every --b1, --b2 and
    --sizes value and every --input map key is integer text; a key of one
    integer is read by `int`."""
    return tuple(map(int, filter(str.strip, text.split(","))))


def _exact(value):
    """The exact scalar of an --input coefficient: an integer, "p/q" or
    decimal string, or a JSON number (a float is its binary value), as an
    int for an integer string or JSON integer and else as a Fraction.  Any
    other type (bool too), a string that is no number, a float that is not
    finite, and a decimal exponent of five digits or more (whose power of
    ten would be built in full) raise ValueError."""
    cls = value.__class__
    if cls is int:
        return value
    if cls is str:
        try:
            return int(value)
        except ValueError:
            if _LONG_EXPONENT.search(value):
                raise ValueError(f"decimal exponent of five digits or more: {value!r}") from None
    elif cls is not float or not math.isfinite(value):
        raise ValueError(f"not an exact rational: {value!r}; give an integer, a 'p/q' or decimal string, or a JSON number")
    return Fraction(value)


def _complex(value):
    """The complex scalar of an --input coefficient, [re, im] or a number;
    a bool, alone or as re or im, and a value that is not finite raise
    ValueError."""
    parts = value if value.__class__ is list and len(value) == 2 else [value]
    if bool in map(type, parts):
        raise ValueError(f"not a number: {value!r}")
    z = complex(*parts)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"not finite: {value!r}")
    return z


def _coefficient_map(coeffs, where, points, point_of, scalar):
    """The --input map `coeffs` as {point: coefficient}: each key, read by
    `point_of`, names a point of `points` once, and each value is what
    `scalar` reads.  A bad key or value raises ValueError naming it."""
    out = {}
    for key, value in coeffs.items():
        try:
            point = point_of(key)
            if point not in points:
                raise ValueError("not a point of the support")
            if point in out:
                raise ValueError(f"point {point} is given twice")
            out[point] = scalar(value)
        except ValueError as exc:
            raise ValueError(f"--input: {where}[{key!r}]: {exc}") from exc
    return out


def _read_input(args, read):
    """read(data) of the JSON object that --input names ('-' for stdin), or
    None without --input.  An unreadable file, bytes that are not text,
    malformed JSON, JSON that is no object, a KeyError of `read` (a missing
    field) and a TypeError or AttributeError of `read` (a wrongly typed
    field) raise ValueError."""
    if not args.input:
        return None
    try:
        data = json.load(sys.stdin) if args.input == "-" else json.loads(Path(args.input).read_text())
    except OSError as exc:
        raise ValueError(f"--input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"--input: not text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"--input: malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"--input: expected a JSON object, got {type(data).__name__}")
    try:
        return read(data)
    except KeyError as exc:
        raise ValueError(f"--input: missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"--input: wrongly typed field: {exc}") from exc


def _support(where, exponents):
    """SupportSet(exponents); its refusal names the flag or field `where`."""
    try:
        return SupportSet(exponents)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _pair(data) -> SupportPair:
    sides = _support("--input: b1", data["b1"]), _support("--input: b2", data["b2"])
    try:
        return SupportPair(*sides)
    except ValueError as exc:  # a side of one exponent
        raise ValueError(f"--input: b{1 + (len(sides[0]) >= 2)}: {exc}") from exc


def _pair_from_args(args) -> SupportPair:
    """The pair of --input, or of --b1 and --b2 (integer text in any order,
    no exponent twice); a refusal names the field or flag it reads."""
    pair = _read_input(args, _pair)
    if pair is not None:
        return pair
    if args.b1 is None or args.b2 is None:
        raise ValueError("provide --input JSON or both --b1 and --b2")
    supports = []
    for flag, text in (("--b1", args.b1), ("--b2", args.b2)):
        try:
            exps = sorted(_integers(text))
            twice = [a for a, b in zip(exps, exps[1:]) if a == b]
            if twice:
                raise ValueError(f"exponent {twice[0]} is given twice")
            supports.append(SupportSet(tuple(exps)))
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from exc
    try:
        return SupportPair(*supports)
    except ValueError as exc:  # a side of one exponent
        raise ValueError(f"--b{1 + (len(supports[0]) >= 2)}: {exc}") from exc


def _laurent(poly, name) -> LaurentPoly:
    try:
        support = SupportSet(poly["support"])
    except ValueError as exc:
        raise ValueError(f"--input: {name}.support: {exc}") from exc
    return LaurentPoly(support, _coefficient_map(poly["coeffs"], f"{name}.coeffs", support.elements, int, _exact))


def _germ(data) -> MPoly:
    """The germ of {"terms": [...]}; each exp is a pair of nonnegative
    integers, given once."""
    terms = {}
    for i, term in enumerate(data["terms"]):
        try:
            exp = _exponents(term["exp"])
            if len(exp) != 2 or min(exp) < 0:
                raise ValueError(f"germ exponents must be pairs of nonnegative integers, got {term['exp']!r}")
        except ValueError as exc:
            raise ValueError(f"--input: terms[{i}].exp: {exc}") from exc
        if exp in terms:
            raise ValueError(f"--input: terms: exponent {exp} is given twice")
        try:
            terms[exp] = _exact(term["coef"])
        except ValueError as exc:
            raise ValueError(f"--input: terms[{i}].coef: {exc}") from exc
    return MPoly(("s", "t"), terms)


def _spatial(data, scan):
    """(a1, a2, maps): for a scan [coeffs1, coeffs2], None where absent."""
    a = []
    for name in ("a1", "a2"):
        try:
            a.append(Support3D(data[name]))
        except ValueError as exc:
            raise ValueError(f"--input: {name}: {exc}") from exc
    names = ("coeffs1", "coeffs2") if scan else ()
    return *a, [_coefficient_map(data[n], n, s.points, _integers, _complex) if n in data else None for n, s in zip(names, a)]


def _require_finite(args, *dests):
    """Refuse (ValueError) a float flag among `dests` that is not finite, and
    a negative --tolerance among them."""
    for dest in dests:
        value = getattr(args, dest)
        if not math.isfinite(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {value}")
    if "tolerance" in dests and args.tolerance < 0:
        raise ValueError(f"--tolerance must be nonnegative, got {args.tolerance}")


def _float_text(value):
    """The JSON text of a float: its repr; NaN and the infinities raise
    ValueError, as `json.dumps(..., allow_nan=False)` does."""
    if value != value or value == math.inf or value == -math.inf:
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# The JSON text of a value whose type is exactly one of these.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, indent):
    """`json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`, byte
    for byte, for a value nested at the level whose newline and indentation
    is `indent` (a bare newline at the top).

    It writes the types reports hold: exactly dict with str keys, list,
    tuple, and the `_SCALAR_TEXT` types.  Any other type, a subclass of
    one of these included, raises the standard library's TypeError, and a
    key that is not a str raises TypeError too; a NaN or an infinity
    raises ValueError.  Each container is one join of its items' texts."""
    cls = value.__class__
    if cls is not dict and cls is not list and cls is not tuple:
        text = _SCALAR_TEXT.get(cls)
        if text is None:
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
        return text(value)
    opening, closing = "{}" if cls is dict else "[]"
    if not value:
        return opening + closing
    inner = indent + "  "
    get = _SCALAR_TEXT.get
    if cls is dict:
        parts = [
            f"{_encode_str(key)}: {_json_text(item, inner) if (text := get(item.__class__)) is None else text(item)}"
            for key, item in sorted(value.items())
        ]
    else:
        parts = [_json_text(item, inner) if (text := get(item.__class__)) is None else text(item) for item in value]
    return f"{opening}{inner}{f',{inner}'.join(parts)}{indent}{closing}"


def _emit(payload, args):
    """Print the report, with its `config`, or write it to --out.  A report
    holding a NaN or an infinity raises ValueError: it would not be JSON.
    A value of a type `_json_text` does not write raises TypeError.

    The text is that of `json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False)` plus a newline, byte for byte, written by
    `_json_text`: with an indent, Python 3.11's json module uses its
    pure-Python encoder, a generator per container, which cost a CLI
    request as much as some of the computations it reports.

    An existing directory or a suffix-less path is a directory, created if
    missing, that receives <command>[-<kind>]-<timestamp>.json; a report
    there never replaces an existing file, but takes the next free -<i>
    suffix.  Any other path is the report file itself."""
    payload["config"] = {dest: getattr(args, dest) for dest in args.shared}
    text = _json_text(payload, "\n") + "\n"
    if not args.out:
        print(text, end="")
        return
    out = Path(args.out)
    if out.suffix and not out.is_dir():
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(str(out))
        return
    out.mkdir(parents=True, exist_ok=True)
    stem = "-".join(filter(None, (args.command, getattr(args, "kind", None), time.strftime("%Y%m%dT%H%M%S"))))
    for i in itertools.count():
        path = out / f"{stem}{f'-{i}' if i else ''}.json"
        try:
            with open(path, "x") as fh:
                fh.write(text)
        except FileExistsError:
            continue
        print(str(path))
        return


def cmd_classify(args) -> int:
    pair = _pair_from_args(args)
    report = check_conditions(pair)
    verdict = classify(report)
    _emit({"pair": pair.to_json(), "conditions": report.to_json(), "verdict": verdict.to_json()}, args)
    return EXIT_OK


def cmd_resultant(args) -> int:
    if args.det_bound < 2:  # each support has two exponents at least, so d1 + d2 >= 2
        raise ValueError(f"--det-bound must be at least 2, got {args.det_bound}")
    pair = _pair_from_args(args)
    size = pair.b1.spread + pair.b2.spread
    if size > args.det_bound:
        raise ValueError(f"--det-bound: determinant too large: Sylvester size {size} > {args.det_bound}")
    start = time.perf_counter()
    poly = resultant_poly(pair, bound=args.det_bound)
    det_s = time.perf_counter() - start
    _emit(
        {
            "pair": pair.to_json(),
            "resultant": poly.to_json(),
            "pretty": poly.pretty(),
            "sylvester_size": size,
            "terms": len(poly.terms),
            "timings": {"det_s": det_s},
            "version": __version__,
        },
        args,
    )
    return EXIT_OK


def cmd_point_classify(args) -> int:
    f, g = _read_input(args, lambda data: [_laurent(data[name], name) for name in "fg"])
    _emit({"classification": classify_point(f, g).to_json()}, args)
    return EXIT_OK


def cmd_germ_classify(args) -> int:
    germ = _read_input(args, _germ)
    _emit({"classification": classify_germ(germ).to_json()}, args)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = verify.run_checks([args.only] if args.only else None)
    for r in results:
        print(r.line())
    payload = {"results": [r.to_json() for r in results], "all_passed": all(r.passed for r in results)}
    if args.out:
        _emit(payload, args)
    return EXIT_OK if payload["all_passed"] else EXIT_SUITE_FAILURE


def cmd_project3d(args) -> int:
    if args.csv and not args.scan:
        raise ValueError("--csv needs --scan")
    for flag, steps in (("--rho-steps", args.rho_steps), ("--theta-steps", args.theta_steps)):
        if steps < 1:
            raise ValueError(f"{flag} must be at least 1, got {steps}")
    _require_finite(args, "tolerance", "rho_min", "rho_max")
    a1, a2, coeffs = _read_input(args, lambda data: _spatial(data, args.scan))
    if coeffs.count(None) == 1:
        raise ValueError("--input: give both coeffs1 and coeffs2 or neither")
    outcome = project_supports(a1, a2)
    if args.scan:
        grid = GridConfig(args.rho_min, args.rho_max, args.rho_steps, args.theta_steps)
        outcome.scan = grid_scan(a1, a2, *coeffs, grid, threshold=args.tolerance, seed=args.seed)
        if args.csv:
            csv_path = Path(args.csv)
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            csv_path.write_text("\n".join(outcome.scan.to_csv_lines()) + "\n")
    _emit(outcome.to_json(), args)
    return EXIT_OK


def cmd_scan(args) -> int:
    started = time.strftime("%Y%m%dT%H%M%S")
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if args.kind == "minors":
        if args.spread < 0:
            raise ValueError(f"--spread must be nonnegative, got {args.spread}")
        try:
            sizes = _integers(args.sizes)
            if not sizes:
                raise ValueError("no size given")
            if min(sizes) < 1:
                raise ValueError(f"sizes must be positive, got {args.sizes!r}")
        except ValueError as exc:
            raise ValueError(f"--sizes: {exc}") from exc
        report = minors_split_equivalence_scan(args.n_max, args.spread, sizes)
    else:
        pair = _pair_from_args(args)
        try:
            label = parse_label(args.label)
        except ValueError as exc:
            raise ValueError(f"--label: {exc}") from exc
        if args.kind == "strata":
            report = scan_corank_strata(pair, label, args.n_max, seed=args.seed)
        else:  # codim; argparse admits no other kind
            report = estimate_codim(pair, label, seed=args.seed, n_max=args.n_max)
    _emit({"kind": args.kind, "report": report.to_json(), "started": started}, args)
    return EXIT_OK


def _flag(leaf, option, **kwargs):
    """Declare `option` on a leaf, (its parser, its table entry), and write
    it into the entry: (the Namespace before any flag, option -> (dest,
    convert), required dests), `convert` being the type (`str` if none) or
    None for store_true.  A flag that `_read_argv` could not read exactly
    as argparse does raises ValueError as it is declared: another action,
    an nargs, choices, a typed str default (argparse converts it on every
    parse) or a dest the Namespace already holds."""
    parser, (base, options, required) = leaf
    action = parser.add_argument(option, **kwargs)
    kind = kwargs.get("action", "store")
    plain = kind == "store" and action.nargs is None and action.choices is None
    exact = kind == "store_true" or plain and not (action.type and isinstance(action.default, str))
    if not exact or action.dest in base:
        raise ValueError(f"{parser.prog} {option}: a flag the argv reader cannot read as argparse does")
    base[action.dest] = action.default
    options.update(dict.fromkeys(action.option_strings, (action.dest, action.type or str if plain else None)))
    if action.required:
        required.add(action.dest)


def _subcommand(sub, name, fn, shared, help):
    """Add subcommand `name` below `sub` = (a subparsers action, the table
    of its words, the Namespace its parents wrote), run by `fn`, with the
    SHARED_FLAGS in `shared`; its parser rides along in the Namespace as
    `parser`.  Returns the leaf for `_flag`: (its parser, its table entry)."""
    action, words, base = sub
    p = action.add_parser(name, help=help)
    defaults = {"fn": fn, "shared": shared, "parser": p}
    p.set_defaults(**defaults)
    leaf = p, ({**base, action.dest: name, **defaults}, {}, set())
    words[name] = leaf[1]
    for dest in shared:
        option, type_, default, help_ = SHARED_FLAGS[dest]
        _flag(leaf, option, type=type_, default=default, dest=dest, help=help_)
    return leaf


def _pair_flags(leaf):
    """Declare the support-pair flags that `_pair_from_args` reads."""
    _flag(leaf, "--input", help="JSON file with {'b1': [...], 'b2': [...]} ('-' for stdin)")
    _flag(leaf, "--b1", help="comma-separated exponents of the first support")
    _flag(leaf, "--b2", help="comma-separated exponents of the second support")


def build_parser():
    """(the parser, its argv reader's table), from one pass that declares
    every flag through `_flag`.  The table maps a command word to the
    table of the words below it, or to a leaf's entry; see `_read_argv`."""
    parser = argparse.ArgumentParser(
        prog="singres",
        description="singular-locus analysis of sparse resultants of support pairs",
    )
    table = {}
    sub = parser.add_subparsers(dest="command", required=True), table, {}

    leaf = _subcommand(sub, "classify", cmd_classify, ("out",), "condition report and verdict for a support pair")
    _pair_flags(leaf)

    leaf = _subcommand(sub, "resultant", cmd_resultant, ("det_bound", "out"), "symbolic sparse resultant of a support pair")
    _pair_flags(leaf)

    leaf = _subcommand(sub, "point-classify", cmd_point_classify, ("out",), "classify a coefficient pair on the resultant")
    _flag(leaf, "--input", help="JSON file with Laurent polynomials {'f': {...}, 'g': {...}} ('-' for stdin)", required=True)

    leaf = _subcommand(sub, "germ-classify", cmd_germ_classify, ("out",), "classify a plane-curve germ at the origin")
    _flag(leaf, "--input", help="JSON file with {'terms': [{'exp': [i, j], 'coef': ...}]} ('-' for stdin)", required=True)

    leaf = _subcommand(sub, "verify-paper", cmd_verify_paper, ("out",), "run the canned verification suite")
    _flag(leaf, "--only", help=f"run a single check; one of: {', '.join(verify.CHECK_IDS)}")

    leaf = _subcommand(
        sub, "project3d", cmd_project3d, ("tolerance", "seed", "out"), "project 3d supports and scan the plane curve"
    )
    _flag(leaf, "--input", help="JSON with a1, a2 (and optional coeffs1/coeffs2)", required=True)
    _flag(leaf, "--scan", action="store_true", help="evaluate |R| over the torus grid")
    _flag(leaf, "--csv", help="CSV output path for the grid scan (needs --scan)")
    _flag(leaf, "--rho-min", type=float, default=GridConfig.rho_min, dest="rho_min", help="smallest log-modulus rho of the grid")
    _flag(leaf, "--rho-max", type=float, default=GridConfig.rho_max, dest="rho_max", help="largest log-modulus rho of the grid")
    _flag(leaf, "--rho-steps", type=int, default=GridConfig.rho_steps, dest="rho_steps", help="grid points in rho, at least 1")
    _flag(leaf, "--theta-steps", type=int, default=GridConfig.theta_steps, dest="theta_steps", help="grid points in theta, at least 1")

    scan = sub[0].add_parser("scan", help="exhaustive scans: minors, strata, codim")
    kinds = scan.add_subparsers(dest="kind", required=True), table.setdefault("scan", {}), {"command": "scan"}
    leaf = _subcommand(kinds, "minors", cmd_scan, ("n_max", "out"), "minors/split equivalence over small supports")
    _flag(leaf, "--spread", type=int, default=8, help="largest support exponent scanned (supports lie in 0..spread)")
    _flag(leaf, "--sizes", default="3,4", help="comma-separated support sizes scanned")
    for kind, help_ in (("strata", "corank strata of a support pair"), ("codim", "codimension estimate of a stratum")):
        leaf = _subcommand(kinds, kind, cmd_scan, ("n_max", "seed", "out"), help_)
        _pair_flags(leaf)
        _flag(leaf, "--label", default="N(1,1,1)", help="stratum label, such as N(1,1,1) or N_1^0(1)")

    return parser, table


def _read_argv(table, argv):
    """The Namespace that `parse_known_args(argv)` returns for a canonical
    argv, read off `build_parser`'s table; None for any other argv.

    A canonical argv is a leaf's command words, then exact options of that
    leaf, each dest at most once and every required one present: a
    store_true flag alone, any other option followed by a value that its
    type converts and that is '-' or does not start with '-'.  argparse
    reads such an argv the same way: after the command words every token
    goes to the leaf parser, an exact option string is that option, and
    such a value is no option."""
    node, i, n = table, 0, len(argv)
    while node.__class__ is dict:
        if i == n:
            return None
        node = node.get(argv[i])
        i += 1
    if node is None:
        return None
    base, options, required = node
    values = {}
    while i < n:
        spec = options.get(argv[i])
        if spec is None or spec[0] in values:
            return None
        dest, convert = spec
        i += 1
        if convert is None:
            values[dest] = True
            continue
        if i == n:
            return None
        text = argv[i]
        if text[:1] == "-" and text != "-":
            return None
        try:
            values[dest] = convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        i += 1
    if not required <= values.keys():
        return None
    args = argparse.Namespace()
    vars(args).update(base, **values)
    return args


@functools.cache
def _parser():
    """(the process's one parser, its argv reader's table), from one
    `build_parser()` on first use.

    `main` reads a canonical argv (see `_read_argv`) off the table, and
    hands every other argv to the parser: -h and --help, `--flag=value`,
    an abbreviated flag, a value starting with '-' (`--b1=-3,1,2` or
    `--rho-min -1`), an unknown, repeated or missing flag, a failed type
    conversion and an unknown command.  So argparse alone writes help,
    usage lines and refusals, and `build_parser` alone declares the flags.

    Sharing the parser between `main` calls is safe: parsing mutates
    nothing on a parser.  `parse_args` (Python 3.11 argparse) writes every
    value, every action default and every `set_defaults` entry into the
    Namespace it returns; a subparsers action parses the chosen subparser
    into a fresh Namespace and copies it over; the store actions only
    `setattr` on the Namespace; `set_defaults` itself runs only while
    building.  No action has a mutable default, so no value outlives its
    call, and the reader copies the table's entries into a fresh
    Namespace.  The Namespace's `parser` is the chosen subcommand's own
    parser (stored by `_subcommand`), which `main` uses to report a flag
    that subcommand does not take under its own usage line."""
    return build_parser()


def main(argv=None) -> int:
    parser, table = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(table, argv)
    if args is None:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:  # DegenerateProjectionError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateProjectionError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
