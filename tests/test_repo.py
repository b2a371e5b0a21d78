"""Repository hygiene: what git tracks, what the package exports, and what
the README says the CLI accepts."""

import argparse
import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import singres
from singres import cli
from test_digests import GERM_INPUTS, POINT_INPUTS

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    """Nothing that .gitignore lists (build output, generated sources) is tracked."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        pytest.skip(f"git cannot read the checkout: {proc.stderr.strip()}")
    assert proc.stdout == ""


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(singres.__path__)])
def test_module_exports_resolve(name):
    """Every name in a module's __all__ exists (a deleted class left in an
    export list fails here)."""
    module = importlib.import_module(f"singres.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _leaf_commands(parser, prefix=()):
    """(command words, options) for every command path that runs something,
    nested subcommands included; a path's options are those of every parser
    along it, --help aside."""
    own = {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), own
    for action in subs:
        for name, sub in action.choices.items():
            for path, opts in _leaf_commands(sub, (*prefix, name)):
                yield path, own | opts


def test_readme_lists_each_subcommands_flags():
    """For every subcommand, nested ones (`scan minors`) included, the
    README's flag list names exactly the options its parser registers
    (--help aside), and it lists no other subcommand, so a flag cannot be
    added, moved or removed without the README following."""
    readme = (ROOT / "README.md").read_text()
    block = readme[readme.index("Each subcommand takes only the flags it reads:") :].split("\n\n", 2)[1]
    documented = {}
    for item in block.removeprefix("- ").split("\n- "):
        names, _, flags = item.partition(":")
        for name in re.findall(r"`([a-z0-9 -]+)`", names):
            documented[name] = set(re.findall(r"`(--[a-z0-9-]+)`", flags))
    registered = dict(_leaf_commands(cli.build_parser()[0]))
    assert "scan minors" in registered
    assert documented == registered


def test_no_private_argparse_names_in_src():
    """The package uses argparse through its documented names alone: no
    module of src/ reads a private name of argparse, or the _actions or
    _defaults of a parser (the test helpers may walk a built parser)."""
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                private = node.attr in ("_actions", "_defaults") or (
                    node.attr.startswith("_") and isinstance(node.value, ast.Name) and node.value.id == "argparse"
                )
                names = [node.attr] if private else []
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert found == []


def test_no_cyclotomic_element_arithmetic_in_src():
    """Z[zeta_n] facts are decided modulo split primes: no module of the
    package defines or imports the cyclotomic-polynomial representation,
    which lives on as the test oracle (tests/cyclo_oracle.py)."""
    retired = {
        "CycloElement",
        "cyclotomic_polynomial",
        "unity_reduction_table",
        "poly_xgcd",
        "RootOfUnity",
        "UnityPair",
        "all_minors_vanish",
    }
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            found += [f"{path.name}: {name}" for name in sorted(names & retired)]
    assert found == []


def test_one_univariate_representation():
    """A univariate polynomial in the package is a primitive integer
    coefficient tuple: no module defines or imports a polynomial class
    (`UniPoly`) or a gcd over the rationals (`poly_gcd`); the `Fraction`
    polynomial lives on as the test oracle `QPoly`."""
    retired = {"UniPoly", "poly_gcd"}
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{path.name}: {name}" for name in sorted(names & retired)]
    assert found == []


def test_one_polynomial_type():
    """A multivariate polynomial in the package, a resultant or a plane
    germ in (s, t), is an `mpoly.MPoly`: no other class of the package
    holds a `terms` map, as a `self.terms` store, a class attribute or
    field, or a slot."""
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or (path.name, cls.name) == ("mpoly.py", "MPoly"):
                continue
            stores = [
                node.lineno
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and node.attr == "terms" and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ]
            for stmt in cls.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                slots = {c.value for c in ast.walk(stmt) if isinstance(c, ast.Constant)} if "__slots__" in names else set()
                if "terms" in names or "terms" in slots:
                    stores.append(stmt.lineno)
            found += [f"{path.name}:{line}: {cls.name}" for line in stores]
    assert found == []


def test_no_numpy_random_in_src():
    """Every draw comes from a seeded `random.Random`: no module of the
    package imports or reads `numpy.random`, whose import costs a process
    about 15 ms (see the subprocess test below)."""
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hits = [a.name for a in node.names if a.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                hits = [node.module] if node.module.startswith("numpy.random") else []
                hits += [f"{node.module}.{a.name}" for a in node.names if node.module == "numpy" and a.name == "random"]
            elif isinstance(node, ast.Attribute) and node.attr == "random" and isinstance(node.value, ast.Name):
                hits = [f"{node.value.id}.random"] if node.value.id in ("np", "numpy") else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {hit}" for hit in hits]
    assert found == []


def test_point_classifier_decides_without_floats():
    """`laurent` decides every point exactly, from the orders of the common
    roots: it imports no numpy, reads no `np.linalg` and calls no
    `complex`."""
    tree = ast.parse((Path(singres.__file__).parent / "laurent.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(f"{node.lineno}: from {node.module}")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{node.lineno}: linalg")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "complex":
            found.append(f"{node.lineno}: complex(")
        elif isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            found.append(f"{node.lineno}: {node.id}")
    assert found == []


def test_reports_have_one_writer():
    """No module of the package calls `json.dumps` or `json.dump`: every
    report is written by `cli._emit`, whose writer `tests/test_cli.py`
    checks byte for byte against `json.dumps`."""
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id == "json" and node.attr in ("dumps", "dump")
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "json" and any(a.name in ("dumps", "dump") for a in node.names)
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_inputs_have_one_reader():
    """No module of the package defines a `from_json`, and none but `cli`
    calls `json.load` or `json.loads`: `cli` alone reads --input, --b1,
    --b2 and --sizes, as it alone writes reports, and the library layers
    take constructed objects."""
    found = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hit = node.name == "from_json"
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = path.name != "cli.py" and node.value.id == "json" and node.attr in ("load", "loads")
            elif isinstance(node, ast.ImportFrom):
                hit = path.name != "cli.py" and node.module == "json" and any(a.name in ("load", "loads") for a in node.names)
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_kernel_sampler():
    """`strata` is the one module of the package that reads `kernel_basis`
    or `multiplicity_vandermonde`: its filtration-subset sampler is the one
    exact kernel sampler, and `verify` draws its constructions through it."""
    readers = set()
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            else:
                continue
            if names & {"kernel_basis", "multiplicity_vandermonde"}:
                readers.add(path.stem)
    assert readers == {"strata"}


def test_codim_scan_leaves_numpy_random_unloaded():
    """A three-point `scan codim`, whose minor-curve certificate draws
    kernel vectors, runs in a fresh interpreter without importing
    numpy.random."""
    src = str(Path(singres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["scan", "codim", "--b1", "0,1,3,4,6,7", "--b2", "0,3,6", "--label", "N(1,1,1)", "--seed", "3"]
    code = (
        "import json, sys; from singres.cli import main; status = main(sys.argv[1:]); "
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('numpy.random'))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, verdict = proc.stdout.rstrip("\n").rsplit("\n", 1)
    assert any(c.get("certificate") for c in json.loads(report)["report"]["components_probed"])
    assert json.loads(verdict) == [0, []]


def test_every_export_is_used():
    """Every name in a submodule's __all__ is read somewhere in the package
    besides its definition (by another module or by its own module's code):
    an export that only the tests reach is dead code.  A use is a load of
    the bare name, a `from .module import name`, or an attribute of a
    package module (`verify.CHECK_IDS`); an attribute of anything else
    (`self.expected_codim`) is not, since it may name another object.  A
    re-export in singres/__init__.py is not a use either, or every exported
    name would pass."""
    used = _names_read_in_package()
    unused = [
        f"{m.name}.{name}"
        for m in pkgutil.iter_modules(singres.__path__)
        for name in getattr(importlib.import_module(f"singres.{m.name}"), "__all__", ())
        if name not in used
    ]
    assert unused == []


def _names_read_in_package():
    """Every name the package's modules read, as `test_every_export_is_used`
    counts a use."""
    package = Path(singres.__file__).parent
    modules = {m.name for m in pkgutil.iter_modules(singres.__path__)}
    used = set()
    for path in package.glob("*.py"):
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not (reexports and node.level == 1):
                used.update(alias.name for alias in node.names)
    return used


def test_every_public_method_is_read():
    """Every public method or property of a class of the package is read as
    an attribute, of any object, somewhere in the package's modules (its
    `def` is not a read): a method only the tests call is dead code."""
    package = Path(singres.__file__).parent
    read, defined = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    defined.append((path.name, cls.name, node.name))
    assert len(defined) > 20
    assert [f"{module}: {cls}.{name}" for module, cls, name in defined if name not in read] == []


# The operators that `_public_members` counts as public where a class body
# defines them with `def`.
OPERATORS = {
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__bool__", "__hash__", "__eq__",
}


def _public_members():
    """The qualified name, as `co_qualname` gives it, of every public method
    or property, and every operator of OPERATORS, of a class of the package,
    by module file name.  An operator bound as an alias (`__radd__ =
    __add__`) runs under the name of the function it names, so it is
    checked as that function."""
    members = {}
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (not node.name.startswith("_") or node.name in OPERATORS):
                        members.setdefault(path.name, set()).add(f"{cls.name}.{node.name}")
    return members


# The canonical CLI runs of `test_every_public_method_runs`: (argv, --input
# JSON on stdin or None); "{tmp}" is a scratch directory.
CANONICAL_RUNS = [
    (["classify", "--b1", "0,1,3", "--b2", "0,3"], None),
    (["classify", "--input", "-"], {"b1": [0, 1, 2, 3], "b2": [0, 1, 2, 3]}),
    (["resultant", "--b1", "0,2,5", "--b2", "0,3"], None),
    *((["point-classify", "--input", "-"], data) for data in POINT_INPUTS),
    *((["germ-classify", "--input", "-"], data) for data in GERM_INPUTS),
    *(
        (["verify-paper", "--only", check, "--out", "{tmp}/verify"], None)
        for check in ("closed-form-resultant", "minors-split-equivalence", "corank2-dichotomy", "stratum-order", "projection-pipeline")
    ),
    (
        ["project3d", "--input", "-", "--scan", "--csv", "{tmp}/grid.csv", "--rho-steps", "3", "--theta-steps", "4"],
        {
            "a1": [[1, 0, 0], [0, 0, 2]],
            "a2": [[0, 1, 0], [0, 0, 1]],
            "coeffs1": {"1,0,0": [-1, 0], "0,0,2": [1, 0]},
            "coeffs2": {"0,1,0": [-1, 0], "0,0,1": [1, 0]},
        },
    ),
    (["scan", "minors", "--n-max", "4", "--spread", "4"], None),
    (["scan", "strata", "--b1", "0,1,4", "--b2", "0,3,5", "--label", "N(1,1)", "--n-max", "6"], None),
    (["scan", "codim", "--b1", "0,1,3,4,6,7", "--b2", "0,3,6", "--label", "N(1,1,1)", "--seed", "3"], None),
]

# Run CANONICAL_RUNS (JSON on stdin) under one profile hook, in a fresh
# interpreter, so that no cache another test filled skips a call; print the
# file name and `co_qualname` of every package function that ran.
_RUN_CANONICAL = """
import contextlib, io, json, sys
from pathlib import Path
import singres
from singres import cli
package, runs = str(Path(singres.__file__).parent), json.load(sys.stdin)
ran = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        ran.add((Path(frame.f_code.co_filename).name, frame.f_code.co_qualname))

sys.setprofile(hook)
for argv, stdin in runs:
    sys.stdin = io.StringIO(json.dumps(stdin))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    assert status in (0, 1), (argv, status)
sys.setprofile(None)
sys.stdout.write(json.dumps(sorted(ran)))
"""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects have co_qualname from Python 3.11")
def test_every_public_method_runs(tmp_path):
    """Every public method or property of a class of the package runs in
    the canonical CLI runs, matched by class and name (`co_qualname`): a
    member that only the tests call is dead code, even where another class
    has a member of its name, which `test_every_public_method_is_read`
    cannot tell apart."""
    src = str(Path(singres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = json.dumps([([arg.format(tmp=tmp_path) for arg in argv], stdin) for argv, stdin in CANONICAL_RUNS])
    proc = subprocess.run([sys.executable, "-c", _RUN_CANONICAL], input=runs, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ran = {tuple(entry) for entry in json.loads(proc.stdout)}
    members = _public_members()
    assert sum(map(len, members.values())) > 20
    assert sorted(f"{module}: {name}" for module, names in members.items() for name in names if (module, name) not in ran) == []


def test_every_constant_is_read():
    """Every module-level UPPER_CASE constant of the package is read somewhere
    in it besides its definition, under the rules of
    `test_every_export_is_used`: a cap or bound whose check is gone, read
    only by the tests, is dead code."""
    used = _names_read_in_package()
    defined = []
    for path in sorted(Path(singres.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined += [(path.name, name) for name in names if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)]
    assert len(defined) > 5
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []


def test_importing_the_package_loads_no_submodule():
    """The package namespace re-exports nothing: `import singres`, in a
    fresh interpreter, loads none of its modules."""
    src = str(Path(singres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, singres; print(sorted(m for m in sys.modules if m.startswith('singres.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_calls_resolve():
    """The benchmark's request code (perfbench/workloads.py, and the child
    process that runs it) reaches singres by module attribute and keyword,
    so a deleted module or function, or a renamed parameter such as
    `scan_corank_strata(..., seed=)`, would fail every benchmark request.
    Parsed read-only: every singres module they import exists, every
    attribute they read of one resolves, and every keyword they pass to a
    singres callable is one of its parameters."""
    problems, keywords = [], set()
    for rel in ("perfbench/workloads.py", "perfbench/child.py"):
        tree = ast.parse((ROOT / rel).read_text())
        bound = {}  # local name -> the singres module or object it names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name: singres for a in node.names if a.name == "singres"})
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "singres":
                for a in node.names:
                    name = f"{node.module}.{a.name}" if node.module == "singres" else node.module
                    try:
                        module = importlib.import_module(name)
                    except ModuleNotFoundError:
                        problems.append(f"{rel}: no module {name}")
                        continue
                    if node.module == "singres":
                        bound[a.asname or a.name] = module
                    elif hasattr(module, a.name):
                        bound[a.asname or a.name] = getattr(module, a.name)
                    else:
                        problems.append(f"{rel}: {name} has no {a.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = bound.get(node.value.id)
                if isinstance(owner, types.ModuleType) and not hasattr(owner, node.attr):
                    problems.append(f"{rel}:{node.lineno}: {node.value.id}.{node.attr} does not resolve")
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                owner = bound.get(node.func.value.id)
                fn = getattr(owner, node.func.attr, None) if isinstance(owner, types.ModuleType) else None
                label = f"{node.func.value.id}.{node.func.attr}"
            elif isinstance(node.func, ast.Name):
                fn, label = bound.get(node.func.id), node.func.id
            else:
                continue
            if not callable(fn):
                continue
            params = inspect.signature(fn).parameters
            takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.add((label, kw.arg))
                    if kw.arg not in params and not takes_any:
                        problems.append(f"{rel}:{node.lineno}: {label}() takes no {kw.arg}=")
    assert problems == []
    assert ("strata.scan_corank_strata", "seed") in keywords


MODULES = sorted(m.name for m in pkgutil.iter_modules(singres.__path__))
# `strata._scan_table`, `singres.cli.main`, `minors._rank.__doc__`: a
# module of the package, then a dotted name in it
QUALIFIED_NAME = re.compile(r"`(?:singres\.)?(" + "|".join(MODULES) + r")((?:\.\w+)+)`")
# `_sides`, `_Stratum.entry`: a private name of the module whose text it
# is in, or, in a test file, of any module or of the file itself
OWN_NAME = re.compile(r"`(_\w+(?:\.\w+)*)`")


def _resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _dead_names(text, homes, own=frozenset()):
    """(checked, dead): the backticked names of text, and those that name
    nothing.  A qualified name must resolve in its package module.  A bare
    `_name[.member]`, unless homes is empty, must resolve in one of the
    package modules homes or have every part defined in own."""
    qualified = QUALIFIED_NAME.findall(text)
    bare = OWN_NAME.findall(text) if homes else []
    dead = [f"{module}{dotted}" for module, dotted in qualified if not _resolves(importlib.import_module(f"singres.{module}"), dotted[1:])]
    dead += [dotted for dotted in bare if not set(dotted.split(".")) <= own and not any(_resolves(importlib.import_module(f"singres.{module}"), dotted) for module in homes)]
    return len(qualified) + len(bare), dead


def test_docs_name_live_code():
    """Every backticked `module.name[.member]` in README.md, in the
    package's sources and in the tests names something that exists; so
    does every backticked `_name[.member]` in a module's own text, and in a
    test file one of some package module or of the file's own definitions
    (functions, classes and assigned names), so a function deleted or
    renamed cannot live on in the prose that explains it or tests it."""
    texts = [("README.md", (ROOT / "README.md").read_text(), ())]
    texts += [(path.name, path.read_text(), {path.stem} & set(MODULES)) for path in sorted(Path(singres.__file__).parent.glob("*.py"))]
    checked, dead = 0, []
    for name, text, homes in texts:
        count, found = _dead_names(text, homes)
        checked += count
        dead += [f"{name}: {ref}" for ref in found]
    test_checked = 0
    for path in sorted((ROOT / "tests").glob("*.py")):
        text = path.read_text()
        nodes = list(ast.walk(ast.parse(text)))
        own = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        count, found = _dead_names(text, MODULES, own)
        test_checked += count
        dead += [f"tests/{path.name}: {ref}" for ref in found]
    assert dead == []
    assert checked > 100 and test_checked > 30
    # a name deleted from the package is dead in a test file's prose
    tick = "`"
    assert _dead_names(f"{tick}_gap_orders{tick} {tick}strata._residues{tick}", MODULES)[1] == ["strata._residues", "_gap_orders"]
