"""Repository hygiene: what git tracks, what the package exports, and what
the README says the CLI accepts."""

import argparse
import ast
import importlib
import pkgutil
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import singres
from singres import cli

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


def test_package_imports_are_exported():
    """Every name singres/__init__.py imports from a submodule is in that
    submodule's __all__, so with the test above it resolves too."""
    tree = ast.parse(Path(singres.__file__).read_text())
    stray = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"singres.{node.module}").__all__
    ]
    assert stray == []


def test_readme_lists_the_global_flags():
    """The README's "Global flags:" sentence names exactly the options
    cli._global_flags registers, so a removed flag cannot linger there."""
    readme = (ROOT / "README.md").read_text()
    sentence = readme[readme.index("Global flags:") :].split(".\n", 1)[0]
    parser = argparse.ArgumentParser(add_help=False)
    cli._global_flags(parser)
    registered = {opt for action in parser._actions for opt in action.option_strings}
    assert set(re.findall(r"`(--[a-z-]+)`", sentence)) == registered
