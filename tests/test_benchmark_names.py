"""The names the benchmark harness and the acceptance gate use still exist.

``perfbench/*.py`` and ``tests/test_acceptance.py`` are kept unchanged
between versions, so a package name they import or read is an interface:
removing it would otherwise only show up as a failed benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FROZEN_FILES = (*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")


def used_names(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every ``from vcdfuel... import name`` and
    every attribute read off a name bound to a vcdfuel module or member."""
    tree = ast.parse(source)
    names, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vcdfuel":
            for alias in node.names:
                names.add((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vcdfuel":
                    bound[alias.asname or "vcdfuel"] = alias.name if alias.asname else "vcdfuel"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.add((bound[node.value.id], node.attr))
    return names


def resolve(dotted: str):
    """The module or module member at ``dotted``; ImportError or
    AttributeError when there is none."""
    module, _, attr = dotted.rpartition(".")
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return getattr(resolve(module), attr)


USED = sorted(set().union(*(used_names(p.read_text(encoding="utf-8")) for p in FROZEN_FILES)))


def test_frozen_files_use_package_names():
    assert len(USED) >= 30
    assert ("vcdfuel.synthetic", "make_dyno_log") in USED  # imported
    assert ("vcdfuel.cli", "main") in USED                 # read off `cli`


@pytest.mark.parametrize("module, attr", USED, ids=[f"{m}.{a}" for m, a in USED])
def test_name_exists(module, attr):
    try:
        resolve(f"{module}.{attr}")
    except (ImportError, AttributeError):
        pytest.fail(f"{module}.{attr} is gone")
