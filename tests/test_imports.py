"""Every name a package module or a test file imports is used in it or
exported by it."""

import ast
from pathlib import Path

import pytest

import reservoir_tta

PACKAGE_DIR = Path(reservoir_tta.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
CHECKED = MODULES + TEST_FILES


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line (``__future__`` excluded)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return sorted(
        (name, line) for name, line in _imported_names(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", CHECKED, ids=[p.stem for p in CHECKED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "from .errors import GenerationError, InputDomainError\n"
        "__all__ = ['InputDomainError']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == [("GenerationError", 5), ("Path", 4), ("json", 2)]
