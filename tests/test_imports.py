"""Every name a package module or a test file imports is used in it or
exported by it, every top-level name a package module defines is read by
some package module, no package module reads a numpy-2-only name, and only
``seeding`` makes a numpy generator."""

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


def _defined_names(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Names read as a loaded name, an attribute or an imported name."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads |= {alias.name for alias in node.names}
    return reads


def unreferenced_names(sources: list[str]) -> list[str]:
    """Top-level names defined in one of ``sources`` that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    reads = set().union(*(_read_names(tree) for tree in trees))
    defined = set().union(*(_defined_names(tree) for tree in trees))
    return sorted(defined - reads)


def test_package_has_no_unreferenced_names():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unreferenced_names(sources) == []


def test_check_sees_unreferenced_names():
    module_a = (
        "from dataclasses import dataclass\n"
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "__all__ = []\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def orphan():\n"
        "    stored = 1\n"
        "    return stored\n"
        "class Record:\n"
        "    pass\n"
        "class Leftover:\n"
        "    pass\n"
    )
    # Read by an import, an attribute and a name load; STATE is only stored.
    module_b = "from .a import Record\nimport a\nSTATE = a.helper\nSTATE = 2\n"
    assert unreferenced_names([module_a, module_b]) == [
        "Leftover", "STATE", "UNUSED", "orphan"
    ]


# Names that numpy added in 2.x, while pyproject.toml allows numpy 1.24: a
# package module that reads one fails on every supported 1.x install.
NUMPY2_NAMES = frozenset(
    [f"numpy.{name}" for name in (
        "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
        "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat",
        "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
        "matvec", "permute_dims", "pow", "trapezoid", "unique_all",
        "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
        "vecmat",
    )]
    + [f"numpy.linalg.{name}" for name in (
        "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose",
        "outer", "svdvals", "tensordot", "trace", "vecdot", "vector_norm",
    )]
)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def numpy2_reads(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every read of a name that numpy added in 2.x: an
    attribute of numpy or of one of its modules, reached through any import
    alias, a name imported from numpy, or an ndarray attribute."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the numpy module or name it binds
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    local = alias.asname or "numpy"
                    aliases[local] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = full
                if full in NUMPY2_NAMES:
                    reads.append((full, node.lineno))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "mT":  # the ndarray attribute numpy 2.0 added
            reads.append((node.attr, node.lineno))
            continue
        dotted = _dotted(node)
        head, _, rest = (dotted or "").partition(".")
        if head in aliases and f"{aliases[head]}.{rest}" in NUMPY2_NAMES:
            reads.append((f"{aliases[head]}.{rest}", node.lineno))
    return sorted(reads, key=lambda read: (read[1], read[0]))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_reads_no_numpy2_name(path):
    assert numpy2_reads(path.read_text(encoding="utf-8")) == []


def test_check_sees_numpy2_names():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import cumulative_sum, linalg\n"
        "from numpy.linalg import norm\n"
        "a = np.vecdot(x, y)\n"
        "b = np.linalg.vector_norm(x) + la.matrix_norm(x) + linalg.vecdot(x, y)\n"
        "c = x.mT @ x.T\n"
        "d = x.astype(float) + np.asarray(x).sum() + norm(x) + np.linalg.norm(x)\n"
        "e = other.vecdot(x) + np.random.default_rng(0).normal()\n"
        "f = np.concat([x]) + np.astype(x, float)\n"
    )
    assert numpy2_reads(source) == [
        ("numpy.cumulative_sum", 3),
        ("numpy.vecdot", 5),
        ("numpy.linalg.matrix_norm", 6),
        ("numpy.linalg.vecdot", 6),
        ("numpy.linalg.vector_norm", 6),
        ("mT", 7),
        ("numpy.astype", 10),
        ("numpy.concat", 10),
    ]


# numpy's generator constructors and types. ``seeding.keyed_rng`` is the
# package's one way to make a generator, so only ``seeding`` names them.
GENERATOR_NAMES = frozenset({"default_rng", "Generator", "RandomState", "SeedSequence"})


def _annotation_nodes(tree: ast.Module) -> set[int]:
    """The ``id`` of every node inside an annotation: under ``from
    __future__ import annotations`` an annotation is never evaluated."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def generator_references(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every reference to a name of ``GENERATOR_NAMES``
    outside an annotation: a loaded name, an attribute or an imported name."""
    tree = ast.parse(source)
    annotations = _annotation_nodes(tree)
    refs = []
    for node in ast.walk(tree):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        refs += [(name, node.lineno) for name in names if name in GENERATOR_NAMES]
    return sorted(refs, key=lambda ref: (ref[1], ref[0]))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_seeding_makes_generators(path):
    names = [name for name, _ in generator_references(path.read_text(encoding="utf-8"))]
    assert names == (["default_rng"] if path.name == "seeding.py" else [])


def test_check_sees_generator_references():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from numpy.random import Generator, SeedSequence as Seq\n"
        "def draw(rng: np.random.Generator, n: int = 1) -> np.random.Generator:\n"
        "    kept: np.random.Generator = np.random.default_rng(n)\n"
        "    return np.random.RandomState(Seq(n).entropy), kept\n"
        "\"\"\"default_rng in a string is not a reference\"\"\"\n"
    )
    assert generator_references(source) == [
        ("Generator", 3), ("SeedSequence", 3), ("default_rng", 5), ("RandomState", 6)
    ]
