"""The test-only references (``tests/*_reference.py``) share no private code
with the package they check: a private helper imported from ``minmaxlp``
would be compared against itself, so a fault in it could not show."""

import ast
from pathlib import Path

import pytest

REFERENCES = sorted(Path(__file__).resolve().parent.glob("*_reference.py"))


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.startswith("__") for part in dotted.split("."))


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` takes from ``minmaxlp``:
    imported by name, as a module, or read as an attribute of an imported
    ``minmaxlp`` module."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module.split(".")[0] == "minmaxlp"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if _private(f"{node.module}.{a.name}")]
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "minmaxlp":
                    found += [a.name] if _private(a.name) else []
                    modules.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return sorted(found)


def test_there_are_references():
    assert len(REFERENCES) >= 5, REFERENCES


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_form():
    source = (
        "from minmaxlp.minmax import ACTIVE_TOL, _active_set\n"
        "from minmaxlp import _private_module\n"
        "import minmaxlp._hidden\n"
        "import minmaxlp.model as model\n"
        "model._parse_json(b'{}')\n"
        "from minmaxlp import minmax\n"
        "minmax._seidel\n"
        "from other import _fine\n"
        "x.__class__, model.__name__\n"
    )
    assert private_imports(source) == sorted([
        "minmaxlp.minmax._active_set", "minmaxlp._private_module", "minmaxlp._hidden",
        "model._parse_json", "minmax._seidel",
    ])
