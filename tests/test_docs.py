"""The README's list of exported pieces names only what the package
exports, and the package's docstrings cite only names that exist."""

import importlib
import re
from pathlib import Path

import minmaxlp

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(minmaxlp.__file__).resolve().parent


def _exported_pieces_paragraph() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("Useful pieces are exported individually")
    end = text.find("\n\n", start)
    return text[start:] if end < 0 else text[start:end]


def test_exported_pieces_resolve_and_are_public():
    # the name before any "(" of each backticked span; spans such as
    # `solver="subgradient"` name no piece
    names = []
    for span in re.findall(r"`([^`]+)`", _exported_pieces_paragraph()):
        name = span.split("(")[0].strip()
        if name.isidentifier():
            names.append(name)
    assert len(names) >= 10, names
    missing = [name for name in names if not hasattr(minmaxlp, name)]
    private = [name for name in names if name not in minmaxlp.__all__]
    assert not missing and not private, (missing, private)


def _resolves(module, dotted: str) -> bool:
    target = module
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_docstring_references_resolve():
    """Every :func:`x` and :class:`x` in the package's sources names something
    in its own module or in the package, so a rename or a deletion cannot
    leave a stale one behind."""
    cited, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        names = re.findall(r":(?:func|class):`~?([\w.]+)`", path.read_text(encoding="utf-8"))
        if not names:
            continue
        # importing __main__ would run the command line; it is the package's
        own = minmaxlp if path.stem in ("__init__", "__main__") else importlib.import_module(
            f"minmaxlp.{path.stem}")
        cited += len(names)
        stale += [f"{path.name}: {name}" for name in names
                  if not (_resolves(own, name) or _resolves(minmaxlp, name))]
    assert cited >= 10 and not stale, (cited, stale)
