"""The README's list of exported pieces names only what the package exports."""

import re
from pathlib import Path

import minmaxlp

README = Path(__file__).resolve().parent.parent / "README.md"


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
