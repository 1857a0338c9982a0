"""Static checks on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lmrttg"


def _float_uses(path):
    """(line, what) for each float literal and each call of ``float`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"


def test_library_has_no_floats():
    # every decision is exact; only the command line rounds its timing metadata
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"]
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {what}" for path in paths for line, what in _float_uses(path)]
    assert found == []
