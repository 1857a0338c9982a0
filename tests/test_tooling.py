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


def _function_imports(path):
    """(function, module) for each import statement inside a function of a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    yield from ((fn.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield fn.name, node.module


def test_library_imports_at_module_level():
    # a deferred import hides a module's dependencies; each allowed one gives its reason where it stands
    allowed = {"scans.py:scan_uniqueness:multiprocessing", "families.py:h_optimal_tag:classify"}
    found = {f"{path.name}:{fn}:{module}" for path in sorted(SRC.glob("*.py")) for fn, module in _function_imports(path)}
    assert sorted(found - allowed) == []



def test_oracles_import_nothing_from_the_library():
    # an oracle that runs library code cannot catch that code's bugs
    path = Path(__file__).with_name("oracles.py")
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    oracles = {node.name for node in body if isinstance(node, ast.FunctionDef) and node.name.endswith("_oracle")}
    assert "max_m1_oracle" in oracles
    found = [("<module>", alias.name) for node in body if isinstance(node, ast.Import) for alias in node.names]
    found += [("<module>", node.module) for node in body if isinstance(node, ast.ImportFrom)]
    found += [(fn, module) for fn, module in _function_imports(path) if fn in oracles]
    assert [(fn, module) for fn, module in found if (module or "").split(".")[0] == "lmrttg"] == []
