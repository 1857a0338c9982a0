"""Static checks on the library source."""

import ast
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from collections import Counter
from graphlib import TopologicalSorter
from importlib import import_module
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

from lmrttg.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lmrttg"


def _imports_of(tree, module):
    """``(names, froms)`` for a module in a parsed source file: the names that
    ``import module [as a]`` binds, and ``(line, bound, name)`` for each name
    that ``from module import name [as bound]`` binds."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module
    }
    froms = [
        (node.lineno, alias.asname or alias.name, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    ]
    return names, froms


#: The ``math`` functions that return floats.
_FLOAT_MATH = {"sqrt", "pow", "exp", "log", "isclose"}


def _float_uses(path):
    """(line, what) for each float literal and each call of ``float`` or of a
    float-returning ``math`` function in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    math_names, froms = _imports_of(tree, "math")
    from_math = {bound: name for _, bound, name in froms if name in _FLOAT_MATH}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "float":
                yield node.lineno, "float(...)"
            elif isinstance(fn, ast.Name) and fn.id in from_math:
                yield node.lineno, f"math.{from_math[fn.id]}(...)"
            elif (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id in math_names
                and fn.attr in _FLOAT_MATH
            ):
                yield node.lineno, f"math.{fn.attr}(...)"


def test_library_has_no_floats():
    # every decision is exact; only the command line rounds its timing metadata
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"]
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {what}" for path in paths for line, what in _float_uses(path)]
    assert found == []


def test_float_check_flags_float_math(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import math as m\nfrom math import isqrt, sqrt as root\nx = m.log(2) + root(2) + isqrt(2) + m.comb(3, 2)\n")
    assert sorted(what for _, what in _float_uses(path)) == ["math.log(...)", "math.sqrt(...)"]


def _json_dump_calls(path):
    """The lines of a source file that call ``json.dump``, by module or from-import name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    json_names, froms = _imports_of(tree, "json")
    dump_names = {bound for _, bound, name in froms if name == "dump"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id in dump_names) or (
                isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id in json_names and fn.attr == "dump"
            ):
                yield node.lineno


def test_library_writes_json_through_the_batched_writer():
    # json.dump makes one write per encoder token; documents go through
    # cli._print_json, which writes them in batches
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in _json_dump_calls(path)]
    assert found == []


def test_json_dump_check_flags_dump_calls(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import json as j\nfrom json import dump as d, dumps\nj.dump(1, f)\nd(2, f)\nj.dumps(3)\ndumps(4)\n")
    assert list(_json_dump_calls(path)) == [3, 4]


#: The ``functools`` decorators that keep results between calls.
_CACHES = {"lru_cache", "cache", "cached_property"}


def _functools_caches(path):
    """(line, name) for each ``functools`` cache a source file imports by name
    or reaches as an attribute of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functools_names, froms = _imports_of(tree, "functools")
    yield from ((line, name) for line, _, name in froms if name in _CACHES)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in functools_names
            and node.attr in _CACHES
        ):
            yield node.lineno, node.attr


def test_library_keeps_no_caches():
    # a process-wide cache is state that outlives the call: results depend on
    # what ran before, and memory grows with every argument seen
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py")) for line, name in _functools_caches(path)]
    assert found == []


def test_cache_check_flags_functools_caches(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import functools as ft\nfrom functools import reduce, lru_cache as lc\n"
        "@ft.cache\ndef f(x):\n    return ft.reduce(max, x)\n\n\nclass A:\n    p = ft.cached_property(f)\n"
    )
    assert sorted(_functools_caches(path)) == [(2, "lru_cache"), (3, "cache"), (9, "cached_property")]


def _hand_copied_bounds(path):
    """(line, source) for each comparison of the name ``n`` with the literal 4 or 5 in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Name) and x.id == "n" for x in operands) and any(
                isinstance(x, ast.Constant) and type(x.value) is int and x.value in (4, 5) for x in operands
            ):
                yield node.lineno, ast.unparse(node)


def test_library_derives_its_first_n():
    # the classification starts at classify.CLASSIFY_MIN_N and the main theorem
    # at families.LMRTTG_MIN_N; a bound copied by hand drifts from its source
    found = [f"{path.name}:{line}: {text}" for path in sorted(SRC.glob("*.py")) for line, text in _hand_copied_bounds(path)]
    assert found == []


def test_first_n_check_flags_literal_bounds(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = n < 5\nb = 4 <= n <= 9\nc = 5 <= m <= 2 * n\nd = n < 6\ne = k >= 4\n")
    assert [text for _, text in _hand_copied_bounds(path)] == ["n < 5", "4 <= n <= 9"]


def _unused_imports(path):
    """(line, name) for each name a source file imports and never reads; a
    ``from __future__`` import switches on a feature and binds nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_library_has_no_unused_imports():
    # an import left behind by a deleted use loads and hides a dependency;
    # __init__ imports its modules so that `import lmrttg` binds them
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {name}" for path in paths for line, name in _unused_imports(path)]
    assert found == []


def test_unused_import_check_flags_unread_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom functools import lru_cache, reduce\nfrom math import comb as c\n"
        "def f(x) -> js.JSONDecoder:\n    return reduce(max, x, os.sep)\n"
    )
    assert _unused_imports(path) == [(4, "lru_cache"), (5, "c")]


def _reads(tree):
    """The names a parsed source reads: each name, each attribute, and the
    last part of each string that is a dotted name, as the benchmark's traced
    names (``"families.build_lmrttg"``) are."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"\w+(\.\w+)+", node.value):
            yield node.value.rsplit(".", 1)[1]


def _unread_api(paths, users):
    """``module.name`` or ``module.Class.name`` for each top-level function
    or class, and each method other than a dunder, that the files ``paths``
    define and that no file of ``paths`` or ``users`` reads outside its own
    definition; private names count too.  Reads match by name alone,
    whatever object they reach."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in [*paths, *users]}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    found = []
    for path in paths:
        body = trees[path].body
        defs = [(node.name, node) for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (f"{cls.name}.{node.name}", node)
            for cls in body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        found += [
            f"{path.stem}.{qual}"
            for qual, node in defs
            if not re.fullmatch(r"__\w+__", node.name) and reads[node.name] == Counter(_reads(node))[node.name]
        ]
    return found


def test_library_api_has_a_library_caller():
    # API and private helpers that only the tests call are kept alive by them
    # alone; the benchmark harness counts as a caller, and cli.main is the
    # pyproject entry point
    found = _unread_api(sorted(SRC.glob("*.py")), sorted((ROOT / "perfbench").glob("*.py")))
    assert [qual for qual in found if qual != "cli.main"] == []


def test_api_check_flags_names_read_only_by_their_definition(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\ndef traced():\n    return 0\n\n\n"
        "class Box:\n    def __eq__(self, other):\n        return isinstance(other, Box)\n\n"
        "    def size(self):\n        return 0\n\n    def _private(self):\n        return 0\n"
    )
    user.write_text('import lib\nlib.used()\nTRACED = ["lib.traced"]\n')
    assert sorted(_unread_api([lib], [user])) == ["lib.Box", "lib.Box._private", "lib.Box.size", "lib.recursive"]


def _private_imports(path):
    """(line, name) for each single-underscore name that a source file takes
    from another package module: by ``from .module import _name``, or as an
    attribute of a module bound by ``from . import module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in relative if node.module is None for alias in node.names}
    found = [
        (node.lineno, f"{node.module}.{alias.name}")
        for node in relative
        if node.module is not None
        for alias in node.names
        if re.match(r"_(?!_)", alias.name)
    ]
    found += [
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and re.match(r"_(?!_)", node.attr)
    ]
    return sorted(found)


def test_library_modules_share_no_private_names():
    # a single-underscore name is its module's own: another module that
    # reaches for it ties itself to a helper that may change without notice
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py")) for line, name in _private_imports(path)]
    assert found == []


def test_private_import_check_flags_underscore_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\nfrom . import graphs, reliability as rel\n"
        "from .graphs import Graph, _built as b, __all__\nfrom os import _exit\n"
        "x = rel._search(4, 5) + graphs.__doc__ + graphs.Graph._private\ny = graphs._canonical\n"
    )
    assert _private_imports(path) == [(3, "graphs._built"), (5, "rel._search"), (6, "graphs._canonical")]


def _size_caps(path):
    """(line, source, named) for each ``SizeLimitError(...)`` call in a source
    file; ``named`` says that its text is an f-string that formats a value
    and holds no integer literal, in its words or in a formatted value."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SizeLimitError":
            text = node.args[0] if len(node.args) == 1 else None
            formatted = isinstance(text, ast.JoinedStr) and any(isinstance(v, ast.FormattedValue) for v in text.values)
            literal = any(
                type(x.value) is int or isinstance(x.value, str) and re.search(r"\d", x.value)
                for x in ast.walk(node)
                if isinstance(x, ast.Constant)
            )
            yield node.lineno, ast.unparse(node), formatted and not literal


def test_library_size_caps_are_named():
    # a cap copied into an error text drifts from the constant that enforces it
    caps = [(f"{path.name}:{line}: {text}", named) for path in sorted(SRC.glob("*.py")) for line, text, named in _size_caps(path)]
    assert len(caps) >= 3
    assert [where for where, named in caps if not named] == []


def test_size_cap_check_flags_literal_caps(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        'a = SizeLimitError(f"n <= {CAP} (got {n})")\n'
        'b = SizeLimitError("limited to n <= 10")\n'
        'c = SizeLimitError(f"n <= 10 (got {n})")\n'
        'd = SizeLimitError(f"n <= {CAP + 2} (got {n})")\n'
        'e = SizeLimitError(f"{count(g)} orders")\n'
        'f = SizeLimitError(msg)\n'
    )
    assert [line for line, _, named in _size_caps(path) if not named] == [2, 3, 4, 6]


#: The builders in graphs.py that make symmetric rows and count their edges.
_ROW_BUILDERS = {"complete", "from_edges", "complement", "join", "threshold_graph"}


def _unchecked_builds(path, builders=()):
    """(line, function) for each use of the unchecked constructor ``_built``
    in a source file, by name, attribute or import, outside the functions
    ``builders``; a use at module level is in ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (
                isinstance(child, ast.Name) and child.id == "_built"
                or isinstance(child, ast.Attribute) and child.attr == "_built"
                or isinstance(child, ast.alias) and child.name == "_built"
            ) and fn not in builders:
                yield child.lineno, fn
            yield from walk(child, fn)

    return list(walk(tree, "<module>"))


def test_only_the_graph_builders_skip_the_symmetry_check():
    # Graph(n, rows) checks rows from a caller; _built trusts its rows and m,
    # so only a builder that makes them symmetric and counts its edges calls it
    found = [
        f"{path.name}:{line}: {fn}"
        for path in sorted(SRC.glob("*.py"))
        for line, fn in _unchecked_builds(path, _ROW_BUILDERS if path.name == "graphs.py" else ())
    ]
    assert found == []
    assert {fn for _, fn in _unchecked_builds(SRC / "graphs.py")} == _ROW_BUILDERS


def test_unchecked_build_check_flags_uses_outside_the_builders(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .graphs import _built\nimport graphs\n\n\ndef join(g):\n    return _built(g.n, g.rows, g.m)\n\n\n"
        "def relabel(g):\n    return graphs._built(g.n, g.rows, g.m)\n\n\nmake = _built\n"
    )
    assert _unchecked_builds(path, {"join"}) == [(1, "<module>"), (10, "relabel"), (13, "<module>")]


def _asserts(path):
    """The line of each ``assert`` statement in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_library_has_no_asserts():
    # python -O strips assert statements and the invariants they check; the
    # library raises its errors instead
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in _asserts(path)]
    assert found == []


def test_assert_check_flags_assert_statements(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    assert x > 0, 'positive'\n    return x\n\n\nassert_free = f(1) == 1\n")
    assert _asserts(path) == [2]


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


def _package_imports(path):
    """The package modules a source file imports with ``from .x import`` or
    ``from . import x``, at module level or in a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_library_imports_at_module_level():
    # a deferred import hides a module's dependencies, and a cycle between modules needs one
    found = {f"{path.name}:{fn}:{module}" for path in sorted(SRC.glob("*.py")) for fn, module in _function_imports(path)}
    assert found == set()
    graph = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}
    assert graph["classify"] == {"errors"} and "classify" in graph["families"]
    assert graph["quadratic"] == {"errors"}  # the polynomial layer knows no graphs
    TopologicalSorter(graph).prepare()  # raises CycleError on an import cycle


def test_package_is_its_modules():
    # each library name has one import path, its module: the package re-exports
    # no names, so no function can shadow the module it is defined in
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    docstring, *imports = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert imports and all(isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, None) for node in imports)
    assert all((SRC / f"{alias.name}.py").is_file() and alias.asname is None for node in imports for alias in node.names)
    modules = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
    lmrttg = import_module("lmrttg")
    assert [m for m in modules if import_module(f"lmrttg.{m}") is not getattr(lmrttg, m)] == []
    import lmrttg.classify as classify_module

    assert classify_module is sys.modules["lmrttg.classify"]


def test_cli_import_leaves_heavy_modules_unloaded():
    # dataclasses pulls in inspect, dis, ast and tokenize at every start-up, and
    # multiprocessing is heavy and has no user since the search runs serially; -S
    # keeps site hooks out of the child, so only the package's own imports count
    code = "import sys, lmrttg.cli; print(sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_oracles_import_nothing_from_the_library():
    # an oracle that runs library code cannot catch that code's bugs; the
    # helpers an oracle calls, such as to_networkx, count as the oracle
    path = Path(__file__).with_name("oracles.py")
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    defs = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    oracles = {name for name in defs if name.endswith("_oracle")}
    todo = list(oracles)
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in oracles:
                oracles.add(node.id)
                todo.append(node.id)
    assert {"max_m1_oracle", "iso_oracle", "to_networkx"} <= oracles
    found = [("<module>", alias.name) for node in body if isinstance(node, ast.Import) for alias in node.names]
    found += [("<module>", node.module) for node in body if isinstance(node, ast.ImportFrom)]
    found += [(fn, module) for fn, module in _function_imports(path) if fn in oracles]
    assert [(fn, module) for fn, module in found if (module or "").split(".")[0] == "lmrttg"] == []


def test_traced_layer_functions_exist():
    # the traced benchmark run wraps these names; read without importing the
    # harness, so deleting a traced function fails here and not in a trace
    path = ROOT / "perfbench" / "replay.py"
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    (names,) = [
        ast.literal_eval(node.value)
        for node in body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]
    ]
    assert len(names) > 10
    modules = {qual: import_module(f"lmrttg.{qual.split('.')[0]}") for qual in names}
    missing = [qual for qual, mod in modules.items() if not callable(getattr(mod, qual.split(".")[1], None))]
    assert missing == []


def test_benchmark_argv_parses(monkeypatch):
    # every command line the benchmark runs must parse, so that no option it
    # passes (--deep, --jobs, --m-cap, ...) is dropped while it is in use
    path = ROOT / "perfbench" / "workloads.py"
    spec = spec_from_file_location("perfbench_workloads", path)
    workloads = module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    parser = build_parser()
    argvs = [
        cmd.argv
        for w in workloads.WORKLOADS
        for cmd in workloads.commands(w, 1, [Path("graph-0.json")], {"graph-0.json": {}})
    ]
    assert len(argvs) > 10
    for argv in argvs:
        try:
            parser.parse_args(list(argv))
        except SystemExit:
            pytest.fail(f"benchmark command does not parse: {' '.join(argv)}")


def test_test_extra_names_every_third_party_test_import():
    # a test dependency missing from the extra breaks a fresh install's suite
    tomllib = pytest.importorskip("tomllib")
    tests = sorted(Path(__file__).parent.glob("*.py"))
    local = {"lmrttg"} | {path.stem for path in tests}
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in extra}


def test_readme_command_lines_parse():
    # every example in the README's shell blocks must still parse after an option is renamed or removed
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("lmrttg ")]
    assert len(lines) >= 14
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_layer_bench_writes_its_json(tmp_path):
    # the layer harness runs end to end at tiny sizes; its timings are checked for shape only
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(ROOT / "tools" / "layer_bench.py"), "--tiny", "--runs", "2", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"machine", "python", "runs", "tiny", "layers"} and (doc["runs"], doc["tiny"]) == (2, True)
    assert doc["python"] == platform.python_version() and doc["machine"]["cpus"] == os.cpu_count()
    counts = {}
    for name, layer in doc["layers"].items():
        (tree,) = layer["trees"].values()
        assert set(tree) == {"count", "median_s", "iqr_s", "samples_s"} and len(tree["samples_s"]) == 2
        assert min(tree["samples_s"]) <= tree["median_s"] <= max(tree["samples_s"]) and tree["iqr_s"] >= 0
        counts[name] = tree["count"]
    assert counts == {"identity_suite": 40 + 796, "classify_csv": 284, "scan_tie_band": 38, "band_bounds_report": 189}
