"""Rules on the library's source text."""

import ast
import pathlib

LIBRARY = pathlib.Path(__file__).parents[1] / "src" / "btfas"


def assertion_lines(source: str) -> list[int]:
    """Lines of every ``assert`` and every ``raise AssertionError`` in the source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_detector_finds_each_form():
    source = "assert x\nraise AssertionError\nraise AssertionError('y')\nraise ValueError\n"
    assert assertion_lines(source) == [1, 2, 3]


def test_the_library_raises_internal_invariant_errors_not_assertions():
    """An internal check must map to exit 3 and survive ``python -O``."""
    files = sorted(LIBRARY.glob("*.py"))
    assert len(files) > 5
    found = [
        f"{path.name}:{line}"
        for path in files
        for line in assertion_lines(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def oracle_imports(source: str) -> list[int]:
    """Lines of every import of the ``oracles`` module or of a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = (node.module or "").split(".")[-1] == "oracles"
            if named or any(alias.name == "oracles" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_oracle_import_detector_finds_each_form():
    source = (
        "from .oracles import min_fas_exact\n"
        "from . import cli, oracles\n"
        "from btfas.oracles import census_sums\n"
        "import btfas.oracles\n"
        "from btfas import oracles as brute\n"
        "from .p4_census import census\n"
        "import oracle_tools\n"
    )
    assert oracle_imports(source) == [1, 2, 3, 4, 5]


def test_only_the_cli_and_the_package_namespace_import_the_oracles():
    """Brute force stays off the solve path: no algorithm module reaches ``oracles``."""
    found = {path.name: oracle_imports(path.read_text(encoding="utf-8")) for path in LIBRARY.glob("*.py")}
    assert found["cli.py"] and found["__init__.py"]
    assert [name for name, lines in found.items() if lines and name not in ("cli.py", "__init__.py")] == []


def unused_imports(source: str) -> list[str]:
    """Names a module-level import binds that the module never reads; ``__all__`` entries are read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_the_unused_import_detector_finds_each_form():
    source = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "import os.path\n"
        "import json as j\n"
        "from .graph_core import xv, yv as why\n"
        "from . import cli, oracles\n"
        "__all__ = ['oracles']\n"
        "def f():\n"
        "    import sys\n"
        "    return os.path.join(xv(0), cli)\n"
    )
    assert unused_imports(source) == ["heapq", "j", "why"]
    graph_core = (LIBRARY / "graph_core.py").read_text(encoding="utf-8")
    assert unused_imports("import heapq\n" + graph_core) == ["heapq"]


def test_every_module_level_import_in_the_library_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in LIBRARY.glob("*.py")}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


DECLARED = (3, 10)  # pyproject.toml's requires-python


def parses_as(source: str, version: tuple[int, int]) -> bool:
    """Whether the source is valid syntax for that Python version, as far as ``ast`` can tell."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


def test_the_version_rule_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert parses_as(source, (3, 11)) and not parses_as(source, DECLARED)
    assert 'requires-python = ">=3.10"' in (LIBRARY.parents[1] / "pyproject.toml").read_text(encoding="utf-8")


def test_the_library_parses_as_the_python_version_it_declares():
    files = sorted(LIBRARY.glob("*.py"))
    assert len(files) > 5
    assert [path.name for path in files if not parses_as(path.read_text(encoding="utf-8"), DECLARED)] == []


# The names of the (pair index, state) keys that once crossed modules, and the flag that let the
# feedback-arc-set core skip its range check: arcs now leave graph_core as pair indices.  Then the
# listed-set layer and its flag for repeats: check_fas_pairs' optional spell marks a listed set.
REMOVED = (
    "key_arcs", "cycle_keys", "check_fas_keys", "check_packing_keys", "arc_keys", "_arc_keys", "checked",
    "check_fas_listed", "repeats",
)


def name_uses(source: str, name: str) -> list[int]:
    """Lines that use ``name``: a call, any other read of it or of an attribute so named, or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == name for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_the_name_use_detector_finds_each_form():
    source = (
        "from .graph_core import pair_state as ps\n"
        "keys = [pair_state(m, n, *arc) for arc in arcs]\n"
        "key = graph_core.pair_state(m, n, tail, head)\n"
        "keys = map(pair_state, tails, heads)\n"
        "import btfas.graph_core.pair_state\n"
        "'''pair_state in a docstring'''  # pair_state in a comment\n"
        "pair_states = HeldArcs.keys(graph, arcs)\n"
        "def pair_state_of(x):\n"
        "    return x\n"
    )
    assert name_uses(source, "pair_state") == [1, 2, 3, 4, 5]
    certify = (LIBRARY / "certify.py").read_text(encoding="utf-8")
    assert name_uses(certify, "cycle_pairs") and not name_uses(certify, "pair_state")


def identifiers(source: str) -> set[str]:
    """Every name the source reads, binds, defines, imports or passes as a keyword, each attribute
    as ``owner.attr`` when its owner is a plain name, and each method as ``Class.method``;
    docstrings and comments are not read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef))
        for field in ("id", "attr", "name", "arg"):
            if isinstance(getattr(node, field, None), str):
                found.add(getattr(node, field))
    return found


def test_the_identifier_detector_finds_each_form():
    source = (
        "from .graph_core import key_arcs as k\n"
        "class HeldArcs:\n"
        "    def keys(self, checked=False):\n"
        "        return f(checked=checked)\n"
        "x = HeldArcs.pairs_of(graph, arcs)  # cycle_keys in a comment\n"
        "'''check_fas_keys in a docstring'''\n"
    )
    found = identifiers(source)
    assert {"key_arcs", "HeldArcs.keys", "keys", "checked", "HeldArcs.pairs_of", "f"} <= found
    assert not {"cycle_keys", "check_fas_keys", "k.keys"} & found


def test_only_graph_core_converts_between_arcs_and_keys():
    """The guard on pair indices: only graph_core uses pair_state, the one source of (pair index,
    state) keys, and no library module names a removed key helper, ``HeldArcs.keys``, ``checked``,
    ``check_fas_listed`` or ``repeats``."""
    found = {path.name: name_uses(path.read_text(encoding="utf-8"), "pair_state") for path in LIBRARY.glob("*.py")}
    assert len(found) > 5 and found["graph_core.py"]
    assert {module: lines for module, lines in found.items() if lines and module != "graph_core.py"} == {}
    names = {path.name: identifiers(path.read_text(encoding="utf-8")) for path in LIBRARY.glob("*.py")}
    assert "HeldArcs.pairs_of" in names["graph_core.py"] and "_Tokens.arc_pairs" in names["cli.py"]
    removed = {*REMOVED, "HeldArcs.keys", "_Tokens.arc_keys"}
    assert {module: sorted(found & removed) for module, found in names.items() if found & removed} == {}


def test_the_feedback_arc_set_paths_name_no_arc_state():
    """solve and fas_c4free carry their feedback arc sets as pairs: neither module names TO_X or TO_Y."""
    graph_core = (LIBRARY / "graph_core.py").read_text(encoding="utf-8")
    assert name_uses(graph_core, "TO_X") and name_uses(graph_core, "TO_Y")
    for module in ("fas_engine.py", "c4free_fas.py"):
        source = (LIBRARY / module).read_text(encoding="utf-8")
        assert (module, name_uses(source, "TO_X"), name_uses(source, "TO_Y")) == (module, [], [])
