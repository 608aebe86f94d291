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
