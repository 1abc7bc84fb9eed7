"""`src/moscl` holds only the program.  Every top-level function and class
there, and every method (dunders aside), is named by the program or by the
benchmark outside its own definition.  Code that only tests call belongs in
`tests/`, as the closed-form oracles in `oracles.py` do."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

# Reached by name from outside the code: the layer boundaries the benchmark
# traces, and the perturbation stream the README gives as its reference.
ALLOWED = {(module, attr) for module, attr, _ in tracing.TARGETS} | {
    ("uncertainty", "perturbations")
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _span(node):
    """First and last line of a definition, its decorators included."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(identifier, line) of every name and attribute the module uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno


def test_every_definition_in_src_is_named_by_the_program_or_the_benchmark():
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "moscl").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
    }
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path in sorted((ROOT / "src" / "moscl").glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            if (path.stem, qualname) in ALLOWED:
                continue
            first, last = _span(node)
            named = any(
                ident == node.name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ident, line in found
            )
            if not named:
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"defined in src/moscl but named only by tests: {unused}"
