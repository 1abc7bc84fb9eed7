"""`src/moscl` holds only the program.  Every top-level function, class and
assigned name there, and every method (dunders aside), is named by the
program or by the benchmark outside its own definition.  Code and constants
that only tests use belong in `tests/`, as the closed-form oracles in
`oracles.py` do.  Every name a module of `src/moscl` or `tests/` imports is
used in that module, so the package root re-exports nothing and a moved
helper leaves no import behind."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

# Reached by name from outside the code: the layer boundaries the benchmark
# traces.
ALLOWED = {(module, attr) for module, attr, _ in tracing.TARGETS}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _span(node):
    """First and last line of a definition, its decorators included."""
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno


def _definitions(tree):
    """(qualified name, node) of each top-level function, class and assigned
    name and of each method, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, node
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not _dunder(item.name):
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
            name = qualname.rsplit(".", 1)[-1]
            first, last = _span(node)
            named = any(
                ident == name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ident, line in found
            )
            if not named:
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"defined in src/moscl but named only by tests: {unused}"


def _imported_names(tree):
    """(bound name, line) of every import in the module, `__future__`
    switches aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_import_in_src_and_tests_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "moscl").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    ):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert not unused, f"imported but never used: {unused}"
