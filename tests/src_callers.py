"""The package's functions, classes and methods that no package code refers to.

Usage, from any directory:

    python tests/src_callers.py

Every module of `src/volterra_control` but `__init__.py` is parsed with `ast`.
A definition counts as referred to when its name appears in some module as a
name or as an attribute, wherever that is: a call, a decorator, an annotation or
a bare read. The definition itself is no reference, and neither are the
exports of `__init__.py`. Dunder methods are called by Python, so they are
left out. The script prints one line per definition with no reference
(module, line, qualified name) and their count, sorted by name. It reads no
test and always exits 0: a name on the list may be test-only API that its
docstring gives a reason for.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "volterra_control"


def definitions(tree: ast.Module):
    """(qualified name, name, line) of each top-level function and class and of
    each method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def main() -> int:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    referenced = set().union(*map(referenced_names, modules.values()))
    unread = sorted(
        (name, f"{module}.py:{line}", qualname)
        for module, tree in modules.items()
        for qualname, name, line in definitions(tree)
        if name not in referenced and not (name.startswith("__") and name.endswith("__")))
    for _, where, qualname in unread:
        print(f"{where:<22} {qualname}")
    print(f"{len(unread)} definitions with no reference in src/ outside __init__.py")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
