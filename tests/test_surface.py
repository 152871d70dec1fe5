"""Every function, class and method of the package has a caller in it.

Code that only the tests reach is a second surface to keep working with no
user of it; the package deletes such code instead.  This walks the syntax
trees of ``src/ulrich`` and checks that each top-level function or class,
and each method whose name is not a dunder, is named somewhere in the
package outside its own definition, as an ``ast.Name`` (a call, a default,
a decorator) or an ``ast.Attribute`` (``module.f``, ``obj.method``).
Dunder methods, and the module-level PEP 562 hooks ``__getattr__`` and
``__dir__``, are exempt: the interpreter calls them.

The scan matches names, not bindings, so it cannot catch a member whose
name is also used for something else: a stray ``dimension`` property is
covered by every ``P.dimension`` in the package.  An import is not a
reference, so a re-export in ``__init__`` keeps nothing alive.
"""

from __future__ import annotations

import ast
import collections
import pathlib

import ulrich

PACKAGE = pathlib.Path(ulrich.__file__).parent

# Module-level functions the interpreter calls on attribute lookup and
# dir() of a module (PEP 562).
MODULE_HOOKS = {"__getattr__", "__dir__"}

# Callers outside the package that the package itself does not have.
ALLOWED = {
    # The Bott-vanishing Ulrich test, kept independent of the meeting-time
    # kernel so that it can check it: the benchmark's verdict workload and
    # the test suite compare the two on every partition they build.  No CLI
    # command prints it yet.
    ("geometry", "is_ulrich_via_bwb"),
}


def _names(node: ast.AST) -> collections.Counter:
    """How often each identifier is read as a Name or an Attribute."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions(tree: ast.Module):
    """(qualified name, simple name, node) of each definition checked."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or (
                not isinstance(node, ast.ClassDef)
                and node.name in MODULE_HOOKS):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced() -> set[tuple[str, str]]:
    """(module, qualified name) of every definition nothing else names."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()),
                     collections.Counter())
    missing = set()
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if everywhere[name] - _names(node)[name] == 0:
                missing.add((module, qualname))
    return missing


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == ALLOWED


def test_scan_sees_a_definition_without_a_caller():
    # A self-recursive function names itself only inside its own body.
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n"
                     "def used():\n    pass\nused()\n")
    [(_, _, lonely), (_, _, used)] = _definitions(tree)
    total = _names(tree)
    assert total["lonely"] - _names(lonely)["lonely"] == 0
    assert total["used"] - _names(used)["used"] == 1


def test_scan_exempts_module_hooks_and_nothing_else():
    # The PEP 562 hooks are exempt at module level only, and no other
    # module-level dunder is: a class of that name, or __init__, is checked.
    tree = ast.parse("def __getattr__(name):\n    pass\n"
                     "def __dir__():\n    pass\n"
                     "def __init__():\n    pass\n"
                     "class __dir__:\n    pass\n"
                     "class C:\n    def __getattr__(self, name):\n"
                     "        pass\n    def helper(self):\n        pass\n")
    assert [qualname for qualname, _, _ in _definitions(tree)] == [
        "__init__", "__dir__", "C", "C.helper"]
