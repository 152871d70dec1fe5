"""Every function, class and method of the package has a caller in it.

Code that only the tests reach is a second surface to keep working with no
user of it; the package deletes such code instead.  This walks the syntax
trees of ``src/ulrich`` and checks that each top-level function or class,
and each method whose name is not a dunder, is referenced somewhere in the
package outside its own definition.  Dunder methods, and the module-level
PEP 562 hooks ``__getattr__`` and ``__dir__``, are exempt: the interpreter
calls them.

A module-level function or class ``f`` of module ``mod`` is referenced only
by a read that resolves to it:

* a bare ``f`` in ``mod`` itself (a call, a default, a decorator);
* ``alias.f`` in a module where ``from . import mod [as alias]`` binds
  ``alias``;
* a bare ``g`` in a module where ``from .mod import f [as g]`` binds ``g``.

So a ``list.extend(...)`` does not keep a function ``extend`` alive.  An
import is not a reference, so a re-export in ``__init__`` keeps nothing
alive either.  Methods are matched by name, not binding: any ``ast.Name``
or ``ast.Attribute`` of the name counts, so a stray ``dimension`` property
is covered by every ``P.dimension`` in the package.
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


def _bindings(tree: ast.Module, modules):
    """The sibling modules and the imported names a module binds.

    Returns ({alias: mod} for each ``from . import mod [as alias]``,
    {local: (mod, name)} for each ``from .mod import name [as local]``),
    over the whole module, function-level imports included.
    """
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None and alias.name in modules:
                aliases[local] = alias.name
            elif node.module in modules:
                imported[local] = (node.module, alias.name)
    return aliases, imported


def _module_refs(node: ast.AST, module: str, bindings) -> collections.Counter:
    """How often each (module, name) is read under ``node`` of ``module``,
    resolved by the three rules of the module docstring."""
    aliases, imported = bindings
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[imported.get(sub.id, (module, sub.id))] += 1
        elif (isinstance(sub, ast.Attribute)
              and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            found[aliases[sub.value.id], sub.attr] += 1
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


def unreferenced(sources=None) -> set[tuple[str, str]]:
    """(module, qualified name) of every definition nothing else names.

    ``sources`` maps module names to their source text; the default is the
    modules of the package.
    """
    if sources is None:
        sources = {path.stem: path.read_text()
                   for path in sorted(PACKAGE.glob("*.py"))}
    trees = {module: ast.parse(text, module)
             for module, text in sources.items()}
    bindings = {module: _bindings(tree, trees)
                for module, tree in trees.items()}
    everywhere = sum((_names(tree) for tree in trees.values()),
                     collections.Counter())
    resolved = sum((_module_refs(tree, module, bindings[module])
                    for module, tree in trees.items()),
                   collections.Counter())
    missing = set()
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if qualname == name:
                key = module, name
                inside = _module_refs(node, module, bindings[module])[key]
                left = resolved[key] - inside
            else:
                left = everywhere[name] - _names(node)[name]
            if left == 0:
                missing.add((module, qualname))
    return missing


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == ALLOWED


def test_scan_sees_a_definition_without_a_caller():
    # A self-recursive function names itself only inside its own body.
    found = unreferenced({"m": "def lonely(n):\n    return lonely(n - 1)\n"
                               "def used():\n    pass\nused()\n"})
    assert found == {("m", "lonely")}


def test_scan_resolves_module_level_names():
    # A list's extend is no reference to a function extend; the module's
    # own bare name, an aliased module attribute and an imported name are.
    lib = "def extend(x):\n    pass\n"
    assert unreferenced({"lib": lib, "user": (
        "from . import lib\nitems = []\nitems.extend([1])\n")}) == {
            ("lib", "extend")}
    for user in ["from . import lib\nlib.extend(1)\n",
                 "from . import lib as other\nother.extend(1)\n",
                 "from .lib import extend\nextend(1)\n",
                 "from .lib import extend as grow\ngrow(1)\n"]:
        assert unreferenced({"lib": lib, "user": user}) == set(), user
    assert unreferenced({"lib": lib + "extend(2)\n"}) == set()
    # An import alone is not a reference, nor is an attribute of another
    # module or a bare name in another module.
    for user in ["from .lib import extend\n",
                 "from . import core\ncore.extend(1)\n",
                 "extend(1)\n"]:
        assert unreferenced({"lib": lib, "user": user}) == {
            ("lib", "extend")}, user


def test_methods_are_matched_by_name():
    source = ("class C:\n    def helper(self):\n        pass\n"
              "    def lonely(self):\n        return self.lonely()\n"
              "def f(x):\n    return x.helper()\nf(C())\n")
    assert unreferenced({"m": source}) == {("m", "C.lonely")}


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
