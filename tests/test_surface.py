"""Every definition of the package has a caller in it, and no body is twice.

Code that only the tests reach is a second surface to keep working with no
user of it; the package deletes such code instead.  Nor does it write one
job out twice: ``duplicated`` finds two functions or methods whose bodies
match once docstrings are dropped and argument and local names renamed.

The caller check walks the syntax trees of ``src/ulrich`` and checks that
each top-level function or class, and each method whose name is not a
dunder, is referenced somewhere in the package outside its own definition.  Dunder methods, and the module-level
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
is covered by every ``P.dimension`` in the package.  A function nested in
another (a closure of ``search._walk``, a helper of ``search._node``) must
be read by name in its enclosing function, outside its own body.
"""

from __future__ import annotations

import ast
import collections
import copy
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


def _nested(node: ast.AST):
    """The functions defined in ``node``'s body and not inside another
    function or class of it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.ClassDef):
            yield from _nested(child)


def _reads(node: ast.AST, name: str) -> int:
    """How often ``name`` is read as a bare name under ``node``."""
    return sum(isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
               and sub.id == name for sub in ast.walk(node))


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
        for qualname, outer in _functions(tree, ""):
            for inner in _nested(outer):
                if _reads(outer, inner.name) == _reads(inner, inner.name):
                    missing.add((module, f"{qualname}.{inner.name}"))
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


def test_nested_functions_need_a_read_in_their_enclosing_function():
    # A closure that only calls itself, or whose name is read only outside
    # the function that defines it, has no caller; a read in a sibling
    # closure or a method's own body keeps one alive.
    source = ("def walk():\n    def place(b):\n        return place(b)\n"
              "    def push(b):\n        pass\n"
              "    def descend(b):\n        push(b)\n"
              "    def pop(b):\n        pass\n"
              "    return descend\n"
              "class C:\n    def run(self):\n        def step():\n"
              "            pass\n        def lost():\n            pass\n"
              "        step()\n"
              "walk()\nC().run()\npop(1)\nlost()\n")
    assert unreferenced({"m": source}) == {
        ("m", "walk.place"), ("m", "walk.pop"), ("m", "C.run.lost")}


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


# Bodies smaller than this many syntax nodes (a property that returns a
# field, a one-line delegation) may repeat.
DUPLICATE_FLOOR = 25


def _normal_form(node: ast.FunctionDef) -> tuple[str, int]:
    """A function's syntax tree, free of its name and its docstring, with
    its arguments and local names renamed in order of appearance; and the
    number of nodes in that tree."""
    node = copy.deepcopy(node)
    node.name = "_"
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        node.body = body[1:] or [ast.Pass()]
    arguments = node.args
    local = {arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                 *arguments.kwonlyargs, arguments.vararg,
                                 arguments.kwarg) if arg}
    local |= {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
              and not isinstance(sub.ctx, ast.Load)}
    renamed = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg) and sub.arg in local:
            sub.arg = renamed.setdefault(sub.arg, f"v{len(renamed)}")
        elif isinstance(sub, ast.Name) and sub.id in local:
            sub.id = renamed.setdefault(sub.id, f"v{len(renamed)}")
    return ast.dump(node), sum(1 for _ in ast.walk(node))


def _functions(node: ast.AST, prefix: str):
    """(qualified name, node) of every function and method under ``node``,
    nested ones included."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (*functions, ast.ClassDef)):
            name = f"{prefix}.{child.name}" if prefix else child.name
        if isinstance(child, functions):
            yield name, child
        yield from _functions(child, name)


def duplicated(sources=None) -> list[list[str]]:
    """Groups of two or more functions with one normal form of at least
    ``DUPLICATE_FLOOR`` nodes, as sorted "module.qualname" lists.

    ``sources`` maps module names to their source text; the default is the
    modules of the package.
    """
    if sources is None:
        sources = {path.stem: path.read_text()
                   for path in sorted(PACKAGE.glob("*.py"))}
    forms = collections.defaultdict(list)
    for module, text in sources.items():
        for name, node in _functions(ast.parse(text, module), module):
            form, size = _normal_form(node)
            if size >= DUPLICATE_FLOOR:
                forms[form].append(name)
    return sorted(sorted(names) for names in forms.values() if len(names) > 1)


def test_no_two_functions_share_a_body():
    assert duplicated() == []


def test_duplicate_scan_sees_a_renamed_copy():
    # A method and a function that differ in names and docstring only.
    source = ("def squares(owner, values):\n    \"\"\"Doc.\"\"\"\n"
              "    total = 0\n    for item in values:\n"
              "        total += item * item - values[0]\n    return total\n"
              "class C:\n    def again(self, xs):\n        acc = 0\n"
              "        for x in xs:\n            acc += x * x - xs[0]\n"
              "        return acc\n"
              "def small(a):\n    return a\n"
              "def tiny(b):\n    return b\n")
    assert duplicated({"m": source}) == [["m.C.again", "m.squares"]]
    # A global name is not renamed, so reading another one differs.
    other = source.replace("total += item", "total += len")
    assert duplicated({"m": other}) == []
