"""The library's public surface is what a command, a demo or the benchmark reaches.

Every public top-level ``def`` or ``class`` in ``src/dualitylab``, and every
public method of a top-level class (dunders excluded), must be referenced
somewhere in ``src/`` besides its own definition and the ``__init__.py``
re-export, or in ``demos/`` or ``perfbench/``.  Tests do not count: a name
that only tests call belongs in the test that uses it.

The match is by name, as a whole word of the source text.  So a name that
also appears in a comment or a docstring counts as reached, and so does a
method that shares its name with a used one (a ``basis`` method on a second
class would pass on ``HopfAlgebra.basis``'s calls).  The guard finds names
that nothing mentions; it cannot prove that a mentioned name is called.

No linter runs on the library, so two more checks stand in for rules of one:
a module other than ``__init__.py`` may not import a name it never uses, and
every private top-level ``def``, ``class`` or constant must be used in
``src/`` outside its own definition.  Use here is by the syntax tree, a name
loaded or an attribute read, so a docstring or comment that still names a
helper whose last caller is gone does not keep it.

One boundary is pinned the same way: how a scalar is stored is known to
``scalars.py`` alone.  No other module reads the exact backend's root table
(an attribute named ``_log`` or ``_mono``); each backend reads its own values
(``read``), and ``hopf.py`` tells the backends apart by ``exact``, never by
comparing a ``.name``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dualitylab").glob("*.py"))
LIBRARY = [p for p in SOURCES if p.name != "__init__.py"]
CALLERS = sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def public_names(tree):
    """Qualified and bare name of each public top-level def/class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_is_reached_outside_tests():
    words = Counter()
    definitions = Counter()
    public = []
    for path in LIBRARY:
        text = path.read_text(encoding="utf-8")
        words.update(re.findall(r"\w+", text))
        tree = ast.parse(text)
        definitions.update(
            node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        public += [(f"{path.name}: {qualified}", bare) for qualified, bare in public_names(tree)]
    for path in CALLERS:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert public
    unreached = [where for where, bare in public if words[bare] <= definitions[bare]]
    assert unreached == [], f"public names only tests reach: {unreached}"


def imported_names(tree):
    """Each name a module's imports bind, with its line (``from __future__`` excluded)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"imported but never used: {unused}"


def private_definitions(node):
    """The private names a top-level statement defines: a def or class, or a constant it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used_in_src():
    defined = []
    used = Counter()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            used.update(names)
            defined += [(f"{path.name}: {name}", name, name in names) for name in private_definitions(node)]
    assert defined
    # a use inside the name's own definition, as in a recursive def, does not count
    unused = [where for where, name, own in defined if used[name] <= own]
    assert unused == [], f"private names nothing in src/ uses: {unused}"


def test_only_the_scalars_module_reads_how_a_scalar_is_stored():
    reaching = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "scalars.py":
            reaching += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr in ("_log", "_mono")]
        if path.name == "hopf.py":
            reaching += [f"{path.name}:{node.lineno}: compares .name" for node in ast.walk(tree)
                         if isinstance(node, ast.Compare)
                         and any(isinstance(x, ast.Attribute) and x.attr == "name" for x in [node.left, *node.comparators])]
    assert reaching == [], f"reads past the backends' own operations: {reaching}"
