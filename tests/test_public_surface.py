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

No linter runs on the library, so a second check stands in for one rule of
it: a module other than ``__init__.py`` may not import a name it never uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "dualitylab").glob("*.py") if p.name != "__init__.py")
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
