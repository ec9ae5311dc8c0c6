"""Every function, class and method in the package is used outside the tests.

What only the tests need lives in ``tests/helpers.py``.  A name defined in
``src/tridom`` counts as used if it appears as an identifier elsewhere in
the package (outside its own definition), as an identifier or string
constant in ``bench/*.py`` (so ``spans.LAYERS`` counts) or ``demos/*.py``,
or as a word in ``README.md``.  Every file is parsed or read, never
imported or executed, so the check writes nothing under bench/ or demos/.
It matches names, not owners: a method passes when any use of its name is
found, so a method that shares its name with a used one (as
``Triangulation.degree`` shared ``Graph.degree``) needs a look by hand.
"""

import ast
import glob
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _identifiers(tree):
    """Every identifier a tree reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes
    that are not dunders, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item


def test_every_library_name_is_used_outside_the_tests():
    package = [_parse(p) for p in sorted(glob.glob(os.path.join(ROOT, "src", "tridom", "*.py")))]
    in_package = Counter(name for tree in package for name in _identifiers(tree))
    outside = set()
    for pattern in ("bench/*.py", "demos/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            tree = _parse(path)
            outside.update(_identifiers(tree))
            outside.update(node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant) and isinstance(node.value, str))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        outside.update(re.findall(r"\w+", fh.read()))
    defined = [(name, node) for tree in package for name, node in _definitions(tree)]
    assert len(defined) > 100
    unused = sorted(name for name, node in defined
                    if name not in outside
                    and in_package[name] == Counter(_identifiers(node))[name])
    assert unused == [], f"defined in src/tridom but used only by the tests: {unused}"
