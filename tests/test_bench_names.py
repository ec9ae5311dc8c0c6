"""The names the benchmark harness reaches in the package still resolve.

``bench/spans.py`` wraps the functions of its ``LAYERS`` table by name when a
run is traced, and ``bench/run.py`` calls builders and solvers through the
package's modules; no other test runs either path.  Both files are parsed
here, never imported or executed, so the check writes nothing under bench/.
"""

import ast
import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _parse(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _dotted(node):
    """'a.b.c' for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    value = importlib.import_module("tridom." + module)
    for attr in attrs:
        value = getattr(value, attr)
    return value


def test_traced_layers_resolve():
    layers = next(ast.literal_eval(node.value) for node in ast.walk(_parse("spans.py"))
                  if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS")
    assert len(layers) >= 10
    for module, attr, _, _ in layers:
        assert callable(_resolve(f"{module}.{attr}")), (module, attr)


def test_names_the_harness_calls_resolve():
    tree = _parse("run.py")
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tridom"
               for alias in node.names}
    assert modules == {"census", "domination", "families", "planar"}
    called = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    called = {name for name in called if name and name.split(".")[0] in modules}
    assert called >= {"families.FamilySpec", "families.family_base.cache_clear",
                      "planar.underlying_graph", "domination.exact_gamma_c",
                      "domination.exact_gamma", "census.census_records",
                      "census.levels_from_planar_code"}
    for name in called:
        assert callable(_resolve(name)), name
