"""Module boundaries: no module of the package imports another's private names
beyond a short, explicit list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frachelm"

# (importing module, private name): the shift resolution shared by the Green
# assembly and the oracle, and the e^{-y} engine the Green tail calls (the
# benchmark's tracer wraps it under that name in ``green``)
ALLOWED = {("green", "_resolve_shift"), ("oracle", "_resolve_shift"),
           ("green", "_exp_weighted_batch")}


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("frachelm")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield path.stem, alias.name


def test_no_new_cross_module_private_imports():
    found = {pair for path in sorted(SRC.glob("*.py")) for pair in _private_imports(path)}
    assert found - ALLOWED == set()
