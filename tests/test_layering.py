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


# the package's layers, bottom up: a module imports only from layers below
# its own.  The Struve functions of the 2D tail are e^{-y} integrals, so they
# live in green, above quadrature, and not in specfun below it
LAYERS = [{"errors"}, {"specfun"}, {"kernels", "quadrature"}, {"green", "oracle"},
          {"scattering"}, {"diagnostics"}, {"cli"}]


def _package_imports(path):
    """The package modules a module imports from, at any depth of its code;
    ``from . import name`` of a name that is not a module is ``__init__``."""
    modules = {p.stem for p in SRC.glob("*.py")}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level and node.module:
            yield node.module
        elif node.level:
            yield from (a.name if a.name in modules else "__init__" for a in node.names)
        elif node.module.startswith("frachelm."):
            yield node.module.split(".")[1]


def test_imports_point_down_the_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    stems = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert stems == set(rank), "every module belongs to one layer"
    upward = [f"{path.stem} imports {target}"
              for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
              for target in _package_imports(path)
              # cli echoes the package's __version__
              if not (path.stem == "cli" and target == "__init__")
              and not rank[target] < rank[path.stem]]
    assert upward == []


def _private_definitions(tree):
    """(name, statement) of each module-level private name: a function, a
    class or an assigned constant whose name starts with one underscore."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _references(node):
    """Names a piece of code reads: loaded names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_dead_private_helpers():
    # every module-level private name is used somewhere in the package
    # outside its own definition
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    stmts = [stmt for tree in trees.values() for stmt in tree.body]
    refs = [set(_references(stmt)) for stmt in stmts]
    dead = [f"{stem}.{name}" for stem, tree in trees.items()
            for name, own in _private_definitions(tree)
            if not any(name in used for stmt, used in zip(stmts, refs) if stmt is not own)]
    assert dead == []


def _builds_spec(node):
    return any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "QuadratureSpec"
               for sub in ast.walk(node))


def test_one_module_level_quadrature_spec():
    # every Green quantity runs at the spec it is given, DEFAULT_SPEC unless
    # told otherwise: the package builds no second spec at import, in a
    # module-level statement or a default argument
    built = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                # of a function, only the signature runs at import
                if _builds_spec(stmt.args):
                    built.append(f"{path.stem}.{stmt.name}()")
            elif not isinstance(stmt, ast.ClassDef) and _builds_spec(stmt):
                built.append(f"{path.stem}.{ast.unparse(stmt).split(' =')[0]}")
    assert built == ["quadrature.DEFAULT_SPEC"]
