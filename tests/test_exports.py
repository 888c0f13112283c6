"""Every name that ``vvtheta`` exports is used by the engine or the bench,
and every error class is raised by the engine.

A name whose only callers are its own tests is dead weight in the public
surface; this test keeps the export list honest.  A use is an ``ast.Name``
or an ``ast.Attribute`` in a module of ``src/vvtheta`` other than
``__init__.py``, or in a file under ``bench/``; a mention in a docstring or
comment does not count.  Likewise an error class counts as raised only when
a ``raise`` statement in ``src/vvtheta`` names it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vvtheta"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module != "errors"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_CLI_NAMES"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _used_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_an_engine_caller():
    exported = _exported_names()
    assert "run_scenario" in exported and "siegel_theta" in exported
    assert sorted(exported - _used_names()) == []


def _raised_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "VvthetaError"
                       for b in node.bases)}
    assert "ParseError" in classes and "BoundTooLarge" in classes
    assert sorted(classes - _raised_names()) == []
