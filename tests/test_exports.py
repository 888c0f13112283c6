"""Every name that ``vvtheta`` exports is used by the engine or the bench.

A name whose only callers are its own tests is dead weight in the public
surface; this test keeps the export list honest.  A use is an ``ast.Name``
or an ``ast.Attribute`` in a module of ``src/vvtheta`` other than
``__init__.py``, or in a file under ``bench/``; a mention in a docstring or
comment does not count.
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
