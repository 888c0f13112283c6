"""No module of ``src/vvtheta`` keeps a process-wide store, apart from the
memo caches of pure functions listed here.

A module-level binding to an empty ``{}`` or ``[]``, or to a call of a
container type, is state that outlives every call: a term table kept there
would make a call's cost depend on what ran before it in the process, and
would outlive its run.  Term tables are kept on the ``GrassmannPoint`` they
are built on (``theta.ThetaFamily``).  The caches below are keyed by value,
hold the results of pure functions of immutable inputs, and are small.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vvtheta"

#: the allowed module-level containers, each with why it may stay
ALLOWED = {
    "discforms._DISC_CACHE": "discriminant_group by lattice value",
    "theta._SPLIT_CACHE": "split_data by (lattice, sublattice basis) value",
    "theta._SIEGEL_COSETS": "a Siegel theta's cosets by lattice value",
    "grassmann._ZERO_PAIRS": "the zero VectorPair of each rank",
}

#: container calls other than those of a mapping type (any name with "dict")
_CONTAINERS = {"list", "set", "deque"}


def _is_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name is not None and ("dict" in name.lower() or name in _CONTAINERS)
    return False


def _module_containers():
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_container(value):
                found.update(f"{path.stem}.{t.id}" for t in targets
                             if isinstance(t, ast.Name))
    return found


def test_module_level_containers_are_the_allowed_caches():
    assert sorted(_module_containers()) == sorted(ALLOWED)


def test_the_scan_sees_every_kind_of_binding():
    # a store of each form the scan looks for is found
    sources = ["_A = {}", "_A: dict = {}", "_A = []", "_A = dict()", "_A = set()",
               "_A = collections.defaultdict(list)", "_A = weakref.WeakKeyDictionary()"]
    for source in sources:
        (node,) = ast.parse(source).body
        assert _is_container(node.value), source
    for source in ["_A = {1: 2}", "_A = (1, 2)", "_A = 3", "_A = frozenset()"]:
        (node,) = ast.parse(source).body
        assert not _is_container(node.value), source
