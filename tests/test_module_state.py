"""No module of ``src/vvtheta`` keeps a process-wide store, apart from the
memo caches of pure functions listed here, and no object grows a store
through a cached property, apart from the two listed here.

A module-level binding to an empty ``{}`` or ``[]``, or to a call of a
container type, is state that outlives every call: a term table kept there
would make a call's cost depend on what ran before it in the process, and
would outlive its run.  Term tables are kept on the ``GrassmannPoint`` they
are built on (``theta.ThetaFamily``).  The caches below are keyed by value,
hold the results of pure functions of immutable inputs, and are small.

A ``@cached_property`` that returns an empty ``{}`` or ``[]`` hangs a store
off its object, which then lives as long as the object does.
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

#: the allowed cached properties that return an empty store, each with why
#: it may stay
_GROUP_STORE = ("groups live process-wide in discforms._DISC_CACHE; ROADMAP item 16 "
                "removes these stores")
ALLOWED_PROPERTIES = {
    "discforms.DiscriminantGroup.weil_matrices": _GROUP_STORE,
    "discforms.DiscriminantGroup.t_phases": _GROUP_STORE,
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


def _is_cached_property(node) -> bool:
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               == "cached_property" for d in node.decorator_list)


def _property_stores(tree, stem: str):
    """Every Class.method of ``tree`` decorated ``cached_property`` whose body
    returns an empty container, as "module.Class.method"."""
    found = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.FunctionDef) and _is_cached_property(node)
                    and any(isinstance(r, ast.Return) and r.value is not None
                            and _is_container(r.value) for r in ast.walk(node))):
                found.add(f"{stem}.{cls.name}.{node.name}")
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


def test_cached_property_stores_are_the_allowed_ones():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= _property_stores(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(ALLOWED_PROPERTIES)


def test_the_scan_sees_a_cached_property_store():
    source = """
class A:
    @cached_property
    def store(self):
        return {}

    @functools.cached_property
    def rows(self):
        return []

    @cached_property
    def table(self):
        return {1: 2}

    def plain(self):
        return {}
"""
    assert _property_stores(ast.parse(source), "m") == {"m.A.store", "m.A.rows"}


#: the methods of theta.Residual that may construct one from a computed
#: certificate: from a difference's tail (of), or from other residuals (worst)
RESIDUAL_BUILDERS = {"of", "worst"}


def _residual_constructions(tree):
    """Every construction of a Residual in ``tree`` that neither sits in one
    of RESIDUAL_BUILDERS nor passes the literal certificate 0.0 (a check
    that reads no term table), as (line, enclosing function) pairs."""
    found = []

    def visit(node, function, in_residual):
        if isinstance(node, ast.ClassDef):
            in_residual = node.name == "Residual"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            builder = in_residual and function in RESIDUAL_BUILDERS
            if name == "Residual" or (name == "cls" and in_residual):
                certificate = ([k.value for k in node.keywords if k.arg == "certificate"]
                               + node.args[1:2])
                exact_zero = (len(certificate) == 1 and isinstance(certificate[0], ast.Constant)
                              and certificate[0].value == 0.0)
                if not (builder or exact_zero):
                    found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_residual)

    visit(tree, None, False)
    return found


def test_residuals_are_built_from_tails_only():
    # no residual function sums a certificate by hand: a residual of two
    # truncated sides is Residual.of their difference, whose tail the weil
    # operations carried, and only the table-free checks pass 0.0
    found = {path.stem: _residual_constructions(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    assert {stem: hits for stem, hits in found.items() if hits} == {}


def test_the_scan_sees_a_hand_summed_certificate():
    source = """
class Residual(float):
    @classmethod
    def of(cls, diff):
        return cls(diff.norm_inf(), diff.tail)

    @classmethod
    def scaled(cls, r, k):
        return cls(r, r.certificate * k)

def check(a, b):
    ok = Residual(0.5, 0.0)
    also_ok = theta.Residual(0.5, certificate=0.0)
    return Residual(abs(a - b), a.tail + b.tail), theta.Residual(1.0, certificate=1e-9)
"""
    assert _residual_constructions(ast.parse(source)) == [(9, "scaled"), (14, "check"),
                                                          (14, "check")]
