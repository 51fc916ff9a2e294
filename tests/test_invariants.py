"""Result-guarding invariants raise ``BrokenInvariant``, so ``python -O`` keeps them."""

import ast
import importlib
import pathlib
from collections import Counter

import pytest

from conftest import PROCESS_CACHES
import ribboncalc
from ribboncalc import combclasses, errors, stable
from ribboncalc.errors import BrokenInvariant, RibbonError
from ribboncalc.ribbon import RibbonGraph, mark_all_holes, validate

PACKAGE = pathlib.Path(ribboncalc.__file__).parent
GUARDED = sorted(path.name for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", GUARDED)
def test_no_bare_assert(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has bare asserts on lines {lines}"


@pytest.mark.parametrize("name", GUARDED)
def test_no_unused_import(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        (line, binding)
        for binding, line in bound.items()
        if binding not in used and binding not in exported
    )
    assert unused == [], f"{name} imports names it never uses: {unused}"


# a RibbonGraph caches what these determine (orbits, sigma_inf, its least
# code, zone entries, a top cell's Pfaffian), which is sound only while no
# graph changes after __init__
GRAPH_FIELDS = {"sides", "sigma0", "sigma1", "sigma_inf"}
MUTATORS = {"update", "pop", "popitem", "clear", "setdefault"}


def _written(node):
    """The expressions a statement or call writes to, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.comprehension)):
        stack = [node.target]
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        stack = [node.optional_vars]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        stack = [node.func.value] if node.func.attr in MUTATORS else []
    else:
        return []
    out = []
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            out.append(target)
    return out


def graph_field_writes(tree):
    """Lines writing a graph field, or an entry of one, outside RibbonGraph.__init__."""
    lines = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if scope[-2:] != ("RibbonGraph", "__init__"):
            for target in _written(node):
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and target.attr in GRAPH_FIELDS:
                    lines.append(node.lineno if hasattr(node, "lineno") else target.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sorted(lines)


@pytest.mark.parametrize("name", GUARDED)
def test_no_graph_is_changed_after_construction(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = graph_field_writes(tree)
    assert lines == [], f"{name} writes a graph's permutations on lines {lines}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("g.sigma0[1] = 2", True),
        ("g.sigma1 = {}", True),
        ("g.sides += (7,)", True),
        ("a, g.sigma0[x] = 1, 2", True),
        ("del g.sigma1[3]", True),
        ("g.sigma_inf.update(p)", True),
        ("for g.sigma0[0] in xs: pass", True),
        ("class RibbonGraph:\n    def swap(self):\n        self.sigma1 = {}", True),
        ("s0 = dict(g.sigma0)\ns0[x] = 1", False),
        ("class RibbonGraph:\n    def __init__(self, s):\n        self.sigma0 = s", False),
    ],
)
def test_the_graph_write_check_sees_writes(source, flagged):
    assert bool(graph_field_writes(ast.parse(source))) == flagged


# who may write each RibbonGraph cache slot, or an entry of one: the forms
# layer keeps its metric-free results on the graph, and every other cache
# (sigma_inf, orbits, edges, components, the vertex map, the least code) is
# ribbon's, so a derived graph's known sigma_inf, the one cache a caller may
# hand in, goes through ribbon's constructor
CACHE_OWNERS = {"_zones": "degeneration", "_pfaffian": "plforms"}
CACHE_SLOTS = [slot for slot in RibbonGraph.__slots__ if slot.startswith("_")]


def cache_writes(tree, module):
    """Lines writing a graph cache slot, or an entry of one, outside its owner.

    ``RibbonGraph.__init__``, which starts every slot, is the one exception.
    """
    lines = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if scope[-2:] != ("RibbonGraph", "__init__"):
            for target in _written(node):
                while isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in CACHE_SLOTS
                    and CACHE_OWNERS.get(target.attr, "ribbon") != module
                ):
                    lines.append(node.lineno if hasattr(node, "lineno") else target.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sorted(lines)


@pytest.mark.parametrize("name", GUARDED)
def test_each_graph_cache_is_written_by_its_owner(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = cache_writes(tree, pathlib.Path(name).stem)
    assert lines == [], f"{name} writes another module's graph cache on lines {lines}"


@pytest.mark.parametrize(
    "source,module,flagged",
    [
        ("g._edges = []", "stable", True),
        ("g._sigma_inf = s", "degeneration", True),
        ("g._components, g._least = [], None", "clusters", True),
        ("g._zones.setdefault(o, e)", "stable", True),
        ("g._pfaffian = 1", "degeneration", True),
        ("g._zones[o] = e", "ribbon", True),
        ("g._edges = []", "ribbon", False),
        ("self._vertex_orbit_map = {}", "ribbon", False),
        ("g._zones[o] = e", "degeneration", False),
        ("g._pfaffian = 1", "plforms", False),
        ("RibbonGraph(s0, s1, xs, sigma_inf=s)", "stable", False),
        ("edges = g._edges", "stable", False),
        ("class RibbonGraph:\n  def __init__(self):\n    self._zones = None", "ribbon", False),
        ("class RibbonGraph:\n  def fill(self):\n    self._zones = {}", "ribbon", True),
    ],
)
def test_the_cache_owner_check_sees_writes(source, module, flagged):
    assert bool(cache_writes(ast.parse(source), module)) == flagged


def unused_locals(tree):
    """Lines of a plain ``name = ...`` in a function that never reads ``name``."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        shared = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        lines.extend(
            node.lineno
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and t.id not in read | shared | {"_"}
        )
    return sorted(set(lines))


@pytest.mark.parametrize("name", GUARDED)
def test_no_unused_local(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = unused_locals(tree)
    assert lines == [], f"{name} assigns locals it never reads on lines {lines}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("def f():\n    x = 1\n    return 2", True),
        ("def f(xs):\n    for x in xs:\n        y = x\n    return xs", True),
        ("def f():\n    x = 1\n    return x", False),
        ("def f():\n    x = 1\n    return lambda: x", False),
        ("def f():\n    d = {}\n    d[1] = 2", False),
        ("def f():\n    global x\n    x = 1", False),
        ("def f():\n    _ = 1", False),
        ("x = 1", False),
    ],
)
def test_the_unused_local_check_sees_them(source, flagged):
    assert bool(unused_locals(ast.parse(source))) == flagged


EMPTY_CONTAINERS = {"dict", "list", "set", "Counter", "defaultdict", "OrderedDict"}


def module_memos(tree):
    """Lines binding a module-level name to an empty mutable container.

    Such a name is a memo that the test fixture cannot clear; a process
    cache is a ``functools.cache`` function, which the fixture finds.
    """
    lines = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            empty = (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.List) and not value.elts
                or isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in EMPTY_CONTAINERS
                and (value.func.id == "defaultdict" or not (value.args or value.keywords))
            )
            if empty:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", GUARDED)
def test_no_module_level_memo(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = module_memos(tree)
    assert lines == [], f"{name} binds module-level mutable memos on lines {lines}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("_MEMO = {}", True),
        ("_MEMO: dict = {}", True),
        ("_SEEN = []", True),
        ("_SEEN = set()", True),
        ("_HITS = Counter()", True),
        ("_BY = defaultdict(list)", True),
        ("OPTS = dict(a=1)", False),
        ("NAMES = ['a', 'b']", False),
        ("TABLE = {1: 2}", False),
        ("LIMIT = 10", False),
        ("def f():\n    memo = {}\n    return memo", False),
    ],
)
def test_the_module_memo_check_sees_them(source, flagged):
    assert bool(module_memos(ast.parse(source))) == flagged


def cached_functions(tree, module):
    """Qualified names of the functions a ``functools.cache`` decorator wraps."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    out.add(f"{module}.{node.name}")
    return out


def test_the_fixture_clears_every_process_cache():
    # a cache on a method or a nested function would escape the fixture
    decorated = set()
    for name in GUARDED:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
        decorated |= cached_functions(tree, f"ribboncalc.{name.removesuffix('.py')}")
    cleared = {f"{f.__module__}.{f.__qualname__}" for f in PROCESS_CACHES}
    assert decorated == cleared


def _references(node):
    """How often each name is read, or looked up as an attribute, under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each method; dunder methods are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{node.name}.{item.name}", item


def uncalled_names(trees):
    """``module.name`` of each definition no code outside its own body refers to."""
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{qual}"
        for module, tree in trees.items()
        for qual, node in _definitions(tree)
        if refs[node.name] == _references(node)[node.name]
    )


# names with no caller in the package, each kept for a stated reason
NO_CALLER_KEPT = {
    "enumeration._search": "pinned by perfbench until the benchmark no longer needs it",
    "ribbon.canonicalize": "pinned by perfbench until the benchmark no longer needs it",
    "combclasses.one_vertex_relation": "the relations of the odd-valent cycle volumes use it",
    "combclasses.delta_class": "the relations of the odd-valent cycle volumes use it",
    "ribbon.mark_all_holes": "a test helper kept on purpose",
    "stable.classify_subset": "a test helper kept on purpose: the direct tests of its rule",
    "tautring.TautPoly.parse": "the ring API: text round trips",
    "tautring.TautPoly.from_json": "the ring API: JSON round trips",
    "tautring.TautPoly.is_zero": "the ring API",
    "tautring.TautPoly.is_homogeneous": "the ring API",
    "tautring.TautPoly.homogeneous_part": "the ring API",
    "cli._Parser.error": "an argparse hook: argparse calls it",
}


def test_every_name_has_a_caller():
    trees = {
        pathlib.Path(name).stem: ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for name in GUARDED
    }
    flagged = uncalled_names(trees)
    assert [n for n in flagged if n not in NO_CALLER_KEPT] == [], "names nothing refers to"
    stale = sorted(set(NO_CALLER_KEPT) - set(flagged))
    assert stale == [], f"kept names that now have a caller or are gone: {stale}"


@pytest.mark.parametrize(
    "sources,flagged",
    [
        ({"m": "def f():\n    return 1"}, ["m.f"]),
        ({"m": "def f():\n    return f()"}, ["m.f"]),
        ({"m": "def f():\n    return 1", "n": "from m import f\nx = f()"}, []),
        ({"m": "class C:\n    def go(self):\n        return 1\nC().go()"}, []),
        ({"m": "class C:\n    def go(self):\n        return 1\nC()"}, ["m.C.go"]),
        ({"m": "class C:\n    def __eq__(self, o):\n        return 1\nC()"}, []),
        ({"m": "f = 1\ndef g():\n    def f():\n        return 1\ng()"}, []),
    ],
)
def test_the_caller_check_sees_unused_defs(sources, flagged):
    assert uncalled_names({m: ast.parse(src) for m, src in sources.items()}) == flagged


def _functions(tree):
    """(qualified name, the name calls use, node, leading bound parameters) of
    each top-level function and method; a class is called for ``__init__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 0 if static else 1


def _calls(trees):
    """Each call by the name it calls: (positional count, whether a ``*``
    argument follows them, keyword names, whether a ``**`` argument is given)."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            out.setdefault(name, []).append(
                (
                    starred[0] if starred else len(node.args),
                    bool(starred),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords),
                )
            )
    return out


def unpassed_defaults(trees):
    """``module.name(param=)`` of each parameter with a default that no call
    passes, by keyword or by position; calls are matched by name."""
    calls = _calls(trees)
    flagged = []
    for module, tree in trees.items():
        for qual, called, node, bound in _functions(tree):
            args = node.args
            positional = args.posonlyargs + args.args
            optional = [
                (i - bound, a.arg)
                for i, a in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ] + [
                (None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for index, param in optional:
                passed = any(
                    param in keywords
                    or double_star
                    or index is not None
                    and (index < count or starred)
                    for count, starred, keywords, double_star in calls.get(called, [])
                )
                if not passed:
                    flagged.append(f"{module}.{qual}({param}=)")
    return sorted(flagged)


# parameters with a default that no call in the package passes, each kept
# for a stated reason
DEFAULT_KEPT = {
    "ribbon.canonicalize(marking=)": "pinned by perfbench until the benchmark no longer needs it",
    "combclasses.one_vertex_relation(label=)": "the relations of the odd-valent cycle volumes use it",
    "combclasses.delta_class(label=)": "the relations of the odd-valent cycle volumes use it",
    "checks._nondegeneracy_sweep(metrics=)": "tests set it",
}


def test_every_optional_parameter_is_passed():
    trees = {
        pathlib.Path(name).stem: ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for name in GUARDED
    }
    flagged = unpassed_defaults(trees)
    assert [p for p in flagged if p not in DEFAULT_KEPT] == [], "defaults no call passes"
    stale = sorted(set(DEFAULT_KEPT) - set(flagged))
    assert stale == [], f"kept defaults that now have a caller or are gone: {stale}"


@pytest.mark.parametrize(
    "sources,flagged",
    [
        ({"m": "def f(x=1):\n    return x\nf()"}, ["m.f(x=)"]),
        ({"m": "def f(a, x=1):\n    return x\nf(0)"}, ["m.f(x=)"]),
        ({"m": "def f(x=1):\n    return x\nf(2)"}, []),
        ({"m": "def f(x=1):\n    return x\nf(x=2)"}, []),
        ({"m": "def f(x=1):\n    return x\nf(*xs)"}, []),
        ({"m": "def f(x=1):\n    return x\nf(**kw)"}, []),
        ({"m": "def f(*, x=1):\n    return x\nf(2)"}, ["m.f(x=)"]),
        ({"m": "def f(x=1):\n    return x", "n": "from m import f\nf(x=2)"}, []),
        ({"m": "class C:\n    def __init__(self, x=1):\n        pass\nC(2)"}, []),
        ({"m": "class C:\n    def __init__(self, x=1):\n        pass\nC()"}, ["m.C.__init__(x=)"]),
        ({"m": "class C:\n    def go(self, x=1):\n        pass\nC().go()"}, ["m.C.go(x=)"]),
        ({"m": "class C:\n    def go(self, x=1):\n        pass\nC().go(2)"}, []),
        (
            {"m": "class C:\n    @staticmethod\n    def go(a, x=1):\n        pass\nC.go(1)"},
            ["m.C.go(x=)"],
        ),
    ],
)
def test_the_default_check_sees_unpassed_parameters(sources, flagged):
    assert unpassed_defaults({m: ast.parse(src) for m, src in sources.items()}) == flagged


@pytest.mark.parametrize("name", GUARDED)
def test_all_names_resolve(name):
    stem = pathlib.Path(name).stem
    module = importlib.import_module("ribboncalc" if stem == "__init__" else f"ribboncalc.{stem}")
    dangling = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert dangling == [], f"{name} exports names it does not define: {dangling}"


def test_every_error_class_is_raised():
    defined = [
        cls.__name__
        for cls in vars(errors).values()
        if isinstance(cls, type)
        and issubclass(cls, RibbonError)
        and cls is not RibbonError
        and cls.__module__ == errors.__name__
    ]
    source = "".join(
        (PACKAGE / name).read_text(encoding="utf-8")
        for name in GUARDED
        if name != "errors.py"
    )
    dead = [name for name in defined if f"raise {name}(" not in source]
    assert "TooLarge" in defined
    assert dead == [], f"errors.py defines classes no module raises: {dead}"


def test_broken_invariant_is_a_domain_error():
    assert issubclass(BrokenInvariant, RibbonError)
    assert BrokenInvariant("x").code == "BrokenInvariant"


def test_one_vertex_relation_checks_its_coefficient_identity(monkeypatch):
    monkeypatch.setattr(combclasses, "double_factorial", lambda n: 0)
    with pytest.raises(BrokenInvariant, match="2r\\+1"):
        combclasses.one_vertex_relation(2)


def test_build_stable_checks_admissibility(monkeypatch):
    handle = validate([(1, 2, 3, 7), (4, 5, 6, 8)], [(1, 4), (2, 5), (3, 6), (7, 8)])
    marking = mark_all_holes(handle, ["p", "q"])
    zseq = [handle.edges(), [(1, 4), (2, 5), (3, 6)]]
    stable.build_stable(handle, marking, zseq)
    monkeypatch.setattr(stable, "order_is_admissible", lambda data: False)
    with pytest.raises(BrokenInvariant, match="admissibility"):
        stable.build_stable(handle, marking, zseq)
