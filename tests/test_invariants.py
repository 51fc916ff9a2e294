"""Result-guarding invariants raise ``BrokenInvariant``, so ``python -O`` keeps them."""

import ast
import importlib
import pathlib

import pytest

import ribboncalc
from ribboncalc import combclasses, errors, stable
from ribboncalc.errors import BrokenInvariant, RibbonError
from ribboncalc.ribbon import mark_all_holes, validate

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
