"""Derived data is kept on the object it is derived from, with core.memo,
so it is freed with that object and shared only by identity."""

import ast
import gc
import pathlib
import weakref

import pytest

from stargroup import oracle, site, topos
from stargroup.core import ShapeError, memo

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stargroup"
FORBIDDEN = {"cache", "lru_cache", "cached_property"}


def test_a_dropped_lambda_semigroup_is_freed():
    S = site.as_inverse(oracle.standard_family("semilattice_chain", 2))
    LP = topos.lam(site.terminal_presheaf(S))
    ref = weakref.ref(LP.semigroup)
    del LP
    gc.collect()
    assert ref() is None


def test_as_inverse_keeps_one_wrapper_per_semigroup():
    X = oracle.standard_family("semilattice_chain", 3)
    S = site.as_inverse(X)
    assert site.as_inverse(X) is S
    assert site.representable_tables(S, 0) is site.representable_tables(S, 0)


def test_a_memo_counts_hits_and_misses_and_keeps_no_error():
    calls = []

    class Box:
        pass

    def check(box, key):
        if type(key) is not int:
            raise ShapeError("key")

    def keyed(box, key):
        calls.append(key)
        if key < 0:
            raise ValueError(key)
        return 2 * key

    def whole(box):
        calls.append(None)
        return "whole"

    keyed = memo(keyed, check=check)
    whole = memo(whole)
    box = Box()
    assert [whole(box), whole(box), keyed(box, 1), keyed(box, 1)] == [
        "whole", "whole", 2, 2]
    with pytest.raises(ShapeError):
        keyed(box, True)
    for _ in range(2):
        with pytest.raises(ValueError):
            keyed(box, -1)
    assert calls == [None, 1, -1, -1]
    assert whole.cache_info() == (1, 1)
    assert keyed.cache_info() == (1, 3)
    assert (box.whole, box.keyed) == ("whole", {(1,): 2})


def _forbidden_uses(tree):
    aliases = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (a.name for a in node.names if a.name in FORBIDDEN)
        elif (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_functools_cache_in_the_package(path):
    # derived data goes on its owner with core.memo; a module-level cache
    # keyed on whole tables is never emptied
    assert list(_forbidden_uses(ast.parse(path.read_text()))) == []


def test_the_cache_scan_finds_each_form():
    text = ("import functools as ft\nfrom functools import lru_cache\n"
            "@ft.cache\ndef f(): pass\nclass A:\n"
            "    @functools.cached_property\n    def g(self): pass\n")
    assert sorted(_forbidden_uses(ast.parse(text))) == [
        "ft.cache", "functools.cached_property", "lru_cache"]


def _asserts(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_in_the_package(path):
    # python -O strips assert statements, so a check that reports returns a
    # Verdict and one that refuses raises a StarError
    assert _asserts(ast.parse(path.read_text())) == []


def test_the_assert_scan_finds_one():
    text = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
    assert _asserts(ast.parse(text)) == [3]
