"""Derived data is kept on the object it is derived from, with core.memo,
so it is freed with that object and shared only by identity; what is
shared while held goes through core.shared: validated semigroups are
interned by content, so equal tables share one object and what is kept on
it, and other results by a tagged key."""

import ast
import collections
import gc
import pathlib
import weakref

import pytest

from stargroup import core, oracle, site, topos, verify
from stargroup.core import (
    InvalidStarSemigroup,
    ShapeError,
    memo,
    validate_star_semigroup,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stargroup"
FORBIDDEN = {"cache", "lru_cache", "cached_property"}


def test_a_dropped_lambda_semigroup_is_freed():
    S = site.as_inverse(oracle.standard_family("semilattice_chain", 2))
    LP = topos.lam(site.terminal_presheaf(S))
    ref = weakref.ref(LP.semigroup)
    del LP
    gc.collect()
    assert ref() is None


# a semigroup no other test builds: the two-element chain labelled against
# the standard one
CHAIN = ([[0, 1], [1, 1]], [0, 1])


def test_equal_tables_and_name_give_one_object_while_held():
    X = validate_star_semigroup(2, *CHAIN, name="intern-one")
    Y = validate_star_semigroup(2, [(0, 1), (1, 1)], (0, 1), name="intern-one")
    assert Y is X
    assert validate_star_semigroup(2, *CHAIN, name="intern-two") is not X
    assert validate_star_semigroup(2, *CHAIN) is not X


def test_an_invalid_table_raises_on_every_call_and_is_never_stored():
    before = len(core._INTERNED)
    for _ in range(2):
        with pytest.raises(InvalidStarSemigroup):
            validate_star_semigroup(2, [[1, 0], [0, 0]], [0, 1], name="bad")
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, *CHAIN, name=["not", "a", "string"])
    assert ((((1, 0), (0, 0)), (0, 1), "bad") not in core._INTERNED
            and len(core._INTERNED) <= before)


def test_a_dropped_semigroup_is_freed_and_its_entry_goes():
    X = validate_star_semigroup(2, *CHAIN, name="intern-dropped")
    site.as_inverse(X)  # a wrapper that refers back to X
    key = (X.mul, X.star, X.name)
    ref = weakref.ref(X)
    del X
    gc.collect()
    assert ref() is None and key not in core._INTERNED


def test_as_inverse_shares_one_wrapper_while_held():
    X = validate_star_semigroup(2, *CHAIN, name="wrapped-while-held")
    S = site.as_inverse(X)
    assert site.as_inverse(X) is S
    ref = weakref.ref(S)
    del S
    # X does not refer to its wrapper, so the wrapper goes with its holder
    assert ref() is None and ("inverse", id(X)) not in core._INTERNED
    S = site.as_inverse(X)
    assert S.semigroup is X and site.as_inverse(X) is S


def test_a_base_and_all_built_on_it_go_with_the_last_holder():
    """With the cycle collector off, a base on which the unit, counit, both
    triangles, m and every S(e) were built is freed as soon as its last
    holder drops it, with its wrapper and Lambda semigroups, and no key of
    the store names any of them."""
    gc.collect()
    gc.disable()
    try:
        X = validate_star_semigroup(2, *CHAIN, name="freed-with-its-holder")
        S = site.as_inverse(X)
        # 0 is the top of this chain: two points over it, one over 1
        P = site.validate_presheaf(
            S, {0: ("u", "v"), 1: ("w",)},
            {(0, 0): (0, 1), (1, 1): (0,), (1, 0): (0, 0)})
        u = topos.unit(P)
        f = u.lam_obj.structure_map
        eps = topos.counit(f, u.gamma_obj)
        assert topos.triangle_check(P) and topos.triangle_check2(f)
        m = topos.m_iso(f)
        reps = [site.representable_semigroup(S, e) for e in S.idempotents]
        held = [X, S, f.source, eps.lam_gamma.semigroup, m.source,
                *(R.semigroup for R in reps)]
        refs = [weakref.ref(obj) for obj in held]
        ids = {id(obj) for obj in held}
        contents = {(Y.mul, Y.star, Y.name) for Y in held[:1] + held[2:]}
        del X, S, P, u, f, eps, m, reps, held
        assert [ref() for ref in refs] == [None] * len(refs)
        assert [key for key in core._INTERNED.keys()
                if key in contents
                or isinstance(key[0], str) and ids & set(key[1:])] == []
    finally:
        gc.enable()


def test_verify_builds_each_representable_semigroup_once(monkeypatch):
    # the pool holds each inverse base's wrapper, and so its S(e), for the
    # whole run
    built = collections.Counter()
    build = site.representable_semigroup.func

    def counted(S, e):
        built[(S.semigroup, e)] += 1
        return build(S, e)

    monkeypatch.setattr(site.representable_semigroup, "func", counted)
    verify.run_statements(max_order=4)
    assert built and max(built.values()) == 1


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


# the only module-level stores: what is shared while held (core.shared),
# and the oracle's representatives
STORES = {("core.py", "_INTERNED"), ("oracle.py", "_REPRESENTATIVES")}
STORE_TYPES = {"dict", "defaultdict", "OrderedDict", "WeakValueDictionary",
               "WeakKeyDictionary"}


def _stores(tree):
    """Each name a ``global`` statement declares, as ("global", name), and
    each name bound at module level to an empty dict or a dict-like store,
    as ("store", name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield from (("global", name) for name in node.names)
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        func = getattr(value, "func", None)
        called = getattr(func, "id", getattr(func, "attr", None))
        if ((isinstance(value, ast.Dict) and not value.keys)
                or (isinstance(value, ast.Call) and called in STORE_TYPES)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (("store", t.id) for t in targets
                        if isinstance(t, ast.Name))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_global_or_new_module_store_in_the_package(path):
    # shared state lives in core._INTERNED or on its owner
    found = [(kind, name)
             for kind, name in _stores(ast.parse(path.read_text()))
             if kind == "global" or (path.name, name) not in STORES]
    assert found == []


def test_the_store_scan_finds_each_form():
    text = ("import weakref\nfrom collections import defaultdict\n"
            "A = {}\nB: dict = dict()\nC = weakref.WeakValueDictionary()\n"
            "D = defaultdict(list)\nTABLE = {1: 2}\n"
            "def f():\n    global A\n    local = {}\n")
    assert list(_stores(ast.parse(text))) == [
        ("global", "A"), ("store", "A"), ("store", "B"), ("store", "C"),
        ("store", "D")]
    assert {name for _, name in _stores(ast.parse(
        (SRC / "core.py").read_text()))} == {"_INTERNED"}


WEAK_STORES = {"WeakValueDictionary", "WeakKeyDictionary"}


def _weak_stores(tree, allowed=None):
    """The line of each weak dictionary built, other than the one bound to
    the module-level name ``allowed``."""
    names = set(WEAK_STORES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "weakref":
            names |= {a.asname or a.name for a in node.names
                      if a.name in WEAK_STORES}
    kept = {id(node.value) for node in tree.body
            if allowed is not None and isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == allowed for t in node.targets)}
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        called = getattr(func, "id", getattr(func, "attr", None))
        if (isinstance(node, ast.Call) and called in names
                and id(node) not in kept):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_weak_store_but_the_shared_one(path):
    # a weak store of its own, as a memo returning a weak dictionary on its
    # owner, would be a second sharing rule beside core.shared
    allowed = "_INTERNED" if path.name == "core.py" else None
    assert list(_weak_stores(ast.parse(path.read_text()), allowed)) == []


def test_the_weak_store_scan_finds_each_form():
    text = ("import weakref\nfrom weakref import WeakKeyDictionary as WK\n"
            "_INTERNED = weakref.WeakValueDictionary()\n"
            "@memo\ndef _maps(owner):\n"
            "    return weakref.WeakValueDictionary()\n"
            "OTHER = WK()\n")
    assert sorted(_weak_stores(ast.parse(text), "_INTERNED")) == [6, 7]
    assert sorted(_weak_stores(ast.parse(text))) == [3, 6, 7]


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


def _lift_reads(tree):
    """The line of each ``.lifts`` attribute read."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "lifts"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "core.py"),
                         ids=lambda p: p.name)
def test_lifts_are_read_only_in_core(path):
    # a lift is read through f.action or etale_lift, whose table build
    # checks each lift's uniqueness once
    assert _lift_reads(ast.parse(path.read_text())) == []


def test_the_lift_read_scan_finds_one():
    text = ("def f(g, p):\n    table = g.action\n"
            "    return g.lifts[p], table\n")
    assert _lift_reads(ast.parse(text)) == [3]


def _table_compositions(tree):
    """The line of each ``tuple(t[v] for v in u)``: a generator that reads
    one table ``t``, which does not depend on v, at each entry of another."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)):
            continue
        gen = node.args[0]
        comp = gen.generators[0]
        elt = gen.elt
        if (len(gen.generators) == 1 and not comp.ifs
                and isinstance(comp.target, ast.Name)
                and isinstance(elt, ast.Subscript)
                and isinstance(elt.slice, ast.Name)
                and elt.slice.id == comp.target.id
                and comp.target.id not in {n.id for n in ast.walk(elt.value)
                                           if isinstance(n, ast.Name)}):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "oracle.py"),
                         ids=lambda p: p.name)
def test_tables_are_composed_with_core_compose(path):
    # one itemgetter call composes a table; the oracle keeps its own code
    assert list(_table_compositions(ast.parse(path.read_text()))) == []


def test_the_composition_scan_finds_the_generator_form():
    text = ("a = tuple(t2[v] for v in t1)\n"
            "b = tuple(f.map[i] for i in g.map)\n"
            "c = tuple(X.mul[p][q] for q in projs)\n"
            "d = tuple(mul[star[x]][x] for x in range(3))\n"
            "e = tuple(t[v] for v in u if v)\n"
            "f = tuple(t[v, 0] for v in u)\n"
            "g = [t[v] for v in u]\n")
    assert list(_table_compositions(ast.parse(text))) == [1, 2, 3]
