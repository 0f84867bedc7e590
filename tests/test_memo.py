"""Derived data is kept on the object it is derived from, with core.memo,
so it is freed with that object and shared only by identity; what is
shared while held goes through core.shared: validated semigroups are
interned by content, so equal tables share one object and what is kept on
it, and other results by a tagged key."""

import ast
import collections
import gc
import importlib
import pathlib
import pkgutil
import random
import weakref

import pytest

import stargroup
from stargroup import core, oracle, site, ssets, topos, verify
from stargroup.core import (
    InvalidStarSemigroup,
    Kind,
    ShapeError,
    memo,
    takes,
    validate_star_semigroup,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stargroup"
FORBIDDEN = {"cache", "lru_cache", "cached_property"}


# a semigroup no other test builds: the two-element chain labelled against
# the standard one
CHAIN = ([[0, 1], [1, 1]], [0, 1])


def test_a_dropped_lambda_semigroup_is_freed():
    # Lambda of the terminal presheaf has its base's tables, so a base no
    # other test builds keeps any Lambda held elsewhere from being this one
    X = validate_star_semigroup(2, *CHAIN, name="lambda-freed")
    LP = topos.lam(site.terminal_presheaf(site.as_inverse(X)))
    ref = weakref.ref(LP.semigroup)
    del LP
    gc.collect()
    assert ref() is None


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


@pytest.mark.parametrize("search", [
    lambda i2: topos.gamma(core.identity_morphism(i2)),
    lambda i2: list(site.enumerate_presheaves(site.as_inverse(i2), 2)),
    lambda i2: site.random_presheaf(site.as_inverse(i2), 3, random.Random(1)),
    lambda i2: verify.run_statements(max_order=4),
], ids=["gamma", "enumerate_presheaves", "random_presheaf", "verify"])
def test_searches_leave_nothing_for_the_collector(i2, search, monkeypatch):
    # the main searches run on core.backtrack and the oracle's on its own
    # loops, with no closure that refers to itself, so what they build is
    # freed by reference counting alone; with no representatives kept, the
    # verify sweep runs the oracle's enumeration too
    monkeypatch.setattr(oracle, "_REPRESENTATIVES", {})
    gc.collect()
    gc.disable()
    try:
        search(i2)
        assert gc.collect() == 0
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
    assert site.representable_semigroup(S, 0) is site.representable_semigroup(S, 0)


def test_a_memo_counts_hits_and_misses_and_keeps_no_error():
    calls = []

    class Box:
        pass

    def check(name, key, held):
        if type(key) is not int:
            raise ShapeError(name)

    def keyed(box, key):
        calls.append(key)
        if key < 0:
            raise ValueError(key)
        return 2 * key

    def whole(box):
        calls.append(None)
        return "whole"

    keyed = takes(key=Kind(check))(memo(keyed))
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


def _self_referring_closures(tree):
    """The line of each function nested in another function that refers to
    its own name, and so to itself through its closure cell: a reference
    cycle that only the collector frees."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({node.lineno
                   for outer in ast.walk(tree) if isinstance(outer, defs)
                   for node in ast.walk(outer)
                   if node is not outer and isinstance(node, defs)
                   and any(isinstance(n, ast.Name) and n.id == node.name
                           for n in ast.walk(node))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_closure_refers_to_itself(path):
    # a search is a loop: core.backtrack, or the oracle's own in _search
    assert _self_referring_closures(ast.parse(path.read_text())) == []


def test_the_closure_scan_finds_a_self_referring_one():
    text = ("def outer(n):\n"
            "    def fill(t):\n"
            "        return t and fill(t - 1)\n"
            "    def leaf(t):\n"
            "        def rec(u):\n"
            "            return rec(u - 1) if u else u\n"
            "        return rec(t)\n"
            "    return fill(n), leaf(n)\n"
            "def top(n):\n"
            "    return n and top(n - 1)\n"
            "class Box:\n"
            "    def size(self):\n"
            "        return self.size\n")
    assert _self_referring_closures(ast.parse(text)) == [2, 5]


@pytest.mark.parametrize("fn", [core.classify, core.is_etale,
                                ssets.canonical_action])
def test_a_memo_called_on_none_never_returns_itself(fn):
    # with no key, the memo computes and stores in __call__; the class
    # access branch of __get__ used to hand back the memo for None, and
    # the declared check now refuses None before either
    with pytest.raises(ShapeError, match="must be of type"):
        fn(None)


def _rebuilt_addresses(tree):
    """The line of each way to address an L(S)-morphism or an element of
    S(e) that site already holds: a tuple ``(x.s, x.e)`` built from a
    morphism, a ``carrier.index(`` search, and a ``.carriers`` read."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(isinstance(a, ast.Attribute) for a in node.elts)
                and [a.attr for a in node.elts] == ["s", "e"]
                and ast.dump(node.elts[0].value)
                == ast.dump(node.elts[1].value)):
            yield node.lineno
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "index"
              and getattr(node.func.value, "id",
                          getattr(node.func.value, "attr", None))
              == "carrier"):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "carriers":
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_site_alone_addresses_morphisms_and_se_elements(path):
    # a morphism is its own transition key; S(e) carries its index
    assert list(_rebuilt_addresses(ast.parse(path.read_text()))) == []


def test_the_address_scan_finds_each_form():
    text = ("key = (m.s, m.e)\n"
            "keys = {(t.s, t.e): 0 for t in ms}\n"
            "i = carrier.index((e, e))\n"
            "j = R.carrier.index(pair)\n"
            "c = G.carriers[e]\n"
            "ok = (m.s, n.e), (m.e, m.s), m, tables.index[(e, e)]\n"
            "k = pairs.index(pair)\n")
    assert sorted(_rebuilt_addresses(ast.parse(text))) == [1, 2, 3, 4, 5]


# Every call of a validator and every direct build of a semigroup or
# presheaf, per function.  A validator takes tables from outside or from a
# construction that nothing else checks; a direct build is one whose laws
# follow from checks already run on the same object, each with its proof
# beside it and a reference test in test_swept_once.py.  A new one joins
# this list together with its reference test.
BUILDS = {
    # tables from outside: files, the oracle's own tables, a fixture
    ("oracle.py", "enumerate_star_structures", "validate_star_semigroup"): 1,
    ("oracle.py", "standard_family", "validate_star_semigroup"): 6,
    ("serialize.py", "semigroup_from_dict", "validate_star_semigroup"): 1,
    ("serialize.py", "presheaf_from_dict", "validate_presheaf"): 1,
    ("verify.py", "etale_idem_pool", "validate_presheaf"): 1,
    # constructions that nothing else checks
    ("groupoid.py", "esn_semigroup", "validate_star_semigroup"): 1,
    ("topos.py", "_lam", "validate_star_semigroup"): 1,
    ("site.py", "terminal_presheaf", "validate_presheaf"): 1,
    ("site.py", "empty_presheaf", "validate_presheaf"): 1,
    ("site.py", "representable_presheaf", "validate_presheaf"): 1,
    # the validators' own builds
    ("core.py", "_validated", "FiniteStarSemigroup"): 1,
    ("site.py", "validate_presheaf", "Presheaf"): 1,
    # derived builds
    ("site.py", "_fill_transitions", "Presheaf"): 1,
    ("site.py", "representable_semigroup", "FiniteStarSemigroup"): 1,
    ("topos.py", "_gamma", "Presheaf"): 1,
    ("topos.py", "fiber_presheaf", "Presheaf"): 1,
    ("modalg.py", "fhat", "FiniteStarSemigroup"): 1,
    ("modalg.py", "gamma_algebra", "FiniteStarSemigroup"): 1,
    ("ssets.py", "sset_to_semigroup", "FiniteStarSemigroup"): 1,
}
BUILDERS = {"validate_star_semigroup", "validate_presheaf",
            "FiniteStarSemigroup", "Presheaf"}


def _builds(tree, scope="<module>"):
    """(function, callee) for each call of a name or attribute in
    BUILDERS, with the innermost function around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _builds(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", getattr(func, "attr", None))
            if called in BUILDERS:
                yield scope, called
        yield from _builds(node, scope)


def test_validators_and_direct_builds_are_pinned():
    found = collections.Counter(
        (path.name, scope, called)
        for path in SRC.glob("*.py")
        for scope, called in _builds(ast.parse(path.read_text())))
    assert dict(found) == BUILDS


def test_the_build_scan_finds_each_form():
    text = ("X = FiniteStarSemigroup(1, ((0,),), (0,))\n"
            "def f(S):\n"
            "    def g():\n"
            "        return site.validate_presheaf(S, {}, {})\n"
            "    return Presheaf(S, {}, {}), g, validate_star_semigroup(1)\n"
            "class C:\n"
            "    def h(self):\n"
            "        return [core.FiniteStarSemigroup(0, (), ())]\n"
            "r = repr(Presheaf)\n")
    assert sorted(_builds(ast.parse(text))) == [
        ("<module>", "FiniteStarSemigroup"), ("f", "Presheaf"),
        ("f", "validate_star_semigroup"), ("g", "validate_presheaf"),
        ("h", "FiniteStarSemigroup")]


# Every internal call of a checked function or method (``core.takes``), by
# module and callee.  An internal caller whose arguments are known good
# calls the body, ``__wrapped__``; a new checked call joins this list on
# purpose.  A memo checks in its own call and a class in its constructor,
# so neither has a body to call instead and neither is listed.
CHECKED_CALLS = {
    "cli.py": {"as_inverse": 2, "bsleft_eval": 1, "check_axioms": 1,
               "counit": 1, "esn_groupoid": 3, "fhat": 1, "gamma": 1,
               "groupoid_equal": 1, "lam": 1, "ls_pullback": 1,
               "mediator_kind": 1, "prop_inv_check": 1, "prop_sym_check": 1,
               "rho": 1, "same_tables": 1, "triangle_check": 1,
               "triangle_check2": 1, "unit": 1},
    "core.py": {"is_etale": 2, "same_tables": 1},
    "groupoid.py": {"esn_ordered_groupoid": 1, "validate_star_semigroup": 1},
    "modalg.py": {"act": 4, "as_inverse": 1, "element": 1, "gamma": 2,
                  "idem_to_algebra": 1, "is_etale": 2, "make_sset": 1,
                  "rho": 6, "sample_elements": 1, "validate_module": 1,
                  "zero": 2},
    "oracle.py": {"validate_star_semigroup": 7},
    "serialize.py": {"as_inverse": 1, "make_sset": 1, "validate_presheaf": 1,
                     "validate_star_semigroup": 1},
    "site.py": {"lam": 1, "representable_presheaf": 1, "validate_presheaf": 3},
    "ssets.py": {"is_etale": 2, "make_sset": 1, "sset_to_semigroup": 1},
    "topos.py": {"as_inverse": 4, "counit": 3, "fiber_presheaf": 1,
                 "gamma": 3, "is_etale": 4, "lam": 6, "unit": 1,
                 "validate_presheaf_map": 1, "validate_star_semigroup": 1},
    "verify.py": {"as_inverse": 3, "build_instances": 1,
                  "compose_morphisms": 3, "gamma": 1, "is_etale": 8, "lam": 1,
                  "validate_presheaf": 1},
}
# a method name that a set, dict or list also has is left out of the scan:
# a call of it cannot be told from one of a checked method
CONTAINER_METHODS = set(dir(set)) | set(dir(dict)) | set(dir(list))


def _checked_names():
    """The names of the package's checked functions, and of its checked
    methods: those a declaration wraps, keeping the body as ``__wrapped__``."""
    functions, methods = set(), set()
    for info in pkgutil.iter_modules(stargroup.__path__):
        module = importlib.import_module(f"stargroup.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if getattr(obj, "kinds", None) and hasattr(obj, "__wrapped__") \
                    and not isinstance(obj, (type, memo)):
                functions.add(name)
            for attr, member in vars(obj).items() if isinstance(obj, type) \
                    else ():
                if attr != "__init__" and getattr(member, "kinds", None):
                    methods.add(attr)
    return functions, methods - CONTAINER_METHODS


def _checked_calls(tree, functions, methods):
    """The callee of each call of a name in ``functions``, or of an
    attribute in ``functions`` or ``methods``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            yield func.id
        elif (isinstance(func, ast.Attribute)
              and func.attr in functions | methods):
            yield func.attr


def test_internal_calls_of_checked_forms_are_pinned():
    functions, methods = _checked_names()
    found = {}
    for path in sorted(SRC.glob("*.py")):
        calls = collections.Counter(_checked_calls(
            ast.parse(path.read_text()), functions, methods))
        if calls:
            found[path.name] = dict(calls)
    assert found == CHECKED_CALLS


def test_the_checked_call_scan_finds_each_form():
    text = ("def f(S, F, X):\n"
            "    topos.lam(P), lam(P), F.add(a, b), add(a, b)\n"
            "    return classify(X), F.rho(x), rho(fh), X.lam\n")
    assert sorted(_checked_calls(ast.parse(text), {"lam", "rho"},
                                 {"add"})) == ["add", "lam", "lam", "rho",
                                               "rho"]


def _undeclared_exports(init, modules):
    """Each name ``init`` imports from a module of ``modules`` (name ->
    tree) other than the oracle, whose function or class there has no
    ``takes`` decorator.  The oracle imports nothing from core but the
    semigroup and its validator, and checks its own arguments."""
    declared = {(name, node.name) for name, tree in modules.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and any(isinstance(d, ast.Call)
                        and getattr(d.func, "id", None) == "takes"
                        for d in node.decorator_list)}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.module != "oracle":
            yield from (alias.name for alias in node.names
                        if (node.module, alias.name) not in declared)


def test_every_export_is_declared():
    # so every export reaches the fuzz of test_contracts.py
    modules = {path.stem: ast.parse(path.read_text())
               for path in SRC.glob("*.py")}
    assert list(_undeclared_exports(modules.pop("__init__"), modules)) == []


def test_the_export_scan_finds_an_undeclared_one():
    init = ast.parse("from .core import f, g, C\nfrom .oracle import h\n")
    core_tree = ast.parse("@takes(x=int)\ndef f(x): pass\n"
                          "@memo\ndef g(x): pass\n"
                          "@takes()\nclass C: pass\ndef h(): pass\n")
    assert list(_undeclared_exports(init, {"core": core_tree})) == ["g"]
