"""Lambda is shared by its presheaf's tables while held: ``lam`` of any
presheaf with the same fiber sizes and transitions over the same base object
returns the ``LambdaObject`` still held.  Nothing below it is shared: a new
Lambda validates its own semigroup (``core.validate_star_semigroup``) and
builds and checks its own structure map, with the transition check, even
while a semigroup with equal tables is held.  Each test builds its own base, a
two-element chain labelled against the standard one under a name of its own,
so that no Lambda another test holds can be shared with it."""

import gc
import hashlib
import itertools
import json
import pathlib
import sys
import types
import weakref

import pytest

from stargroup import core, site, ssets, topos
from stargroup.core import ConsistencyError, validate_star_semigroup
from stargroup.topos import lam

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
_PRIVATE = itertools.count()


def private_base():
    # free what earlier tests dropped, cycles included, before building
    gc.collect()
    return site.as_inverse(validate_star_semigroup(
        2, [[0, 1], [1, 1]], [0, 1], name=f"private-{next(_PRIVATE)}"))


def copy(P):
    """An equal presheaf that is a distinct object."""
    return site.validate_presheaf(P.base, P.fibers, P.transitions)


def table_entries(S):
    """The Lambdas over S still shared by their presheaf's tables."""
    return [L for key, L in list(core._INTERNED.items())
            if key[0] == "lam" and L.base is S]


def count_map_builds(monkeypatch):
    builds = []
    build = topos._lambda_map

    def counted(lsg, sg, smap):
        builds.append(smap)  # not lsg, which the list would keep alive
        return build(lsg, sg, smap)

    monkeypatch.setattr(topos, "_lambda_map", counted)
    return builds


def test_shared_by_table_while_held(monkeypatch):
    builds = count_map_builds(monkeypatch)
    P = site.terminal_presheaf(private_base())
    first = lam(P)
    assert lam(copy(P)) is first
    # with the Lambda dropped and its semigroup held, a new Lambda validates
    # its own semigroup and builds and checks its own structure map
    held = first.structure_map
    del first
    second = lam(copy(P))
    assert second.semigroup is not held.source
    assert core.same_tables(second.semigroup, held.source)
    assert second.structure_map is not held
    assert second.structure_map.map == held.map
    assert len(builds) == 2 and table_entries(P.base) == [second]


def test_not_shared_once_every_holder_is_dropped(monkeypatch):
    builds = count_map_builds(monkeypatch)
    P = site.terminal_presheaf(private_base())
    first = lam(P)
    held = weakref.ref(first.structure_map)
    tables = (first.semigroup.mul, first.semigroup.star)
    del first
    gc.collect()
    assert held() is None and table_entries(P.base) == []
    again = lam(copy(P))
    assert (again.semigroup.mul, again.semigroup.star) == tables
    assert len(builds) == 2


def test_a_dropped_lambda_goes_with_its_last_holder():
    """No cycle keeps a Lambda alive: with the cycle collector off, its
    semigroup, structure map and intern entry go as soon as the last holder
    drops it, so how much is shared never depends on when the collector
    runs."""
    P = site.terminal_presheaf(private_base())
    first = lam(P)
    held = [weakref.ref(first.semigroup), weakref.ref(first.structure_map)]
    gc.disable()
    try:
        del first
        assert [ref() for ref in held] == [None, None]
        assert table_entries(P.base) == []
    finally:
        gc.enable()


def test_not_shared_over_a_different_base_object():
    P = site.terminal_presheaf(private_base())
    Q = site.terminal_presheaf(private_base())
    assert P.base.semigroup is not Q.base.semigroup
    assert core.same_tables(P.base.semigroup, Q.base.semigroup)
    LP, LQ = lam(P), lam(Q)
    # a semigroup of equal tables and a structure map onto each base object
    assert LP.semigroup is not LQ.semigroup
    assert core.same_tables(LP.semigroup, LQ.semigroup)
    assert LP.structure_map is not LQ.structure_map
    assert LP.structure_map.target is P.base.semigroup
    assert LQ.structure_map.target is Q.base.semigroup


def test_a_raising_build_stores_nothing(monkeypatch):
    P = site.terminal_presheaf(private_base())
    monkeypatch.setattr(topos, "is_etale", lambda f: False)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="etale"):
            lam(P)
    assert table_entries(P.base) == []


CANONICAL_ACTION = ssets.canonical_action.func


def tampered_action(f):
    """The canonical action of f with its first entry moved."""
    good = CANONICAL_ACTION(f)
    row = good.action[0]
    moved = ((row[0] + 1) % f.source.order, *row[1:])
    return types.SimpleNamespace(action=(moved, *good.action[1:]))


def test_a_failed_transition_check_stores_nothing(monkeypatch):
    # the structure map passed its own checks and stays on its semigroup;
    # P's Lambda, which failed, is kept nowhere and fails again
    P = site.terminal_presheaf(private_base())
    monkeypatch.setattr(ssets, "canonical_action", tampered_action)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="transition formula"):
            lam(P)
    assert ("lam", id(P)) not in core._INTERNED


def lam_keys(S):
    """The keys of the Lambdas over S still shared."""
    return [key for key in list(core._INTERNED.keys())
            if key[0] == "lam" and key[1] == id(S)]


def test_other_transitions_run_their_own_check(monkeypatch):
    # two presheaves with equal fiber sizes and other transitions
    S = private_base()
    fibers = {0: ("a", "b"), 1: ("c", "d")}
    P, Q = (site.validate_presheaf(S, fibers, {(0, 0): (0, 1), (1, 1): (0, 1),
                                               (1, 0): moved})
            for moved in ((0, 1), (1, 0)))
    held = lam(P)
    monkeypatch.setattr(ssets, "canonical_action", tampered_action)
    # a hit is the checked Lambda itself; Q's Lambda is its own, and fails
    assert lam(copy(P)) is held
    with pytest.raises(ConsistencyError, match="transition formula"):
        lam(Q)
    assert len(lam_keys(S)) == 1
    monkeypatch.undo()
    assert lam(Q) is not held and len(lam_keys(S)) == 2


class _HoldNothing(weakref.WeakValueDictionary):
    """A store that keeps nothing, so no Lambda, Gamma, counit or wrapper is
    shared."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.slow
@pytest.mark.parametrize("held", ["every", "none"])
def test_presheaves_digest_with_every_or_no_lambda_held(held, monkeypatch):
    """The benchmark's output gate (the digest in perfbench/expected.json,
    only read) with every Lambda of the population kept alive, so that every
    later build with equal tables shares it, and with none kept for sharing."""
    path = PERFBENCH / "workloads.py"
    workloads = types.ModuleType("_bench_workloads")
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    exec(compile(path.read_text(), str(path), "exec"), vars(workloads))
    kept = []
    if held == "every":
        build = topos.lam

        def lam_held(P):
            kept.append(build(P))
            return kept[-1]

        monkeypatch.setattr(topos, "lam", lam_held)
    else:
        monkeypatch.setattr(core, "_INTERNED", _HoldNothing())
    # five calls of topos.lam per presheaf: the unit, the counit, the first
    # triangle's own unit, m and the five-way check; each S(e) first built in
    # the run builds Lambda(e-hat) through topos.lam, and whether the bases'
    # S(e) are already built depends on the tests before
    misses = site.representable_semigroup.cache_info().misses
    outcome = workloads.run_presheaves(workloads.setup_presheaves(0))
    misses = site.representable_semigroup.cache_info().misses - misses
    assert (outcome.items, outcome.failed) == (272, 0)
    assert len(kept) == (1360 + misses if held == "every" else 0)
    text = json.dumps(outcome.summaries["items"], sort_keys=True,
                      separators=(",", ":"))
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        expected["presheaves"]["items"]
