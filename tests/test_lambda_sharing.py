"""Lambda shares its semigroup and structure map by table while held: two
presheaves whose Lambdas have the same product, star and map tables over
the same base semigroup object get distinct ``LambdaObject``s around one
validated semigroup and one structure map.  Each test builds its own base,
so that no Lambda another test holds can be shared with it."""

import gc
import hashlib
import json
import pathlib
import sys
import types
import weakref

import pytest

from stargroup import oracle, site, ssets, topos
from stargroup.core import ConsistencyError
from stargroup.topos import lam

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def private_base():
    return site.as_inverse(oracle.standard_family("semilattice_chain", 2))


def copy(P):
    """An equal presheaf that is a distinct object."""
    return site.validate_presheaf(P.base, P.fibers, P.transitions)


def table_entries(S):
    return [key for key in topos._BUILT.keys()
            if key[0] == "lam-tables" and key[1] == id(S.semigroup)]


def count_map_builds(monkeypatch):
    builds = []
    build = topos._lambda_map

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(topos, "_lambda_map", counted)
    return builds


def test_shared_by_table_while_held(monkeypatch):
    builds = count_map_builds(monkeypatch)
    P = site.terminal_presheaf(private_base())
    first = lam(P)
    second = lam(copy(P))
    assert second is not first and second.presheaf is not first.presheaf
    assert second.semigroup is first.semigroup
    assert second.structure_map is first.structure_map
    assert len(builds) == 1 and len(table_entries(P.base)) == 1


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


def test_not_shared_over_a_different_base_object():
    P = site.terminal_presheaf(private_base())
    Q = site.terminal_presheaf(private_base())
    assert P.base.semigroup == Q.base.semigroup
    LP, LQ = lam(P), lam(Q)
    assert LP.semigroup is not LQ.semigroup
    assert LP.semigroup.mul == LQ.semigroup.mul
    assert LP.structure_map.target is P.base.semigroup
    assert LQ.structure_map.target is Q.base.semigroup


def test_a_raising_build_stores_nothing(monkeypatch):
    P = site.terminal_presheaf(private_base())
    monkeypatch.setattr(topos, "is_etale", lambda f: False)
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
    P = site.terminal_presheaf(private_base())
    monkeypatch.setattr(ssets, "canonical_action", tampered_action)
    with pytest.raises(ConsistencyError, match="transition formula"):
        lam(P)
    assert table_entries(P.base) == []


def test_the_transition_check_runs_on_a_hit(monkeypatch):
    P = site.terminal_presheaf(private_base())
    held = lam(P)
    builds = count_map_builds(monkeypatch)
    monkeypatch.setattr(ssets, "canonical_action", tampered_action)
    with pytest.raises(ConsistencyError, match="transition formula"):
        lam(copy(P))
    assert builds == [] and table_entries(P.base)
    monkeypatch.undo()
    assert lam(copy(P)).structure_map is held.structure_map


class _HoldNothing(weakref.WeakValueDictionary):
    """A _BUILT that keeps no Lambda tables, so no build is ever shared."""

    def __setitem__(self, key, value):
        if key[0] != "lam-tables":
            super().__setitem__(key, value)


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
        monkeypatch.setattr(topos, "_BUILT", _HoldNothing())
    outcome = workloads.run_presheaves(workloads.setup_presheaves(0))
    assert (outcome.items, outcome.failed) == (272, 0)
    assert len(kept) == (1088 if held == "every" else 0)
    text = json.dumps(outcome.summaries["items"], sort_keys=True,
                      separators=(",", ":"))
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        expected["presheaves"]["items"]
