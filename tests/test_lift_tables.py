"""The tables built once per map or per base against the per-call code they
replaced, kept here as the reference: the scans of ``etale_lift`` and
``ssets.canonical_action`` for ``StarMorphism.lifts`` and
``StarMorphism.action``, the cell formula for ``ssets.left_table``, and the
inline plan build of the generic Gamma search for ``topos._gamma_plan``."""

import math

import pytest

from stargroup import core, site, ssets, topos, verify
from stargroup.core import (
    ConsistencyError,
    StarError,
    StarMorphism,
    etale_lift,
    is_etale,
)
from stargroup.topos import SearchBudgetExceeded
from test_kernels import assert_left_table

def reference_lift(f, p, s):
    """etale_lift as it scanned the whole source for each lift."""
    X, S = f.source, f.target
    core.freeze((p,), "p", X.order)
    core.freeze((s,), "s", S.order)
    if X.mul[p][p] != p or X.star[p] != p:
        raise StarError(f"{p} is not a projection of the source",
                        kind="NotProjection")
    if not core.is_etale(f):
        raise StarError(f"{f!r} is not etale", kind="NotEtale")
    if S.mul[f.map[p]][s] != s:
        raise StarError(f"equation s = f(p)s fails for p={p}, s={s}",
                        kind="NoLift")
    hits = [x for x in X.elements if X.mul[p][x] == x and f.map[x] == s]
    if len(hits) != 1:
        raise ConsistencyError(
            f"lift of s={s} at p={p} not unique for etale {f!r}: {hits}")
    return hits[0]


def reference_action(f):
    """The action table of canonical_action as it scanned the whole source
    for each entry."""
    if not core.is_etale(f):
        raise StarError(f"{f!r} is not etale", kind="NotEtale")
    X, S = f.source, f.target
    action = []
    for x in X.elements:
        cx = X.c(x)
        row = []
        for s in S.elements:
            target = S.mul[f.map[x]][s]
            hits = [z for z in X.elements
                    if X.mul[cx][z] == z and f.map[z] == target]
            if len(hits) != 1:
                raise ConsistencyError(
                    f"canonical action ambiguous at ({x}, {s}): {hits}")
            row.append(hits[0])
        action.append(tuple(row))
    return tuple(action)


def reference_generic_alphas(f, S, e, budget):
    """_generic_alphas with its search plan built inline on every call;
    returns the alphas and the number of search steps taken."""
    X = f.source
    R = site.representable_semigroup(S, e)
    carrier, mul_idx, star_idx = R.carrier, R.semigroup.mul, R.semigroup.star
    k = len(carrier)
    dom_idx = tuple(mul_idx[star_idx[i]][i] for i in range(k))
    fibers = [
        tuple(x for x in X.elements if f.map[x] == r) for (r, _) in carrier
    ]
    if any(not fib for fib in fibers):
        return (), 0

    ee = carrier.index((e, e))
    projs = [i for i in range(k)
             if star_idx[i] == i and mul_idx[i][i] == i and i != ee]
    order = [ee] + projs + [i for i in range(k) if i != ee and i not in projs]
    rank = {u: t for t, u in enumerate(order)}

    constraints_at = [[] for _ in range(k)]
    for u in range(k):
        for v in range(k):
            w = mul_idx[u][v]
            z = mul_idx[dom_idx[u]][v]
            last = max((u, v, w, z), key=lambda i: rank[i])
            constraints_at[rank[last]].append((u, v, w, z))
    star_at = [[] for _ in range(k)]
    for u in range(k):
        v = star_idx[u]
        last = max((u, v), key=lambda i: rank[i])
        star_at[rank[last]].append((u, v))

    values = [-1] * k
    found = []
    steps = 0

    def fill(t):
        nonlocal steps
        if t == k:
            found.append(tuple(values))
            return
        slot = order[t]
        for cand in fibers[slot]:
            steps += 1
            if steps > budget:
                raise SearchBudgetExceeded(
                    f"Gamma enumeration exceeded budget {budget}")
            values[slot] = cand
            ok = all(values[xu] == X.star[values[u]] for u, xu in star_at[t])
            if ok:
                for (u, v, w, z) in constraints_at[t]:
                    if values[w] != X.mul[values[u]][values[z]]:
                        ok = False
                        break
            if ok:
                fill(t + 1)
        values[slot] = -1

    fill(0)
    # each fiber in evaluation order: by the value at (e, e), then the table
    return tuple(sorted(found, key=lambda table: (table[ee], table))), steps


def _outcome(call, *args):
    """What a call returns, or the type and kind of what it raises."""
    try:
        return call(*args)
    except core.StarError as exc:
        return type(exc), exc.kind


def _etale_maps(presheaves):
    """Every etale map of verify.etale_idem_pool, then the structure map
    of Lambda(P) for each non-empty presheaf.  Built by the calling test:
    both read the lift table, so a fault there fails the test, not a shared
    fixture."""
    maps = list(dict.fromkeys(
        f for _, (f, _), _ in verify.etale_idem_pool(verify.catalogue(2))))
    lambdas = [topos.lam(P) for P in presheaves if not P.is_empty()]
    maps += [LP.structure_map for LP in lambdas]
    assert len(maps) > 150 and all(is_etale(f) for f in maps)
    return maps


def test_lift_table_is_the_grouped_scan(small_presheaves):
    for f in _etale_maps(small_presheaves):
        X = f.source
        codomains = {X.c(x) for x in X.elements}
        assert set(f.lifts) == codomains
        for p in codomains:
            scan = {}
            for z in X.elements:
                if X.mul[p][z] == z:
                    scan.setdefault(f.map[z], []).append(z)
            assert f.lifts[p] == {s: tuple(zs) for s, zs in scan.items()}


def test_etale_lift_matches_the_scan(small_presheaves):
    for f in _etale_maps(small_presheaves):
        for p in f.source.elements:
            for s in f.target.elements:
                want = _outcome(reference_lift, f, p, s)
                assert _outcome(etale_lift, f, p, s) == want, (f, p, s)


def test_canonical_action_matches_the_scan(small_presheaves):
    for f in _etale_maps(small_presheaves):
        assert ssets.canonical_action(f).action == reference_action(f), f


def test_action_table_matches_the_scan(small_presheaves):
    for f in _etale_maps(small_presheaves):
        assert f.action == reference_action(f), f
        for p in f.source.elements:
            for s in f.target.elements:
                want = _outcome(reference_lift, f, p, s)
                if type(want) is int:
                    assert etale_lift(f, p, s) == f.action[p][s] == want


def test_left_table_of_the_canonical_action_is_the_cell_formula(
        small_presheaves):
    maps = _etale_maps(small_presheaves)
    balanced = sum(assert_left_table(ssets.canonical_action(f)) for f in maps)
    assert balanced > 150


def test_an_ambiguous_lift_still_raises(c2, t1, monkeypatch):
    # the constant map Z/2 -> T1 is a left *-homomorphism but not etale:
    # both elements of Z/2 lie over the one element of T1
    f = StarMorphism(c2, t1, (0, 0))
    assert f.lifts[0] == {0: (0, 1)}
    # the lifting count of the etale cross-check sees both candidates, so it
    # agrees with the coset verdict instead of raising ConsistencyError
    assert not is_etale(f)
    # past the etale gate, the lift and the action refuse the two candidates
    monkeypatch.setattr(core, "is_etale", lambda f: True)
    monkeypatch.setattr(ssets, "is_etale", lambda f: True)
    for call in (etale_lift, reference_lift):
        with pytest.raises(ConsistencyError, match=r"\[0, 1\]"):
            call(f, 0, 0)
    for call in (ssets.canonical_action, reference_action):
        with pytest.raises(ConsistencyError, match="ambiguous"):
            call(f)


@pytest.mark.parametrize("budget", [1, 10, 100])
def test_generic_gamma_matches_the_inline_plan(small_presheaves, budget):
    for f in _etale_maps(small_presheaves):
        S = site.as_inverse(f.target)
        want = _outcome(lambda: {e: reference_generic_alphas(f, S, e, budget)[0]
                                 for e in S.idempotents})
        got = _outcome(lambda: topos.gamma(f, budget=budget).alphas)
        assert got == want, (f, budget)


def test_generic_gamma_stops_where_the_inline_plan_does(small_presheaves):
    # each idempotent's search has its own step count, so the least budget
    # that suffices is the largest of them
    for f in _etale_maps(small_presheaves):
        S = site.as_inverse(f.target)
        need = max(reference_generic_alphas(f, S, e, math.inf)[1]
                   for e in S.idempotents)
        topos.gamma(f, budget=need)
        with pytest.raises(SearchBudgetExceeded):
            topos.gamma(f, budget=need - 1)


def test_gamma_plan_is_kept_on_the_tables(i2):
    S = site.as_inverse(i2)
    for e in S.idempotents:
        R = site.representable_semigroup(S, e)
        assert topos._gamma_plan(R) is topos._gamma_plan(R)
        assert R.e == e and R._gamma_plan is topos._gamma_plan(R)
