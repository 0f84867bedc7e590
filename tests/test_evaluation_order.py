"""Gamma's fibers in evaluation order, and what follows from it.

Each fiber of Gamma(f) is sorted by the value at (e, e), then by the table.
For an etale f with left involutive source, evaluation at (e, e) is a
bijection onto f^-1(e), so the fiber lists the lifts of f^-1(e) in its
order.  Then for every presheaf P the unit's table of a in P(d) sits at
slot a of Gamma(Lambda P)(d): every unit component is the identity,
Gamma(Lambda P) has P's transitions, and Lambda of it, or of the fiber
presheaf of Lambda P's structure map, is Lambda(P) itself while held."""

import math

from stargroup import site, topos, verify
from stargroup.core import classify, is_etale
from stargroup.site import representable_semigroup
from test_lift_tables import reference_generic_alphas


def slot_of_ee(S, e):
    return representable_semigroup(S, e).index[(e, e)]


def tables_of(P):
    """P's fiber sizes and transitions, labels aside."""
    S = P.base
    return ([len(P.fiber(e)) for e in S.idempotents],
            [P.transitions[m] for m in site.all_ls_morphisms(S)])


def test_lambda_is_one_object_through_the_chain(acceptance_presheaves):
    for P in acceptance_presheaves:
        LP = topos.lam(P)
        f = LP.structure_map
        u = topos.unit(P)
        assert u.lam_obj is LP
        for d in P.base.idempotents:
            assert u.components[d] == tuple(range(len(P.fiber(d)))), (P, d)
        G = topos.gamma(f)
        assert tables_of(G.presheaf) == tables_of(P), P
        assert topos.counit(f, G).lam_gamma is LP
        assert topos.lam(topos.fiber_presheaf(f)) is LP


def test_etale_fibers_list_the_lifts_in_fiber_order():
    maps = dict.fromkeys(
        f for _, (f, _), _ in verify.etale_idem_pool(verify.catalogue(2)))
    for f in maps:
        S = site.as_inverse(f.target)
        G = topos.gamma(f)
        for e in S.idempotents:
            ee = slot_of_ee(S, e)
            assert [table[ee] for table in G.alphas[e]] == list(f.fibers[e])


def test_other_fibers_are_sorted_by_evaluation_then_table():
    maps = [f for _, f, _ in verify.morphism_pool(verify.catalogue(3))
            if classify(f.target).inverse and f.is_star_hom
            and not is_etale(f)]
    assert len(maps) > 50
    for f in maps:
        S = site.as_inverse(f.target)
        G = topos.gamma(f)
        for e in S.idempotents:
            ee = slot_of_ee(S, e)
            fiber = G.alphas[e]
            assert list(fiber) == sorted(fiber, key=lambda t: (t[ee], t))
            want, _ = reference_generic_alphas(f, S, e, math.inf)
            assert set(fiber) == set(want) and len(fiber) == len(want)
