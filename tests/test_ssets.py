import itertools

import pytest

from conftest import raises_kind
from stargroup import oracle, topos
from stargroup.core import Invalid, ShapeError, StarMorphism, same_tables
from stargroup.ssets import (
    SSetStructure,
    balanced_check,
    canonical_action,
    is_left_involutive_sset,
    left_action,
    left_table,
    make_sset,
    retwist,
    sset_to_semigroup,
)


def test_canonical_action_identity_is_product(i2, id_i2):
    A = canonical_action(id_i2)
    for x in i2.elements:
        for s in i2.elements:
            assert A.act(x, s) == i2.mul[x][s]


def test_canonical_action_lambda_formula(p21):
    LP = topos.lam(p21)
    sg = p21.base.semigroup
    A = canonical_action(LP.structure_map)
    for i, (r, x) in enumerate(LP.pairs):
        for s in sg.elements:
            rs = sg.mul[r][s]
            expected = LP.index[(rs, p21.transitions[(sg.c(rs), sg.c(r))][x])]
            assert A.act(i, s) == expected


def test_canonical_action_representable(i2_inv):
    from stargroup.site import representable_semigroup
    sg = i2_inv.semigroup
    for e in i2_inv.idempotents:
        R = representable_semigroup(i2_inv, e)
        A = canonical_action(R.psi)
        for i, (r, t) in enumerate(R.carrier):
            for s in sg.elements:
                rs = sg.mul[r][s]
                expected = R.carrier.index((rs, sg.mul[t][sg.c(rs)]))
                assert A.act(i, s) == expected


def test_sset_roundtrip(sl2, id_sl2):
    A = canonical_action(id_sl2)
    X2, f2 = sset_to_semigroup(A)
    assert same_tables(X2, sl2)


def test_sset_roundtrip_lambda(p21):
    LP = topos.lam(p21)
    A = canonical_action(LP.structure_map)
    X2, f2 = sset_to_semigroup(A)
    assert X2.mul == LP.semigroup.mul


def test_category_isomorphism_on_morphisms(p21, sl2_inv):
    """Action-preserving *-morphisms over S between canonical actions are
    exactly the *-homomorphisms between the semigroups."""
    from stargroup.site import terminal_presheaf
    LP = topos.lam(p21)
    LQ = topos.lam(terminal_presheaf(sl2_inv))
    A, B = canonical_action(LP.structure_map), canonical_action(LQ.structure_map)
    for fmap in itertools.product(range(LQ.semigroup.order),
                                  repeat=LP.semigroup.order):
        over_s = all(B.smap[fmap[x]] == A.smap[x] for x in A.elements)
        if not over_s:
            continue
        star_ok = all(fmap[A.star[x]] == B.star[fmap[x]] for x in A.elements)
        act_ok = all(
            fmap[A.act(x, s)] == B.act(fmap[x], s)
            for x in A.elements for s in sl2_inv.semigroup.elements
        )
        hom = StarMorphism(LP.semigroup, LQ.semigroup, fmap).is_star_hom
        assert (star_ok and act_ok) == hom


def test_retwist_trivial_when_star_hom(p21):
    LP = topos.lam(p21)
    rt = retwist(LP.structure_map)
    assert rt.product_unchanged
    assert all(rt.conditions)


def test_retwist_idempotent(id_i2):
    rt = retwist(id_i2)
    rt2 = retwist(rt.structure_map)
    assert rt2.semigroup.mul == rt.semigroup.mul


def test_retwist_on_oracle_found_nonmult(star_pool):
    """Retwist genuinely non-multiplicative etale left *-homomorphisms from
    the oracle search: the product must change and conditions 3 and 4 must
    be false; 1 and 2 stay paired but need not follow (the two-atom
    semilattice collapsed onto SL2 leaves them true)."""
    sources = [(X.mul, X.star) for X in star_pool]
    targets = [t for t in sources if oracle._n_inverse(t[0])]
    found = oracle.search_nonmult_etale_left_homs(sources, targets)
    assert found, "expected non-multiplicative etale left *-homs at order <= 3"
    seen_left_iso_without_star_iso = False
    for (mx, sx), (ms, ss), fmap in found[:8]:
        from stargroup.core import validate_star_semigroup
        X = validate_star_semigroup(len(mx), mx, sx)
        S = validate_star_semigroup(len(ms), ms, ss)
        f = StarMorphism(X, S, fmap)
        rt = retwist(f)
        assert not rt.product_unchanged
        c1, c2, c3, c4 = rt.conditions
        assert not c3 and not c4
        assert c1 == c2
        if c1:
            seen_left_iso_without_star_iso = True
    # the search settles the open question: there is a left *-isomorphism
    # that is not a *-isomorphism
    assert seen_left_iso_without_star_iso


def test_balanced_check_lambda(p21):
    LP = topos.lam(p21)
    A = canonical_action(LP.structure_map)
    rep = balanced_check(A)
    assert rep.cond1 and rep.cond2 and rep.balanced and rep.left_identity


def test_balanced_check_id(id_sl2):
    assert balanced_check(canonical_action(id_sl2)).balanced


def test_sset_verdicts_are_kept_on_the_sset(i2):
    A = canonical_action(StarMorphism(i2, i2, tuple(i2.elements)))
    for verdict in (balanced_check, is_left_involutive_sset):
        first = verdict(A)
        misses = verdict.cache_info().misses
        assert verdict(A) is first
        assert verdict.cache_info().misses == misses
    assert not hasattr(SSetStructure, "balance")
    assert not hasattr(SSetStructure, "left_identity")


def test_the_empty_sset_is_balanced_with_empty_left_rows(sl2):
    # its action table has no columns to read the left action from
    A = make_sset(0, (), sl2, (), ())
    assert left_table(A) == ((),) * sl2.order
    assert balanced_check(A).balanced


def test_corrupted_action_caught(sl2, id_sl2):
    A = canonical_action(id_sl2)
    bad_action = [list(r) for r in A.action]
    bad_action[1][0] = 1  # 1 . 0 should be 0
    with raises_kind(Invalid, "SSetInvalid"):
        make_sset(A.size, A.star, A.base, A.smap, bad_action)


@pytest.mark.parametrize("size, action", [
    (2, ((0.0, 0), (1, 1))),
    (2, None),
    (2.0, ((0, 0), (1, 1))),
])
def test_malformed_sset_is_a_shape_error(sl2, size, action):
    with pytest.raises(ShapeError):
        make_sset(size, sl2.star, sl2, (0, 1), action)
    with pytest.raises(ShapeError):
        SSetStructure(size, sl2.star, sl2, (0, 1), action)


def test_left_action(sl2, id_sl2, i2, id_i2):
    A = canonical_action(id_i2)
    for r in i2.elements:
        for x in i2.elements:
            assert left_action(A, r, x) == i2.mul[r][x]


@pytest.mark.parametrize("x, s", [
    (-1, -1), (-1, 0), (0, -1), (7, 0), (0, 7), (True, 0), (0, 1.0)])
def test_act_and_left_action_refuse_an_argument_out_of_range(id_i2, x, s):
    # I2 has seven elements; a negative index must not read from the end
    A = canonical_action(id_i2)
    for call in (lambda: A.act(x, s), lambda: left_action(A, s, x)):
        with pytest.raises(ShapeError, match="must be an integer in 0..6"):
            call()


def test_left_action_unit(p21):
    LP = topos.lam(p21)
    X = LP.semigroup
    A = canonical_action(LP.structure_map)
    for i in range(X.order):
        r = A.smap[X.mul[i][X.star[i]]]  # f(x)f(x)* as base element
        assert left_action(A, r, i) == i


def test_mixed_associativity(id_i2, i2):
    # for a multiplicative structure map: (xy)s = x(ys)
    A = canonical_action(id_i2)
    for x in i2.elements:
        for y in i2.elements:
            xy = i2.mul[x][y]
            for s in i2.elements:
                assert A.act(xy, s) == i2.mul[x][A.act(y, s)]


def _enumerate_ssets(base, size):
    """All involutive S-sets on a carrier of the given size over base."""
    S = base
    stars = [p for p in itertools.permutations(range(size))
             if all(p[p[i]] == i for i in range(size))]
    out = []
    for star in stars:
        for smap in itertools.product(range(S.order), repeat=size):
            if any(smap[star[x]] != S.star[smap[x]] for x in range(size)):
                continue
            fibers = []
            for x in range(size):
                fibers.append([
                    [y for y in range(size) if smap[y] == S.mul[smap[x]][s]]
                    for s in S.elements
                ])
            for choice in itertools.product(
                *[itertools.product(*fibers[x]) for x in range(size)]
            ):
                try:
                    out.append(make_sset(size, star, S, smap, choice))
                except Invalid as exc:
                    assert exc.kind == "SSetInvalid"
    return out


def test_balanced_iff_left_involutive_over_inverse(sl2, sl3, i2):
    """Over an inverse base, balanced and left involutive coincide;
    balanced_check raises a ConsistencyError (EquivalenceBroken) if they
    ever differ, so sweeping the full population is the assertion."""
    pop = (_enumerate_ssets(sl2, 2) + _enumerate_ssets(sl2, 3)
           + _enumerate_ssets(sl3, 2) + _enumerate_ssets(i2, 2))
    assert len(pop) > 20
    outcomes = {(balanced_check(A).balanced, is_left_involutive_sset(A))
                for A in pop}
    assert all(b == l for b, l in outcomes)
    # the population must exercise both verdicts for the test to mean much
    assert (True, True) in outcomes and (False, False) in outcomes


def test_balanced_forward_over_noninverse(lz2):
    """Over a non-inverse base only the forward direction is required:
    balanced implies the left identity (checked inside balanced_check)."""
    for A in _enumerate_ssets(lz2, 2):
        balanced_check(A)


def test_thm_bal_balanced_ssets_are_presheaves(sl2, sl3, i2):
    """Balanced S-sets over an inverse base correspond to presheaves: the
    induced etale object has bijective counit (an isomorphism over S)."""
    pop = (_enumerate_ssets(sl2, 2) + _enumerate_ssets(sl3, 2)
           + _enumerate_ssets(i2, 2))
    balanced = [A for A in pop if balanced_check(A).balanced]
    assert balanced
    for A in balanced:
        X, f = sset_to_semigroup(A)
        eps = topos.counit(f)
        assert eps.is_iso


def test_left_identity_gives_left_involutive_product(sl2, sl3, i2):
    """An S-set with the left identity induces a left involutive semigroup;
    without it the induced semigroup fails the left identity too."""
    from stargroup.core import classify
    pop = (_enumerate_ssets(sl2, 2) + _enumerate_ssets(sl3, 2)
           + _enumerate_ssets(i2, 2))
    for A in pop:
        X, f = sset_to_semigroup(A)
        assert classify(X).left_involutive == is_left_involutive_sset(A)


def test_canonical_action_built_once_per_morphism(i2):
    f = StarMorphism(i2, i2, tuple(i2.elements))
    A = canonical_action(f)
    assert canonical_action(f) is A
    # an equal morphism is another object, with its own S-set
    g = StarMorphism(i2, i2, tuple(i2.elements))
    assert canonical_action(g) is not A
    assert canonical_action(g).action == A.action


def test_equal_maps_over_different_sources_get_different_ssets(c2):
    """Two C2-sets on two points, one trivial and one swapping: their
    Lambdas have the same structure map but different involutions, so
    their canonical S-sets differ."""
    from stargroup import site

    S = site.as_inverse(c2)
    (e,) = S.idempotents
    g = next(s for s in c2.elements if s != e)
    maps = []
    for swap in ((0, 1), (1, 0)):
        P = site.validate_presheaf(S, {e: ("a", "b")},
                                   {(e, e): (0, 1), (g, e): swap})
        maps.append(topos.lam(P).structure_map)
    f1, f2 = maps
    assert f1.map == f2.map and f1.source != f2.source
    A1, A2 = canonical_action(f1), canonical_action(f2)
    assert A1 is not A2 and A1.star != A2.star
    assert canonical_action(f1) is A1 and canonical_action(f2) is A2
