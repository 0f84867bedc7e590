import itertools
import random

import pytest

from stargroup import oracle, site, topos
from stargroup.core import ShapeError, classify, is_etale, validate_star_semigroup
from stargroup.site import (
    LSMorphism,
    NotInverse,
    PresheafInvalid,
    as_inverse,
    all_ls_morphisms,
    compose_ls,
    enumerate_presheaves,
    ls_dom,
    ls_morphisms,
    ls_pullback,
    random_presheaf,
    representable_action,
    representable_presheaf,
    representable_semigroup,
    terminal_presheaf,
    validate_presheaf,
    validate_presheaf_map,
    NotNatural,
)


def test_as_inverse(i2, sl2, lz2):
    as_inverse(i2)
    as_inverse(sl2)
    with pytest.raises(NotInverse):
        as_inverse(lz2)


def test_ls_morphisms_sl2(sl2_inv):
    ms = ls_morphisms(sl2_inv, 0, 1)
    assert [m.s for m in ms] == [0]
    for e in sl2_inv.idempotents:
        assert LSMorphism(e, e) in ls_morphisms(sl2_inv, e, e)


def test_ls_morphisms_i2(i2_inv, i2):
    maps = oracle.symmetric_inverse_maps(2)
    d = maps.index((0, -1))       # identity on the first point
    e = maps.index((0, 1))        # full identity
    ms = ls_morphisms(i2_inv, d, e)
    assert sorted(maps[m.s] for m in ms) == [(0, -1), (1, -1)]


def test_left_cancellative(i2_inv):
    sg = i2_inv.semigroup
    for m1 in all_ls_morphisms(i2_inv):
        d = ls_dom(i2_inv, m1)
        for c in i2_inv.idempotents:
            seen = {}
            for m2 in ls_morphisms(i2_inv, c, d):
                composite = compose_ls(i2_inv, m1, m2).s
                assert composite not in seen
                seen[composite] = m2


def test_pullback_equal_legs(sl2_inv):
    s = LSMorphism(0, 1)
    sq = ls_pullback(sl2_inv, s, s)
    assert sq.apex == sl2_inv.semigroup.c(0)
    assert sq.to_dom_first == sq.to_dom_second


def test_pullback_sl2(sl2_inv):
    s = LSMorphism(0, 1)
    t = LSMorphism(1, 1)
    sq = ls_pullback(sl2_inv, s, t)
    assert sq.apex == 0


def test_pullback_i2_exhaustive(i2_inv):
    # every pair with common codomain has a verified universal square
    for m1 in all_ls_morphisms(i2_inv):
        for m2 in all_ls_morphisms(i2_inv):
            if m1.e == m2.e:
                ls_pullback(i2_inv, m1, m2)


def test_validate_presheaf_terminal(i2_inv):
    P = terminal_presheaf(i2_inv)
    assert all(len(P.fiber(e)) == 1 for e in i2_inv.idempotents)


def test_validate_presheaf_p21(p21):
    assert p21.fiber(1) == ("u", "v")
    assert p21.fiber(0) == ("w",)


def test_identity_violation_caught(sl2_inv):
    with pytest.raises(PresheafInvalid) as err:
        validate_presheaf(sl2_inv, {1: ("u", "v"), 0: ("w",)},
                          {(0, 0): (0,), (1, 1): (1, 0), (0, 1): (0, 0)})
    assert any(k == "IdentityViolation" for k, _ in err.value.violations)


def test_composition_violation_caught(sl3_inv):
    fibers = {2: ("a",), 1: ("b",), 0: ("c", "d")}
    transitions = {
        (0, 0): (0, 1), (1, 1): (0,), (2, 2): (0,),
        (1, 2): (0,), (0, 1): (0,), (0, 2): (1,),
    }
    with pytest.raises(PresheafInvalid) as err:
        validate_presheaf(sl3_inv, fibers, transitions)
    assert any(k == "CompositionViolation" for k, _ in err.value.violations)


def test_representable_presheaf_sl2(sl2_inv):
    P = representable_presheaf(sl2_inv, 1)
    assert P.fiber(1) == ("1",)
    assert P.fiber(0) == ("0",)
    Q = representable_presheaf(sl2_inv, 0)
    assert all(len(Q.fiber(d)) <= 1 for d in sl2_inv.idempotents)


def test_representable_contains_identity(i2_inv):
    for e in i2_inv.idempotents:
        P = representable_presheaf(i2_inv, e)
        assert str(e) in P.fiber(e)


def test_representable_semigroup_sl2(sl2_inv, sl2):
    R = representable_semigroup(sl2_inv, 1)
    assert R.carrier == ((0, 0), (1, 1))
    from stargroup.core import same_tables
    assert same_tables(R.semigroup, sl2)
    R0 = representable_semigroup(sl2_inv, 0)
    assert R0.carrier == ((0, 0),)


def test_representable_semigroup_flags(i2_inv):
    for e in i2_inv.idempotents:
        R = representable_semigroup(i2_inv, e)
        assert classify(R.semigroup).left_involutive
        assert R.psi.is_star_hom and is_etale(R.psi)


def test_projections_of_se_are_eS(i2_inv):
    sg = i2_inv.semigroup
    for e in i2_inv.idempotents:
        R = representable_semigroup(i2_inv, e)
        from stargroup.core import projections
        projs = {R.carrier[i] for i in projections(R.semigroup)}
        es = {s for s in sg.elements if sg.mul[e][s] == s}
        assert {s for (d, s) in projs} == es
        for (d, s) in projs:
            assert d == sg.d(s)


def test_representable_action(sl2_inv, i2_inv):
    # identity morphism acts as the identity
    for S in (sl2_inv, i2_inv):
        for e in S.idempotents:
            f = representable_action(S, LSMorphism(e, e))
            assert f.map == tuple(range(f.source.order))
    # inclusion S(0) -> S(1) over SL2
    f = representable_action(sl2_inv, LSMorphism(0, 1))
    assert f.source.order == 1 and f.is_injective


def test_representable_functoriality(i2_inv):
    for m1 in all_ls_morphisms(i2_inv):
        for m2 in all_ls_morphisms(i2_inv):
            if ls_dom(i2_inv, m1) != m2.e:
                continue
            f1 = representable_action(i2_inv, m1)
            f2 = representable_action(i2_inv, m2)
            f12 = representable_action(i2_inv, compose_ls(i2_inv, m1, m2))
            assert f12.map == tuple(f1.map[v] for v in f2.map)


def test_lem_xirho_on_generated_instances(i2_inv, sl2_inv, id_i2, id_sl2):
    # two left *-homs S(e) -> X over S agreeing at (e, e) agree: the value
    # at (e, e) determines the alpha table inside Gamma
    for S, f in ((i2_inv, id_i2), (sl2_inv, id_sl2)):
        G = topos.gamma(f)
        for e in S.idempotents:
            ee = representable_semigroup(S, e).index[(e, e)]
            values = [t[ee] for t in G.alphas[e]]
            assert len(set(values)) == len(values)


def test_yoneda_faithfulness(i2_inv):
    """Hom(d, e) -> {*-homs S(d) -> S(e) over S} is a bijection."""
    sg = i2_inv.semigroup
    for e in i2_inv.idempotents:
        R = representable_semigroup(i2_inv, e)
        G = topos.gamma(R.psi)
        for d in i2_inv.idempotents:
            homs = ls_morphisms(i2_inv, d, e)
            tables = set()
            for m in homs:
                act = representable_action(i2_inv, m)
                src = representable_semigroup(i2_inv, d)
                table = tuple(R.psi.map[act.map[i]] for i in range(src.semigroup.order))
                # encode alpha as its composition with psi_e positions
                tables.add(tuple(act.map))
            assert len(tables) == len(homs)
            assert len(homs) == len(G.alphas[d])


def test_presheaf_map_validation(p21, sl2_inv):
    Q = terminal_presheaf(sl2_inv)
    collapse = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    assert collapse.components[1] == (0, 0)
    # a non-natural family is rejected: target with two points at 1
    from stargroup.site import validate_presheaf
    Q2 = validate_presheaf(
        sl2_inv, {1: ("a", "b"), 0: ("z",)},
        {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)})
    validate_presheaf_map(p21, Q2, {1: (0, 1), 0: (0,)})
    with pytest.raises(NotNatural):
        # p21 transitions send both u, v to w; map below forces a mismatch
        Q3 = validate_presheaf(
            sl2_inv, {1: ("a",), 0: ("z0", "z1")},
            {(0, 0): (0, 1), (1, 1): (0,), (0, 1): (1,)})
        validate_presheaf_map(p21, Q3, {1: (0, 0), 0: (0,)})


def test_enumerate_presheaves_counts(sl2_inv, sl3_inv, i2_inv):
    assert sum(1 for _ in enumerate_presheaves(sl2_inv, 2)) == 11
    assert sum(1 for _ in enumerate_presheaves(sl3_inv, 2)) == 47
    # fibers <= 1 means subterminal: these match the 4 ideals of I2
    assert sum(1 for _ in enumerate_presheaves(i2_inv, 1)) == 4


def test_random_presheaf_deterministic(i2_inv):
    import random
    a = random_presheaf(i2_inv, 3, random.Random(11))
    b = random_presheaf(i2_inv, 3, random.Random(11))
    assert a == b


# ---------------------------------------------------------------------------
# presheaf generation against the full-sweep reference


def reference_fill(S, profile, rng=None):
    """The generator with the skeleton rebuilt on each call and every
    composition square re-checked after each assignment."""
    idems = set(S.idempotents)
    morphs = list(all_ls_morphisms(S))
    nonid = [m for m in morphs if not (m.s == m.e and m.s in idems)]
    factorizations = {
        m: [(m1, m2) for m1 in morphs for m2 in morphs
            if ls_dom(S, m1) == m2.e and compose_ls(S, m1, m2) == m]
        for m in morphs
    }
    assign = {(e, e): tuple(range(profile[e])) for e in idems}

    def candidates(m):
        size_e, size_d = profile[m.e], profile[ls_dom(S, m)]
        forced = None
        for m1, m2 in factorizations[m]:
            k1, k2 = (m1.s, m1.e), (m2.s, m2.e)
            if k1 in assign and k2 in assign:
                t = tuple(assign[k2][assign[k1][i]] for i in range(size_e))
                if forced is not None and t != forced:
                    return []
                forced = t
        if forced is not None:
            return [forced]
        opts = list(itertools.product(range(size_d), repeat=size_e))
        if rng is not None:
            rng.shuffle(opts)
        return opts

    def consistent():
        for m, facts in factorizations.items():
            key = (m.s, m.e)
            if key not in assign:
                continue
            for m1, m2 in facts:
                k1, k2 = (m1.s, m1.e), (m2.s, m2.e)
                if k1 in assign and k2 in assign:
                    if assign[key] != tuple(assign[k2][assign[k1][i]]
                                            for i in range(profile[m.e])):
                        return False
        return True

    def fill(k):
        if k == len(nonid):
            yield dict(assign)
            return
        key = (nonid[k].s, nonid[k].e)
        for cand in candidates(nonid[k]):
            assign[key] = cand
            if consistent():
                yield from fill(k + 1)
            del assign[key]

    yield from fill(0)


def reference_enumerate(S, max_fiber):
    for profile in site._valid_size_profiles(S, max_fiber):
        fibers = {e: tuple(str(i) for i in range(n))
                  for e, n in profile.items()}
        for transitions in reference_fill(S, profile):
            yield validate_presheaf(S, fibers, transitions)


def reference_random(S, max_fiber, rng):
    profiles = [p for p in site._valid_size_profiles(S, max_fiber)
                if sum(p.values()) > 0]
    rng.shuffle(profiles)
    for profile in profiles:
        for transitions in reference_fill(S, profile, rng=rng):
            fibers = {e: tuple(str(i) for i in range(n))
                      for e, n in profile.items()}
            return validate_presheaf(S, fibers, transitions)


def tables(P):
    return list(P.fibers.items()), list(P.transitions.items())


def test_enumerate_presheaves_matches_full_sweep(sl2_inv, sl3_inv, i2_inv, t1):
    # L(T1) has no non-identity morphism, so its search has depth 0
    for S in (sl2_inv, sl3_inv, i2_inv, as_inverse(t1)):
        got = [tables(P) for P in enumerate_presheaves(S, 2)]
        assert got == [tables(P) for P in reference_enumerate(S, 2)]


def test_random_presheaf_matches_full_sweep(sl2_inv, sl3_inv, i2_inv):
    bases = (sl2_inv, sl3_inv, i2_inv)
    for i in range(100):
        S = bases[i % 3]
        got = random_presheaf(S, 3, random.Random(1000 + i))
        want = reference_random(S, 3, random.Random(1000 + i))
        assert tables(got) == tables(want)


_P21_FIBERS = {1: ("u", "v"), 0: ("w",)}
_P21_TRANSITIONS = {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)}


@pytest.mark.parametrize("fibers, transitions", [
    # a transition entry that int() would truncate to (0, 0)
    (_P21_FIBERS, {**_P21_TRANSITIONS, (0, 1): (0.9, 0.2)}),
    # a fiber key that int() would read as 1
    ({1.7: ("u", "v"), 0: ("w",)}, _P21_TRANSITIONS),
    (_P21_FIBERS, {**_P21_TRANSITIONS, (0, 1): (False, 0)}),
    (_P21_FIBERS, {**_P21_TRANSITIONS, (0, 1): ("0", 0)}),
    (_P21_FIBERS, {(0, 0): (0,), (1, 1): (0, 1), (0.0, 1): (0, 0)}),
    (_P21_FIBERS, {(0, 0): (0,), (True, True): (0, 1), (0, 1): (0, 0)}),
])
def test_presheaf_refuses_non_int_keys_and_entries(sl2_inv, fibers,
                                                   transitions):
    with pytest.raises(ShapeError, match="must be integers"):
        validate_presheaf(sl2_inv, fibers, transitions)


@pytest.mark.parametrize("components", [
    {1: (0, 0.0), 0: (0,)},
    {1: (0, True), 0: (0,)},
    {1: (0, 0), 0.0: (0,)},
    {1: ("0", 0), 0: (0,)},
])
def test_presheaf_map_refuses_non_int_keys_and_entries(p21, sl2_inv,
                                                       components):
    Q = terminal_presheaf(sl2_inv)
    with pytest.raises(ShapeError, match="must be integers"):
        validate_presheaf_map(p21, Q, components)


@pytest.mark.parametrize("fibers, transitions", [
    (_P21_FIBERS, {5: (0,)}),
    ({1: 5, 0: ("w",)}, _P21_TRANSITIONS),
    (_P21_FIBERS, {(0, 0, 1): (0,)}),
    (_P21_FIBERS, list(_P21_TRANSITIONS.items())),
])
def test_presheaf_refuses_malformed_tables(sl2_inv, fibers, transitions):
    with pytest.raises(ShapeError):
        validate_presheaf(sl2_inv, fibers, transitions)


def test_presheaf_map_refuses_a_component_that_is_not_a_sequence(p21,
                                                                 sl2_inv):
    with pytest.raises(ShapeError):
        validate_presheaf_map(p21, terminal_presheaf(sl2_inv), {1: 5, 0: (0,)})


@pytest.mark.parametrize("fn, args", [
    (ls_morphisms, (0, 9)),
    (ls_morphisms, (-1, 1)),
    (representable_semigroup, (True,)),
    (representable_presheaf, (9,)),
    (representable_presheaf, (True,)),
    (representable_semigroup, (9,)),
    (representable_semigroup, (-1,)),
    (representable_semigroup, (0.0,)),
])
def test_element_arguments_are_checked_first(sl2_inv, fn, args):
    # with S(0) and S(1) cached, 0.0 and True must still be refused, not
    # served the entry of 0 or 1
    representable_semigroup(sl2_inv, 0)
    representable_semigroup(sl2_inv, 1)
    with pytest.raises(ShapeError):
        fn(sl2_inv, *args)


@pytest.mark.parametrize("max_fiber", [2.0, True, False, -1, "2", None])
def test_enumerate_presheaves_refuses_a_bad_max_fiber(sl2_inv, max_fiber):
    with pytest.raises(ShapeError, match="^max_fiber must be an integer >= 0"):
        next(enumerate_presheaves(sl2_inv, max_fiber))


@pytest.mark.parametrize("max_fiber", [0, -1, 1.5, True, "1"])
def test_random_presheaf_refuses_a_bad_max_fiber(sl2_inv, max_fiber):
    with pytest.raises(ShapeError, match="^max_fiber must be an integer >= 1"):
        random_presheaf(sl2_inv, max_fiber, random.Random(0))


def test_presheaf_generators_refuse_a_base_that_is_not_inverse(sl2):
    with pytest.raises(ShapeError, match="^base must be of type Inverse"):
        next(enumerate_presheaves(sl2, 1))
    with pytest.raises(ShapeError, match="^base must be of type Inverse"):
        random_presheaf(sl2, 1, random.Random(0))


def test_enumerate_presheaves_with_max_fiber_0_yields_the_empty_one(sl2_inv):
    assert [P.is_empty() for P in enumerate_presheaves(sl2_inv, 0)] == [True]


def test_random_presheaf_over_the_empty_base_is_the_empty_presheaf():
    # the only presheaf over a base without idempotents
    E = as_inverse(validate_star_semigroup(0, (), ()))
    for max_fiber in (1, 3):
        P = random_presheaf(E, max_fiber, random.Random(0))
        assert (P.base, P.fibers, P.transitions) == (E, {}, {})
