"""Each law is swept once.  Generated presheaves, Gamma presheaves, fiber
presheaves, m's transpose, S(e), the F-hat and Gamma-algebra semigroups and
the semigroup of an S-set are built without the sweep that used to follow
them, each law following from a check already run on the same object.
These tests keep each removed sweep as a reference over the acceptance
population (every presheaf with fibers of size at most 2 over SL2, the
3-chain and I2, plus 100 seeded random presheaves) and the inverse bases
(conftest.py), so a builder that broke a law would show here.  A morphism of
L(S) is its own transition key, equal to its plain pair."""

import pytest

from conftest import raises_kind
from stargroup import modalg, site, ssets, topos
from stargroup.core import (
    Invalid,
    check_star_semigroup,
    classify,
    identity_morphism,
    is_etale,
    same_tables,
    validate_star_semigroup,
)
from stargroup.site import LSMorphism, validate_presheaf
from stargroup.ssets import SSetStructure, sset_to_semigroup
from test_ssets import _enumerate_ssets


@pytest.fixture(scope="module")
def structure_maps(acceptance_presheaves):
    return [topos.lam(P).structure_map for P in acceptance_presheaves
            if not P.is_empty()]


def _revalidated(P):
    return validate_presheaf(P.base, P.fibers, P.transitions)


def test_every_generated_presheaf_passes_validate_presheaf(
        acceptance_presheaves):
    assert len(acceptance_presheaves) == 275
    for P in acceptance_presheaves:
        assert _revalidated(P) == P


def test_every_gamma_presheaf_passes_validate_presheaf(structure_maps, i2,
                                                        i2_inv):
    maps = structure_maps + [identity_morphism(i2)] + [
        site.representable_semigroup(i2_inv, e).psi
        for e in i2_inv.idempotents]
    for f in maps:
        G = topos.gamma(f).presheaf
        assert _revalidated(G) == G


def _transpose_inverts_evaluation(f, m):
    """m_iso's former sweep: the transpose Gamma(m) . eta(P_f) lands in
    Gamma(f), sends (e, e) to u and is a bijection onto each fiber."""
    S = site.as_inverse(f.target)
    P = topos.fiber_presheaf(f)
    LP = topos.lam(P)
    G = topos.gamma(f)
    for e in S.idempotents:
        carrier = site.representable_semigroup(S, e).carrier
        pos_ee = carrier.index((e, e))
        along = [(r, P.transitions[(s, e)]) for r, s in carrier]
        tables = []
        for ui, u in enumerate(f.fibers[e]):
            table = tuple(m.map[LP.index[(r, tr[ui])]] for r, tr in along)
            if table not in G.alphas[e] or table[pos_ee] != u:
                return False
            tables.append(table)
        if len(set(tables)) != len(G.alphas[e]):
            return False
    return True


def test_the_transpose_of_m_inverts_evaluation(structure_maps):
    assert len(structure_maps) > 200
    for f in structure_maps:
        assert _transpose_inverts_evaluation(f, topos.m_iso(f))


def test_representable_functoriality_sweeps_once_per_base(monkeypatch):
    built = []
    sweep = site._representable_functoriality.func

    def counted(S):
        built.append(S)
        return sweep(S)

    monkeypatch.setattr(site._representable_functoriality, "func", counted)
    # a base no other test builds: the 3-chain named for this test
    X = validate_star_semigroup(3, [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                                [0, 1, 2], name="functoriality-once")
    S = site.as_inverse(X)
    for P in site.enumerate_presheaves(S, 1):
        topos.unit(P)
    topos.gamma(identity_morphism(X))
    assert built == [S]


def test_a_composition_violation_names_plain_pairs(sl3_inv):
    fibers = {e: ("a", "b") for e in sl3_inv.idempotents}
    swap, keep = (1, 0), (0, 1)
    transitions = {(0, 0): keep, (1, 1): keep, (2, 2): keep,
                   (0, 1): keep, (1, 2): keep, (0, 2): swap}
    message = "CompositionViolation((1, 2), (0, 1))"
    for keys in (transitions, {LSMorphism(*k): t
                               for k, t in transitions.items()}):
        with raises_kind(Invalid, "PresheafInvalid") as info:
            validate_presheaf(sl3_inv, fibers, keys)
        assert str(info.value) == message


def test_a_morphism_is_its_own_transition_key(p21, sl2_inv,
                                              small_presheaves):
    m = LSMorphism(0, 1)
    assert m == (0, 1) and hash(m) == hash((0, 1)) and repr(m) == "(0 -> 1)"
    assert p21.transitions[m] == p21.transitions[(0, 1)] == (0, 0)
    generated = next(P for P in small_presheaves
                     if P.base is sl2_inv and len(P.fiber(1)) == 2)
    assert set(generated.transitions) == {(0, 0), (1, 1), (0, 1)}
    assert all(generated.transitions[(m.s, m.e)] == generated.transitions[m]
               for m in site.all_ls_morphisms(sl2_inv))


def test_every_fiber_presheaf_passes_validate_presheaf(structure_maps):
    assert len(structure_maps) == 272
    for f in structure_maps:
        P = topos.fiber_presheaf(f)
        assert _revalidated(P) == P


def _is_star_semigroup(X):
    return check_star_semigroup(X.order, X.mul, X.star) == ()


def test_every_small_fhat_is_a_star_semigroup(structure_maps):
    small = [f for f in structure_maps if f.source.order <= 8]
    assert len(small) == 137
    for f in small:
        fh = modalg.fhat(f)
        assert _is_star_semigroup(fh.semigroup)
        assert fh.psi.is_star_hom


def test_gamma_algebra_builds_a_star_semigroup(p21):
    f = topos.lam(p21).structure_map
    alg = modalg.fhat(f).algebra
    G = modalg.gamma_algebra(alg)
    X = G.source.source
    assert (X.mul, X.star) == (alg.product, alg.module.sset.star)
    assert _is_star_semigroup(X) and G.source.is_star_hom


def _recovers(A):
    """sset_to_semigroup's removed checks: a *-semigroup, and an etale
    *-homomorphism whose canonical action is A's."""
    X, f = sset_to_semigroup(A)
    return (_is_star_semigroup(X) and f.is_star_hom and is_etale(f)
            and ssets.canonical_action(f).action == A.action)


def test_the_semigroup_of_a_canonical_action_is_a_star_semigroup(
        structure_maps):
    for f in structure_maps:
        assert _recovers(ssets.canonical_action(f))


def test_the_semigroup_of_every_small_sset_is_a_star_semigroup(
        sl2, sl3, i2, lz2, rz2, c2):
    population = [A for base in (sl2, sl3, i2, lz2, rz2, c2)
                  for size in (1, 2) for A in _enumerate_ssets(base, size)]
    population += _enumerate_ssets(sl2, 3)
    assert len(population) == 47
    assert all(_recovers(A) for A in population)


def test_sset_to_semigroup_refuses_an_empty_sset(sl2):
    # nothing to refuse: the empty S-set is the empty *-semigroup, etale
    # over its base; a broken S-set is refused below
    X, f = sset_to_semigroup(SSetStructure(0, (), sl2, (), ()))
    assert X.order == 0 and f.target is sl2
    assert f.is_star_hom and is_etale(f)


# over SL2, each breaking one law of check_sset; before, these raised
# an Invalid of kind InvalidStarSemigroup or a ConsistencyError
@pytest.mark.parametrize("size, star, smap, action, law", [
    (2, (0, 0), (0, 0), ((0, 0), (1, 1)), "Involution"),
    (1, (0,), (1,), ((0, 0),), "Equivariance"),
    (2, (0, 1), (1, 1), ((1, 1), (0, 0)), "Unit"),
    (2, (1, 0), (0, 1), ((0, 0), (1, 1)), "StarMorphism"),
])
def test_sset_to_semigroup_refuses_a_broken_sset(sl2, size, star, smap,
                                                 action, law):
    A = SSetStructure(size, star, sl2, smap, action)
    with raises_kind(Invalid, "SSetInvalid", match=f"{law}Violation"):
        sset_to_semigroup(A)


def test_every_representable_semigroup_passes_validation(inverse_bases):
    count = 0
    for X in inverse_bases:
        S = site.as_inverse(X)
        for e in S.idempotents:
            R = site.representable_semigroup(S, e)
            se = R.semigroup
            assert same_tables(
                validate_star_semigroup(se.order, se.mul, se.star), se)
            assert classify(se).left_involutive
            assert R.psi.is_star_hom and is_etale(R.psi)
            count += 1
    assert count == 77


def test_each_representable_action_is_over_s(inverse_bases):
    for X in inverse_bases:
        S = site.as_inverse(X)
        for m in site.all_ls_morphisms(S):
            f = site.representable_action(S, m)
            src = site.representable_semigroup(S, site.ls_dom(S, m))
            tgt = site.representable_semigroup(S, m.e)
            assert all(tgt.psi.map[f.map[i]] == src.psi.map[i]
                       for i in range(src.semigroup.order))


def test_each_m_is_a_bijection_over_s(structure_maps):
    for f in structure_maps:
        m = topos.m_iso(f)
        LP = topos.lam(topos.fiber_presheaf(f))
        assert set(m.map) == set(f.source.elements)
        assert all(f.map[m.map[i]] == r for i, (r, _) in enumerate(LP.pairs))


def test_each_lambda_of_a_natural_map_is_over_s(acceptance_presheaves):
    for P in acceptance_presheaves:
        u = topos.unit(P)
        terminal = site.terminal_presheaf(P.base)
        maps = [site.validate_presheaf_map(P, u.gamma_obj.presheaf,
                                           u.components),
                site.validate_presheaf_map(
                    P, terminal, {e: (0,) * len(P.fiber(e))
                                  for e in P.fibers})]
        for gamma_map in maps:
            out = topos.lambda_morphism(gamma_map)
            LP, LQ = topos.lam(gamma_map.source), topos.lam(gamma_map.target)
            assert all(LQ.pairs[j][0] == LP.pairs[i][0]
                       for i, j in enumerate(out.map))
