"""Each presheaf law is swept once.  Generated presheaves, Gamma presheaves
and m's transpose are built without the sweep that used to follow them;
these tests keep each removed sweep as a reference over the acceptance
population (every presheaf with fibers of size at most 2 over SL2, the
3-chain and I2, plus 100 seeded random presheaves), so a builder that
broke a law would show here.  A morphism of L(S) is its own transition
key, equal to its plain pair."""

import random

import pytest

from stargroup import site, topos
from stargroup.core import identity_morphism, validate_star_semigroup
from stargroup.site import LSMorphism, PresheafInvalid, validate_presheaf


@pytest.fixture(scope="module")
def population(sl2_inv, sl3_inv, i2_inv):
    bases = (sl2_inv, sl3_inv, i2_inv)
    out = [P for S in bases for P in site.enumerate_presheaves(S, 2)]
    out += [site.random_presheaf(bases[i % 3], 3, random.Random(1000 + i))
            for i in range(100)]
    return out


@pytest.fixture(scope="module")
def structure_maps(population):
    return [topos.lam(P).structure_map for P in population
            if not P.is_empty()]


def _revalidated(P):
    return validate_presheaf(P.base, P.fibers, P.transitions)


def test_every_generated_presheaf_passes_validate_presheaf(population):
    assert len(population) == 275
    for P in population:
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
        carrier = site.representable_tables(S, e).carrier
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
        if not P.is_empty():
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
        with pytest.raises(PresheafInvalid) as info:
            validate_presheaf(sl3_inv, fibers, keys)
        assert str(info.value) == message


def test_a_morphism_is_its_own_transition_key(p21, sl2_inv):
    m = LSMorphism(0, 1)
    assert m == (0, 1) and hash(m) == hash((0, 1)) and repr(m) == "(0 -> 1)"
    assert p21.transitions[m] == p21.transitions[(0, 1)] == (0, 0)
    generated = next(P for P in site.enumerate_presheaves(sl2_inv, 2)
                     if len(P.fiber(1)) == 2)
    assert set(generated.transitions) == {(0, 0), (1, 1), (0, 1)}
    assert all(generated.transitions[(m.s, m.e)] == generated.transitions[m]
               for m in site.all_ls_morphisms(sl2_inv))
