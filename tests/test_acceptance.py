"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are exact; the populations are the named fixtures of
conftest.py.  The adjunction population (criteria 3-6) is every presheaf with
fibers of size at most 2 over SL2, the 3-chain, and I2, plus 100 seeded random
presheaves with fibers at most 3 (``acceptance_presheaves``).
"""

import time

import pytest

from stargroup import oracle, topos, verify
from stargroup.core import (
    StarMorphism,
    classify,
    identity_morphism,
    is_etale,
    same_tables,
)
from stargroup.groupoid import esn_groupoid, esn_semigroup, mediator_kind
from stargroup.modalg import fhat, lift_morphism, rho, validate_algebra
from stargroup.site import representable_semigroup, terminal_presheaf, validate_presheaf_map
from stargroup.ssets import balanced_check, canonical_action


def _announce(number, label, started):
    print(f"ACCEPTANCE {number} [{label}]: PASS ({time.time() - started:.1f}s)")


@pytest.fixture(scope="module")
def adjunction_results(acceptance_presheaves):
    """Per presheaf: the presheaf, its unit and its counit."""
    out = []
    for P in acceptance_presheaves:
        u = topos.unit(P)
        eps = topos.counit(u.lam_obj.structure_map, u.gamma_obj)
        out.append((P, u, eps))
    return out


def test_criterion_1_axiom_sweep(star_pool4):
    """Implication lattice and the eight order characterizations over the
    full order <= 4 enumeration with every admissible involution."""
    started = time.time()
    assert len(star_pool4) > 200
    po_checks = [verify.MAIN_CHECKS[f"lem:po-{i}"] for i in range(1, 9)]
    for X in star_pool4:
        r = classify(X)
        assert not r.involutive or (r.left_involutive and r.right_involutive), X
        assert not (r.left_involutive or r.right_involutive) or r.locally_involutive, X
        assert not r.left_involutive or r.corestrictive, X
        assert not r.right_involutive or r.restrictive, X
        assert not r.involutive or r.birestrictive, X
        assert r.quasi_involutive == (r.birestrictive and r.locally_involutive), X
        assert verify.MAIN_CHECKS["lem:birestrictive"](X), X
        assert verify.MAIN_CHECKS["lem:left/right"](X), X
        assert verify.MAIN_CHECKS["cor:3cond"](X), X
        for check in po_checks:
            assert check(X), X
    _announce(1, "axiom/implication sweep", started)


def test_criterion_2_esn_roundtrip(star_pool4):
    """ESN roundtrip on every quasi-involutive structure in the sweep, with
    the mediator kind matching the classification."""
    started = time.time()
    quasi = [X for X in star_pool4 if classify(X).quasi_involutive]
    assert len(quasi) > 20
    kinds_seen = set()
    for X in quasi:
        G = esn_groupoid(X)
        assert same_tables(esn_semigroup(G), X), X
        kind = mediator_kind(G)  # internally asserted against classify
        r = classify(X)
        assert (kind == "trivial") == r.inverse
        assert (kind in ("trivial", "symmetric")) == r.involutive
        kinds_seen.add(kind)
    assert "trivial" in kinds_seen and "symmetric" in kinds_seen
    _announce(2, f"ESN roundtrip on {len(quasi)} structures", started)


def test_criterion_3_adjunction(adjunction_results, c2, t1):
    """Unit components bijective, both triangles, and counit bijectivity
    matching (etale and left involutive) over the population, including the
    non-etale constant-map counterexample."""
    started = time.time()
    assert len(adjunction_results) == 175 + 100  # exhaustive + random
    for P, u, eps in adjunction_results:
        assert u.bijective, P
        assert topos.triangle_check(P), P
        f = u.lam_obj.structure_map
        assert topos.triangle_check2(f), P
        assert eps.bijective, P
        assert is_etale(f) and classify(f.source).left_involutive, P
    const = StarMorphism(c2, t1, (0, 0))
    data = topos.bsleft_eval(const)
    assert not data["etale"] and data["left_involutive"]
    assert not data["bijective"] and not data["iso"]
    _announce(3, f"adjunction over {len(adjunction_results)} presheaves", started)


def test_criterion_4_five_way_agreement(acceptance_presheaves):
    """prop_inv_check raises a ConsistencyError (EquivalenceBroken) on any
    disagreement, so a clean sweep is the assertion; both verdicts must
    occur."""
    started = time.time()
    verdicts = set()
    for P in acceptance_presheaves:
        verdicts.add(topos.prop_inv_check(P).inverse)
    assert verdicts == {True, False}
    _announce(4, "five-way involutivity agreement", started)


def test_criterion_5_fiber_presheaf(adjunction_results):
    """m is a bijective *-isomorphism over S for every generated etale
    left-involutive object, and the generic and fast Gamma paths agree
    (gamma() already cross-checks them; m_iso checks the transpose)."""
    started = time.time()
    count = 0
    for P, u, eps in adjunction_results:
        f = u.lam_obj.structure_map
        m = topos.m_iso(f)
        assert m.is_star_hom and m.is_bijective
        count += 1
    assert count > 200
    _announce(5, f"fiber presheaf m on {count} objects", started)


def test_criterion_6_balanced(adjunction_results, sl2, sl3, i2):
    """Balanced iff left involutive on every generated S-set over inverse
    bases; condition 1 holds for the canonical action of every Lambda(P)."""
    started = time.time()
    for P, u, eps in adjunction_results:
        A = canonical_action(u.lam_obj.structure_map)
        rep = balanced_check(A)
        assert rep.cond1 and rep.cond2 and rep.balanced and rep.left_identity
    from test_ssets import _enumerate_ssets
    pop = (_enumerate_ssets(sl2, 2) + _enumerate_ssets(sl2, 3)
           + _enumerate_ssets(sl3, 2) + _enumerate_ssets(i2, 2))
    outcomes = set()
    for A in pop:
        rep = balanced_check(A)  # a ConsistencyError on any mismatch
        outcomes.add((rep.balanced, rep.left_identity))
    assert (True, True) in outcomes and (False, False) in outcomes
    _announce(6, f"balanced iff left involutive over {len(pop)} S-sets", started)


@pytest.fixture(scope="module")
def fixture_etale_maps(sl2, sl3, i2, lz2, t1, p21, i2_inv):
    maps = [
        ("id:SL2", identity_morphism(sl2)),
        ("id:SL3", identity_morphism(sl3)),
        ("id:I2", identity_morphism(i2)),
        ("const:LZ2->T1", StarMorphism(lz2, t1, (0, 0))),
        ("lambda:P21", topos.lam(p21).structure_map),
    ]
    for e in i2_inv.idempotents:
        maps.append((f"psi:I2@{e}", representable_semigroup(i2_inv, e).psi))
    return maps


def test_criterion_7_algebras(fixture_etale_maps, p21, sl2_inv):
    """Every F-hat over the fixture set validates as a balanced algebra,
    every element is a partial isometry with aa* = a psi(a*), rho is a left
    *-homomorphism, and lifted morphisms preserve all structure."""
    started = time.time()
    total = 0
    for label, f in fixture_etale_maps:
        fh = fhat(f)
        total += len(fh.elements)
        assert validate_algebra(fh.algebra).ok, label
        mul, star = fh.algebra.product, fh.module.sset.star
        act, smap = fh.module.sset.action, fh.module.sset.smap
        for a in range(len(fh.elements)):
            assert mul[mul[a][star[a]]][a] == a, label
            assert mul[a][star[a]] == act[a][fh.base.star[smap[a]]], label
        r = rho(fh)
        assert r.injective and r.is_left_star_hom, label

    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    LP, LQ = topos.lam(p21), topos.lam(Q)
    phi = topos.lambda_morphism(gmap)
    fh_f, fh_g = fhat(LP.structure_map), fhat(LQ.structure_map)
    lift_morphism(phi, fh_f, fh_g)  # raises on any unpreserved structure
    lift_morphism(identity_morphism(LP.semigroup), fh_f, fh_f)
    _announce(7, f"F-hat algebras, {total} elements total", started)


def test_criterion_8_oracle_agreement():
    """naive_check equals the main verdict for every registered statement
    over the full n <= 3 enumeration plus sampled n = 4 structures, and the
    enumeration self-test counts match."""
    started = time.time()
    rows = verify.run_statements(max_order=4)
    bad = [r for r in rows if not r.ok]
    assert not bad, bad[:5]
    assert len(rows) > 5000
    assert {r.check for r in rows} == set(oracle.statement_ids())
    assert oracle.enumeration_counts(4) == {1: 1, 2: 4, 3: 18, 4: 126}
    _announce(8, f"oracle agreement on {len(rows)} rows", started)


def test_criterion_9_star_reversal(sl2_inv, i2_inv):
    """Star reversal in S(e) matches left compatibility, and S(e) inverse
    matches eS pairwise compatible, for all idempotents of SL2 and I2."""
    started = time.time()
    for S in (sl2_inv, i2_inv):
        for e in S.idempotents:
            rep = topos.prop_sym_check(S, e)
            assert rep.ok, (S, e)
            assert rep.seinv_agrees, (S, e)
            mul, star = S.semigroup.mul, S.semigroup.star
            assert oracle.naive_check("prop:sym", (mul, star, e))
            assert oracle.naive_check("rem:Seinv", (mul, star, e))
    _announce(9, "star reversal vs left compatibility", started)
