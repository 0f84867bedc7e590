import dataclasses
import gc
import inspect
import weakref

import pytest

from stargroup import core, oracle, site, topos, verify
from stargroup.core import (
    ConsistencyError,
    InvalidStarSemigroup,
    ShapeError,
    StarMorphism,
    classify,
    etale_lift,
    identity_morphism,
    is_etale,
    projections,
)
from stargroup.site import (
    LSMorphism,
    representable_presheaf,
    representable_semigroup,
    terminal_presheaf,
    empty_presheaf,
    validate_presheaf,
    validate_presheaf_map,
)
from stargroup.modalg import fhat, rho, validate_algebra
from stargroup.ssets import balanced_check, canonical_action
from stargroup.topos import (
    bsleft_eval,
    counit,
    counit_explicit_preimage,
    fiber_presheaf,
    gamma,
    ideal_correspondence,
    lam,
    lambda_morphism,
    left_compatible,
    m_iso,
    prop_inv_check,
    prop_sym_check,
    triangle_check,
    triangle_check2,
    unit,
)


def test_lambda_terminal_is_base(sl2_inv, sl2):
    # pairs (r, 0) are listed in element order, so the tables must coincide
    LP = lam(terminal_presheaf(sl2_inv))
    assert tuple(r for r, _ in LP.pairs) == tuple(sl2.elements)
    assert LP.semigroup.mul == sl2.mul and LP.semigroup.star == sl2.star


def test_lambda_p21(p21):
    LP = lam(p21)
    assert len(LP.pairs) == 3
    u = LP.index[(1, 0)]
    v = LP.index[(1, 1)]
    assert LP.semigroup.mul[u][v] == u
    assert LP.semigroup.mul[v][u] == v  # non-commuting projections


def test_lambda_of_representable_is_se(i2_inv):
    # checked internally by representable_semigroup; force it for every e
    for e in i2_inv.idempotents:
        representable_semigroup(i2_inv, e)


def test_lambda_morphism_collapse(p21, sl2_inv):
    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    f = lambda_morphism(gmap)
    assert f.source.order == 3 and f.target.order == 2
    assert f.is_star_hom


def test_lambda_morphism_functorial(p21, sl2_inv):
    Q = terminal_presheaf(sl2_inv)
    idm = validate_presheaf_map(p21, p21, {1: (0, 1), 0: (0,)})
    col = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    li = lambda_morphism(idm)
    lc = lambda_morphism(col)
    assert li.map == tuple(range(3))
    composite = tuple(lc.map[li.map[i]] for i in range(3))
    assert composite == lc.map


def test_gamma_of_lambda_p21(p21):
    LP = lam(p21)
    G = gamma(LP.structure_map)
    assert G.fiber_size(1) == 2
    assert G.fiber_size(0) == 1


def test_gamma_constant_map(const_c2_t1):
    G = gamma(const_c2_t1)
    assert G.fiber_size(0) == 1  # only alpha(e,e) = 0 extends


def test_gamma_identity_is_terminal(i2_inv, id_i2):
    G = gamma(id_i2)
    for e in i2_inv.idempotents:
        assert G.fiber_size(e) == 1


def test_gamma_budget(p21):
    LP = lam(p21)
    with pytest.raises(topos.SearchBudgetExceeded):
        gamma(LP.structure_map, budget=2)


def test_unit_iso_terminal(sl2_inv):
    u = unit(terminal_presheaf(sl2_inv))
    assert u.bijective


def test_unit_iso_p21(p21):
    u = unit(p21)
    assert [len(u.components[e]) for e in sorted(u.components)] == [1, 2]


def test_a_non_natural_unit_raises_not_natural(p21, monkeypatch):
    # Gamma whose identity transition at 1 swaps its two points: each unit
    # component is still a bijection, but the family is not natural
    real = topos.gamma

    def swapped(f):
        G = real(f)
        transitions = dict(G.presheaf.transitions)
        transitions[(1, 1)] = transitions[(1, 1)][::-1]
        presheaf = site.Presheaf(G.base, G.presheaf.fibers, transitions)
        return dataclasses.replace(G, presheaf=presheaf)

    monkeypatch.setattr(topos, "gamma", swapped)
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    with pytest.raises(site.NotNatural):
        unit(P)


def test_unit_yoneda(i2_inv):
    """eta on a representable recovers Yoneda fullness: components biject
    Hom(d, e) with the *-homomorphisms S(d) -> S(e) over S."""
    for e in i2_inv.idempotents:
        P = representable_presheaf(i2_inv, e)
        u = unit(P)
        for d in i2_inv.idempotents:
            assert len(u.components[d]) == len(P.fiber(d))


def test_counit_etale_bijective(p21, id_i2):
    LP = lam(p21)
    assert counit(LP.structure_map).bijective
    assert counit(id_i2).bijective


def test_counit_constant_not_surjective(const_c2_t1):
    eps = counit(const_c2_t1)
    assert eps.injective and not eps.surjective
    assert set(eps.morphism.map) == {0}


def test_counit_bijective_without_iso(rz2, sl2):
    """The constant *-homomorphism from the right-zero semigroup is not
    etale and its source is not left involutive, yet the counit is a
    bijection; it fails to be an isomorphism because the inverse map is not
    a left *-homomorphism.  This also settles the open question: a
    bijective left *-homomorphism need not admit a left *-homomorphism
    inverse."""
    f = StarMorphism(rz2, sl2, (0, 0))
    assert f.is_star_hom and not is_etale(f)
    assert not classify(rz2).left_involutive
    eps = counit(f)
    assert eps.bijective
    assert eps.inverse_is_left_star_hom is False
    assert not eps.is_iso
    assert eps.morphism.is_left_star_hom and not eps.morphism.is_multiplicative


def test_counit_iso_iff_etale_left_involutive(p21, id_i2, id_sl2,
                                              const_c2_t1, rz2, sl2):
    probes = [lam(p21).structure_map, id_i2, id_sl2, const_c2_t1,
              StarMorphism(rz2, sl2, (0, 0)),
              StarMorphism(sl2, sl2, (0, 0))]
    for f in probes:
        data = bsleft_eval(f)
        assert data["iso"] == (data["etale"] and data["left_involutive"])
    # the last probe shows bijectivity alone is weaker than isomorphism
    # even with a left involutive source
    data = bsleft_eval(StarMorphism(sl2, sl2, (0, 0)))
    assert data["bijective"] and not data["iso"]


def test_counit_naturality(p21, sl2_inv):
    """Naturality square of the counit for a morphism of X(S)."""
    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    LP, LQ = lam(p21), lam(Q)
    m = lambda_morphism(gmap)
    g, f = LP.structure_map, LQ.structure_map
    Gg, Gf = gamma(g), gamma(f)
    eps_g, eps_f = counit(g, Gg), counit(f, Gf)
    # Lambda Gamma (m): postcompose each alpha with m, then Lambda
    for i, (r, xi) in enumerate(eps_g.lam_gamma.pairs):
        e = sl2_inv.semigroup.c(r)
        table = Gg.alphas[e][xi]
        moved = tuple(m.map[v] for v in table)
        j = eps_f.lam_gamma.index[(r, Gf.alphas[e].index(moved))]
        assert eps_f.morphism.map[j] == m.map[eps_g.morphism.map[i]]


def test_triangles(p21, sl2_inv, i2_inv):
    assert triangle_check(terminal_presheaf(sl2_inv))
    assert triangle_check(p21)
    assert triangle_check2(lam(p21).structure_map)
    for e in i2_inv.idempotents:
        assert triangle_check(representable_presheaf(i2_inv, e))


def test_triangle2_non_etale(const_c2_t1):
    assert triangle_check2(const_c2_t1)


def test_fiber_presheaf_identity(i2, id_i2):
    P = fiber_presheaf(id_i2)
    for e in P.fibers:
        assert P.fiber(e) == (str(e),)


def test_fiber_presheaf_lambda(p21):
    LP = lam(p21)
    P = fiber_presheaf(LP.structure_map)
    assert sorted(len(P.fiber(e)) for e in P.fibers) == [1, 2]


def test_m_iso(p21, id_i2, id_sl2):
    for f in (lam(p21).structure_map, id_i2, id_sl2):
        m = m_iso(f)
        assert m.is_star_hom and m.is_bijective


def test_m_iso_recovers_elements(id_i2, i2):
    m = m_iso(id_i2)
    # m(f(x), xx*) = x, i.e. m is surjective with the explicit preimage
    assert set(m.map) == set(i2.elements)


def test_gamma_fast_equals_generic(p21, id_i2, id_sl2, i2_inv):
    probes = [lam(p21).structure_map, id_i2, id_sl2]
    probes += [representable_semigroup(i2_inv, e).psi
               for e in i2_inv.idempotents]
    for f in probes:
        S = site.as_inverse(f.target)
        for e in S.idempotents:
            generic = topos._generic_alphas(f, S, e, topos.DEFAULT_BUDGET)
            assert topos._fast_alphas(f, S, e) == generic
            assert gamma(f).alphas[e] == generic


def test_gamma_cross_checks_the_lifting_path(i2, monkeypatch):
    def wrong(f, S, e):
        return ((0,) * len(site.representable_semigroup(S, e).carrier),)

    monkeypatch.setattr(topos, "_fast_alphas", wrong)
    with pytest.raises(ConsistencyError, match="lifting disagree"):
        gamma(identity_morphism(i2))


def test_gamma_lifts_only_where_the_lifting_path_applies(const_c2_t1,
                                                        monkeypatch):
    calls = []
    real = topos._fast_alphas
    monkeypatch.setattr(topos, "_fast_alphas",
                        lambda *args: calls.append(args) or real(*args))
    const = StarMorphism(const_c2_t1.source, const_c2_t1.target,
                         const_c2_t1.map)
    assert not is_etale(const)
    gamma(const)
    assert calls == []
    t1 = site.as_inverse(const_c2_t1.target)
    gamma(identity_morphism(t1.semigroup))
    assert [e for _, _, e in calls] == list(t1.idempotents)


def test_gamma_takes_a_map_and_a_budget_only():
    params = inspect.signature(gamma).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("f", inspect.Parameter.empty), ("budget", None)]


def test_counit_explicit_preimage(p21, id_i2):
    for f in (lam(p21).structure_map, id_i2):
        G = gamma(f)
        eps = counit(f, G)
        for x in f.source.elements:
            r, table = counit_explicit_preimage(f, x)
            assert r == f.map[x]
            e = f.target.c(r)
            assert table in G.alphas[e]
            xi = G.alphas[e].index(table)
            elem = eps.lam_gamma.index[(r, xi)]
            assert eps.morphism.map[elem] == x


def test_prop_inv_terminal_and_p21(sl2_inv, p21):
    rep = prop_inv_check(terminal_presheaf(sl2_inv))
    assert rep.all_agree() and rep.inverse
    rep2 = prop_inv_check(p21)
    assert rep2.all_agree() and not rep2.inverse


def test_prop_inv_representable(sl2_inv):
    for e in sl2_inv.idempotents:
        rep = prop_inv_check(representable_presheaf(sl2_inv, e))
        assert rep.all_agree() and rep.inverse


def test_prop_inv_empty(sl2_inv):
    rep = prop_inv_check(empty_presheaf(sl2_inv))
    assert rep.all_agree() and rep.inverse


def test_every_star_hom_into_an_inverse_target_has_a_counit():
    """The counit is a *-morphism and the second triangle holds for every
    *-homomorphism of the verify pool into an inverse target, among them
    those whose Gamma is empty at every idempotent: their counit is the
    empty map out of Lambda of the empty presheaf."""
    homs = [f for _, f, _ in verify.morphism_pool(3)
            if f.is_star_hom and classify(f.target).inverse]
    assert len(homs) == 176
    empty = 0
    for f in homs:
        assert triangle_check2(f), f
        eps = counit(f)
        assert isinstance(eps.morphism, StarMorphism), f
        empty += not any(eps.gamma_obj.alphas.values())
    assert empty == 101


def test_the_empty_presheaf_passes_the_whole_chain(inverse_bases):
    """Lambda of the empty presheaf is the empty *-semigroup, etale over
    its base, and the initial object goes through every check of the
    chain: the adjunction, m, the five-way report, balance and F-hat."""
    assert len(inverse_bases) == 28
    for X in inverse_bases:
        P = empty_presheaf(site.as_inverse(X))
        u = unit(P)
        f = u.lam_obj.structure_map
        eps = counit(f, u.gamma_obj)
        assert f.source.order == 0 and f.target is X and is_etale(f)
        assert u.bijective and eps.is_iso
        assert triangle_check(P) and triangle_check2(f)
        m = m_iso(f)
        assert m.is_star_hom and m.is_bijective
        rep = prop_inv_check(P)
        assert rep.all_agree() and rep.inverse
        assert balanced_check(canonical_action(f)).balanced
        fh = fhat(f)
        assert len(fh.elements) == X.order
        assert validate_algebra(fh.algebra)
        assert rho(fh).injective


def test_cor_se(i2_inv, sl2_inv):
    """S(e) inverse iff e-hat subterminal iff psi_e injective."""
    for S in (i2_inv, sl2_inv):
        for e in S.idempotents:
            R = representable_semigroup(S, e)
            inverse = classify(R.semigroup).inverse
            subterminal = all(
                len(representable_presheaf(S, e).fiber(d)) <= 1
                for d in S.idempotents
            )
            injective = R.psi.is_injective
            assert inverse == subterminal == injective


def test_left_compatible(i2_inv, i2):
    maps = oracle.symmetric_inverse_maps(2)
    a = maps.index((0, -1))  # partial identity on first point
    b = maps.index((1, -1))  # first point to second
    assert not left_compatible(i2_inv, a, b)
    for s in i2.elements:
        assert left_compatible(i2_inv, s, s)
    # comparable pairs are compatible
    from stargroup.core import natural_order
    rel = natural_order(i2)
    for s in i2.elements:
        for t in i2.elements:
            if rel.leq(s, t):
                assert left_compatible(i2_inv, s, t)


def test_prop_sym(sl2_inv, i2_inv):
    for S in (sl2_inv, i2_inv):
        for e in S.idempotents:
            rep = prop_sym_check(S, e)
            assert rep.ok
            assert rep.seinv_agrees


def test_lem_rsrs(i2_inv):
    sg = i2_inv.semigroup
    for r in sg.elements:
        e = sg.c(r)
        R = representable_semigroup(i2_inv, e)
        pos = {pair: i for i, pair in enumerate(R.carrier)}
        for s in sg.elements:
            rs = sg.mul[r][s]
            a = pos[(r, e)]
            b = pos[(rs, sg.c(rs))]
            c = pos[(sg.mul[sg.d(r)][s], sg.mul[r][sg.c(s)])]
            se = R.semigroup
            assert se.mul[a][c] == b
            da = se.mul[se.star[a]][a]
            assert se.mul[da][c] == c


def test_ideal_correspondence(i2_inv, i2):
    maps = oracle.symmetric_inverse_maps(2)
    empty = maps.index((-1, -1))
    all_idems = set(i2_inv.idempotents)
    rep = ideal_correspondence(i2_inv, all_idems)
    assert rep.normal and set(rep.ideal) == set(i2.elements)
    rep0 = ideal_correspondence(i2_inv, ())
    assert rep0.normal and rep0.ideal == ()
    repm = ideal_correspondence(i2_inv, {empty})
    assert repm.normal and repm.ideal == (empty,)
    # a non-normal subset: a single rank-1 partial identity
    one = maps.index((0, -1))
    repn = ideal_correspondence(i2_inv, {one})
    assert not repn.normal and repn.witness is not None


@pytest.mark.parametrize("call", [
    pytest.param(lambda S: ideal_correspondence(S, [True]), id="bool-D"),
    pytest.param(lambda S: ideal_correspondence(S, [0.0]), id="float-D"),
    pytest.param(lambda S: ideal_correspondence(S, [0, "a"]), id="string-D"),
    pytest.param(lambda S: prop_sym_check(S, 9), id="element-9"),
])
def test_malformed_arguments_are_a_shape_error(sl2_inv, call):
    with pytest.raises(ShapeError):
        call(sl2_inv)


def test_ideals_match_subterminal_count(i2_inv):
    """Normal idempotent subsets = subterminal presheaves; both count 4."""
    import itertools
    idems = i2_inv.idempotents
    normal = 0
    for k in range(len(idems) + 1):
        for D in itertools.combinations(idems, k):
            if ideal_correspondence(i2_inv, D).normal:
                normal += 1
    assert normal == 4


def test_etale_lift_on_lambda(p21):
    """Lifting s = f(e,x)s at a projection (e, x) of Lambda(P) lands on
    (s, x.ss*); in particular the lift of 0 at (1, u) is (0, w)."""
    LP = lam(p21)
    sg = p21.base.semigroup
    f = LP.structure_map
    one_u = LP.index[(1, 0)]
    zero_w = LP.index[(0, 0)]
    assert etale_lift(f, one_u, 0) == zero_w
    for i, (e, x) in enumerate(LP.pairs):
        if i not in projections(LP.semigroup):
            continue
        for t in sg.elements:
            if sg.mul[e][t] != t:
                continue
            expected = LP.index[(t, p21.transitions[(sg.c(t), e)][x])]
            assert etale_lift(f, i, t) == expected


def test_unit_natural_in_the_presheaf(p21, sl2_inv):
    """Naturality of eta in P: for a presheaf map gamma the square with
    Gamma(Lambda(gamma)) commutes."""
    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    uP, uQ = unit(p21), unit(Q)
    LPg = lambda_morphism(gmap)
    for d in sl2_inv.idempotents:
        for a in range(len(p21.fiber(d))):
            table = uP.gamma_obj.alphas[d][uP.components[d][a]]
            moved = tuple(LPg.map[v] for v in table)
            assert moved in uQ.gamma_obj.alphas[d]
            lhs = uQ.gamma_obj.alphas[d].index(moved)
            rhs = uQ.components[d][gmap.components[d][a]]
            assert lhs == rhs


def test_bsleft_biconditional_sweep(star_pool, sl2, sl3):
    """Counit isomorphism iff (etale and left involutive), swept over every
    *-homomorphism from the order <= 2 population into SL2 and the 3-chain;
    the sweep contains positives and negatives in all relevant cells."""
    import itertools

    sources = [X for X in star_pool if X.order <= 2]
    cells = set()
    for X in sources:
        for S in (sl2, sl3):
            for fmap in itertools.product(range(S.order), repeat=X.order):
                f = StarMorphism(X, S, fmap)
                if not f.is_star_hom:
                    continue
                data = bsleft_eval(f)
                assert data["iso"] == (data["etale"] and data["left_involutive"])
                cells.add((data["etale"], data["left_involutive"], data["bijective"]))
    assert (True, True, True) in cells       # positive instances
    assert any(not e or not l for e, l, _ in cells)  # negative instances


# ---------------------------------------------------------------------------
# sharing of Lambda and Gamma objects


def count_builds(monkeypatch, name):
    """Count the real builds behind topos.lam / topos.gamma."""
    calls = []
    build = getattr(topos, name)

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(topos, name, counted)
    return calls


def test_lam_shared_while_held(sl2_inv, monkeypatch):
    builds = count_builds(monkeypatch, "_lam")
    P = terminal_presheaf(sl2_inv)
    first = lam(P)
    assert lam(P) is first
    assert len(builds) == 1
    tables = (first.pairs, first.semigroup.mul, first.semigroup.star)
    del first
    gc.collect()
    again = lam(P)
    assert len(builds) == 2
    assert (again.pairs, again.semigroup.mul, again.semigroup.star) == tables


def test_lam_not_shared_between_equal_presheaves(sl2_inv):
    P, Q = terminal_presheaf(sl2_inv), terminal_presheaf(sl2_inv)
    assert P == Q
    assert lam(P) is not lam(Q)


def test_gamma_is_one_entry_per_resolved_budget(i2):
    f = identity_morphism(i2)
    held = gamma(f)
    assert gamma(f) is held
    # the key holds the resolved budget, not the argument as given
    assert gamma(f, budget=topos.DEFAULT_BUDGET) is held
    other = gamma(f, budget=topos.DEFAULT_BUDGET + 1)
    assert other is not held and other.alphas == held.alphas
    keys = [key for key in core._INTERNED.keys()
            if key[0] == "gamma" and key[1] == id(f)]
    assert sorted(keys) == [("gamma", id(f), topos.DEFAULT_BUDGET),
                            ("gamma", id(f), topos.DEFAULT_BUDGET + 1)]


def test_gamma_budget_still_enforced_while_held(id_i2):
    held = gamma(id_i2)
    with pytest.raises(topos.SearchBudgetExceeded):
        gamma(id_i2, budget=1)
    assert gamma(id_i2) is held


def test_lam_that_raises_keeps_raising(sl3_inv, monkeypatch):
    builds = count_builds(monkeypatch, "_lam")
    # an unvalidated presheaf whose composition fails: Lambda's product is
    # not associative
    bad = site.Presheaf(
        sl3_inv, {2: ("a",), 1: ("b",), 0: ("c", "d")},
        {(0, 0): (0, 1), (1, 1): (0,), (2, 2): (0,),
         (1, 2): (0,), (0, 1): (0,), (0, 2): (1,)})
    for _ in range(2):
        with pytest.raises(InvalidStarSemigroup):
            lam(bad)
    assert len(builds) == 2


def test_chain_builds_lambda_and_gamma_once_per_object(p21, monkeypatch):
    """The unit, counit, triangles, m and the five-way check on one
    presheaf build Lambda(P), Lambda(Gamma(Lambda P)), Lambda(P_f) and one
    Gamma."""
    lams = count_builds(monkeypatch, "_lam")
    gammas = count_builds(monkeypatch, "_gamma")
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    u = unit(P)
    f = u.lam_obj.structure_map
    eps = counit(f, u.gamma_obj)
    assert triangle_check(P) and triangle_check2(f)
    assert m_iso(f).is_bijective
    assert prop_inv_check(P).all_agree()
    assert eps.bijective
    assert len(lams) == 3
    assert len(gammas) == 1


def test_unit_and_counit_shared_while_held(p21, monkeypatch):
    units = count_builds(monkeypatch, "_unit")
    counits = count_builds(monkeypatch, "_counit")
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    u = unit(P)
    assert unit(P) is u
    f = u.lam_obj.structure_map
    eps = counit(f)
    assert counit(f) is eps and counit(f, u.gamma_obj) is eps
    assert eps.gamma_obj is u.gamma_obj
    assert (len(units), len(counits)) == (1, 1)


def test_unit_and_counit_rebuilt_once_dropped(p21, monkeypatch):
    units = count_builds(monkeypatch, "_unit")
    counits = count_builds(monkeypatch, "_counit")
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    f = lam(P).structure_map
    held = weakref.ref(unit(P)), weakref.ref(counit(f))
    gc.collect()
    assert [ref() for ref in held] == [None, None]
    assert unit(P).bijective and counit(f).bijective
    assert (len(units), len(counits)) == (2, 2)


def test_a_raising_unit_or_counit_keeps_nothing(p21, monkeypatch):
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    f = lam(P).structure_map
    G = gamma(f)

    def broken(Q):
        raise ConsistencyError("broken Lambda")

    monkeypatch.setattr(topos, "lam", broken)
    for call in (lambda: unit(P), lambda: counit(f, G)):
        with pytest.raises(ConsistencyError, match="broken Lambda"):
            call()
    assert ("unit", id(P)) not in core._INTERNED
    assert ("counit", id(G)) not in core._INTERNED
    monkeypatch.undo()
    u, eps = unit(P), counit(f, G)
    assert unit(P) is u and counit(f, G) is eps


def test_counit_refuses_a_gamma_of_another_map(id_i2, i2):
    other = identity_morphism(i2)
    assert other is not id_i2 and other.map == id_i2.map
    with pytest.raises(ShapeError, match="Gamma of f"):
        counit(id_i2, gamma(other))
    with pytest.raises(ShapeError, match="^G must be of type GammaPresheaf"):
        counit(id_i2, "not a Gamma")


def test_the_chain_sweeps_the_counit_map_once(p21, monkeypatch):
    """Unit, counit and both triangles on one presheaf, with the unit and
    counit held as the benchmark's chain holds them, build one counit, so
    its map's left *-homomorphism sweep runs once."""
    sweeps = []
    memoised = StarMorphism.__dict__["is_left_star_hom"]

    def counted(g, sweep=memoised.func):
        if g.name == "counit":
            sweeps.append(g)
        return sweep(g)

    monkeypatch.setattr(memoised, "func", counted)
    P = validate_presheaf(p21.base, p21.fibers, p21.transitions)
    u = unit(P)
    f = u.lam_obj.structure_map
    eps = counit(f, u.gamma_obj)
    assert triangle_check(P) and triangle_check2(f)
    assert eps.bijective and sweeps == [eps.morphism]


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", -1, 1.5, True])
def test_resolve_budget_rejects(value):
    with pytest.raises(topos.BudgetInvalid):
        topos.resolve_budget(value)


def test_resolve_budget_sources(monkeypatch, id_sl2):
    monkeypatch.delenv("STARGROUP_BUDGET", raising=False)
    assert topos.resolve_budget() == topos.DEFAULT_BUDGET
    assert topos.resolve_budget("0") == 0
    monkeypatch.setenv("STARGROUP_BUDGET", "7")
    assert topos.resolve_budget() == 7
    assert topos.resolve_budget(3) == 3
    monkeypatch.setenv("STARGROUP_BUDGET", "x")
    with pytest.raises(topos.BudgetInvalid):
        gamma(id_sl2)


def _reference_se_tables(S, e):
    """The S(e) index tables as topos built them for the generic Gamma
    search before site built them, from the product
    (p, q)(r, s) = (pr, q c(pr)) and the star (r, s)* = (r*, sr)."""
    sg = S.semigroup
    carrier = tuple(
        (r, s) for r in sg.elements for s in sg.elements
        if sg.mul[sg.star[s]][s] == sg.mul[r][sg.star[r]]
        and sg.mul[e][s] == s)
    pos = {u: i for i, u in enumerate(carrier)}

    def se_mul(a, b):
        (p, q), (r, _) = a, b
        pr = sg.mul[p][r]
        return (pr, sg.mul[q][sg.mul[pr][sg.star[pr]]])

    def se_star(a):
        r, s = a
        return (sg.star[r], sg.mul[s][r])

    star_idx = tuple(pos[se_star(u)] for u in carrier)
    mul_idx = tuple(tuple(pos[se_mul(u, v)] for v in carrier)
                    for u in carrier)
    return carrier, mul_idx, star_idx


@pytest.mark.parametrize("family, n", [
    ("semilattice_chain", 2), ("semilattice_chain", 3),
    ("symmetric_inverse", 2), ("brandt", 2), ("symmetric_inverse", 3),
])
def test_site_se_tables_match_the_reference(family, n):
    S = site.as_inverse(oracle.standard_family(family, n))
    for e in S.idempotents:
        R = site.representable_semigroup(S, e)
        carrier, mul, star = _reference_se_tables(S, e)
        assert (R.carrier, R.semigroup.mul, R.semigroup.star) == (carrier, mul,
                                                                  star)
        assert R.index == {pair: i for i, pair in enumerate(carrier)}
        assert site.representable_semigroup(S, e) is R


def test_gamma_keeps_its_plan_on_the_checked_s_e(i2):
    G = gamma(StarMorphism(i2, i2, tuple(i2.elements)))
    assert [G.fiber_size(e) for e in G.base.idempotents] == [1, 1, 1, 1]
    for e in G.base.idempotents:
        assert "_gamma_plan" in vars(site.representable_semigroup(G.base, e))
    # the base is held by G, so a second Gamma over it finds every S(e)
    misses = site.representable_semigroup.cache_info().misses
    G2 = gamma(StarMorphism(i2, i2, tuple(i2.elements)))
    assert G2 is not G and G2.base is G.base
    assert site.representable_semigroup.cache_info().misses == misses
