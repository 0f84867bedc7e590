import contextlib
import io
import itertools
from dataclasses import replace

import pytest

from conftest import raises_kind
from stargroup import cli, oracle, serialize
from stargroup.core import (
    Invalid,
    Relation,
    ShapeError,
    StarError,
    StarMorphism,
    classify,
    same_tables,
)
from stargroup.groupoid import (
    NotComparable,
    OrderedGroupoidWithMediator,
    corestrict,
    esn_groupoid,
    esn_ordered_groupoid,
    esn_semigroup,
    extended_compose,
    groupoid_equal,
    mediator_kind,
    restrict,
    validate_groupoid,
    validate_mediator,
)


def test_esn_c2_one_object(c2):
    G = esn_groupoid(c2)
    assert G.n_objects == 1 and G.n_morphisms == 2
    assert G.mediator[0][0] == 0


def test_esn_sl2_poset(sl2):
    G = esn_groupoid(sl2)
    assert G.n_objects == 2 and G.n_morphisms == 2
    # identities only: every morphism is its own inverse and an identity
    assert set(G.identity) == {0, 1}


def test_esn_i2_counts(i2):
    G = esn_groupoid(i2)
    assert G.n_objects == 4 and G.n_morphisms == 7


def test_esn_requires_quasi(lz2):
    with raises_kind(StarError, "NotQuasiInvolutive"):
        esn_groupoid(lz2)
    # but the ordered groupoid alone is available for locally involutive input
    G = esn_ordered_groupoid(lz2)
    assert G.mediator is None
    validate_groupoid(G)


def test_restrict_examples(sl2, i2):
    G = esn_groupoid(sl2)
    assert restrict(G, 1, 0) == 0
    for x in G.morphisms:
        assert restrict(G, x, G.dom[x]) == x
    GI = esn_groupoid(i2)
    maps = oracle.symmetric_inverse_maps(2)
    swap = maps.index((1, 0))
    one_idem = maps.index((0, -1))  # identity on the first point
    # restriction of the swap to the {first point} identity: 0 -> 1
    got = restrict(GI, swap, GI.dom[one_idem])
    assert maps[got] == (1, -1)


def test_restrict_not_bounded(sl2):
    G = esn_groupoid(sl2)
    with raises_kind(StarError, "NotBounded"):
        restrict(G, 0, 1)


def test_corestrict_formula(i2):
    G = esn_groupoid(i2)
    for x in G.morphisms:
        for q in G.objects:
            if G.object_leq(q, G.cod[x]):
                assert corestrict(G, x, q) == G.inverse[restrict(G, G.inverse[x], q)]


def test_extended_compose(sl2, i2):
    G = esn_groupoid(sl2)
    # identities p <= q: q (x) p = p
    assert extended_compose(G, 1, 0) == 0
    GI = esn_groupoid(i2)
    maps = oracle.symmetric_inverse_maps(2)
    swap = maps.index((1, 0))
    one_idem = maps.index((0, -1))
    assert maps[extended_compose(GI, swap, one_idem)] == (1, -1)
    # ordinary composition when cod(y) = dom(x)
    for x in GI.morphisms:
        for y in GI.morphisms:
            if GI.dom[x] == GI.cod[y]:
                assert extended_compose(GI, x, y) == GI.compose[x][y]


def test_extended_compose_not_comparable(i2):
    G = esn_groupoid(i2)
    maps = oracle.symmetric_inverse_maps(2)
    a = maps.index((0, -1))
    b = maps.index((-1, 1))
    with pytest.raises(NotComparable):
        extended_compose(G, a, b)


def test_extended_reflects_multiplication(star_pool):
    for X in star_pool:
        if not classify(X).quasi_involutive:
            continue
        G = esn_groupoid(X)
        for x in X.elements:
            for y in X.elements:
                dx, cy = G.dom[x], G.cod[y]
                if G.object_leq(cy, dx) or G.object_leq(dx, cy):
                    assert extended_compose(G, x, y) == X.mul[x][y]


def test_validate_mediator_trivial_and_i2(sl2, i2):
    assert validate_mediator(esn_groupoid(sl2)).ok
    assert validate_mediator(esn_groupoid(i2)).ok


def test_corrupted_mediator_rejected(i2):
    from dataclasses import replace
    G = esn_groupoid(i2)
    maps = oracle.symmetric_inverse_maps(2)
    swap = maps.index((1, 0))
    med = [list(r) for r in G.mediator]
    med[0][0] = swap  # dom/cod bounds break: swap is not under the empty map
    bad = replace(G, mediator=tuple(tuple(r) for r in med))
    rep = validate_mediator(bad)
    assert not rep.ok
    kinds = {k for k, _ in rep.violations}
    assert kinds & {"DomBoundViolation", "CodBoundViolation",
                    "OrderPreservationViolation", "CommutationViolation"}


def test_esn_semigroup_roundtrip_i2(i2):
    G = esn_groupoid(i2)
    assert same_tables(esn_semigroup(G), i2)


def test_esn_groupoid_roundtrip(sl2, i2, c2):
    for X in (sl2, i2, c2):
        G = esn_groupoid(X)
        assert groupoid_equal(esn_groupoid(esn_semigroup(G)), G)


def test_esn_roundtrip_sweeps_the_groupoid_once(i2, monkeypatch):
    """esn_groupoid, esn_semigroup and mediator_kind on one groupoid run its
    axiom sweep (one partial-order check of its morphism order each) once,
    and share one mediator verdict and one induced semigroup."""
    sweeps = []
    is_partial_order = Relation.is_partial_order

    def counted(rel):
        sweeps.append(rel)
        return is_partial_order(rel)

    monkeypatch.setattr(Relation, "is_partial_order", counted)
    G = esn_groupoid(i2)
    X = esn_semigroup(G)
    assert same_tables(X, i2) and mediator_kind(G) == "trivial"
    assert sweeps == [G.order]
    assert esn_semigroup(G) is X
    assert validate_mediator(G) is validate_mediator(G)


def test_poset_groupoid_gives_semilattice(sl2):
    G = esn_groupoid(sl2)
    X = esn_semigroup(G)
    assert same_tables(X, sl2)


def test_mediator_kind_small(i2, c2, sl2):
    assert mediator_kind(esn_groupoid(i2)) == "trivial"
    assert mediator_kind(esn_groupoid(c2)) == "trivial"
    assert mediator_kind(esn_groupoid(sl2)) == "trivial"


def test_mediator_kind_symmetric_nontrivial():
    # the 2x2 rectangular band with transpose star is involutive, not inverse
    def enc(i, j):
        return 2 * i + j
    mul = [[0] * 4 for _ in range(4)]
    star = [0] * 4
    for i, j, k, l in itertools.product(range(2), repeat=4):
        mul[enc(i, j)][enc(k, l)] = enc(i, l)
    for i, j in itertools.product(range(2), repeat=2):
        star[enc(i, j)] = enc(j, i)
    from stargroup.core import validate_star_semigroup
    RB = validate_star_semigroup(4, mul, star, "RB22")
    rep = classify(RB)
    assert rep.involutive and not rep.inverse
    G = esn_groupoid(RB)
    assert mediator_kind(G) == "symmetric"
    assert same_tables(esn_semigroup(G), RB)


def test_order_two_automorphism_mediator_rejected(c2):
    """A mediator m_pp = the nonidentity involution of Z/2 satisfies the
    local mediator axioms but the induced 'semigroup' has a projection that
    is not an identity; esn_semigroup must reject it."""
    from dataclasses import replace
    G = esn_groupoid(c2)
    bad = replace(G, mediator=((1,),))
    assert validate_mediator(bad).ok  # the axioms alone do not exclude it
    with raises_kind(Invalid, "InvalidGroupoid"):
        esn_semigroup(bad)


@pytest.mark.parametrize("change", [
    pytest.param(lambda G: {"dom": tuple(map(float, G.dom))}, id="float-dom"),
    pytest.param(lambda G: {"dom": 5}, id="dom-not-a-sequence"),
    pytest.param(lambda G: {"n_objects": 2.0}, id="float-count"),
    pytest.param(lambda G: {"order": Relation(G.n_morphisms, ())},
                 id="order-rows-missing"),
    pytest.param(lambda G: {"order": ((1, 0), (0, 1))}, id="order-a-table"),
])
def test_malformed_groupoid_is_a_shape_error(sl2, change):
    G = esn_groupoid(sl2)
    with pytest.raises(ShapeError):
        validate_groupoid(replace(G, **change(G)))


def test_functoriality_of_esn(star_pool):
    """*-homomorphisms of quasi-involutive semigroups are exactly the
    mediator-preserving ordered functors; left *-homs give ordered functors
    that preserve the mediator iff they are multiplicative."""
    quasis = [X for X in star_pool if X.order <= 3 and classify(X).quasi_involutive]
    checked = 0
    for X in quasis:
        GX = esn_groupoid(X)
        for Y in quasis:
            if Y.order ** X.order > 300:
                continue
            GY = esn_groupoid(Y)
            for fmap in itertools.product(range(Y.order), repeat=X.order):
                f = StarMorphism(X, Y, fmap)
                if not f.is_left_star_hom:
                    continue
                checked += 1
                # ordered functor: preserves composition, identities, order
                for x in X.elements:
                    for y in X.elements:
                        if GX.compose[x][y] != -1:
                            assert fmap[GX.compose[x][y]] == GY.compose[fmap[x]][fmap[y]]
                for p in GX.identity:
                    assert fmap[p] in GY.identity
                for x in X.elements:
                    for y in X.elements:
                        if GX.order.leq(x, y):
                            assert GY.order.leq(fmap[x], fmap[y])
                preserves_mediator = all(
                    fmap[GX.mediator[i][j]]
                    == GY.mediator[GY.dom[GY.identity[GY.cod[fmap[GX.identity[i]]]]]][
                        GY.dom[GY.identity[GY.cod[fmap[GX.identity[j]]]]]]
                    for i in range(GX.n_objects)
                    for j in range(GX.n_objects)
                )
                assert preserves_mediator == f.is_multiplicative
    assert checked > 50


def test_corrupted_mediator_commutation_violation(i2):
    """Some single-entry corruption must be caught specifically by the
    commutation sweep, not only by the bound checks."""
    from dataclasses import replace
    G = esn_groupoid(i2)
    seen_commutation = False
    for p in G.objects:
        for q in G.objects:
            for x in G.morphisms:
                if x == G.mediator[p][q]:
                    continue
                med = [list(r) for r in G.mediator]
                med[p][q] = x
                rep = validate_mediator(replace(G, mediator=tuple(tuple(r) for r in med)))
                assert not rep.ok
                if any(k == "CommutationViolation" for k, _ in rep.violations):
                    seen_commutation = True
    assert seen_commutation


def test_restriction_is_precomposition(star_pool):
    """In the groupoid of a locally involutive semigroup, restriction is
    x |-> xp and corestriction is x |-> qx."""
    for X in star_pool:
        if not classify(X).locally_involutive:
            continue
        G = esn_ordered_groupoid(X)
        for x in X.elements:
            for k in G.objects:
                p = G.identity[k]
                if G.object_leq(k, G.dom[x]):
                    assert restrict(G, x, k) == X.mul[x][p]
                if G.object_leq(k, G.cod[x]):
                    assert corestrict(G, x, k) == X.mul[p][x]


def _two_vertex_groups():
    """Objects 0 <= 1, a Z3 vertex group at each: i0, a, a^2 at 0 and i1, b,
    b^2 at 1, with a <= b the only other order pair.  Inversion breaks the
    order (a^2 is not below b^2), so b^2 has no restriction to 0."""
    n = 6
    compose = [[-1] * n for _ in range(n)]
    for base in (0, 3):
        for s in range(3):
            for t in range(3):
                compose[base + s][base + t] = base + (s + t) % 3
    leq = {(x, x) for x in range(n)} | {(0, 3), (1, 4)}
    rows = tuple(sum(1 << j for j in range(n) if (i, j) in leq)
                 for i in range(n))
    return OrderedGroupoidWithMediator(
        n_objects=2, n_morphisms=n, dom=(0, 0, 0, 1, 1, 1),
        cod=(0, 0, 0, 1, 1, 1), identity=(0, 3), inverse=(0, 2, 1, 3, 5, 4),
        compose=tuple(map(tuple, compose)), order=Relation(n, rows))


def test_a_missing_restriction_is_listed_not_raised():
    # the corestriction formula at (b, 0) would read the restriction of b^2
    # to 0; it is compared only where that restriction is unique
    with raises_kind(Invalid, "InvalidGroupoid") as info:
        validate_groupoid(_two_vertex_groups())
    kinds = [v.kind for v in info.value.violations]
    assert {"OrderInversion", "RestrictionNotUnique"} <= set(kinds)
    assert "CorestrictionFormula" not in kinds


def test_validate_reports_the_malformed_groupoid(tmp_path):
    path = tmp_path / "g.json"
    serialize.save_groupoid(_two_vertex_groups(), path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", str(path)])
    out = buf.getvalue()
    assert code == 1 and out.startswith(
        "FAIL  error  [g.json]  witness=['InvalidGroupoid', ")
    assert "OrderInversion(1, 4)" in out
    assert "RestrictionNotUnique(5, 0, 0)" in out
