import pytest

from stargroup import ssets, topos
from stargroup.core import (
    ConsistencyError,
    ShapeError,
    StarMorphism,
    Verdict,
    classify,
    identity_morphism,
    projections,
)
from stargroup.modalg import (
    AdditionNotIdempotent,
    CarrierTooLarge,
    FiberMismatch,
    FreeModule,
    SAlgebra,
    SModule,
    derived_product,
    fhat,
    gamma_algebra,
    idem_to_algebra,
    lift_morphism,
    rho,
    validate_algebra,
    validate_module,
)
from stargroup.site import NotInverse, terminal_presheaf, validate_presheaf_map


@pytest.fixture(scope="module")
def fhat_id_sl2(id_sl2):
    return fhat(id_sl2)


@pytest.fixture(scope="module")
def fhat_p21(p21):
    return fhat(topos.lam(p21).structure_map)


@pytest.fixture(scope="module")
def fhat_id_i2(id_i2):
    return fhat(id_i2)


def test_fhat_refuses_a_base_that_is_not_inverse_first(lz2, c2):
    # an etale *-homomorphism and one that is not etale, into LZ2
    for f in (identity_morphism(lz2), StarMorphism(c2, lz2, (0, 0))):
        with pytest.raises(NotInverse, match="LZ2"):
            fhat(f)


def test_fhat_id_sl2_carrier(fhat_id_sl2):
    assert [(r, sorted(A)) for r, A in fhat_id_sl2.elements] == [
        (0, []), (0, [0]), (1, []), (1, [1])]


def test_fhat_p21_sizes(fhat_p21, p21):
    # fiber over 1 in Lambda(P21) has two elements: 4 subsets
    assert len(fhat_p21.elements) == 2 + 4  # r = 0 gives 2 subsets


def test_fhat_p21_product_of_singletons(fhat_p21):
    # {(1,u)} . {(1,v)} = {(1,u), (1,v)}: the two top elements union up
    fh = fhat_p21
    tops = [x for x in fh.f.source.elements if fh.f.map[x] == 1]
    a = fh.position(1, [tops[0]])
    b = fh.position(1, [tops[1]])
    prod = fh.algebra.product[a][b]
    assert fh.elements[prod] == (1, frozenset(tops))


def test_fhat_validates(fhat_id_sl2, fhat_p21, fhat_id_i2):
    for fh in (fhat_id_sl2, fhat_p21, fhat_id_i2):
        assert validate_module(fh.module).ok
        assert validate_algebra(fh.algebra).ok


def test_fhat_partial_isometry_and_aa(fhat_p21, fhat_id_i2):
    for fh in (fhat_p21, fhat_id_i2):
        mul = fh.algebra.product
        star = fh.module.sset.star
        act = fh.module.sset.action
        smap = fh.module.sset.smap
        Sstar = fh.base.star
        for a in range(len(fh.elements)):
            assert mul[mul[a][star[a]]][a] == a
            assert mul[a][star[a]] == act[a][Sstar[smap[a]]]  # aa* = a psi(a*)


def test_fhat_star_products(fhat_id_i2):
    # A*A = A*r = r*A for f-hat(A) = r
    fh = fhat_id_i2
    mul = fh.algebra.product
    star = fh.module.sset.star
    act = fh.module.sset.action
    for a in range(len(fh.elements)):
        r = fh.module.sset.smap[a]
        lhs = mul[star[a]][a]
        assert lhs == act[star[a]][r]
        assert lhs == ssets.left_action(fh.module.sset, fh.base.star[r], a)


def test_fhat_projections(fhat_p21):
    """(r, A) is a projection iff r is idempotent and A consists of
    projections of the source."""
    fh = fhat_p21
    X = fh.f.source
    xprojs = set(projections(X))
    fprojs = set(projections(fh.semigroup))
    for i, (r, A) in enumerate(fh.elements):
        expected = fh.base.mul[r][r] == r and A <= xprojs
        assert (i in fprojs) == expected


def test_fhat_cap(id_i2):
    with pytest.raises(CarrierTooLarge):
        fhat(id_i2, cap=4)


def test_derived_product_zero_hom(fhat_id_sl2):
    M = fhat_id_sl2.module
    S = fhat_id_sl2.base
    for r in S.elements:
        for s in S.elements:
            assert derived_product(M, M.zero[r], M.zero[s]) == M.zero[S.mul[r][s]]


def test_derived_product_singleton_fiber(fhat_id_sl2, sl2):
    # singleton subsets multiply like the base product
    fh = fhat_id_sl2
    M = fh.module
    one = fh.position(1, [1])
    assert derived_product(M, one, one) == one


def star_reversing(table, star):
    return all(star[table[a][b]] == table[star[b]][star[a]]
               for a in range(len(table)) for b in range(len(table)))


def associative(table):
    n = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in n for b in n for c in n)


@pytest.mark.parametrize("keeps_star", [True, False],
                         ids=["non-associative", "not-star-reversing"])
def test_idem_to_algebra_refuses_a_broken_derived_table(
        id_i2, monkeypatch, keeps_star):
    """derived_table leaves associativity and (ab)* = b*a* to the
    validate_algebra sweep in idem_to_algebra; a table that breaks either
    must still be refused there.  The mutant moves one product ab to
    another element of its fiber, and (b*a*) to the star of that element
    too when it keeps the star reversed."""
    mutants = []
    derived = SModule.derived_table

    def mutated(M, build=derived.func):
        table = [list(row) for row in build(M)]
        star, smap = M.sset.star, M.sset.smap
        a, b = next((a, b) for a in range(M.size) for b in range(M.size)
                    if (b, a) != (star[a], star[b])
                    and sum(smap[v] == smap[table[a][b]]
                            for v in range(M.size)) > 1)
        v = next(v for v in range(M.size)
                 if smap[v] == smap[table[a][b]] and v != table[a][b])
        table[a][b] = v
        if keeps_star:
            table[star[b]][star[a]] = star[v]
        mutants.append((tuple(map(tuple, table)), star))
        return mutants[-1][0]

    monkeypatch.setattr(derived, "func", mutated)
    with pytest.raises(ConsistencyError, match="fails validation"):
        fhat(id_i2)
    (table, star), = mutants
    assert star_reversing(table, star) == keeps_star
    assert not associative(table)


def test_idem_to_algebra_rejects_free(id_sl2):
    """The free module has 1 + 1 != 1, so idem_to_algebra refuses it; we
    emulate with the F-hat module whose addition we corrupt."""
    fh = fhat(id_sl2)
    M = fh.module
    # build a non-idempotent addition by redirecting a diagonal entry
    add = [list(r) for r in M.add]
    one = fh.position(1, [1])
    zero_one = fh.position(1, [])
    add[zero_one][zero_one] = one
    bad = SModule(M.sset, M.zero, add)
    with pytest.raises(AdditionNotIdempotent):
        idem_to_algebra(bad)


def test_module_validator_catches_zero_corruption(fhat_id_sl2):
    M = fhat_id_sl2.module
    bad_zero = list(M.zero)
    bad_zero[0] = fhat_id_sl2.position(0, [0])
    report = validate_module(SModule(M.sset, bad_zero, M.add))
    assert not report.ok
    kinds = {k for k, _ in report.violations}
    assert "ZeroLawViolation" in kinds or "ZeroSectionViolation" in kinds


def _first_entry(table, value):
    return ((value,) + table[0][1:],) + table[1:]


@pytest.mark.parametrize("build", [
    pytest.param(lambda fh: validate_module(
        SModule(fh.module.sset, (99,) + fh.module.zero[1:], fh.module.add)),
        id="zero-out-of-range"),
    pytest.param(lambda fh: validate_module(
        SModule(fh.module.sset, fh.module.zero, 5)), id="add-not-a-table"),
    pytest.param(lambda fh: validate_algebra(
        SAlgebra(fh.module, _first_entry(fh.algebra.product, 99))),
        id="product-out-of-range"),
    pytest.param(lambda fh: validate_algebra(
        SAlgebra(fh.module, _first_entry(fh.algebra.product, 0.0))),
        id="product-float"),
])
def test_malformed_module_tables_are_a_shape_error(fhat_id_sl2, build):
    with pytest.raises(ShapeError):
        build(fhat_id_sl2)


def test_fiber_monoid(fhat_p21):
    M = fhat_p21.module
    for r in fhat_p21.base.elements:
        z = M.zero[r]
        assert M.add[z][z] == z


def test_free_module_ops(id_sl2, sl2):
    F = FreeModule(id_sl2)
    x = F.element(1, [1])
    assert F.add(x, F.zero(1)) == x
    two = F.add(x, x)
    assert two == (1, ((1, 2),))
    with pytest.raises(FiberMismatch):
        F.add(x, F.zero(0))
    assert F.check_axioms()


def non_commutative_add(self, a, b):
    """The body of FreeModule.add without sorting: a + b and b + a list
    their terms in different orders."""
    return (a[0], a[1] + b[1])


def test_free_module_check_axioms_reports_violations(id_sl2, monkeypatch):
    assert FreeModule(id_sl2).check_axioms() == Verdict()
    monkeypatch.setattr(FreeModule.add, "__wrapped__", non_commutative_add)
    verdict = FreeModule(id_sl2).check_axioms()
    assert not verdict.ok
    assert "AdditionCommutativityViolation" in {
        v.kind for v in verdict.violations}


def test_free_module_distributes(p21):
    f = topos.lam(p21).structure_map
    F = FreeModule(f)
    S = F.base
    tops = [x for x in F.source.elements if f.map[x] == 1]
    a = F.element(1, [tops[0], tops[1]])
    for s in S.elements:
        assert F.act(a, s) == F.add(F.act(F.rho(tops[0]), s),
                                    F.act(F.rho(tops[1]), s))


def test_free_quotient_commutes(p21):
    """The support map F(f) -> F-hat(f) is a surjective module morphism on
    sampled elements."""
    f = topos.lam(p21).structure_map
    F = FreeModule(f)
    fh = fhat(f)
    S = F.base
    for a in F.sample_elements(max_terms=4, count=60, seed=3):
        ra, A = F.support(a)
        i = fh.position(ra, A)
        assert fh.module.sset.star[i] == fh.position(*F.support(F.star(a)))
        for s in S.elements:
            assert fh.module.sset.act(i, s) == fh.position(*F.support(F.act(a, s)))
        for b in F.sample_elements(max_terms=3, count=10, seed=5):
            if b[0] != ra:
                continue
            j = fh.position(*F.support(b))
            assert fh.module.add[i][j] == fh.position(*F.support(F.add(a, b)))
    hit = {F.support(a) for a in F.sample_elements(max_terms=3, count=400, seed=8)}
    assert len(hit) == len(fh.elements)  # surjective at this sample size


def test_rho(fhat_id_sl2, fhat_p21, fhat_id_i2):
    for fh in (fhat_id_sl2, fhat_p21, fhat_id_i2):
        r = rho(fh)
        assert r.injective
        assert r.is_left_star_hom
        assert r.is_star_hom == classify(fh.f.source).involutive
    # Lambda(P21) is left involutive but not involutive: rho left-only there
    assert not rho(fhat_p21).is_star_hom
    assert rho(fhat_id_i2).is_star_hom


def test_lift_morphism(p21, sl2_inv):
    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    LP, LQ = topos.lam(p21), topos.lam(Q)
    phi = topos.lambda_morphism(gmap)
    fh_f = fhat(LP.structure_map)
    fh_g = fhat(LQ.structure_map)
    lifted = lift_morphism(phi, fh_f, fh_g)
    assert lifted.morphism.is_star_hom


def test_lift_morphism_identity_and_composite(p21):
    LP = topos.lam(p21)
    fh = fhat(LP.structure_map)
    ident = identity_morphism(LP.semigroup)
    li = lift_morphism(ident, fh, fh)
    assert li.morphism.map == tuple(range(len(fh.elements)))
    # composite lifting: lift(phi . psi) = lift(phi) . lift(psi)
    comp = lift_morphism(ident, fh, fh)
    assert tuple(li.morphism.map[v] for v in comp.morphism.map) == li.morphism.map


def test_gamma_algebra(fhat_id_sl2, fhat_p21):
    for fh in (fhat_id_sl2, fhat_p21):
        G = gamma_algebra(fh)
        assert all(G.fiber_size(e) >= 1 for e in G.base.idempotents)


def test_gamma_algebra_naturality(p21, sl2_inv):
    """Postcomposition with a lifted morphism is a presheaf map between the
    probed presheaves."""
    Q = terminal_presheaf(sl2_inv)
    gmap = validate_presheaf_map(p21, Q, {1: (0, 0), 0: (0,)})
    LP, LQ = topos.lam(p21), topos.lam(Q)
    phi = topos.lambda_morphism(gmap)
    fh_f, fh_g = fhat(LP.structure_map), fhat(LQ.structure_map)
    lifted = lift_morphism(phi, fh_f, fh_g).morphism
    Gf, Gg = gamma_algebra(fh_f), gamma_algebra(fh_g)
    comps = {}
    for e in Gf.base.idempotents:
        comp = []
        for table in Gf.alphas[e]:
            moved = tuple(lifted.map[v] for v in table)
            assert moved in Gg.alphas[e]
            comp.append(Gg.alphas[e].index(moved))
        comps[e] = tuple(comp)
    validate_presheaf_map(Gf.presheaf, Gg.presheaf, comps)


def test_free_module_derived_product_not_distributive(id_sl2):
    """The derivation-style product does not make every balanced module an
    algebra: on the free module, distributivity over addition already fails
    because multiplicities double."""
    F = FreeModule(id_sl2)
    S = F.base

    def left(r, b):
        return F.star(F.act(F.star(b), S.star[r]))

    def product(a, b):
        return F.add(F.act(a, b[0]), left(a[0], b))

    a = F.rho(1)
    c = F.rho(1)
    lhs = product(F.add(a, a), c)
    rhs = F.add(product(a, c), product(c, a))
    assert lhs != rhs


def test_gamma_algebra_trivial_algebra(sl2, id_sl2):
    """The algebra of zero sections alone probes to one point per fiber."""
    from stargroup.modalg import SAlgebra, SModule
    from stargroup.ssets import make_sset
    sset = make_sset(sl2.order, sl2.star, sl2, tuple(sl2.elements), sl2.mul)
    zero = tuple(sl2.elements)
    add = tuple(
        tuple(a if a == b else -1 for b in sl2.elements) for a in sl2.elements
    )
    alg = SAlgebra(SModule(sset, zero, add), sl2.mul)
    assert validate_algebra(alg).ok
    G = gamma_algebra(alg)
    for e in G.base.idempotents:
        assert G.fiber_size(e) == 1


def test_sset_and_algebra_swept_once_per_object(monkeypatch, p21):
    """The adjunction chain, F-hat, its validation, rho and the free module
    on one presheaf: each S-set's axioms are swept once, and the F-hat
    algebra is validated once."""
    from stargroup import site, ssets

    sweeps = {"sset": [], "algebra": []}
    for key, memoised in (("sset", ssets.check_sset),
                          ("algebra", validate_algebra)):
        def counted(obj, sweep=memoised.func, seen=sweeps[key]):
            seen.append(obj)
            return sweep(obj)
        monkeypatch.setattr(memoised, "func", counted)
    built, build_map = [], topos._lambda_map

    def counted_map(*args):
        built.append(build_map(*args))
        return built[-1]
    monkeypatch.setattr(topos, "_lambda_map", counted_map)

    P = site.validate_presheaf(p21.base, p21.fibers, p21.transitions)
    u = topos.unit(P)
    f = u.lam_obj.structure_map
    eps = topos.counit(f, u.gamma_obj)  # held, so the triangles reuse it
    assert topos.triangle_check(P) and topos.triangle_check2(f)
    topos.m_iso(f)
    ssets.balanced_check(ssets.canonical_action(f))
    fh = fhat(f)
    assert validate_algebra(fh.algebra).ok and validate_module(fh.module).ok
    assert validate_algebra(fh.algebra) is validate_algebra(fh.algebra)
    assert rho(fh).is_left_star_hom
    assert FreeModule(f).check_axioms()
    objects = [id(A) for A in sweeps["sset"]]
    assert len(objects) == len(set(objects))
    # Lambda(P), Lambda(Gamma Lambda P) and Lambda(P_f) sweep the canonical
    # action of each structure map they build, in build order; a Lambda with
    # the tables of one still held (fhat_p21's, when that fixture is alive)
    # shares its map and with it the sweep.  F-hat has its module.
    assert fh.module.sset in sweeps["sset"]
    assert len(built) <= 3 and eps.bijective
    assert sweeps["sset"] == [ssets.canonical_action(g) for g in built] + [
        fh.module.sset]
    assert sweeps["algebra"] == [fh.algebra]
