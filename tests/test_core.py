import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stargroup import oracle
from stargroup.core import (
    Invalid,
    InvalidStarSemigroup,
    NoLift,
    NotEtale,
    NotIdempotent,
    NotLocallyInvolutive,
    ShapeError,
    StarMorphism,
    Verdict,
    SearchBudgetExceeded,
    Violation,
    backtrack,
    check_morphism,
    check_star_semigroup,
    classify,
    cod,
    compose_morphisms,
    dom,
    etale_lift,
    etale_report,
    idempotent_leq,
    idempotents,
    identity_morphism,
    is_etale,
    leq_left,
    leq_right,
    memo,
    natural_order,
    projections,
    validate_star_semigroup,
)


def test_validate_trivial(t1):
    assert t1.order == 1
    assert t1.mul == ((0,),)


def test_validate_c2(c2):
    assert c2.mul == ((0, 1), (1, 0))
    assert c2.star == (0, 1)


def test_validate_left_zero():
    # x.x.x = x holds in a left-zero table: all 8 triples collapse to x
    X = validate_star_semigroup(2, [[0, 0], [1, 1]], [0, 1])
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert X.mul[X.mul[x][y]][z] == X.mul[x][X.mul[y][z]] == x


def test_validate_rejects_empty():
    with pytest.raises(ShapeError):
        validate_star_semigroup(0, [], [])


def test_validate_shape_errors():
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, [[0, 1]], [0, 1])
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, [[0, 2], [1, 0]], [0, 1])


def test_non_int_entries_are_a_shape_error_not_truncated(sl2):
    # int() would turn these into the valid table ((0, 1), (1, 0))
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, [[0.9, 1.7], ["1", 0]], [0, 1])
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, [[0, 1], [1, 0]], [0, 1.0])
    with pytest.raises(ShapeError):
        validate_star_semigroup(2, [[False, True], [True, False]], [0, 1])
    # and int() would turn this map into the identity (0, 1)
    with pytest.raises(ShapeError):
        StarMorphism(sl2, sl2, (0.9, 1.2))
    with pytest.raises(ShapeError):
        StarMorphism(sl2, sl2, ("0", 1))
    assert StarMorphism(sl2, sl2, [0, 1]).map == (0, 1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda X: StarMorphism(X, X, 5), id="map-not-a-sequence"),
    pytest.param(lambda X: idempotent_leq(X, 0.0, 1), id="float-element"),
    pytest.param(lambda X: idempotent_leq(X, True, 1), id="bool-element"),
    pytest.param(lambda X: validate_star_semigroup(True, [[0]], [0]),
                 id="bool-order"),
])
def test_malformed_arguments_are_a_shape_error(sl2, call):
    with pytest.raises(ShapeError):
        call(sl2)


def test_validate_collects_violations():
    # non-associative table: witness triple reported
    violations = check_star_semigroup(2, [[1, 0], [0, 0]], [0, 1])
    kinds = {v.kind for v in violations}
    assert "AssociativityViolation" in kinds
    with pytest.raises(InvalidStarSemigroup):
        validate_star_semigroup(2, [[1, 0], [0, 0]], [0, 1])


def test_involution_violation():
    violations = check_star_semigroup(2, [[0, 0], [0, 0]], [0, 0])
    # star not a bijection onto itself twice: 1 -> 0 -> 0
    assert any(v.kind == "InvolutionViolation" for v in violations)


def test_partial_isometry_violation():
    # Z/4 with identity star: x x x != x for x = 1
    mul = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    violations = check_star_semigroup(4, mul, [0, 1, 2, 3])
    assert any(v.kind == "PartialIsometryViolation" for v in violations)


def test_dom_cod(c2, lz2, sl2):
    assert dom(c2, 1) == 0
    assert dom(lz2, 0) == 0 and dom(lz2, 1) == 1
    for x in sl2.elements:
        assert dom(sl2, x) == x == cod(sl2, x)


def test_projections(c2, lz2, i2):
    assert projections(c2) == (0,)
    assert projections(lz2) == (0, 1)
    assert len(projections(i2)) == 4
    assert set(projections(i2)) <= set(idempotents(i2))


def test_idempotent_leq(sl2, lz2):
    assert idempotent_leq(sl2, 0, 1)
    assert not idempotent_leq(sl2, 1, 0)
    for e in sl2.elements:
        assert idempotent_leq(sl2, e, e)
    # left zero: ab = a but ba = b
    assert not idempotent_leq(lz2, 0, 1)


def test_idempotent_leq_rejects_non_idempotent(c2):
    with pytest.raises(NotIdempotent):
        idempotent_leq(c2, 1, 0)


def test_classify_i2_all_flags(i2):
    rep = classify(i2)
    assert all(rep.flag(name) for name in
               ("restrictive", "corestrictive", "birestrictive", "involutive",
                "left_involutive", "right_involutive", "locally_involutive",
                "quasi_involutive", "inverse", "commuting_projections"))


def test_classify_t1_all_flags(t1):
    rep = classify(t1)
    assert rep.inverse and rep.involutive


def test_classify_lz2(lz2):
    rep = classify(lz2)
    assert rep.left_involutive
    assert not rep.right_involutive
    assert rep.locally_involutive
    assert rep.corestrictive
    assert not rep.restrictive
    assert not rep.involutive
    assert not rep.quasi_involutive
    assert not rep.inverse
    assert rep.witness("restrictive") is not None


def test_classify_witnesses_are_least(rz2):
    rep = classify(rz2)
    assert not rep.corestrictive
    # first violating pair in lexicographic order
    assert rep.witness("corestrictive") == (0, 1)


def test_leq_left_examples(sl2, c2):
    assert leq_left(sl2, 0, 1)
    assert not leq_left(c2, 0, 1)
    for X in (sl2, c2):
        for x in X.elements:
            assert leq_left(X, x, x)
            assert leq_right(X, x, x)


def test_natural_order_sl2(sl2):
    rel = natural_order(sl2)
    assert sorted(rel.pairs()) == [(0, 0), (0, 1), (1, 1)]


def test_natural_order_c2_discrete(c2):
    rel = natural_order(c2)
    assert sorted(rel.pairs()) == [(0, 0), (1, 1)]


def test_natural_order_i2_matches_graph_containment(i2):
    rel = natural_order(i2)
    maps = oracle.symmetric_inverse_maps(2)

    def graph(t):
        return {(a, b) for a, b in enumerate(t) if b != -1}

    for x in i2.elements:
        for y in i2.elements:
            assert rel.leq(x, y) == (graph(maps[x]) <= graph(maps[y]))


def test_natural_order_requires_locally_involutive(star_pool):
    # a *-semigroup that is not locally involutive: right-zero with a
    # nontrivial twist is still locally involutive, so take one of the pool
    found = next(X for X in star_pool if not classify(X).locally_involutive)
    with pytest.raises(NotLocallyInvolutive):
        natural_order(found)


def test_check_morphism_identity(i2):
    flags = check_morphism(identity_morphism(i2))
    assert flags.is_star_morphism and flags.is_left_star_hom and flags.is_star_hom


def test_check_morphism_constant(const_c2_t1):
    flags = check_morphism(const_c2_t1)
    assert flags.is_star_hom


def test_star_hom_implies_left_star_hom(star_pool):
    import itertools
    small = [X for X in star_pool if X.order <= 2]
    for X in small:
        for Y in small:
            for f in itertools.product(range(Y.order), repeat=X.order):
                m = StarMorphism(X, Y, f)
                if m.is_star_hom:
                    assert m.is_left_star_hom


def test_etale_identity(i2, sl2):
    assert is_etale(identity_morphism(i2))
    assert is_etale(identity_morphism(sl2))


def test_etale_constant_fails(const_c2_t1):
    rep = etale_report(const_c2_t1)
    assert not rep.ok
    assert rep.witness is not None


def test_etale_report_is_kept_on_the_morphism(i2):
    f = identity_morphism(i2)
    assert etale_report(f) is etale_report(f) and is_etale(f)
    assert not hasattr(StarMorphism, "etale")


def test_fibers_list_the_source_over_each_target_element(c2, t1, i2,
                                                         const_c2_t1):
    assert const_c2_t1.fibers == ((0, 1),)
    assert StarMorphism(t1, c2, (0,)).fibers == ((0,), ())
    f = StarMorphism(i2, i2, (3, 0, 3, 0, 1, 2, 4))
    assert f.fibers == ((1, 3), (4,), (5,), (0, 2), (6,), (), ())
    assert f.fibers is f.fibers


def test_etale_requires_left_star_hom(c2, sl2):
    from stargroup.core import NotLeftStarHom
    bad = StarMorphism(c2, c2, (1, 0))  # swap is not a left *-hom on Z/2
    with pytest.raises(NotLeftStarHom):
        etale_report(bad)


def test_etale_lift_identity_sl2(id_sl2):
    assert etale_lift(id_sl2, 1, 0) == 0


def test_etale_lift_id_i2(i2, id_i2):
    # lift of any s with s = ps at p is s itself
    for p in projections(i2):
        for s in i2.elements:
            if i2.mul[p][s] == s:
                assert etale_lift(id_i2, p, s) == s


def test_etale_lift_errors(id_sl2, const_c2_t1):
    with pytest.raises(NoLift):
        etale_lift(id_sl2, 0, 1)  # 0.1 = 0 != 1
    with pytest.raises(NotEtale):
        etale_lift(const_c2_t1, 0, 0)


def test_compose_morphisms(c2, t1, const_c2_t1):
    idc = identity_morphism(c2)
    assert compose_morphisms(const_c2_t1, idc).map == const_c2_t1.map


# -- property tests over random small tables --------------------------------


@st.composite
def random_star_semigroup(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    mul = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    return n, mul, list(perm)


@given(random_star_semigroup())
@settings(max_examples=300, deadline=None)
def test_classification_implications_hold(data):
    n, mul, star = data
    if check_star_semigroup(n, mul, star):
        return  # not a *-semigroup; nothing to classify
    X = validate_star_semigroup(n, mul, star)
    r = classify(X)
    if r.involutive:
        assert r.left_involutive and r.right_involutive
    if r.left_involutive or r.right_involutive:
        assert r.locally_involutive
    if r.left_involutive:
        assert r.corestrictive
    if r.right_involutive:
        assert r.restrictive
    if r.inverse:
        assert r.involutive and r.quasi_involutive


@given(random_star_semigroup())
@settings(max_examples=300, deadline=None)
def test_partial_orders_are_orders(data):
    n, mul, star = data
    if check_star_semigroup(n, mul, star):
        return
    X = validate_star_semigroup(n, mul, star)
    for x in X.elements:
        assert leq_left(X, x, x) and leq_right(X, x, x)
        for y in X.elements:
            if leq_left(X, x, y) and leq_left(X, y, x):
                assert x == y
            for z in X.elements:
                if leq_left(X, x, y) and leq_left(X, y, z):
                    assert leq_left(X, x, z)


def test_classify_brandt(b2):
    rep = classify(b2)
    assert rep.inverse and rep.involutive
    assert len(projections(b2)) == 3  # zero plus the two diagonal units


# ---------------------------------------------------------------------------
# the check-result idiom: Violation, Verdict, Invalid


def _invalid_inputs(c2, sl2_inv):
    """(error, call) per validator, each call on input that breaks an axiom."""
    from dataclasses import replace

    from stargroup import groupoid, site, ssets

    A = ssets.canonical_action(identity_morphism(c2))
    bad_action = [list(row) for row in A.action]
    bad_action[0][1] = 0
    G = groupoid.esn_groupoid(c2)
    return [
        (InvalidStarSemigroup,
         lambda: validate_star_semigroup(2, [[1, 0], [0, 0]], [0, 1])),
        (site.PresheafInvalid, lambda: site.validate_presheaf(
            sl2_inv, {1: ("u", "v"), 0: ("w",)},
            {(0, 0): (0,), (1, 1): (1, 0), (0, 1): (0, 0)})),
        (ssets.SSetInvalid,
         lambda: ssets.make_sset(A.size, A.star, A.base, A.smap, bad_action)),
        (groupoid.InvalidGroupoid,
         lambda: groupoid.validate_groupoid(replace(G, inverse=(0, 0)))),
        (groupoid.InvalidGroupoid,
         lambda: groupoid.esn_semigroup(replace(G, mediator=((1,),)))),
        (groupoid.InvalidGroupoid,
         lambda: groupoid.validate_mediator(replace(G, mediator=None))),
    ]


def test_every_validator_raises_invalid_with_violations(c2, sl2_inv):
    for error, call in _invalid_inputs(c2, sl2_inv):
        with pytest.raises(error) as err:
            call()
        assert isinstance(err.value, Invalid)
        violations = err.value.violations
        assert violations
        assert all(type(v) is Violation for v in violations)
        assert str(err.value) == "; ".join(str(v) for v in violations)
        for v in violations:
            kind, witness = v
            assert str(v) == f"{kind}{witness}" == f"{v.kind}{v.witness}"


def test_checks_return_one_verdict_type(p21, id_sl2, i2, const_c2_t1):
    from stargroup import groupoid, modalg, topos

    fh = modalg.fhat(id_sl2)
    verdicts = [
        modalg.validate_module(fh.module),
        modalg.validate_algebra(fh.algebra),
        groupoid.validate_mediator(groupoid.esn_groupoid(i2)),
        etale_report(id_sl2),
        etale_report(const_c2_t1),
        topos.triangle_check(p21),
        topos.triangle_check2(const_c2_t1),
    ]
    assert all(type(v) is Verdict for v in verdicts)
    assert [v.ok for v in verdicts] == [True] * 4 + [False, True, True]
    assert etale_report(const_c2_t1).violations[0].kind


def test_verdict_keeps_first_of_repeats_in_order():
    a, b = Violation("A", (0,)), Violation("B", (1, 2))
    v = Verdict((a, b, Violation("A", (0,)), b))
    assert v.violations == (a, b)
    assert v.witness == (0,)
    assert not v and not v.ok
    assert [k for k, _ in v.violations] == ["A", "B"]
    assert Verdict((b, a)).witness == (1, 2)
    empty = Verdict()
    assert empty and empty.ok and empty.witness is None
    assert empty == Verdict(()) and v == Verdict((a, b))


def test_memo_computes_once_and_keeps_no_error():
    calls = []

    class Box:
        @memo
        def value(self):
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("first read fails")
            return len(calls)

    box = Box()
    with pytest.raises(ValueError):
        box.value
    assert box.value == 2 and box.value == 2 and len(calls) == 2
    assert Box().value == 3


def test_memo_on_a_function_keeps_the_value_on_its_argument():
    calls = []

    @memo
    def sweep(obj):
        """A sweep."""
        calls.append(obj)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return [len(calls)]

    class Box:
        pass

    a, b = Box(), Box()
    with pytest.raises(ValueError):
        sweep(a)
    first = sweep(a)
    assert sweep(a) is first and first == [2] and a.sweep is first
    assert sweep(b) == [3] and calls == [a, a, b]
    assert sweep.__doc__ == "A sweep."


def _search(depth, order, refused=(), budget=None):
    """Backtrack over ``order`` at every depth, refusing each assignment
    prefix in ``refused``: the leaves, the (depth, candidate) pairs tried
    and the prefix at which each depth's candidates were read."""
    assign = [None] * depth
    tried, entered = [], []

    def candidates(t):
        entered.append(tuple(assign[:t]))
        return order

    def place(t, c):
        tried.append((t, c))
        assign[t] = c
        return tuple(assign[:t + 1]) not in refused

    leaves = []
    try:
        for _ in backtrack(depth, candidates, place, budget):
            leaves.append(tuple(assign))
    except SearchBudgetExceeded:
        leaves.append("over budget")
    return leaves, tried, entered


def test_backtrack_at_depth_0_yields_once():
    def never(*args):
        raise AssertionError(args)

    assert list(backtrack(0, never, never)) == [None]
    assert list(backtrack(0, never, never, budget=0)) == [None]


def test_backtrack_yields_leaves_in_candidate_order():
    leaves, tried, _ = _search(3, (2, 0, 1))
    assert leaves == list(itertools.product((2, 0, 1), repeat=3))
    assert len(tried) == 3 + 9 + 27


def test_backtrack_budget_counts_candidates_tried():
    # 2 + 4 + 8 candidates in the whole search
    assert _search(3, (0, 1), budget=14)[0][-1] == (1, 1, 1)
    for n in range(14):
        leaves, tried, _ = _search(3, (0, 1), budget=n)
        assert leaves[-1] == "over budget" and len(tried) == n


def test_backtrack_never_enters_under_a_refused_candidate():
    leaves, tried, entered = _search(3, (0, 1), refused={(1,), (0, 0)})
    assert leaves == [(0, 1, 0), (0, 1, 1)]
    assert (0, 1) in tried and (1, 0) in tried
    assert entered == [(), (0,), (0, 1)]
