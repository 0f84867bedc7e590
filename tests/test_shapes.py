"""Every constructor of a table-based object, fed valid tables with one part
replaced by arbitrary nested input, returns an object or raises a StarError:
never a raw TypeError, ValueError or IndexError."""

import pytest
from hypothesis import given, settings, strategies as st

from stargroup.core import (
    Relation,
    ShapeError,
    StarError,
    StarMorphism,
    validate_star_semigroup,
)
from stargroup.groupoid import (
    OrderedGroupoidWithMediator,
    corestrict,
    esn_groupoid,
    extended_compose,
    restrict,
    validate_groupoid,
)
from stargroup.modalg import (
    FreeModule,
    SAlgebra,
    SModule,
    derived_product,
    fhat,
    validate_algebra,
    validate_module,
)
from stargroup.site import (
    LSMorphism,
    compose_ls,
    ls_pullback,
    representable_action,
    representable_semigroup,
    terminal_presheaf,
    validate_presheaf,
    validate_presheaf_map,
)
from stargroup.ssets import SSetStructure, make_sset
from stargroup.topos import counit_explicit_preimage, left_compatible

ATOMS = (st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=2)
         | st.floats(-3, 9, allow_nan=False))
KEYS = st.recursive(ATOMS,
                    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
                    | st.tuples(inner, inner, inner), max_leaves=4)
JUNK = st.recursive(
    ATOMS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=8)


def _paths(value, path=()):
    """The path of every part of a nested argument tuple."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _put(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _put(value.get(head), rest, new)}
    items = list(value)
    items[head] = _put(items[head], rest, new)
    return tuple(items) if isinstance(value, tuple) else items


def _get(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _broken(draw, args):
    """``args`` with one part replaced by junk, or with a junk entry put
    under a junk key of one of its dicts."""
    paths = list(_paths(args))[1:]
    dicts = [p for p in paths if isinstance(_get(args, p), dict)]
    path = draw(st.sampled_from(paths))
    if dicts and draw(st.booleans()):
        path = draw(st.sampled_from(dicts)) + (draw(KEYS),)
    return _put(args, path, draw(JUNK))


def _groupoid(size, n_objects, n_morphisms, dom, cod, identity, inverse,
              compose, mediator, order_rows):
    return validate_groupoid(OrderedGroupoidWithMediator(
        n_objects, n_morphisms, dom, cod, identity, inverse, compose,
        Relation(size, order_rows), mediator))


@pytest.fixture(scope="module")
def cases(sl2, sl2_inv, p21, id_sl2):
    """Constructor name -> (valid arguments, call that builds and checks)."""
    fh = fhat(id_sl2)
    M = fh.module
    G = esn_groupoid(sl2)
    return {
        "semigroup": ((2, sl2.mul, sl2.star),
                      lambda *a: validate_star_semigroup(*a)),
        "morphism": (((0, 1),), lambda m: StarMorphism(sl2, sl2, m)),
        "sset": ((2, sl2.star, (0, 1), sl2.mul),
                 lambda n, star, smap, act: make_sset(n, star, sl2, smap,
                                                      act)),
        "module": ((M.zero, M.add),
                   lambda z, a: validate_module(SModule(M.sset, z, a))),
        "algebra": ((fh.algebra.product,),
                    lambda p: validate_algebra(SAlgebra(M, p))),
        "groupoid": ((G.n_objects, G.n_morphisms, G.dom, G.cod, G.identity,
                      G.inverse, G.compose, G.mediator, G.order.rows),
                     lambda *a: _groupoid(G.order.size, *a)),
        "presheaf": ((p21.fibers, p21.transitions),
                     lambda f, t: validate_presheaf(sl2_inv, f, t)),
        "presheaf map": (({1: (0, 0), 0: (0,)},),
                         lambda c: validate_presheaf_map(
                             p21, terminal_presheaf(sl2_inv), c)),
    }


@pytest.mark.parametrize("name", [
    "semigroup", "morphism", "sset", "module", "algebra", "groupoid",
    "presheaf", "presheaf map",
])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_constructor_returns_or_raises_a_star_error(cases, name, data):
    valid, build = cases[name]
    build(*valid)
    args = data.draw(_broken(valid))
    try:
        build(*args)
    except StarError:
        pass


@pytest.mark.parametrize("name, build", [
    ("base", lambda sl2, p21: validate_presheaf("x", {}, {})),
    ("source", lambda sl2, p21: validate_presheaf_map(None, p21, {})),
    ("target", lambda sl2, p21: validate_presheaf_map(p21, "x", {})),
    ("source", lambda sl2, p21: StarMorphism(None, sl2, (0, 1))),
    ("target", lambda sl2, p21: StarMorphism(sl2, p21, (0, 1))),
    ("base", lambda sl2, p21: SSetStructure(1, (0,), None, (0,), ((0,),))),
    ("sset", lambda sl2, p21: SModule(sl2, (0,), ((0,),))),
    ("module", lambda sl2, p21: SAlgebra(None, ((0,),))),
])
def test_a_wrong_object_argument_is_a_shape_error_naming_it(sl2, p21, name,
                                                            build):
    with pytest.raises(ShapeError, match=f"^{name} must be of type "):
        build(sl2, p21)


@pytest.mark.parametrize("fn", [representable_semigroup])
def test_an_unhashable_element_is_a_shape_error(sl2_inv, fn):
    info = fn.cache_info()
    with pytest.raises(ShapeError):
        fn(sl2_inv, [0])
    assert fn.cache_info() == info


OUT = LSMorphism(99, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda G, S: restrict(G, 99, 0), id="restrict-morphism"),
    pytest.param(lambda G, S: restrict(G, -1, 0), id="restrict-negative"),
    pytest.param(lambda G, S: restrict(G, 0, 9), id="restrict-object"),
    pytest.param(lambda G, S: corestrict(G, 0, 9), id="corestrict-object"),
    pytest.param(lambda G, S: corestrict(G, 0.0, 0), id="corestrict-float"),
    pytest.param(lambda G, S: extended_compose(G, -1, 0), id="extended-first"),
    pytest.param(lambda G, S: extended_compose(G, 0, 99), id="extended-second"),
    pytest.param(lambda G, S: G.object_leq(-1, 0), id="object-leq-negative"),
    pytest.param(lambda G, S: G.object_leq(0, 4), id="object-leq-past-end"),
    pytest.param(lambda G, S: compose_ls(S, OUT, LSMorphism(0, 0)),
                 id="compose-ls-first"),
    pytest.param(lambda G, S: compose_ls(S, LSMorphism(0, 0), OUT),
                 id="compose-ls-second"),
    pytest.param(lambda G, S: compose_ls(S, LSMorphism(0, 0), (0, 0)),
                 id="compose-ls-tuple"),
    pytest.param(lambda G, S: ls_pullback(S, OUT, OUT), id="ls-pullback"),
    pytest.param(lambda G, S: ls_pullback(S, LSMorphism(0, -1),
                                          LSMorphism(0, -1)),
                 id="ls-pullback-negative"),
    pytest.param(lambda G, S: representable_action(S, OUT),
                 id="representable-action"),
    pytest.param(lambda G, S: left_compatible(S, 99, 0),
                 id="left-compatible-first"),
    pytest.param(lambda G, S: left_compatible(S, 0, -1),
                 id="left-compatible-second"),
])
def test_an_argument_out_of_range_is_a_shape_error(i2, i2_inv, call):
    # the ESN groupoid of I2 has 7 morphisms over 4 objects
    with pytest.raises(ShapeError):
        call(esn_groupoid(i2), i2_inv)


@pytest.mark.parametrize("call", [
    pytest.param(lambda S: compose_ls(S, LSMorphism(1, 0), LSMorphism(1, 1)),
                 id="compose-ls"),
    pytest.param(lambda S: ls_pullback(S, LSMorphism(1, 0),
                                       LSMorphism(0, 0)),
                 id="ls-pullback"),
    pytest.param(lambda S: representable_action(S, LSMorphism(1, 0)),
                 id="representable-action"),
])
def test_a_pair_that_is_not_an_ls_morphism_is_a_shape_error(sl2_inv, call):
    # over SL2 (xy = min(x, y)) 0*1 = 0, so (1 -> 0) has es != s
    with pytest.raises(ShapeError, match="not a morphism of L"):
        call(sl2_inv)


def test_a_codomain_that_is_not_idempotent_is_a_shape_error(i2_inv):
    sg = i2_inv.semigroup
    e = next(x for x in sg.elements if sg.mul[x][x] != x)
    with pytest.raises(ShapeError, match="not idempotent"):
        representable_action(i2_inv, LSMorphism(e, e))


# the identity of I2 has 7 elements and its F-hat module 14: unchecked, -1
# answered for the last element and one past the end was an IndexError
@pytest.mark.parametrize("call", [
    pytest.param(lambda f, M: FreeModule(f).element(6, [-1]),
                 id="element-negative"),
    pytest.param(lambda f, M: FreeModule(f).element(6, [7]),
                 id="element-past-end"),
    pytest.param(lambda f, M: FreeModule(f).element(-1, []),
                 id="element-fiber-negative"),
    pytest.param(lambda f, M: FreeModule(f).rho(-1), id="rho-negative"),
    pytest.param(lambda f, M: FreeModule(f).rho(7), id="rho-past-end"),
    pytest.param(lambda f, M: counit_explicit_preimage(f, -1),
                 id="preimage-negative"),
    pytest.param(lambda f, M: counit_explicit_preimage(f, 7),
                 id="preimage-past-end"),
    pytest.param(lambda f, M: derived_product(M, -1, 0),
                 id="derived-product-negative"),
    pytest.param(lambda f, M: derived_product(M, 0, M.size),
                 id="derived-product-past-end"),
    pytest.param(lambda f, M: M.plus(-1, -1), id="plus-negative"),
    pytest.param(lambda f, M: M.plus(M.size, 0), id="plus-past-end"),
])
def test_an_element_out_of_range_is_a_shape_error(id_i2, call):
    with pytest.raises(ShapeError):
        call(id_i2, fhat(id_i2).module)


def test_plus_answers_in_range(id_i2):
    M = fhat(id_i2).module
    assert M.plus(0, 0) == M.add[0][0] != -1


# raw tuples used to answer: star((-1, ())) gave (6, ()), add and support
# on a non-pair raised a raw TypeError
@pytest.mark.parametrize("call", [
    pytest.param(lambda F: F.star((-1, ())), id="star-base-negative"),
    pytest.param(lambda F: F.zero(-1), id="zero-base-negative"),
    pytest.param(lambda F: F.zero(7), id="zero-base-past-end"),
    pytest.param(lambda F: F.act((0, ()), -1), id="act-s-negative"),
    pytest.param(lambda F: F.act((0, ()), True), id="act-s-bool"),
    pytest.param(lambda F: F.add((0, ()), 5), id="add-not-a-pair"),
    pytest.param(lambda F: F.support(5), id="support-not-a-pair"),
    pytest.param(lambda F: F.star([6, ()]), id="star-list"),
    pytest.param(lambda F: F.star((6, (6,))), id="term-not-a-pair"),
    pytest.param(lambda F: F.star((6, ((7, 1),))), id="term-past-end"),
    pytest.param(lambda F: F.star((0, ((6, 1),))), id="term-off-fiber"),
    pytest.param(lambda F: F.star((6, ((6, 0),))), id="count-zero"),
    pytest.param(lambda F: F.star((6, ((6, True),))), id="count-bool"),
    pytest.param(lambda F: F.star((6, ((6, 1.0),))), id="count-float"),
    pytest.param(lambda F: F.act((6, ((6, 1), (6, 1))), 0),
                 id="terms-repeated"),
    pytest.param(lambda F: F.support((6, ((6, 1),), 0)), id="triple"),
])
def test_a_malformed_free_module_element_is_a_shape_error(id_i2, call):
    with pytest.raises(ShapeError):
        call(FreeModule(id_i2))


def test_free_module_operations_answer_well_formed_elements(id_i2):
    F = FreeModule(id_i2)
    a = F.element(6, [6, 6])
    assert a == (6, ((6, 2),))
    assert F.add(a, F.zero(6)) == a == F.star(F.star(a))
    r = id_i2.target.mul[6][6]
    assert F.act(a, 6) == (r, ((r, 2),))
    assert F.support(F.act(a, 6)) == (r, frozenset({r}))
