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
    esn_groupoid,
    validate_groupoid,
)
from stargroup.modalg import (
    SAlgebra,
    SModule,
    fhat,
    validate_algebra,
    validate_module,
)
from stargroup.site import (
    representable_semigroup,
    representable_tables,
    terminal_presheaf,
    validate_presheaf,
    validate_presheaf_map,
)
from stargroup.ssets import SSetStructure, make_sset

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


@pytest.mark.parametrize("fn", [representable_tables, representable_semigroup])
def test_an_unhashable_element_is_a_shape_error(sl2_inv, fn):
    info = fn.cache_info()
    with pytest.raises(ShapeError):
        fn(sl2_inv, [0])
    assert fn.cache_info() == info
