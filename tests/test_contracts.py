"""Every exported callable, every declared method of an exported class and
every declared argument of the package, called with junk in one argument
and valid values in the others, returns or raises a StarError (ShapeError
or the function's documented error) or, for the oracle, its own ValueError
or OracleError: never another exception.  The valid values come from the
declarations (``core.takes``): a sample object per class and a sample per
other kind; an argument no declaration covers takes its sample by name,
then its default, then None."""

import importlib
import inspect
import linecache
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import stargroup
from stargroup import core, modalg, oracle, site, ssets, topos
from stargroup.core import ShapeError, StarError
from test_shapes import JUNK

MODULES = [importlib.import_module(f"stargroup.{info.name}")
           for info in pkgutil.iter_modules(stargroup.__path__)]
EXPORTS = {name: obj for name, obj in vars(stargroup).items()
           if callable(obj) and not name.startswith("_")}


def _own(module):
    return [(name, obj) for name, obj in vars(module).items()
            if getattr(obj, "__module__", None) == module.__name__]


def _targets():
    """(id, owner class or None, name, callable) of every export, every
    declared method of an exported class and every declared callable."""
    seen, out = set(), []
    declared = [(f"{m.__name__[10:]}.{n}", obj) for m in MODULES
                for n, obj in _own(m) if hasattr(obj, "kinds")]
    for label, obj in [*EXPORTS.items(), *declared]:
        if id(obj) not in seen:
            seen.add(id(obj))
            out.append((label, None, obj.__name__, obj))
        for name, method in vars(obj).items() if isinstance(obj, type) else ():
            if name != "__init__" and getattr(method, "kinds", None):
                out.append((f"{label}.{name}", obj, name, method))
    return out


TARGETS = _targets()


def _params(fn):
    params = list(inspect.signature(fn).parameters.values())
    return params[1:] if params and params[0].name == "self" else params


@pytest.fixture(scope="module")
def samples(sl2, t1, id_sl2):
    """A valid object per class, one per non-class kind, and the arguments
    that no declaration covers, by name."""
    base = site.as_inverse(t1)  # one idempotent: the generators stay small
    P = site.validate_presheaf(base, {0: ("a", "b")}, {(0, 0): (0, 1)})
    fh = modalg.fhat(id_sl2)
    A = ssets.canonical_action(id_sl2)
    objects = {
        core.FiniteStarSemigroup: sl2, site.InverseSemigroup: base,
        core.StarMorphism: id_sl2, site.Presheaf: P,
        site.PresheafMap: site.validate_presheaf_map(P, P, {0: (0, 1)}),
        topos.GammaPresheaf: topos.gamma(id_sl2),
        stargroup.OrderedGroupoidWithMediator: stargroup.esn_groupoid(sl2),
        ssets.SSetStructure: A, modalg.SModule: fh.module,
        modalg.SAlgebra: fh.algebra, modalg.FHatAlgebra: fh,
        modalg.FreeModule: modalg.FreeModule(id_sl2),
        random.Random: random.Random(0), int: 0, str: "x", dict: {},
    }
    kinds = {core._below: 0, core._idempotent: 0,
             site._ls_morphism: site.LSMorphism(0, 0),
             modalg._free_sum: (0, ()), core._at_least: None}
    named = {"order": 2, "mul": sl2.mul, "star": sl2.star, "map": (0, 1),
             "size": 2, "smap": A.smap, "action": A.action,
             "fibers": P.fibers, "transitions": P.transitions,
             "components": {0: (0, 1)}, "table": sl2.mul, "n": 2,
             "name": "semilattice_chain", "statement_id": "lem:reduct",
             "statement_ids": ["lem:reduct"], "points": (0,),
             "instance": (sl2.mul, sl2.star), "cap": 64, "D": (), "items": (),
             # a module over the S-set A of the identity, F-hat's product
             "zero": (0, 1), "add": ((0, -1), (-1, 1)),
             "product": fh.algebra.product}
    return objects, kinds, named


@pytest.fixture(scope="module")
def empty_samples():
    """The samples of ``samples`` built over the empty *-semigroup E: its
    identity, E as an inverse base, the empty presheaf on it and what the
    identity carries, so every argument that names an object holds none."""
    E = core.validate_star_semigroup(0, (), ())
    f = core.identity_morphism(E)
    base = site.as_inverse(E)
    P = site.empty_presheaf(base)
    fh = modalg.fhat(f)
    A = ssets.canonical_action(f)
    objects = {
        core.FiniteStarSemigroup: E, site.InverseSemigroup: base,
        core.StarMorphism: f, site.Presheaf: P,
        site.PresheafMap: site.validate_presheaf_map(P, P, {}),
        topos.GammaPresheaf: topos.gamma(f),
        stargroup.OrderedGroupoidWithMediator: stargroup.esn_groupoid(E),
        ssets.SSetStructure: A, modalg.SModule: fh.module,
        modalg.SAlgebra: fh.algebra, modalg.FHatAlgebra: fh,
        modalg.FreeModule: modalg.FreeModule(f),
        random.Random: random.Random(0), int: 0, str: "x", dict: {},
    }
    kinds = {core._below: 0, core._idempotent: 0,
             site._ls_morphism: site.LSMorphism(0, 0),
             modalg._free_sum: (0, ()), core._at_least: None}
    named = {"order": 0, "mul": (), "star": (), "map": (), "size": 0,
             "smap": (), "action": (), "fibers": {}, "transitions": {},
             "components": {}, "table": (), "n": 0,
             "name": "semilattice_chain", "statement_id": "lem:reduct",
             "statement_ids": ["lem:reduct"], "points": (), "instance": ((), ()),
             "cap": 64, "D": (), "items": (), "zero": (), "add": (),
             "product": ()}
    return objects, kinds, named


def _valid(samples, target, param):
    objects, kinds, named = samples
    kind = getattr(target[3], "kinds", {}).get(param.name)
    if param.name in named:
        return named[param.name]
    if isinstance(kind, core.Kind):
        value = kinds[kind.test]
        return kind.of if value is None else value
    if kind is not None:
        return objects[next(c for c in (kind if type(kind) is tuple
                                         else (kind,)) if c is not None)]
    return None if param.default is param.empty else param.default


def _call(samples, target, args):
    _, owner, name, fn = target
    if owner is not None:
        fn = getattr(samples[0][owner], name)
    out = fn(*args)
    # a generator runs its checks at its first item; one item is enough
    return next(out, None) if inspect.isgenerator(out) else out


def _fuzzed(target):
    """The arguments junk goes into: all, for an export or its method; the
    declared ones, for a callable declared elsewhere."""
    params = _params(target[3])
    exported = target[0].split(".")[0] in EXPORTS
    return [i for i, p in enumerate(params)
            if exported or p.name in target[3].kinds]


def _raised_by_the_oracle(exc):
    """Whether a ``raise`` statement of oracle.py raised ``exc``, not Python
    inside the oracle."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = tb.tb_frame.f_code.co_filename
    return path == oracle.__file__ and linecache.getline(
        path, tb.tb_lineno).lstrip().startswith("raise")


def _attempt(samples, target, args):
    """Call ``target``; an error passes when it is a StarError or an
    OracleError, or a ValueError that the oracle raises itself."""
    try:
        _call(samples, target, args)
    except (StarError, oracle.OracleError):
        pass
    except ValueError as exc:
        if not _raised_by_the_oracle(exc):
            raise


FUZZED = [t for t in TARGETS if _fuzzed(t)]


# one example calls every target once, with junk from a few values drawn
# for the example: Hypothesis draws a nested value in milliseconds, and its
# fixed cost per test is paid once, not per target
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_junk_in_one_argument_returns_or_raises_a_documented_error(
        samples, data):
    junk = data.draw(st.lists(JUNK, min_size=4, max_size=4), label="junk")
    for target in FUZZED:
        args = [_valid(samples, target, p) for p in _params(target[3])]
        i = data.draw(st.sampled_from(_fuzzed(target)), label=target[0])
        args[i] = data.draw(st.sampled_from(junk), label=f"argument {i}")
        _attempt(samples, target, args)


@pytest.mark.parametrize("target", FUZZED, ids=[t[0] for t in FUZZED])
def test_none_in_any_argument_returns_or_raises_a_documented_error(
        samples, target):
    for i in _fuzzed(target):
        args = [_valid(samples, target, p) for p in _params(target[3])]
        args[i] = None
        _attempt(samples, target, args)


RECORDS = {t[0] for t in TARGETS
           if isinstance(t[3], type) and not t[3].kinds}


@pytest.mark.parametrize("target", [t for t in TARGETS if t[0] not in RECORDS],
                         ids=[t[0] for t in TARGETS if t[0] not in RECORDS])
def test_none_everywhere_is_a_shape_error(samples, target):
    # a record checks nothing; the oracle raises its own errors
    params = _params(target[3])
    is_oracle = getattr(target[3], "__module__", "") == oracle.__name__
    with pytest.raises((ValueError, oracle.OracleError) if is_oracle
                       else ShapeError) as info:
        _call(samples, target, [None] * len(params))
    assert info.type is not ValueError or _raised_by_the_oracle(info.value)


def _allows_none(kind):
    return type(kind) is tuple and None in kind


@pytest.mark.parametrize(
    "target, name",
    [(t, p.name) for t in TARGETS for p in _params(t[3])
     if p.name in getattr(t[3], "kinds", {})
     and not _allows_none(t[3].kinds[p.name])],
    ids=lambda v: v[0] if type(v) is tuple else v)
def test_none_in_a_declared_argument_is_a_shape_error(samples, target, name):
    params = _params(target[3])
    args = [None if p.name == name else _valid(samples, target, p)
            for p in params]
    with pytest.raises(ShapeError, match=f"^{name} "):
        _call(samples, target, args)


def test_the_valid_samples_are_valid(samples):
    # the fuzz puts junk into one argument of a call that otherwise passes
    # every declared check; the call may still raise an error of its own
    failed = []
    for target in TARGETS:
        if target[0] in RECORDS:
            continue
        args = [_valid(samples, target, p) for p in _params(target[3])]
        try:
            _call(samples, target, args)
        except ShapeError as exc:
            failed.append((target[0], str(exc)))
        except StarError:
            pass
    assert failed == [], failed


def test_a_path_reads_an_argument_declared_before_it():
    # so each argument a kind reads has been checked when the kind reads it
    for label, _, _, fn in TARGETS:
        order = list(getattr(fn, "kinds", {}))
        for i, kind in enumerate(getattr(fn, "kinds", {}).values()):
            if isinstance(kind, core.Kind) and type(kind.of) is str:
                arg = kind.of.partition(".")[0]
                assert arg == "self" or arg in order[:i], (label, arg)


def test_classify_of_none_is_a_shape_error():
    with pytest.raises(ShapeError, match="^X must be of type "
                                         "FiniteStarSemigroup, got NoneType"):
        core.classify(None)


def test_every_target_over_the_empty_object_returns_or_raises_a_documented_error(
        empty_samples):
    # the empty *-semigroup is an object like any other: no call over it
    # may end in a traceback
    for target in TARGETS:
        _attempt(empty_samples, target,
                 [_valid(empty_samples, target, p) for p in _params(target[3])])
