"""JSON formats and canonical (bit-exact round-trip) save/load.

References to other files are plain strings resolved relative to the
referring file; inline objects are plain dicts.  The readers take both; the
writers inline every object.  All writers emit the same
canonical encoding, so save(load(p)) reproduces p byte for byte whenever p
was written by this module.

Every reader first checks the JSON shape of its input (an object with the
required keys, each of the expected JSON type) and raises ``InputError``
when it does not match; only then are the tables validated, and a table
that breaks an axiom raises a ``StarError``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import FiniteStarSemigroup, Relation, StarMorphism, validate_star_semigroup
from .groupoid import OrderedGroupoidWithMediator, validate_groupoid
from .site import Presheaf, as_inverse, validate_presheaf
from .ssets import SSetStructure, make_sset


class InputError(ValueError):
    """A file that does not have the JSON shape its reader expects: a top
    level that is not an object, a missing key or a field of the wrong
    type.  Not a StarError: no table was read, so nothing was checked."""


def _json_type(value) -> str:
    """The JSON name of a decoded value's type, for messages."""
    if isinstance(value, bool):
        return "boolean"
    return {int: "integer", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}.get(type(value), "value")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v):
    return isinstance(v, list) and all(map(_is_int, v))


# the field types a schema names: a test and the phrase for messages
_TYPES = {
    "integer": (_is_int, "an integer"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "null": (lambda v: v is None, "null"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "integers": (_is_ints, "an array of integers"),
    "table": (lambda v: isinstance(v, list) and all(map(_is_ints, v)),
              "an array of integer arrays"),
}


def _check(value, types, what):
    if not any(_TYPES[t][0](value) for t in types):
        wanted = " or ".join(_TYPES[t][1] for t in types)
        raise InputError(f"{what} must be {wanted}, got {_json_type(value)}")


def _schema(d, kind, required, optional=None):
    """Return d after checking that it is a JSON object with every required
    key and that each field present has one of the types its schema names."""
    if not isinstance(d, dict):
        raise InputError(f"{kind}: expected an object, got {_json_type(d)}")
    for key in required:
        if key not in d:
            raise InputError(f"{kind}: missing key {key!r}")
    for key, types in {**required, **(optional or {})}.items():
        if key in d:
            _check(d[key], types, f"{kind}: {key!r}")
    return d


_REF = ("string", "object")
_NAME = {"name": ("string", "null")}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _write(path, obj):
    Path(path).write_text(dumps(obj))


def _read(path):
    """The JSON value in the file at ``path``; text that is not UTF-8, is
    not valid JSON, or nests deeper than the parser can recurse is an
    InputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc.msg} at line "
                         f"{exc.lineno} column {exc.colno})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


# semigroups ----------------------------------------------------------------


def semigroup_to_dict(X: FiniteStarSemigroup) -> dict:
    out = {
        "order": X.order,
        "mul": [list(row) for row in X.mul],
        "star": list(X.star),
    }
    if X.name is not None:
        out["name"] = X.name
    return out


def semigroup_from_dict(d: dict) -> FiniteStarSemigroup:
    _schema(d, "semigroup",
            {"order": ("integer",), "mul": ("table",), "star": ("integers",)},
            _NAME)
    return validate_star_semigroup(
        d["order"], d["mul"], d["star"], d.get("name")
    )


def save_semigroup(X: FiniteStarSemigroup, path):
    _write(path, semigroup_to_dict(X))


def load_semigroup(path) -> FiniteStarSemigroup:
    return semigroup_from_dict(_read(path))


def _resolve_ref(ref, base_dir) -> FiniteStarSemigroup:
    if isinstance(ref, str):
        return load_semigroup(Path(base_dir) / ref)
    if isinstance(ref, dict):
        return semigroup_from_dict(ref)
    raise InputError(f"semigroup reference must be a string or an object, "
                     f"got {_json_type(ref)}")


# morphisms -----------------------------------------------------------------


def morphism_to_dict(f: StarMorphism) -> dict:
    return {
        "source": semigroup_to_dict(f.source),
        "target": semigroup_to_dict(f.target),
        "map": list(f.map),
    }


def morphism_from_dict(d: dict, base_dir=".") -> StarMorphism:
    _schema(d, "morphism",
            {"source": _REF, "target": _REF, "map": ("integers",)})
    source = _resolve_ref(d["source"], base_dir)
    target = _resolve_ref(d["target"], base_dir)
    return StarMorphism(source, target, d["map"])


def save_morphism(f: StarMorphism, path):
    _write(path, morphism_to_dict(f))


def load_morphism(path) -> StarMorphism:
    path = Path(path)
    return morphism_from_dict(_read(path), path.parent)


# presheaves ----------------------------------------------------------------


def presheaf_to_dict(P: Presheaf) -> dict:
    return {
        "base": semigroup_to_dict(P.base.semigroup),
        "fibers": {str(e): list(labels) for e, labels in sorted(P.fibers.items())},
        "transitions": {
            f"{s},{e}": list(tr) for (s, e), tr in sorted(P.transitions.items())
        },
    }


def _index_key(text, parts):
    """A presheaf key of `parts` comma-separated integers: "3" or "1,0"."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != parts:
        raise InputError(f"presheaf: bad key {text!r}")
    return values


def presheaf_from_dict(d: dict, base_dir=".") -> Presheaf:
    _schema(d, "presheaf", {"base": _REF, "fibers": ("object",),
                            "transitions": ("object",)})
    fibers, transitions = {}, {}
    for key, labels in d["fibers"].items():
        _check(labels, ("array",), f"presheaf: fiber {key!r}")
        fibers[_index_key(key, 1)[0]] = tuple(labels)
    for key, tr in d["transitions"].items():
        _check(tr, ("integers",), f"presheaf: transition {key!r}")
        transitions[_index_key(key, 2)] = tuple(tr)
    base = as_inverse(_resolve_ref(d["base"], base_dir))
    return validate_presheaf(base, fibers, transitions)


def save_presheaf(P: Presheaf, path):
    _write(path, presheaf_to_dict(P))


def load_presheaf(path) -> Presheaf:
    path = Path(path)
    return presheaf_from_dict(_read(path), path.parent)


# groupoids -----------------------------------------------------------------


def groupoid_to_dict(G: OrderedGroupoidWithMediator) -> dict:
    out = {
        "objects": G.n_objects,
        "morphisms": G.n_morphisms,
        "dom": list(G.dom),
        "cod": list(G.cod),
        "identity": list(G.identity),
        "inverse": list(G.inverse),
        "compose": [list(row) for row in G.compose],
        "order": [
            [1 if G.order.leq(i, j) else 0 for j in range(G.n_morphisms)]
            for i in range(G.n_morphisms)
        ],
        "mediator": (None if G.mediator is None
                     else [list(row) for row in G.mediator]),
    }
    if G.name is not None:
        out["name"] = G.name
    return out


def groupoid_from_dict(d: dict) -> OrderedGroupoidWithMediator:
    _schema(d, "groupoid",
            {"objects": ("integer",), "morphisms": ("integer",),
             "dom": ("integers",), "cod": ("integers",),
             "identity": ("integers",), "inverse": ("integers",),
             "compose": ("table",), "order": ("table",)},
            {"mediator": ("table", "null"), **_NAME})
    n = d["morphisms"]
    if len(d["order"]) != n or any(len(row) != n for row in d["order"]):
        raise InputError(f"groupoid: 'order' must be a {n}x{n} table")
    rows = tuple(
        sum(1 << j for j in range(n) if d["order"][i][j]) for i in range(n)
    )
    G = OrderedGroupoidWithMediator(
        n_objects=d["objects"],
        n_morphisms=n,
        dom=tuple(d["dom"]),
        cod=tuple(d["cod"]),
        identity=tuple(d["identity"]),
        inverse=tuple(d["inverse"]),
        compose=tuple(tuple(row) for row in d["compose"]),
        order=Relation(n, rows),
        mediator=(None if d.get("mediator") is None
                  else tuple(tuple(row) for row in d["mediator"])),
        name=d.get("name"),
    )
    validate_groupoid(G)
    return G


def save_groupoid(G: OrderedGroupoidWithMediator, path):
    _write(path, groupoid_to_dict(G))


def load_groupoid(path) -> OrderedGroupoidWithMediator:
    return groupoid_from_dict(_read(path))


# S-sets --------------------------------------------------------------------


def sset_to_dict(A: SSetStructure) -> dict:
    return {
        "carrier": A.size,
        "star": list(A.star),
        "base": semigroup_to_dict(A.base),
        "map": list(A.smap),
        "action": [list(row) for row in A.action],
    }


def sset_from_dict(d: dict, base_dir=".") -> SSetStructure:
    _schema(d, "S-set",
            {"carrier": ("integer",), "star": ("integers",), "base": _REF,
             "map": ("integers",), "action": ("table",)})
    base = _resolve_ref(d["base"], base_dir)
    return make_sset(d["carrier"], d["star"], base, d["map"], d["action"])


def save_sset(A: SSetStructure, path):
    _write(path, sset_to_dict(A))


def load_sset(path) -> SSetStructure:
    path = Path(path)
    return sset_from_dict(_read(path), path.parent)


# generic loader ------------------------------------------------------------


def load_any(path):
    """Detect the object kind from its keys and load it."""
    path = Path(path)
    d = _schema(_read(path), "file", {})
    if "mul" in d:
        return semigroup_from_dict(d)
    if "fibers" in d:
        return presheaf_from_dict(d, path.parent)
    if "compose" in d:
        return groupoid_from_dict(d)
    if "action" in d and "carrier" in d:
        return sset_from_dict(d, path.parent)
    if "map" in d:
        return morphism_from_dict(d, path.parent)
    raise InputError(f"unrecognized file format: {sorted(d)}")


# F-hat dump ----------------------------------------------------------------


def fhat_to_dict(fh, include_product=False) -> dict:
    out = {
        "base": semigroup_to_dict(fh.base),
        "fibers": {str(r): list(fib) for r, fib in enumerate(fh.f.fibers)},
        "carrier": [[r, sorted(A)] for (r, A) in fh.elements],
    }
    if include_product:
        out["product"] = [list(row) for row in fh.algebra.product]
    return out
