"""Statement verification: every registered statement is evaluated twice,
once through the main modules and once through the oracle's naive
re-derivation, over instance pools generated from the enumeration and the
standard families.  A row passes when both verdicts are True.

Instance pools are generated deterministically and the rows are sorted, so
the report is the same on every run.  Each run builds one ``Catalogue``,
its structures validated once, and every pool is a view of it; a pool
entry carries those semigroups, morphisms between them, or the
``InverseSemigroup`` of its base, so every statement over it reads the
verdicts kept on those objects.  The oracle receives each entry's raw
tables, and one run hands all its naive checks one dict of verdicts, so each
naive predicate is computed once per table or map per run.

On the main side all 22 statements are the clause table ``CLAUSES``, over
the flags ``classify`` and ``StarMorphism`` keep and the objects' tables,
written apart from ``oracle.CLAUSES``: ``evaluate_clauses`` returns True or,
as the oracle's does, the first clause that fails and its first falsifying
binding.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import NamedTuple

from . import oracle, site, topos
from .core import (
    POSITIVE,
    FiniteStarSemigroup,
    SearchBudgetExceeded,
    ShapeError,
    StarError,
    StarMorphism,
    classify,
    compose_morphisms,
    idempotent,
    idempotent_leq,
    idempotents,
    is_etale,
    leq_left,
    leq_right,
    projections,
    takes,
)
from .oracle import BudgetExceeded
from .serialize import InputError
from .site import InverseSemigroup, as_inverse, representable_semigroup
from .topos import BudgetInvalid


class VerifyRow(NamedTuple):
    """One report row: {check, instance, pass, witness?}.  A tuple, as a
    run builds one per task."""

    check: str
    instance: str
    ok: bool
    witness: tuple | list | None = None

    def as_dict(self):
        out = {"check": self.check, "instance": self.instance, "pass": self.ok}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


# The exit-code contract past 0 (every check passed) and 1 (one failed): an
# error of a class here ends the command with its code and one stderr line,
# "<prefix>: <message>", or the prefix alone for 130.  Any other StarError or
# oracle error fails one row (error_row).
EXIT_CODES = {
    SearchBudgetExceeded: (3, "budget exceeded"),
    BudgetExceeded: (3, "budget exceeded"),
    BudgetInvalid: (2, "usage error"),
    oracle.UnknownFamily: (2, "usage error"),
    InputError: (2, "input error"),
    OSError: (2, "io error"),
    KeyboardInterrupt: (130, "interrupted"),
}
ROW_ERRORS = (StarError, oracle.OracleError)


def error_row(exc, check, instance, *head):
    """The failed row of an error a check raised, its witness ``(*head,
    kind, message)``; an error of a class in EXIT_CODES is raised again."""
    if isinstance(exc, tuple(EXIT_CODES)):
        raise exc
    kind = getattr(exc, "kind", type(exc).__name__)
    return VerifyRow(check, instance, False, (*head, kind, str(exc)))


# ---------------------------------------------------------------------------
# main verdicts, one per registered statement

# The clause table (module docstring), one clause per line of the paper,
# named as the oracle names a line both encode.  Each letter of ``over`` binds
# one variable, in the order of the lambda's parameters after the instance's
# objects: E an element and P a projection of X or a map's source, T an
# element of its target, A one of S(e); x <=l y and x <=r y are the left and
# right orders.


class Clause(NamedTuple):
    name: str
    over: str
    guard: str | Callable | None  # a classify flag of X, or of the objects
    hypothesis: Callable | None  # of (*objects, *binding); None holds
    conclusion: Callable


# the bodies: the clauses pass elements of X, and idempotents to _leq
_leq = idempotent_leq.__wrapped__
_left, _right = leq_left.__wrapped__, leq_right.__wrapped__


def _implies(guard, flag):
    """The clause ``guard => flag`` between two ``classify`` flags."""
    return Clause(f"{guard} => {flag}".replace("_", " "), "", guard, None,
                  lambda X: getattr(classify(X), flag))


def _projection_product(X, p, q):  # pq is a projection
    pq = X.mul[p][q]
    return X.mul[pq][pq] == pq and X.star[pq] == pq


# The statements over maps, pairs and S(e): an instance is a StarMorphism f,
# a pair (g, f) or triangle (psi, h) of them, an inverse base's wrapper S with
# an idempotent e, or (f, e).  Guards read the flags classify and maps keep.
_compatible = topos.left_compatible.__wrapped__


def _fdt(f):  # f a left *-homomorphism, both ends left involutive
    return (f.is_left_star_hom and classify(f.source).left_involutive
            and classify(f.target).left_involutive)


def _fdt_at(f, p, x):  # f(px) = f(p)f(x)
    return f.map[f.source.mul[p][x]] == f.target.mul[f.map[p]][f.map[x]]


def _etale_left(f):  # f an etale left *-homomorphism
    return f.is_left_star_hom and is_etale(f)


def _xfy_at(f, x, y):  # x f(y) = xy by the canonical action f.action
    return f.action[x][f.map[y]] == f.source.mul[x][y]


def _starhomo(psi, h):  # h an etale *-hom, h psi a *-hom, psi a left one
    return (h.is_star_hom and is_etale(h) and psi.is_left_star_hom
            and compose_morphisms(h, psi).is_star_hom)


def _rsrs(X, r, s):
    """With e = rr*, a = (r, e), b = (rs, c(rs)) and c = (d(r)s, r c(s)):
    whether a, b and c lie in S(e), whether ac = b and whether d(a)c = c."""
    S, e, rs = as_inverse(X), X.c(r), X.mul[r][s]
    R = representable_semigroup(S, e)
    a, b, c = map(R.index.get, (
        (r, e), (rs, X.c(rs)), (X.mul[X.d(r)][s], X.mul[r][X.c(s)])))
    se, held = R.semigroup, None not in (a, b, c)
    return (held, held and se.mul[a][c] == b,
            held and se.mul[se.mul[se.star[a]][a]][c] == c)


def _xirho(f, e):  # the left *-homs S(e) -> X over S differ at (e, e)
    G = topos.gamma(f)
    ee = representable_semigroup(G.base, e).index[(e, e)]
    return len({table[ee] for table in G.alphas[e]}) == len(G.alphas[e])


def _sym_at(S, e, a, b):  # a = (p, q), b = (r, s), in the tables of S(e)
    R = representable_semigroup(S, e)
    se, i, j = R.semigroup, R.index[a], R.index[b]
    return ((se.star[se.mul[i][j]] == se.mul[se.star[j]][se.star[i]])
            == _compatible(S, b[1], S.semigroup.mul[a[1]][a[0]]))


CLAUSES = {
    "lem:reduct": (
        _implies("involutive", "left_involutive"),
        _implies("involutive", "right_involutive"),
        _implies("left_involutive", "locally_involutive"),
        _implies("right_involutive", "locally_involutive"),
    ),
    "lem:birestrictive": (
        _implies("left_involutive", "corestrictive"),
        _implies("right_involutive", "restrictive"),
        _implies("involutive", "restrictive"),
        _implies("involutive", "corestrictive"),
        Clause("left involutive, pq a projection => pq.p = pq", "PP",
               "left_involutive", _projection_product,
               lambda X, p, q: X.mul[X.mul[p][q]][p] == X.mul[p][q]),
        Clause("right involutive, pq a projection => pq.p = qp", "PP",
               "right_involutive", _projection_product,
               lambda X, p, q: X.mul[X.mul[p][q]][p] == X.mul[q][p]),
        Clause("involutive, pq a projection => pq = qp", "PP",
               "involutive", _projection_product,
               lambda X, p, q: X.mul[p][q] == X.mul[q][p]),
    ),
    "lem:left/right": (
        Clause("c(y) <= p iff py = y and y*p = y*", "EP", None, None,
               lambda X, y, p: _leq(X, X.c(y), p)
               == (X.mul[p][y] == y and X.mul[X.star[y]][p] == X.star[y])),
        Clause("d(x) <= q iff xq = x and qx* = x*", "EP", None, None,
               lambda X, x, q: _leq(X, X.d(x), q)
               == (X.mul[x][q] == x and X.mul[q][X.star[x]] == X.star[x])),
        Clause("c(y) <= d(x) iff d(x)y = y and y*d(x) = y*", "EE", None, None,
               lambda X, x, y: _leq(X, X.c(y), X.d(x))
               == (X.mul[X.d(x)][y] == y
                   and X.mul[X.star[y]][X.d(x)] == X.star[y])),
        Clause("d(x) <= c(y) iff xc(y) = x and c(y)x* = x*", "EE", None, None,
               lambda X, x, y: _leq(X, X.d(x), X.c(y))
               == (X.mul[x][X.c(y)] == x
                   and X.mul[X.c(y)][X.star[x]] == X.star[x])),
        Clause("left involutive, py = y => y*p = y*", "PE",
               "left_involutive", lambda X, p, y: X.mul[p][y] == y,
               lambda X, p, y: X.mul[X.star[y]][p] == X.star[y]),
        Clause("right involutive, xq = x => qx* = x*", "PE",
               "right_involutive", lambda X, q, x: X.mul[x][q] == x,
               lambda X, q, x: X.mul[q][X.star[x]] == X.star[x]),
    ),
    "cor:3cond": (
        Clause("left involutive => (c(y) <= d(x) iff d(x)y = y)", "EE",
               "left_involutive", None, lambda X, x, y:
               _leq(X, X.c(y), X.d(x)) == (X.mul[X.d(x)][y] == y)),
        Clause("left involutive => (d(x) <= c(y) iff c(y)x* = x*)", "EE",
               "left_involutive", None, lambda X, x, y:
               _leq(X, X.d(x), X.c(y))
               == (X.mul[X.c(y)][X.star[x]] == X.star[x])),
    ),
    "prop:commproj": (
        _implies("inverse", "restrictive"),
        _implies("inverse", "corestrictive"),
        _implies("inverse", "locally_involutive"),
        Clause("inverse => pq = qp", "", "inverse", None,
               lambda X: classify(X).commuting_projections),
        Clause("quasi-involutive, all pq = qp => inverse", "",
               "quasi_involutive", lambda X: classify(X).commuting_projections,
               lambda X: classify(X).inverse),
    ),
    "lem:fdt": (
        Clause("f multiplicative => f(px) = f(p)f(x)", "PE", _fdt,
               lambda f, p, x: f.is_multiplicative, _fdt_at),
        # read as its contrapositive, so a multiplicative f sweeps nothing
        Clause("f(px) = f(p)f(x) for all p, x => f multiplicative", "", _fdt,
               lambda f: not f.is_multiplicative,
               lambda f: not all(_fdt_at(f, p, x) for x in f.source.elements
                                 for p in projections(f.source))),
    ),
    "lem:reflect": (Clause(
        "f(x) = c(f(x)) => x = c(x)", "E", _etale_left,
        lambda f, x: f.map[x] == f.target.c(f.map[x]),
        lambda f, x: x == f.source.c(x)),),
    "ex:fg": (Clause(
        "f and fg etale => g etale", "", lambda g, f: (
            g.is_left_star_hom and f.is_left_star_hom and is_etale(f)
            and is_etale(compose_morphisms(f, g))), None,
        lambda g, f: is_etale(g)),),
    "prop:starhomo": (
        Clause("psi over an etale *-hom => psi multiplicative", "",
               _starhomo, None, lambda psi, h: psi.is_multiplicative),
        Clause("h psi etale => psi etale", "", _starhomo,
               lambda psi, h: is_etale(compose_morphisms(h, psi)),
               lambda psi, h: is_etale(psi)),
    ),
    "lem:xfy": (
        # as x d(x) = x, x f(d(x)y) = xy reads x f(z) = xz at z = d(x)y
        Clause("x f(d(x)) = x", "E", _etale_left, None,
               lambda f, x: _xfy_at(f, x, f.source.d(x))),
        Clause("x f(d(x)y) = xy", "EE", _etale_left, None,
               lambda f, x, y: _xfy_at(f, x, f.source.mul[f.source.d(x)][y])),
        Clause("f multiplicative => x f(y) = xy", "EE", _etale_left,
               lambda f, x, y: f.is_multiplicative, _xfy_at),
        Clause("x f(y) = xy for all x, y => f multiplicative", "", _etale_left,
               lambda f: not f.is_multiplicative,  # the contrapositive
               lambda f: not all(_xfy_at(f, x, y) for x in f.source.elements
                                 for y in f.source.elements)),
        Clause("f multiplicative => (xy)s = x(ys)", "EET", _etale_left,
               lambda f, x, y, s: f.is_multiplicative,
               lambda f, x, y, s: f.action[f.source.mul[x][y]][s]
               == f.source.mul[x][f.action[y][s]]),
    ),
    "lem:rsrs": (
        Clause("(r, rr*), (rs, c(rs)) and (d(r)s, rc(s)) lie in S(rr*)",
               "EE", "inverse", None, lambda *i: _rsrs(*i)[0]),
        Clause("(r, rr*)(d(r)s, rc(s)) = (rs, c(rs))", "EE", "inverse", None,
               lambda *i: _rsrs(*i)[1]),
        Clause("d(r, rr*)(d(r)s, rc(s)) = (d(r)s, rc(s))", "EE", "inverse",
               None, lambda *i: _rsrs(*i)[2]),
    ),
    "lem:xirho": (Clause(
        "left *-homs S(e) -> X over S agreeing at (e, e) agree", "",
        lambda f, e: (classify(f.target).inverse and f.is_star_hom
                      and is_etale(f)), None, _xirho),),
    "prop:sym": (Clause(
        "((p, q)(r, s))* = (r, s)*(p, q)* iff s and qp are left compatible",
        "AA", None, None, _sym_at),),
    "rem:Seinv": (Clause(
        "S(e) inverse iff eS pairwise left compatible", "", None, None,
        lambda S, e: classify(representable_semigroup(S, e).semigroup).inverse
        == all(_compatible(S, a, b) for a in set(S.semigroup.mul[e])
               for b in set(S.semigroup.mul[e]))),),
}
# lem:po-1 .. lem:po-8, one clause each
for _i, _clause in enumerate((
    Clause("x <=l y iff xd(y) = x, y*x = d(x) and yx* = c(x)", "EE", None,
           None, lambda X, x, y: _left(X, x, y)
           == (X.mul[x][X.d(y)] == x and X.mul[X.star[y]][x] == X.d(x)
               and X.mul[y][X.star[x]] == X.c(x))),
    Clause("x <=r y iff c(y)x = x, x*y = d(x) and xy* = c(x)", "EE", None,
           None, lambda X, x, y: _right(X, x, y)
           == (X.mul[X.c(y)][x] == x and X.mul[X.star[x]][y] == X.d(x)
               and X.mul[x][X.star[y]] == X.c(x))),
    Clause("left involutive => (x <=l y iff y*x = d(x) and yx* = c(x))",
           "EE", "left_involutive", None, lambda X, x, y: _left(X, x, y)
           == (X.mul[X.star[y]][x] == X.d(x)
               and X.mul[y][X.star[x]] == X.c(x))),
    Clause("right involutive => (x <=r y iff x*y = d(x) and xy* = c(x))",
           "EE", "right_involutive", None, lambda X, x, y: _right(X, x, y)
           == (X.mul[X.star[x]][y] == X.d(x)
               and X.mul[x][X.star[y]] == X.c(x))),
    Clause("x <=l y and xy* = c(x) => x <=r y", "EE", None, lambda X, x, y:
           _left(X, x, y) and X.mul[x][X.star[y]] == X.c(x), _right),
    Clause("x <=r y and y*x = d(x) => x <=l y", "EE", None, lambda X, x, y:
           _right(X, x, y) and X.mul[X.star[y]][x] == X.d(x), _left),
    Clause("locally involutive => (x <=l y iff x <=r y)", "EE",
           "locally_involutive", None,
           lambda X, x, y: _left(X, x, y) == _right(X, x, y)),
    Clause("locally involutive => (x <=l y iff x* <=r y*)", "EE",
           "locally_involutive", None, lambda X, x, y: _left(X, x, y)
           == _right(X, X.star[x], X.star[y])),
), 1):
    CLAUSES[f"lem:po-{_i}"] = (_clause,)


# the range of each variable letter, of the instance's objects
_RANGES = {"E": lambda X, *_: getattr(X, "source", X).elements,
           "P": lambda X, *_: projections(getattr(X, "source", X)),
           "T": lambda f: f.target.elements,
           "A": lambda S, e: representable_semigroup(S, e).carrier}


# the objects of an instance of each pool kind (build_instances), checked as
# core.takes checks arguments
_INSTANCES = {
    "semigroup": takes(X=FiniteStarSemigroup)(lambda X: None),
    "inverse": takes(X=FiniteStarSemigroup)(lambda X: None),
    "morphism": takes(f=StarMorphism)(lambda f: None),
    "pair": takes(g=StarMorphism, f=StarMorphism)(lambda g, f: None),
    "triangle": takes(psi=StarMorphism, h=StarMorphism)(lambda psi, h: None),
    "inverse_idem": takes(S=InverseSemigroup, e=idempotent("S.semigroup"))(
        lambda S, e: None),
    "etale_idem": takes(f=StarMorphism, e=idempotent("f.target"))(
        lambda f, e: None),
}


def evaluate_clauses(statement_id, instance):
    """The clauses of ``statement_id`` on ``instance`` (X, or the objects of
    its pool entry) in table order, each whose guard holds, over bindings in
    lexicographic order: True when all hold, else ``(clause name, first
    falsifying binding)``.  A run of clauses under one guard reads it once.
    ShapeError unless ``instance`` holds the objects of its statement's pool
    kind."""
    if type(statement_id) is not str or statement_id not in CLAUSES:
        raise oracle.UnknownStatement(statement_id)
    kind = oracle.REGISTRY[statement_id].kind
    check = _INSTANCES[kind]
    objects = (instance if type(instance) is tuple and len(check.kinds) > 1
               else (instance,))
    if len(objects) != len(check.kinds):
        raise ShapeError(f"{kind} instance must be ({', '.join(check.kinds)}), "
                         f"got {instance!r}")
    check(*objects)
    return _evaluate(statement_id, objects)


def _evaluate(statement_id, instance):
    """``evaluate_clauses`` without its checks, for pool entries."""
    objects = instance if type(instance) is tuple else (instance,)
    last, held = object(), False  # no guard yet
    for name, over, guard, hypothesis, conclusion in CLAUSES[statement_id]:
        if guard is not last:
            last, held = guard, guard is None or (
                getattr(classify(objects[0]), guard) if type(guard) is str
                else guard(*objects))
        if not held:
            continue
        for binding in itertools.product(*(_RANGES[v](*objects) for v in over)):
            if ((hypothesis is None or hypothesis(*objects, *binding))
                    and not conclusion(*objects, *binding)):
                return name, binding
    return True


MAIN_CHECKS = {sid: (lambda inst, sid=sid: _evaluate(sid, inst) is True)
               for sid in CLAUSES}


# ---------------------------------------------------------------------------
# instance pools


# pool semigroups with more candidate maps between them than MAP_CAP get
# none; pair_pool keeps the first PAIR_CAP composable pairs
MAP_CAP = 4096
PAIR_CAP = 200


def semigroup_pool(max_order=3, sample4=8):
    """The *-semigroups oracle.enumerate_star_structures validates, one
    isomorphism class after another, labeled deterministically; beyond
    oracle.MAX_ENUM_ORDER the enumeration raises BudgetExceeded.  Order-4
    structures are sampled to keep sweeps fast: ``sample4=k`` keeps classes
    1, k+1, 2k+1, ... (every class when k is 0 or 1)."""
    out = []
    for n in range(1, max_order + 1):
        idx = 0
        for table in oracle.enumerate_semigroups(n, "iso"):
            idx += 1
            if n == 4 and sample4 and (idx - 1) % sample4:
                continue
            for j, X in enumerate(oracle.enumerate_star_structures(table)):
                out.append((f"n{n}#{idx}*{j}", X, (X.mul, X.star)))
    return out


class Catalogue(NamedTuple):
    """One run's structures, each built once, of which every pool is a view:
    ``semigroup_pool(max(max_order, 2), sample4=4)`` and the bases by name."""
    max_order: int
    entries: list
    bases: dict


def catalogue(max_order=3):
    return Catalogue(max_order, semigroup_pool(max(max_order, 2), sample4=4), {
        "SL2": oracle.standard_family("semilattice_chain", 2),
        "SL3": oracle.standard_family("semilattice_chain", 3),
        "I2": oracle.standard_family("symmetric_inverse", 2)})


def _up_to(cat, max_order, sample4=4):
    """The entries of order <= max_order, of order 4 those sample4 keeps."""
    return [(label, X, raw) for label, X, raw in cat.entries
            if X.order <= max_order and (X.order != 4 or (
                int(label[3:].partition("*")[0]) - 1) % sample4 == 0)]


def _star_morphism_maps(X, S):
    if S.order ** X.order > MAP_CAP:
        return
    for f in itertools.product(S.elements, repeat=X.order):
        if all(f[X.star[x]] == S.star[f[x]] for x in X.elements):
            yield f


def morphism_pool(cat):
    """All *-morphisms among the bases and the semigroups of order
    <= min(max_order, 2)."""
    pool = [(label, X) for label, X, _ in _up_to(cat, min(cat.max_order, 2))]
    out = []
    for (la, X), (lb, S) in itertools.product(
            pool + list(cat.bases.items()), repeat=2):
        for f in _star_morphism_maps(X, S):
            out.append((f"{la}->{lb}:{''.join(map(str, f))}",
                        StarMorphism(X, S, f),
                        (X.mul, X.star, S.mul, S.star, f)))
    return out


def _left_homs(X, S, made):
    """The left *-homomorphisms X -> S, listed once per pair in ``made``."""
    key = (id(X), id(S))
    if key not in made:
        made[key] = [StarMorphism(X, S, f) for f in _star_morphism_maps(X, S)
                     if oracle._n_is_left_hom(X.mul, X.star, S.mul, S.star, f)]
    return made[key]


def pair_pool(cat):
    """The first PAIR_CAP composable left *-homomorphism pairs
    (g: X->Y, f: Y->Z) over the semigroups of ``cat`` of order <= 2."""
    pool = _up_to(cat, 2)
    made = {}
    out = []
    for la, X, tx in pool:
        for lb, Y, ty in pool:
            gs = _left_homs(X, Y, made)
            if not gs:
                continue
            for lc, Z, tz in pool:
                for f in _left_homs(Y, Z, made):
                    for g in gs:
                        out.append((f"{la}->{lb}->{lc}:{g.map}/{f.map}",
                                    (g, f), (*tx, *ty, *tz, g.map, f.map)))
                        if len(out) >= PAIR_CAP:
                            return out
    return out


def inverse_pool(cat):
    bases = [(name, X, (X.mul, X.star)) for name, X in cat.bases.items()
             if name != "SL3"]
    return [(label, X, raw) for label, X, raw in _up_to(cat, cat.max_order)
            if oracle._n_inverse(X.mul)] + bases


def etale_idem_pool(cat):
    """Etale *-homomorphisms into inverse bases, one instance per idempotent:
    identity maps plus a lambda object with two-point fibers."""
    maps = [(f"id:{name}", StarMorphism(X, X, tuple(X.elements)))
            for name in ("SL2", "I2") for X in [cat.bases[name]]]
    P = site.validate_presheaf(as_inverse(cat.bases["SL2"]),
                               {1: ("u", "v"), 0: ("w",)},
                               {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)})
    maps.append(("lambda:P21", topos.lam(P).structure_map))
    out = []
    for label, f in maps:
        X, S = f.source, f.target
        raw = (X.mul, X.star, S.mul, S.star, f.map)
        for e in idempotents(S):
            out.append((f"{label}@e{e}", (f, e), (*raw, e)))
    return out


@takes(statement_ids=(list, tuple, None), max_order=POSITIVE)
def build_instances(statement_ids=None, max_order=3):
    """(statement, label, instance, raw) for the requested statements: the
    main check reads the instance, the oracle's naive check the raw tables."""
    ids = statement_ids or sorted(oracle.REGISTRY)
    for sid in ids:
        if type(sid) is not str or sid not in oracle.REGISTRY:
            raise oracle.UnknownStatement(sid)
    kinds = {sid: oracle.REGISTRY[sid].kind for sid in ids}
    wanted = set(kinds.values())
    cat = catalogue(max_order)
    pools = {}
    if wanted & {"semigroup", "inverse"}:
        pools["semigroup"] = pools["inverse"] = _up_to(cat, max_order, 8)
    if "morphism" in wanted:
        pools["morphism"] = morphism_pool(cat)
    if wanted & {"pair", "triangle"}:
        pools["pair"] = pools["triangle"] = pair_pool(cat)
    if "inverse_idem" in wanted:
        # each entry holds its base's wrapper, so the S(e) kept on it are
        # built once per base for the whole run
        pools["inverse_idem"] = [(f"{label}@e{e}", (S, e), (*raw, e))
                                 for label, X, raw in inverse_pool(cat)
                                 for S in [as_inverse(X)]
                                 for e in S.idempotents]
    if "etale_idem" in wanted:
        pools["etale_idem"] = etale_idem_pool(cat)
    return [(sid, label, inst, raw)
            for sid, kind in kinds.items() for label, inst, raw in pools[kind]]


def _run_task(task, facts):
    """One row.  An error inside a check fails its own row, with witness
    ("error", kind, message), instead of ending the sweep, unless EXIT_CODES
    ends the command with it.  ``facts``: the run's naive verdicts.
    The naive verdict is ``oracle.naive_check``'s without its instance
    check (``oracle._evaluate``), the raw tables being validated objects'."""
    sid, label, inst, raw = task
    try:
        main = MAIN_CHECKS[sid](inst)
        naive = oracle._evaluate(sid, raw, facts) is True
    except ROW_ERRORS as exc:
        return error_row(exc, sid, label, "error")
    ok = bool(main) and main == naive
    witness = None if ok else ("main", main, "naive", naive)
    return VerifyRow(sid, label, ok, witness)


def run_statements(statement_ids=None, max_order=3):
    """Evaluate statements over their pools; rows sorted (check, instance).
    The naive verdicts of the run's tables and maps are kept in one dict
    that lives as long as the call."""
    tasks = build_instances(statement_ids, max_order)
    facts = {}
    rows = [_run_task(t, facts) for t in tasks]
    rows.sort(key=lambda r: (r.check, r.instance))
    return rows
