"""Statement verification: every registered statement is evaluated twice,
once through the main modules and once through the oracle's naive
re-derivation, over instance pools generated from the enumeration and the
standard families.  A row passes when both verdicts are True.

Instance pools are generated deterministically and the rows are sorted, so
the report is the same on every run.  A pool entry carries its validated
semigroups and morphisms, or the ``InverseSemigroup`` of its base, so every
statement over it reads the verdicts kept on those objects, and equal
tables validated elsewhere while held give the same object
(``core.validate_star_semigroup``).  The oracle receives each entry's raw
tables, and one run hands all its naive checks one dict of verdicts, so each
naive predicate is computed once per table or map per run.

On the main side the 13 statements over one table are the clause table
``CLAUSES``, over ``classify``'s flags and X's tables, written apart from
``oracle.CLAUSES``: ``evaluate_clauses`` returns True or, as the oracle's
does, the first clause that fails and its first falsifying binding.  The 9
statements over morphisms, pairs and ``S(e)`` are checked by hand.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import NamedTuple

from . import oracle, site, topos
from .core import (
    POSITIVE,
    StarError,
    StarMorphism,
    classify,
    compose_morphisms,
    idempotent_leq,
    idempotents,
    is_etale,
    leq_left,
    leq_right,
    projections,
    takes,
)
from .oracle import BudgetExceeded
from .site import as_inverse, representable_semigroup
from .ssets import canonical_action
from .topos import BudgetInvalid, SearchBudgetExceeded


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


# ---------------------------------------------------------------------------
# main verdicts, one per registered statement

# The clause table (module docstring), one clause per line of the paper,
# named as the oracle names a line both encode.  Each letter of ``over`` binds
# one variable, in the order of the lambda's parameters after X: E an element,
# P a projection; x <=l y and x <=r y are the left and right orders.


class Clause(NamedTuple):
    name: str
    over: str
    guard: str | None  # a classify flag
    hypothesis: Callable | None  # of (X, *binding); None holds
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


def evaluate_clauses(statement_id, X):
    """The clauses of ``statement_id`` on the *-semigroup X, in table order,
    each whose guard flag holds over its bindings in lexicographic order:
    True when all hold, else ``(clause name, first falsifying binding)``."""
    clauses = CLAUSES.get(statement_id) if type(statement_id) is str else None
    if clauses is None:
        raise oracle.UnknownStatement(statement_id)
    flags, ranges = classify(X), {"E": X.elements, "P": projections(X)}
    for name, over, guard, hypothesis, conclusion in clauses:
        if guard is not None and not getattr(flags, guard):
            continue
        for binding in itertools.product(*map(ranges.get, over)):
            if ((hypothesis is None or hypothesis(X, *binding))
                    and not conclusion(X, *binding)):
                return name, binding
    return True


def _main_fdt(f):
    X, S = f.source, f.target
    if not (classify(X).left_involutive and classify(S).left_involutive
            and f.is_left_star_hom):
        return True
    proj_mult = all(
        f.map[X.mul[p][x]] == S.mul[f.map[p]][f.map[x]]
        for p in projections(X) for x in X.elements
    )
    return f.is_multiplicative == proj_mult


def _main_reflect(f):
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    return all(
        x == X.c(x)
        for x in X.elements
        if f.map[x] == S.c(f.map[x])
    )


def _main_fg(inst):
    gm, fm = inst
    fg = compose_morphisms(fm, gm)
    if not (gm.is_left_star_hom and fm.is_left_star_hom):
        return True
    if not (is_etale(fm) and is_etale(fg)):
        return True
    return is_etale(gm)


def _main_starhomo(inst):
    pm, hm = inst
    fm = compose_morphisms(hm, pm)
    if not (hm.is_star_hom and is_etale(hm) and fm.is_star_hom
            and pm.is_left_star_hom):
        return True
    if not pm.is_multiplicative:
        return False
    if is_etale(fm) and not is_etale(pm):
        return False
    return True


def _main_xfy(f):
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    act = canonical_action(f).action
    for x in X.elements:
        dx = X.d(x)
        if act[x][f.map[dx]] != x:
            return False
        for y in X.elements:
            if act[x][f.map[X.mul[dx][y]]] != X.mul[x][y]:
                return False
    mult = f.is_multiplicative
    via = all(act[x][f.map[y]] == X.mul[x][y]
              for x in X.elements for y in X.elements)
    if mult != via:
        return False
    if mult:
        for x in X.elements:
            for y in X.elements:
                xy = X.mul[x][y]
                for s in S.elements:
                    if act[xy][s] != X.mul[x][act[y][s]]:
                        return False
    return True


def _main_rsrs(X):
    if not classify(X).inverse:
        return True
    S = as_inverse(X)
    for r in X.elements:
        e = X.c(r)
        se = representable_semigroup(S, e).semigroup
        pos = site.representable_tables(S, e).index
        a = (r, e)
        for s in X.elements:
            rs = X.mul[r][s]
            b = (rs, X.c(rs))
            c = (X.mul[X.d(r)][s], X.mul[r][X.mul[s][X.star[s]]])
            if a not in pos or b not in pos or c not in pos:
                return False
            if se.mul[pos[a]][pos[c]] != pos[b]:
                return False
            da = se.mul[se.star[pos[a]]][pos[a]]
            if se.mul[da][pos[c]] != pos[c]:
                return False
    return True


def _main_xirho(inst):
    fm, e = inst
    S0 = fm.target
    if not (classify(S0).inverse and fm.is_star_hom and is_etale(fm)):
        return True
    G = topos.gamma(fm)
    ee = site.representable_tables(G.base, e).index[(e, e)]
    values = [table[ee] for table in G.alphas[e]]
    return len(set(values)) == len(values)


def _main_sym(inst):
    S, e = inst
    return topos.prop_sym_check(S, e).ok


def _main_seinv(inst):
    S, e = inst
    return topos.prop_sym_check(S, e).seinv_agrees


MAIN_CHECKS = {
    **{sid: (lambda X, sid=sid: evaluate_clauses(sid, X) is True)
       for sid in CLAUSES},
    "lem:fdt": _main_fdt,
    "lem:reflect": _main_reflect,
    "ex:fg": _main_fg,
    "prop:starhomo": _main_starhomo,
    "lem:xfy": _main_xfy,
    "lem:rsrs": _main_rsrs,
    "lem:xirho": _main_xirho,
    "prop:sym": _main_sym,
    "rem:Seinv": _main_seinv,
}


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


def _star_morphism_maps(X, S):
    if S.order ** X.order > MAP_CAP:
        return
    for f in itertools.product(S.elements, repeat=X.order):
        if all(f[X.star[x]] == S.star[f[x]] for x in X.elements):
            yield f


def morphism_pool(max_order=3):
    """All *-morphisms between pool semigroups plus the standard fixtures."""
    base = semigroup_pool(min(max_order, 2))
    extras = [
        ("SL2", oracle.standard_family("semilattice_chain", 2)),
        ("SL3", oracle.standard_family("semilattice_chain", 3)),
        ("I2", oracle.standard_family("symmetric_inverse", 2)),
    ]
    pool = [(label, X) for label, X, _ in base] + extras
    out = []
    for (la, X), (lb, S) in itertools.product(pool, repeat=2):
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


def pair_pool():
    """The first PAIR_CAP composable left *-homomorphism pairs
    (g: X->Y, f: Y->Z) over the semigroups of order <= 2."""
    pool = semigroup_pool(2)
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


def inverse_pool(max_order=3):
    out = [(label, X, raw)
           for label, X, raw in semigroup_pool(max_order, sample4=4)
           if oracle._n_inverse(X.mul)]
    for name, X in [("SL2", oracle.standard_family("semilattice_chain", 2)),
                    ("I2", oracle.standard_family("symmetric_inverse", 2))]:
        out.append((name, X, (X.mul, X.star)))
    return out


def etale_idem_pool():
    """Etale *-homomorphisms into inverse bases, one instance per idempotent:
    identity maps plus a lambda object with two-point fibers."""
    bases = [("SL2", oracle.standard_family("semilattice_chain", 2)),
             ("I2", oracle.standard_family("symmetric_inverse", 2))]
    maps = [(f"id:{name}", StarMorphism(X, X, tuple(X.elements)))
            for name, X in bases]
    sl2 = as_inverse(oracle.standard_family("semilattice_chain", 2))
    P = site.validate_presheaf(sl2, {1: ("u", "v"), 0: ("w",)},
                               {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)})
    maps.append(("lambda:P21", topos.lam(P).structure_map))
    out = []
    for label, f in maps:
        X, S = f.source, f.target
        raw = (X.mul, X.star, S.mul, S.star, f.map)
        for e in idempotents(S):
            out.append((f"{label}@e{e}", (f, e), (*raw, e)))
    return out


@takes(max_order=POSITIVE)
def build_instances(statement_ids=None, max_order=3):
    """(statement, label, instance, raw) for the requested statements: the
    main check reads the instance, the oracle's naive check the raw tables."""
    ids = statement_ids or sorted(oracle.REGISTRY)
    for sid in ids:
        if type(sid) is not str or sid not in oracle.REGISTRY:
            raise oracle.UnknownStatement(sid)
    kinds = {sid: oracle.REGISTRY[sid].kind for sid in ids}
    wanted = set(kinds.values())
    pools = {}
    if wanted & {"semigroup", "inverse"}:
        pools["semigroup"] = pools["inverse"] = semigroup_pool(max_order)
    if "morphism" in wanted:
        pools["morphism"] = morphism_pool(max_order)
    if wanted & {"pair", "triangle"}:
        pools["pair"] = pools["triangle"] = pair_pool()
    if "inverse_idem" in wanted:
        # each entry holds its base's wrapper, so the S(e) kept on it are
        # built once per base for the whole run
        pools["inverse_idem"] = [
            (f"{label}@e{e}", (S, e), (*raw, e))
            for label, X, raw in inverse_pool(max_order)
            for S in [as_inverse(X)]
            for e in S.idempotents
        ]
    if "etale_idem" in wanted:
        pools["etale_idem"] = etale_idem_pool()
    return [(sid, label, inst, raw)
            for sid, kind in kinds.items() for label, inst, raw in pools[kind]]


def _run_task(task, facts):
    """One row.  An error inside a check fails its own row, with witness
    ("error", type, message), instead of ending the sweep; an exceeded or
    invalid budget still ends it.  ``facts``: the run's naive verdicts.
    The naive verdict is the registered check's, ``oracle.naive_check``
    without its instance check, as the raw tables are those of validated
    objects."""
    sid, label, inst, raw = task
    try:
        main = MAIN_CHECKS[sid](inst)
        naive = oracle.REGISTRY[sid].check(raw, facts) is True
    except (BudgetExceeded, SearchBudgetExceeded, BudgetInvalid):
        raise
    except (StarError, oracle.OracleError) as exc:
        return VerifyRow(sid, label, False,
                         ("error", type(exc).__name__, str(exc)))
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
