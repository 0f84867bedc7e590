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
"""

from __future__ import annotations

import itertools
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


def _main_reduct(X):
    r = classify(X)
    if r.involutive and not (r.left_involutive and r.right_involutive):
        return False
    if (r.left_involutive or r.right_involutive) and not r.locally_involutive:
        return False
    return True


def _main_birestrictive(X):
    r = classify(X)
    if r.left_involutive and not r.corestrictive:
        return False
    if r.right_involutive and not r.restrictive:
        return False
    if r.involutive and not r.birestrictive:
        return False
    projs = projections(X)
    for p in projs:
        for q in projs:
            pq = X.mul[p][q]
            if not (X.mul[pq][pq] == pq and X.star[pq] == pq):
                continue
            if r.left_involutive and X.mul[pq][p] != pq:
                return False
            if r.right_involutive and X.mul[pq][p] != X.mul[q][p]:
                return False
            if r.involutive and pq != X.mul[q][p]:
                return False
    return True


def _main_leftright(X):
    r, leq = classify(X), idempotent_leq.__wrapped__
    projs = projections(X)
    for y in X.elements:
        cy = X.c(y)
        for p in projs:
            if leq(X, cy, p) != (
                X.mul[p][y] == y and X.mul[X.star[y]][p] == X.star[y]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for q in projs:
            if leq(X, dx, q) != (
                X.mul[x][q] == x and X.mul[q][X.star[x]] == X.star[x]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if leq(X, cy, dx) != (
                X.mul[dx][y] == y and X.mul[X.star[y]][dx] == X.star[y]
            ):
                return False
            if leq(X, dx, cy) != (
                X.mul[x][cy] == x and X.mul[cy][X.star[x]] == X.star[x]
            ):
                return False
    if r.left_involutive:
        for p in projs:
            for y in X.elements:
                if X.mul[p][y] == y and X.mul[X.star[y]][p] != X.star[y]:
                    return False
    if r.right_involutive:
        for q in projs:
            for x in X.elements:
                if X.mul[x][q] == x and X.mul[q][X.star[x]] != X.star[x]:
                    return False
    return True


def _main_3cond(X):
    if not classify(X).left_involutive:
        return True
    leq = idempotent_leq.__wrapped__
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if leq(X, cy, dx) != (X.mul[dx][y] == y):
                return False
            if leq(X, dx, cy) != (
                X.mul[cy][X.star[x]] == X.star[x]
            ):
                return False
    return True


def _main_po(item):
    """The main check of ``lem:po-<item>``.  It compares the orders through
    the bodies of ``core.leq_left``/``leq_right``, their ``__wrapped__``,
    which skip the declared argument check: every element passed comes from
    ``X.elements`` or ``X.star``."""
    left, right = leq_left.__wrapped__, leq_right.__wrapped__

    def fn(X):
        r = classify(X)
        for x in X.elements:
            dx, cx = X.d(x), X.c(x)
            for y in X.elements:
                ll, rr = left(X, x, y), right(X, x, y)
                if item == 1:
                    alt = (X.mul[x][X.d(y)] == x
                           and X.mul[X.star[y]][x] == dx
                           and X.mul[y][X.star[x]] == cx)
                    if ll != alt:
                        return False
                elif item == 2:
                    alt = (X.mul[X.c(y)][x] == x
                           and X.mul[X.star[x]][y] == dx
                           and X.mul[x][X.star[y]] == cx)
                    if rr != alt:
                        return False
                elif item == 3 and r.left_involutive:
                    if ll != (X.mul[X.star[y]][x] == dx
                              and X.mul[y][X.star[x]] == cx):
                        return False
                elif item == 4 and r.right_involutive:
                    if rr != (X.mul[X.star[x]][y] == dx
                              and X.mul[x][X.star[y]] == cx):
                        return False
                elif item == 5:
                    if ll and X.mul[x][X.star[y]] == cx and not rr:
                        return False
                elif item == 6:
                    if rr and X.mul[X.star[y]][x] == dx and not ll:
                        return False
                elif item == 7 and r.locally_involutive:
                    if ll != rr:
                        return False
                elif item == 8 and r.locally_involutive:
                    if ll != right(X, X.star[x], X.star[y]):
                        return False
        return True
    return fn


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


def _main_commproj(X):
    # classify() itself cross-checks the two routes and raises on mismatch
    classify(X)
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
    "lem:reduct": _main_reduct,
    "lem:birestrictive": _main_birestrictive,
    "lem:left/right": _main_leftright,
    "cor:3cond": _main_3cond,
    "lem:fdt": _main_fdt,
    "lem:reflect": _main_reflect,
    "ex:fg": _main_fg,
    "prop:starhomo": _main_starhomo,
    "lem:xfy": _main_xfy,
    "prop:commproj": _main_commproj,
    "lem:rsrs": _main_rsrs,
    "lem:xirho": _main_xirho,
    "prop:sym": _main_sym,
    "rem:Seinv": _main_seinv,
}
for _i in range(1, 9):
    MAIN_CHECKS[f"lem:po-{_i}"] = _main_po(_i)


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
        if sid not in oracle.REGISTRY:
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
            for sid in ids for label, inst, raw in pools[kinds[sid]]]


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
