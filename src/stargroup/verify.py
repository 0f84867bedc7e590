"""Statement verification: every registered statement is evaluated twice,
once through the main modules and once through the oracle's naive
re-derivation, over instance pools generated from the enumeration and the
standard families.  A row passes when both verdicts are True.

Instance pools are generated deterministically and the rows are sorted, so
the report is the same on every run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import oracle, site, topos
from .core import (
    FiniteStarSemigroup,
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
    validate_star_semigroup,
)
from .oracle import BudgetExceeded
from .site import as_inverse, representable_semigroup
from .ssets import canonical_action
from .topos import BudgetInvalid, SearchBudgetExceeded


@dataclass(frozen=True)
class VerifyRow:
    """One report row: {check, instance, pass, witness?}."""

    check: str
    instance: str
    ok: bool
    witness: tuple | list | None = None

    def as_dict(self):
        out = {"check": self.check, "instance": self.instance, "pass": self.ok}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


# validated semigroups by (mul, star) while run_statements runs, so each
# distinct table pair is validated once per run; None outside a run
_interned = None


def _sg(tables) -> FiniteStarSemigroup:
    mul, star = tables
    if _interned is None:
        return validate_star_semigroup(len(mul), mul, star)
    key = (mul, star)
    X = _interned.get(key)
    if X is None:
        X = _interned[key] = validate_star_semigroup(len(mul), mul, star)
    return X


def _morph(inst) -> StarMorphism:
    mx, sx, ms, ss, f = inst
    return StarMorphism(_sg((mx, sx)), _sg((ms, ss)), f)


# ---------------------------------------------------------------------------
# main verdicts, one per registered statement


def _main_reduct(inst):
    r = classify(_sg(inst))
    if r.involutive and not (r.left_involutive and r.right_involutive):
        return False
    if (r.left_involutive or r.right_involutive) and not r.locally_involutive:
        return False
    return True


def _main_birestrictive(inst):
    X = _sg(inst)
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


def _main_leftright(inst):
    X = _sg(inst)
    r = classify(X)
    projs = projections(X)
    for y in X.elements:
        cy = X.c(y)
        for p in projs:
            if idempotent_leq(X, cy, p) != (
                X.mul[p][y] == y and X.mul[X.star[y]][p] == X.star[y]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for q in projs:
            if idempotent_leq(X, dx, q) != (
                X.mul[x][q] == x and X.mul[q][X.star[x]] == X.star[x]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if idempotent_leq(X, cy, dx) != (
                X.mul[dx][y] == y and X.mul[X.star[y]][dx] == X.star[y]
            ):
                return False
            if idempotent_leq(X, dx, cy) != (
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


def _main_3cond(inst):
    X = _sg(inst)
    if not classify(X).left_involutive:
        return True
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if idempotent_leq(X, cy, dx) != (X.mul[dx][y] == y):
                return False
            if idempotent_leq(X, dx, cy) != (
                X.mul[cy][X.star[x]] == X.star[x]
            ):
                return False
    return True


def _main_po(item):
    def fn(inst):
        X = _sg(inst)
        r = classify(X)
        for x in X.elements:
            dx, cx = X.d(x), X.c(x)
            for y in X.elements:
                ll, rr = leq_left(X, x, y), leq_right(X, x, y)
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
                    if ll != leq_right(X, X.star[x], X.star[y]):
                        return False
        return True
    return fn


def _main_fdt(inst):
    f = _morph(inst)
    X, S = f.source, f.target
    if not (classify(X).left_involutive and classify(S).left_involutive
            and f.is_left_star_hom):
        return True
    proj_mult = all(
        f.map[X.mul[p][x]] == S.mul[f.map[p]][f.map[x]]
        for p in projections(X) for x in X.elements
    )
    return f.is_multiplicative == proj_mult


def _main_reflect(inst):
    f = _morph(inst)
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    return all(
        x == X.c(x)
        for x in X.elements
        if f.map[x] == S.c(f.map[x])
    )


def _main_fg(inst):
    mx, sx, my, sy, mz, sz, g, f = inst
    X, Y, Z = _sg((mx, sx)), _sg((my, sy)), _sg((mz, sz))
    gm = StarMorphism(X, Y, g)
    fm = StarMorphism(Y, Z, f)
    fg = compose_morphisms(fm, gm)
    if not (gm.is_left_star_hom and fm.is_left_star_hom):
        return True
    if not (is_etale(fm) and is_etale(fg)):
        return True
    return is_etale(gm)


def _main_starhomo(inst):
    mx, sx, my, sy, ms, ss, psi, h = inst
    X, Y, S = _sg((mx, sx)), _sg((my, sy)), _sg((ms, ss))
    pm = StarMorphism(X, Y, psi)
    hm = StarMorphism(Y, S, h)
    fm = compose_morphisms(hm, pm)
    if not (hm.is_star_hom and is_etale(hm) and fm.is_star_hom
            and pm.is_left_star_hom):
        return True
    if not pm.is_multiplicative:
        return False
    if is_etale(fm) and not is_etale(pm):
        return False
    return True


def _main_xfy(inst):
    f = _morph(inst)
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    A = canonical_action(f)
    for x in X.elements:
        dx = X.d(x)
        if A.act(x, f.map[dx]) != x:
            return False
        for y in X.elements:
            if A.act(x, f.map[X.mul[dx][y]]) != X.mul[x][y]:
                return False
    mult = f.is_multiplicative
    via = all(A.act(x, f.map[y]) == X.mul[x][y]
              for x in X.elements for y in X.elements)
    if mult != via:
        return False
    if mult:
        for x in X.elements:
            for y in X.elements:
                xy = X.mul[x][y]
                for s in S.elements:
                    if A.act(xy, s) != X.mul[x][A.act(y, s)]:
                        return False
    return True


def _main_commproj(inst):
    # classify() itself cross-checks the two routes and raises on mismatch
    classify(_sg(inst))
    return True


def _main_rsrs(inst):
    X = _sg(inst)
    if not classify(X).inverse:
        return True
    S = as_inverse(X)
    for r in X.elements:
        e = X.c(r)
        R = representable_semigroup(S, e)
        pos = {pair: i for i, pair in enumerate(R.carrier)}
        a = (r, e)
        for s in X.elements:
            rs = X.mul[r][s]
            b = (rs, X.c(rs))
            c = (X.mul[X.d(r)][s], X.mul[r][X.mul[s][X.star[s]]])
            if a not in pos or b not in pos or c not in pos:
                return False
            se = R.semigroup
            if se.mul[pos[a]][pos[c]] != pos[b]:
                return False
            da = se.mul[se.star[pos[a]]][pos[a]]
            if se.mul[da][pos[c]] != pos[c]:
                return False
    return True


def _main_xirho(inst):
    mx, sx, ms, ss, f, e = inst
    fm = _morph((mx, sx, ms, ss, f))
    X, S0 = fm.source, fm.target
    if not (classify(S0).inverse and fm.is_star_hom and is_etale(fm)):
        return True
    G = topos.gamma(fm)
    carrier = G.carriers[e]
    ee = carrier.index((e, e))
    values = [table[ee] for table in G.alphas[e]]
    return len(set(values)) == len(values)


def _main_sym(inst):
    mul, star, e = inst
    X = _sg((mul, star))
    if not classify(X).inverse:
        return True
    return topos.prop_sym_check(as_inverse(X), e).ok


def _main_seinv(inst):
    mul, star, e = inst
    X = _sg((mul, star))
    if not classify(X).inverse:
        return True
    return topos.prop_sym_check(as_inverse(X), e).seinv_agrees


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
    """Validated *-semigroups over the enumeration, one isomorphism class
    after another, labeled deterministically; beyond oracle.MAX_ENUM_ORDER
    the enumeration raises BudgetExceeded.  Order-4 structures are sampled
    to keep sweeps fast: ``sample4=k`` keeps classes 1, k+1, 2k+1, ...
    (every class when k is 0 or 1)."""
    out = []
    for n in range(1, max_order + 1):
        idx = 0
        for table in oracle.enumerate_semigroups(n, "iso"):
            idx += 1
            if n == 4 and sample4 and (idx - 1) % sample4:
                continue
            for j, X in enumerate(oracle.enumerate_star_structures(table)):
                out.append((f"n{n}#{idx}*{j}", (X.mul, X.star)))
    return out


def _star_morphism_maps(src, tgt):
    mx, sx = src
    ms, ss = tgt
    n, m = len(mx), len(ms)
    if m ** n > MAP_CAP:
        return
    for f in itertools.product(range(m), repeat=n):
        if all(f[sx[x]] == ss[f[x]] for x in range(n)):
            yield f


def morphism_pool(max_order=3):
    """All *-morphisms between pool semigroups plus the standard fixtures."""
    base = semigroup_pool(min(max_order, 2), sample4=0)
    extras = [
        ("SL2", oracle.standard_family("semilattice_chain", 2)),
        ("SL3", oracle.standard_family("semilattice_chain", 3)),
        ("I2", oracle.standard_family("symmetric_inverse", 2)),
    ]
    pool = base + [(name, (X.mul, X.star)) for name, X in extras]
    out = []
    for (la, ta), (lb, tb) in itertools.product(pool, repeat=2):
        for f in _star_morphism_maps(ta, tb):
            out.append((f"{la}->{lb}:{''.join(map(str, f))}",
                        (*ta, *tb, f)))
    return out


def _left_homs(tables_a, tables_b):
    mx, sx = tables_a
    ms, ss = tables_b
    for f in _star_morphism_maps(tables_a, tables_b):
        if oracle._n_is_left_hom(mx, sx, ms, ss, f):
            yield f


def pair_pool():
    """The first PAIR_CAP composable left *-homomorphism pairs
    (g: X->Y, f: Y->Z) over the semigroups of order <= 2."""
    pool = semigroup_pool(2, sample4=0)
    out = []
    for la, ta in pool:
        for lb, tb in pool:
            gs = list(_left_homs(ta, tb))
            if not gs:
                continue
            for lc, tc in pool:
                for f in _left_homs(tb, tc):
                    for g in gs:
                        out.append((f"{la}->{lb}->{lc}:{g}/{f}",
                                    (*ta, *tb, *tc, g, f)))
                        if len(out) >= PAIR_CAP:
                            return out
    return out


def inverse_pool(max_order=3):
    out = []
    for label, tables in semigroup_pool(max_order, sample4=4):
        if oracle._n_inverse(tables[0]):
            out.append((label, tables))
    for name, X in [("SL2", oracle.standard_family("semilattice_chain", 2)),
                    ("I2", oracle.standard_family("symmetric_inverse", 2))]:
        out.append((name, (X.mul, X.star)))
    return out


def etale_idem_pool():
    """Etale *-homomorphisms into inverse bases, one instance per idempotent:
    identity maps plus a lambda object with two-point fibers."""
    out = []
    bases = [("SL2", oracle.standard_family("semilattice_chain", 2)),
             ("I2", oracle.standard_family("symmetric_inverse", 2))]
    for name, X in bases:
        idm = [e for e in X.elements if X.mul[e][e] == e]
        ident = tuple(X.elements)
        for e in idm:
            out.append((f"id:{name}@e{e}", (X.mul, X.star, X.mul, X.star, ident, e)))
    sl2 = as_inverse(oracle.standard_family("semilattice_chain", 2))
    P = site.validate_presheaf(sl2, {1: ("u", "v"), 0: ("w",)},
                               {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)})
    LP = topos.lam(P)
    lsg, f = LP.semigroup, LP.structure_map
    for e in sl2.idempotents:
        out.append((f"lambda:P21@e{e}",
                    (lsg.mul, lsg.star, sl2.semigroup.mul, sl2.semigroup.star,
                     f.map, e)))
    return out


def build_instances(statement_ids=None, max_order=3, sample4=8):
    """(statement, label, instance) triples for the requested statements."""
    ids = statement_ids or sorted(oracle.REGISTRY)
    kinds = {sid: oracle.REGISTRY[sid].kind for sid in ids}
    pools = {}
    if any(k in ("semigroup", "inverse") for k in kinds.values()):
        pools["semigroup"] = semigroup_pool(max_order, sample4=sample4)
    if "morphism" in kinds.values():
        pools["morphism"] = morphism_pool(max_order)
    if "pair" in kinds.values() or "triangle" in kinds.values():
        pools["pair"] = pair_pool()
    if "inverse_idem" in kinds.values():
        pools["inverse_idem"] = [
            (f"{label}@e{e}", (*tables, e))
            for label, tables in inverse_pool(max_order)
            for e in range(len(tables[0]))
            if tables[0][e][e] == e
        ]
    if "etale_idem" in kinds.values():
        pools["etale_idem"] = etale_idem_pool()

    tasks = []
    for sid in ids:
        kind = kinds[sid]
        pool_key = {"semigroup": "semigroup", "inverse": "semigroup",
                    "morphism": "morphism", "pair": "pair",
                    "triangle": "pair", "inverse_idem": "inverse_idem",
                    "etale_idem": "etale_idem"}[kind]
        for label, inst in pools[pool_key]:
            tasks.append((sid, label, inst))
    return tasks


def _run_task(task):
    """One row.  An error inside a check fails its own row, with witness
    ("error", type, message), instead of ending the sweep; an exceeded or
    invalid budget still ends it."""
    sid, label, inst = task
    try:
        main = MAIN_CHECKS[sid](inst)
        naive = oracle.naive_check(sid, inst)
    except (BudgetExceeded, SearchBudgetExceeded, BudgetInvalid):
        raise
    except (StarError, oracle.OracleError) as exc:
        return (sid, label, False, ("error", type(exc).__name__, str(exc)))
    ok = bool(main) and main == naive
    witness = None if ok else ("main", main, "naive", naive)
    return (sid, label, ok, witness)


def run_statements(statement_ids=None, max_order=3, sample4=8):
    """Evaluate statements over their pools; rows sorted (check, instance)."""
    global _interned
    tasks = build_instances(statement_ids, max_order, sample4)
    _interned = {}
    try:
        raw = [_run_task(t) for t in tasks]
    finally:
        _interned = None
    rows = [VerifyRow(sid, label, ok, wit) for sid, label, ok, wit in raw]
    rows.sort(key=lambda r: (r.check, r.instance))
    return rows
