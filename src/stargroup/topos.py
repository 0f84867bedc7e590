"""The adjunction between presheaves on L(S) and *-semigroups over S.

Lambda sends a presheaf P to the left involutive semigroup of pairs (r, x)
with x in P(c(r)); Gamma probes a *-homomorphism f: X -> S with left
*-homomorphisms S(e) -> X over S.  Gamma has two strategies: a generic
backtracking enumeration driven by the left *-homomorphism constraints, and
a fast path through the fiber presheaf available when f is etale with left
involutive source; when both apply their results are compared.

``lam(P)`` and ``gamma(f, budget, strategy)`` share what they build: a call
returns the object already built for the same ``P`` (or the same ``f``,
strategy and budget) while some caller still holds it, and builds afresh
once every holder has dropped it.  Every check runs once per object built,
and a call that raises leaves nothing behind.  Sharing is by identity, so a
``Presheaf`` or ``StarMorphism`` must not be mutated after construction, nor
a ``LambdaObject`` or ``GammaPresheaf`` at all.

Derived objects are built once each, by the module that owns them: the S(e)
tables per base and idempotent (``site.representable_tables``; Gamma reads
them unvalidated), the canonical action per morphism, the S-set axiom sweep
per S-set and the verdict per algebra (``ssets.canonical_action``,
``ssets.check_sset``, ``modalg.validate_algebra``).  The last three are kept
on their object, so an ``SSetStructure``, ``SModule`` or ``SAlgebra`` must
not be mutated after construction either.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

from . import ssets
from .core import (
    ConsistencyError,
    EquivalenceBroken,
    FiniteStarSemigroup,
    NotEtale,
    ShapeError,
    StarError,
    StarMorphism,
    Verdict,
    Violation,
    classify,
    etale_lift,
    idempotents,
    is_etale,
    projections,
    validate_star_semigroup,
)
from .site import (
    InverseSemigroup,
    Presheaf,
    PresheafMap,
    all_ls_morphisms,
    as_inverse,
    ls_dom,
    representable_tables,
    validate_presheaf,
)


class SearchBudgetExceeded(StarError):
    pass


class UnitNotIso(StarError):
    pass


class NotLeftInvolutive(StarError):
    pass


class BudgetInvalid(StarError):
    pass


DEFAULT_BUDGET = 10 ** 6


def resolve_budget(value=None, default=DEFAULT_BUDGET):
    """A search budget: ``value``, else the STARGROUP_BUDGET environment
    variable, else ``default``.  Text is read as a decimal integer; anything
    but a non-negative integer raises BudgetInvalid."""
    if value is None:
        value = os.environ.get("STARGROUP_BUDGET") or default
    if value is None or (type(value) is int and value >= 0):
        return value
    try:
        budget = int(value, 10)
    except (TypeError, ValueError):
        budget = -1
    if budget < 0:
        raise BudgetInvalid(
            f"budget must be a non-negative integer, got {value!r}")
    return budget


# What lam and gamma built, keyed by the id of the presheaf or morphism they
# were built from.  Values are held weakly, so an entry lasts only while some
# caller holds the result; the result refers to its presheaf or morphism,
# which therefore stays alive and keeps its id while the entry exists.
_BUILT = weakref.WeakValueDictionary()


def _shared(key, build, *args):
    obj = _BUILT.get(key)
    if obj is None:
        obj = build(*args)
        _BUILT[key] = obj
    return obj


# ---------------------------------------------------------------------------
# Lambda


@dataclass(eq=False)
class LambdaObject:
    """Lambda(P): pairs (r, x) with the structure map (r, x) |-> r.

    For the empty presheaf the carrier is empty and both ``semigroup`` and
    ``structure_map`` are None; the element list is still usable.
    """

    presheaf: Presheaf
    base: InverseSemigroup
    pairs: tuple[tuple[int, int], ...]
    index: dict
    semigroup: FiniteStarSemigroup | None
    structure_map: StarMorphism | None

    def is_empty(self) -> bool:
        return not self.pairs

    def __repr__(self):
        return f"LambdaObject({len(self.pairs)} elements over {self.base!r})"


def lam(P: Presheaf) -> LambdaObject:
    """Lambda(P), verified left involutive with etale structure map, with
    projections exactly the idempotent-tagged pairs and the canonical action
    matching the transition formula.  Shared while held (module docstring)."""
    return _shared(("lam", id(P)), _lam, P)


def _lam(P: Presheaf) -> LambdaObject:
    S = P.base
    sg = S.semigroup
    pairs = tuple(
        (r, x) for r in sg.elements for x in range(len(P.fiber(sg.c(r))))
    )
    index = {pair: i for i, pair in enumerate(pairs)}
    if not pairs:
        return LambdaObject(P, S, pairs, index, None, None)

    def star_of(pair):
        r, x = pair
        return (sg.star[r], P.transition(r, sg.c(r))[x])

    def mul_of(a, b):
        p, y = a
        r, _ = b
        pr = sg.mul[p][r]
        return (pr, P.transition(sg.c(pr), sg.c(p))[y])

    n = len(pairs)
    mul = [[index[mul_of(pairs[i], pairs[j])] for j in range(n)]
           for i in range(n)]
    star = [index[star_of(pairs[i])] for i in range(n)]
    lsg = validate_star_semigroup(n, mul, star, name="Lambda")
    f = StarMorphism(lsg, sg, tuple(r for r, _ in pairs), name="lambda-map")
    if not classify(lsg).left_involutive:
        raise ConsistencyError("Lambda(P) is not left involutive")
    if not f.is_star_hom or not is_etale(f):
        raise ConsistencyError("Lambda(P) structure map is not an etale *-homomorphism")
    idems = set(idempotents(sg))
    expected = {i for i, (r, _) in enumerate(pairs) if r in idems}
    if set(projections(lsg)) != expected:
        raise ConsistencyError("projections of Lambda(P) are not the idempotent pairs")
    A = ssets.canonical_action(f)
    for i, (r, x) in enumerate(pairs):
        for s in sg.elements:
            rs = sg.mul[r][s]
            formula = index[(rs, P.transition(sg.c(rs), sg.c(r))[x])]
            if A.act(i, s) != formula:
                raise ConsistencyError("canonical action differs from the "
                                       "transition formula on Lambda(P)")
    return LambdaObject(P, S, pairs, index, lsg, f)


def lambda_morphism(gamma_map: PresheafMap,
                    LP: LambdaObject | None = None,
                    LQ: LambdaObject | None = None) -> StarMorphism:
    """Lambda(gamma)(r, x) = (r, gamma_{c(r)}(x)); a *-homomorphism over S."""
    LP = LP if LP is not None else lam(gamma_map.source)
    LQ = LQ if LQ is not None else lam(gamma_map.target)
    sg = LP.base.semigroup
    mapping = tuple(
        LQ.index[(r, gamma_map.components[sg.c(r)][x])] for (r, x) in LP.pairs
    )
    out = StarMorphism(LP.semigroup, LQ.semigroup, mapping, name="Lambda(gamma)")
    if not out.is_star_hom:
        raise ConsistencyError("Lambda of a natural map is not a *-homomorphism")
    if any(LQ.pairs[mapping[i]][0] != LP.pairs[i][0] for i in range(len(mapping))):
        raise ConsistencyError("Lambda(gamma) is not over S")
    return out


# ---------------------------------------------------------------------------
# Gamma


@dataclass(eq=False)
class GammaPresheaf:
    """Gamma(f): per idempotent the left *-homomorphisms S(e) -> X over S,
    stored as value tables keyed by the S(e) carrier order."""

    base: InverseSemigroup
    source: StarMorphism
    carriers: dict[int, tuple[tuple[int, int], ...]]
    alphas: dict[int, tuple[tuple[int, ...], ...]]
    presheaf: Presheaf

    def fiber_size(self, e):
        return len(self.alphas[e])


def _generic_alphas(f: StarMorphism, S: InverseSemigroup, e: int, budget):
    """Backtracking enumeration of left *-homomorphisms S(e) -> X over S.

    Constraint propagation follows the forced skeleton: the projection
    (e, e) is assigned first, then the remaining projections, then the rest;
    each assignment is checked against the star pairing and every product
    constraint whose participants are already assigned.
    """
    X = f.source
    carrier, mul_idx, star_idx = representable_tables(S, e)
    k = len(carrier)
    dom_idx = tuple(mul_idx[star_idx[i]][i] for i in range(k))
    fibers = [
        tuple(x for x in X.elements if f.map[x] == r) for (r, _) in carrier
    ]
    if any(not fib for fib in fibers):
        return ()

    ee = carrier.index((e, e))
    projs = [i for i in range(k)
             if star_idx[i] == i and mul_idx[i][i] == i and i != ee]
    order = [ee] + projs + [i for i in range(k) if i != ee and i not in projs]
    rank = {u: t for t, u in enumerate(order)}

    # product constraints (u, v, uv, d(u)v) grouped by the latest-assigned slot
    constraints_at = [[] for _ in range(k)]
    for u in range(k):
        for v in range(k):
            w = mul_idx[u][v]
            z = mul_idx[dom_idx[u]][v]
            last = max((u, v, w, z), key=lambda i: rank[i])
            constraints_at[rank[last]].append((u, v, w, z))
    star_at = [[] for _ in range(k)]
    for u in range(k):
        v = star_idx[u]
        last = max((u, v), key=lambda i: rank[i])
        star_at[rank[last]].append((u, v))

    values = [-1] * k
    found = []
    steps = 0
    xmul = X.mul
    xstar = X.star

    def fill(t):
        nonlocal steps
        if t == k:
            found.append(tuple(values))
            return
        slot = order[t]
        for cand in fibers[slot]:
            steps += 1
            if steps > budget:
                raise SearchBudgetExceeded(
                    f"Gamma enumeration exceeded budget {budget}")
            values[slot] = cand
            ok = all(values[xu] == xstar[values[u]] for u, xu in star_at[t])
            if ok:
                for (u, v, w, z) in constraints_at[t]:
                    if values[w] != xmul[values[u]][values[z]]:
                        ok = False
                        break
            if ok:
                fill(t + 1)
        values[slot] = -1

    fill(0)
    return tuple(sorted(found))


def _fast_alphas(f: StarMorphism, S: InverseSemigroup, e: int):
    """Fiber-presheaf path: alphas correspond to f^-1(e) via evaluation at
    (e, e); each table is built by unique lifting."""
    X = f.source
    sg = S.semigroup
    carrier = representable_tables(S, e).carrier
    out = []
    for u in sorted(x for x in X.elements if f.map[x] == e):
        table = []
        for (r, s) in carrier:
            us = etale_lift(f, u, s)          # lift of s at u
            w = X.d(us)                       # transition u . s
            table.append(etale_lift(f, w, r))  # lift of r at u . s
        out.append(tuple(table))
    return tuple(sorted(out))


def gamma(f: StarMorphism, budget=None, strategy="auto") -> GammaPresheaf:
    """Gamma(f) for a *-homomorphism f into an inverse semigroup.

    strategy: 'generic', 'fast', or 'auto' (both when the fast path applies,
    with the two results asserted equal).  budget: see resolve_budget.
    Shared while held (module docstring).
    """
    if strategy not in ("generic", "fast", "auto"):
        raise ValueError(f"unknown Gamma strategy {strategy!r}")
    budget = resolve_budget(budget)
    return _shared(("gamma", id(f), strategy, budget), _gamma, f, budget,
                   strategy)


def _gamma(f: StarMorphism, budget: int, strategy: str) -> GammaPresheaf:
    if not f.is_star_hom:
        raise ShapeError("Gamma needs a *-homomorphism as input")
    S = as_inverse(f.target)
    fast_ok = is_etale(f) and classify(f.source).left_involutive
    if strategy == "fast" and not fast_ok:
        raise NotEtale("fast Gamma path needs an etale map with left "
                       "involutive source")

    carriers = {}
    alphas = {}
    for e in S.idempotents:
        carriers[e] = representable_tables(S, e).carrier
        if strategy == "fast":
            alphas[e] = _fast_alphas(f, S, e)
        elif strategy == "generic" or not fast_ok:
            alphas[e] = _generic_alphas(f, S, e, budget)
        else:
            generic = _generic_alphas(f, S, e, budget)
            fast = _fast_alphas(f, S, e)
            if generic != fast:
                raise ConsistencyError(
                    f"Gamma strategies disagree at idempotent {e}")
            alphas[e] = generic

    sg = S.semigroup
    fibers = {e: tuple(str(i) for i in range(len(alphas[e])))
              for e in S.idempotents}
    transitions = {}
    for m in all_ls_morphisms(S):
        d = ls_dom(S, m)
        pos_e = {u: i for i, u in enumerate(carriers[m.e])}
        lookup = {table: i for i, table in enumerate(alphas[d])}
        tr = []
        for table in alphas[m.e]:
            moved = tuple(
                table[pos_e[(p, sg.mul[m.s][q])]] for (p, q) in carriers[d]
            )
            if moved not in lookup:
                raise ConsistencyError(
                    f"Gamma transition along {m} leaves the fiber")
            tr.append(lookup[moved])
        transitions[(m.s, m.e)] = tuple(tr)
    presheaf = validate_presheaf(S, fibers, transitions)
    return GammaPresheaf(S, f, carriers, alphas, presheaf)


def _empty_gamma(S: InverseSemigroup) -> GammaPresheaf:
    from .site import empty_presheaf
    carriers = {e: representable_tables(S, e).carrier for e in S.idempotents}
    return GammaPresheaf(S, None, carriers, {e: () for e in S.idempotents},
                         empty_presheaf(S))


# ---------------------------------------------------------------------------
# unit, counit, triangles


@dataclass(eq=False)
class UnitResult:
    presheaf: Presheaf
    lam_obj: LambdaObject
    gamma_obj: GammaPresheaf
    components: dict[int, tuple[int, ...]]
    bijective: bool


def unit(P: Presheaf, LP: LambdaObject | None = None,
         G: GammaPresheaf | None = None) -> UnitResult:
    """eta(P)_d(a)(r, s) = (r, a.s); every component must be a bijection
    onto Gamma(Lambda(P))(d) and the whole family natural."""
    S = P.base
    sg = S.semigroup
    LP = LP if LP is not None else lam(P)
    if LP.is_empty():
        G = G if G is not None else _empty_gamma(S)
        empty_components = {e: () for e in S.idempotents}
        if any(G.alphas[e] for e in S.idempotents):
            raise UnitNotIso("Gamma of the empty object is not empty")
        return UnitResult(P, LP, G, empty_components, True)
    G = G if G is not None else gamma(LP.structure_map)
    components = {}
    for d in S.idempotents:
        carrier = G.carriers[d]
        lookup = {table: i for i, table in enumerate(G.alphas[d])}
        comp = []
        for a in range(len(P.fiber(d))):
            table = tuple(
                LP.index[(r, P.transition(s, d)[a])] for (r, s) in carrier
            )
            if table not in lookup:
                raise UnitNotIso(f"unit image at {d} is not a Gamma element")
            comp.append(lookup[table])
        if len(set(comp)) != len(comp) or len(comp) != len(G.alphas[d]):
            raise UnitNotIso(f"unit component at {d} is not a bijection")
        components[d] = tuple(comp)
    for m in all_ls_morphisms(S):
        d = ls_dom(S, m)
        ptr = P.transition(m.s, m.e)
        gtr = G.presheaf.transition(m.s, m.e)
        for i in range(len(P.fiber(m.e))):
            if components[d][ptr[i]] != gtr[components[m.e][i]]:
                raise ConsistencyError(f"unit not natural along {m}")
    return UnitResult(P, LP, G, components, True)


@dataclass(eq=False)
class CounitResult:
    gamma_obj: GammaPresheaf
    lam_gamma: LambdaObject
    morphism: StarMorphism | None
    injective: bool
    surjective: bool
    bijective: bool
    inverse_is_left_star_hom: bool | None
    is_iso: bool


def counit(f: StarMorphism, G: GammaPresheaf | None = None) -> CounitResult:
    """epsilon_f(r, xi) = xi(r, c(r)); always a left *-homomorphism over S,
    with bijectivity reported rather than assumed."""
    X = f.source
    S = as_inverse(f.target)
    sg = S.semigroup
    G = G if G is not None else gamma(f)
    LG = lam(G.presheaf)
    if LG.is_empty():
        return CounitResult(G, LG, None, True, X.order == 0, False, None, False)
    pos = {e: {u: i for i, u in enumerate(G.carriers[e])}
           for e in S.idempotents}
    mapping = []
    for (r, xi) in LG.pairs:
        e = sg.c(r)
        mapping.append(G.alphas[e][xi][pos[e][(r, e)]])
    eps = StarMorphism(LG.semigroup, X, tuple(mapping), name="counit")
    if not eps.is_left_star_hom:
        raise ConsistencyError("counit is not a left *-homomorphism")
    if any(f.map[mapping[i]] != LG.pairs[i][0] for i in range(len(mapping))):
        raise ConsistencyError("counit is not over S")
    injective = len(set(mapping)) == len(mapping)
    surjective = set(mapping) == set(X.elements)
    bijective = injective and surjective
    inv_left = None
    if bijective:
        inv = [0] * X.order
        for i, v in enumerate(mapping):
            inv[v] = i
        inv_left = StarMorphism(X, LG.semigroup, tuple(inv)).is_left_star_hom
    return CounitResult(G, LG, eps, injective, surjective, bijective,
                        inv_left, bool(bijective and inv_left))


def triangle_check(P: Presheaf) -> Verdict:
    """epsilon_{Lambda P} . Lambda(eta P) = id elementwise."""
    u = unit(P)
    if u.lam_obj.is_empty():
        return Verdict()
    sg = P.base.semigroup
    eps = counit(u.lam_obj.structure_map, u.gamma_obj)
    LGP = eps.lam_gamma
    for i, (r, a) in enumerate(u.lam_obj.pairs):
        j = LGP.index[(r, u.components[sg.c(r)][a])]
        if eps.morphism.map[j] != i:
            return Verdict((Violation("TriangleViolation", (r, a)),))
    return Verdict()


def triangle_check2(f: StarMorphism) -> Verdict:
    """Gamma(epsilon_f) . eta(Gamma f) = id, fiber by fiber."""
    S = as_inverse(f.target)
    sg = S.semigroup
    G = gamma(f)
    eps = counit(f, G)
    for e in S.idempotents:
        carrier = G.carriers[e]
        for xi_idx, table in enumerate(G.alphas[e]):
            out = []
            for (p, q) in carrier:
                moved = G.presheaf.transition(q, e)[xi_idx]  # xi . q
                elem = eps.lam_gamma.index[(p, moved)]
                out.append(eps.morphism.map[elem])
            if tuple(out) != table:
                return Verdict((Violation("TriangleViolation", (e, xi_idx)),))
    return Verdict()


# ---------------------------------------------------------------------------
# the fiber presheaf and m


def fiber_presheaf(f: StarMorphism) -> Presheaf:
    """P_f(e) = f^-1(e) with transition u.s = d(lift of s at u); fibers must
    consist of projections and satisfy u.d = u(u.d)."""
    X = f.source
    S = as_inverse(f.target)
    sg = S.semigroup
    if not f.is_star_hom or not is_etale(f):
        raise NotEtale("fiber presheaf needs an etale *-homomorphism")
    if not classify(X).left_involutive:
        raise NotLeftInvolutive("fiber presheaf needs a left involutive source")
    fibers_elems = {
        e: tuple(x for x in X.elements if f.map[x] == e)
        for e in S.idempotents
    }
    projs = set(projections(X))
    for e, elems in fibers_elems.items():
        for u in elems:
            if u not in projs:
                raise ConsistencyError(f"fiber over {e} contains non-projection {u}")
    fibers = {e: tuple(str(u) for u in elems)
              for e, elems in fibers_elems.items()}
    transitions = {}
    for m in all_ls_morphisms(S):
        d = ls_dom(S, m)
        posd = {u: i for i, u in enumerate(fibers_elems[d])}
        tr = []
        for u in fibers_elems[m.e]:
            x = etale_lift(f, u, m.s)
            tr.append(posd[X.d(x)])
        transitions[(m.s, m.e)] = tuple(tr)
    P = validate_presheaf(S, fibers, transitions)
    for e in S.idempotents:
        for u in fibers_elems[e]:
            for d in S.idempotents:
                if sg.mul[d][e] == d and sg.mul[e][d] == d:
                    ud = fibers_elems[d][P.transition(d, e)[fibers_elems[e].index(u)]]
                    if X.mul[u][ud] != ud:
                        raise ConsistencyError(
                            f"u.d = u(u.d) fails at u={u}, d={d}")
    return P


def m_iso(f: StarMorphism) -> StarMorphism:
    """m: Lambda(P_f) -> X, the unique lift of r at u; a bijective
    *-homomorphism over S whose transpose inverts alpha |-> alpha(e, e)."""
    X = f.source
    S = as_inverse(f.target)
    sg = S.semigroup
    P = fiber_presheaf(f)
    LP = lam(P)
    fiber_elems = {e: tuple(int(lbl) for lbl in P.fiber(e))
                   for e in S.idempotents}
    mapping = []
    for (r, ui) in LP.pairs:
        u = fiber_elems[sg.c(r)][ui]
        mapping.append(etale_lift(f, u, r))
    m = StarMorphism(LP.semigroup, X, tuple(mapping), name="m")
    if not m.is_star_hom:
        raise ConsistencyError("m is not a *-homomorphism")
    if not m.is_bijective or set(mapping) != set(X.elements):
        raise ConsistencyError("m is not bijective")
    if any(f.map[mapping[i]] != LP.pairs[i][0] for i in range(len(mapping))):
        raise ConsistencyError("m is not over S")
    # transpose check: Gamma(m) . eta(P_f) inverts evaluation at (e, e)
    G = gamma(f)
    for e in S.idempotents:
        carrier = G.carriers[e]
        pos_ee = carrier.index((e, e))
        tables = []
        for ui, u in enumerate(fiber_elems[e]):
            table = tuple(
                mapping[LP.index[(r, P.transition(s, e)[ui])]]
                for (r, s) in carrier
            )
            if table not in G.alphas[e]:
                raise ConsistencyError("transpose of m misses Gamma(f)")
            if table[pos_ee] != u:
                raise ConsistencyError("transpose of m does not invert "
                                       "evaluation at (e, e)")
            tables.append(table)
        if len(set(tables)) != len(G.alphas[e]):
            raise ConsistencyError("transpose of m is not bijective")
    return m


def counit_explicit_preimage(f: StarMorphism, x: int):
    """The explicit (r, xi) with epsilon(r, xi) = x for etale f: lift q at
    c(x) to y, then p at d(y) to z, and set xi(p, q) = z."""
    X = f.source
    S = as_inverse(f.target)
    r = f.map[x]
    e = S.semigroup.c(r)
    carrier = representable_tables(S, e).carrier
    table = []
    for (p, q) in carrier:
        y = etale_lift(f, X.c(x), q)
        z = etale_lift(f, X.d(y), p)
        table.append(z)
    return r, tuple(table)


# ---------------------------------------------------------------------------
# involutivity of Lambda(P) and the section 4 material


@dataclass(frozen=True)
class PropInvReport:
    projections_commute: bool
    inverse: bool
    involutive: bool
    subterminal: bool
    injective_over_s: bool

    def all_agree(self) -> bool:
        vals = (self.projections_commute, self.inverse, self.involutive,
                self.subterminal, self.injective_over_s)
        return len(set(vals)) == 1


def prop_inv_check(P: Presheaf) -> PropInvReport:
    """Five independently computed equivalent statements about Lambda(P);
    disagreement raises EquivalenceBroken."""
    LP = lam(P)
    subterminal = all(len(P.fiber(e)) <= 1 for e in P.fibers)
    if LP.is_empty():
        report = PropInvReport(True, True, True, subterminal, True)
    else:
        sgl = LP.semigroup
        projs = projections(sgl)
        commute = all(sgl.mul[p][q] == sgl.mul[q][p]
                      for p in projs for q in projs)
        rep = classify(sgl)
        injective = len(set(LP.structure_map.map)) == len(LP.pairs)
        report = PropInvReport(commute, rep.inverse, rep.involutive,
                               subterminal, injective)
    if not report.all_agree():
        raise EquivalenceBroken(f"five-way equivalence broken: {report}")
    return report


def left_compatible(S: InverseSemigroup, s: int, t: int) -> bool:
    """st*t = ts*s; cross-checked against st* being idempotent."""
    sg = S.semigroup
    direct = sg.mul[s][sg.mul[sg.star[t]][t]] == sg.mul[t][sg.mul[sg.star[s]][s]]
    u = sg.mul[s][sg.star[t]]
    via_idem = sg.mul[u][u] == u
    if direct != via_idem:
        raise ConsistencyError(
            f"left compatibility checks disagree on ({s}, {t})")
    return direct


@dataclass(frozen=True)
class PropSymReport:
    e: int
    ok: bool
    mismatches: tuple[tuple, ...]
    se_inverse: bool
    es_compatible: bool
    seinv_agrees: bool


def prop_sym_check(S: InverseSemigroup, e: int) -> PropSymReport:
    """Star reversal in S(e) happens exactly at left compatible (s, qp)
    pairs; and S(e) is inverse iff eS is pairwise left compatible."""
    from .site import representable_semigroup

    sg = S.semigroup
    R = representable_semigroup(S, e)
    se = R.semigroup
    mismatches = []
    for i, (p, q) in enumerate(R.carrier):
        for j, (r, s) in enumerate(R.carrier):
            reverses = se.star[se.mul[i][j]] == se.mul[se.star[j]][se.star[i]]
            compatible = left_compatible(S, s, sg.mul[q][p])
            if reverses != compatible:
                mismatches.append(((p, q), (r, s)))
    se_inverse = classify(se).inverse
    es = [s for s in sg.elements if sg.mul[e][s] == s]
    es_compat = all(left_compatible(S, a, b) for a in es for b in es)
    return PropSymReport(e, not mismatches, tuple(mismatches),
                         se_inverse, es_compat, se_inverse == es_compat)


@dataclass(frozen=True)
class IdealReport:
    normal: bool
    witness: tuple | None
    ideal: tuple[int, ...] | None


def ideal_correspondence(S: InverseSemigroup, D) -> IdealReport:
    """A normal idempotent subset D yields the two-sided *-closed ideal
    T = {s : s*s in D} with E cap T = D."""
    sg = S.semigroup
    D = frozenset(int(d) for d in D)
    idems = set(S.idempotents)
    if not D <= idems:
        raise ShapeError("D must be a set of idempotents")
    for s in sg.elements:
        for d in D:
            if sg.mul[sg.mul[sg.star[s]][d]][s] not in D:
                return IdealReport(False, (s, d), None)
    T = tuple(s for s in sg.elements if sg.d(s) in D)
    tset = set(T)
    for t in T:
        if sg.star[t] not in tset:
            raise ConsistencyError(f"ideal not closed under star at {t}")
        for s in sg.elements:
            if sg.mul[t][s] not in tset or sg.mul[s][t] not in tset:
                raise ConsistencyError(f"T is not a two-sided ideal at ({t}, {s})")
    if idems & tset != D:
        raise ConsistencyError("E cap T differs from D")
    return IdealReport(True, None, T)


def bsleft_eval(f: StarMorphism) -> dict:
    """Data for the equivalence checks: counit bijectivity/iso vs the source
    being left involutive and the map etale."""
    eps = counit(f)
    return {
        "etale": is_etale(f),
        "left_involutive": classify(f.source).left_involutive,
        "bijective": eps.bijective,
        "iso": eps.is_iso,
    }
