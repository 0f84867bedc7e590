"""The adjunction between presheaves on L(S) and *-semigroups over S.

Lambda sends a presheaf P to the left involutive semigroup of pairs (r, x)
with x in P(c(r)); Gamma probes a *-homomorphism f: X -> S with left
*-homomorphisms S(e) -> X over S, found by a backtracking search
(``core.backtrack``) driven by the left *-homomorphism constraints.  When f
is etale with left involutive source, the equivalence with the fiber
presheaf says each such map is fixed by its value at (e, e) and built by
unique lifting; Gamma runs that lifting path too, as a cross-check that
must find the same tables, and which stands for m's transpose (``m_iso``).
Gamma's presheaf is not swept again: its laws follow from those of S(m),
swept once per base (``site._representable_functoriality``); nor is the
fiber presheaf, each of whose transitions is a unique lift.

The empty presheaf, the initial object, takes the same path: Lambda of it
is the empty *-semigroup, validated like any other, with its empty
structure map, so unit, counit and the triangles have no branch of their
own for it.  The oracle and verify's pools still start at order 1.

Two rules keep what is built.  Derived data lives on its owner: what is
derived from one object alone is kept on it with ``core.memo`` and lives as
long as it does: each S(e), checked, on its base
(``site.representable_semigroup``; Gamma keeps its search plan on it,
``_gamma_plan``), the lift and canonical action tables on a morphism
(``StarMorphism.lifts``; ``StarMorphism.action``, which checks each lift's
uniqueness once and which every lift read here indexes), its S-set
(``ssets.canonical_action``), the axiom sweep and left-action table on an
S-set (``ssets.check_sset``, ``ssets.left_table``) and the verdict on an
algebra (``modalg.validate_algebra``).

What is shared is shared while held, through ``core.shared``: a call of
``lam(P)``, ``gamma(f, budget)`` or ``counit(f, G)`` returns the object
already built for the same key while some caller still holds it, and
builds afresh once every holder has dropped it; so the triangle checks
reuse the Lambda, Gamma and counit the chain holds.  ``gamma`` and
``counit`` key by their input (``f`` and the resolved budget, Gamma ``G``).
``unit(P)`` is built per call: it is the identity, and checking that costs
less than keeping it.  Two more rules follow the equivalence, under which
Gamma(f)(e) is f^-1(e) by evaluation at (e, e) and Lambda(P) depends only
on P's tables.

Gamma's fibers in evaluation order: each fiber of Gamma(f) is sorted by
the value at (e, e), then by the table.  For f etale with left involutive
source that value tells the tables apart and runs through f^-1(e) in
ascending order, so the lifting path lists its tables in the order of
``f.fibers[e]``.  The unit's table of a in P(d) takes the value (d, a) at
(d, d), and Lambda(P) lists the pairs (d, a) in the order of a, so every
unit component is the identity and Gamma(Lambda P) has exactly P's fiber
sizes and transitions, which is what ``unit`` checks.

Lambda by its presheaf's tables: ``lam`` keys by the base object, P's
fiber sizes per idempotent and its transitions in ``all_ls_morphisms``
order, not by P.  So the counit's Lambda(Gamma(Lambda P)) and ``m_iso``'s
Lambda(P_f), which have P's tables, are the unit's Lambda(P), and each
distinct Lambda runs its transition-formula check once.  Nothing below it
is shared: each new Lambda validates its own semigroup
(``core.validate_star_semigroup``) and builds and checks its own structure
map.  Every other check runs once per object built, and a call that raises
keeps nothing that failed a check.

Shared objects are handed to every caller, so a ``Presheaf`` or
``StarMorphism`` must not be mutated after construction, nor a
``LambdaObject``, ``GammaPresheaf`` or ``CounitResult`` at all; neither
may an object that carries a memo, an ``SSetStructure``, ``SModule`` or
``SAlgebra`` too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from . import ssets
from .core import (
    ConsistencyError,
    FiniteStarSemigroup,
    SearchBudgetExceeded,
    ShapeError,
    StarError,
    StarMorphism,
    Verdict,
    Violation,
    backtrack,
    check_lift_points,
    classify,
    compose,
    element,
    freeze,
    idempotents,
    is_etale,
    memo,
    projections,
    shared,
    takes,
    validate_star_semigroup,
)
from .site import (
    IDEMPOTENT,
    InverseSemigroup,
    Presheaf,
    PresheafMap,
    RepresentableSemigroup,
    _action_table,
    _representable_functoriality,
    all_ls_morphisms,
    as_inverse,
    representable_semigroup,
)


class BudgetInvalid(StarError):
    pass


DEFAULT_BUDGET = 10 ** 6


def resolve_budget(value=None):
    """A search budget: ``value``, else the STARGROUP_BUDGET environment
    variable, else DEFAULT_BUDGET.  Text is read as a decimal integer;
    anything but a non-negative integer raises BudgetInvalid."""
    if value is None:
        value = os.environ.get("STARGROUP_BUDGET") or DEFAULT_BUDGET
    if type(value) is int and value >= 0:
        return value
    try:
        budget = int(value, 10)
    except (TypeError, ValueError):
        budget = -1
    if budget < 0:
        raise BudgetInvalid(
            f"budget must be a non-negative integer, got {value!r}")
    return budget


# ---------------------------------------------------------------------------
# Lambda


@takes()
@dataclass(eq=False)
class LambdaObject:
    """Lambda(P): pairs (r, x) with the structure map (r, x) |-> r.

    It depends on P only through P's fiber sizes and transition tables, so
    it keeps no presheaf: ``lam`` hands one object to every presheaf with
    these tables over ``base`` while it is held (module docstring)."""

    base: InverseSemigroup
    pairs: tuple[tuple[int, int], ...]
    index: dict
    semigroup: FiniteStarSemigroup
    structure_map: StarMorphism

    def __repr__(self):
        return f"LambdaObject({len(self.pairs)} elements over {self.base!r})"


@takes(P=Presheaf)
def lam(P: Presheaf) -> LambdaObject:
    """Lambda(P), verified left involutive with etale structure map, with
    projections exactly the idempotent-tagged pairs and the canonical action
    matching the transition formula.  Shared while held with every presheaf
    of the same fiber sizes and transitions over the same base object
    (module docstring)."""
    S = P.base
    key = ("lam", id(S), tuple([len(P.fibers[e]) for e in S.idempotents]),
           tuple([P.transitions[m] for m in all_ls_morphisms(S)]))
    return shared(key, _lam, P)


def _lam(P: Presheaf) -> LambdaObject:
    S = P.base
    sg = S.semigroup
    c = [sg.c(r) for r in sg.elements]
    width = [len(P.fiber(c[r])) for r in sg.elements]
    pairs = tuple([(r, x) for r in sg.elements for x in range(width[r])])
    index = {pair: i for i, pair in enumerate(pairs)}
    # pairs run through r, then x, so (r, x) sits at offset[r] + x
    offset = (0, *accumulate(width))
    trans = P.transitions

    # (p, y)(r, x) = (pr, y . c(pr)) depends on x only through r's block
    mul = []
    for p in sg.elements:
        blocks = []
        for r in sg.elements:
            pr = sg.mul[p][r]
            blocks.append((offset[pr], trans[(c[pr], c[p])], width[r]))
        for y in range(width[p]):
            row = []
            for base, tr, w in blocks:
                row += [base + tr[y]] * w
            mul.append(tuple(row))
    mul = tuple(mul)
    # (r, x)* = (r*, x . r)
    star = tuple([offset[sg.star[r]] + trans[(r, c[r])][x]
                  for r, x in pairs])
    smap = tuple([r for r, _ in pairs])
    lsg = validate_star_semigroup(len(smap), mul, star, name="Lambda")
    f = _lambda_map(lsg, sg, smap)
    A = ssets.canonical_action(f)
    for (r, x), act_i in zip(pairs, A.action):
        mul_r = sg.mul[r]
        for s in sg.elements:
            rs = mul_r[s]
            if act_i[s] != offset[rs] + trans[(c[rs], c[r])][x]:
                raise ConsistencyError("canonical action differs from the "
                                       "transition formula on Lambda(P)")
    return LambdaObject(S, pairs, index, lsg, f)


def _lambda_map(lsg, sg, smap) -> StarMorphism:
    """The structure map ``smap`` of the Lambda semigroup ``lsg`` onto
    ``sg``, validated: ``lsg`` left involutive, an etale *-homomorphism, and
    projections exactly the pairs over idempotents."""
    f = StarMorphism(lsg, sg, smap, name="structure map")
    if not classify(lsg).left_involutive:
        raise ConsistencyError("Lambda(P) is not left involutive")
    if not f.is_star_hom or not is_etale(f):
        raise ConsistencyError("Lambda(P) structure map is not an etale *-homomorphism")
    idems = set(idempotents(sg))
    expected = {i for i, r in enumerate(smap) if r in idems}
    if set(projections(lsg)) != expected:
        raise ConsistencyError("projections of Lambda(P) are not the idempotent pairs")
    return f


@takes(gamma_map=PresheafMap)
def lambda_morphism(gamma_map: PresheafMap) -> StarMorphism:
    """Lambda(gamma)(r, x) = (r, gamma_{c(r)}(x)); a *-homomorphism over S."""
    LP, LQ = lam(gamma_map.source), lam(gamma_map.target)
    sg = LP.base.semigroup
    mapping = tuple(
        LQ.index[(r, gamma_map.components[sg.c(r)][x])] for (r, x) in LP.pairs
    )
    out = StarMorphism(LP.semigroup, LQ.semigroup, mapping, name="Lambda(gamma)")
    if not out.is_star_hom:
        raise ConsistencyError("Lambda of a natural map is not a *-homomorphism")
    # over S by construction: (r, x) goes to LQ's pair (r, .)
    return out


# ---------------------------------------------------------------------------
# Gamma


@takes()
@dataclass(eq=False)
class GammaPresheaf:
    """Gamma(f): per idempotent the left *-homomorphisms S(e) -> X over S,
    stored as value tables in the carrier order of
    ``site.representable_semigroup(base, e)``, each fiber sorted by the
    value at (e, e), then by the table (module docstring); the element i
    of ``presheaf``'s fiber at e is ``alphas[e][i]``."""

    base: InverseSemigroup
    source: StarMorphism
    alphas: dict[int, tuple[tuple[int, ...], ...]]
    presheaf: Presheaf

    def fiber_size(self, e):
        return len(self.alphas[e])


class _GammaPlan(NamedTuple):
    order: tuple[int, ...]
    star_at: tuple[tuple[tuple[int, int], ...], ...]
    constraints_at: tuple[tuple[tuple[int, int, int, int], ...], ...]


@memo
def _gamma_plan(R: RepresentableSemigroup) -> _GammaPlan:
    """The generic search plan over S(e), which depends on S and e alone:
    the slot order, and per depth the star pairs and the product
    constraints (u, v, uv, d(u)v) whose latest-assigned slot is filled at
    that depth.  Kept on S(e), so it is built once per (S, e)."""
    se = R.semigroup
    k, mul_idx, star_idx = se.order, se.mul, se.star
    dom_idx = [se.d(i) for i in range(k)]
    ee = R.index[(R.e, R.e)]
    projs = [i for i in projections(se) if i != ee]
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
    return _GammaPlan(tuple(order), tuple(map(tuple, star_at)),
                      tuple(map(tuple, constraints_at)))


def _generic_alphas(f: StarMorphism, S: InverseSemigroup, e: int, budget):
    """The left *-homomorphisms S(e) -> X over S, by ``core.backtrack``.

    Constraint propagation follows the forced skeleton: the projection
    (e, e) is assigned first, then the remaining projections, then the rest;
    each assignment is checked against the star pairing and every product
    constraint whose participants are already assigned (_gamma_plan).
    """
    R = representable_semigroup(S, e)
    fibers = [f.fibers[r] for r in R.psi.map]
    if any(not fib for fib in fibers):
        return ()
    order, star_at, constraints_at = _gamma_plan(R)
    values = [-1] * len(order)
    xmul, xstar = f.source.mul, f.source.star

    # Nothing is undone on backtrack: _gamma_plan files each check under
    # its latest-assigned slot, so depth t reads only slots of depth <= t,
    # all placed on the current path, as is every slot of a full assignment.
    def place(t, cand):
        values[order[t]] = cand
        for u, xu in star_at[t]:
            if values[xu] != xstar[values[u]]:
                return False
        for u, v, w, z in constraints_at[t]:
            if values[w] != xmul[values[u]][values[z]]:
                return False
        return True

    leaves = backtrack(len(order), lambda t: fibers[order[t]], place, budget)
    ee = order[0]  # the slot of (e, e): fibers in evaluation order
    return tuple(sorted((tuple(values) for _ in leaves),
                        key=lambda table: (table[ee], table)))


def _lift_table(f: StarMorphism, carrier, u: int) -> tuple[int, ...]:
    """The table over ``carrier`` of the map S(e) -> X with (e, e) |-> u,
    for u over e: (r, s) goes to the lift of r at u.s = d(lift of s at u).
    The caller checks f and u (``check_lift_points``); d(x) is always a
    projection.  Each read satisfies its lift equation, as (r, s) is in
    S(e): es = s, and f(d(x)) = d(s) = c(r) with c(r)r = r, so
    ``f.action`` holds both lifts."""
    act, d = f.action, f.source.d
    return tuple([act[d(act[u][s])][r] for r, s in carrier])


def _fast_alphas(f: StarMorphism, S: InverseSemigroup, e: int):
    """Fiber-presheaf path: alphas correspond to f^-1(e) via evaluation at
    (e, e), so listed in the ascending order of f^-1(e) they are in
    evaluation order; each table is built by unique lifting."""
    carrier = representable_semigroup(S, e).carrier
    check_lift_points.__wrapped__(f, f.fibers[e])
    return tuple([_lift_table(f, carrier, u) for u in f.fibers[e]])


@takes(f=StarMorphism)
def gamma(f: StarMorphism, budget=None) -> GammaPresheaf:
    """Gamma(f) for a *-homomorphism f into an inverse semigroup, by the
    generic search; when f is etale with left involutive source, the
    lifting path must find the same tables (module docstring).  budget: see
    resolve_budget.  Shared while held (module docstring).
    """
    budget = resolve_budget(budget)
    return shared(("gamma", id(f), budget), _gamma, f, budget)


def _gamma(f: StarMorphism, budget: int) -> GammaPresheaf:
    if not f.is_star_hom:
        raise ShapeError("Gamma needs a *-homomorphism as input")
    S = as_inverse(f.target)
    liftable = is_etale(f) and classify(f.source).left_involutive

    alphas = {}
    for e in S.idempotents:
        alphas[e] = _generic_alphas(f, S, e, budget)
        if liftable and _fast_alphas(f, S, e) != alphas[e]:
            raise ConsistencyError(
                f"Gamma search and lifting disagree at idempotent {e}")

    fibers = {e: tuple(str(i) for i in range(len(alphas[e])))
              for e in S.idempotents}
    transitions = {}
    for m in all_ls_morphisms(S):
        # alpha . m reads alpha at S(m) of each element of S(d)
        action = _action_table(S, m)
        lookup = {table: i for i, table in enumerate(alphas[S.semigroup.d(m.s)])}
        tr = []
        for table in alphas[m.e]:
            moved = compose(table, action)
            if moved not in lookup:
                raise ConsistencyError(
                    f"Gamma transition along {m} leaves the fiber")
            tr.append(lookup[moved])
        transitions[m] = tuple(tr)
    # A presheaf without validate_presheaf's sweep: S(id_e) is the identity
    # on S(e), and alpha . S(m1 m2) = (alpha . S(m1)) . S(m2) as S(m1 m2) =
    # S(m1)S(m2), which _representable_functoriality checks once per base.
    _representable_functoriality(S)
    return GammaPresheaf(S, f, alphas, Presheaf(S, fibers, transitions))


# ---------------------------------------------------------------------------
# unit, counit, triangles


@dataclass(eq=False)
class UnitResult:
    presheaf: Presheaf
    lam_obj: LambdaObject
    gamma_obj: GammaPresheaf
    components: dict[int, tuple[int, ...]]
    bijective: bool


@takes(P=Presheaf)
def unit(P: Presheaf) -> UnitResult:
    """eta(P)_d(a)(r, s) = (r, a.s).  Gamma lists its fibers in evaluation
    order (module docstring), so eta must be the identity onto
    Gamma(Lambda(P)): each component's a-th table is Gamma's a-th, and
    Gamma(Lambda P) has P's transitions, which makes the identity natural.
    Built per call; its Lambda and Gamma are shared while held."""
    return _unit(P)


def _unit(P: Presheaf) -> UnitResult:
    S = P.base
    LP = lam(P)
    G = gamma(LP.structure_map)
    for d in S.idempotents:
        carrier = representable_semigroup(S, d).carrier
        # each (r, s) of the carrier as r and the transition along s
        along = [(r, P.transitions[(s, d)]) for r, s in carrier]
        if len(G.alphas[d]) != len(P.fiber(d)) or any(
                tuple([LP.index[(r, tr[a])] for r, tr in along]) != table
                for a, table in enumerate(G.alphas[d])):
            raise StarError(f"unit component at {d} is not the identity",
                            kind="UnitNotIso")
    for m in all_ls_morphisms(S):
        if G.presheaf.transitions[m] != P.transitions[m]:
            raise StarError(f"unit is not natural along {m}",
                            kind="NotNatural")
    components = {d: tuple(range(len(P.fiber(d)))) for d in S.idempotents}
    return UnitResult(P, LP, G, components, True)


@dataclass(eq=False)
class CounitResult:
    gamma_obj: GammaPresheaf
    lam_gamma: LambdaObject
    morphism: StarMorphism
    injective: bool
    surjective: bool
    bijective: bool
    inverse_is_left_star_hom: bool | None
    is_iso: bool


@takes(f=StarMorphism, G=(GammaPresheaf, None))
def counit(f: StarMorphism, G: GammaPresheaf | None = None) -> CounitResult:
    """epsilon_f(r, xi) = xi(r, c(r)); always a left *-homomorphism over S,
    with bijectivity reported rather than assumed.  ``G`` defaults to
    ``gamma(f)`` and must be Gamma of ``f``.  Shared while held (module
    docstring)."""
    G = gamma(f) if G is None else G
    if G.source is not f:
        raise ShapeError("counit needs G to be Gamma of f")
    return shared(("counit", id(G)), _counit, G)


def _counit(G: GammaPresheaf) -> CounitResult:
    f, S = G.source, G.base
    X = f.source
    sg = S.semigroup
    LG = lam(G.presheaf)
    index = {e: representable_semigroup(S, e).index for e in S.idempotents}
    mapping = []
    for (r, xi) in LG.pairs:
        e = sg.c(r)
        mapping.append(G.alphas[e][xi][index[e][(r, e)]])
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


@takes(P=Presheaf)
def triangle_check(P: Presheaf) -> Verdict:
    """epsilon_{Lambda P} . Lambda(eta P) = id elementwise."""
    u = unit(P)
    sg = P.base.semigroup
    eps = counit(u.lam_obj.structure_map, u.gamma_obj)
    LGP = eps.lam_gamma
    for i, (r, a) in enumerate(u.lam_obj.pairs):
        j = LGP.index[(r, u.components[sg.c(r)][a])]
        if eps.morphism.map[j] != i:
            return Verdict((Violation("TriangleViolation", (r, a)),))
    return Verdict()


@takes(f=StarMorphism)
def triangle_check2(f: StarMorphism) -> Verdict:
    """Gamma(epsilon_f) . eta(Gamma f) = id, fiber by fiber."""
    eps = counit(f)
    G = eps.gamma_obj
    index, eps_map = eps.lam_gamma.index, eps.morphism.map
    for e in G.base.idempotents:
        along = [(p, G.presheaf.transitions[(q, e)])
                 for p, q in representable_semigroup(G.base, e).carrier]
        for xi_idx, table in enumerate(G.alphas[e]):
            # epsilon(p, xi . q) over the carrier
            out = [eps_map[index[(p, tr[xi_idx])]] for p, tr in along]
            if tuple(out) != table:
                return Verdict((Violation("TriangleViolation", (e, xi_idx)),))
    return Verdict()


# ---------------------------------------------------------------------------
# the fiber presheaf and m


@takes(f=StarMorphism)
def fiber_presheaf(f: StarMorphism) -> Presheaf:
    """P_f(e) = f^-1(e) with transition u.s = d(lift of s at u); fibers must
    consist of projections and satisfy u.d = u(u.d)."""
    X = f.source
    S = as_inverse(f.target)
    sg = S.semigroup
    if not f.is_star_hom or not is_etale(f):
        raise StarError("fiber presheaf needs an etale *-homomorphism",
                        kind="NotEtale")
    if not classify(X).left_involutive:
        raise StarError("fiber presheaf needs a left involutive source",
                        kind="NotLeftInvolutive")
    over = f.fibers
    projs = set(projections(X))
    for e in S.idempotents:
        for u in over[e]:
            if u not in projs:
                raise ConsistencyError(f"fiber over {e} contains non-projection {u}")
    fibers = {e: tuple(str(u) for u in over[e]) for e in S.idempotents}
    # f is etale and each u a projection, both checked above, and m.s
    # satisfies f(u)m.s = m.s for u over m.e, as m is an L(S)-morphism: so
    # the lift of m.s at u is f.action[u][m.s]
    act = f.action
    transitions = {}
    for m in all_ls_morphisms(S):
        posd = {u: i for i, u in enumerate(over[S.semigroup.d(m.s)])}
        transitions[m] = tuple([posd[X.d(act[u][m.s])] for u in over[m.e]])
    # A presheaf without validate_presheaf's sweep.  Identity: the lift of
    # e at u is u, and d(u) = u.  Composition: let x be the lift of s at u
    # and y that of t at d(x).  Then xy is the lift of st at u, by
    # uniqueness, as uxy = xy and f(xy) = f(x)f(y) = st; and d(xy) = d(y),
    # as d(x)y = y and (xy)* = (d(x)y)*x* in a left involutive semigroup.
    P = Presheaf(S, fibers, transitions)
    for e in S.idempotents:
        for ui, u in enumerate(over[e]):
            for d in S.idempotents:
                if sg.mul[d][e] == d and sg.mul[e][d] == d:
                    ud = over[d][P.transitions[(d, e)][ui]]
                    if X.mul[u][ud] != ud:
                        raise ConsistencyError(
                            f"u.d = u(u.d) fails at u={u}, d={d}")
    return P


@takes(f=StarMorphism)
def m_iso(f: StarMorphism) -> StarMorphism:
    """m: Lambda(P_f) -> X, the unique lift of r at u; a bijective
    *-homomorphism over S whose transpose inverts alpha |-> alpha(e, e)."""
    X = f.source
    S = as_inverse(f.target)
    sg = S.semigroup
    LP = lam(fiber_presheaf(f))
    over = f.fibers
    # fiber_presheaf checked that f is etale and each u a projection; u lies
    # over c(r) and c(r)r = r, so the lift of r at u is f.action[u][r]
    act = f.action
    mapping = [act[over[sg.c(r)][ui]][r] for r, ui in LP.pairs]
    m = StarMorphism(LP.semigroup, X, tuple(mapping), name="m")
    if not m.is_star_hom:
        raise ConsistencyError("m is not a *-homomorphism")
    # injective between carriers of one size, so onto X; over S by
    # construction, as the lift of r at u lies over f(u)r = c(r)r = r
    if not m.is_bijective:
        raise ConsistencyError("m is not bijective")
    # The transpose Gamma(m) . eta(P_f) inverts evaluation at (e, e): its
    # table at u over e is _lift_table(f, carrier, u), reached through
    # Lambda(P_f) and m, and gamma(f) compares exactly those tables with its
    # search, fiber_presheaf having demanded what its lifting path needs.
    # Each table sends (e, e) to u, as u is a projection over e.
    gamma(f)
    return m


@takes(f=StarMorphism, x=element("f.source"))
def counit_explicit_preimage(f: StarMorphism, x: int):
    """The explicit (r, xi) with epsilon(r, xi) = x for etale f: r = f(x),
    and xi the lifting table of u = c(x) (``_lift_table``)."""
    S = as_inverse(f.target)
    r = f.map[x]
    carrier = representable_semigroup(S, S.semigroup.c(r)).carrier
    u = f.source.c(x)
    check_lift_points.__wrapped__(f, (u,))
    return r, _lift_table(f, carrier, u)


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


@takes(P=Presheaf)
def prop_inv_check(P: Presheaf) -> PropInvReport:
    """Five independently computed equivalent statements about Lambda(P);
    disagreement raises a ConsistencyError of kind EquivalenceBroken."""
    LP = lam(P)
    sgl = LP.semigroup
    projs = projections(sgl)
    commute = all(sgl.mul[p][q] == sgl.mul[q][p] for p in projs for q in projs)
    rep = classify(sgl)
    injective = len(set(LP.structure_map.map)) == len(LP.pairs)
    subterminal = all(len(P.fiber(e)) <= 1 for e in P.fibers)
    report = PropInvReport(commute, rep.inverse, rep.involutive,
                           subterminal, injective)
    if not report.all_agree():
        raise ConsistencyError(f"five-way equivalence broken: {report}",
                               kind="EquivalenceBroken")
    return report


@takes(S=InverseSemigroup, s=element("S"), t=element("S"))
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


@takes(S=InverseSemigroup, e=IDEMPOTENT)
def prop_sym_check(S: InverseSemigroup, e: int) -> PropSymReport:
    """Star reversal in S(e) happens exactly at left compatible (s, qp)
    pairs; and S(e) is inverse iff eS is pairwise left compatible."""
    sg, compatible = S.semigroup, left_compatible.__wrapped__
    R = representable_semigroup(S, e)
    se = R.semigroup
    mismatches = []
    for i, (p, q) in enumerate(R.carrier):
        for j, (r, s) in enumerate(R.carrier):
            reverses = se.star[se.mul[i][j]] == se.mul[se.star[j]][se.star[i]]
            if reverses != compatible(S, s, sg.mul[q][p]):
                mismatches.append(((p, q), (r, s)))
    se_inverse = classify(se).inverse
    es = [s for s in sg.elements if sg.mul[e][s] == s]
    es_compat = all(compatible(S, a, b) for a in es for b in es)
    return PropSymReport(e, not mismatches, tuple(mismatches),
                         se_inverse, es_compat, se_inverse == es_compat)


@dataclass(frozen=True)
class IdealReport:
    normal: bool
    witness: tuple | None
    ideal: tuple[int, ...] | None


@takes(S=InverseSemigroup)
def ideal_correspondence(S: InverseSemigroup, D) -> IdealReport:
    """A normal idempotent subset D yields the two-sided *-closed ideal
    T = {s : s*s in D} with E cap T = D."""
    sg = S.semigroup
    D = frozenset(freeze(D, "D", sg.order))
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


@takes(f=StarMorphism)
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
