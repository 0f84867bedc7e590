"""The left cancellative category L(S) of an inverse semigroup, finite
presheaves on it, and the representable left involutive semigroups S(e).

Presheaves store a transition table for every L(S)-morphism, so validation
is pure table checking.  An ``LSMorphism`` is its own transition key,
equal to its plain pair (s, e).  Fiber labels are opaque strings; fibers
are addressed by dense indices, S(e) by ``RepresentableSemigroup.index``.

What depends on the base alone (its L(S)-morphisms, the presheaf search
plan, each S(e), checked once) is kept on the ``InverseSemigroup``
with ``core.memo``, and ``as_inverse`` shares one per semigroup while held
(``core.shared``), so it is built once per base while some holder keeps the
wrapper, and is freed with the last holder.  Validation sweeps a presheaf
from outside; a generated presheaf, and S(e) once its tables match
Lambda(e-hat), are built without a sweep of their own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    NATURAL,
    POSITIVE,
    ConsistencyError,
    FiniteStarSemigroup,
    Invalid,
    Kind,
    ShapeError,
    StarError,
    StarMorphism,
    Violation,
    backtrack,
    classify,
    compose,
    freeze,
    idempotent,
    idempotents,
    memo,
    shared,
    takes,
)


@takes()
@dataclass(frozen=True)
class InverseSemigroup:
    """A validated inverse semigroup; star is the unique quasi-inverse."""

    semigroup: FiniteStarSemigroup

    @property
    def order(self):
        return self.semigroup.order

    @property
    def idempotents(self) -> tuple[int, ...]:
        return idempotents(self.semigroup)

    def __repr__(self):
        return f"InverseSemigroup({self.semigroup.name or '?'})"


@takes(X=FiniteStarSemigroup)
def as_inverse(X: FiniteStarSemigroup) -> InverseSemigroup:
    """Wrap X as an inverse semigroup: classify's inverse flag already means
    that the star is the unique quasi-inverse of each element.  One wrapper
    per semigroup object while held (``core.shared``); X does not refer to
    it."""
    report = classify(X)
    if not report.inverse:
        raise StarError(
            f"{X!r} is not inverse (witness {report.witness('inverse') or report.witness('commuting_projections')})",
            kind="NotInverse")
    return shared(("inverse", id(X)), InverseSemigroup, X)


@takes()
class LSMorphism(NamedTuple):
    """A morphism s: d -> e of L(S): s*s = d and es = s.  A tuple, so it
    is the key of its transition table and equals the plain pair (s, e)."""

    s: int
    e: int

    def __repr__(self):
        return f"({self.s} -> {self.e})"


# an idempotent of the base, the argument S
IDEMPOTENT = idempotent("S.semigroup")


@takes(S=InverseSemigroup, d=IDEMPOTENT, e=IDEMPOTENT)
def ls_morphisms(S: InverseSemigroup, d: int, e: int) -> tuple[LSMorphism, ...]:
    """All morphisms d -> e, ascending element order."""
    sg = S.semigroup
    return tuple(
        LSMorphism(s, e)
        for s in sg.elements
        if sg.mul[sg.star[s]][s] == d and sg.mul[e][s] == s
    )


@takes(S=InverseSemigroup)
@memo
def all_ls_morphisms(S: InverseSemigroup) -> tuple[LSMorphism, ...]:
    sg = S.semigroup
    return tuple(
        LSMorphism(s, e)
        for e in S.idempotents
        for s in sg.elements
        if sg.mul[e][s] == s
    )


def _ls_morphism(name, m, mul):
    """Refuse with ShapeError an argument that is not a morphism of L(S), S
    with the product table ``mul``: an ``LSMorphism`` (s, e) of elements in
    range with e idempotent and es = s.  The sweeps index unchecked."""
    if not (isinstance(m, LSMorphism) and type(m.s) is type(m.e) is int
            and 0 <= m.s < len(mul) and 0 <= m.e < len(mul)
            and mul[m.e][m.e] == m.e and mul[m.e][m.s] == m.s):
        raise ShapeError(f"{name} = {m!r} is not a morphism of L(S): out of "
                         f"range, e not idempotent or es != s")


# a morphism of L(S) for the argument S
MORPHISM = Kind(_ls_morphism, "S.semigroup.mul")


@takes(S=InverseSemigroup, m=MORPHISM)
def ls_dom(S: InverseSemigroup, m: LSMorphism) -> int:
    """The domain d(s) = s*s of m; internal callers read S.semigroup.d(m.s)."""
    return S.semigroup.d(m.s)


@takes(S=InverseSemigroup, m1=MORPHISM, m2=MORPHISM)
def compose_ls(S: InverseSemigroup, m1: LSMorphism, m2: LSMorphism) -> LSMorphism:
    """m1 after m2: for m1: d -> e and m2: c -> d the product m1.s * m2.s."""
    if S.semigroup.d(m1.s) != m2.e:
        raise ShapeError(f"{m1} and {m2} are not composable")
    return LSMorphism(S.semigroup.mul[m1.s][m2.s], m1.e)


@memo
def _composable_triples(S: InverseSemigroup):
    """Every composite m12 = m1 m2 of L(S) as morphism triples (m12, m1,
    m2), in (m1, m2) order; built once per base."""
    morphs = all_ls_morphisms(S)
    return tuple(
        (LSMorphism(S.semigroup.mul[m1.s][m2.s], m1.e), m1, m2)
        for m1 in morphs
        for m2 in morphs
        if S.semigroup.d(m1.s) == m2.e
    )


@dataclass(frozen=True)
class PullbackSquare:
    apex: int
    to_dom_first: LSMorphism   # apex -> dom(s)
    to_dom_second: LSMorphism  # apex -> dom(t)


@takes(S=InverseSemigroup, s=MORPHISM, t=MORPHISM)
def ls_pullback(S: InverseSemigroup, s: LSMorphism, t: LSMorphism) -> PullbackSquare:
    """The chosen pullback of s and t over their common codomain, with the
    universal property verified by exhaustive cone search."""
    if s.e != t.e:
        raise ShapeError("pullback legs need a common codomain")
    sg = S.semigroup
    cs = sg.c(s.s)
    ct = sg.c(t.s)
    apex = sg.mul[cs][ct]
    ds, dt = sg.d(s.s), sg.d(t.s)
    leg1 = LSMorphism(sg.mul[sg.star[s.s]][ct], ds)
    leg2 = LSMorphism(sg.mul[sg.star[t.s]][cs], dt)
    if sg.d(leg1.s) != apex or sg.d(leg2.s) != apex:
        raise ConsistencyError("pullback legs have the wrong domain")
    # the bodies: every argument below is a morphism or idempotent of S
    after, homs = compose_ls.__wrapped__, ls_morphisms.__wrapped__
    if after(S, s, leg1).s != after(S, t, leg2).s:
        raise ConsistencyError("chosen pullback square does not commute")
    for b in S.idempotents:
        for u in homs(S, b, ds):
            for v in homs(S, b, dt):
                if sg.mul[s.s][u.s] != sg.mul[t.s][v.s]:
                    continue
                hits = [
                    w
                    for w in homs(S, b, apex)
                    if sg.mul[leg1.s][w.s] == u.s and sg.mul[leg2.s][w.s] == v.s
                ]
                if len(hits) != 1:
                    raise ConsistencyError(
                        f"universal property fails for cone ({u}, {v}): {hits}"
                    )
    return PullbackSquare(apex, leg1, leg2)


# ---------------------------------------------------------------------------
# presheaves


@takes()
@dataclass
class Presheaf:
    base: InverseSemigroup
    fibers: dict[int, tuple[str, ...]]
    transitions: dict[tuple[int, int], tuple[int, ...]]

    def fiber(self, e: int) -> tuple[str, ...]:
        return self.fibers[e]

    def is_empty(self) -> bool:
        return not any(self.fibers.values())

    def __repr__(self):
        sizes = {e: len(v) for e, v in sorted(self.fibers.items())}
        return f"Presheaf({self.base!r}, fibers={sizes})"


@memo
def _transition_shapes(S: InverseSemigroup):
    """Per L(S)-morphism, the field name that a shape error gives its
    transition, and its domain s*s; built once per base."""
    return {m: (f"transition along {m}", S.semigroup.d(m.s))
            for m in all_ls_morphisms(S)}


@takes(base=InverseSemigroup, fibers=dict, transitions=dict)
def validate_presheaf(base: InverseSemigroup, fibers, transitions) -> Presheaf:
    """The presheaf with these fibers and transitions (keyed by morphisms or
    plain (s, e) pairs), or Invalid, of kind PresheafInvalid, with every
    violated law."""
    sg = base.semigroup
    problems = []
    freeze(fibers, "fiber key", sg.order)
    freeze(transitions, "transition key", sg.order, width=2)
    try:
        fibers = {e: tuple(map(str, labels)) for e, labels in fibers.items()}
    except TypeError:
        raise ShapeError("each fiber must be a sequence of labels") from None
    idems = set(base.idempotents)
    if set(fibers) != idems:
        raise ShapeError(f"fibers must be keyed by the idempotents {sorted(idems)}")
    for e, labels in fibers.items():
        if len(set(labels)) != len(labels):
            raise ShapeError(f"duplicate labels in fiber {e}")
    shapes = _transition_shapes(base)
    if set(transitions) != shapes.keys():
        raise ShapeError("transitions must be keyed by every L(S)-morphism")
    transitions = {
        key: freeze(tr, shapes[key][0], len(fibers[shapes[key][1]]),
                    length=len(fibers[key[1]]))
        for key, tr in transitions.items()}
    for e in base.idempotents:
        tr = transitions[(e, e)]
        if tr != tuple(range(len(fibers[e]))):
            problems.append(Violation("IdentityViolation", (e,)))
    for m12, m1, m2 in _composable_triples(base):
        if transitions[m12] != compose(transitions[m2], transitions[m1]):
            # plain pairs, so the message reads as the keys
            problems.append(Violation("CompositionViolation",
                                      (tuple(m1), tuple(m2))))
    if problems:
        raise Invalid(problems, kind="PresheafInvalid")
    return Presheaf(base, fibers, transitions)


@takes(S=InverseSemigroup)
def terminal_presheaf(S: InverseSemigroup) -> Presheaf:
    fibers = {e: ("*",) for e in S.idempotents}
    transitions = dict.fromkeys(all_ls_morphisms(S), (0,))
    return validate_presheaf(S, fibers, transitions)


@takes(S=InverseSemigroup)
def empty_presheaf(S: InverseSemigroup) -> Presheaf:
    fibers = {e: () for e in S.idempotents}
    transitions = dict.fromkeys(all_ls_morphisms(S), ())
    return validate_presheaf(S, fibers, transitions)


@takes(S=InverseSemigroup, e=IDEMPOTENT)
def representable_presheaf(S: InverseSemigroup, e: int) -> Presheaf:
    """e-hat: fiber at d is Hom(d, e), transition by composition."""
    after = compose_ls.__wrapped__
    homs = {d: ls_morphisms.__wrapped__(S, d, e) for d in S.idempotents}
    fibers = {d: tuple(str(m.s) for m in homs[d]) for d in S.idempotents}
    transitions = {}
    for t in all_ls_morphisms(S):
        d = t.e
        c = S.semigroup.d(t.s)
        pos = {m.s: i for i, m in enumerate(homs[c])}
        transitions[t] = tuple(
            pos[after(S, m, t).s] for m in homs[d]
        )
    return validate_presheaf(S, fibers, transitions)


@dataclass
class PresheafMap:
    """A natural transformation between presheaves on the same base."""

    source: Presheaf
    target: Presheaf
    components: dict[int, tuple[int, ...]]


@takes(source=Presheaf, target=Presheaf, components=dict)
def validate_presheaf_map(source: Presheaf, target: Presheaf, components) -> PresheafMap:
    if source.base != target.base:
        raise ShapeError("presheaf map needs a common base")
    base = source.base
    freeze(components, "component key", base.order)
    if set(components) != set(source.fibers):
        raise ShapeError("components must be keyed by every idempotent")
    components = {
        e: freeze(c, f"component at {e}", len(target.fiber(e)),
                  length=len(source.fiber(e)))
        for e, c in components.items()}
    for m in all_ls_morphisms(base):
        d = base.semigroup.d(m.s)
        src_t = source.transitions[m]
        tgt_t = target.transitions[m]
        for i in range(len(source.fiber(m.e))):
            if components[d][src_t[i]] != tgt_t[components[m.e][i]]:
                raise StarError(f"naturality square fails along {m} at {i}",
                                kind="NotNatural")
    return PresheafMap(source, target, components)


# ---------------------------------------------------------------------------
# representable semigroups S(e)


@dataclass(frozen=True)
class RepresentableSemigroup:
    """S(e) for the idempotent ``e``: the ``carrier`` pairs, ``index`` the
    slot of each, the checked ``semigroup`` on those slots and its
    structure map ``psi``.  What is derived from S(e) alone (the generic
    Gamma search plan, topos._gamma_plan) is kept on it with core.memo and
    lives exactly as long as it does."""

    e: int
    carrier: tuple[tuple[int, int], ...]
    index: dict = field(compare=False)  # read off carrier; keeps it hashable
    semigroup: FiniteStarSemigroup
    psi: StarMorphism


# the idempotent check runs before the memo is read, so that an unhashable,
# float or bool e is refused, never a TypeError or the entry of 0 or 1
@takes(S=InverseSemigroup, e=IDEMPOTENT)
@memo
def representable_semigroup(S: InverseSemigroup, e: int) -> RepresentableSemigroup:
    """S(e): the pairs (r, s) with d(s) = c(r) and es = s in lexicographic
    order, with the product (p, q)(r, s) = (pr, q c(pr)), the star
    (r, s)* = (r*, sr) and the structure map psi(r, s) = r, built once its
    tables match Lambda(e-hat) element for element.  Kept on S per e."""
    sg = S.semigroup
    mul, star, c = sg.mul, sg.star, [sg.c(x) for x in sg.elements]
    carrier = tuple([(r, s) for r in sg.elements for s in sg.elements
                     if sg.d(s) == c[r] and mul[e][s] == s])
    index = {pair: i for i, pair in enumerate(carrier)}
    se_mul = tuple([
        tuple([index[(mul[p][r], mul[q][c[mul[p][r]]])] for r, _ in carrier])
        for p, q in carrier])
    se_star = tuple([index[(star[r], mul[s][r])] for r, s in carrier])
    _check_against_lambda(S, e, se_mul, se_star, index)
    # No sweep: the comparison is a bijection from Lambda(e-hat) that
    # carries its product and star onto these tables and keeps the first
    # component.  _lam swept Lambda(e-hat), and _lambda_map found it left
    # involutive over S by an etale *-homomorphism (r, x) |-> r, which is
    # psi after the bijection: so S(e) is left involutive and psi etale.
    sename = f"S({sg.name}|{e})" if sg.name else f"S(?|{e})"
    se = FiniteStarSemigroup(len(carrier), se_mul, se_star, sename)
    psi = StarMorphism(se, sg, tuple(r for r, s in carrier), name=f"psi_{e}")
    return RepresentableSemigroup(e, carrier, index, se, psi)


def _check_against_lambda(S, e, mul, star, index):
    # the S(e) tables must equal Lambda(e-hat) element for element; topos
    # imports this module, so it is imported here, at call time
    from . import topos

    LP = topos.lam(representable_presheaf(S, e))
    sg = S.semigroup
    # the fiber of e-hat at d lists Hom(d, e) in this order
    fiber_elem = {d: [m.s for m in ls_morphisms.__wrapped__(S, d, e)]
                  for d in S.idempotents}
    mapping = []
    for (r, x) in LP.pairs:
        s = fiber_elem[sg.c(r)][x]
        mapping.append(index.get((r, s), -1))
    if sorted(mapping) != list(range(len(index))):
        raise ConsistencyError("Lambda(e-hat) and S(e) carriers differ")
    lsg = LP.semigroup
    for i in range(lsg.order):
        if star[mapping[i]] != mapping[lsg.star[i]]:
            raise ConsistencyError("Lambda(e-hat) and S(e) stars differ")
        for j in range(lsg.order):
            if mul[mapping[i]][mapping[j]] != mapping[lsg.mul[i][j]]:
                raise ConsistencyError("Lambda(e-hat) and S(e) products differ")


@memo
def _action_table(S: InverseSemigroup, m: LSMorphism) -> tuple[int, ...]:
    """S(m) as an index table from the S(d) to the S(e) carrier."""
    mul_s = S.semigroup.mul[m.s]
    tpos = representable_semigroup(S, m.e).index
    return tuple(tpos[(u, mul_s[v])]
                 for u, v in representable_semigroup(S, S.semigroup.d(m.s)).carrier)


@takes(S=InverseSemigroup, m=MORPHISM)
def representable_action(S: InverseSemigroup, m: LSMorphism) -> StarMorphism:
    """S(m): S(d) -> S(e) over S, (u, v) |-> (u, m.s v)."""
    src = representable_semigroup(S, S.semigroup.d(m.s))
    tgt = representable_semigroup(S, m.e)
    f = StarMorphism(src.semigroup, tgt.semigroup, _action_table(S, m),
                     name=f"S({m.s}->{m.e})")
    # over S, as _action_table keeps the first component, which psi reads
    if not f.is_star_hom:
        raise ConsistencyError(f"S({m}) is not a *-homomorphism")
    _representable_functoriality(S)
    return f


@memo
def _representable_functoriality(S: InverseSemigroup) -> bool:
    """S(st) = S(s)S(t) for all composable pairs; ran once per base.  S of
    an identity is the identity by construction, (u, v) in S(e) having
    ev = v, so a Gamma presheaf needs no sweep of its own (topos._gamma)."""
    raw = {m: _action_table(S, m) for m in all_ls_morphisms(S)}
    for m12, m1, m2 in _composable_triples(S):
        if raw[m12] != compose(raw[m1], raw[m2]):
            raise ConsistencyError(f"S({m1})S({m2}) != S({m12})")
    return True


# ---------------------------------------------------------------------------
# presheaf enumeration and random generation


class _FillStep(NamedTuple):
    """One depth of the presheaf backtracking: the morphism m assigned
    there, its domain d, and the composition squares, as morphism triples
    (m12, m1, m2), that decide it."""

    m: LSMorphism
    d: int
    forced: tuple      # m12 = m with m1, m2 assigned at an earlier depth
    checks: tuple      # through m, all three assigned by this depth,
                       # neither factor an identity


@memo
def _presheaf_skeleton(S: InverseSemigroup) -> tuple[_FillStep, ...]:
    """The plan of _fill_transitions, one step per non-identity morphism in
    assignment order; built once per base.  The identities are assigned
    first and the rest in this fixed order, so which squares force a
    morphism's table and which it can break are known before any search.
    A square with an identity factor holds by itself, the identities being
    assigned identity tables, so it is never checked."""
    idems = set(S.idempotents)
    morphs = all_ls_morphisms(S)
    squares = {m: [] for m in morphs}
    for square in _composable_triples(S):
        for m in set(square):
            squares[m].append(square)
    identities = {(e, e) for e in idems}
    assigned = set(identities)
    steps = []
    for m in morphs:
        if m in identities:
            continue
        forced = tuple(sq for sq in squares[m] if sq[0] == m
                       and sq[1] in assigned and sq[2] in assigned)
        assigned.add(m)
        checks = tuple(sq for sq in squares[m]
                       if all(k in assigned for k in sq)
                       and sq[1] not in identities and sq[2] not in identities)
        steps.append(_FillStep(m, S.semigroup.d(m.s), forced, checks))
    return tuple(steps)


@memo
def _valid_size_profiles(S: InverseSemigroup, max_fiber: int) -> tuple:
    """Every fiber-size profile, idempotent to size in 0..max_fiber, with no
    non-empty fiber mapping into an empty one, in product order; read-only,
    kept on S per max_fiber."""
    idems = list(S.idempotents)
    morphs = all_ls_morphisms(S)
    arrows = {(S.semigroup.d(m.s), m.e) for m in morphs}
    profiles = []
    for sizes in itertools.product(range(max_fiber + 1), repeat=len(idems)):
        profile = dict(zip(idems, sizes))
        ok = all(
            not (profile[e] > 0 and profile[d] == 0)
            for (d, e) in arrows
        )
        if ok:
            profiles.append(MappingProxyType(profile))
    return tuple(profiles)


def _fill_transitions(S, profile, rng=None):
    """Yield every presheaf with these fiber sizes: backtracking over the
    non-identity morphisms, each forced by its composites if any."""
    steps = _presheaf_skeleton(S)
    assign = {(e, e): tuple(range(profile[e])) for e in S.idempotents}
    # every table from the fiber at e to the fiber at d, per step morphism,
    # in product order; made once per profile and copied for each shuffle
    tables = {}

    # Nothing is undone on backtrack: at depth t, ``forced`` reads tables
    # placed at earlier depths and ``checks`` tables placed by this one, all
    # on the current path, as is every table of a full assignment.
    def candidates(t):
        step = steps[t]
        forced = None
        for _, m1, m2 in step.forced:
            composite = compose(assign[m2], assign[m1])
            if forced is not None and composite != forced:
                return []
            forced = composite
        if forced is not None:
            return [forced]
        opts = tables.get(step.m)
        if opts is None:
            opts = tables[step.m] = tuple(itertools.product(
                range(profile[step.d]), repeat=profile[step.m.e]))
        opts = list(opts)
        if rng is not None:
            rng.shuffle(opts)
        return opts

    def place(t, cand):
        step = steps[t]
        assign[step.m] = cand
        # the assignment was consistent before ``step.m`` was placed, so
        # only the squares through it can have broken
        for m12, m1, m2 in step.checks:
            if assign[m12] != compose(assign[m2], assign[m1]):
                return False
        return True

    # Each leaf is a presheaf, so validate_presheaf's sweep is not rerun:
    # every identity is the identity table, a square with an identity factor
    # holds by itself, ``place`` checked every other square once its three
    # morphisms were set, and the tables have their shapes by construction.
    fibers = {e: tuple(str(i) for i in range(n)) for e, n in profile.items()}
    for _ in backtrack(len(steps), candidates, place):
        yield Presheaf(S, fibers, dict(assign))


@takes(base=InverseSemigroup, max_fiber=NATURAL)
def enumerate_presheaves(base: InverseSemigroup, max_fiber: int):
    """All presheaves on L(base) with every fiber of size <= max_fiber,
    deterministic order, canonical string labels."""
    for profile in _valid_size_profiles(base, max_fiber):
        yield from _fill_transitions(base, profile)


@takes(base=InverseSemigroup, max_fiber=POSITIVE, rng=random.Random)
def random_presheaf(base: InverseSemigroup, max_fiber: int, rng) -> Presheaf:
    """One random valid presheaf, non-empty unless the base has no
    idempotents; deterministic for a given rng state."""
    profiles = [p for p in _valid_size_profiles(base, max_fiber)
                if sum(p.values()) > 0]
    rng.shuffle(profiles)
    for profile in profiles:
        for P in _fill_transitions(base, profile, rng=rng):
            return P
    # the all-ones profile always fills, so only a base without idempotents
    # gets here, and the empty presheaf is its one presheaf
    if base.idempotents:
        raise ConsistencyError("no valid presheaf found")
    return empty_presheaf.__wrapped__(base)
