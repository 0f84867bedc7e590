"""The left cancellative category L(S) of an inverse semigroup, finite
presheaves on it, and the representable left involutive semigroups S(e).

Presheaves store a transition table for every L(S)-morphism, so validation
is pure table checking.  Fiber labels are opaque strings; internally each
fiber is addressed by dense indices.

What depends on the base alone (its L(S)-morphisms, the presheaf search
plan, the S(e) tables and semigroups) is kept on the ``InverseSemigroup``
with ``core.memo``, and ``as_inverse`` shares one per semigroup while held
(``core.shared``), so it is built once per base while some holder keeps the
wrapper, and is freed with the last holder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    ConsistencyError,
    FiniteStarSemigroup,
    Invalid,
    NotIdempotent,
    ShapeError,
    StarError,
    StarMorphism,
    Violation,
    _check_element,
    check_instance,
    classify,
    compose,
    freeze,
    idempotents,
    is_etale,
    memo,
    shared,
    validate_star_semigroup,
)


class NotInverse(StarError):
    pass


class PresheafInvalid(Invalid):
    pass


class NotNatural(StarError):
    pass


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


def as_inverse(X: FiniteStarSemigroup) -> InverseSemigroup:
    """Wrap X as an inverse semigroup: classify's inverse flag already means
    that the star is the unique quasi-inverse of each element.  One wrapper
    per semigroup object while held (``core.shared``); X does not refer to
    it."""
    report = classify(X)
    if not report.inverse:
        raise NotInverse(
            f"{X!r} is not inverse (witness {report.witness('inverse') or report.witness('commuting_projections')})"
        )
    return shared(("inverse", id(X)), InverseSemigroup, X)


@dataclass(frozen=True)
class LSMorphism:
    """A morphism s: d -> e of L(S): s*s = d and es = s."""

    s: int
    e: int

    def __repr__(self):
        return f"({self.s} -> {self.e})"


def ls_dom(S: InverseSemigroup, m: LSMorphism) -> int:
    sg = S.semigroup
    return sg.mul[sg.star[m.s]][m.s]


def _check_idempotent(S: InverseSemigroup, e):
    sg = S.semigroup
    _check_element(sg, e)
    if sg.mul[e][e] != e:
        raise NotIdempotent(f"{e} is not idempotent")


def ls_morphisms(S: InverseSemigroup, d: int, e: int) -> tuple[LSMorphism, ...]:
    """All morphisms d -> e, ascending element order."""
    _check_idempotent(S, d)
    _check_idempotent(S, e)
    sg = S.semigroup
    return tuple(
        LSMorphism(s, e)
        for s in sg.elements
        if sg.mul[sg.star[s]][s] == d and sg.mul[e][s] == s
    )


@memo
def all_ls_morphisms(S: InverseSemigroup) -> tuple[LSMorphism, ...]:
    sg = S.semigroup
    return tuple(
        LSMorphism(s, e)
        for e in S.idempotents
        for s in sg.elements
        if sg.mul[e][s] == s
    )


def compose_ls(S: InverseSemigroup, m1: LSMorphism, m2: LSMorphism) -> LSMorphism:
    """m1 after m2: for m1: d -> e and m2: c -> d the product m1.s * m2.s."""
    if ls_dom(S, m1) != m2.e:
        raise ShapeError(f"{m1} and {m2} are not composable")
    return LSMorphism(S.semigroup.mul[m1.s][m2.s], m1.e)


@memo
def _composable_triples(S: InverseSemigroup):
    """Every composite m12 = m1 m2 of L(S) as key triples (m12, m1, m2),
    keys (s, e), in (m1, m2) order; built once per base."""
    morphs = all_ls_morphisms(S)
    return tuple(
        ((S.semigroup.mul[m1.s][m2.s], m1.e), (m1.s, m1.e), (m2.s, m2.e))
        for m1 in morphs
        for m2 in morphs
        if ls_dom(S, m1) == m2.e
    )


@dataclass(frozen=True)
class PullbackSquare:
    apex: int
    to_dom_first: LSMorphism   # apex -> dom(s)
    to_dom_second: LSMorphism  # apex -> dom(t)


def ls_pullback(S: InverseSemigroup, s: LSMorphism, t: LSMorphism) -> PullbackSquare:
    """The chosen pullback of s and t over their common codomain, with the
    universal property verified by exhaustive cone search."""
    if s.e != t.e:
        raise ShapeError("pullback legs need a common codomain")
    sg = S.semigroup
    cs = sg.c(s.s)
    ct = sg.c(t.s)
    apex = sg.mul[cs][ct]
    ds, dt = ls_dom(S, s), ls_dom(S, t)
    leg1 = LSMorphism(sg.mul[sg.star[s.s]][ct], ds)
    leg2 = LSMorphism(sg.mul[sg.star[t.s]][cs], dt)
    if ls_dom(S, leg1) != apex or ls_dom(S, leg2) != apex:
        raise ConsistencyError("pullback legs have the wrong domain")
    if compose_ls(S, s, leg1).s != compose_ls(S, t, leg2).s:
        raise ConsistencyError("chosen pullback square does not commute")
    for b in S.idempotents:
        for u in ls_morphisms(S, b, ds):
            for v in ls_morphisms(S, b, dt):
                if sg.mul[s.s][u.s] != sg.mul[t.s][v.s]:
                    continue
                hits = [
                    w
                    for w in ls_morphisms(S, b, apex)
                    if sg.mul[leg1.s][w.s] == u.s and sg.mul[leg2.s][w.s] == v.s
                ]
                if len(hits) != 1:
                    raise ConsistencyError(
                        f"universal property fails for cone ({u}, {v}): {hits}"
                    )
    return PullbackSquare(apex, leg1, leg2)


# ---------------------------------------------------------------------------
# presheaves


@dataclass
class Presheaf:
    base: InverseSemigroup
    fibers: dict[int, tuple[str, ...]]
    transitions: dict[tuple[int, int], tuple[int, ...]]

    def fiber(self, e: int) -> tuple[str, ...]:
        return self.fibers[e]

    def transition(self, s: int, e: int) -> tuple[int, ...]:
        return self.transitions[(s, e)]

    def is_empty(self) -> bool:
        return not any(self.fibers.values())

    def __eq__(self, other):
        return (isinstance(other, Presheaf)
                and self.base == other.base
                and self.fibers == other.fibers
                and self.transitions == other.transitions)

    def __repr__(self):
        sizes = {e: len(v) for e, v in sorted(self.fibers.items())}
        return f"Presheaf({self.base!r}, fibers={sizes})"


@memo
def _transition_shapes(S: InverseSemigroup):
    """Per L(S)-morphism key (s, e), the field name that a shape error
    gives its transition, and its domain s*s; built once per base."""
    return {(m.s, m.e): (f"transition along {m}", ls_dom(S, m))
            for m in all_ls_morphisms(S)}


def _keys(table, field, stop, width=None):
    """Check the keys of a dict argument as one row, or with ``width`` as a
    table, of ints in 0..stop-1."""
    if not isinstance(table, dict):
        raise ShapeError(f"{field}s must be a dict, got {type(table).__name__}")
    freeze(table, f"{field} key", stop, width=width)


def check_presheaf(base: InverseSemigroup, fibers, transitions):
    check_instance(base, InverseSemigroup, "base")
    sg = base.semigroup
    problems = []
    _keys(fibers, "fiber", sg.order)
    _keys(transitions, "transition", sg.order, width=2)
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
    for k12, k1, k2 in _composable_triples(base):
        if transitions[k12] != compose(transitions[k2], transitions[k1]):
            problems.append(Violation("CompositionViolation", (k1, k2)))
    return fibers, transitions, problems


def validate_presheaf(base: InverseSemigroup, fibers, transitions) -> Presheaf:
    fibers, transitions, problems = check_presheaf(base, fibers, transitions)
    if problems:
        raise PresheafInvalid(problems)
    return Presheaf(base, fibers, transitions)


def terminal_presheaf(S: InverseSemigroup) -> Presheaf:
    fibers = {e: ("*",) for e in S.idempotents}
    transitions = {(m.s, m.e): (0,) for m in all_ls_morphisms(S)}
    return validate_presheaf(S, fibers, transitions)


def empty_presheaf(S: InverseSemigroup) -> Presheaf:
    fibers = {e: () for e in S.idempotents}
    transitions = {(m.s, m.e): () for m in all_ls_morphisms(S)}
    return validate_presheaf(S, fibers, transitions)


def representable_presheaf(S: InverseSemigroup, e: int) -> Presheaf:
    """e-hat: fiber at d is Hom(d, e), transition by composition."""
    _check_idempotent(S, e)
    homs = {d: ls_morphisms(S, d, e) for d in S.idempotents}
    fibers = {d: tuple(str(m.s) for m in homs[d]) for d in S.idempotents}
    transitions = {}
    for t in all_ls_morphisms(S):
        d = t.e
        c = ls_dom(S, t)
        pos = {m.s: i for i, m in enumerate(homs[c])}
        transitions[(t.s, t.e)] = tuple(
            pos[compose_ls(S, m, t).s] for m in homs[d]
        )
    return validate_presheaf(S, fibers, transitions)


@dataclass
class PresheafMap:
    """A natural transformation between presheaves on the same base."""

    source: Presheaf
    target: Presheaf
    components: dict[int, tuple[int, ...]]


def validate_presheaf_map(source: Presheaf, target: Presheaf, components) -> PresheafMap:
    check_instance(source, Presheaf, "source")
    check_instance(target, Presheaf, "target")
    if source.base != target.base:
        raise ShapeError("presheaf map needs a common base")
    base = source.base
    _keys(components, "component", base.order)
    if set(components) != set(source.fibers):
        raise ShapeError("components must be keyed by every idempotent")
    components = {
        e: freeze(c, f"component at {e}", len(target.fiber(e)),
                  length=len(source.fiber(e)))
        for e, c in components.items()}
    for m in all_ls_morphisms(base):
        d = ls_dom(base, m)
        src_t = source.transition(m.s, m.e)
        tgt_t = target.transition(m.s, m.e)
        for i in range(len(source.fiber(m.e))):
            if components[d][src_t[i]] != tgt_t[components[m.e][i]]:
                raise NotNatural(f"naturality square fails along {m} at {i}")
    return PresheafMap(source, target, components)


# ---------------------------------------------------------------------------
# representable semigroups S(e)


class _SeTables(NamedTuple):
    carrier: tuple[tuple[int, int], ...]
    mul: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]


class RepresentableTables(_SeTables):
    """S(e) as bare index tables over ``carrier``, not yet validated, for
    the idempotent ``e``.  Not slotted, so that what is derived from S(e)
    alone (the generic Gamma search plan, topos._gamma_plan) is kept on the
    tables with core.memo and lives exactly as long as they do."""

    def __new__(cls, carrier, mul, star, e):
        tables = super().__new__(cls, carrier, mul, star)
        tables.e = e
        return tables


# the idempotent check runs before the memo is read, so that an unhashable,
# float or bool e is refused, never a TypeError or the entry of 0 or 1
@partial(memo, check=_check_idempotent)
def representable_tables(S: InverseSemigroup, e: int) -> RepresentableTables:
    """The carrier of S(e), the pairs (r, s) with d(s) = c(r) and es = s in
    lexicographic order, with the product (p, q)(r, s) = (pr, q c(pr)) and
    the star (r, s)* = (r*, sr) as index tables.  Kept on S per e;
    representable_semigroup validates them, the Gamma search reads them."""
    sg = S.semigroup
    mul, star, c = sg.mul, sg.star, [sg.c(x) for x in sg.elements]
    carrier = tuple((r, s) for r in sg.elements for s in sg.elements
                    if sg.d(s) == c[r] and mul[e][s] == s)
    pos = {pair: i for i, pair in enumerate(carrier)}
    se_mul = tuple(
        tuple(pos[(mul[p][r], mul[q][c[mul[p][r]]])] for r, _ in carrier)
        for p, q in carrier)
    se_star = tuple(pos[(star[r], mul[s][r])] for r, s in carrier)
    return RepresentableTables(carrier, se_mul, se_star, e)


@dataclass(frozen=True)
class RepresentableSemigroup:
    e: int
    carrier: tuple[tuple[int, int], ...]
    semigroup: FiniteStarSemigroup
    psi: StarMorphism


@partial(memo, check=_check_idempotent)
def representable_semigroup(S: InverseSemigroup, e: int) -> RepresentableSemigroup:
    """S(e) with structure map psi(r, s) = r; validated left involutive with
    psi an etale *-homomorphism, and cross-checked against Lambda(e-hat)."""
    sg = S.semigroup
    carrier, mul, star = representable_tables(S, e)
    sename = f"S({sg.name}|{e})" if sg.name else f"S(?|{e})"
    se = validate_star_semigroup(len(carrier), mul, star, name=sename)
    if not classify(se).left_involutive:
        raise ConsistencyError(f"{sename} is not left involutive")
    psi = StarMorphism(se, sg, tuple(r for r, s in carrier), name=f"psi_{e}")
    if not psi.is_star_hom:
        raise ConsistencyError(f"psi_{e} is not a *-homomorphism")
    if not is_etale(psi):
        raise ConsistencyError(f"psi_{e} is not etale")
    _check_against_lambda(S, e, se, carrier)
    return RepresentableSemigroup(e, carrier, se, psi)


def _check_against_lambda(S, e, se, carrier):
    # S(e) must equal Lambda(e-hat) element for element; topos imports
    # this module, so it is imported here, at call time
    from . import topos

    LP = topos.lam(representable_presheaf(S, e))
    sg = S.semigroup
    # the fiber of e-hat at d lists Hom(d, e) in this order
    fiber_elem = {d: [m.s for m in ls_morphisms(S, d, e)]
                  for d in S.idempotents}
    mapping = []
    for (r, x) in LP.pairs:
        s = fiber_elem[sg.c(r)][x]
        mapping.append(carrier.index((r, s)))
    if sorted(mapping) != list(range(len(carrier))):
        raise ConsistencyError("Lambda(e-hat) and S(e) carriers differ")
    lsg = LP.semigroup
    for i in range(lsg.order):
        if se.star[mapping[i]] != mapping[lsg.star[i]]:
            raise ConsistencyError("Lambda(e-hat) and S(e) stars differ")
        for j in range(lsg.order):
            if se.mul[mapping[i]][mapping[j]] != mapping[lsg.mul[i][j]]:
                raise ConsistencyError("Lambda(e-hat) and S(e) products differ")


@memo
def _action_table(S: InverseSemigroup, m: LSMorphism) -> tuple[int, ...]:
    """S(m) as an index table from the S(d) to the S(e) carrier."""
    mul_s = S.semigroup.mul[m.s]
    tpos = {pair: i for i, pair in
            enumerate(representable_tables(S, m.e).carrier)}
    return tuple(tpos[(u, mul_s[v])]
                 for u, v in representable_tables(S, ls_dom(S, m)).carrier)


def representable_action(S: InverseSemigroup, m: LSMorphism) -> StarMorphism:
    """S(m): S(d) -> S(e) over S, (u, v) |-> (u, m.s v)."""
    src = representable_semigroup(S, ls_dom(S, m))
    tgt = representable_semigroup(S, m.e)
    f = StarMorphism(src.semigroup, tgt.semigroup, _action_table(S, m),
                     name=f"S({m.s}->{m.e})")
    if not f.is_star_hom:
        raise ConsistencyError(f"S({m}) is not a *-homomorphism")
    if any(tgt.psi.map[f.map[i]] != src.psi.map[i]
           for i in range(src.semigroup.order)):
        raise ConsistencyError(f"S({m}) is not over S")
    _representable_functoriality(S)
    return f


@memo
def _representable_functoriality(S: InverseSemigroup) -> bool:
    """S(st) = S(s)S(t) for all composable pairs; ran once per base."""
    raw = {(m.s, m.e): _action_table(S, m) for m in all_ls_morphisms(S)}
    for k12, k1, k2 in _composable_triples(S):
        if raw[k12] != compose(raw[k1], raw[k2]):
            m1, m2, m12 = (LSMorphism(*k) for k in (k1, k2, k12))
            raise ConsistencyError(f"S({m1})S({m2}) != S({m12})")
    return True


# ---------------------------------------------------------------------------
# presheaf enumeration and random generation


class _FillStep(NamedTuple):
    """One depth of the presheaf backtracking: the morphism assigned there
    (its key, codomain e and domain d) and the composition squares, as key
    triples (m12, m1, m2), that decide it."""

    key: tuple[int, int]
    e: int
    d: int
    forced: tuple      # m12 = key with m1, m2 assigned at an earlier depth
    checks: tuple      # through key, all three keys assigned by this depth,
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
    squares = {(m.s, m.e): [] for m in morphs}
    for square in _composable_triples(S):
        for key in set(square):
            squares[key].append(square)
    identities = {(e, e) for e in idems}
    assigned = set(identities)
    steps = []
    for m in morphs:
        if m.s == m.e and m.s in idems:
            continue
        key = (m.s, m.e)
        forced = tuple(sq for sq in squares[key] if sq[0] == key
                       and sq[1] in assigned and sq[2] in assigned)
        assigned.add(key)
        checks = tuple(sq for sq in squares[key]
                       if all(k in assigned for k in sq)
                       and sq[1] not in identities and sq[2] not in identities)
        steps.append(_FillStep(key, m.e, ls_dom(S, m), forced, checks))
    return tuple(steps)


@memo
def _valid_size_profiles(S: InverseSemigroup, max_fiber: int) -> tuple:
    """Every fiber-size profile, idempotent to size in 0..max_fiber, with no
    non-empty fiber mapping into an empty one, in product order; read-only,
    kept on S per max_fiber."""
    idems = list(S.idempotents)
    morphs = all_ls_morphisms(S)
    arrows = {(ls_dom(S, m), m.e) for m in morphs}
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
    """Yield complete transition assignments for the given fiber sizes via
    backtracking over non-identity morphisms with forced composites."""
    steps = _presheaf_skeleton(S)
    assign = {(e, e): tuple(range(profile[e])) for e in S.idempotents}
    # every table from the fiber at e to the fiber at d, per step key, in
    # product order; made once per profile and copied for each shuffle
    tables = {}

    def candidates(step):
        forced = None
        for _, k1, k2 in step.forced:
            t = compose(assign[k2], assign[k1])
            if forced is not None and t != forced:
                return []
            forced = t
        if forced is not None:
            return [forced]
        opts = tables.get(step.key)
        if opts is None:
            opts = tables[step.key] = tuple(itertools.product(
                range(profile[step.d]), repeat=profile[step.e]))
        opts = list(opts)
        if rng is not None:
            rng.shuffle(opts)
        return opts

    def consistent(step):
        # the assignment was consistent before ``step.key`` was assigned, so
        # only the squares through it can have broken
        for k12, k1, k2 in step.checks:
            if assign[k12] != compose(assign[k2], assign[k1]):
                return False
        return True

    def fill(k):
        if k == len(steps):
            yield dict(assign)
            return
        step = steps[k]
        for cand in candidates(step):
            assign[step.key] = cand
            if consistent(step):
                yield from fill(k + 1)
            del assign[step.key]

    yield from fill(0)


def _check_generator_args(S, max_fiber, least):
    check_instance(S, InverseSemigroup, "base")
    if type(max_fiber) is not int or max_fiber < least:
        raise ShapeError(f"max_fiber must be an integer >= {least}, "
                         f"got {max_fiber!r}")


def enumerate_presheaves(S: InverseSemigroup, max_fiber: int):
    """All presheaves on L(S) with every fiber of size <= max_fiber,
    deterministic order, canonical string labels."""
    _check_generator_args(S, max_fiber, 0)
    for profile in _valid_size_profiles(S, max_fiber):
        fibers = {e: tuple(str(i) for i in range(n))
                  for e, n in profile.items()}
        for transitions in _fill_transitions(S, profile):
            yield validate_presheaf(S, fibers, transitions)


def random_presheaf(S: InverseSemigroup, max_fiber: int, rng) -> Presheaf:
    """One random valid presheaf; deterministic for a given rng state."""
    _check_generator_args(S, max_fiber, 1)
    profiles = [p for p in _valid_size_profiles(S, max_fiber)
                if sum(p.values()) > 0]
    rng.shuffle(profiles)
    for profile in profiles:
        for transitions in _fill_transitions(S, profile, rng=rng):
            fibers = {e: tuple(str(i) for i in range(n))
                      for e, n in profile.items()}
            return validate_presheaf(S, fibers, transitions)
    raise ConsistencyError("no valid presheaf found")
