"""The left cancellative category L(S) of an inverse semigroup, finite
presheaves on it, and the representable left involutive semigroups S(e).

Presheaves store a transition table for every L(S)-morphism, so validation
is pure table checking.  Fiber labels are opaque strings; internally each
fiber is addressed by dense indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
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
    classify,
    idempotents,
    is_etale,
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
    that the star is the unique quasi-inverse of each element."""
    report = classify(X)
    if not report.inverse:
        raise NotInverse(
            f"{X!r} is not inverse (witness {report.witness('inverse') or report.witness('commuting_projections')})"
        )
    return InverseSemigroup(X)


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


def ls_morphisms(S: InverseSemigroup, d: int, e: int) -> tuple[LSMorphism, ...]:
    """All morphisms d -> e, ascending element order."""
    sg = S.semigroup
    for v in (d, e):
        if sg.mul[v][v] != v:
            raise NotIdempotent(f"{v} is not idempotent")
    return tuple(
        LSMorphism(s, e)
        for s in sg.elements
        if sg.mul[sg.star[s]][s] == d and sg.mul[e][s] == s
    )


@cache
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


@cache
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

    def total_size(self) -> int:
        return sum(len(v) for v in self.fibers.values())

    def is_empty(self) -> bool:
        return self.total_size() == 0

    def __eq__(self, other):
        return (isinstance(other, Presheaf)
                and self.base == other.base
                and self.fibers == other.fibers
                and self.transitions == other.transitions)

    def __repr__(self):
        sizes = {e: len(v) for e, v in sorted(self.fibers.items())}
        return f"Presheaf({self.base!r}, fibers={sizes})"


def check_presheaf(base: InverseSemigroup, fibers, transitions):
    sg = base.semigroup
    problems = []
    fibers = {int(e): tuple(str(x) for x in labels) for e, labels in fibers.items()}
    transitions = {
        (int(s), int(e)): tuple(int(v) for v in vals)
        for (s, e), vals in transitions.items()
    }
    idems = set(base.idempotents)
    if set(fibers) != idems:
        raise ShapeError(f"fibers must be keyed by the idempotents {sorted(idems)}")
    for e, labels in fibers.items():
        if len(set(labels)) != len(labels):
            raise ShapeError(f"duplicate labels in fiber {e}")
    morphs = all_ls_morphisms(base)
    if set(transitions) != {(m.s, m.e) for m in morphs}:
        raise ShapeError("transitions must be keyed by every L(S)-morphism")
    for m in morphs:
        tr = transitions[(m.s, m.e)]
        d = ls_dom(base, m)
        if len(tr) != len(fibers[m.e]):
            raise ShapeError(f"transition along {m} has wrong length")
        if any(not 0 <= v < len(fibers[d]) for v in tr):
            raise ShapeError(f"transition along {m} maps outside fiber {d}")
    for e in base.idempotents:
        tr = transitions[(e, e)]
        if tr != tuple(range(len(fibers[e]))):
            problems.append(Violation("IdentityViolation", (e,)))
    for k12, k1, k2 in _composable_triples(base):
        t1, t2 = transitions[k1], transitions[k2]
        if transitions[k12] != tuple(t2[v] for v in t1):
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
    sg = S.semigroup
    if sg.mul[e][e] != e:
        raise NotIdempotent(f"{e} is not idempotent")
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
    if source.base != target.base:
        raise ShapeError("presheaf map needs a common base")
    base = source.base
    components = {int(e): tuple(int(v) for v in c) for e, c in components.items()}
    if set(components) != set(source.fibers):
        raise ShapeError("components must be keyed by every idempotent")
    for e, comp in components.items():
        if len(comp) != len(source.fiber(e)):
            raise ShapeError(f"component at {e} has wrong length")
        if any(not 0 <= v < len(target.fiber(e)) for v in comp):
            raise ShapeError(f"component at {e} maps outside the target fiber")
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


class RepresentableTables(NamedTuple):
    """S(e) as bare index tables over ``carrier``, not yet validated."""

    carrier: tuple[tuple[int, int], ...]
    mul: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]


@cache
def representable_tables(S: InverseSemigroup, e: int) -> RepresentableTables:
    """The carrier of S(e), the pairs (r, s) with d(s) = c(r) and es = s in
    lexicographic order, with the product (p, q)(r, s) = (pr, q c(pr)) and
    the star (r, s)* = (r*, sr) as index tables.  Built once per (S, e);
    representable_semigroup validates them, the Gamma search reads them."""
    sg = S.semigroup
    mul, star, c = sg.mul, sg.star, [sg.c(x) for x in sg.elements]
    if mul[e][e] != e:
        raise NotIdempotent(f"{e} is not idempotent")
    carrier = tuple((r, s) for r in sg.elements for s in sg.elements
                    if sg.d(s) == c[r] and mul[e][s] == s)
    pos = {pair: i for i, pair in enumerate(carrier)}
    se_mul = tuple(
        tuple(pos[(mul[p][r], mul[q][c[mul[p][r]]])] for r, _ in carrier)
        for p, q in carrier)
    se_star = tuple(pos[(star[r], mul[s][r])] for r, s in carrier)
    return RepresentableTables(carrier, se_mul, se_star)


@dataclass(frozen=True)
class RepresentableSemigroup:
    base: InverseSemigroup
    e: int
    carrier: tuple[tuple[int, int], ...]
    semigroup: FiniteStarSemigroup
    psi: StarMorphism


@cache
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
    return RepresentableSemigroup(S, e, carrier, se, psi)


def _check_against_lambda(S, e, se, carrier):
    # S(e) must equal Lambda(e-hat) element for element
    from . import topos

    ehat = representable_presheaf(S, e)
    LP = topos.lam(ehat)
    sg = S.semigroup
    fiber_elem = {
        d: [int(lbl) for lbl in ehat.fiber(d)] for d in S.idempotents
    }
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


def representable_action(S: InverseSemigroup, m: LSMorphism) -> StarMorphism:
    """S(m): S(d) -> S(e) over S, (u, v) |-> (u, m.s v)."""
    sg = S.semigroup
    d = ls_dom(S, m)
    src = representable_semigroup(S, d)
    tgt = representable_semigroup(S, m.e)
    tpos = {pair: i for i, pair in enumerate(tgt.carrier)}
    mapping = tuple(
        tpos[(u, sg.mul[m.s][v])] for (u, v) in src.carrier
    )
    f = StarMorphism(src.semigroup, tgt.semigroup, mapping,
                     name=f"S({m.s}->{m.e})")
    if not f.is_star_hom:
        raise ConsistencyError(f"S({m}) is not a *-homomorphism")
    if any(tgt.psi.map[f.map[i]] != src.psi.map[i]
           for i in range(src.semigroup.order)):
        raise ConsistencyError(f"S({m}) is not over S")
    _representable_functoriality(S)
    return f


@cache
def _representable_functoriality(S: InverseSemigroup) -> bool:
    """S(st) = S(s)S(t) for all composable pairs; ran once per base."""
    sg = S.semigroup
    morphs = all_ls_morphisms(S)
    raw = {}
    for m in morphs:
        d = ls_dom(S, m)
        src = representable_tables(S, d).carrier
        tgt = representable_tables(S, m.e).carrier
        tpos = {pair: i for i, pair in enumerate(tgt)}
        raw[(m.s, m.e)] = tuple(tpos[(u, sg.mul[m.s][v])] for (u, v) in src)
    for k12, k1, k2 in _composable_triples(S):
        if raw[k12] != tuple(raw[k1][v] for v in raw[k2]):
            m1, m2, m12 = (LSMorphism(*k) for k in (k1, k2, k12))
            raise ConsistencyError(f"S({m1})S({m2}) != S({m12})")
    return True


# ---------------------------------------------------------------------------
# presheaf enumeration and random generation


@cache
def _presheaf_skeleton(S: InverseSemigroup):
    """Non-identity morphisms in assignment order, and per morphism key the
    composition squares m = m1 m2 it takes part in, as key triples
    (m, m1, m2) in factorization order; built once per base."""
    idems = set(S.idempotents)
    morphs = all_ls_morphisms(S)
    nonid = tuple(m for m in morphs if not (m.s == m.e and m.s in idems))
    squares = {(m.s, m.e): [] for m in morphs}
    for square in _composable_triples(S):
        for key in set(square):
            squares[key].append(square)
    return nonid, {key: tuple(sq) for key, sq in squares.items()}


def _valid_size_profiles(S, max_fiber):
    idems = list(S.idempotents)
    morphs = all_ls_morphisms(S)
    arrows = {(ls_dom(S, m), m.e) for m in morphs}
    for sizes in itertools.product(range(max_fiber + 1), repeat=len(idems)):
        profile = dict(zip(idems, sizes))
        ok = all(
            not (profile[e] > 0 and profile[d] == 0)
            for (d, e) in arrows
        )
        if ok:
            yield profile


def _fill_transitions(S, profile, rng=None):
    """Yield complete transition assignments for the given fiber sizes via
    backtracking over non-identity morphisms with forced composites."""
    idems = list(S.idempotents)
    nonid, squares = _presheaf_skeleton(S)
    assign = {(e, e): tuple(range(profile[e])) for e in idems}

    def candidates(m):
        key = (m.s, m.e)
        forced = None
        for k12, k1, k2 in squares[key]:
            if k12 == key and k1 in assign and k2 in assign:
                t = tuple(assign[k2][v] for v in assign[k1])
                if forced is not None and t != forced:
                    return []
                forced = t
        if forced is not None:
            return [forced]
        size_e, size_d = profile[m.e], profile[ls_dom(S, m)]
        opts = list(itertools.product(range(size_d), repeat=size_e))
        if rng is not None:
            rng.shuffle(opts)
        return opts

    def consistent(key):
        # the assignment was consistent before ``key`` was assigned, so only
        # the squares through ``key`` can have broken
        for k12, k1, k2 in squares[key]:
            if k12 in assign and k1 in assign and k2 in assign:
                t1, t2 = assign[k1], assign[k2]
                if assign[k12] != tuple(t2[v] for v in t1):
                    return False
        return True

    def fill(k):
        if k == len(nonid):
            yield dict(assign)
            return
        m = nonid[k]
        key = (m.s, m.e)
        for cand in candidates(m):
            assign[key] = cand
            if consistent(key):
                yield from fill(k + 1)
            del assign[key]

    yield from fill(0)


def enumerate_presheaves(S: InverseSemigroup, max_fiber: int):
    """All presheaves on L(S) with every fiber of size <= max_fiber,
    deterministic order, canonical string labels."""
    for profile in _valid_size_profiles(S, max_fiber):
        fibers = {e: tuple(str(i) for i in range(n))
                  for e, n in profile.items()}
        for transitions in _fill_transitions(S, profile):
            yield validate_presheaf(S, fibers, transitions)


def random_presheaf(S: InverseSemigroup, max_fiber: int, rng) -> Presheaf:
    """One random valid presheaf; deterministic for a given rng state."""
    profiles = [p for p in _valid_size_profiles(S, max_fiber)
                if sum(p.values()) > 0]
    rng.shuffle(profiles)
    for profile in profiles:
        for transitions in _fill_transitions(S, profile, rng=rng):
            fibers = {e: tuple(str(i) for i in range(n))
                      for e, n in profile.items()}
            return validate_presheaf(S, fibers, transitions)
    raise ConsistencyError("no valid presheaf found")
