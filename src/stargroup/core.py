"""Finite *-semigroup kernel: validation, classification, partial orders,
morphism predicates and the etale machinery.

Elements are dense indices 0..n-1.  Multiplication is a row-major table and
the involution a permutation table, so every identity is checked by a direct
table sweep.  All witnesses are the lexicographically least violating tuple,
which keeps reports deterministic regardless of how a sweep is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple


class StarError(Exception):
    """Base error for this package."""


class ShapeError(StarError):
    pass


class NotIdempotent(StarError):
    pass


class NotProjection(StarError):
    pass


class NotLocallyInvolutive(StarError):
    pass


class NotLeftStarHom(StarError):
    pass


class NotEtale(StarError):
    pass


class NoLift(StarError):
    pass


class ConsistencyError(StarError):
    """Two independently computed answers disagree: an implementation bug."""


class OrderMismatch(ConsistencyError):
    pass


class EquivalenceBroken(ConsistencyError):
    pass


ASSOCIATIVITY = "AssociativityViolation"
INVOLUTION = "InvolutionViolation"
PARTIAL_ISOMETRY = "PartialIsometryViolation"


class Violation(NamedTuple):
    """One failed axiom or identity: its kind and its least witness."""

    kind: str
    witness: tuple

    def __str__(self):
        return f"{self.kind}{self.witness}"


@dataclass(frozen=True)
class Verdict:
    """What a check found: its violations in the order found, each kept
    once.  ``ok`` (and truth) when there are none; ``witness`` is the first
    violation's witness."""

    violations: tuple[Violation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "violations",
                           tuple(dict.fromkeys(self.violations)))

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def witness(self):
        return self.violations[0].witness if self.violations else None

    def __bool__(self):
        return self.ok


class memo:
    """A per-object memo, as functools.cached_property: the first read
    computes the value and stores it on the object, where later reads find
    it.  It stores with setattr, because cached_property writes through
    ``__dict__``, which on CPython 3.11 moves all of the object's attributes
    into a dict and slows every later attribute read on the object.

    On a module function of one object, ``func(obj)`` is memoised the same
    way, stored on ``obj`` under the function's name (which the object's
    class must not otherwise use).  An error is never kept."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__
        self.__wrapped__ = func

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.name, value)
        return value

    def __call__(self, obj):
        value = getattr(obj, self.name, _UNSET)
        return self.__get__(obj) if value is _UNSET else value


_UNSET = object()


class Invalid(StarError):
    """A structure fails its axioms; ``violations`` lists every failure."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(map(str, self.violations)))


class InvalidStarSemigroup(Invalid):
    pass


@dataclass(frozen=True)
class FiniteStarSemigroup:
    """A finite semigroup with involution; every element a partial isometry."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    name: str | None = None

    @property
    def elements(self) -> range:
        return range(self.order)

    def m(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def s(self, x: int) -> int:
        return self.star[x]

    def d(self, x: int) -> int:
        """Domain x*x."""
        return self.mul[self.star[x]][x]

    def c(self, x: int) -> int:
        """Codomain xx*."""
        return self.mul[x][self.star[x]]

    def __repr__(self):
        tag = self.name or "?"
        return f"FiniteStarSemigroup({tag}, order={self.order})"


def same_tables(x: FiniteStarSemigroup, y: FiniteStarSemigroup) -> bool:
    """Table-for-table equality, ignoring names."""
    return x.order == y.order and x.mul == y.mul and x.star == y.star


def _freeze_tables(order, mul, star):
    if not isinstance(order, int) or order < 1:
        raise ShapeError(f"order must be a positive integer, got {order!r}")
    try:
        mul = tuple(map(tuple, mul))
        star = tuple(star)
    except TypeError as exc:
        raise ShapeError(f"tables are not integer tables: {exc}") from None
    if len(mul) != order or any(len(row) != order for row in mul):
        raise ShapeError(f"mul must be a {order}x{order} table")
    if len(star) != order:
        raise ShapeError(f"star must have length {order}")
    for row in mul:
        _check_entries(row, order, "mul")
    _check_entries(star, order, "star")
    return mul, star


def _check_entries(values, stop, what):
    """Every entry an int in 0..stop-1: a float, string or bool is refused,
    never converted."""
    if not all(type(v) is int for v in values):
        raise ShapeError(f"{what} entries must be integers, got {values!r}")
    if not in_range(values, stop):
        raise ShapeError(f"{what} entry out of range 0..{stop - 1}")


def in_range(values, stop, start=0) -> bool:
    """Whether every value of a sequence lies in start..stop-1 (true when
    there are none)."""
    return not values or (start <= min(values) and max(values) < stop)


def check_star_semigroup(order, mul, star) -> tuple[Violation, ...]:
    """All violated *-semigroup axioms, least witness each; empty if valid."""
    return _axiom_violations(order, *_freeze_tables(order, mul, star))


def _axiom_violations(order, mul, star):
    out = []
    rng = range(order)
    witness = next(
        ((x, y, z) for x in rng for y in rng for z in rng
         if mul[mul[x][y]][z] != mul[x][mul[y][z]]),
        None,
    )
    if witness is not None:
        out.append(Violation(ASSOCIATIVITY, witness))
    witness = next(((x,) for x in rng if star[star[x]] != x), None)
    if witness is not None:
        out.append(Violation(INVOLUTION, witness))
    witness = next(((x,) for x in rng if mul[mul[x][star[x]]][x] != x), None)
    if witness is not None:
        out.append(Violation(PARTIAL_ISOMETRY, witness))
    return tuple(out)


def validate_star_semigroup(order, mul, star, name=None) -> FiniteStarSemigroup:
    """Validate raw tables; raises InvalidStarSemigroup with all witnesses."""
    mul, star = _freeze_tables(order, mul, star)
    violations = _axiom_violations(order, mul, star)
    if violations:
        raise InvalidStarSemigroup(violations)
    return FiniteStarSemigroup(order, mul, star, name)


def _check_element(X: FiniteStarSemigroup, x: int):
    if not 0 <= x < X.order:
        raise ShapeError(f"element {x} out of range for order {X.order}")


def dom(X: FiniteStarSemigroup, x: int) -> int:
    _check_element(X, x)
    e = X.d(x)
    if X.mul[e][e] != e:
        raise ConsistencyError(f"domain {e} of {x} is not idempotent")
    return e


def cod(X: FiniteStarSemigroup, x: int) -> int:
    _check_element(X, x)
    e = X.c(x)
    if X.mul[e][e] != e:
        raise ConsistencyError(f"codomain {e} of {x} is not idempotent")
    return e


@cache
def idempotents(X: FiniteStarSemigroup) -> tuple[int, ...]:
    return tuple(x for x in X.elements if X.mul[x][x] == x)


@cache
def projections(X: FiniteStarSemigroup) -> tuple[int, ...]:
    return tuple(x for x in X.elements
                 if X.mul[x][x] == x and X.star[x] == x)


def idempotent_leq(X: FiniteStarSemigroup, e: int, f: int) -> bool:
    """e <= f in the idempotent order: e = ef = fe."""
    _check_element(X, e)
    _check_element(X, f)
    if X.mul[e][e] != e:
        raise NotIdempotent(f"{e} is not idempotent")
    if X.mul[f][f] != f:
        raise NotIdempotent(f"{f} is not idempotent")
    return X.mul[e][f] == e and X.mul[f][e] == e


def _idem_leq(X, e, f):
    # internal fast path: e, f known idempotent
    return X.mul[e][f] == e and X.mul[f][e] == e


FLAG_NAMES = (
    "restrictive", "corestrictive", "birestrictive", "involutive",
    "left_involutive", "right_involutive", "locally_involutive",
    "quasi_involutive", "inverse", "commuting_projections",
)


@dataclass(frozen=True)
class ClassificationReport:
    restrictive: bool
    corestrictive: bool
    birestrictive: bool
    involutive: bool
    left_involutive: bool
    right_involutive: bool
    locally_involutive: bool
    quasi_involutive: bool
    inverse: bool
    commuting_projections: bool
    witnesses: tuple[tuple[str, tuple], ...] = ()

    def flag(self, name: str) -> bool:
        if name not in FLAG_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def witness(self, name: str):
        for flag, wit in self.witnesses:
            if flag == name:
                return wit
        return None


def _first_pair(X, pred):
    for x in X.elements:
        for y in X.elements:
            if not pred(x, y):
                return (x, y)
    return None


def _restrictive_witness(X):
    return _first_pair(X, lambda x, y: _idem_leq(X, X.d(X.mul[x][y]), X.d(y)))


def _corestrictive_witness(X):
    return _first_pair(X, lambda x, y: _idem_leq(X, X.c(X.mul[x][y]), X.c(x)))


def _birestrictive_witness(X):
    # the defining identity is recomputed, not the conjunction of flags
    return _first_pair(
        X,
        lambda x, y: _idem_leq(X, X.d(X.mul[x][y]), X.d(y))
        and _idem_leq(X, X.c(X.mul[x][y]), X.c(x)),
    )


def _involutive_witness(X):
    return _first_pair(
        X,
        lambda x, y: X.star[X.mul[x][y]] == X.mul[X.star[y]][X.star[x]],
    )


def _left_involutive_witness(X):
    return _first_pair(
        X,
        lambda x, y: X.star[X.mul[x][y]]
        == X.mul[X.star[X.mul[X.d(x)][y]]][X.star[x]],
    )


def _right_involutive_witness(X):
    return _first_pair(
        X,
        lambda x, y: X.star[X.mul[x][y]]
        == X.mul[X.star[y]][X.star[X.mul[x][X.c(y)]]],
    )


def _locally_involutive_witness(X):
    # exactly the three trigger conditions; no other pairs are tested
    projs = set(projections(X))
    for x in X.elements:
        for y in X.elements:
            triggered = (
                X.d(x) == X.c(y)
                or (x in projs and _idem_leq(X, x, X.c(y)))
                or (y in projs and _idem_leq(X, y, X.d(x)))
            )
            if triggered and X.star[X.mul[x][y]] != X.mul[X.star[y]][X.star[x]]:
                return (x, y)
    return None


def _quasi_involutive_witness(X):
    w = _birestrictive_witness(X)
    if w is not None:
        return w
    return _locally_involutive_witness(X)


def _commuting_projections_witness(X):
    projs = projections(X)
    for p in projs:
        for q in projs:
            if X.mul[p][q] != X.mul[q][p]:
                return (p, q)
    return None


def _unique_quasi_inverse_witness(X):
    """Least (x, y) with y a second quasi-inverse of x, if any.

    In a *-semigroup x* is always a quasi-inverse of x, so failure means
    some x has a quasi-inverse y != x*.
    """
    for x in X.elements:
        for y in X.elements:
            if y == X.star[x]:
                continue
            if X.mul[X.mul[x][y]][x] == x and X.mul[X.mul[y][x]][y] == y:
                return (x, y)
    return None


@cache
def classify(X: FiniteStarSemigroup) -> ClassificationReport:
    """Classify X into the semigroup hierarchy.

    Every flag is computed from its own defining identity, never derived
    from another flag, so the implication lattice between flags is a real
    cross-check downstream.  The ``inverse`` flag is computed twice, by
    uniqueness of quasi-inverses and as quasi-involutive + commuting
    projections; disagreement raises ConsistencyError.
    """
    finders = {
        "restrictive": _restrictive_witness,
        "corestrictive": _corestrictive_witness,
        "birestrictive": _birestrictive_witness,
        "involutive": _involutive_witness,
        "left_involutive": _left_involutive_witness,
        "right_involutive": _right_involutive_witness,
        "locally_involutive": _locally_involutive_witness,
        "quasi_involutive": _quasi_involutive_witness,
        "commuting_projections": _commuting_projections_witness,
    }
    flags = {}
    witnesses = []
    for flag_name, finder in finders.items():
        wit = finder(X)
        flags[flag_name] = wit is None
        if wit is not None:
            witnesses.append((flag_name, wit))

    quasi_wit = _unique_quasi_inverse_witness(X)
    inverse_direct = quasi_wit is None
    inverse_via_props = flags["quasi_involutive"] and flags["commuting_projections"]
    if inverse_direct != inverse_via_props:
        raise ConsistencyError(
            f"inverse checks disagree on {X!r}: "
            f"unique-quasi-inverse={inverse_direct}, "
            f"quasi-involutive+commuting={inverse_via_props}"
        )
    flags["inverse"] = inverse_direct
    if quasi_wit is not None:
        witnesses.append(("inverse", quasi_wit))

    return ClassificationReport(witnesses=tuple(witnesses), **flags)


# ---------------------------------------------------------------------------
# partial orders


def leq_left(X: FiniteStarSemigroup, x: int, y: int) -> bool:
    """x <=_l y: d(x) <= d(y) and x = y d(x)."""
    _check_element(X, x)
    _check_element(X, y)
    dx, dy = X.d(x), X.d(y)
    return _idem_leq(X, dx, dy) and x == X.mul[y][dx]


def leq_right(X: FiniteStarSemigroup, x: int, y: int) -> bool:
    """x <=_r y: c(x) <= c(y) and x = c(x) y."""
    _check_element(X, x)
    _check_element(X, y)
    cx, cy = X.c(x), X.c(y)
    return _idem_leq(X, cx, cy) and x == X.mul[cx][y]


@dataclass(frozen=True)
class Relation:
    """A materialized relation on 0..size-1, one bitmask row per element."""

    size: int
    rows: tuple[int, ...]

    def leq(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def pairs(self):
        for i in range(self.size):
            row = self.rows[i]
            j = 0
            while row:
                if row & 1:
                    yield (i, j)
                row >>= 1
                j += 1

    @classmethod
    def from_predicate(cls, size, pred) -> "Relation":
        rows = []
        for i in range(size):
            bits = 0
            for j in range(size):
                if pred(i, j):
                    bits |= 1 << j
            rows.append(bits)
        return cls(size, tuple(rows))

    def is_partial_order(self) -> bool:
        for i in range(self.size):
            if not self.leq(i, i):
                return False
            for j in range(self.size):
                if not self.leq(i, j):
                    continue
                if i != j and self.leq(j, i):
                    return False
                for k in range(self.size):
                    if self.leq(j, k) and not self.leq(i, k):
                        return False
        return True


@cache
def natural_order(X: FiniteStarSemigroup) -> Relation:
    """The common left/right partial order of a locally involutive semigroup.

    Asserts that the two orders coincide before returning; a mismatch is an
    implementation bug (OrderMismatch), not a property of the input.
    """
    if not classify(X).locally_involutive:
        raise NotLocallyInvolutive(
            f"{X!r} is not locally involutive; natural order undefined"
        )
    rel = Relation.from_predicate(X.order, lambda x, y: leq_left(X, x, y))
    for x in X.elements:
        for y in X.elements:
            if rel.leq(x, y) != leq_right(X, x, y):
                raise OrderMismatch((x, y))
    return rel


# ---------------------------------------------------------------------------
# morphisms


@dataclass(eq=False)
class StarMorphism:
    """A carrier map between *-semigroups; its flags and etale verdict are
    computed on first use and kept."""

    source: FiniteStarSemigroup
    target: FiniteStarSemigroup
    map: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        self.map = tuple(self.map)
        if len(self.map) != self.source.order:
            raise ShapeError(
                f"map has length {len(self.map)}, expected {self.source.order}"
            )
        _check_entries(self.map, self.target.order, "map")

    def __call__(self, x: int) -> int:
        return self.map[x]

    @memo
    def is_star_morphism(self) -> bool:
        X, S, f = self.source, self.target, self.map
        return all(f[X.star[x]] == S.star[f[x]] for x in X.elements)

    @memo
    def is_multiplicative(self) -> bool:
        X, S, f = self.source, self.target, self.map
        return all(
            f[X.mul[x][y]] == S.mul[f[x]][f[y]]
            for x in X.elements for y in X.elements
        )

    @memo
    def is_left_star_hom(self) -> bool:
        if not self.is_star_morphism:
            return False
        X, S, f = self.source, self.target, self.map
        return all(
            f[X.mul[x][y]] == S.mul[f[x]][f[X.mul[X.d(x)][y]]]
            for x in X.elements for y in X.elements
        )

    @memo
    def etale(self) -> Verdict:
        """The etale verdict; see etale_report."""
        if not self.is_left_star_hom:
            raise NotLeftStarHom(f"{self!r} is not a left *-homomorphism")
        X, S, f = self.source, self.target, self.map
        checked = {}
        out = []
        for x in X.elements:
            p = X.c(x)
            if p not in checked:
                images = [f[z] for z in _left_fixpoints(X, p)]
                checked[p] = (
                    len(set(images)) == len(images)
                    and set(images) == set(_left_fixpoints(S, S.c(f[x])))
                )
            if not checked[p]:
                out.append(Violation("CosetBijectionViolation", (x,)))
                break
        if classify(X).left_involutive and classify(S).left_involutive:
            _crosscheck_etale(self, not out)
        return Verdict(out)

    @property
    def is_star_hom(self) -> bool:
        return self.is_star_morphism and self.is_multiplicative

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    @property
    def is_bijective(self) -> bool:
        return self.target.order == self.source.order and self.is_injective

    def __repr__(self):
        tag = self.name or "?"
        return f"StarMorphism({tag}: {self.source!r} -> {self.target!r})"


def compose_morphisms(f: StarMorphism, g: StarMorphism) -> StarMorphism:
    """f after g."""
    if g.target is not f.source and not same_tables(g.target, f.source):
        raise ShapeError("morphisms are not composable")
    return StarMorphism(g.source, f.target, tuple(f.map[v] for v in g.map))


def identity_morphism(X: FiniteStarSemigroup) -> StarMorphism:
    return StarMorphism(X, X, tuple(X.elements), name="id")


@dataclass(frozen=True)
class MorphismFlags:
    is_star_morphism: bool
    is_left_star_hom: bool
    is_star_hom: bool


def check_morphism(f: StarMorphism) -> MorphismFlags:
    """Compute the three morphism flags and cross-check the implication
    star-homomorphism => left star-homomorphism."""
    flags = MorphismFlags(f.is_star_morphism, f.is_left_star_hom, f.is_star_hom)
    if flags.is_star_hom and not flags.is_left_star_hom:
        raise ConsistencyError(
            f"{f!r} is a *-homomorphism but not a left *-homomorphism"
        )
    return flags


def _left_fixpoints(X, p):
    """pX = {z : p z = z} when p is a codomain; true in any *-semigroup."""
    return [z for z in X.elements if X.mul[p][z] == z]


def etale_report(f: StarMorphism) -> Verdict:
    """Is f etale: f restricted to xX is a bijection onto f(x)S for all x.

    When source and target are both left involutive the two equivalent
    formulations (coset bijections X|p -> S|f(p) and unique lifting of
    equations s = f(p)s) are recomputed and must agree.
    """
    return f.etale


def _crosscheck_etale(f, main_verdict):
    X, S = f.source, f.target

    def downset(Z, p):
        return [z for z in Z.elements if _idem_leq(Z, Z.c(z), p)]

    coset_ok = True
    for p in projections(X):
        sub = downset(X, p)
        images = [f.map[z] for z in sub]
        if len(set(images)) != len(sub) or set(images) != set(downset(S, f.map[p])):
            coset_ok = False
            break

    lift_ok = True
    for p in projections(X):
        fp = f.map[p]
        for s in S.elements:
            if S.mul[fp][s] != s:
                continue
            n = sum(
                1
                for z in X.elements
                if X.mul[p][z] == z and f.map[z] == s
            )
            if n != 1:
                lift_ok = False
                break
        if not lift_ok:
            break

    if coset_ok != main_verdict or lift_ok != main_verdict:
        raise ConsistencyError(
            f"etale formulations disagree on {f!r}: "
            f"cosets={main_verdict}, downsets={coset_ok}, lifting={lift_ok}"
        )


def is_etale(f: StarMorphism) -> bool:
    return etale_report(f).ok


def etale_lift(f: StarMorphism, p: int, s: int) -> int:
    """The unique x with x = p x and f(x) = s, for a projection p and an
    equation s = f(p) s in the target."""
    X, S = f.source, f.target
    _check_element(X, p)
    _check_element(S, s)
    if X.mul[p][p] != p or X.star[p] != p:
        raise NotProjection(f"{p} is not a projection of the source")
    if not is_etale(f):
        raise NotEtale(f"{f!r} is not etale")
    if S.mul[f.map[p]][s] != s:
        raise NoLift(f"equation s = f(p)s fails for p={p}, s={s}")
    hits = [x for x in X.elements if X.mul[p][x] == x and f.map[x] == s]
    if len(hits) != 1:
        raise ConsistencyError(
            f"lift of s={s} at p={p} not unique for etale {f!r}: {hits}"
        )
    return hits[0]
