"""Finite *-semigroup kernel: validation, classification, partial orders,
morphism predicates and the etale machinery.

Elements are dense indices 0..n-1.  Multiplication is a row-major table and
the involution a permutation table, so every identity is checked by a direct
table sweep.  All witnesses are the lexicographically least violating tuple,
which keeps reports deterministic regardless of how a sweep is scheduled.

Tables are composed with ``compose`` (one ``operator.itemgetter`` call).  The
associativity sweep, the one O(n^3) sweep here, compares whole rows before
cells: a row that matches as a tuple holds no violation, and only a row that
differs is walked cell by cell to name the least witness.  So the row test
decides "no violation" and the cell loop decides everything else.  The
O(n^2) sweeps stay cell by cell: at the sizes in use, a row test costs more
than the cells it would skip.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import update_wrapper
from operator import itemgetter
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


class SearchBudgetExceeded(StarError):
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


class CacheInfo(NamedTuple):
    hits: int
    misses: int


class memo:
    """A per-object memo, as functools.cached_property, but stored with
    object.__setattr__: a frozen dataclass can carry one, and on CPython
    3.11 writing through ``__dict__`` slows every later attribute read.

    On a module function, ``func(obj)`` is stored on ``obj`` under the
    function's name (which the object's class must not otherwise use), and
    ``func(obj, *key)`` in a dict by key there.  ``check(obj, *key)``, if
    given, runs first on every call.  The function form counts hits and
    misses for ``cache_info``.  An error is never kept."""

    def __init__(self, func, check=None):
        update_wrapper(self, func)
        self.func = func
        self.check = check
        self.hits = self.misses = 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.__name__, value)
        return value

    def __call__(self, obj, *key):
        if self.check is not None:
            self.check(obj, *key)
        held = getattr(obj, self.__name__, _UNSET)
        if key and held is _UNSET:
            held = {}
            object.__setattr__(obj, self.__name__, held)
        value = held.get(key, _UNSET) if key else held
        if value is not _UNSET:
            self.hits += 1
            return value
        self.misses += 1
        # stored here, not through __get__, whose obj-is-None branch serves
        # class access and would hand back the memo itself
        value = self.func(obj, *key)
        if key:
            held[key] = value
        else:
            object.__setattr__(obj, self.__name__, value)
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses)


_UNSET = object()


class Invalid(StarError):
    """A structure fails its axioms; ``violations`` lists every failure."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(map(str, self.violations)))


class InvalidStarSemigroup(Invalid):
    pass


class Rows(NamedTuple):
    """Per-element rows of a *-semigroup: the domain x*x, the codomain xx*,
    and as a bitmask the set {f : ef = e = fe} of each e, so that for
    idempotents e <= f is bit f of ``up[e]``."""

    d: tuple[int, ...]
    c: tuple[int, ...]
    up: tuple[int, ...]


@dataclass(frozen=True)
class FiniteStarSemigroup:
    """A finite semigroup with involution; every element a partial isometry.
    What is derived from it alone (``rows``, ``classify``, ``projections``
    and the like) is computed on first use and kept on it."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    name: str | None = None

    @memo
    def elements(self) -> range:
        return range(self.order)

    def d(self, x: int) -> int:
        """Domain x*x."""
        return self.mul[self.star[x]][x]

    def c(self, x: int) -> int:
        """Codomain xx*."""
        return self.mul[x][self.star[x]]

    @memo
    def rows(self) -> Rows:
        mul, star = self.mul, self.star
        up = []
        for e, row in enumerate(mul):
            bits = 0
            for f, ef in enumerate(row):
                if ef == e and mul[f][e] == e:
                    bits |= 1 << f
            up.append(bits)
        return Rows(tuple(mul[star[x]][x] for x in self.elements),
                    tuple(row[star[x]] for x, row in enumerate(mul)),
                    tuple(up))

    def __repr__(self):
        tag = self.name or "?"
        return f"FiniteStarSemigroup({tag}, order={self.order})"


def same_tables(x: FiniteStarSemigroup, y: FiniteStarSemigroup) -> bool:
    """Table-for-table equality, ignoring names."""
    return x.order == y.order and x.mul == y.mul and x.star == y.star


def _freeze_tables(order, mul, star):
    if type(order) is not int or order < 1:
        raise ShapeError(f"order must be a positive integer, got {order!r}")
    return (freeze(mul, "mul", order, length=order, width=order),
            freeze(star, "star", order, length=order))


def freeze(values, field, stop, length=None, width=None, start=0):
    """A row of ints in start..stop-1 as a tuple, or with ``width`` a table
    of such rows, each of that width, as a tuple of tuples; ``length``
    counts the entries of a row or the rows of a table.  One pass over the
    entries; a float, string, bool or None is refused, never converted.
    Every failure is a ShapeError that names ``field``."""
    try:
        frozen = tuple(values) if width is None else tuple(map(tuple, values))
    except TypeError:
        kind = "a sequence" if width is None else "a table"
        raise ShapeError(f"{field} must be {kind} of integers") from None
    if length is not None and len(frozen) != length:
        raise ShapeError(f"{field} has length {len(frozen)}, expected {length}")
    for row in (frozen,) if width is None else frozen:
        if width is not None and len(row) != width:
            raise ShapeError(f"{field} has a row of length {len(row)}, "
                             f"expected {width}")
        for v in row:
            if type(v) is not int or not start <= v < stop:
                raise ShapeError(
                    f"{field} entries must be integers, got {v!r}"
                    if type(v) is not int else
                    f"{field} entry {v} out of range {start}..{stop - 1}")
    return frozen


def check_instance(value, cls, field):
    """Refuse an object argument that is not a ``cls`` with a ShapeError
    naming ``field``, before anything reads its attributes."""
    if not isinstance(value, cls):
        raise ShapeError(f"{field} must be of type {cls.__name__}, "
                         f"got {type(value).__name__}")


def check_star_semigroup(order, mul, star) -> tuple[Violation, ...]:
    """All violated *-semigroup axioms, least witness each; empty if valid."""
    return _axiom_violations(order, *_freeze_tables(order, mul, star))


def compose(after, before) -> tuple:
    """The table ``after`` after ``before``: after[before[i]] for every i,
    as a tuple.  One itemgetter call, so the loop over the entries runs in
    C instead of in a generator."""
    if len(before) > 1:
        return itemgetter(*before)(after)
    return (after[before[0]],) if before else ()


def composer(before):
    """``compose(after, before)`` as a function of ``after``, built once for
    a table composed with many rows."""
    if len(before) > 1:
        return itemgetter(*before)
    return lambda after: compose(after, before)


def columns(table) -> tuple:
    """The columns of a table, as a tuple of tuples.  Built from a list, so
    the tuple is made at its final size: one grown from an iterator is
    resized, and once freed CPython keeps it for reuse among tuples of the
    new size, not of the old, which held memory at peak on the presheaves
    workload."""
    return tuple([*zip(*table)])


def backtrack(depth, candidates, place, budget=None):
    """Yield at each full assignment of depths 0..depth-1, in candidate
    order: Knuth's Algorithm B (TAOCP 4B, 7.2.2), with an explicit stack.
    ``place(t, c)`` stores c in the caller's assignment and says whether it
    is still consistent; nothing is undone, so depth t reads only what
    depths <= t placed.  Each candidate tried counts against ``budget``."""
    if depth == 0:
        yield
        return
    tried = 0
    stack = [iter(candidates(0))]
    while stack:
        t = len(stack) - 1
        for c in stack[t]:
            tried += 1
            if budget is not None and tried > budget:
                raise SearchBudgetExceeded(
                    f"backtracking search exceeded budget {budget}")
            if place(t, c):
                if t + 1 == depth:
                    yield
                else:
                    stack.append(iter(candidates(t + 1)))
                    break
        else:
            stack.pop()


def action_associativity_witness(act, mul):
    """Least (x, s, t) with (xs)t != x(st), for a table ``act`` of a right
    action of the semigroup with product table ``mul`` (``act[x][s]`` is
    xs); None when there is none.  With ``act`` = ``mul`` this is the
    associativity of the semigroup itself.  Each (x, s) compares the row
    of xs with row x composed with row s first."""
    cols = range(len(mul))
    after_s = [composer(s_row) for s_row in mul]
    for x, row in enumerate(act):
        for s, after in enumerate(after_s):
            xs_row = act[row[s]]
            if xs_row == after(row):
                continue
            s_row = mul[s]
            for t in cols:
                if xs_row[t] != row[s_row[t]]:
                    return (x, s, t)
    return None


def _axiom_violations(order, mul, star):
    out = []
    rng = range(order)
    witness = action_associativity_witness(mul, mul)
    if witness is not None:
        out.append(Violation(ASSOCIATIVITY, witness))
    witness = next(((x,) for x in rng if star[star[x]] != x), None)
    if witness is not None:
        out.append(Violation(INVOLUTION, witness))
    witness = next(((x,) for x in rng if mul[mul[x][star[x]]][x] != x), None)
    if witness is not None:
        out.append(Violation(PARTIAL_ISOMETRY, witness))
    return tuple(out)


# every value shared while held (``shared``), by its key
_INTERNED = weakref.WeakValueDictionary()


def shared(key, build, *args):
    """The value still held under ``key``, else ``build(*args)``, stored
    under ``key`` and returned.  Values are held weakly, so an entry lasts
    while some caller holds its value, and an error is never kept.

    A validated semigroup's key is its content, (mul, star, name); every
    other key is a tuple led by a string tag, so the two cannot collide.
    Every id in a key is that of an object the value holds, so no id is
    reused while the entry lives."""
    value = _INTERNED.get(key)
    if value is None:
        value = _INTERNED[key] = build(*args)
    return value


def validate_star_semigroup(order, mul, star, name=None) -> FiniteStarSemigroup:
    """Validate raw tables; raises InvalidStarSemigroup with all witnesses.

    Interned by content (hash-consing: Filliatre and Conchon, ML Workshop
    2006): while a semigroup validated from equal tables under the same
    name is still held, this returns that one, with everything kept on it,
    and skips the axiom sweep.  The shape checks run on every call."""
    mul, star = _freeze_tables(order, mul, star)
    if name is not None and type(name) is not str:
        raise ShapeError(f"name must be a string or None, got {name!r}")
    return shared((mul, star, name), _validated, order, mul, star, name)


def _validated(order, mul, star, name):
    violations = _axiom_violations(order, mul, star)
    if violations:
        raise InvalidStarSemigroup(violations)
    return FiniteStarSemigroup(order, mul, star, name)


def _check_element(X: FiniteStarSemigroup, x: int):
    if type(x) is not int or not 0 <= x < X.order:
        raise ShapeError(f"element {x!r} is not an integer in 0..{X.order - 1}")


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


@memo
def idempotents(X: FiniteStarSemigroup) -> tuple[int, ...]:
    return tuple(x for x in X.elements if X.mul[x][x] == x)


@memo
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


def _restrictive_witness(X):
    d, _, up = X.rows
    for x, row in enumerate(X.mul):
        for y, xy in enumerate(row):
            if not up[d[xy]] >> d[y] & 1:
                return (x, y)
    return None


def _corestrictive_witness(X):
    _, c, up = X.rows
    for x, row in enumerate(X.mul):
        upper = c[x]
        for y, xy in enumerate(row):
            if not up[c[xy]] >> upper & 1:
                return (x, y)
    return None


def _birestrictive_witness(X):
    # the defining identity is recomputed, not the conjunction of flags
    d, c, up = X.rows
    for x, row in enumerate(X.mul):
        upper = c[x]
        for y, xy in enumerate(row):
            if not (up[d[xy]] >> d[y] & 1 and up[c[xy]] >> upper & 1):
                return (x, y)
    return None


def _involutive_witness(X):
    mul, star = X.mul, X.star
    for x, row in enumerate(mul):
        sx = star[x]
        for y, xy in enumerate(row):
            if star[xy] != mul[star[y]][sx]:
                return (x, y)
    return None


def _left_involutive_witness(X):
    mul, star, d = X.mul, X.star, X.rows.d
    for x, row in enumerate(mul):
        sx, dx_row = star[x], mul[d[x]]
        for y, xy in enumerate(row):
            if star[xy] != mul[star[dx_row[y]]][sx]:
                return (x, y)
    return None


def _right_involutive_witness(X):
    mul, star, c = X.mul, X.star, X.rows.c
    for x, row in enumerate(mul):
        for y, xy in enumerate(row):
            if star[xy] != mul[star[y]][star[row[c[y]]]]:
                return (x, y)
    return None


def _locally_involutive_witness(X):
    # exactly the three trigger conditions; no other pairs are tested
    mul, star = X.mul, X.star
    d, c, up = X.rows
    projs = set(projections(X))
    for x, row in enumerate(mul):
        dx, sx, x_proj = d[x], star[x], x in projs
        for y, xy in enumerate(row):
            triggered = (
                dx == c[y]
                or (x_proj and up[x] >> c[y] & 1)
                or (y in projs and up[y] >> dx & 1)
            )
            if triggered and star[xy] != mul[star[y]][sx]:
                return (x, y)
    return None


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
    mul, star = X.mul, X.star
    for x, row in enumerate(mul):
        sx = star[x]
        for y, xy in enumerate(row):
            if y != sx and mul[xy][x] == x and mul[mul[y][x]][y] == y:
                return (x, y)
    return None


@memo
def classify(X: FiniteStarSemigroup) -> ClassificationReport:
    """Classify X into the semigroup hierarchy.

    Every flag is computed from its own defining identity, never derived
    from another flag, so the implication lattice between flags is a real
    cross-check downstream.  The one exception is ``quasi_involutive``,
    which is by definition birestrictive and locally involutive: its
    witness is the first of those two sweeps' witnesses.  The ``inverse``
    flag is computed twice, by uniqueness of quasi-inverses and as
    quasi-involutive + commuting projections; disagreement raises
    ConsistencyError.
    """
    found = {
        "restrictive": _restrictive_witness(X),
        "corestrictive": _corestrictive_witness(X),
        "birestrictive": _birestrictive_witness(X),
        "involutive": _involutive_witness(X),
        "left_involutive": _left_involutive_witness(X),
        "right_involutive": _right_involutive_witness(X),
        "locally_involutive": _locally_involutive_witness(X),
    }
    found["quasi_involutive"] = (found["birestrictive"]
                                 or found["locally_involutive"])
    found["commuting_projections"] = _commuting_projections_witness(X)
    flags = {name: wit is None for name, wit in found.items()}
    witnesses = [(name, wit) for name, wit in found.items() if wit is not None]

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
    return _leq_left(X, x, y)


def _leq_left(X, x, y):
    dx, dy = X.d(x), X.d(y)
    return bool(X.rows.up[dx] >> dy & 1) and x == X.mul[y][dx]


def leq_right(X: FiniteStarSemigroup, x: int, y: int) -> bool:
    """x <=_r y: c(x) <= c(y) and x = c(x) y."""
    _check_element(X, x)
    _check_element(X, y)
    return _leq_right(X, x, y)


def _leq_right(X, x, y):
    cx, cy = X.c(x), X.c(y)
    return bool(X.rows.up[cx] >> cy & 1) and x == X.mul[cx][y]


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


@memo
def natural_order(X: FiniteStarSemigroup) -> Relation:
    """The common left/right partial order of a locally involutive semigroup.

    Asserts that the two orders coincide before returning; a mismatch is an
    implementation bug (OrderMismatch), not a property of the input.
    """
    if not classify(X).locally_involutive:
        raise NotLocallyInvolutive(
            f"{X!r} is not locally involutive; natural order undefined"
        )
    rel = Relation.from_predicate(X.order, lambda x, y: _leq_left(X, x, y))
    for x in X.elements:
        for y in X.elements:
            if rel.leq(x, y) != _leq_right(X, x, y):
                raise OrderMismatch((x, y))
    return rel


# ---------------------------------------------------------------------------
# morphisms


@dataclass(eq=False)
class StarMorphism:
    """A carrier map between *-semigroups; its flags, fibers, lift table,
    canonical action and etale verdict (etale_report) are computed on first
    use and kept."""

    source: FiniteStarSemigroup
    target: FiniteStarSemigroup
    map: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        check_instance(self.source, FiniteStarSemigroup, "source")
        check_instance(self.target, FiniteStarSemigroup, "target")
        self.map = freeze(self.map, "map", self.target.order,
                          length=self.source.order)

    def __call__(self, x: int) -> int:
        return self.map[x]

    @memo
    def is_star_morphism(self) -> bool:
        X, S, f = self.source, self.target, self.map
        return all(f[X.star[x]] == S.star[f[x]] for x in X.elements)

    @memo
    def is_multiplicative(self) -> bool:
        X, S, f = self.source, self.target, self.map
        for x, row in enumerate(X.mul):
            fx_row = S.mul[f[x]]
            for y in X.elements:
                if f[row[y]] != fx_row[f[y]]:
                    return False
        return True

    @memo
    def is_left_star_hom(self) -> bool:
        if not self.is_star_morphism:
            return False
        X, S, f = self.source, self.target, self.map
        for x, row in enumerate(X.mul):
            dx_row, fx_row = X.mul[X.d(x)], S.mul[f[x]]
            for y in X.elements:
                if f[row[y]] != fx_row[f[dx_row[y]]]:
                    return False
        return True

    @memo
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Per target element, the ascending source elements over it."""
        out = [[] for _ in self.target.elements]
        for x, r in enumerate(self.map):
            out[r].append(x)
        return tuple(map(tuple, out))

    @memo
    def lifts(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Per codomain p of the source (every projection is one), the
        fixpoints {z : pz = z} grouped by their image f(z), each group in
        ascending order: the candidates for the lift of s at p are
        ``lifts[p].get(s, ())``.  Codomains, not only projections, because
        the canonical action lifts at c(x), which need not be a projection
        when the star does not reverse products."""
        X, f = self.source, self.map
        out = {}
        for x in X.elements:
            p = X.c(x)
            if p not in out:
                row = X.mul[p]
                groups = {}
                for z in X.elements:
                    if row[z] == z:
                        groups.setdefault(f[z], []).append(z)
                out[p] = {s: tuple(zs) for s, zs in groups.items()}
        return out

    @memo
    def action(self) -> tuple[tuple[int, ...], ...]:
        """For an etale map, the canonical action table: ``action[x][s]`` is
        the unique z with c(x)z = z and f(z) = f(x)s, read from ``lifts``.
        Every lift is read here (``etale_lift``, ``ssets.canonical_action``
        and the topos readers), so a lift's uniqueness is checked once, in
        this build.  NotEtale when f is not etale."""
        if not is_etale(self):
            raise NotEtale(f"{self!r} is not etale")
        X, S, f, lifts = self.source, self.target, self.map, self.lifts
        table = []
        for x in X.elements:
            p, fx_row = X.c(x), S.mul[f[x]]
            at_p, row = lifts[p], []
            for s, t in enumerate(fx_row):
                hits = at_p.get(t, ())
                if len(hits) != 1:
                    raise ConsistencyError(
                        f"canonical action ambiguous at ({x}, {s}): lift of "
                        f"{t} at {p} not unique for etale {self!r}: "
                        f"{list(hits)}")
                row.append(hits[0])
            table.append(tuple(row))
        return tuple(table)

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
    return StarMorphism(g.source, f.target, compose(f.map, g.map))


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
    return [z for z, pz in enumerate(X.mul[p]) if pz == z]


@memo
def etale_report(f: StarMorphism) -> Verdict:
    """Is f etale: f restricted to xX is a bijection onto f(x)S for all x.

    When source and target are both left involutive the two equivalent
    formulations (coset bijections X|p -> S|f(p) and unique lifting of
    equations s = f(p)s) are recomputed and must agree.  Kept on ``f``.
    """
    if not f.is_left_star_hom:
        raise NotLeftStarHom(f"{f!r} is not a left *-homomorphism")
    X, S = f.source, f.target
    checked = {}
    out = []
    for x in X.elements:
        p = X.c(x)
        if p not in checked:
            images = compose(f.map, _left_fixpoints(X, p))
            checked[p] = (
                len(set(images)) == len(images)
                and set(images) == set(_left_fixpoints(S, S.c(f.map[x])))
            )
        if not checked[p]:
            out.append(Violation("CosetBijectionViolation", (x,)))
            break
    if classify(X).left_involutive and classify(S).left_involutive:
        _crosscheck_etale(f, not out)
    return Verdict(out)


def _crosscheck_etale(f, main_verdict):
    X, S = f.source, f.target

    def downset(Z, p):
        _, c, up = Z.rows
        return [z for z in Z.elements if up[c[z]] >> p & 1]

    coset_ok = True
    for p in projections(X):
        sub = downset(X, p)
        images = compose(f.map, sub)
        if len(set(images)) != len(sub) or set(images) != set(downset(S, f.map[p])):
            coset_ok = False
            break

    lift_ok = True
    for p in projections(X):
        fp = f.map[p]
        lifts = f.lifts[p]
        for s in S.elements:
            if S.mul[fp][s] != s:
                continue
            if len(lifts.get(s, ())) != 1:
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
    equation s = f(p) s in the target: ``f.action[p][s]``, as c(p) = p."""
    X, S = f.source, f.target
    _check_element(X, p)
    _check_element(S, s)
    check_lift_points(f, (p,))
    if S.mul[f.map[p]][s] != s:
        raise NoLift(f"equation s = f(p)s fails for p={p}, s={s}")
    return f.action[p][s]


def check_lift_points(f: StarMorphism, points):
    """Raise as ``etale_lift(f, p, s)`` would for any s and p in ``points``,
    unless each p is a projection of the source and f is etale."""
    X = f.source
    for p in points:
        _check_element(X, p)
        if X.mul[p][p] != p or X.star[p] != p:
            raise NotProjection(f"{p} is not a projection of the source")
    if not is_etale(f):
        raise NotEtale(f"{f!r} is not etale")
