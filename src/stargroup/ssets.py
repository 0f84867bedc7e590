"""Involutive, left involutive, and balanced S-sets; the canonical lifting
action of an etale left *-homomorphism; the product retwist.

An S-set is an involutive set with a structure map into a *-semigroup and a
full action table.  Action tables are stored in full: every check here is an
exhaustive sweep anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ConsistencyError,
    EquivalenceBroken,
    FiniteStarSemigroup,
    Invalid,
    NotEtale,
    ShapeError,
    StarMorphism,
    Violation,
    action_associativity_witness,
    check_instance,
    classify,
    columns,
    compose,
    composer,
    freeze,
    is_etale,
    memo,
)


class SSetInvalid(Invalid):
    pass


@dataclass(eq=False)
class SSetStructure:
    """Carrier with involution, structure map into S, and action table;
    its axiom check (check_sset), left-action table (left_table), left
    identity (is_left_involutive_sset) and balance (balanced_check) are
    computed on first use and kept, so it must not be mutated.

    Over an involutive base, a balanced S-set's left action needs no sweep
    of its own: (rx)s = r(xs) is balance condition 1, and f(rx) = r f(x)
    follows from check_sset's laws, f(rx) = f(x* r*)* = (f(x)* r*)*
    = r f(x) by the star-morphism law, equivariance and (ab)* = b*a*."""

    size: int
    star: tuple[int, ...]
    base: FiniteStarSemigroup
    smap: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.size
        if type(n) is not int or n < 0:
            raise ShapeError(f"size must be a non-negative integer, got {n!r}")
        check_instance(self.base, FiniteStarSemigroup, "base")
        self.star = freeze(self.star, "star", n, length=n)
        self.smap = freeze(self.smap, "map", self.base.order, length=n)
        self.action = freeze(self.action, "action", n, length=n,
                             width=self.base.order)

    @memo
    def elements(self) -> range:
        return range(self.size)

    def act(self, x: int, s: int) -> int:
        """xs; ShapeError unless x is in 0..size-1 and s an element of the
        base.  Internal sweeps index ``action`` directly."""
        freeze((x,), "element", self.size)
        freeze((s,), "element", self.base.order)
        return self.action[x][s]

    def __repr__(self):
        return f"SSet(size={self.size}, base={self.base!r})"


@memo
def left_table(A: SSetStructure) -> tuple[tuple[int, ...], ...]:
    """The left action rx = (x* r*)* as one row over x per r of the base;
    kept on A.  Every reader of the left action indexes it."""
    star = A.star
    cols = columns(A.action) or ((),) * A.base.order
    return tuple([compose(star, compose(cols[sr], star))
                  for sr in A.base.star])


def _balance_witness(act, left):
    """Least (x, r, s) with (rx)s != r(xs), for the action table ``act``
    and its left-action rows ``left`` (left_table); None if none.  Each
    (x, r) compares the row over s whole first."""
    for x, row in enumerate(act):
        at_row = composer(row)
        for r, left_r in enumerate(left):
            rx_row = act[left_r[x]]
            if rx_row == at_row(left_r):
                continue
            for s, rx_s in enumerate(rx_row):
                if rx_s != left_r[row[s]]:
                    return (x, r, s)
    return None


@memo
def check_sset(A: SSetStructure):
    """Violations of the involutive S-set axioms, swept once per S-set."""
    S = A.base
    star, smap, act, smul, xs = A.star, A.smap, A.action, S.mul, A.elements
    found = (
        ("InvolutionViolation",
         next(((x,) for x in xs if star[star[x]] != x), None)),
        ("StarMorphismViolation",
         next(((x,) for x in xs if smap[star[x]] != S.star[smap[x]]), None)),
        ("EquivarianceViolation",
         next(((x, s) for x in xs for s in S.elements
               if smap[act[x][s]] != smul[smap[x]][s]), None)),
        ("UnitViolation",
         next(((x,) for x in xs if act[x][S.d(smap[x])] != x), None)),
        ("ActionAssociativityViolation",
         action_associativity_witness(act, smul)),
    )
    return tuple(Violation(kind, wit) for kind, wit in found
                 if wit is not None)


def make_sset(size, star, base, smap, action) -> SSetStructure:
    A = SSetStructure(size, star, base, smap, action)
    violations = check_sset(A)
    if violations:
        raise SSetInvalid(violations)
    return A


def left_identity_witness(A: SSetStructure):
    """(xs)* = (x* . f(x)s)* . f(x)* sweep; None when the identity holds."""
    S = A.base
    star, act = A.star, A.action
    for x, row in enumerate(act):
        fx = A.smap[x]
        xstar_row, fx_row, fx_star = act[star[x]], S.mul[fx], S.star[fx]
        for s in S.elements:
            if star[row[s]] != act[star[xstar_row[fx_row[s]]]][fx_star]:
                return (x, s)
    return None


@memo
def is_left_involutive_sset(A: SSetStructure) -> bool:
    """Whether the left identity holds (left_identity_witness); kept on A."""
    return left_identity_witness(A) is None


def left_action(A: SSetStructure, r: int, x: int) -> int:
    """rx = (x* r*)*, read from left_table; ShapeError unless r is an
    element of the base and x is in 0..size-1."""
    freeze((r,), "element", A.base.order)
    freeze((x,), "element", A.size)
    return left_table(A)[r][x]


@dataclass(frozen=True)
class BalancedReport:
    cond1: bool
    cond2: bool
    balanced: bool
    left_identity: bool
    witness1: tuple | None = None
    witness2: tuple | None = None


@memo
def balanced_check(A: SSetStructure) -> BalancedReport:
    """Check the two balance conditions and compare with the left identity;
    kept on A.

    Balanced always implies the left identity; over an inverse base the two
    are equivalent.  Either implication failing raises EquivalenceBroken.
    """
    S = A.base
    star, act = A.star, A.action
    w1 = _balance_witness(act, left_table(A))
    w2 = None
    for x, row in enumerate(act):
        xfx = row[A.smap[star[x]]]
        if star[xfx] != xfx:
            w2 = (x,)
            break
    balanced = w1 is None and w2 is None
    left = is_left_involutive_sset(A)
    if balanced and not left:
        raise EquivalenceBroken("balanced S-set without the left identity")
    if classify(S).inverse and balanced != left:
        raise EquivalenceBroken(
            "balanced and left involutive disagree over an inverse base")
    return BalancedReport(w1 is None, w2 is None, balanced, left, w1, w2)


# ---------------------------------------------------------------------------
# canonical action and the category isomorphism


@memo
def canonical_action(f: StarMorphism) -> SSetStructure:
    """The lifting action of an etale left *-homomorphism: xs is the unique
    c(x)-fixpoint over f(x)s, the table ``f.action``.  Built once per
    morphism: every call on the same ``f`` returns the same S-set."""
    X, S = f.source, f.target
    A = make_sset(X.order, X.star, S, f.map, f.action)
    if classify(X).left_involutive and classify(S).left_involutive:
        if not is_left_involutive_sset(A):
            raise ConsistencyError(
                "canonical action of left involutive data lost the left identity")
    return A


def sset_to_semigroup(A: SSetStructure):
    """(X, f): the *-semigroup X with product xy = x . f(y), and f the
    structure map; SSetInvalid unless A is an S-set, ShapeError if empty.
    By check_sset's laws, (x f(y)) f(z) = x f(y f(z)), x f(x*) f(x) = x,
    x** = x and f(x f(y)) = f(x) f(y); a lift z at c(x) is c(x) f(z), so f
    is etale, and xs = c(x) f(x)s, so its canonical action is that of A."""
    if not A.size:
        raise ShapeError("an empty S-set has no semigroup")
    if check_sset(A):
        raise SSetInvalid(check_sset(A))
    mul = tuple([compose(row, A.smap) for row in A.action])
    X = FiniteStarSemigroup(A.size, mul, A.star)
    return X, StarMorphism(X, A.base, A.smap)


@dataclass(frozen=True)
class RetwistResult:
    semigroup: FiniteStarSemigroup      # (X, x) with x*y = x f(y)
    structure_map: StarMorphism         # (X, x) -> S, now a *-homomorphism
    forward: StarMorphism               # identity map X -> (X, x)
    conditions: tuple[bool, bool, bool, bool]
    product_unchanged: bool


def retwist(f: StarMorphism) -> RetwistResult:
    """Replace the product of X by x(x)y = x f(y) so that f becomes an etale
    *-homomorphism; checks the four-way equivalence with f being one already."""
    if not is_etale(f):
        raise NotEtale(f"{f!r} is not etale")
    X = f.source
    A = canonical_action(f)
    X2, f2 = sset_to_semigroup(A)
    forward = StarMorphism(X, X2, tuple(X.elements), name="retwist")
    # an identity map, so bijective
    if not (forward.is_left_star_hom and is_etale(forward)):
        raise ConsistencyError("identity into the retwist must be a bijective "
                               "etale left *-homomorphism")
    backward = StarMorphism(X2, X, tuple(X.elements))
    cond1 = forward.is_left_star_hom and backward.is_left_star_hom
    cond2 = backward.is_left_star_hom
    cond3 = f.is_star_hom
    cond4 = forward.is_star_hom
    conditions = (cond1, cond2, cond3, cond4)
    # 1 <=> 2 and 3 <=> 4 always; 3 => 1.  The converse 1 => 3 fails: a
    # non-multiplicative etale left *-homomorphism can still have a left
    # *-homomorphism as the backward identity (X, x) -> X, making the
    # forward identity a left *-isomorphism that is not a *-isomorphism.
    if cond1 != cond2 or cond3 != cond4 or (cond3 and not cond1):
        raise EquivalenceBroken(f"retwist equivalence broken: {conditions}")
    if cond3 != (X2.mul == X.mul):
        raise EquivalenceBroken("f multiplicative must mean the product is unchanged")
    return RetwistResult(X2, f2, forward, conditions, X2.mul == X.mul)
