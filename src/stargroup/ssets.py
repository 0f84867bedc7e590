"""Involutive, left involutive, and balanced S-sets; the canonical lifting
action of an etale left *-homomorphism; the product retwist.

An S-set is an involutive set with a structure map into a *-semigroup and a
full action table.  Action tables are stored in full: every check here is an
exhaustive sweep anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    NATURAL,
    ConsistencyError,
    FiniteStarSemigroup,
    Invalid,
    StarError,
    StarMorphism,
    Violation,
    action_associativity_witness,
    below,
    classify,
    columns,
    compose,
    composer,
    element,
    freeze,
    is_etale,
    memo,
    takes,
)


@takes(size=NATURAL, base=FiniteStarSemigroup)
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
        self.star = freeze(self.star, "star", n, length=n)
        self.smap = freeze(self.smap, "map", self.base.order, length=n)
        self.action = freeze(self.action, "action", n, length=n,
                             width=self.base.order)

    @memo
    def elements(self) -> range:
        return range(self.size)

    @takes(x=below("self.size"), s=element("self.base"))
    def act(self, x: int, s: int) -> int:
        """xs; internal sweeps index ``action`` directly."""
        return self.action[x][s]

    def __repr__(self):
        return f"SSet(size={self.size}, base={self.base!r})"


@takes(A=SSetStructure)
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


@takes(A=SSetStructure)
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


@takes(size=NATURAL, base=FiniteStarSemigroup)
def make_sset(size, star, base, smap, action) -> SSetStructure:
    A = SSetStructure(size, star, base, smap, action)
    violations = check_sset(A)
    if violations:
        raise Invalid(violations, kind="SSetInvalid")
    return A


@takes(A=SSetStructure)
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


@takes(A=SSetStructure)
@memo
def is_left_involutive_sset(A: SSetStructure) -> bool:
    """Whether the left identity holds (left_identity_witness); kept on A."""
    return left_identity_witness.__wrapped__(A) is None


@takes(A=SSetStructure, r=element("A.base"), x=below("A.size"))
def left_action(A: SSetStructure, r: int, x: int) -> int:
    """rx = (x* r*)*, read from left_table."""
    return left_table(A)[r][x]


@dataclass(frozen=True)
class BalancedReport:
    cond1: bool
    cond2: bool
    balanced: bool
    left_identity: bool
    witness1: tuple | None = None
    witness2: tuple | None = None


@takes(A=SSetStructure)
@memo
def balanced_check(A: SSetStructure) -> BalancedReport:
    """Check the two balance conditions and compare with the left identity;
    kept on A.

    Balanced always implies the left identity; over an inverse base the two
    are equivalent.  Either implication failing raises a ConsistencyError of
    kind EquivalenceBroken.
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
        raise ConsistencyError("balanced S-set without the left identity",
                               kind="EquivalenceBroken")
    if classify(S).inverse and balanced != left:
        raise ConsistencyError(
            "balanced and left involutive disagree over an inverse base",
            kind="EquivalenceBroken")
    return BalancedReport(w1 is None, w2 is None, balanced, left, w1, w2)


# ---------------------------------------------------------------------------
# canonical action and the category isomorphism


@takes(f=StarMorphism)
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


@takes(A=SSetStructure)
def sset_to_semigroup(A: SSetStructure):
    """(X, f): the *-semigroup X with product xy = x . f(y), and f the
    structure map; Invalid, of kind SSetInvalid, unless A is an S-set.
    By check_sset's laws, (x f(y)) f(z) = x f(y f(z)), x f(x*) f(x) = x,
    x** = x and f(x f(y)) = f(x) f(y); a lift z at c(x) is c(x) f(z), so f
    is etale, and xs = c(x) f(x)s, so its canonical action is that of A."""
    if check_sset(A):
        raise Invalid(check_sset(A), kind="SSetInvalid")
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


@takes(f=StarMorphism)
def retwist(f: StarMorphism) -> RetwistResult:
    """Replace the product of X by x(x)y = x f(y) so that f becomes an etale
    *-homomorphism; checks the four-way equivalence with f being one already.
    Condition 1 is condition 2 together with the forward identity being a
    left *-homomorphism, which is checked first, so 1 <=> 2 holds by
    construction and is not compared; 3 <=> 4 and 3 => 1 are."""
    if not is_etale(f):
        raise StarError(f"{f!r} is not etale", kind="NotEtale")
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
    # 3 <=> 4 always; 3 => 1.  The converse 1 => 3 fails: a
    # non-multiplicative etale left *-homomorphism can still have a left
    # *-homomorphism as the backward identity (X, x) -> X, making the
    # forward identity a left *-isomorphism that is not a *-isomorphism.
    if cond3 != cond4 or (cond3 and not cond1):
        raise ConsistencyError(f"retwist equivalence broken: {conditions}",
                               kind="EquivalenceBroken")
    if cond3 != (X2.mul == X.mul):
        raise ConsistencyError(
            "f multiplicative must mean the product is unchanged",
            kind="EquivalenceBroken")
    return RetwistResult(X2, f2, forward, conditions, X2.mul == X.mul)
