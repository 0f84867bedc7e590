"""Involutive S-modules and S-algebras; the free module F(f) on an etale
object, its idempotent quotient F-hat(f) of finite fiber subsets, the
embedding rho, and morphism lifting.

F(f) has an infinite carrier, so it is exposed as element-level operations
with sampled axiom checks.  F-hat(f) is materialized in full: one element
per pair (r, A) with A a subset of the fiber over r.  The *-semigroup of
F-hat, as of any algebra that ``gamma_algebra`` probes, is built from the
algebra's tables without a sweep of its own: ``validate_algebra`` and
``check_sset`` have swept every axiom on those tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from . import topos
from .core import (
    NATURAL,
    ConsistencyError,
    FiniteStarSemigroup,
    Kind,
    SearchBudgetExceeded,
    ShapeError,
    StarError,
    StarMorphism,
    Verdict,
    Violation,
    below,
    classify,
    composer,
    element,
    freeze,
    is_etale,
    memo,
    takes,
)
from .site import as_inverse
from .ssets import (
    SSetStructure,
    balanced_check,
    canonical_action,
    check_sset,
    left_table,
    make_sset,
)


@takes(sset=SSetStructure)
@dataclass(eq=False)
class SModule:
    """An involutive S-set with a zero section and fiberwise addition.

    ``add[a][b]`` is -1 exactly when the structure map separates a and b.
    Its derived product is computed on first use and kept, so it must not be
    mutated.
    """

    sset: SSetStructure
    zero: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.sset.size
        self.zero = freeze(self.zero, "zero section", n,
                           length=self.sset.base.order)
        self.add = freeze(self.add, "addition", n, length=n, width=n, start=-1)

    @property
    def size(self):
        return self.sset.size

    @property
    def base(self):
        return self.sset.base

    @takes(a=below("self.size"), b=below("self.size"))
    def plus(self, a, b):
        """a + b; a StarError of kind FiberMismatch when a and b lie in
        different fibers."""
        v = self.add[a][b]
        if v == -1:
            raise StarError(f"{a} and {b} live in different fibers",
                            kind="FiberMismatch")
        return v

    @memo
    def derived_table(self) -> tuple[tuple[int, ...], ...]:
        """The derivation-style product ab = a psi(b) + psi(a) b of a
        balanced module, checked against a 0(r) = ar.  Associativity,
        (ab)* = b*a* and multiplicativity of the zero section are not swept
        here: ``idem_to_algebra`` sweeps them on this table with
        ``validate_algebra``."""
        M = self
        if not balanced_check(M.sset).balanced:
            raise StarError("derived product needs a balanced module",
                            kind="NotBalanced")
        A, S, plus = M.sset, M.sset.base, SModule.plus.__wrapped__
        smap, act, zero, left = A.smap, A.action, M.zero, left_table(A)
        table = []
        for a, act_a in enumerate(act):
            left_fa = left[smap[a]]
            ta = tuple(plus(M, act_a[smap[b]], left_fa[b])
                       for b in A.elements)
            if any(ta[zero[r]] != act_a[r] for r in S.elements):
                raise ConsistencyError("a 0(r) != ar for the derived product")
            table.append(ta)
        return tuple(table)


@takes(module=SModule)
@dataclass(eq=False)
class SAlgebra:
    """A module with a product table; its validate_algebra verdict is kept
    on it, so it must not be mutated."""

    module: SModule
    product: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.module.size
        self.product = freeze(self.product, "product", n, length=n, width=n)

    @property
    def size(self):
        return self.module.size


@takes(M=SModule)
def validate_module(M: SModule) -> Verdict:
    """Every module axiom swept with witnesses; for balanced modules the
    bimodule laws are included."""
    A, S = M.sset, M.sset.base
    star, smap, act, add, zero = A.star, A.smap, A.action, M.add, M.zero
    smul, sstar = S.mul, S.star
    out = list(check_sset(A))
    for r in S.elements:
        zr = zero[r]
        if smap[zr] != r:
            out.append(Violation("ZeroSectionViolation", (r,)))
        if zero[sstar[r]] != star[zr]:
            out.append(Violation("ZeroStarViolation", (r,)))
        act_zr, mul_r = act[zr], smul[r]
        for s in S.elements:
            if zero[mul_r[s]] != act_zr[s]:
                out.append(Violation("ZeroEquivarianceViolation", (r, s)))
    for a, add_a in enumerate(add):
        fa, act_a = smap[a], act[a]
        for b in A.elements:
            v = add_a[b]
            defined = v != -1
            if defined != (fa == smap[b]):
                out.append(Violation("AdditionDomainViolation", (a, b)))
            if not defined:
                continue
            if smap[v] != fa:
                out.append(Violation("AdditionFiberViolation", (a, b)))
            add_b = add[b]
            if add_b[a] != v:
                out.append(Violation("AdditionCommutativityViolation", (a, b)))
            if star[v] != add[star[a]][star[b]]:
                out.append(Violation("StarAdditivityViolation", (a, b)))
            act_v, act_b = act[v], act[b]
            for r in S.elements:
                if act_v[r] != add[act_a[r]][act_b[r]]:
                    out.append(Violation("DistributivityViolation", (a, b, r)))
            add_v = add[v]
            for c in A.elements:
                if smap[c] == fa:
                    if add_v[c] != add_a[add_b[c]]:
                        out.append(Violation("AdditionAssociativityViolation", (a, b, c)))
    for a in A.elements:
        if add[a][zero[smap[a]]] != a:
            out.append(Violation("ZeroLawViolation", (a,)))

    # (ra)s = r(as) needs no sweep here: it is balance condition 1, which
    # balanced_check has swept on these tables
    if balanced_check(A).balanced:
        for r, left in enumerate(left_table(A)):
            mul_r = smul[r]
            for a in A.elements:
                ra = left[a]
                if smap[ra] != mul_r[smap[a]]:
                    out.append(Violation("LeftEquivarianceViolation", (r, a)))
                add_a, add_ra, fa = add[a], add[ra], smap[a]
                for b in A.elements:
                    if fa == smap[b]:
                        if left[add_a[b]] != add_ra[left[b]]:
                            out.append(Violation("LeftDistributivityViolation", (r, a, b)))
            for s in S.elements:
                if zero[mul_r[s]] != left[zero[s]]:
                    out.append(Violation("ZeroLeftEquivarianceViolation", (r, s)))
    return Verdict(out)


@takes(Alg=SAlgebra)
@memo
def validate_algebra(Alg: SAlgebra) -> Verdict:
    """The module axioms of the underlying module and the algebra axioms,
    swept once per algebra.  Product associativity compares the row of
    (ab)c over c with a(bc) whole first and walks it cell by cell only when
    it differs, so the violations come out as the cell sweep lists them."""
    M = Alg.module
    A, S = M.sset, M.sset.base
    mul, add, zero = Alg.product, M.add, M.zero
    star, smap, act, sstar = A.star, A.smap, A.action, S.star
    after = [composer(mul_b) for mul_b in mul]
    out = list(validate_module(M).violations)
    for a, mul_a in enumerate(mul):
        sa, fa_row = star[a], S.mul[smap[a]]
        for b in A.elements:
            ab = mul_a[b]
            if star[ab] != mul[star[b]][sa]:
                out.append(Violation("ProductStarViolation", (a, b)))
            if smap[ab] != fa_row[smap[b]]:
                out.append(Violation("PsiHomViolation", (a, b)))
            mul_ab, mul_b = mul[ab], mul[b]
            if mul_ab == after[b](mul_a):
                continue
            for c in A.elements:
                if mul_ab[c] != mul_a[mul_b[c]]:
                    out.append(Violation("ProductAssociativityViolation", (a, b, c)))
        if mul[mul_a[sa]][a] != a:
            out.append(Violation("PartialIsometryViolation", (a,)))
    for r in S.elements:
        zr, mul_r = mul[zero[r]], S.mul[r]
        for s in S.elements:
            if zr[zero[s]] != zero[mul_r[s]]:
                out.append(Violation("ZeroHomViolation", (r, s)))
    for a, mul_a in enumerate(mul):
        fa, add_a = smap[a], add[a]
        for b in A.elements:
            if fa != smap[b]:
                continue
            ab = add_a[b]
            mul_b, mul_ab = mul[b], mul[ab]
            for c in A.elements:
                if add[mul_a[c]][mul_b[c]] != mul_ab[c]:
                    out.append(Violation("ProductDistributivityViolation", (a, b, c)))
                mul_c = mul[c]
                if add[mul_c[a]][mul_c[b]] != mul_c[ab]:
                    out.append(Violation("OtherDistributivityViolation", (c, a, b)))
    for a, mul_a in enumerate(mul):
        act_a = act[a]
        for b in A.elements:
            act_b, act_ab, sb = act[b], act[mul_a[b]], star[b]
            for r in S.elements:
                br = act_b[r]
                if mul_a[br] != act_ab[r]:
                    out.append(Violation("ProductActionViolation", (a, b, r)))
                if mul_a[star[br]] != mul[act_a[sstar[r]]][sb]:
                    out.append(Violation("ProductStarActionViolation", (a, b, r)))
    return Verdict(out)


@takes(M=SModule, a=below("M.size"), b=below("M.size"))
def derived_product(M: SModule, a: int, b: int) -> int:
    return M.derived_table[a][b]


@takes(M=SModule)
def idem_to_algebra(M: SModule) -> SAlgebra:
    """A balanced module with idempotent addition becomes a balanced algebra
    under the derived product; validated, with aa* = a psi(a*) asserted."""
    A = M.sset
    if not balanced_check(A).balanced:
        raise StarError("idempotent-addition construction needs balance",
                        kind="NotBalanced")
    for a in A.elements:
        if M.add[a][a] != a:
            raise StarError(f"a + a != a at {a}", kind="AdditionNotIdempotent")
    table = M.derived_table
    alg = SAlgebra(M, table)
    report = validate_algebra(alg)
    if not report.ok:
        raise ConsistencyError(
            f"derived algebra fails validation: {report.violations[:3]}")
    for a in A.elements:
        if table[a][A.star[a]] != A.act(a, A.smap[A.star[a]]):
            raise ConsistencyError("aa* != a psi(a*)")
    return alg


@takes()
@dataclass(eq=False)
class FHatAlgebra:
    f: StarMorphism
    base: FiniteStarSemigroup
    elements: tuple[tuple[int, frozenset], ...]
    index: dict
    module: SModule
    algebra: SAlgebra
    semigroup: FiniteStarSemigroup
    psi: StarMorphism

    def position(self, r, subset) -> int:
        return self.index[(r, frozenset(subset))]

    def __repr__(self):
        return f"FHatAlgebra({len(self.elements)} elements over {self.base!r})"


# ---------------------------------------------------------------------------
# free module F(f): element-level operations


def _free_sum(name, a, f):
    """Refuse ``a`` unless it is an element (r, items) of F(f): r an element
    of the target and items (x, count) pairs in ascending x, each x over r
    and each count a positive int."""
    if not (type(a) is tuple and len(a) == 2 and type(a[1]) is tuple
            and type(a[0]) is int and 0 <= a[0] < f.target.order):
        raise ShapeError(f"{name} must be a pair (r, items) of F(f) with r "
                         f"in 0..{f.target.order - 1}, got {a!r}")
    r, items = a
    last = -1
    for item in items:
        x, k = item if type(item) is tuple and len(item) == 2 else (None, 0)
        if not (type(x) is int and last < x < f.source.order
                and f.map[x] == r and type(k) is int and k >= 1):
            raise ShapeError(f"{item!r} is not a term (x, count) over {r} "
                             f"in ascending order")
        last = x


# an element of F(f), of its base and of its source, for its methods
SUM = Kind(_free_sum, "self.f")
BASE_ELEMENT = element("self.base")
SOURCE_ELEMENT = element("self.source")


@takes(f=StarMorphism)
class FreeModule:
    """Formal finite fiberwise sums over an etale left involutive object.

    Elements are pairs (r, multiset) with the multiset stored as a sorted
    tuple of (element, count) pairs; the empty sum at r is the zero.  The
    operations refuse a malformed element or base element with ShapeError;
    ``check_axioms`` calls their bodies, so that a broken operation shows
    as a violation."""

    def __init__(self, f: StarMorphism):
        if not f.is_star_hom or not is_etale(f):
            raise StarError("free module needs an etale *-homomorphism",
                            kind="NotEtale")
        if not classify(f.source).left_involutive:
            raise StarError("free module needs a left involutive source",
                            kind="NotLeftInvolutive")
        self.f = f
        self.source = f.source
        self.base = f.target
        self.action = canonical_action(f)

    @takes(r=BASE_ELEMENT)
    def element(self, r, items) -> tuple:
        counts = {}
        for x in freeze(items, "items", self.source.order):
            if self.f.map[x] != r:
                raise StarError(f"{x} does not lie over {r}", kind="FiberMismatch")
            counts[x] = counts.get(x, 0) + 1
        return (r, tuple(sorted(counts.items())))

    @takes(r=BASE_ELEMENT)
    def zero(self, r) -> tuple:
        return (r, ())

    @takes(a=SUM, b=SUM)
    def add(self, a, b) -> tuple:
        if a[0] != b[0]:
            raise StarError("cross-fiber addition", kind="FiberMismatch")
        counts = dict(a[1])
        for x, k in b[1]:
            counts[x] = counts.get(x, 0) + k
        return (a[0], tuple(sorted(counts.items())))

    @takes(a=SUM)
    def star(self, a) -> tuple:
        X = self.source
        return (self.base.star[a[0]],
                tuple(sorted((X.star[x], k) for x, k in a[1])))

    @takes(a=SUM, s=BASE_ELEMENT)
    def act(self, a, s) -> tuple:
        counts = {}
        for x, k in a[1]:
            y = self.action.action[x][s]
            counts[y] = counts.get(y, 0) + k
        return (self.base.mul[a[0]][s], tuple(sorted(counts.items())))

    @takes(x=SOURCE_ELEMENT)
    def rho(self, x) -> tuple:
        return (self.f.map[x], ((x, 1),))

    @takes(a=SUM)
    def support(self, a) -> tuple:
        """The quotient map to F-hat: forget multiplicities."""
        return (a[0], frozenset(x for x, _ in a[1]))

    @takes(max_terms=NATURAL, count=NATURAL, seed=int)
    def sample_elements(self, max_terms=4, count=40, seed=0):
        """``count`` sums drawn by ``seed``; none over an empty base."""
        rng = random.Random(seed)
        out = []
        for _ in range(count if self.base.order else 0):
            r = rng.randrange(self.base.order)
            fiber = self.f.fibers[r]
            if not fiber:
                out.append(self.zero(r))
                continue
            k = rng.randrange(0, max_terms + 1)
            out.append(self.element(r, [rng.choice(fiber) for _ in range(k)]))
        return out

    @takes(seed=int, fh=(FHatAlgebra, None))
    def check_axioms(self, seed=0, fh=None) -> Verdict:
        """Module axioms on sampled elements, plus equivariance of rho; with
        ``fh``, the F-hat of the same map, also that the support quotient
        lands in it and commutes with star, the action and addition on the
        same elements.  A Verdict of the violations found."""
        X, S = self.source, self.base
        # the bodies: the samples are well formed, what a broken operation
        # returns need not be
        add, star, act, support = (partial(getattr(type(self), op).__wrapped__, self)
                                   for op in ("add", "star", "act", "support"))
        elems = self.sample_elements(seed=seed)
        out = []
        for a in elems:
            r = a[0]
            if add(a, self.zero(r)) != a:
                out.append(Violation("ZeroLawViolation", (a,)))
            if star(star(a)) != a:
                out.append(Violation("InvolutionViolation", (a,)))
            for s in S.elements:
                if act(a, s)[0] != S.mul[r][s]:
                    out.append(Violation("ActionFiberViolation", (a, s)))
            for b in elems:
                if b[0] != r:
                    continue
                ab = add(a, b)
                if ab != add(b, a):
                    out.append(Violation("AdditionCommutativityViolation", (a, b)))
                if star(ab) != add(star(a), star(b)):
                    out.append(Violation("StarAdditivityViolation", (a, b)))
                for s in S.elements:
                    if act(ab, s) != add(act(a, s), act(b, s)):
                        out.append(Violation("DistributivityViolation", (a, b, s)))
            for s in S.elements:
                for t in S.elements:
                    if act(act(a, s), t) != act(a, S.mul[s][t]):
                        out.append(Violation("ActionAssociativityViolation", (a, s, t)))
        for x in X.elements:
            if star(self.rho(x)) != self.rho(X.star[x]):
                out.append(Violation("RhoStarViolation", (x,)))
            for s in S.elements:
                if act(self.rho(x), s) != self.rho(self.action.action[x][s]):
                    out.append(Violation("RhoEquivarianceViolation", (x, s)))
        if fh is None:
            return Verdict(out)
        sset, fh_add = fh.module.sset, fh.module.add

        def at(a):
            return fh.index.get(support(a))

        for a in elems:
            i = at(a)
            if i is None:
                out.append(Violation("SupportRangeViolation", (a,)))
                continue
            if sset.star[i] != at(star(a)):
                out.append(Violation("QuotientStarViolation", (a,)))
            for s in S.elements:
                if sset.act(i, s) != at(act(a, s)):
                    out.append(Violation("QuotientActionViolation", (a, s)))
            for b in elems:
                j = at(b) if b[0] == a[0] else None
                if j is not None and fh_add[i][j] != at(add(a, b)):
                    out.append(Violation("QuotientAdditionViolation", (a, b)))
        return Verdict(out)


# ---------------------------------------------------------------------------
# the idempotent quotient F-hat(f)


@takes(f=StarMorphism, cap=NATURAL)
def fhat(f: StarMorphism, cap: int = 2 ** 16) -> FHatAlgebra:
    """Materialize F-hat(f) = {(r, A) : A a finite subset of the fiber over
    r} with union addition and the derived product As + rB.  A StarError of
    kind NotInverse, before any other check, when the base is not inverse,
    and a SearchBudgetExceeded of kind CarrierTooLarge when it would have
    more than ``cap`` elements.

    A subset is the bitmask of its elements' positions in the ascending
    fiber, and (r, A) sits at offset[r] + A.  Star and action map a subset
    through the image of each of its bits; ``elements``, ``index`` and
    ``position`` still speak of frozensets."""
    as_inverse.__wrapped__(f.target)
    if not f.is_star_hom or not is_etale(f):
        raise StarError("F-hat needs an etale *-homomorphism", kind="NotEtale")
    X, S = f.source, f.target
    if not classify(X).left_involutive:
        raise StarError("F-hat needs a left involutive source",
                        kind="NotLeftInvolutive")
    fibers = f.fibers
    bit = [0] * X.order
    for fib in fibers:
        for i, x in enumerate(fib):
            bit[x] = 1 << i
    sizes = [1 << len(fib) for fib in fibers]
    total = sum(sizes)
    if total > cap:
        raise SearchBudgetExceeded(
            f"F-hat carrier would have {total} > {cap} elements",
            kind="CarrierTooLarge")

    A0 = canonical_action(f)
    act0, left0 = A0.action, left_table(A0)
    offset = (0, *accumulate(sizes))
    n = offset[-1]
    elements = []
    for r, fib in enumerate(fibers):
        subsets = [frozenset()]
        for x in fib:
            subsets += [A | {x} for A in subsets]
        elements += [(r, A) for A in subsets]
    elements = tuple(elements)
    index = {el: i for i, el in enumerate(elements)}

    star, action, add = [], [], []
    for r, fib in enumerate(fibers):
        star_r = offset[S.star[r]]
        star += [star_r + B
                 for B in _subset_images([bit[X.star[x]] for x in fib])]
        cols = [(offset[rs], _subset_images([bit[act0[x][s]] for x in fib]))
                for s, rs in enumerate(S.mul[r])]
        lo, size = offset[r], sizes[r]
        before, after = (-1,) * lo, (-1,) * (n - lo - size)
        for A in range(size):
            action.append(tuple(o + images[A] for o, images in cols))
            add.append(before + tuple(lo + (A | B) for B in range(size)) + after)
    smap = tuple(r for r, size in enumerate(sizes) for _ in range(size))
    sset = make_sset(n, star, S, smap, action)
    module = SModule(sset, offset[:-1], tuple(add))
    algebra = idem_to_algebra(module)

    # the direct product formula AB = As union rB must agree with the
    # derived one; As and rB are mapped bit by bit from the canonical action
    # on X and its left action, not read from the tables above
    for r, fib in enumerate(fibers):
        mul_r, left0_r = S.mul[r], left0[r]
        right = [_subset_images([bit[act0[x][s]] for x in fib])
                 for s in S.elements]
        left = [_subset_images([bit[left0_r[x]] for x in fib_s])
                for fib_s in fibers]
        for A in range(sizes[r]):
            row = algebra.product[offset[r] + A]
            for s, left_s in enumerate(left):
                base, As, lo = offset[mul_r[s]], right[s][A], offset[s]
                for B, rB in enumerate(left_s):
                    if row[lo + B] != base + (As | rB):
                        raise ConsistencyError("derived product differs from As + rB")

    # A *-semigroup with psi a *-homomorphism, with no sweep of its own:
    # idem_to_algebra's validate_algebra swept this product table for
    # associativity, aa*a = a, (ab)* = b*a* and psi(ab) = psi(a)psi(b)
    # (ProductAssociativity, PartialIsometry, ProductStar, PsiHom), and
    # make_sset's check_sset swept x** = x and psi(x*) = psi(x)*.
    sg = FiniteStarSemigroup(n, algebra.product, tuple(star), "Fhat")
    psi = StarMorphism(sg, S, smap, name="fhat-psi")

    out = FHatAlgebra(f, S, elements, index, module, algebra, sg, psi)
    _fhat_identities(out)
    return out


def _subset_images(bits):
    """Per mask over len(bits) positions, the OR of ``bits[i]`` over its set
    bits i: the image of every subset under a map given bit by bit."""
    out = [0]
    for b in bits:
        out += [image | b for image in out]
    return out


def _fhat_identities(fh: FHatAlgebra):
    """Coset identities: rr* A = A; Ar* = {aa*}; r*A = {a*a}.  (A r*r = A
    is check_sset's unit law at (r, A), swept by make_sset; As = A 0(s) is
    the derived product's own check, a 0(r) = ar.)"""
    S, X = fh.base, fh.f.source
    left0 = left_table(canonical_action(fh.f))
    act, left = fh.module.sset.action, left_table(fh.module.sset)
    for i, (r, A) in enumerate(fh.elements):
        rrstar = left0[S.c(r)]
        if fh.index[(r, frozenset(rrstar[a] for a in A))] != i:
            raise ConsistencyError("rr* A = A fails")
        ar_star = act[i][S.star[r]]
        if fh.elements[ar_star][1] != frozenset(X.c(a) for a in A):
            raise ConsistencyError("Ar* != {aa*}")
        rstar_a = left[S.star[r]][i]
        if fh.elements[rstar_a][1] != frozenset(X.d(a) for a in A):
            raise ConsistencyError("r*A != {a*a}")


@dataclass(frozen=True)
class RhoResult:
    morphism: StarMorphism
    injective: bool
    is_left_star_hom: bool
    is_star_hom: bool
    source_involutive: bool


@takes(fh=FHatAlgebra)
def rho(fh: FHatAlgebra) -> RhoResult:
    """x |-> (f(x), {x}): an injective left *-homomorphism into F-hat, and a
    *-homomorphism exactly when the source is involutive."""
    X = fh.f.source
    A0 = canonical_action(fh.f)
    act0, left0 = A0.action, left_table(A0)
    mapping = tuple(fh.index[(fh.f.map[x], frozenset([x]))] for x in X.elements)
    m = StarMorphism(X, fh.semigroup, mapping, name="rho")
    if not m.is_left_star_hom:
        raise ConsistencyError("rho is not a left *-homomorphism")
    # the singleton identity xy = x f(x*xy) + f(x) x*xy, as subsets
    for x in X.elements:
        for y in X.elements:
            z = X.mul[X.d(x)][y]
            first = act0[x][fh.f.map[z]]
            second = left0[fh.f.map[x]][z]
            if {X.mul[x][y]} != {first, second}:
                raise ConsistencyError("rho product identity fails")
    result = RhoResult(
        m, m.is_injective, m.is_left_star_hom, m.is_star_hom,
        classify(X).involutive,
    )
    if result.is_star_hom != result.source_involutive:
        raise ConsistencyError(
            "rho multiplicativity should match involutivity of the source")
    return result


@dataclass(frozen=True)
class LiftResult:
    morphism: StarMorphism


@takes(phi=StarMorphism, fh_f=FHatAlgebra, fh_g=FHatAlgebra)
def lift_morphism(phi: StarMorphism, fh_f: FHatAlgebra, fh_g: FHatAlgebra) -> LiftResult:
    """Lift a left *-homomorphism over S between etale objects to the image
    map F-hat(f) -> F-hat(g); preserves star, action, addition, product,
    zero, and commutes with rho."""
    if phi.source is not fh_f.f.source or phi.target is not fh_g.f.source:
        raise ShapeError("phi does not connect the two F-hat bases")
    if not phi.is_left_star_hom:
        raise ShapeError("phi must be a left *-homomorphism")
    if any(fh_g.f.map[phi.map[x]] != fh_f.f.map[x]
           for x in phi.source.elements):
        raise ShapeError("phi is not over S")
    # left *-homs between etale left involutive objects over S are
    # automatically *-homomorphisms
    if not phi.is_star_hom:
        raise ConsistencyError("phi over etale objects must be multiplicative")

    mapping = tuple(
        fh_g.index[(r, frozenset(phi.map[a] for a in A))]
        for (r, A) in fh_f.elements
    )
    out = StarMorphism(fh_f.semigroup, fh_g.semigroup, mapping, name="lift(phi)")
    S = fh_f.base
    mf, mg = fh_f.module, fh_g.module
    if not out.is_star_hom:
        raise ConsistencyError("lifted morphism does not preserve star/product")
    for i in range(len(fh_f.elements)):
        for s in S.elements:
            if mapping[mf.sset.act(i, s)] != mg.sset.act(mapping[i], s):
                raise ConsistencyError("lifted morphism does not preserve the action")
        for j in range(len(fh_f.elements)):
            if mf.add[i][j] == -1:
                continue
            if mapping[mf.add[i][j]] != mg.add[mapping[i]][mapping[j]]:
                raise ConsistencyError("lifted morphism does not preserve addition")
    for r in S.elements:
        if mapping[mf.zero[r]] != mg.zero[r]:
            raise ConsistencyError("lifted morphism does not preserve zero")
    rho_f, rho_g = rho(fh_f).morphism, rho(fh_g).morphism
    for x in phi.source.elements:
        if mapping[rho_f.map[x]] != rho_g.map[phi.map[x]]:
            raise ConsistencyError("lifted morphism does not commute with rho")
    return LiftResult(out)


@takes(alg_or_fhat=(SAlgebra, FHatAlgebra))
def gamma_algebra(alg_or_fhat, budget=None) -> "topos.GammaPresheaf":
    """Probe the multiplicative carrier of an involutive S-algebra with left
    *-homomorphisms out of the S(e), reusing the Gamma enumeration."""
    if isinstance(alg_or_fhat, FHatAlgebra):
        return topos.gamma(alg_or_fhat.psi, budget=budget)
    alg = alg_or_fhat
    M = alg.module
    A, S = M.sset, M.sset.base
    report = validate_algebra(alg)
    if not report.ok:
        raise ShapeError(f"not a valid algebra: {report.violations[:3]}")
    # a *-semigroup with psi a *-homomorphism by the sweeps just passed, as
    # in fhat: ProductAssociativity, PartialIsometry, PsiHom, and
    # check_sset's involution and star laws
    sg = FiniteStarSemigroup(A.size, alg.product, A.star)
    psi = StarMorphism(sg, S, A.smap)
    as_inverse(S)
    return topos.gamma(psi, budget=budget)
