"""Involutive S-modules and S-algebras; the free module F(f) on an etale
object, its idempotent quotient F-hat(f) of finite fiber subsets, the
embedding rho, and morphism lifting.

F(f) has an infinite carrier, so it is exposed as element-level operations
with sampled axiom checks.  F-hat(f) is materialized in full: one element
per pair (r, A) with A a subset of the fiber over r.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import topos
from .core import (
    ConsistencyError,
    FiniteStarSemigroup,
    NotEtale,
    ShapeError,
    StarError,
    StarMorphism,
    Verdict,
    Violation,
    classify,
    is_etale,
    memo,
    validate_star_semigroup,
)
from .site import as_inverse
from .ssets import (
    SSetStructure,
    balanced_check,
    canonical_action,
    check_sset,
    make_sset,
)


class FiberMismatch(StarError):
    pass


class CarrierTooLarge(StarError):
    pass


class AdditionNotIdempotent(StarError):
    pass


class NotBalanced(StarError):
    pass


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
        self.zero = tuple(self.zero)
        self.add = tuple(tuple(r) for r in self.add)
        n = self.sset.size
        if len(self.zero) != self.sset.base.order:
            raise ShapeError("zero section has wrong length")
        if len(self.add) != n or any(len(r) != n for r in self.add):
            raise ShapeError("addition table has wrong shape")

    @property
    def size(self):
        return self.sset.size

    @property
    def base(self):
        return self.sset.base

    def plus(self, a, b):
        v = self.add[a][b]
        if v == -1:
            raise FiberMismatch(f"{a} and {b} live in different fibers")
        return v

    def left(self, r, a):
        A = self.sset
        return A.star[A.act(A.star[a], self.base.star[r])]

    @memo
    def derived_table(self) -> tuple[tuple[int, ...], ...]:
        """The derivation-style product ab = a psi(b) + psi(a) b, with the
        general consequences asserted once: associativity, (ab)* = b*a*,
        a 0(r) = ar, and multiplicativity of the zero section."""
        M = self
        if not balanced_check(M.sset).balanced:
            raise NotBalanced("derived product needs a balanced module")
        A, S = M.sset, M.sset.base
        table = []
        for a in A.elements:
            row = []
            for b in A.elements:
                row.append(M.plus(A.act(a, A.smap[b]), M.left(A.smap[a], b)))
            table.append(tuple(row))
        table = tuple(table)
        for a in A.elements:
            for b in A.elements:
                if A.star[table[a][b]] != table[A.star[b]][A.star[a]]:
                    raise ConsistencyError("derived product breaks (ab)* = b*a*")
                for c in A.elements:
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ConsistencyError("derived product not associative")
            for r in S.elements:
                if table[a][M.zero[r]] != A.act(a, r):
                    raise ConsistencyError("a 0(r) != ar for the derived product")
        for r in S.elements:
            for s in S.elements:
                if table[M.zero[r]][M.zero[s]] != M.zero[S.mul[r][s]]:
                    raise ConsistencyError("zero section not multiplicative")
        return table


@dataclass(eq=False)
class SAlgebra:
    """A module with a product table; its validate_algebra verdict is kept
    on it, so it must not be mutated."""

    module: SModule
    product: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.product = tuple(tuple(r) for r in self.product)
        n = self.module.size
        if len(self.product) != n or any(len(r) != n for r in self.product):
            raise ShapeError("product table has wrong shape")

    @property
    def size(self):
        return self.module.size


def validate_module(M: SModule) -> Verdict:
    """Every module axiom swept with witnesses; for balanced modules the
    bimodule laws are included."""
    A, S = M.sset, M.sset.base
    out = list(check_sset(A))
    for r in S.elements:
        if A.smap[M.zero[r]] != r:
            out.append(Violation("ZeroSectionViolation", (r,)))
        if M.zero[S.star[r]] != A.star[M.zero[r]]:
            out.append(Violation("ZeroStarViolation", (r,)))
        for s in S.elements:
            if M.zero[S.mul[r][s]] != A.act(M.zero[r], s):
                out.append(Violation("ZeroEquivarianceViolation", (r, s)))
    for a in A.elements:
        for b in A.elements:
            defined = M.add[a][b] != -1
            if defined != (A.smap[a] == A.smap[b]):
                out.append(Violation("AdditionDomainViolation", (a, b)))
            if not defined:
                continue
            v = M.add[a][b]
            if A.smap[v] != A.smap[a]:
                out.append(Violation("AdditionFiberViolation", (a, b)))
            if M.add[b][a] != v:
                out.append(Violation("AdditionCommutativityViolation", (a, b)))
            if A.star[v] != M.add[A.star[a]][A.star[b]]:
                out.append(Violation("StarAdditivityViolation", (a, b)))
            for r in S.elements:
                if A.act(v, r) != M.add[A.act(a, r)][A.act(b, r)]:
                    out.append(Violation("DistributivityViolation", (a, b, r)))
            for c in A.elements:
                if A.smap[c] == A.smap[a]:
                    if M.add[M.add[a][b]][c] != M.add[a][M.add[b][c]]:
                        out.append(Violation("AdditionAssociativityViolation", (a, b, c)))
    for a in A.elements:
        if M.add[a][M.zero[A.smap[a]]] != a:
            out.append(Violation("ZeroLawViolation", (a,)))

    if balanced_check(A).balanced:
        for r in S.elements:
            for a in A.elements:
                ra = M.left(r, a)
                if A.smap[ra] != S.mul[r][A.smap[a]]:
                    out.append(Violation("LeftEquivarianceViolation", (r, a)))
                for s in S.elements:
                    if A.act(ra, s) != M.left(r, A.act(a, s)):
                        out.append(Violation("BimoduleCommutationViolation", (r, a, s)))
                for b in A.elements:
                    if A.smap[a] == A.smap[b]:
                        if M.left(r, M.add[a][b]) != M.add[M.left(r, a)][M.left(r, b)]:
                            out.append(Violation("LeftDistributivityViolation", (r, a, b)))
            for s in S.elements:
                if M.zero[S.mul[r][s]] != M.left(r, M.zero[s]):
                    out.append(Violation("ZeroLeftEquivarianceViolation", (r, s)))
    return Verdict(out)


@memo
def validate_algebra(Alg: SAlgebra) -> Verdict:
    """The module axioms of the underlying module and the algebra axioms,
    swept once per algebra."""
    M = Alg.module
    A, S = M.sset, M.sset.base
    mul = Alg.product
    out = list(validate_module(M).violations)
    for a in A.elements:
        for b in A.elements:
            if A.star[mul[a][b]] != mul[A.star[b]][A.star[a]]:
                out.append(Violation("ProductStarViolation", (a, b)))
            if A.smap[mul[a][b]] != S.mul[A.smap[a]][A.smap[b]]:
                out.append(Violation("PsiHomViolation", (a, b)))
            for c in A.elements:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    out.append(Violation("ProductAssociativityViolation", (a, b, c)))
        if mul[mul[a][A.star[a]]][a] != a:
            out.append(Violation("PartialIsometryViolation", (a,)))
    for r in S.elements:
        for s in S.elements:
            if mul[M.zero[r]][M.zero[s]] != M.zero[S.mul[r][s]]:
                out.append(Violation("ZeroHomViolation", (r, s)))
    for a in A.elements:
        for b in A.elements:
            if A.smap[a] != A.smap[b]:
                continue
            ab = M.add[a][b]
            for c in A.elements:
                if M.add[mul[a][c]][mul[b][c]] != mul[ab][c]:
                    out.append(Violation("ProductDistributivityViolation", (a, b, c)))
                if M.add[mul[c][a]][mul[c][b]] != mul[c][ab]:
                    out.append(Violation("OtherDistributivityViolation", (c, a, b)))
    for a in A.elements:
        for b in A.elements:
            for r in S.elements:
                if mul[a][A.act(b, r)] != A.act(mul[a][b], r):
                    out.append(Violation("ProductActionViolation", (a, b, r)))
                if mul[a][A.star[A.act(b, r)]] != mul[A.act(a, S.star[r])][A.star[b]]:
                    out.append(Violation("ProductStarActionViolation", (a, b, r)))
    return Verdict(out)


def derived_product(M: SModule, a: int, b: int) -> int:
    return M.derived_table[a][b]


def idem_to_algebra(M: SModule) -> SAlgebra:
    """A balanced module with idempotent addition becomes a balanced algebra
    under the derived product; validated, with aa* = a psi(a*) asserted."""
    A = M.sset
    if not balanced_check(A).balanced:
        raise NotBalanced("idempotent-addition construction needs balance")
    for a in A.elements:
        if M.add[a][a] != a:
            raise AdditionNotIdempotent(f"a + a != a at {a}")
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


# ---------------------------------------------------------------------------
# free module F(f): element-level operations


class FreeModule:
    """Formal finite fiberwise sums over an etale left involutive object.

    Elements are pairs (r, multiset) with the multiset stored as a sorted
    tuple of (element, count) pairs; the empty sum at r is the zero."""

    def __init__(self, f: StarMorphism):
        if not f.is_star_hom or not is_etale(f):
            raise NotEtale("free module needs an etale *-homomorphism")
        if not classify(f.source).left_involutive:
            raise topos.NotLeftInvolutive("free module needs a left involutive source")
        self.f = f
        self.source = f.source
        self.base = f.target
        self.action = canonical_action(f)

    def element(self, r, items) -> tuple:
        counts = {}
        for x in items:
            if self.f.map[x] != r:
                raise FiberMismatch(f"{x} does not lie over {r}")
            counts[x] = counts.get(x, 0) + 1
        return (r, tuple(sorted(counts.items())))

    def zero(self, r) -> tuple:
        return (r, ())

    def add(self, a, b) -> tuple:
        if a[0] != b[0]:
            raise FiberMismatch("cross-fiber addition")
        counts = dict(a[1])
        for x, k in b[1]:
            counts[x] = counts.get(x, 0) + k
        return (a[0], tuple(sorted(counts.items())))

    def star(self, a) -> tuple:
        X = self.source
        return (self.base.star[a[0]],
                tuple(sorted((X.star[x], k) for x, k in a[1])))

    def act(self, a, s) -> tuple:
        counts = {}
        for x, k in a[1]:
            y = self.action.act(x, s)
            counts[y] = counts.get(y, 0) + k
        return (self.base.mul[a[0]][s], tuple(sorted(counts.items())))

    def rho(self, x) -> tuple:
        return (self.f.map[x], ((x, 1),))

    def support(self, a) -> tuple:
        """The quotient map to F-hat: forget multiplicities."""
        return (a[0], frozenset(x for x, _ in a[1]))

    def sample_elements(self, max_terms=4, count=50, seed=0):
        rng = random.Random(seed)
        X, S = self.source, self.base
        out = []
        for _ in range(count):
            r = rng.randrange(S.order)
            fiber = [x for x in X.elements if self.f.map[x] == r]
            if not fiber:
                out.append(self.zero(r))
                continue
            k = rng.randrange(0, max_terms + 1)
            out.append(self.element(r, [rng.choice(fiber) for _ in range(k)]))
        return out

    def check_axioms(self, max_terms=4, count=40, seed=0):
        """Module axioms on sampled elements, plus equivariance of rho and
        of the support quotient."""
        X, S = self.source, self.base
        elems = self.sample_elements(max_terms, count, seed)
        for a in elems:
            r = a[0]
            assert self.add(a, self.zero(r)) == a
            assert self.star(self.star(a)) == a
            for s in S.elements:
                assert self.act(a, s)[0] == S.mul[r][s]
            for b in elems:
                if b[0] != r:
                    continue
                assert self.add(a, b) == self.add(b, a)
                assert self.star(self.add(a, b)) == self.add(self.star(a), self.star(b))
                for s in S.elements:
                    assert self.act(self.add(a, b), s) == self.add(
                        self.act(a, s), self.act(b, s))
            for s in S.elements:
                for t in S.elements:
                    assert self.act(self.act(a, s), t) == self.act(a, S.mul[s][t])
        for x in X.elements:
            assert self.star(self.rho(x)) == self.rho(X.star[x])
            for s in S.elements:
                assert self.act(self.rho(x), s) == self.rho(self.action.act(x, s))
        return True


# ---------------------------------------------------------------------------
# the idempotent quotient F-hat(f)


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


def fhat(f: StarMorphism, cap: int = 2 ** 16) -> FHatAlgebra:
    """Materialize F-hat(f) = {(r, A) : A a finite subset of the fiber over
    r} with union addition and the derived product As + rB."""
    if not f.is_star_hom or not is_etale(f):
        raise NotEtale("F-hat needs an etale *-homomorphism")
    X, S = f.source, f.target
    if not classify(X).left_involutive:
        raise topos.NotLeftInvolutive("F-hat needs a left involutive source")
    fibers = {r: [x for x in X.elements if f.map[x] == r] for r in S.elements}
    total = sum(2 ** len(v) for v in fibers.values())
    if total > cap:
        raise CarrierTooLarge(f"F-hat carrier would have {total} > {cap} elements")

    act0 = canonical_action(f)
    elements = []
    for r in S.elements:
        fib = fibers[r]
        for mask in range(2 ** len(fib)):
            subset = frozenset(fib[i] for i in range(len(fib)) if mask >> i & 1)
            elements.append((r, subset))
    elements = tuple(elements)
    index = {el: i for i, el in enumerate(elements)}

    def star_of(el):
        r, A = el
        return (S.star[r], frozenset(X.star[a] for a in A))

    def act_of(el, s):
        r, A = el
        return (S.mul[r][s], frozenset(act0.act(a, s) for a in A))

    def left_of(r, el):
        return star_of(act_of(star_of(el), S.star[r]))

    n = len(elements)
    star = tuple(index[star_of(el)] for el in elements)
    smap = tuple(r for r, _ in elements)
    action = tuple(
        tuple(index[act_of(el, s)] for s in S.elements) for el in elements
    )
    sset = make_sset(n, star, S, smap, action)
    zero = tuple(index[(r, frozenset())] for r in S.elements)
    add = []
    for (r, A) in elements:
        row = []
        for (r2, B) in elements:
            row.append(index[(r, A | B)] if r == r2 else -1)
        add.append(tuple(row))
    module = SModule(sset, zero, tuple(add))
    algebra = idem_to_algebra(module)

    # direct product formula AB = As union rB must agree with the derived one
    for i, (r, A) in enumerate(elements):
        for j, (s2, B) in enumerate(elements):
            direct = (S.mul[r][s2],
                      act_of((r, A), s2)[1] | left_of(r, (s2, B))[1])
            if algebra.product[i][j] != index[direct]:
                raise ConsistencyError("derived product differs from As + rB")

    mul_table = algebra.product
    sg = validate_star_semigroup(n, mul_table, star, name="Fhat")
    if not classify(sg).involutive:
        raise ConsistencyError("F-hat multiplicative semigroup is not involutive")
    psi = StarMorphism(sg, S, smap, name="fhat-psi")
    if not psi.is_star_hom:
        raise ConsistencyError("F-hat structure map is not a *-homomorphism")

    out = FHatAlgebra(f, S, elements, index, module, algebra, sg, psi)
    _fhat_identities(out)
    return out


def _fhat_identities(fh: FHatAlgebra):
    """Coset identities: A r*r = A = rr* A; Ar* = {aa*}; r*A = {a*a};
    As = A 0(s)."""
    S, X = fh.base, fh.f.source
    act0 = canonical_action(fh.f)
    mul = fh.algebra.product
    act = fh.module.sset.action
    for i, (r, A) in enumerate(fh.elements):
        a_rstar_r = act[i][S.mul[S.star[r]][r]]
        rrstar_a = fh.index[
            (r, frozenset(
                X.star[act0.act(X.star[a], S.star[S.mul[r][S.star[r]]])]
                for a in A))]
        if a_rstar_r != i or rrstar_a != i:
            raise ConsistencyError("A r*r = A = rr* A fails")
        ar_star = act[i][S.star[r]]
        if fh.elements[ar_star][1] != frozenset(X.c(a) for a in A):
            raise ConsistencyError("Ar* != {aa*}")
        rstar_a = fh.module.left(S.star[r], i)
        if fh.elements[rstar_a][1] != frozenset(X.d(a) for a in A):
            raise ConsistencyError("r*A != {a*a}")
        for s in S.elements:
            if act[i][s] != mul[i][fh.module.zero[s]]:
                raise ConsistencyError("As != A 0(s)")


@dataclass(frozen=True)
class RhoResult:
    morphism: StarMorphism
    injective: bool
    is_left_star_hom: bool
    is_star_hom: bool
    source_involutive: bool


def rho(fh: FHatAlgebra) -> RhoResult:
    """x |-> (f(x), {x}): an injective left *-homomorphism into F-hat, and a
    *-homomorphism exactly when the source is involutive."""
    X, S = fh.f.source, fh.base
    act0 = canonical_action(fh.f)
    mapping = tuple(fh.index[(fh.f.map[x], frozenset([x]))] for x in X.elements)
    m = StarMorphism(X, fh.semigroup, mapping, name="rho")
    if not m.is_left_star_hom:
        raise ConsistencyError("rho is not a left *-homomorphism")
    # the singleton identity xy = x f(x*xy) + f(x) x*xy, as subsets
    for x in X.elements:
        for y in X.elements:
            z = X.mul[X.d(x)][y]
            first = act0.act(x, fh.f.map[z])
            second = X.star[act0.act(X.star[z], S.star[fh.f.map[x]])]
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


def gamma_algebra(alg_or_fhat, budget=None) -> "topos.GammaPresheaf":
    """Probe the multiplicative carrier of an involutive S-algebra with left
    *-homomorphisms out of the S(e), reusing the Gamma enumeration."""
    if isinstance(alg_or_fhat, FHatAlgebra):
        return topos.gamma(alg_or_fhat.psi, budget=budget, strategy="generic")
    alg = alg_or_fhat
    M = alg.module
    A, S = M.sset, M.sset.base
    report = validate_algebra(alg)
    if not report.ok:
        raise ShapeError(f"not a valid algebra: {report.violations[:3]}")
    sg = validate_star_semigroup(A.size, alg.product, A.star)
    psi = StarMorphism(sg, S, A.smap)
    if not psi.is_star_hom:
        raise ShapeError("algebra structure map is not a *-homomorphism")
    as_inverse(S)
    return topos.gamma(psi, budget=budget, strategy="generic")
