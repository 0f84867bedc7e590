"""Ordered groupoids with mediator and the two ESN functors.

A groupoid is stored with explicit dom/cod/identity/inverse arrays, a
partial composition table (-1 marks undefined), a materialized partial
order on morphisms, and an optional total mediator table on object pairs.
The object order is always derived from the morphism order restricted to
identities; it is never stored separately.  A groupoid's validation, its
mediator's verdict and its ESN semigroup are kept on it with ``core.memo``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    ConsistencyError,
    FiniteStarSemigroup,
    Invalid,
    Relation,
    ShapeError,
    StarError,
    Verdict,
    Violation,
    below,
    classify,
    compose,
    freeze,
    memo,
    natural_order,
    projections,
    takes,
    validate_star_semigroup,
)


class NotComparable(StarError):
    pass


@takes()
@dataclass(frozen=True)
class OrderedGroupoidWithMediator:
    n_objects: int
    n_morphisms: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]
    inverse: tuple[int, ...]
    compose: tuple[tuple[int, ...], ...]  # compose[x][y] = x after y, -1 undefined
    order: Relation
    mediator: tuple[tuple[int, ...], ...] | None = None
    name: str | None = None

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def morphisms(self) -> range:
        return range(self.n_morphisms)

    @takes(p=below("self.n_objects"), q=below("self.n_objects"))
    def object_leq(self, p: int, q: int) -> bool:
        return _object_leq(self, p, q)

    def __repr__(self):
        tag = self.name or "?"
        med = "+mediator" if self.mediator is not None else ""
        return (f"OrderedGroupoid({tag}, objects={self.n_objects}, "
                f"morphisms={self.n_morphisms}{med})")


def _object_leq(G, p, q):
    return G.order.leq(G.identity[p], G.identity[q])


# a morphism and an object of the argument G
MORPHISM = below("G.n_morphisms")
OBJECT = below("G.n_objects")


def _shape_check(G: OrderedGroupoidWithMediator):
    n, m = G.n_morphisms, G.n_objects
    if not (type(n) is type(m) is int and n >= 0 and m >= 0):
        raise ShapeError(f"object and morphism counts must be non-negative "
                         f"integers, got {m!r} and {n!r}")
    freeze(G.dom, "dom", m, length=n)
    freeze(G.cod, "cod", m, length=n)
    freeze(G.identity, "identity", n, length=m)
    freeze(G.inverse, "inverse", n, length=n)
    freeze(G.compose, "compose", n, length=n, width=n, start=-1)
    if not isinstance(G.order, Relation) or G.order.size != n:
        raise ShapeError(f"order must be a Relation of size {n}")
    freeze(G.order.rows, "order", 1 << n, length=n)
    if G.mediator is not None:
        freeze(G.mediator, "mediator", n, length=m, width=m)


@takes(G=OrderedGroupoidWithMediator)
@memo
def validate_groupoid(G: OrderedGroupoidWithMediator):
    """Check groupoid and ordered-groupoid axioms; raises Invalid, of kind
    InvalidGroupoid.

    Restriction/corestriction existence and uniqueness are checked here, so
    restrict() can later assume exactly one candidate.  Swept once per
    groupoid, as are validate_mediator and esn_semigroup.
    """
    _shape_check(G)
    problems = []
    n = G.n_morphisms

    for p in G.objects:
        i = G.identity[p]
        if G.dom[i] != p or G.cod[i] != p:
            problems.append(Violation("IdentityEndpoints", (p,)))
    for x in G.morphisms:
        for y in G.morphisms:
            z = G.compose[x][y]
            defined = G.dom[x] == G.cod[y]
            if (z != -1) != defined:
                problems.append(Violation("CompositionDomain", (x, y)))
            elif z != -1 and (G.dom[z] != G.dom[y] or G.cod[z] != G.cod[x]):
                problems.append(Violation("CompositionEndpoints", (x, y)))
    for x in G.morphisms:
        i, j = G.identity[G.cod[x]], G.identity[G.dom[x]]
        if G.compose[i][x] != x or G.compose[x][j] != x:
            problems.append(Violation("IdentityLaw", (x,)))
        inv = G.inverse[x]
        if G.dom[inv] != G.cod[x] or G.cod[inv] != G.dom[x]:
            problems.append(Violation("InverseEndpoints", (x,)))
        elif (G.compose[x][inv] != G.identity[G.cod[x]]
              or G.compose[inv][x] != G.identity[G.dom[x]]):
            problems.append(Violation("InverseLaw", (x,)))
    for x in G.morphisms:
        for y in G.morphisms:
            if G.compose[x][y] == -1:
                continue
            for z in G.morphisms:
                if G.compose[y][z] == -1:
                    continue
                if G.compose[G.compose[x][y]][z] != G.compose[x][G.compose[y][z]]:
                    problems.append(Violation("Associativity", (x, y, z)))

    if not G.order.is_partial_order():
        problems.append(Violation("OrderNotPartialOrder", ()))
    for x in G.morphisms:
        for y in G.morphisms:
            if G.order.leq(x, y) and not G.order.leq(G.inverse[x], G.inverse[y]):
                problems.append(Violation("OrderInversion", (x, y)))
    for x1 in G.morphisms:
        for x2 in G.morphisms:
            if not G.order.leq(x1, x2):
                continue
            for y1 in G.morphisms:
                if G.compose[x1][y1] == -1:
                    continue
                for y2 in G.morphisms:
                    if G.compose[x2][y2] == -1 or not G.order.leq(y1, y2):
                        continue
                    if not G.order.leq(G.compose[x1][y1], G.compose[x2][y2]):
                        problems.append(Violation("OrderComposition", (x1, y1, x2, y2)))

    for x in G.morphisms:
        for p in G.objects:
            if not _object_leq(G, p, G.dom[x]):
                continue
            hits = _below(G, x, G.dom, p)
            if len(hits) != 1:
                problems.append(Violation("RestrictionNotUnique", (x, p, len(hits))))
        for q in G.objects:
            if not _object_leq(G, q, G.cod[x]):
                continue
            hits = _below(G, x, G.cod, q)
            if len(hits) != 1:
                problems.append(Violation("CorestrictionNotUnique", (x, q, len(hits))))
                continue
            # a restriction that is not unique was recorded by the loop above
            # (or its endpoints by InverseEndpoints); compare only with one
            back = _below(G, G.inverse[x], G.dom, q)
            if len(back) == 1 and hits[0] != G.inverse[back[0]]:
                problems.append(Violation("CorestrictionFormula", (x, q)))

    if problems:
        raise Invalid(problems, kind="InvalidGroupoid")


def _below(G, x, end, p):
    """The y <= x whose ``end`` (``G.dom`` or ``G.cod``) is object p."""
    return [y for y in G.morphisms if G.order.leq(y, x) and end[y] == p]


def _unique_below(G, x, end, p, what):
    hits = _below(G, x, end, p)
    if len(hits) != 1:
        raise StarError(f"{what} of {x} to {p}: {hits}", kind="NonUnique")
    return hits[0]


@takes(G=OrderedGroupoidWithMediator, x=MORPHISM, p=OBJECT)
def restrict(G: OrderedGroupoidWithMediator, x: int, p: int) -> int:
    """The unique y <= x with dom(y) = p, for p <= dom(x)."""
    if not _object_leq(G, p, G.dom[x]):
        raise StarError(f"object {p} is not below dom({x})",
                        kind="NotBounded")
    return _unique_below(G, x, G.dom, p, "restriction")


@takes(G=OrderedGroupoidWithMediator, x=MORPHISM, q=OBJECT)
def corestrict(G: OrderedGroupoidWithMediator, x: int, q: int) -> int:
    """The unique y <= x with cod(y) = q, for q <= cod(x)."""
    if not _object_leq(G, q, G.cod[x]):
        raise StarError(f"object {q} is not below cod({x})",
                        kind="NotBounded")
    return _unique_below(G, x, G.cod, q, "corestriction")


@takes(G=OrderedGroupoidWithMediator, x=MORPHISM, y=MORPHISM)
def extended_compose(G: OrderedGroupoidWithMediator, x: int, y: int) -> int:
    """x (x) y: compose after restricting x down to cod(y), or corestricting
    y up to dom(x), whichever comparison holds."""
    _extended_associativity_checked(G)
    return _ext(G, x, y)


def _ext(G, x, y):
    dx, cy = G.dom[x], G.cod[y]
    if _object_leq(G, cy, dx):
        return G.compose[_unique_below(G, x, G.dom, cy, "restriction")][y]
    if _object_leq(G, dx, cy):
        return G.compose[x][_unique_below(G, y, G.cod, dx, "corestriction")]
    raise NotComparable(f"dom({x}) and cod({y}) are not comparable")


def _ext_or_none(G, x, y):
    dx, cy = G.dom[x], G.cod[y]
    if not (_object_leq(G, cy, dx) or _object_leq(G, dx, cy)):
        return None
    return _ext(G, x, y)


@memo
def _extended_associativity_checked(G: OrderedGroupoidWithMediator) -> bool:
    """Sweep (x(x)y)(x)z = x(x)(y(x)z) over all chains where both sides are
    defined; ran once per groupoid."""
    for x in G.morphisms:
        for y in G.morphisms:
            xy = _ext_or_none(G, x, y)
            for z in G.morphisms:
                yz = _ext_or_none(G, y, z)
                left = None if xy is None else _ext_or_none(G, xy, z)
                right = None if yz is None else _ext_or_none(G, x, yz)
                if left is not None and right is not None and left != right:
                    raise ConsistencyError(
                        f"extended composition not associative at {(x, y, z)}"
                    )
    return True


NO_MEDIATOR = Violation("MissingMediator", ())


@takes(G=OrderedGroupoidWithMediator)
@memo
def validate_mediator(G: OrderedGroupoidWithMediator) -> Verdict:
    """Check order-preservation, the two bounds, and action commutation."""
    if G.mediator is None:
        raise Invalid([NO_MEDIATOR], kind="InvalidGroupoid")
    _shape_check(G)
    med = G.mediator
    out = []
    for p in G.objects:
        for q in G.objects:
            m = med[p][q]
            if not _object_leq(G, G.dom[m], q):
                out.append(Violation("DomBoundViolation", (p, q)))
            if not _object_leq(G, G.cod[m], p):
                out.append(Violation("CodBoundViolation", (p, q)))
    for p1 in G.objects:
        for q1 in G.objects:
            for p2 in G.objects:
                if not _object_leq(G, p1, p2):
                    continue
                for q2 in G.objects:
                    if not _object_leq(G, q1, q2):
                        continue
                    if not G.order.leq(med[p1][q1], med[p2][q2]):
                        out.append(Violation("OrderPreservationViolation",
                                    (p1, q1, p2, q2)))
    for p in G.objects:
        for x in G.morphisms:
            try:
                px = _ext(G, med[p][G.cod[x]], x)
                for q in G.objects:
                    xq = _ext(G, x, med[G.dom[x]][q])
                    if _ext(G, px, med[G.dom[px]][q]) != _ext(G, med[p][G.cod[xq]], xq):
                        out.append(Violation("CommutationViolation", (p, x, q)))
            except NotComparable:
                # bound violations can leave an induced action undefined
                out.append(Violation("ActionUndefined", (p, x)))
    return Verdict(out)


# ---------------------------------------------------------------------------
# ESN functors


@takes(X=FiniteStarSemigroup)
def esn_ordered_groupoid(X: FiniteStarSemigroup) -> OrderedGroupoidWithMediator:
    """The ordered groupoid of a locally involutive semigroup, no mediator."""
    rel = natural_order(X)  # NotLocallyInvolutive if inapplicable
    projs = projections(X)
    obj_of = {p: i for i, p in enumerate(projs)}
    n = X.order
    dom_ = tuple(obj_of[X.d(x)] for x in X.elements)
    cod_ = tuple(obj_of[X.c(x)] for x in X.elements)
    compose_ = tuple(
        tuple(X.mul[x][y] if X.d(x) == X.c(y) else -1 for y in X.elements)
        for x in X.elements
    )
    return OrderedGroupoidWithMediator(
        n_objects=len(projs),
        n_morphisms=n,
        dom=dom_,
        cod=cod_,
        identity=projs,
        inverse=X.star,
        compose=compose_,
        order=rel,
        mediator=None,
        name=f"G({X.name})" if X.name else None,
    )


@takes(X=FiniteStarSemigroup)
def esn_groupoid(X: FiniteStarSemigroup) -> OrderedGroupoidWithMediator:
    """The ordered groupoid of a quasi-involutive semigroup, with the
    canonical mediator m_pq = pq."""
    if not classify(X).quasi_involutive:
        raise StarError(f"{X!r} is not quasi-involutive",
                        kind="NotQuasiInvolutive")
    G0 = esn_ordered_groupoid(X)
    projs = G0.identity
    mediator = tuple(compose(X.mul[p], projs) for p in projs)
    G = replace(G0, mediator=mediator)
    validate_groupoid(G)
    report = validate_mediator(G)
    if not report.ok:
        raise ConsistencyError(
            f"canonical mediator of {X!r} fails validation: {report.violations[:3]}"
        )
    return G


@takes(G=OrderedGroupoidWithMediator)
@memo
def esn_semigroup(G: OrderedGroupoidWithMediator) -> FiniteStarSemigroup:
    """The quasi-involutive semigroup of an ordered groupoid with mediator:
    xy = x (x) m(d(x), c(y)) (x) y, star = inversion."""
    validate_groupoid(G)
    report = validate_mediator(G)
    if not report.ok:
        raise Invalid(report.violations, kind="InvalidGroupoid")
    med = G.mediator
    n = G.n_morphisms
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            t = _ext(G, x, med[G.dom[x]][G.cod[y]])
            mul[x][y] = _ext(G, t, y)
    try:
        X = validate_star_semigroup(n, mul, G.inverse,
                                    name=f"S({G.name})" if G.name else None)
    except Invalid as exc:
        raise Invalid(exc.violations, kind="InvalidGroupoid") from None
    report = classify(X)
    if not report.quasi_involutive:
        raise Invalid([Violation(
            "InducedNotQuasiInvolutive", report.witness("quasi_involutive"))],
            kind="InvalidGroupoid")
    idents = set(G.identity)
    if set(projections(X)) != idents:
        # the identities-are-projections claim fails; typically an order-2
        # automorphism slipped through the mediator axioms
        raise Invalid([Violation(
            "ProjectionsNotIdentities",
            tuple(sorted(set(projections(X)) ^ idents)))],
            kind="InvalidGroupoid")
    for x in X.elements:
        if X.d(x) != G.identity[G.dom[x]] or X.c(x) != G.identity[G.cod[x]]:
            raise Invalid([Violation("EndpointMismatch", (x,))],
                          kind="InvalidGroupoid")
    return X


def _meet(G, p, q):
    lows = [r for r in G.objects
            if _object_leq(G, r, p) and _object_leq(G, r, q)]
    best = [r for r in lows if all(_object_leq(G, t, r) for t in lows)]
    return best[0] if best else None


@takes(G=OrderedGroupoidWithMediator)
def mediator_kind(G: OrderedGroupoidWithMediator) -> str:
    """'trivial' (identity at the meet), 'symmetric' (m_pq^-1 = m_qp) or
    'general'; asserted against the classification of the induced semigroup."""
    if G.mediator is None:
        raise Invalid([NO_MEDIATOR], kind="InvalidGroupoid")
    med = G.mediator
    idents = set(G.identity)
    trivial = True
    for p in G.objects:
        for q in G.objects:
            m = med[p][q]
            if m not in idents or _meet(G, p, q) != G.dom[m]:
                trivial = False
                break
        if not trivial:
            break
    symmetric = all(
        G.inverse[med[p][q]] == med[q][p]
        for p in G.objects for q in G.objects
    )
    report = classify(esn_semigroup(G))
    if trivial != report.inverse:
        raise ConsistencyError(
            f"trivial mediator={trivial} but inverse={report.inverse}")
    if symmetric != report.involutive:
        raise ConsistencyError(
            f"symmetric mediator={symmetric} but involutive={report.involutive}")
    return "trivial" if trivial else ("symmetric" if symmetric else "general")


@takes(g1=OrderedGroupoidWithMediator, g2=OrderedGroupoidWithMediator)
def groupoid_equal(g1: OrderedGroupoidWithMediator,
                   g2: OrderedGroupoidWithMediator) -> bool:
    """Equality up to the canonical object bijection matching identities;
    morphism indices must agree on the nose."""
    if g1.n_morphisms != g2.n_morphisms or g1.n_objects != g2.n_objects:
        return False
    ident_to_obj2 = {g2.identity[p]: p for p in g2.objects}
    try:
        beta = [ident_to_obj2[g1.identity[p]] for p in g1.objects]
    except KeyError:
        return False
    if any(beta[g1.dom[x]] != g2.dom[x] or beta[g1.cod[x]] != g2.cod[x]
           for x in g1.morphisms):
        return False
    if g1.inverse != g2.inverse or g1.compose != g2.compose:
        return False
    if g1.order.rows != g2.order.rows:
        return False
    if (g1.mediator is None) != (g2.mediator is None):
        return False
    if g1.mediator is not None:
        for p in g1.objects:
            for q in g1.objects:
                if g1.mediator[p][q] != g2.mediator[beta[p]][beta[q]]:
                    return False
    return True
