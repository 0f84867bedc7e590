"""Metamorphic properties of classify over the order <= 3 *-semigroups.

The oracle re-derives each flag, but it cannot notice a flag that is wrong
in the same way on both sides.  These tests need no second derivation: the
flags of a *-semigroup must not change under a relabelling of its elements,
and under the transpose anti-isomorphism (same involution) each left-handed
flag must trade places with its right-handed dual.

Direct products reach orders the enumeration never will.  The flags are
defined by identities, which a product keeps factor by factor (Birkhoff,
1935; Howie, *Fundamentals of Semigroup Theory*, 1995), so each flag of
X x Y is the AND of the factors' flags, and a finding at order 5 carries
over to its products with every small Y.
"""

import pathlib
import random

from stargroup import oracle, serialize, verify
from stargroup.core import (
    FLAG_NAMES,
    classify,
    projections,
    validate_star_semigroup,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

DUALS = {
    "left_involutive": "right_involutive",
    "right_involutive": "left_involutive",
    "restrictive": "corestrictive",
    "corestrictive": "restrictive",
}


def _flags(X):
    rep = classify(X)
    return {name: rep.flag(name) for name in FLAG_NAMES}


def _relabel(X, perm):
    n = X.order
    mul = [[0] * n for _ in range(n)]
    star = [0] * n
    for i in range(n):
        star[perm[i]] = perm[X.star[i]]
        for j in range(n):
            mul[perm[i]][perm[j]] = perm[X.mul[i][j]]
    return validate_star_semigroup(n, mul, star)


def test_flags_invariant_under_relabelling(star_pool):
    rng = random.Random(0)
    for X in star_pool:
        perm = list(range(X.order))
        rng.shuffle(perm)
        assert _flags(_relabel(X, perm)) == _flags(X), (X.mul, X.star, perm)


def test_transpose_swaps_left_and_right_flags(star_pool):
    swapped_somewhere = set()
    for X in star_pool:
        Y = validate_star_semigroup(X.order, list(zip(*X.mul)), X.star)
        fx, fy = _flags(X), _flags(Y)
        for name in FLAG_NAMES:
            assert fy[DUALS.get(name, name)] == fx[name], (name, X.mul, X.star)
            if fx[name] != fx[DUALS.get(name, name)]:
                swapped_somewhere.add(name)
    # the pool does tell the duals apart, so the swap is really exercised
    assert swapped_somewhere == set(DUALS)


def _product(X, Y):
    """X x Y with (x, y)(x', y') = (xx', yy') and (x, y)* = (x*, y*), the
    pair (x, y) numbered x * |Y| + y, validated as any other input."""
    m = Y.order
    pairs = [(x, y) for x in X.elements for y in Y.elements]
    mul = [[X.mul[x][u] * m + Y.mul[y][v] for u, v in pairs] for x, y in pairs]
    star = [X.star[x] * m + Y.star[y] for x, y in pairs]
    return validate_star_semigroup(len(pairs), mul, star)


def test_the_flags_of_a_product_are_the_and_of_the_factors(star_pool):
    """All 1024 products of the order <= 3 pool.  ``commuting_projections``
    also holds, vacuously, when a factor has no projections, for then the
    product has none."""
    vacuous = 0
    for X in star_pool:
        for Y in star_pool:
            fx, fy, fp = _flags(X), _flags(Y), _flags(_product(X, Y))
            expected = {name: fx[name] and fy[name] for name in FLAG_NAMES}
            empty = not projections(X) or not projections(Y)
            expected["commuting_projections"] |= empty
            vacuous += empty and not (fx["commuting_projections"]
                                      and fy["commuting_projections"])
            assert fp == expected, (X.mul, X.star, Y.mul, Y.star)
    # the exception decides 40 products (a factor n2#3*1 or n2#4*1)
    assert vacuous == 40


def test_the_order_5_birestrictive_finding_carries_over_to_products(
        star_pool):
    """n5#866*0 x Y for the 7 Y of order <= 2 (``verify.semigroup_pool(2)``,
    in its order): both clause tables name the same right-involutive clause
    and binding, or both pass."""
    X = serialize.load_semigroup(FIXTURES / "n5_866_0.json")
    clause = "right involutive, pq a projection => pq.p = qp"
    expected = {"n1#1*0": (clause, (3, 2)), "n2#2*0": (clause, (6, 4)),
                "n2#3*0": True, "n2#3*1": True, "n2#4*0": (clause, (6, 4)),
                "n2#4*1": True, "n2#5*0": (clause, (6, 4))}
    small = [Y for Y in star_pool if Y.order <= 2]
    assert len(small) == len(expected)
    for label, Y in zip(expected, small):
        XY = _product(X, Y)
        assert verify.evaluate_clauses("lem:birestrictive", XY) == \
            oracle.evaluate_clauses("lem:birestrictive",
                                    (XY.mul, XY.star)) == expected[label], \
            label
