"""Metamorphic properties of classify over the order <= 3 *-semigroups.

The oracle re-derives each flag, but it cannot notice a flag that is wrong
in the same way on both sides.  These tests need no second derivation: the
flags of a *-semigroup must not change under a relabelling of its elements,
and under the transpose anti-isomorphism (same involution) each left-handed
flag must trade places with its right-handed dual.
"""

import random

from stargroup.core import FLAG_NAMES, classify, validate_star_semigroup

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
