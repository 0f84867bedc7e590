"""The per-semigroup rows (``FiniteStarSemigroup.rows``) against the code
they replaced, kept here as the reference: classify's witness finders as
``_first_pair`` sweeps of predicates over ``X.d``, ``X.c`` and
``_idem_leq``, and the ``_idem_leq`` downsets of the etale cross-check.
Two mutants of the rows, a mask without ``fe = e`` and swapped ``d`` and
``c`` rows, must be caught by the same comparisons."""

import pytest

from stargroup import core, verify
from stargroup.core import (
    ClassificationReport,
    ConsistencyError,
    FiniteStarSemigroup,
    Rows,
    StarMorphism,
    projections,
)

# ---------------------------------------------------------------------------
# the reference


def _idem_leq(X, e, f):
    return X.mul[e][f] == e and X.mul[f][e] == e


def _first_pair(X, pred):
    for x in X.elements:
        for y in X.elements:
            if not pred(x, y):
                return (x, y)
    return None


def _locally_involutive(X):
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


def _birestrictive(X):
    return _first_pair(
        X,
        lambda x, y: _idem_leq(X, X.d(X.mul[x][y]), X.d(y))
        and _idem_leq(X, X.c(X.mul[x][y]), X.c(x)),
    )


REFERENCE_FINDERS = {
    "restrictive": lambda X: _first_pair(
        X, lambda x, y: _idem_leq(X, X.d(X.mul[x][y]), X.d(y))),
    "corestrictive": lambda X: _first_pair(
        X, lambda x, y: _idem_leq(X, X.c(X.mul[x][y]), X.c(x))),
    "birestrictive": _birestrictive,
    "involutive": lambda X: _first_pair(
        X, lambda x, y: X.star[X.mul[x][y]] == X.mul[X.star[y]][X.star[x]]),
    "left_involutive": lambda X: _first_pair(
        X, lambda x, y: X.star[X.mul[x][y]]
        == X.mul[X.star[X.mul[X.d(x)][y]]][X.star[x]]),
    "right_involutive": lambda X: _first_pair(
        X, lambda x, y: X.star[X.mul[x][y]]
        == X.mul[X.star[y]][X.star[X.mul[x][X.c(y)]]]),
    "locally_involutive": _locally_involutive,
    "quasi_involutive": lambda X: _birestrictive(X) or _locally_involutive(X),
    "commuting_projections": core._commuting_projections_witness,
}


def reference_classify(X):
    flags, witnesses = {}, []
    for name, finder in REFERENCE_FINDERS.items():
        wit = finder(X)
        flags[name] = wit is None
        if wit is not None:
            witnesses.append((name, wit))
    quasi = _first_pair(
        X, lambda x, y: y == X.star[x] or X.mul[X.mul[x][y]][x] != x
        or X.mul[X.mul[y][x]][y] != y)
    flags["inverse"] = quasi is None
    if quasi is not None:
        witnesses.append(("inverse", quasi))
    return ClassificationReport(witnesses=tuple(witnesses), **flags)


def reference_crosscheck(f):
    """(downsets agree, lifts unique) as the cross-check computed them."""
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
    lift_ok = all(len(f.lifts[p].get(s, ())) == 1
                  for p in projections(X) for s in S.elements
                  if S.mul[f.map[p]][s] == s)
    return coset_ok, lift_ok


def crosscheck_raises(f, main_verdict):
    try:
        core._crosscheck_etale(f, main_verdict)
    except ConsistencyError:
        return True
    return False


# ---------------------------------------------------------------------------
# the population


def fresh(X):
    """An equal semigroup without any memoised rows."""
    return FiniteStarSemigroup(X.order, X.mul, X.star, X.name)


def transpose(X):
    n = X.order
    mul = tuple(tuple(X.mul[y][x] for y in range(n)) for x in range(n))
    return FiniteStarSemigroup(n, mul, X.star, X.name)


@pytest.fixture(scope="module")
def star_structures(star_pool4):
    """Every order <= 4 *-structure (iso classes) and its transpose."""
    return [Y for X in star_pool4 for Y in (X, transpose(X))]


@pytest.fixture(scope="module")
def chain_maps(small_lambdas):
    """The structure maps of every Lambda of the fiber <= 2 population over
    SL2, SL3 and I2, and the F-hat psi of each that has at most 8
    elements."""
    from stargroup import modalg

    out = []
    for L in small_lambdas:
        out.append(L.structure_map)
        if len(L.pairs) <= 8:
            out.append(modalg.fhat(L.structure_map).psi)
    return out


@pytest.fixture(scope="module")
def pool_maps():
    """Left *-homomorphisms of verify's morphism pool between left
    involutive semigroups, etale or not."""
    out = []
    for _, g, _ in verify.morphism_pool(3):
        X, S = g.source, g.target
        if (g.is_left_star_hom and core.classify(X).left_involutive
                and core.classify(S).left_involutive):
            out.append(g)
    return out


def classify_mismatches(semigroups):
    return [X for X in semigroups
            if core.classify.__wrapped__(fresh(X)) != reference_classify(X)]


def crosscheck_mismatches(maps):
    out = []
    for f in maps:
        g = StarMorphism(fresh(f.source), fresh(f.target), f.map)
        coset_ok, lift_ok = reference_crosscheck(f)
        expected = (not (coset_ok and lift_ok), coset_ok or lift_ok)
        if (crosscheck_raises(g, True), crosscheck_raises(g, False)) != expected:
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# rows against the reference


def test_rows_are_d_c_and_the_idempotent_order(star_structures):
    for X in star_structures[::7]:
        d, c, up = X.rows
        assert d == tuple(X.d(x) for x in X.elements)
        assert c == tuple(X.c(x) for x in X.elements)
        for e in X.elements:
            assert up[e] == sum(1 << f for f in X.elements if _idem_leq(X, e, f))
        assert X.rows is X.rows


def test_classify_matches_the_reference_on_every_order_4_structure(
        star_structures):
    assert len(star_structures) == 428
    assert classify_mismatches(star_structures) == []


def test_classify_matches_the_reference_on_lambda_and_fhat(chain_maps):
    semigroups = [g.source for g in chain_maps]
    assert len(semigroups) == 236
    assert classify_mismatches(semigroups) == []


def test_crosscheck_matches_the_reference(chain_maps, pool_maps):
    assert sum(not reference_crosscheck(g)[0] for g in pool_maps) > 0
    assert crosscheck_mismatches(chain_maps + pool_maps) == []


# ---------------------------------------------------------------------------
# mutants of the rows


ROWS = FiniteStarSemigroup.rows.func


def _drop_fe(X):
    d, c, up = ROWS(X)
    loose = tuple(sum(1 << f for f in X.elements if X.mul[e][f] == e)
                  for e in X.elements)
    return Rows(d, c, loose)


def _swap_d_c(X):
    d, c, up = ROWS(X)
    return Rows(c, d, up)


@pytest.mark.parametrize("mutant", [_drop_fe, _swap_d_c])
def test_row_mutants_are_caught(mutant, monkeypatch, star_structures,
                                chain_maps, pool_maps):
    monkeypatch.setattr(FiniteStarSemigroup.rows, "func", mutant)
    assert classify_mismatches(star_structures)
    # swapped rows leave the cross-check's outcome as it is: the downset
    # {z : d(z) <= p} is the star of {z : c(z) <= p}, as d(z) = c(z*), and f
    # commutes with the star
    caught = crosscheck_mismatches(chain_maps + pool_maps)
    assert bool(caught) == (mutant is _drop_fe)
