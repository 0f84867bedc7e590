"""The row kernels against the per-cell sweeps they sit in front of.

The associativity sweeps (of a semigroup, of an S-set action and of an
algebra's product) and the balance sweep compare whole rows as tuples first
and walk a row cell by cell only when it differs, so the row test decides
"no violation" and the cell loop names the least witness or lists every
violation.  The sweeps as they were, cell by cell with no row test, are
kept here as references; every kernel must give the same verdict, least
witness and violation list, on valid tables and on tables with one cell
perturbed.  ``core.compose`` is checked against the generator it replaced,
the lift reads through ``StarMorphism.action`` against ``etale_lift``'s
errors, and ``ssets.left_table`` against the cell formula, with the laws of
the sweeps it made redundant."""

import random

import pytest

from stargroup import core, modalg, ssets, topos
from stargroup.core import (
    ConsistencyError,
    NotEtale,
    StarMorphism,
    Verdict,
    Violation,
    columns,
    compose,
    composer,
    is_etale,
)


# ---------------------------------------------------------------------------
# the per-cell references


def ref_compose(after, before):
    return tuple(after[v] for v in before)


def ref_associativity(act, mul):
    cols = range(len(mul))
    for x, row in enumerate(act):
        for s in cols:
            xs_row, s_row = act[row[s]], mul[s]
            for t in cols:
                if xs_row[t] != row[s_row[t]]:
                    return (x, s, t)
    return None


def ref_balance(star, act, sstar, srng):
    for x, row in enumerate(act):
        xstar_row = act[star[x]]
        for r in srng:
            rx_row = act[star[xstar_row[sstar[r]]]]
            for s in srng:
                if rx_row[s] != star[act[star[row[s]]][sstar[r]]]:
                    return (x, r, s)
    return None


def ref_left_table(A):
    """The left action rx = (x* r*)*, one row over x per r, cell by cell."""
    star, act, sstar = A.star, A.action, A.base.star
    return tuple(tuple(star[act[star[x]][sstar[r]]] for x in range(A.size))
                 for r in A.base.elements)


def assert_left_table(A):
    """left_table(A) is the cell formula; on a balanced S-set over an
    involutive base, the two laws the left action was once swept for hold:
    (rx)s = r(xs) and f(rx) = r f(x).  Returns whether A is balanced."""
    left = ssets.left_table(A)
    assert left == ref_left_table(A)
    S = A.base
    if not (ssets.balanced_check(A).balanced and core.classify(S).involutive):
        return False
    for r in S.elements:
        for x in range(A.size):
            rx = left[r][x]
            assert A.smap[rx] == S.mul[r][A.smap[x]], (r, x)
            for s in S.elements:
                assert A.action[rx][s] == left[r][A.action[x][s]], (r, x, s)
    return True


def ref_validate_algebra(alg):
    M = alg.module
    A, S = M.sset, M.sset.base
    mul, add, zero = alg.product, M.add, M.zero
    star, smap, act, sstar = A.star, A.smap, A.action, S.star
    out = list(modalg.validate_module(M).violations)
    for a in A.elements:
        for b in A.elements:
            ab = mul[a][b]
            if star[ab] != mul[star[b]][star[a]]:
                out.append(Violation("ProductStarViolation", (a, b)))
            if smap[ab] != S.mul[smap[a]][smap[b]]:
                out.append(Violation("PsiHomViolation", (a, b)))
            for c in A.elements:
                if mul[ab][c] != mul[a][mul[b][c]]:
                    out.append(Violation("ProductAssociativityViolation",
                                         (a, b, c)))
        if mul[mul[a][star[a]]][a] != a:
            out.append(Violation("PartialIsometryViolation", (a,)))
    for r in S.elements:
        for s in S.elements:
            if mul[zero[r]][zero[s]] != zero[S.mul[r][s]]:
                out.append(Violation("ZeroHomViolation", (r, s)))
    for a in A.elements:
        for b in A.elements:
            if smap[a] != smap[b]:
                continue
            ab = add[a][b]
            for c in A.elements:
                if add[mul[a][c]][mul[b][c]] != mul[ab][c]:
                    out.append(Violation("ProductDistributivityViolation",
                                         (a, b, c)))
                if add[mul[c][a]][mul[c][b]] != mul[c][ab]:
                    out.append(Violation("OtherDistributivityViolation",
                                         (c, a, b)))
    for a in A.elements:
        for b in A.elements:
            for r in S.elements:
                br = act[b][r]
                if mul[a][br] != act[mul[a][b]][r]:
                    out.append(Violation("ProductActionViolation", (a, b, r)))
                if mul[a][star[br]] != mul[act[a][sstar[r]]][star[b]]:
                    out.append(Violation("ProductStarActionViolation",
                                         (a, b, r)))
    return Verdict(out)


# ---------------------------------------------------------------------------
# populations


def perturbed(table, cells, stop):
    """Copies of ``table`` with one cell changed: every other value in
    0..stop-1 of each given (i, j)."""
    for i, j in cells:
        for v in range(stop):
            if v != table[i][j]:
                rows = list(table)
                rows[i] = (*table[i][:j], v, *table[i][j + 1:])
                yield tuple(rows)


def some_cells(table, rng, count):
    cells = [(i, j) for i in range(len(table)) for j in range(len(table[0]))]
    return cells if len(cells) <= count else rng.sample(cells, count)


# ---------------------------------------------------------------------------
# compose


@pytest.mark.parametrize("before", [(), (2,), (1, 0), (3, 0, 3, 2, 1, 1)])
def test_compose_is_the_generator_it_replaced(before):
    for after in ((5, 6, 7, 8), [9, 8, 7, 6], tuple(range(4))):
        assert compose(after, before) == ref_compose(after, before)
        assert composer(before)(after) == ref_compose(after, before)
        assert type(compose(after, before)) is tuple


def test_compose_refuses_an_index_out_of_range():
    for before in ((4,), (0, 4)):
        with pytest.raises(IndexError):
            compose((1, 2, 3), before)


def test_columns():
    assert columns(((0, 1, 2), (3, 4, 5))) == ((0, 3), (1, 4), (2, 5))
    assert columns(()) == ()


# ---------------------------------------------------------------------------
# associativity and balance


def test_associativity_matches_the_cell_sweep(star_pool4, small_lambdas):
    # every *-semigroup of order <= 4 and the Lambdas, then perturbed cells
    # of each
    rng = random.Random(0)
    tables = [X.mul for X in star_pool4]
    tables += [LP.semigroup.mul for LP in small_lambdas]
    assert len(tables) > 250
    broken = 0
    for mul in tables:
        assert core.action_associativity_witness(mul, mul) is None
        count = 12 if len(mul) <= 3 else 2
        for bad in perturbed(mul, some_cells(mul, rng, count), len(mul)):
            wit = core.action_associativity_witness(bad, bad)
            assert wit == ref_associativity(bad, bad), bad
            broken += wit is not None
    assert broken > 100


def test_sset_kernels_match_the_cell_sweeps(small_lambdas):
    rng = random.Random(2)
    broken = [0, 0]
    for LP in small_lambdas:
        A = ssets.canonical_action(LP.structure_map)
        S = A.base
        actions = [A.action]
        actions += perturbed(A.action, some_cells(A.action, rng, 2), A.size)
        for act in actions:
            wit = core.action_associativity_witness(act, S.mul)
            assert wit == ref_associativity(act, S.mul)
            B = ssets.SSetStructure(A.size, A.star, S, A.smap, act)
            bal = ssets._balance_witness(act, ssets.left_table(B))
            assert bal == ref_balance(A.star, act, S.star, S.elements)
            broken[0] += wit is not None
            broken[1] += bal is not None
    assert min(broken) > 50, broken


def test_algebra_kernel_lists_every_violation_of_a_broken_product(small_lambdas):
    # F-hat of every fourth Lambda with at most 6 elements, then two
    # perturbed product cells of each
    rng = random.Random(4)
    small = [LP for LP in small_lambdas if LP.semigroup.order <= 6][::4]
    assert len(small) > 5
    lists = 0
    for LP in small:
        alg = modalg.fhat(LP.structure_map).algebra
        assert modalg.validate_algebra.func(alg) == ref_validate_algebra(alg)
        assert modalg.validate_algebra.func(alg).ok
        for product in perturbed(alg.product, some_cells(alg.product, rng, 2),
                                 alg.size):
            broken = modalg.SAlgebra(alg.module, product)
            got = modalg.validate_algebra.func(broken)
            assert got == ref_validate_algebra(broken)
            lists += len(got.violations) > 1
    assert lists > 10


def test_every_fhat_has_its_left_table_and_the_laws_its_sweeps_settle(
        small_lambdas):
    # the F-hat S-set of every Lambda; fhat no longer asks classify for
    # involutivity or psi for the *-homomorphism laws, as validate_algebra
    # and check_sset have swept them on the same tables
    balanced = 0
    for LP in small_lambdas:
        fh = modalg.fhat(LP.structure_map)
        balanced += assert_left_table(fh.module.sset)
        assert core.classify(fh.semigroup).involutive
        assert fh.psi.is_star_hom
    assert balanced == len(small_lambdas)


# ---------------------------------------------------------------------------
# lifts read after one check per map


def test_the_lift_readers_still_refuse_a_non_etale_map(const_c2_t1):
    assert not is_etale(const_c2_t1)
    with pytest.raises(NotEtale):
        topos.counit_explicit_preimage(const_c2_t1, 0)
    with pytest.raises(NotEtale):
        topos.fiber_presheaf(const_c2_t1)


def test_an_ambiguous_lift_read_still_raises(small_lambdas):
    # every lift group doubled after the etale verdict is kept and before
    # any reader builds the action table: a read that took the first
    # candidate would pass
    f = next(LP.structure_map for LP in small_lambdas
             if len(LP.pairs) > LP.base.order)
    assert topos.fiber_presheaf(f)
    g = StarMorphism(f.source, f.target, f.map)
    assert is_etale(g)
    g.lifts = {p: {s: xs + xs for s, xs in group.items()}
               for p, group in g.lifts.items()}
    for call in (topos.fiber_presheaf, topos.m_iso,
                 lambda g: topos.counit_explicit_preimage(g, 0)):
        with pytest.raises(ConsistencyError, match="not unique"):
            call(g)
