import pathlib

import pytest

from stargroup import oracle
from stargroup.core import classify, same_tables
from stargroup.oracle import (
    BudgetExceeded,
    UnknownFamily,
    UnknownStatement,
    enumerate_semigroups,
    enumerate_star_structures,
    enumeration_counts,
    naive_check,
    standard_family,
    statement_ids,
)


def test_enumeration_count_order1():
    assert sum(1 for _ in enumerate_semigroups(1)) == 1


def test_enumeration_counts_match_known():
    assert enumeration_counts(4) == {1: 1, 2: 4, 3: 18, 4: 126}


def test_enumeration_iso_counts():
    got = {n: sum(1 for _ in enumerate_semigroups(n, "iso")) for n in (2, 3)}
    assert got == {2: 5, 3: 24}


def test_enumeration_raw_count():
    assert sum(1 for _ in enumerate_semigroups(3, "none")) == 113


def test_enumeration_associativity(star_pool):
    for n in (2, 3):
        for table in enumerate_semigroups(n, "none"):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert table[table[x][y]][z] == table[x][table[y][z]]


def test_enumeration_deterministic():
    a = list(enumerate_semigroups(3, "iso"))
    b = list(enumerate_semigroups(3, "iso"))
    assert a == b


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        next(enumerate_semigroups(5))


def test_star_structures_group(c2):
    stars = list(enumerate_star_structures(c2.mul))
    assert any(X.star == (0, 1) for X in stars)  # inversion = identity on Z/2


def test_star_structures_left_zero(lz2):
    stars = list(enumerate_star_structures(lz2.mul))
    assert any(X.star == (0, 1) for X in stars)


def test_table_with_no_star_exists():
    # at order 2 some associative table admits no involution
    found = False
    for table in enumerate_semigroups(2, "none"):
        if not list(enumerate_star_structures(table)):
            found = True
    assert found


def test_standard_families(sl2, c2, i2):
    assert same_tables(standard_family("semilattice_chain", 2), sl2)
    assert same_tables(standard_family("cyclic_group", 2), c2)
    assert standard_family("symmetric_inverse", 2).order == 7
    assert standard_family("symmetric_inverse", 3).order == 34
    assert standard_family("brandt", 2).order == 5
    assert classify(standard_family("brandt", 2)).inverse
    with pytest.raises(UnknownFamily):
        standard_family("nope", 2)
    with pytest.raises(UnknownFamily):
        standard_family("symmetric_inverse", 4)


def test_naive_check_ids():
    assert "lem:po-7" in statement_ids()
    assert len(statement_ids()) == 22
    with pytest.raises(UnknownStatement):
        naive_check("lem:unknown", ((), ()))


def test_naive_check_examples(lz2, i2):
    assert naive_check("lem:po-7", (lz2.mul, lz2.star))
    assert naive_check("lem:reduct", (i2.mul, i2.star))
    assert naive_check("prop:commproj", (i2.mul, i2.star))


def test_oracle_does_not_import_main_predicates():
    """The module boundary: oracle may import the container type and its
    validator from core, and nothing from the other main modules."""
    import ast

    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    allowed_core = {"FiniteStarSemigroup", "validate_star_semigroup"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "core", node.module
            names = {alias.name for alias in node.names}
            assert names <= allowed_core, names


def test_bijective_left_hom_without_left_hom_inverse(lz2, rz2):
    """The open question about left *-isomorphisms, settled negatively: the
    identity carrier map left-zero -> right-zero is a bijective left
    *-homomorphism whose inverse is not a left *-homomorphism."""
    pool = [(lz2.mul, lz2.star), (rz2.mul, rz2.star)]
    found = oracle.search_bijective_left_hom_without_inverse(pool)
    assert any(src == (lz2.mul, lz2.star) and tgt == (rz2.mul, rz2.star)
               for src, tgt, _ in found)


# the brute-force canonical form the enumeration used before orbit marking:
# the least relabelling of the table (and of its transpose, with anti)


def _relabel(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(tuple(row) for row in out)


def _canonical_form(table, anti):
    import itertools

    variants = [table]
    if anti:
        variants.append(tuple(zip(*table)))
    return min(_relabel(v, perm) for v in variants
               for perm in itertools.permutations(range(len(table))))


@pytest.mark.parametrize("dedup", ["iso", "iso+anti"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_marking_matches_canonical_form(n, dedup):
    expected = [t for t in enumerate_semigroups(n, "none")
                if t == _canonical_form(t, anti=dedup == "iso+anti")]
    assert list(enumerate_semigroups(n, dedup)) == expected
    budgeted = list(enumerate_semigroups(n, dedup, budget=10 ** 6))
    assert budgeted == expected


def test_enumeration_iso_count_order4():
    assert sum(1 for _ in enumerate_semigroups(4, "iso")) == 188


@pytest.mark.parametrize("budget", [50, 200, 1000])
def test_budget_streams_after_memo_is_filled(budget):
    full = list(enumerate_semigroups(3, "iso"))
    assert 3 in oracle._REPRESENTATIVES
    got = []
    with pytest.raises(BudgetExceeded):
        for table in enumerate_semigroups(3, "iso", budget=budget):
            got.append(table)
    assert got == full[:len(got)]


def test_sg_validates_each_table_pair_once_per_run(monkeypatch):
    from stargroup import verify
    from stargroup.core import validate_star_semigroup

    seen = []

    def counting(order, mul, star, name=None):
        seen.append((mul, star))
        return validate_star_semigroup(order, mul, star, name)

    monkeypatch.setattr(verify, "validate_star_semigroup", counting)
    ids = ["lem:reduct", "lem:po-7", "lem:fdt", "ex:fg", "prop:sym"]
    rows = verify.run_statements(ids, max_order=2)
    assert rows and all(r.ok for r in rows)
    assert len(seen) == len(set(seen)) > 0
    # each run validates afresh, and no intern outlives the run
    assert verify._interned is None
    first = len(seen)
    verify.run_statements(ids, max_order=2)
    assert len(seen) == 2 * first
    verify._sg(seen[0])
    assert len(seen) == 2 * first + 1


def test_semigroup_pool_sample4_keeps_every_kth_class():
    from stargroup import verify

    def order4_classes(sample4):
        return [label.split("*")[0]
                for label, _ in verify.semigroup_pool(4, sample4=sample4)
                if label.startswith("n4#")]

    every = order4_classes(0)
    # sample4=1 keeps every class (it once kept none)
    assert order4_classes(1) == every
    for k in (4, 8):
        kept = {c for c in every if (int(c[3:]) - 1) % k == 0}
        assert set(order4_classes(k)) == kept
        assert order4_classes(k) == [c for c in every if c in kept]
    # the sizes verify sweeps today: 32 structures of order <= 3, plus 29
    # (sample4=8) or 62 (sample4=4) of order 4, out of 182
    assert [len(verify.semigroup_pool(4, sample4=k)) for k in (0, 1, 4, 8)] \
        == [214, 214, 94, 61]
