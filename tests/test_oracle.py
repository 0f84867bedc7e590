import functools
import itertools
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


@pytest.mark.parametrize("dedup", ["iso", "iso+anti"])
def test_inverse_semigroup_counts_match_a001428(dedup):
    # inversion is an anti-isomorphism of an inverse semigroup onto itself,
    # so its iso and iso+anti classes coincide (OEIS A001428: 1, 2, 5, 16)
    got = [sum(1 for t in enumerate_semigroups(n, dedup)
               if oracle._n_inverse(t)) for n in range(1, 5)]
    assert got == [1, 2, 5, 16]


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


@pytest.mark.parametrize("name, n, order", [
    ("cyclic_group", 256, 256), ("semilattice_chain", 256, 256),
    ("brandt", 15, 226),
])
def test_standard_family_builds_up_to_the_order_cap(monkeypatch, name, n,
                                                    order):
    # the validator stubbed out, so no O(order^3) sweep runs
    monkeypatch.setattr(oracle, "validate_star_semigroup",
                        lambda order, mul, star, name: order)
    assert standard_family(name, n) == order <= oracle.FAMILY_ORDER_CAP


@pytest.mark.parametrize("name, n", [
    ("cyclic_group", 257), ("left_zero", 257), ("brandt", 16),
])
def test_standard_family_refuses_an_order_above_the_cap_before_building(
        monkeypatch, name, n):
    monkeypatch.setattr(oracle, "validate_star_semigroup", None)
    with pytest.raises(UnknownFamily, match="order 257 is above the cap 256"):
        standard_family(name, n)


def test_naive_check_ids():
    assert "lem:po-7" in statement_ids()
    assert len(statement_ids()) == 22
    with pytest.raises(UnknownStatement):
        naive_check("lem:unknown", ((), ()))


def test_an_unknown_statement_id_is_refused_before_any_pool(monkeypatch):
    from stargroup import verify

    monkeypatch.setattr(verify, "semigroup_pool", None)
    with pytest.raises(UnknownStatement, match="lem:nope"):
        verify.run_statements(statement_ids=["lem:nope"])
    with pytest.raises(UnknownStatement, match="lem:nope"):
        verify.build_instances(["lem:reduct", "lem:nope"])


@pytest.mark.parametrize("sid", [[1], None, 3, ("lem:reduct",)])
def test_a_statement_id_that_is_not_a_string_is_refused(sid):
    from stargroup import verify

    with pytest.raises(UnknownStatement):
        verify.build_instances([sid], 2)
    with pytest.raises(UnknownStatement):
        verify.run_statements(["lem:reduct", sid], 1)


@pytest.mark.parametrize("ids", [5, "lem:reduct"])
def test_statement_ids_that_are_not_a_list_are_refused(ids):
    # an int is not iterable, and a string would be read letter by letter
    from stargroup import verify
    from stargroup.core import ShapeError

    with pytest.raises(ShapeError, match="^statement_ids must be of type"):
        verify.build_instances(ids, 1)
    with pytest.raises(ShapeError, match="^statement_ids must be of type"):
        verify.run_statements(ids, 1)


@pytest.mark.parametrize("instance, facts", [
    (None, None),
    ((((0,),), (0,), 0), None),  # a semigroup instance holds two tables
    (([[0]], (0,)), {}),  # with facts the tables are keys: not lists
    (([[0]], [0]), {}),
])
def test_evaluate_clauses_checks_the_instance_as_naive_check_does(instance,
                                                                   facts):
    for check in (oracle.evaluate_clauses, naive_check):
        with pytest.raises(ValueError, match="^instance must be the tables"):
            check("lem:reduct", instance, facts)
    # the lists are accepted without facts, the tuples with them
    assert oracle.evaluate_clauses("lem:reduct", ([[0]], [0])) is True
    assert oracle.evaluate_clauses("lem:reduct", (((0,),), (0,)), {}) is True


def test_a_repeated_statement_id_is_evaluated_once():
    from stargroup import verify

    once = verify.build_instances(["lem:reduct"], 2)
    assert once
    assert verify.build_instances(["lem:reduct", "lem:reduct"], 2) == once
    assert verify.build_instances(["lem:po-1", "lem:reduct", "lem:po-1"],
                                  2) == (verify.build_instances(["lem:po-1"], 2)
                                         + once)


def test_the_fact_table_gives_every_task_its_fresh_verdict():
    from stargroup import verify

    facts = {}
    tasks = verify.build_instances(max_order=4)
    shared = [naive_check(sid, raw, facts) for sid, _, _, raw in tasks]
    assert shared == [naive_check(sid, raw) for sid, _, _, raw in tasks]
    # one entry per predicate and distinct tables, fewer than half the rows
    assert 0 < len(facts) < len(tasks) / 2


def test_equal_tables_in_distinct_objects_share_one_fact(i2):
    # tuple() of a tuple returns it, so each copy goes through a list
    mul = tuple([tuple(list(row)) for row in i2.mul])
    star = tuple(list(i2.star))
    assert mul is not i2.mul and mul[0] is not i2.mul[0] and star is not i2.star
    facts = {}
    assert naive_check("lem:rsrs", (i2.mul, i2.star), facts)
    assert naive_check("lem:rsrs", (mul, star), facts)
    assert list(facts) == [(oracle._n_inverse, (i2.mul,))]


def test_the_fact_table_keys_by_predicate(lz2):
    # xy = x with the identity star: left involutive, not right involutive
    facts = {}
    assert oracle._fact(facts, oracle._n_left_involutive, lz2.mul, lz2.star)
    assert not oracle._fact(facts, oracle._n_right_involutive,
                            lz2.mul, lz2.star)
    assert len(facts) == 2
    assert naive_check("lem:reduct", (lz2.mul, lz2.star), facts)
    assert naive_check("lem:birestrictive", (lz2.mul, lz2.star), facts)


def test_the_fact_table_keeps_no_exception():
    facts = {}

    def fails(table):
        raise oracle.OracleError("no verdict")

    with pytest.raises(oracle.OracleError):
        oracle._fact(facts, fails, ((0,),))
    assert facts == {}


def test_a_verify_run_computes_each_verdict_as_often_as_pinned():
    """How often one ``run_statements(max_order=4)`` runs each of the
    oracle's table- and map-level verdict predicates, counted by code
    object, so that a reference held in a clause table counts too.  The
    pools call ``_n_is_left_hom`` and ``_n_inverse`` themselves; every other
    call reads a verdict into the run's dict (``_fact``), so a verdict
    computed outside it shows here as a higher count."""
    import collections
    import sys

    from stargroup import verify

    codes = {getattr(oracle, name).__code__: name for name in (
        "_n_is_left_hom", "_n_is_star_morphism", "_n_inverse", "_n_is_etale",
        "_n_is_mult", "_n_quasi_involutive")}
    # the six table-level predicates of _everywhere share one code object
    codes[oracle._n_involutive.__code__] = "_everywhere"
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        rows = verify.run_statements(max_order=4)
    finally:
        sys.setprofile(None)
    assert len(rows) == 6091 and all(r.ok for r in rows)
    assert counts == {"_n_is_left_hom": 1515, "_n_is_star_morphism": 1569,
                      "_n_inverse": 228, "_n_is_etale": 218, "_n_is_mult": 161,
                      "_n_quasi_involutive": 61, "_everywhere": 352}


def test_naive_check_examples(lz2, i2):
    assert naive_check("lem:po-7", (lz2.mul, lz2.star))
    assert naive_check("lem:reduct", (i2.mul, i2.star))
    assert naive_check("prop:commproj", (i2.mul, i2.star))


def _involutions_by_recursion(n):
    """The recursion the library used before the filter over permutations:
    fix the first remaining point, or pair it with each later one."""
    def rec(remaining, acc):
        if not remaining:
            yield dict(acc)
            return
        i = remaining[0]
        yield from rec(remaining[1:], acc + [(i, i)])
        for j in remaining[1:]:
            rest = [k for k in remaining[1:] if k != j]
            yield from rec(rest, acc + [(i, j), (j, i)])

    for mapping in rec(list(range(n)), []):
        yield tuple(mapping[i] for i in range(n))


@pytest.mark.parametrize("n", range(7))
def test_involutions_match_the_recursion_in_order(n):
    assert list(oracle._involutions(n)) == list(_involutions_by_recursion(n))


def test_every_statement_has_both_checks():
    from stargroup import verify
    assert set(verify.MAIN_CHECKS) == set(oracle.REGISTRY)
    # each side's one form: its clause table, for every statement
    assert set(verify.CLAUSES) == set(oracle.CLAUSES) == set(oracle.REGISTRY)


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


def test_main_checks_read_the_validated_pool_objects(monkeypatch):
    """No main check validates the tables of its instance again: each
    reads the objects its pool entry carries, so nothing validated inside a
    check was validated while the pools were built (the S(e) semigroups a
    check builds are its own).  And one verify run sweeps the axioms at most
    307 times, the count when a per-run dict interned the pools' raw
    tables."""
    import sys

    from stargroup import core, verify

    sweeps, inside = [0], [False]
    validated = {False: set(), True: set()}
    sweep = core._axiom_violations
    validate = core.validate_star_semigroup

    def counted_sweep(*args):
        sweeps[0] += 1
        return sweep(*args)

    def recorded(order, mul, star, name=None):
        X = validate(order, mul, star, name)
        validated[inside[0]].add((X.mul, X.star, X.name))
        return X

    def flagged(check):
        def run(inst):
            inside[0] = True
            try:
                return check(inst)
            finally:
                inside[0] = False
        return run

    monkeypatch.setattr(core, "_axiom_violations", counted_sweep)
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validate_star_semigroup", None)
        if name.startswith("stargroup") and bound is validate:
            monkeypatch.setattr(module, "validate_star_semigroup", recorded)
    for sid, check in list(verify.MAIN_CHECKS.items()):
        monkeypatch.setitem(verify.MAIN_CHECKS, sid, flagged(check))

    rows = verify.run_statements(max_order=4)
    assert rows and all(r.ok for r in rows)
    assert 0 < sweeps[0] <= 307
    assert validated[False] and validated[True]
    assert not validated[True] & validated[False]


def test_semigroup_pool_sample4_keeps_every_kth_class():
    from stargroup import verify

    def order4_classes(sample4):
        return [label.split("*")[0]
                for label, _, _ in verify.semigroup_pool(4, sample4=sample4)
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


def test_one_run_builds_each_population_once(monkeypatch):
    """One ``build_instances`` enumerates its structures once and builds
    each base once, and every pool entry reads those objects."""
    from stargroup import verify

    built = {"semigroup_pool": [], "standard_family": []}

    def recorded(name, build):
        def record(*args, **kwargs):
            built[name].append(build(*args, **kwargs))
            return built[name][-1]
        return record

    monkeypatch.setattr(verify, "semigroup_pool",
                        recorded("semigroup_pool", verify.semigroup_pool))
    monkeypatch.setattr(oracle, "standard_family",
                        recorded("standard_family", oracle.standard_family))
    tasks = verify.build_instances(None, 4)
    assert [len(v) for v in built.values()] == [1, 3]
    made = {id(X) for _, X, _ in built["semigroup_pool"][0]}
    made |= {id(X) for X in built["standard_family"]}
    kinds = {sid: spec.kind for sid, spec in oracle.REGISTRY.items()}
    def ends(*maps):
        return [X for f in maps for X in (f.source, f.target)]

    read = {"semigroup": lambda X: [X], "inverse": lambda X: [X],
            "morphism": ends, "pair": lambda gf: ends(*gf),
            "triangle": lambda ph: ends(*ph),
            "inverse_idem": lambda Se: [Se[0].semigroup]}
    seen = set()
    for sid, _, inst, _ in tasks:
        if kinds[sid] in read:
            seen.add(kinds[sid])
            assert all(id(X) in made for X in read[kinds[sid]](inst))
    assert seen == set(read)


def test_run_statements_past_the_enumeration_cap_raises():
    # the pools follow oracle.MAX_ENUM_ORDER instead of stopping below it
    from stargroup import verify
    with pytest.raises(BudgetExceeded, match="capped at order"):
        verify.run_statements(max_order=oracle.MAX_ENUM_ORDER + 1)


# the orbit-marking enumeration the library used before lex-leader pruning:
# walk every associative table and let the first member met of a class mark
# its whole orbit as seen


def _relabellings(table):
    n = len(table)
    out = set()
    for perm in itertools.permutations(range(n)):
        inv = sorted(range(n), key=perm.__getitem__)
        out.add(bytes(perm[table[a][b]] for a in inv for b in inv))
    return out


@functools.cache
def _classes(n):
    """``(table, least of its iso class, least of its iso+anti class)`` for
    every associative table of order n, in lexicographic order."""
    seen_iso, seen_anti, out = set(), set(), []
    for table in oracle._associative_tables(n):
        key = oracle._flat(table)
        iso = key not in seen_iso
        if iso:
            orbit = _relabellings(table)
            seen_iso |= orbit
        anti = key not in seen_anti
        if anti:
            seen_anti |= orbit | _relabellings(tuple(zip(*table)))
        seen_iso.discard(key)
        seen_anti.discard(key)
        out.append((table, iso, anti))
    return tuple(out)


@pytest.mark.parametrize("dedup", ["iso", "iso+anti"])
def test_lex_leaders_match_orbit_marking_order4(dedup):
    flag = 2 if dedup == "iso+anti" else 1
    expected = [c[0] for c in _classes(4) if c[flag]]
    assert list(enumerate_semigroups(4, dedup)) == expected
    assert list(enumerate_semigroups(4, dedup, budget=10 ** 6)) == expected


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leader_cuts_read_only_filled_cells(n, transpose):
    """Each comparison in ``cuts[k]`` is a row-major prefix reading cells
    0..k only; ``cuts[-1]`` compares every cell under every non-identity
    relabelling (every relabelled transpose)."""
    cuts = oracle._leader_cuts(n, transpose)
    for k, cut in enumerate(cuts):
        for _, cells in cut:
            assert [i * n + j for i, j, _, _ in cells] == list(range(len(cells)))
            assert all(a * n + b <= k for _, _, a, b in cells)
    perms = [p for p in itertools.permutations(range(n))
             if transpose or p != tuple(range(n))]
    assert sorted(p for p, _ in cuts[-1]) == perms
    assert all(len(cells) == n * n for _, cells in cuts[-1])


@pytest.mark.slow
def test_order5_class_counts_through_pruned_search():
    """OEIS A027851 and A001423; order 5 stays beyond the cap, so the
    search is read directly and nothing is kept for it."""
    iso = anti = 0
    for _, is_anti in oracle._least_tables(5):
        iso += 1
        anti += is_anti
    assert (iso, anti) == (1915, oracle.KNOWN_CLASS_COUNTS[5]) == (1915, 1160)
    assert 5 not in oracle._REPRESENTATIVES


@pytest.mark.parametrize("n", [True, 2.5, -1, 0, "2", None])
@pytest.mark.parametrize("name", ["symmetric_inverse", "semilattice_chain",
                                  "brandt"])
def test_a_family_size_that_is_not_a_positive_int_is_refused(name, n):
    # I(True) was named ITrue, SL2.5 a raw TypeError, B-1 an
    # InvalidStarSemigroup
    with pytest.raises(UnknownFamily, match="integer >= 1"):
        standard_family(name, n)


@pytest.mark.parametrize("args, kwargs", [
    ((True,), {}), ((2.0,), {}), ((2, "iso"), {"budget": "5"}),
    ((2, "none"), {"budget": 5.0}), ((2, "iso+anti"), {"budget": False}),
    ((0,), {}), ((-1,), {}),
])
def test_enumeration_refuses_a_non_int_order_or_budget(args, kwargs):
    with pytest.raises(ValueError, match="must be integers"):
        next(enumerate_semigroups(*args, **kwargs))


@pytest.mark.parametrize("max_order", [0, -1, "3", 3.0, True, None])
def test_verify_refuses_a_max_order_that_is_not_a_positive_int(max_order):
    from stargroup import verify
    from stargroup.core import ShapeError

    with pytest.raises(ShapeError, match="max_order"):
        verify.build_instances(max_order=max_order)
    with pytest.raises(ShapeError, match="max_order"):
        verify.run_statements(max_order=max_order)
