"""The oracle's clause table against the sweeps it replaced.

The ``_st_*`` functions below are the oracle's naive checks of the
single-table statements as they were written before ``oracle.CLAUSES``,
with the table-level predicates they read, unchanged; they are the
reference the clause table must agree with.  Every structure of order <= 4
is compared in tier-1; order 5 runs behind the opt-in ``sweep`` marker
(``python -m pytest -m sweep``).
"""

import pytest

from stargroup import oracle
from stargroup.oracle import (
    _fact,
    _n_leq_left,
    _n_leq_right,
    _nc,
    _nd,
    _nleq,
    evaluate_clauses,
    naive_check,
)

# ---------------------------------------------------------------------------
# the reference: the hand-written sweeps and their table-level predicates


def _nprojections(mul, star):
    return [p for p in range(len(mul)) if mul[p][p] == p and star[p] == p]


def _n_involutive(mul, star):
    n = len(mul)
    return all(star[mul[x][y]] == mul[star[y]][star[x]]
               for x in range(n) for y in range(n))


def _n_left_involutive(mul, star):
    n = len(mul)
    return all(
        star[mul[x][y]] == mul[star[mul[_nd(mul, star, x)][y]]][star[x]]
        for x in range(n) for y in range(n)
    )


def _n_right_involutive(mul, star):
    n = len(mul)
    return all(
        star[mul[x][y]] == mul[star[y]][star[mul[x][_nc(mul, star, y)]]]
        for x in range(n) for y in range(n)
    )


def _n_locally_involutive(mul, star):
    n = len(mul)
    projs = set(_nprojections(mul, star))
    for x in range(n):
        for y in range(n):
            if (
                _nd(mul, star, x) == _nc(mul, star, y)
                or (x in projs and _nleq(mul, x, _nc(mul, star, y)))
                or (y in projs and _nleq(mul, y, _nd(mul, star, x)))
            ):
                if star[mul[x][y]] != mul[star[y]][star[x]]:
                    return False
    return True


def _n_restrictive(mul, star):
    n = len(mul)
    return all(_nleq(mul, _nd(mul, star, mul[x][y]), _nd(mul, star, y))
               for x in range(n) for y in range(n))


def _n_corestrictive(mul, star):
    n = len(mul)
    return all(_nleq(mul, _nc(mul, star, mul[x][y]), _nc(mul, star, x))
               for x in range(n) for y in range(n))


def _n_inverse(mul):
    n = len(mul)
    for x in range(n):
        count = 0
        for y in range(n):
            if mul[mul[x][y]][x] == x and mul[mul[y][x]][y] == y:
                count += 1
        if count != 1:
            return False
    return True


def _st_reduct(inst, facts):
    mul, star = inst
    inv = _fact(facts, _n_involutive, mul, star)
    left = _fact(facts, _n_left_involutive, mul, star)
    right = _fact(facts, _n_right_involutive, mul, star)
    loc = _fact(facts, _n_locally_involutive, mul, star)
    if inv and not (left and right):
        return False
    if (left or right) and not loc:
        return False
    return True


def _st_birestrictive(inst, facts):
    mul, star = inst
    left = _fact(facts, _n_left_involutive, mul, star)
    right = _fact(facts, _n_right_involutive, mul, star)
    inv = _fact(facts, _n_involutive, mul, star)
    if left and not _fact(facts, _n_corestrictive, mul, star):
        return False
    if right and not _fact(facts, _n_restrictive, mul, star):
        return False
    if inv and not (_fact(facts, _n_restrictive, mul, star)
                    and _fact(facts, _n_corestrictive, mul, star)):
        return False
    projs = _nprojections(mul, star)
    for p in projs:
        for q in projs:
            pq = mul[p][q]
            if not (mul[pq][pq] == pq and star[pq] == pq):
                continue
            if left and mul[pq][p] != pq:
                return False
            if right and mul[pq][p] != mul[q][p]:
                return False
            if inv and pq != mul[q][p]:
                return False
    return True


def _st_leftright(inst, facts):
    mul, star = inst
    n = len(mul)
    projs = _nprojections(mul, star)
    for y in range(n):
        cy = _nc(mul, star, y)
        for p in projs:
            lhs = _nleq(mul, cy, p)
            rhs = mul[p][y] == y and mul[star[y]][p] == star[y]
            if lhs != rhs:
                return False
    for x in range(n):
        dx = _nd(mul, star, x)
        for q in projs:
            lhs = _nleq(mul, dx, q)
            rhs = mul[x][q] == x and mul[q][star[x]] == star[x]
            if lhs != rhs:
                return False
    for x in range(n):
        dx = _nd(mul, star, x)
        for y in range(n):
            cy = _nc(mul, star, y)
            lhs = _nleq(mul, cy, dx)
            rhs = mul[dx][y] == y and mul[star[y]][dx] == star[y]
            if lhs != rhs:
                return False
            lhs2 = _nleq(mul, dx, cy)
            rhs2 = mul[x][cy] == x and mul[cy][star[x]] == star[x]
            if lhs2 != rhs2:
                return False
    if _fact(facts, _n_left_involutive, mul, star):
        for p in projs:
            for y in range(n):
                if mul[p][y] == y and mul[star[y]][p] != star[y]:
                    return False
    if _fact(facts, _n_right_involutive, mul, star):
        for q in projs:
            for x in range(n):
                if mul[x][q] == x and mul[q][star[x]] != star[x]:
                    return False
    return True


def _st_3cond(inst, facts):
    mul, star = inst
    if not _fact(facts, _n_left_involutive, mul, star):
        return True
    n = len(mul)
    for x in range(n):
        dx = _nd(mul, star, x)
        for y in range(n):
            cy = _nc(mul, star, y)
            if _nleq(mul, cy, dx) != (mul[dx][y] == y):
                return False
            if _nleq(mul, dx, cy) != (mul[cy][star[x]] == star[x]):
                return False
    return True


def _st_po(item):
    # the hypothesis of items 3, 4, 7 and 8 depends on the instance only
    hypothesis = {3: _n_left_involutive, 4: _n_right_involutive,
                  7: _n_locally_involutive, 8: _n_locally_involutive}.get(item)

    def check(inst, facts):
        mul, star = inst
        if hypothesis is not None and not _fact(facts, hypothesis,
                                                mul, star):
            return True
        n = len(mul)
        for x in range(n):
            dx, cx = _nd(mul, star, x), _nc(mul, star, x)
            for y in range(n):
                ll = _n_leq_left(mul, star, x, y)
                rr = _n_leq_right(mul, star, x, y)
                a1 = (mul[x][_nd(mul, star, y)] == x
                      and mul[star[y]][x] == dx and mul[y][star[x]] == cx)
                a2 = (mul[_nc(mul, star, y)][x] == x
                      and mul[star[x]][y] == dx and mul[x][star[y]] == cx)
                if item == 1 and ll != a1:
                    return False
                if item == 2 and rr != a2:
                    return False
                if item == 3:
                    if ll != (mul[star[y]][x] == dx and mul[y][star[x]] == cx):
                        return False
                if item == 4:
                    if rr != (mul[star[x]][y] == dx and mul[x][star[y]] == cx):
                        return False
                if item == 5 and ll and mul[x][star[y]] == cx and not rr:
                    return False
                if item == 6 and rr and mul[star[y]][x] == dx and not ll:
                    return False
                if item == 7 and ll != rr:
                    return False
                if item == 8:
                    if ll != _n_leq_right(mul, star, star[x], star[y]):
                        return False
        return True
    return check


def _st_commproj(inst, facts):
    mul, star = inst
    projs = _nprojections(mul, star)
    commuting = all(mul[p][q] == mul[q][p] for p in projs for q in projs)
    quasi = (_fact(facts, _n_restrictive, mul, star)
             and _fact(facts, _n_corestrictive, mul, star)
             and _fact(facts, _n_locally_involutive, mul, star))
    return _fact(facts, _n_inverse, mul) == (quasi and commuting)


REFERENCE = {
    "lem:reduct": _st_reduct,
    "lem:birestrictive": _st_birestrictive,
    "lem:left/right": _st_leftright,
    "cor:3cond": _st_3cond,
    "prop:commproj": _st_commproj,
    **{f"lem:po-{i}": _st_po(i) for i in range(1, 9)},
}

# ---------------------------------------------------------------------------
# the clause table against the reference

# clauses that no structure of order <= 4 can break, so negating their
# conclusion is not seen there; each needs a larger structure to be tested
# this way.  None today: every clause is reached at order <= 4.
UNREACHED_AT_ORDER_4 = frozenset()


@pytest.fixture(scope="module")
def pool4(star_pool4):
    return [(X.mul, X.star) for X in star_pool4]


def test_the_clause_table_covers_the_single_table_statements():
    single = {sid for sid, spec in oracle.REGISTRY.items()
              if spec.kind == "semigroup"}
    assert set(REFERENCE) == single <= set(oracle.CLAUSES)
    for sid in single:
        names = [c.name for c in oracle.CLAUSES[sid]]
        assert len(set(names)) == len(names)
        for c in oracle.CLAUSES[sid]:
            assert set(c.over) <= {"E", "P"}
            # each guard verdict is of the instance's (mul, star)
            assert c.guard is None or all(
                tables(("mul", "star")) == ("mul", "star")
                for _, tables in c.guard)
            for predicate in filter(None, (c.hypothesis, c.conclusion)):
                assert predicate.__code__.co_argcount == 2 + len(c.over)


@pytest.mark.parametrize("sid", sorted(REFERENCE))
def test_clause_verdicts_equal_the_reference_at_order_4(sid, pool4):
    facts = {}
    for raw in pool4:
        expected = REFERENCE[sid](raw, None)
        assert naive_check(sid, raw) == expected, raw
        assert naive_check(sid, raw, facts) == expected, raw
        assert (evaluate_clauses(sid, raw) is True) == expected, raw
    # the run's dict holds only the guards' table-level verdicts
    assert all(isinstance(v, bool) for v in facts.values())
    assert {key[0] for key in facts} <= {
        predicate for c in oracle.CLAUSES[sid] for predicate, _ in c.guard or ()}


def _clause_ids():
    return [(sid, i) for sid in REFERENCE
            for i in range(len(oracle.CLAUSES[sid]))]


@pytest.mark.parametrize("sid, index", _clause_ids())
def test_negating_a_conclusion_is_seen_at_order_4(monkeypatch, pool4, sid,
                                                  index):
    clauses = oracle.CLAUSES[sid]
    clause = clauses[index]
    negated = clause._replace(conclusion=lambda *a: not clause.conclusion(*a))
    monkeypatch.setitem(oracle.CLAUSES, sid,
                        clauses[:index] + (negated,) + clauses[index + 1:])
    broken = [raw for raw in pool4 if not naive_check(sid, raw)]
    if clause.name in UNREACHED_AT_ORDER_4:
        assert not broken
        return
    assert broken
    # the witness names the negated clause and a binding that breaks it
    name, binding = evaluate_clauses(sid, broken[0])
    assert name == clause.name
    mul, star = broken[0]
    assert clause.hypothesis is None or clause.hypothesis(mul, star,
                                                          *binding)
    assert clause.conclusion(mul, star, *binding)


def test_a_failing_guard_makes_a_clause_hold_vacuously(lz2):
    # xy = x with the identity star is left but not right involutive, so
    # every clause guarded by right or two-sided involutivity is skipped
    facts = {}
    assert evaluate_clauses("lem:birestrictive", (lz2.mul, lz2.star),
                            facts) is True
    assert facts[(oracle._n_left_involutive, (lz2.mul, lz2.star))]
    assert not facts[(oracle._n_right_involutive, (lz2.mul, lz2.star))]


def test_evaluate_clauses_refuses_a_statement_without_clauses():
    t1 = (((0,),), (0,))
    # every registered statement has clauses now, lem:rsrs among them
    assert naive_check("lem:rsrs", t1)
    assert evaluate_clauses("lem:rsrs", t1) is True
    with pytest.raises(oracle.UnknownStatement):
        evaluate_clauses("lem:nope", t1)


@pytest.mark.sweep
def test_clause_verdicts_equal_the_reference_at_order_5(order5_structures):
    """Every star structure of every order-5 table class."""
    failures = []
    for label, X in order5_structures:
        raw = (X.mul, X.star)
        for sid, reference in REFERENCE.items():
            assert naive_check(sid, raw) == reference(raw, None), (sid, raw)
            witness = evaluate_clauses(sid, raw)
            if witness is not True:
                failures.append((label, sid, witness))
    assert len(order5_structures) == 1267
    # the one failure is the open lem:birestrictive finding
    # (tests/test_findings.py)
    assert failures == [("n5#866*0", "lem:birestrictive",
                         ("right involutive, pq a projection => pq.p = qp",
                          (3, 2)))]
