"""The main side's clause table against the sweeps it replaced.

The ``_main_*`` functions below are the main checks of the single-table
statements as they were written before ``verify.CLAUSES``, unchanged; they
are the reference the clause table must agree with.  Every structure of
order <= 4 is compared in tier-1; order 5 runs behind the opt-in ``sweep``
marker (``python -m pytest -m sweep``).  The two clause tables are written
apart, and name each line of the paper alike.
"""

import ast
import pathlib

import pytest

from stargroup import oracle, verify
from stargroup.core import (
    FLAG_NAMES,
    ShapeError,
    classify,
    idempotent_leq,
    leq_left,
    leq_right,
    projections,
)
from stargroup.verify import evaluate_clauses

# ---------------------------------------------------------------------------
# the reference: the hand-written sweeps


def _main_reduct(X):
    r = classify(X)
    if r.involutive and not (r.left_involutive and r.right_involutive):
        return False
    if (r.left_involutive or r.right_involutive) and not r.locally_involutive:
        return False
    return True


def _main_birestrictive(X):
    r = classify(X)
    if r.left_involutive and not r.corestrictive:
        return False
    if r.right_involutive and not r.restrictive:
        return False
    if r.involutive and not r.birestrictive:
        return False
    projs = projections(X)
    for p in projs:
        for q in projs:
            pq = X.mul[p][q]
            if not (X.mul[pq][pq] == pq and X.star[pq] == pq):
                continue
            if r.left_involutive and X.mul[pq][p] != pq:
                return False
            if r.right_involutive and X.mul[pq][p] != X.mul[q][p]:
                return False
            if r.involutive and pq != X.mul[q][p]:
                return False
    return True


def _main_leftright(X):
    r, leq = classify(X), idempotent_leq.__wrapped__
    projs = projections(X)
    for y in X.elements:
        cy = X.c(y)
        for p in projs:
            if leq(X, cy, p) != (
                X.mul[p][y] == y and X.mul[X.star[y]][p] == X.star[y]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for q in projs:
            if leq(X, dx, q) != (
                X.mul[x][q] == x and X.mul[q][X.star[x]] == X.star[x]
            ):
                return False
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if leq(X, cy, dx) != (
                X.mul[dx][y] == y and X.mul[X.star[y]][dx] == X.star[y]
            ):
                return False
            if leq(X, dx, cy) != (
                X.mul[x][cy] == x and X.mul[cy][X.star[x]] == X.star[x]
            ):
                return False
    if r.left_involutive:
        for p in projs:
            for y in X.elements:
                if X.mul[p][y] == y and X.mul[X.star[y]][p] != X.star[y]:
                    return False
    if r.right_involutive:
        for q in projs:
            for x in X.elements:
                if X.mul[x][q] == x and X.mul[q][X.star[x]] != X.star[x]:
                    return False
    return True


def _main_3cond(X):
    if not classify(X).left_involutive:
        return True
    leq = idempotent_leq.__wrapped__
    for x in X.elements:
        dx = X.d(x)
        for y in X.elements:
            cy = X.c(y)
            if leq(X, cy, dx) != (X.mul[dx][y] == y):
                return False
            if leq(X, dx, cy) != (
                X.mul[cy][X.star[x]] == X.star[x]
            ):
                return False
    return True


def _main_po(item):
    """The main check of ``lem:po-<item>``.  It compares the orders through
    the bodies of ``core.leq_left``/``leq_right``, their ``__wrapped__``,
    which skip the declared argument check: every element passed comes from
    ``X.elements`` or ``X.star``."""
    left, right = leq_left.__wrapped__, leq_right.__wrapped__

    def fn(X):
        r = classify(X)
        for x in X.elements:
            dx, cx = X.d(x), X.c(x)
            for y in X.elements:
                ll, rr = left(X, x, y), right(X, x, y)
                if item == 1:
                    alt = (X.mul[x][X.d(y)] == x
                           and X.mul[X.star[y]][x] == dx
                           and X.mul[y][X.star[x]] == cx)
                    if ll != alt:
                        return False
                elif item == 2:
                    alt = (X.mul[X.c(y)][x] == x
                           and X.mul[X.star[x]][y] == dx
                           and X.mul[x][X.star[y]] == cx)
                    if rr != alt:
                        return False
                elif item == 3 and r.left_involutive:
                    if ll != (X.mul[X.star[y]][x] == dx
                              and X.mul[y][X.star[x]] == cx):
                        return False
                elif item == 4 and r.right_involutive:
                    if rr != (X.mul[X.star[x]][y] == dx
                              and X.mul[x][X.star[y]] == cx):
                        return False
                elif item == 5:
                    if ll and X.mul[x][X.star[y]] == cx and not rr:
                        return False
                elif item == 6:
                    if rr and X.mul[X.star[y]][x] == dx and not ll:
                        return False
                elif item == 7 and r.locally_involutive:
                    if ll != rr:
                        return False
                elif item == 8 and r.locally_involutive:
                    if ll != right(X, X.star[x], X.star[y]):
                        return False
        return True
    return fn


def _main_commproj(X):
    # classify() itself cross-checks the two routes and raises on mismatch
    classify(X)
    return True


REFERENCE = {
    "lem:reduct": _main_reduct,
    "lem:birestrictive": _main_birestrictive,
    "lem:left/right": _main_leftright,
    "cor:3cond": _main_3cond,
    "prop:commproj": _main_commproj,
    **{f"lem:po-{i}": _main_po(i) for i in range(1, 9)},
}

# ---------------------------------------------------------------------------
# the clause table against the reference

# clauses that no structure of order <= 4 can break, so negating their
# conclusion is not seen there; each needs a larger structure to be tested
# this way.  None today: every clause is reached at order <= 4.
UNREACHED_AT_ORDER_4 = frozenset()


def test_the_clause_table_covers_the_single_table_statements():
    single = {sid for sid, spec in oracle.REGISTRY.items()
              if spec.kind == "semigroup"}
    assert set(REFERENCE) == single <= set(verify.CLAUSES)
    for sid in single:
        names = [c.name for c in verify.CLAUSES[sid]]
        assert len(set(names)) == len(names)
        for c in verify.CLAUSES[sid]:
            assert set(c.over) <= {"E", "P"}
            # a guard over one table is a classify flag
            assert c.guard is None or c.guard in FLAG_NAMES
            for predicate in filter(None, (c.hypothesis, c.conclusion)):
                assert predicate.__code__.co_argcount == 1 + len(c.over)


def test_both_tables_name_the_same_lines_in_the_same_order():
    for sid, clauses in verify.CLAUSES.items():
        assert [c.name for c in clauses] == [
            c.name for c in oracle.CLAUSES[sid]], sid


def _reached(fn):
    """``fn`` and every function of verify that it names, followed through
    the functions those name."""
    seen, todo = [], [fn]
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.append(fn)
            todo += [value for name in fn.__code__.co_names
                     for value in [vars(verify).get(name)]
                     if getattr(value, "__module__", None) == verify.__name__
                     and hasattr(value, "__code__")]
    return seen


def test_no_main_clause_reads_the_oracle():
    """Written apart: verify imports from the oracle only its budget error
    by name, and no guard, hypothesis or conclusion, nor a function of
    verify that one calls, names the oracle or one of its predicates, or is
    an oracle function.  A guard is a classify flag or a function."""
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    assert [[alias.name for alias in node.names] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "oracle"] == [["BudgetExceeded"]]
    for clauses in verify.CLAUSES.values():
        for c in clauses:
            assert type(c) is verify.Clause
            assert c.guard is None or type(c.guard) is str or callable(
                c.guard)
            for fn in filter(callable, (c.guard, c.hypothesis,
                                        c.conclusion)):
                for reached in _reached(fn):
                    assert reached.__module__ != oracle.__name__, c.name
                    names = set(reached.__code__.co_names)
                    assert "oracle" not in names, c.name
                    assert not any(n.startswith("_n") for n in names), c.name


@pytest.mark.parametrize("sid", sorted(REFERENCE))
def test_main_verdicts_equal_the_reference_at_order_4(sid, star_pool4):
    assert len(star_pool4) == 214
    for X in star_pool4:
        expected = REFERENCE[sid](X)
        assert verify.MAIN_CHECKS[sid](X) is expected, X
        assert (evaluate_clauses(sid, X) is True) == expected, X


def _clause_ids():
    return [(sid, i) for sid in REFERENCE
            for i in range(len(verify.CLAUSES[sid]))]


@pytest.mark.parametrize("sid, index", _clause_ids())
def test_negating_a_conclusion_is_seen_at_order_4(monkeypatch, star_pool4,
                                                  sid, index):
    clauses = verify.CLAUSES[sid]
    clause = clauses[index]
    negated = clause._replace(conclusion=lambda *a: not clause.conclusion(*a))
    monkeypatch.setitem(verify.CLAUSES, sid,
                        clauses[:index] + (negated,) + clauses[index + 1:])
    broken = [X for X in star_pool4 if not verify.MAIN_CHECKS[sid](X)]
    if clause.name in UNREACHED_AT_ORDER_4:
        assert not broken
        return
    assert broken
    # the witness names the negated clause and a binding that breaks it
    name, binding = evaluate_clauses(sid, broken[0])
    assert name == clause.name
    X = broken[0]
    assert clause.guard is None or classify(X).flag(clause.guard)
    assert clause.hypothesis is None or clause.hypothesis(X, *binding)
    assert clause.conclusion(X, *binding)


@pytest.mark.parametrize("sid", ["lem:rsrs", "lem:nope", [[1]], None])
def test_evaluate_clauses_refuses_a_statement_without_clauses(t1, sid):
    if sid == "lem:rsrs":
        # every registered statement has clauses now, lem:rsrs among them
        assert evaluate_clauses(sid, t1) is True
        return
    with pytest.raises(oracle.UnknownStatement):
        evaluate_clauses(sid, t1)


@pytest.mark.parametrize("sid", sorted(oracle.REGISTRY))
def test_evaluate_clauses_refuses_an_instance_of_another_kind(sid, i2, i2_inv,
                                                              id_i2):
    # per pool kind, the objects of another kind
    wrong = {"semigroup": id_i2, "inverse": id_i2, "morphism": i2,
             "pair": (id_i2, i2), "triangle": (i2, id_i2),
             "inverse_idem": (i2, 0), "etale_idem": (i2_inv, 0)}
    for instance in (None, 5, (None, None), wrong[oracle.REGISTRY[sid].kind]):
        with pytest.raises(ShapeError):
            evaluate_clauses(sid, instance)


def test_a_verify_run_checks_no_instance(monkeypatch):
    # MAIN_CHECKS, which a run calls, read the unchecked body
    monkeypatch.setattr(verify, "_INSTANCES", {})
    assert all(row.ok for row in verify.run_statements(max_order=2))


@pytest.mark.sweep
def test_main_verdicts_equal_the_reference_at_order_5(order5_structures):
    """Every star structure of every order-5 table class."""
    failures = []
    for label, X in order5_structures:
        for sid, reference in REFERENCE.items():
            witness = evaluate_clauses(sid, X)
            assert (witness is True) == reference(X), (sid, X)
            if witness is not True:
                failures.append((label, sid, witness))
    assert len(order5_structures) == 1267
    # the one failure is the open lem:birestrictive finding, named as the
    # oracle names it (tests/test_findings.py)
    assert failures == [("n5#866*0", "lem:birestrictive",
                         ("right involutive, pq a projection => pq.p = qp",
                          (3, 2)))]
