"""Two order-5 structures the order <= 4 pools do not reach, pinned as the
code reads them today.  Each is an open finding: its mend needs the paper's
statement, and the test below changes with that mend on purpose."""

import json
import pathlib

from stargroup import cli, oracle, serialize, verify

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_n5_866_0_fails_the_right_clause_of_lem_birestrictive():
    """Left and right involutive, not involutive; projections 0, 2 and 3.
    At p = 3, q = 2, pq = 0 is a projection and pq.p = 0, but qp = 1.  The
    main clause table and the oracle's encode the same clause, and each
    names it and its binding; whether the paper states it so is open (the
    ROADMAP's order-5 ``lem:birestrictive`` item)."""
    X = serialize.load_semigroup(FIXTURES / "n5_866_0.json")
    raw = (X.mul, X.star)
    assert verify.MAIN_CHECKS["lem:birestrictive"](X) is False
    assert oracle.naive_check("lem:birestrictive", raw) is False
    assert verify.evaluate_clauses("lem:birestrictive", X) == \
        oracle.evaluate_clauses("lem:birestrictive", raw) == (
            "right involutive, pq a projection => pq.p = qp", (3, 2))
    # the other single-table statements hold there, on both sides
    assert set(verify.CLAUSES) == set(oracle.CLAUSES)
    for sid in oracle.CLAUSES:
        if sid != "lem:birestrictive":
            assert verify.evaluate_clauses(sid, X) is True, sid
            assert oracle.evaluate_clauses(sid, raw) is True, sid


def test_n5_1770_2_esn_check_is_an_error_row(capsys):
    """Quasi-involutive, but its canonical mediator m_pq = pq fails
    validation with OrderPreservationViolations, so ``esn-check`` reports
    an error row and exits 1.  The ROADMAP's ESN-at-order-5 item decides
    which reading is wrong; its mend changes this test on purpose."""
    path = str(FIXTURES / "n5_1770_2.json")
    assert cli.main(["--format", "json", "esn-check", path]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert (row["check"], row["instance"], row["pass"]) == (
        "error", "n5_1770_2.json", False)
    assert row["witness"][0] == "ConsistencyError"
    assert "OrderPreservationViolation" in row["witness"][1]
    assert cli.main(["esn-check", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith(
        "FAIL  error  [n5_1770_2.json]  witness=['ConsistencyError', ")
