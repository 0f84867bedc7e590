import contextlib
import io
import json
import pathlib

import pytest

from stargroup import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def test_classify_i2_exit_zero():
    code, out = run_cli("classify", str(FIXTURES / "i2.json"))
    assert code == 0
    assert "classify:inverse" in out


def test_classify_golden_report():
    code, out = run_cli("--format", "json", "classify", str(FIXTURES / "i2.json"))
    assert code == 0
    assert out == (GOLDEN / "classify_i2.json").read_text()
    rows = json.loads(out)
    assert all(set(r) <= {"check", "instance", "pass", "witness"} for r in rows)


def test_verify_list_golden():
    code, out = run_cli("verify", "--list")
    assert code == 0
    assert out == (GOLDEN / "verify_list.txt").read_text()


def test_validate_and_order():
    assert run_cli("validate", str(FIXTURES / "p21.json"))[0] == 0
    code, out = run_cli("order", str(FIXTURES / "sl2.json"))
    assert code == 0 and "natural-order" in out


def test_order_fails_cleanly_on_non_locally_involutive(tmp_path):
    from stargroup import oracle, serialize
    # find a *-semigroup that is not locally involutive
    from stargroup.core import classify
    bad = None
    for table in oracle.enumerate_semigroups(3, "iso"):
        for X in oracle.enumerate_star_structures(table):
            if not classify(X).locally_involutive:
                bad = X
                break
        if bad:
            break
    serialize.save_semigroup(bad, tmp_path / "bad.json")
    code, out = run_cli("order", str(tmp_path / "bad.json"))
    assert code == 1
    assert "FAIL" in out


def test_esn_check():
    code, out = run_cli("esn-check", str(FIXTURES / "i2.json"))
    assert code == 0
    assert out.count("PASS") == 2


def test_adjunction_with_counterexample():
    code, out = run_cli("adjunction", "--presheaf", str(FIXTURES / "p21.json"),
                        "--morphism", str(FIXTURES / "const_c2_t1.json"))
    assert code == 0
    assert "counit-vs-etale" in out


def test_gamma_budget_exit_code_3():
    code, _ = run_cli("gamma", "--morphism", str(FIXTURES / "id_i2.json"),
                      "--budget", "1")
    assert code == 3


def test_missing_file_exit_code_2():
    code, _ = run_cli("classify", "no_such_file.json")
    assert code == 2


def test_family_roundtrip(tmp_path):
    out_path = tmp_path / "b2.json"
    code, _ = run_cli("family", "--name", "brandt", "--n", "2",
                      "-o", str(out_path))
    assert code == 0
    code, out = run_cli("classify", str(out_path))
    assert code == 0


def test_enumerate_stream():
    code, out = run_cli("enumerate", "--order", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 4


def test_enumerate_with_stars():
    code, out = run_cli("enumerate", "--order", "2", "--stars")
    assert code == 0
    assert all("star" in json.loads(l) for l in out.splitlines())


def test_verify_subset_runs():
    code, out = run_cli("verify", "--statement", "lem:reduct",
                        "--max-order", "2")
    assert code == 0
    assert "enumeration-self-test" in out


def test_fhat_command(tmp_path):
    out_path = tmp_path / "fhat.json"
    code, out = run_cli("fhat", "--morphism", str(FIXTURES / "id_sl2.json"),
                        "-o", str(out_path))
    assert code == 0
    dumped = json.loads(out_path.read_text())
    assert len(dumped["carrier"]) == 4


def test_compat_and_site():
    assert run_cli("compat", str(FIXTURES / "i2.json"))[0] == 0
    assert run_cli("site", str(FIXTURES / "sl2.json"))[0] == 0


def test_lambda_and_groupoid():
    assert run_cli("lambda", "--presheaf", str(FIXTURES / "p21.json"))[0] == 0
    assert run_cli("groupoid", str(FIXTURES / "c2.json"))[0] == 0


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("STARGROUP_BUDGET", "1")
    code, _ = run_cli("gamma", "--morphism", str(FIXTURES / "id_i2.json"))
    assert code == 3
    monkeypatch.delenv("STARGROUP_BUDGET")
    code, _ = run_cli("gamma", "--morphism", str(FIXTURES / "id_i2.json"))
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_budget_env_var_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("STARGROUP_BUDGET", value)
    for args in (("gamma", "--morphism", str(FIXTURES / "id_sl2.json")),
                 ("adjunction", "--presheaf", str(FIXTURES / "p21.json"))):
        code, out = run_cli(*args)
        assert code == 2 and out == ""
        assert "budget must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_budget_flag_is_a_usage_error(capsys, value):
    code, _ = run_cli("gamma", "--morphism", str(FIXTURES / "id_sl2.json"),
                      "--budget", value)
    assert code == 2
    assert "budget must be a non-negative integer" in capsys.readouterr().err


def test_format_flag_both_positions():
    a = run_cli("--format", "json", "classify", str(FIXTURES / "i2.json"))
    b = run_cli("classify", str(FIXTURES / "i2.json"), "--format", "json")
    assert a == b and a[0] == 0


@pytest.mark.parametrize("args, code", [
    (("verify", "--statement", "nope"), 2),
    (("verify", "--max-order", "0"), 2),
    (("verify", "--jobs", "0"), 2),
    (("enumerate", "--order", "0"), 2),
    (("enumerate", "--order", "x"), 2),
    (("family", "--name", "nope", "--n", "2"), 2),
    (("family", "--name", "brandt", "--n", "0"), 2),
    (("family", "--name", "symmetric_inverse", "--n", "4"), 2),
    (("verify", "--max-order", "5"), 3),
])
def test_usage_and_budget_errors_exit_cleanly(capsys, args, code):
    # argparse reports its errors by raising SystemExit
    try:
        got, out = run_cli(*args)
    except SystemExit as exc:
        got, out = exc.code, ""
    err = capsys.readouterr().err
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_report_bytes_are_pinned():
    """The sha256 of `verify --max-order 3 --format json`, recorded before
    the enumeration was rewritten: any change to the enumeration order,
    the labels or a verdict changes it."""
    import hashlib

    code, out = run_cli("--format", "json", "verify", "--max-order", "3")
    assert code == 0
    expected = (GOLDEN / "verify_max3_json.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("golden, args", [
    ("adjunction_p21_json.sha256",
     ("adjunction", "--presheaf", "p21.json", "--morphism",
      "const_c2_t1.json")),
    ("fhat_id_sl2_json.sha256", ("fhat", "--morphism", "id_sl2.json")),
    ("gamma_id_i2_json.sha256", ("gamma", "--morphism", "id_i2.json")),
])
def test_report_bytes_are_pinned(golden, args):
    """The sha256 of the JSON report of the adjunction chain, F-hat and
    Gamma on their fixtures, recorded before the S(e) tables, the
    canonical action and the S-set and algebra verdicts were each built
    once per object."""
    import hashlib

    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    code, out = run_cli("--format", "json", *args)
    assert code == 0
    expected = (GOLDEN / golden).read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("max_order", ["1", "2"])
def test_verify_error_in_one_task_fails_only_its_rows(monkeypatch, max_order):
    from stargroup import verify
    from stargroup.core import ConsistencyError

    def broken(inst):
        raise ConsistencyError("routes disagree")

    args = ("--format", "json", "verify", "--max-order", max_order,
            "--statement", "lem:reduct", "--statement", "lem:po-7")
    _, clean = run_cli(*args)
    monkeypatch.setitem(verify.MAIN_CHECKS, "lem:po-7", broken)
    code, out = run_cli(*args)
    assert code == 1
    rows, before = json.loads(out), json.loads(clean)
    checks = {r["check"] for r in rows}
    assert "lem:po-7" in checks and len(checks) > 1
    assert [(r["check"], r["instance"]) for r in rows] == \
        [(r["check"], r["instance"]) for r in before]
    for row, old in zip(rows, before):
        if row["check"] == "lem:po-7":
            assert row["pass"] is False
            assert row["witness"] == ["error", "ConsistencyError",
                                      "routes disagree"]
        else:
            assert row == old


def test_fhat_cap_exceeded_exits_3(capsys):
    code, out = run_cli("fhat", "--morphism", str(FIXTURES / "id_sl2.json"),
                        "--cap", "0")
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, text, message", [
    ("classify", '{"star": [0]}', "missing key 'order'"),
    ("classify", "[1, 2]", "expected an object, got array"),
    ("classify", '{"order": "1", "mul": [[0]], "star": [0]}',
     "'order' must be an integer, got string"),
    ("classify", '{"order": 1, "mul": [[0.5]], "star": [0]}',
     "'mul' must be an array of integer arrays"),
    ("validate", "[1, 2]", "expected an object, got array"),
    ("validate", '{"source": 5, "target": 5, "map": [0]}',
     "'source' must be a string or an object"),
    ("validate", '{"base": "t1.json", "fibers": {"x": [1]}, '
                 '"transitions": {}}', "bad key 'x'"),
    ("site", '{"order": 1, "mul": [[0]], "star": [0], "name": 3}',
     "'name' must be a string or null"),
    ("lambda", '{"base": "t1.json", "fibers": [], "transitions": {}}',
     "'fibers' must be an object"),
    ("gamma", '{"source": "t1.json", "target": "t1.json", "map": ["0"]}',
     "'map' must be an array of integers"),
])
def test_loader_input_errors_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    (tmp_path / "t1.json").write_text((FIXTURES / "t1.json").read_text())
    flag = {"lambda": ["--presheaf"], "gamma": ["--morphism"]}.get(command, [])
    code, out = run_cli(command, *flag, str(path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and message in err
    assert len(err.splitlines()) == 1


def test_verify_budget_error_in_a_task_still_exits_3(monkeypatch, capsys):
    from stargroup import verify
    from stargroup.topos import SearchBudgetExceeded

    def over_budget(inst):
        raise SearchBudgetExceeded("gamma budget 1")

    monkeypatch.setitem(verify.MAIN_CHECKS, "lem:po-7", over_budget)
    code, out = run_cli("verify", "--max-order", "2",
                        "--statement", "lem:po-7")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("budget exceeded:")


@pytest.mark.parametrize("doc", [
    {"objects": 1, "morphisms": 1, "dom": [5], "cod": [0], "identity": [0],
     "inverse": [0], "compose": [[0]], "order": [[1]]},
    {"carrier": 1, "star": [0], "map": [0], "action": [[7]],
     "base": {"order": 1, "mul": [[0]], "star": [0]}},
])
def test_out_of_range_entries_are_a_shape_error(tmp_path, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("validate", str(path))
    assert code == 1
    assert out.startswith("FAIL  error  [ShapeError]")
