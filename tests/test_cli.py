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


def test_verify_jobs_deterministic():
    a = run_cli("--format", "json", "verify", "--statement", "lem:po-7",
                "--max-order", "2", "--jobs", "1")
    b = run_cli("--format", "json", "verify", "--statement", "lem:po-7",
                "--max-order", "2", "--jobs", "2")
    assert a == b


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
