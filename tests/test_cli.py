import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stargroup import cli, modalg, serialize
from stargroup.core import FLAG_NAMES

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


def test_python_dash_m_runs_the_command():
    """``python -m stargroup`` works in a checkout without an install."""
    proc = subprocess.run(
        [sys.executable, "-m", "stargroup", "verify", "--list"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "verify_list.txt").read_text()


def test_validate_and_order():
    assert run_cli("validate", str(FIXTURES / "p21.json"))[0] == 0
    code, out = run_cli("order", str(FIXTURES / "sl2.json"))
    assert code == 0 and "natural-order" in out


def test_order_fails_cleanly_on_non_locally_involutive(tmp_path, star_pool):
    # the first *-semigroup of order 3 that is not locally involutive
    from stargroup.core import classify
    bad = next(X for X in star_pool
               if X.order == 3 and not classify(X).locally_involutive)
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


def test_site_checks_the_pullback_of_every_cospan(monkeypatch):
    # I2 has 68 pairs of L(S)-morphisms with a common codomain
    from stargroup import site

    calls, pullback = [], site.ls_pullback

    def counted(S, s, t):
        calls.append((s, t))
        return pullback(S, s, t)

    monkeypatch.setattr(site, "ls_pullback", counted)
    code, out = run_cli("site", str(FIXTURES / "i2.json"))
    assert code == 0 and "site:pullbacks-universal" in out
    assert len(calls) == len(set(calls)) == 68
    assert all(s.e == t.e for s, t in calls)


def test_verify_prints_a_repeated_statement_once():
    once = run_cli("verify", "--statement", "lem:reduct", "--max-order", "1")
    twice = run_cli("verify", "--statement", "lem:reduct", "--statement",
                    "lem:reduct", "--max-order", "1")
    assert twice == once
    assert once[0] == 0
    assert [line.split()[1] for line in once[1].splitlines()].count(
        "lem:reduct") == 1


def test_fhat_command(tmp_path):
    out_path = tmp_path / "fhat.json"
    code, out = run_cli("fhat", "--morphism", str(FIXTURES / "id_sl2.json"),
                        "-o", str(out_path))
    assert code == 0
    dumped = json.loads(out_path.read_text())
    assert len(dumped["carrier"]) == 4


# each command over the empty *-semigroup E, its identity and the empty
# presheaf over SL2: every row passes, nothing goes to stderr
EMPTY_OBJECT_REPORTS = [
    (("validate", "e0.json"),
     ["PASS  validate  [E]  witness=['FiniteStarSemigroup']"]),
    (("validate", "id_e0.json"),
     ["PASS  validate  [id_e0.json]  witness=['StarMorphism']"]),
    (("classify", "e0.json"),
     [f"PASS  classify:{flag}  [E]  witness=[True]" for flag in FLAG_NAMES]),
    (("order", "e0.json"), ["PASS  natural-order  [E]  witness=[]"]),
    (("groupoid", "e0.json"),
     ["PASS  esn-groupoid  [E]  witness=[0, 0]",
      "PASS  mediator-kind  [E]  witness=['trivial']"]),
    (("esn-check", "e0.json"),
     ["PASS  esn-roundtrip-semigroup  [E]",
      "PASS  esn-roundtrip-groupoid  [E]"]),
    (("site", "e0.json"),
     ["PASS  site:idempotents  [E]  witness=[]",
      "PASS  site:pullbacks-universal  [E]"]),
    (("compat", "e0.json"), []),
    (("gamma", "--morphism", "id_e0.json"),
     ["PASS  gamma:fibers  [id_e0.json]  witness=[{}]"]),
    (("lambda", "--presheaf", "empty_sl2.json"),
     ["PASS  lambda:build  [empty_sl2.json]  witness=[0]",
      "PASS  lambda:five-way-agreement  [empty_sl2.json]  witness=[True]"]),
    (("adjunction", "--presheaf", "empty_sl2.json"),
     ["PASS  unit-iso  [empty_sl2.json]",
      "PASS  triangle-1  [empty_sl2.json]",
      "PASS  triangle-2  [empty_sl2.json]",
      "PASS  counit-bijective-on-etale  [empty_sl2.json]"]),
    # the free module over the empty base samples no sum
    (("fhat", "--morphism", "id_e0.json"),
     ["PASS  fhat:build  [id_e0.json]  witness=[0]",
      "PASS  fhat:algebra-axioms  [id_e0.json]",
      "PASS  fhat:rho-left-star-hom  [id_e0.json]",
      "PASS  fhat:free-module-sample  [id_e0.json]"]),
]


@pytest.mark.parametrize("args, rows", EMPTY_OBJECT_REPORTS,
                         ids=[" ".join(a) for a, _ in EMPTY_OBJECT_REPORTS])
def test_every_command_accepts_the_empty_object(capsys, args, rows):
    code, out = run_cli(*args[:-1], str(FIXTURES / args[-1]))
    assert (code, out.splitlines()) == (0, rows)
    assert capsys.readouterr().err == ""


def test_fhat_refuses_a_base_that_is_not_inverse(tmp_path, lz2):
    from stargroup.core import identity_morphism
    path = str(tmp_path / "id_lz2.json")
    serialize.save_morphism(identity_morphism(lz2), path)
    code, out = run_cli("fhat", "--morphism", path)
    assert code == 1
    assert out.startswith("FAIL  error  [id_lz2.json]  witness=['NotInverse'")
    # as gamma refuses the same map
    assert run_cli("gamma", "--morphism", path) == (code, out)


def save_constant_etale_map(path):
    """The constant map n2#3*1 -> SL2 onto 0 of verify's morphism pool at
    max order 3: an etale *-homomorphism whose source is not left
    involutive."""
    from stargroup import verify
    f = next(f for label, f, _ in verify.morphism_pool(verify.catalogue(3))
             if label == "n2#3*1->SL2:00")
    serialize.save_morphism(f, path)


@pytest.mark.parametrize("kind, args", [
    ("NotInverse", ["site", "lz2.json"]),
    ("NotQuasiInvolutive", ["groupoid", "lz2.json"]),
    ("NotEtale", ["fhat", "--morphism", "const_c2_t1.json"]),
    ("InvalidStarSemigroup", ["validate", "not_a_star.json"]),
    ("NotLeftInvolutive", ["fhat", "--morphism", "const_n2_sl2.json"]),
])
def test_each_error_kind_is_one_error_row(tmp_path, capsys, kind, args):
    (tmp_path / "not_a_star.json").write_text(
        '{"order":2,"mul":[[0,0],[0,0]],"star":[0,1]}')
    if "const_n2_sl2.json" in args:
        save_constant_etale_map(tmp_path / "const_n2_sl2.json")
    paths = [str(tmp_path / a if (tmp_path / a).exists() else FIXTURES / a)
             if a.endswith(".json") else a for a in args]
    code, out = run_cli("--format", "json", *paths)
    assert capsys.readouterr().err == ""
    [row] = json.loads(out)
    assert (code, row["check"], row["instance"], row["pass"]) == \
        (1, "error", args[-1], False)
    assert row["witness"][0] == kind and len(row["witness"]) == 2


NON_COMMUTATIVE_FREE_MODULE = """
import sys
from stargroup import cli, modalg
modalg.FreeModule.add.__wrapped__ = lambda self, a, b: (a[0], a[1] + b[1])
sys.exit(cli.main(["fhat", "--morphism", sys.argv[1]]))
"""


def test_fhat_free_module_sample_fails_cleanly(monkeypatch, capsys):
    """A free-module axiom that fails is a failed row, not a traceback."""
    monkeypatch.setattr(modalg.FreeModule.add, "__wrapped__",
                        lambda self, a, b: (a[0], a[1] + b[1]))
    code, out = run_cli("fhat", "--morphism", str(FIXTURES / "id_sl2.json"))
    assert code == 1
    assert "FAIL  fhat:free-module-sample" in out
    assert "AdditionCommutativityViolation" in out
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("support, kind", [
    # drops the terms of multiplicity one, so a + a gains one a - a does not
    (lambda self, a: (a[0], frozenset(x for x, k in a[1] if k > 1)),
     "QuotientAdditionViolation"),
    (lambda self, a: (a[0], frozenset({-1})), "SupportRangeViolation"),
])
def test_fhat_free_module_sample_checks_the_support_quotient(
        monkeypatch, capsys, support, kind):
    monkeypatch.setattr(modalg.FreeModule.support, "__wrapped__", support)
    code, out = run_cli("fhat", "--morphism", str(FIXTURES / "id_sl2.json"))
    assert code == 1
    assert "FAIL  fhat:free-module-sample" in out and kind in out
    assert capsys.readouterr().err == ""


def test_fhat_free_module_sample_fails_under_python_O():
    """The sample check does not rest on assert statements, which -O
    strips."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NON_COMMUTATIVE_FREE_MODULE,
         str(FIXTURES / "id_sl2.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 1, proc.stderr
    assert "FAIL  fhat:free-module-sample" in proc.stdout
    assert proc.stderr == ""


class _FailingStdout(io.StringIO):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                   OSError(28, "No space left on device")])
def test_a_failed_report_write_exits_2(monkeypatch, capsys, fmt, error):
    """A report that cannot be written is one io error line and exit 2,
    never a traceback; exit 1 would claim that a check failed."""
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    code = cli.main(["--format", fmt, "classify", str(FIXTURES / "i2.json")])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"io error: {error}\n"


def buffered_cli_env():
    """A subprocess environment with stdout block-buffered, as it is by
    default, so that a failed write leaves bytes for the flush at exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_a_report_onto_a_full_disk_exits_2():
    """``stargroup --format json classify i2.json > /dev/full`` in its own
    interpreter, whose flush at exit must not fail a second time."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "stargroup.cli",
             "--format", "json", "classify", str(FIXTURES / "i2.json")],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            env=buffered_cli_env())
    assert proc.returncode == 2
    assert proc.stderr == "io error: [Errno 28] No space left on device\n"


def test_verify_into_a_closed_pipe_exits_2():
    """``stargroup verify --max-order 4 | head -1``: the reader leaves after
    one line, so a later write fails with a broken pipe."""
    with subprocess.Popen(
            [sys.executable, "-m", "stargroup.cli",
             "verify", "--max-order", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=buffered_cli_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert first.startswith("PASS  ")
    assert err == "io error: [Errno 32] Broken pipe\n"


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
    (("family", "--name", "cyclic_group", "--n", "257"), 2),
    (("family", "--name", "brandt", "--n", "16"), 2),
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


@pytest.mark.parametrize("max_order", [1, 2, 3])
def test_verify_report_bytes_are_pinned(max_order):
    """The sha256 of `verify --max-order N --format json`, order 3 recorded
    before the enumeration was rewritten, orders 1 and 2 before the pools
    became views of one catalogue: any change to the enumeration order, the
    labels, a pool's content or order bound, or a verdict changes it.  The
    pair pool reads order 2 at every max order, so order 1 pins that too."""
    import hashlib

    code, out = run_cli("--format", "json", "verify", "--max-order",
                        str(max_order))
    assert code == 0
    expected = (GOLDEN / f"verify_max{max_order}_json.sha256").read_text(
    ).split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_verify_max4_report_bytes_are_pinned():
    """The sha256 of `verify --max-order 4 --format json`, recorded before
    the oracle's naive verdicts were each computed once per run: any
    change to a verdict, a label or the row order changes it."""
    import hashlib

    code, out = run_cli("verify", "--max-order", "4", "--format", "json")
    assert code == 0
    expected = (GOLDEN / "verify_max4_json.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("golden, args", [
    ("adjunction_p21_json.sha256",
     ("adjunction", "--presheaf", "p21.json", "--morphism",
      "const_c2_t1.json")),
    ("fhat_id_sl2_json.sha256", ("fhat", "--morphism", "id_sl2.json")),
    ("gamma_id_i2_json.sha256", ("gamma", "--morphism", "id_i2.json")),
    ("site_i2_json.sha256", ("site", "i2.json")),
    ("site_sl3_json.sha256", ("site", "sl3.json")),
])
def test_report_bytes_are_pinned(golden, args):
    """The sha256 of the JSON report of the adjunction chain, F-hat and
    Gamma on their fixtures, recorded before the S(e) tables, the
    canonical action and the S-set and algebra verdicts were each built
    once per object; and of ``site``, recorded while it checked only the
    cospans whose legs share a domain."""
    import hashlib

    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    code, out = run_cli("--format", "json", *args)
    assert code == 0
    expected = (GOLDEN / golden).read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def _stream_pins(name):
    """``<stdout sha256>  <stderr sha256>  <exit code>  <argv>`` per line."""
    for line in (GOLDEN / name).read_text().splitlines():
        out_sha, err_sha, code, *args = line.split()
        yield pytest.param(args, out_sha, err_sha, int(code),
                           id=" ".join(args))


@pytest.mark.parametrize("args, out_sha, err_sha, code", [
    *_stream_pins("enumerate_budget.sha256"),
    *_stream_pins("enumerate_stars.sha256"),
])
def test_enumerate_streams_are_pinned(monkeypatch, capsys, args, out_sha,
                                      err_sha, code):
    """The sha256 of stdout and stderr and the exit code of budgeted
    `enumerate` runs (cut mid-stream, exit 3) and of `enumerate --stars`,
    recorded before the lex-leader search replaced orbit marking: a budget
    must count the same steps and stop at the same table."""
    import hashlib

    monkeypatch.delenv("STARGROUP_BUDGET", raising=False)
    got = cli.main(args)
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest(), got) \
        == (out_sha, err_sha, code)


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


def test_an_oracle_error_the_table_does_not_map_is_an_error_row(monkeypatch,
                                                                 capsys):
    from stargroup import oracle

    def unknown(args, report):
        raise oracle.UnknownStatement("lem:none")

    monkeypatch.setattr(cli, "cmd_classify", unknown)
    code, out = run_cli("classify", str(FIXTURES / "i2.json"))
    assert (code, capsys.readouterr().err) == (1, "")
    assert out == "FAIL  error  [i2.json]  witness=['UnknownStatement', " \
        "'lem:none']\n"


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


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000, "JSON nested too deeply"),
], ids=["not-utf8", "nested-too-deeply"])
def test_an_unreadable_json_file_exits_2(tmp_path, capsys, data, message):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    code, out = run_cli("validate", str(path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


TRUNCATED = '{"order": 1, "mul": [[0]], "star": [0]'


@pytest.mark.parametrize("command", ["classify", "validate", "site", "lambda",
                                     "gamma", "fhat"])
def test_a_file_that_is_not_valid_json_exits_2_naming_it(tmp_path, capsys,
                                                        command):
    path = tmp_path / "in.json"
    path.write_text(TRUNCATED)
    flag = {"lambda": ["--presheaf"], "gamma": ["--morphism"],
            "fhat": ["--morphism"]}.get(command, [])
    code, out = run_cli(command, *flag, str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"input error: {path}: not valid JSON (Expecting ',' delimiter at "
        f"line 1 column 39)\n")


def test_a_referenced_file_that_is_not_valid_json_exits_2_naming_it(
        tmp_path, capsys):
    (tmp_path / "base.json").write_text(TRUNCATED)
    path = tmp_path / "in.json"
    path.write_text('{"base": "base.json", "fibers": {}, "transitions": {}}')
    code, out = run_cli("lambda", "--presheaf", str(path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and len(err.splitlines()) == 1
    assert f"{tmp_path / 'base.json'}: not valid JSON (" in err


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
    assert out.startswith("FAIL  error  [in.json]  witness=['ShapeError', ")


@pytest.mark.parametrize("cap", ["-1", "-5", "x"])
def test_fhat_bad_cap_is_a_usage_error(capsys, cap):
    try:
        code, out = run_cli("fhat", "--morphism",
                            str(FIXTURES / "id_sl2.json"), "--cap", cap)
    except SystemExit as exc:
        code, out = exc.code, ""
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--cap" in err


WITNESS_ROWS = [
    {"check": "plain", "instance": "i2.json", "pass": True},
    {"check": "nested", "instance": "café \"q\"", "pass": False,
     "witness": [1, [2, [3, []]], {"z": [1, {}], "a": None}, "two\nlines"]},
    {"check": "int-keyed", "instance": "x", "pass": True,
     "witness": [{3: [0, 1], 1: {"b": 2, "a": [True, 1.5]}}]},
    {"check": "empty", "instance": "", "pass": True, "witness": []},
]


@pytest.mark.parametrize("rows", [[], WITNESS_ROWS[:1], WITNESS_ROWS,
                                  WITNESS_ROWS[1:2], WITNESS_ROWS[2:]])
def test_json_report_writer_matches_json_dumps(rows):
    assert cli._json_rows(rows) == json.dumps(rows, indent=1, sort_keys=True)


def test_an_interrupt_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(args, report):
        report.add("partial", "x", True)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_classify", interrupted)
    code, out = run_cli("classify", str(FIXTURES / "i2.json"))
    assert (code, out) == (130, "")
    assert capsys.readouterr().err == "interrupted\n"
