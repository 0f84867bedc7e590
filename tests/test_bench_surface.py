"""The benchmark's traced run wraps named functions of the package; a rename
or a changed signature would break ``perfbench/run.py --trace 1`` without
failing any other test.  The tracer module is loaded by path and only read.
The verify and presheaves workloads run here too, against the digests the
benchmark's output gate records in ``perfbench/expected.json``, which is
only read."""

import hashlib
import importlib
import inspect
import json
import pathlib
import sys
import types

import pytest

from stargroup import cli

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled here rather than imported, so no bytecode is written there
    module = types.ModuleType("_bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def _resolve(name):
    mod, _, qual = name.partition(".")
    obj = importlib.import_module(f"stargroup.{mod}")
    for attr in qual.split("."):
        obj = getattr(obj, attr)
    return obj


def test_traced_names_resolve_to_callables(tracer):
    names = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns]
    assert "cli.Report.emit" in names
    for name in names:
        assert callable(_resolve(name)), name
    assert _resolve("verify.MAIN_CHECKS")


def test_cached_functions_report_cache_info(tracer):
    for name in tracer.CACHED:
        assert callable(_resolve(name).cache_info), name


def test_cache_info_counts_the_calls_of_each_cached_function(tracer, sl2_inv):
    # the traced run reads .hits and .misses, not only a callable
    args = {"core.classify": (sl2_inv.semigroup,),
            "site.representable_semigroup": (sl2_inv, 1)}
    assert set(args) == set(tracer.CACHED)
    for name in tracer.CACHED:
        fn = _resolve(name)
        fn(*args[name])
        info = fn.cache_info()
        assert type(info.hits) is int and type(info.misses) is int, name
        assert info.hits + info.misses >= 1, name
        fn(*args[name])
        assert fn.cache_info().hits == info.hits + 1, name


def test_argument_counts_match_signatures(tracer):
    expected = {
        "ssets.make_sset": ["size", "star", "base"],
        "core.validate_star_semigroup": ["order"],
    }
    assert set(tracer.ARG_COUNTS) == set(expected)
    for name, head in expected.items():
        params = list(inspect.signature(_resolve(name)).parameters)
        assert params[:len(head)] == head, name


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 3])
def test_presheaves_workload_matches_the_recorded_digest(seed, monkeypatch):
    # the benchmark's output gate, in process: a change to what the
    # presheaf chain computes fails here, not only in the benchmark
    path = TRACER.parent / "workloads.py"
    workloads = types.ModuleType("_bench_workloads")
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    exec(compile(path.read_text(), str(path), "exec"), vars(workloads))
    expected = json.loads((TRACER.parent / "expected.json").read_text())
    outcome = workloads.run_presheaves(workloads.setup_presheaves(seed))
    assert (outcome.items, outcome.failed) == (272, 0)
    text = json.dumps(outcome.summaries["items"], sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == expected["presheaves"]["items"]


def test_verify_workload_matches_the_recorded_digest(capsys):
    # the verify workload's output gate, in process: the user command's
    # report must stay byte for byte what the benchmark recorded
    expected = json.loads((TRACER.parent / "expected.json").read_text())
    assert cli.main(["verify", "--max-order", "4", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected["verify"]["report"]
