"""The benchmark's traced run wraps named functions of the package; a rename
or a changed signature would break ``perfbench/run.py --trace 1`` without
failing any other test.  The tracer module is loaded by path and only read."""

import importlib
import inspect
import pathlib
import types

import pytest

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


def test_argument_counts_match_signatures(tracer):
    expected = {
        "ssets.make_sset": ["size", "star", "base"],
        "core.validate_star_semigroup": ["order"],
    }
    assert set(tracer.ARG_COUNTS) == set(expected)
    for name, head in expected.items():
        params = list(inspect.signature(_resolve(name)).parameters)
        assert params[:len(head)] == head, name
