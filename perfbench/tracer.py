"""Span tracing for the benchmark's traced runs.

The tracer replaces every binding of a listed ``stargroup`` function with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  ``from .core import classify`` in another
module makes a separate binding, so every module of the package is scanned
and each attribute that *is* the original function is replaced.  Generator
functions get one span per resumption, so time spent in the consumer between
two items is not charged to the generator.

Spans stay in memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

# (module, qualified name) of every traced function.  Its calls and self time
# become the per-layer metrics ``<module>.<qualname>.calls`` / ``.self_s``.
TRACED = {
    "cli": ("main", "Report.emit"),
    "verify": ("run_statements", "build_instances", "semigroup_pool",
               "morphism_pool", "pair_pool", "inverse_pool",
               "etale_idem_pool"),
    "oracle": ("enumerate_semigroups", "enumerate_star_structures",
               "enumeration_counts", "naive_check"),
    "core": ("validate_star_semigroup", "classify", "is_etale"),
    "site": ("as_inverse", "enumerate_presheaves", "random_presheaf",
             "validate_presheaf", "representable_presheaf",
             "representable_semigroup"),
    "topos": ("lam", "gamma", "unit", "counit", "triangle_check",
              "triangle_check2", "m_iso", "fiber_presheaf", "prop_inv_check",
              "prop_sym_check"),
    "ssets": ("canonical_action", "make_sset", "balanced_check"),
    "modalg": ("fhat", "validate_algebra", "rho"),
    "groupoid": ("esn_groupoid", "esn_semigroup", "mediator_kind"),
}
# the values of verify.MAIN_CHECKS are looked up at call time, so the dict
# entries themselves are wrapped, all under this one name
MAIN_CHECKS = "verify.main_checks"
# functions wrapped in functools.lru_cache whose hit ratio is reported
CACHED = ("core.classify", "site.representable_semigroup")
ROOT = "bench"


def _order_cubed(order, *args, **kwargs):
    return order ** 3


def _sset_triples(size, star, base, *args, **kwargs):
    return size * base.order ** 2


# work counts computed from a call's arguments: name -> (counter, function)
ARG_COUNTS = {
    "core.validate_star_semigroup": ("cells3", _order_cubed),
    "ssets.make_sset": ("triples", _sset_triples),
}
# generators whose yielded items are counted: name -> counter
YIELD_COUNTS = {"oracle.enumerate_semigroups": "tables"}
# functions whose calls are also reported per workload item
PER_ITEM = ("topos.lam", "topos.gamma")


def counter_names():
    return ([f"{name}.{counter}" for name, (counter, _) in ARG_COUNTS.items()]
            + [f"{name}.{counter}" for name, counter in YIELD_COUNTS.items()])


def layer_names():
    """Every traced function name, ``verify.main_checks`` included."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names.insert(names.index("verify.etale_idem_pool") + 1, MAIN_CHECKS)
    return names


def per_layer_metrics():
    """Name -> unit of every per-layer metric, in report order."""
    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for mod in TRACED:
        out[f"{mod}.self_s"] = "s"
    for key in counter_names():
        out[key] = "count"
    for name in PER_ITEM:
        out[f"{name}.per_item"] = "calls/item"
    for name in CACHED:
        out[f"{name}.hit_ratio"] = "ratio"
    out[f"{ROOT}.self_s"] = "s"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        # one entry per span: [name id, start, end, parent index]
        self.spans = []
        self.open = [-1]
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.originals = {}

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def enter(self, nid):
        idx = len(self.spans)
        self.spans.append([nid, 0.0, None, self.open[-1]])
        self.open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def leave(self, idx):
        end = time.perf_counter()
        self.spans[idx][2] = end
        if self.open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name):
        nid = self.name_id(name)
        tracer = self
        counted = ARG_COUNTS.get(name)
        if inspect.isgeneratorfunction(fn):
            counter = YIELD_COUNTS.get(name)

            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resumptions(fn(*args, **kwargs), nid, name,
                                           counter)
            wrapper = gen_wrapper
        else:
            def call_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if counted:
                    tracer.counts[f"{name}.{counted[0]}"] += counted[1](
                        *args, **kwargs)
                idx = tracer.enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave(idx)
            wrapper = call_wrapper
        return functools.update_wrapper(wrapper, fn)

    def _resumptions(self, gen, nid, name, counter):
        while True:
            idx = self.enter(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.leave(idx)
            if counter:
                self.counts[f"{name}.{counter}"] += 1
            yield item

    def install(self, package):
        """Replace every binding of the traced functions in ``package`` and
        its modules, and wrap each value of ``verify.MAIN_CHECKS``."""
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            full = f"{package.__name__}.{info.name}"
            modules[full] = importlib.import_module(full)
        replace = {}
        for mod, fns in TRACED.items():
            owner = modules[f"{package.__name__}.{mod}"]
            for qual in fns:
                name = f"{mod}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[attr]
                    self.originals[name] = fn
                    setattr(cls, attr, self.wrap(fn, name))
                    continue
                fn = getattr(owner, qual)
                self.originals[name] = fn
                replace[id(fn)] = (fn, self.wrap(fn, name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        checks = modules[f"{package.__name__}.verify"].MAIN_CHECKS
        for sid, fn in list(checks.items()):
            checks[sid] = self.wrap(fn, MAIN_CHECKS)

    def self_times(self):
        """Self time per span name, after checking that every span is closed
        and lies inside its parent, and that siblings do not overlap."""
        child_time = [0.0] * len(self.spans)
        last_end = {}
        for idx, (nid, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                raise RuntimeError(f"span {self.names[nid]} never closed")
            if parent >= 0:
                _, pstart, pend, _ = self.spans[parent]
                if start < pstart or end > pend:
                    raise RuntimeError(
                        f"span {self.names[nid]} leaves its parent")
                if start < last_end.get(parent, start):
                    raise RuntimeError(
                        f"span {self.names[nid]} overlaps a sibling")
                last_end[parent] = end
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (nid, start, end, _) in enumerate(self.spans):
            out[self.names[nid]] += (end - start) - child_time[idx]
        return out

    def report(self, items):
        """Counts and self times keyed by metric name, plus the traced wall
        time (the root span) and the sum of all self times."""
        self_s = self.self_times()
        _, start, end, _ = self.spans[0]
        counts, selfs = {}, {}
        for name in layer_names():
            counts[f"{name}.calls"] = self.calls[name]
            selfs[f"{name}.self_s"] = self_s.get(name, 0.0)
        for mod in TRACED:
            selfs[f"{mod}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(mod + "."))
        for key in counter_names():
            counts[key] = self.counts[key]
        for name in PER_ITEM:
            counts[f"{name}.per_item"] = self.calls[name] / items
        for name in CACHED:
            info = self.originals[name].cache_info()
            total = info.hits + info.misses
            counts[f"{name}.hit_ratio"] = info.hits / total if total else 0.0
        selfs[f"{ROOT}.self_s"] = self_s.get(ROOT, 0.0)
        return {"wall_s": end - start, "self_total": sum(self_s.values()),
                "spans": len(self.spans), "counts": counts, "self_s": selfs}

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
