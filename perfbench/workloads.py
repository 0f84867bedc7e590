"""The benchmark's workloads.

Each workload has a ``setup(seed)`` that returns its state and a
``run(state)`` that does the timed work and returns an ``Outcome``.  Calls go
through module attributes (``topos.unit``, not a name imported from
``topos``) so that the traced run sees them.

* ``verify``: the user command ``stargroup verify --max-order 4 --format
  json``, in process with one job.  Oracle enumeration, canonical form and
  the registry's task evaluation carry almost all of its work.  Ignores the
  seed.
* ``presheaves``: the test suite's population (every presheaf with fibers
  of size at most 2 over SL2, SL3 and I2, plus the 100 presheaves
  ``random_presheaf(base, 3, random.Random(1000 + i))``, bases round robin),
  each renumbered fiber by fiber by a seeded random permutation and then put
  through the adjunction chain, the ESN roundtrip (when Lambda is
  quasi-involutive) and F-hat (when Lambda is small).  Many small objects,
  so per-call overhead, validation and caches dominate.  Seed 0 renumbers
  nothing.  The seed does not pick new random presheaves, because their
  Lambda sizes, and with them the work, vary from seed to seed; a
  renumbered copy does the same work and has the same sizes and verdicts,
  so the output gate holds for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass

from stargroup import cli, core, groupoid, modalg, oracle, site, ssets, topos

RANDOM_PRESHEAVES = 100
# F-hat, its validation and rho on all 272 objects would more than double
# the workload; the 137 Lambdas of at most 8 elements add about 15%
FHAT_MAX_LAMBDA = 8


@dataclass
class Outcome:
    """What one timed repetition produced.

    ``latencies`` holds one time per item in seconds; ``summaries`` maps a
    part name to the canonical, JSON-serialisable record of the outputs that
    the output gate digests."""

    items: int
    failed: int
    latencies: list
    summaries: dict


# ---------------------------------------------------------------------------
# verify


def setup_verify(seed):
    return ["verify", "--max-order", "4", "--format", "json"]


def run_verify(argv):
    started = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    latency = time.perf_counter() - started
    text = buf.getvalue()
    rows = json.loads(text)
    failed = sum(1 for row in rows if not row["pass"])
    if code != 0:
        failed = max(failed, 1)
    return Outcome(len(rows), failed, [latency], {"report": text})


# ---------------------------------------------------------------------------
# presheaves


def _sizes(P, idems):
    return [len(P.fiber(e)) for e in idems]


def adjunction_chain(P):
    """Unit, counit, both triangles, m, the five-way check and balance on
    one non-empty presheaf.  Returns (summary, ok, structure map)."""
    idems = list(P.base.idempotents)
    sg = P.base.semigroup
    u = topos.unit(P)
    LP = u.lam_obj
    f = LP.structure_map
    eps = topos.counit(f, u.gamma_obj)
    tri1 = topos.triangle_check(P)
    tri2 = topos.triangle_check2(f)
    m = topos.m_iso(f)
    inv = topos.prop_inv_check(P)
    bal = ssets.balanced_check(ssets.canonical_action(f))
    gamma_sizes = [len(u.gamma_obj.alphas[e]) for e in idems]
    verdicts = {
        # |Lambda(P)| = sum over r of |P(c(r))|, and Gamma(Lambda(P)) has
        # the fibers of P because the unit is an isomorphism
        "sizes": len(LP.pairs) == sum(len(P.fiber(sg.c(r)))
                                      for r in sg.elements)
                 and gamma_sizes == _sizes(P, idems),
        "unit": u.bijective,
        "counit": eps.bijective,
        "triangle": bool(tri1),
        "triangle2": bool(tri2),
        "m_iso": m.is_star_hom and m.is_bijective,
        "balanced": bal.cond1 and bal.cond2 and bal.balanced
                    and bal.left_identity,
    }
    summary = {
        "fibers": _sizes(P, idems),
        "lambda": len(LP.pairs),
        "gamma": gamma_sizes,
        "counit_iso": eps.is_iso,
        "inverse": inv.inverse,
        "verdicts": verdicts,
    }
    return summary, all(verdicts.values()), f


def esn_and_fhat(f):
    """The ESN roundtrip when the source of f is quasi-involutive, and F-hat,
    its validation and rho when the source is small."""
    X = f.source
    more, ok = {}, True
    if core.classify(X).quasi_involutive:
        G = groupoid.esn_groupoid(X)
        ok = core.same_tables(groupoid.esn_semigroup(G), X)
        more.update(esn=ok, mediator=groupoid.mediator_kind(G))
    if X.order <= FHAT_MAX_LAMBDA:
        fh = modalg.fhat(f)
        alg = modalg.validate_algebra(fh.algebra)
        r = modalg.rho(fh)
        more.update(fhat=len(fh.elements), algebra=alg.ok,
                    rho=[r.injective, r.is_left_star_hom, r.is_star_hom])
        ok = ok and alg.ok and r.injective and r.is_left_star_hom
    return more, ok


def _timed_items(presheaves):
    """Run the chain, ESN and F-hat on each presheaf, timing each one.
    An item that raises is recorded as failed with the exception's name."""
    latencies, summaries, failed = [], [], 0
    for P in presheaves:
        started = time.perf_counter()
        try:
            summary, ok, f = adjunction_chain(P)
            more, more_ok = esn_and_fhat(f)
            summary.update(more)
            ok = ok and more_ok
        except Exception as exc:  # a failed item must not end the sweep
            summary, ok = {"fibers": _sizes(P, P.base.idempotents),
                           "error": type(exc).__name__}, False
        latencies.append(time.perf_counter() - started)
        summaries.append(summary)
        failed += not ok
    return latencies, summaries, failed


def setup_presheaves(seed):
    bases = tuple(oracle.standard_family(name, n) for name, n in
                  (("semilattice_chain", 2), ("semilattice_chain", 3),
                   ("symmetric_inverse", 2)))
    return bases, seed


def relabel(P, rng):
    """An isomorphic copy of P: each fiber's elements renumbered by a random
    permutation, or kept in place when ``rng`` is None.  Built and validated
    the same way either way, so every seed costs the same."""
    sg = P.base.semigroup
    perm = {}
    for e, labels in P.fibers.items():
        perm[e] = list(range(len(labels)))
        if rng is not None:
            rng.shuffle(perm[e])
    transitions = {}
    for (s, e), table in P.transitions.items():
        d = sg.d(s)
        moved = [0] * len(table)
        for i, v in enumerate(table):
            moved[perm[e][i]] = perm[d][v]
        transitions[(s, e)] = tuple(moved)
    return site.validate_presheaf(P.base, P.fibers, transitions)


def run_presheaves(state):
    bases, seed = state
    inv = [site.as_inverse(X) for X in bases]
    population = [P for S in inv for P in site.enumerate_presheaves(S, 2)]
    population += [site.random_presheaf(inv[i % len(inv)], 3,
                                        random.Random(1000 + i))
                   for i in range(RANDOM_PRESHEAVES)]
    rng = random.Random(seed) if seed else None
    population = [relabel(P, rng) for P in population if not P.is_empty()]
    latencies, summaries, failed = _timed_items(population)
    return Outcome(len(latencies), failed, latencies, {"items": summaries})


WORKLOADS = {
    "verify": (setup_verify, run_verify),
    "presheaves": (setup_presheaves, run_presheaves),
}
