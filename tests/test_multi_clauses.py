"""Both clause tables' statements over maps, pairs and S(e) against the
checks they replaced.

The ``_main_*`` and ``_st_*`` functions below are the main and the naive
checks of the nine multi-table statements as they were written before
``verify.CLAUSES`` and ``oracle.CLAUSES`` held them, unchanged; they are the
references both evaluators must agree with, on verify's ``--max-order 4``
pools and on a wider population:

- every *-map ``verify._star_morphism_maps`` lists between the 35 structures
  of ``star_pool`` with SL2, SL3 and I2 (``lem:fdt``, ``lem:reflect``,
  ``lem:xfy``);
- every composable pair of left *-homomorphisms of order <= 2, without
  ``verify.PAIR_CAP`` (``ex:fg``, ``prop:starhomo``);
- ``inverse_bases``, the 24 inverse structures of order <= 4 with SL2, I2,
  B2 and I3 (``lem:rsrs``), each at every idempotent (``prop:sym``,
  ``rem:Seinv``);
- ``verify.etale_idem_pool`` (``lem:xirho``).
"""

import itertools

import pytest

from stargroup import oracle, site, topos, verify
from stargroup.core import (
    StarMorphism,
    classify,
    compose_morphisms,
    is_etale,
    projections,
)
from stargroup.oracle import (
    XIRHO_BUDGET,
    BudgetExceeded,
    _fact,
    _n_action,
    _n_inverse,
    _n_is_etale,
    _n_is_left_hom,
    _n_is_mult,
    _n_is_star_morphism,
    _n_left_compatible,
    _n_left_involutive,
    _n_se_carrier,
    _n_se_mul,
    _n_se_star,
    _nc,
    _nd,
    _nprojections,
)
from stargroup.site import as_inverse, representable_semigroup
from stargroup.ssets import canonical_action

# ---------------------------------------------------------------------------
# the references: the hand-written main checks


def _main_fdt(f):
    X, S = f.source, f.target
    if not (classify(X).left_involutive and classify(S).left_involutive
            and f.is_left_star_hom):
        return True
    proj_mult = all(
        f.map[X.mul[p][x]] == S.mul[f.map[p]][f.map[x]]
        for p in projections(X) for x in X.elements
    )
    return f.is_multiplicative == proj_mult


def _main_reflect(f):
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    return all(
        x == X.c(x)
        for x in X.elements
        if f.map[x] == S.c(f.map[x])
    )


def _main_fg(inst):
    gm, fm = inst
    fg = compose_morphisms(fm, gm)
    if not (gm.is_left_star_hom and fm.is_left_star_hom):
        return True
    if not (is_etale(fm) and is_etale(fg)):
        return True
    return is_etale(gm)


def _main_starhomo(inst):
    pm, hm = inst
    fm = compose_morphisms(hm, pm)
    if not (hm.is_star_hom and is_etale(hm) and fm.is_star_hom
            and pm.is_left_star_hom):
        return True
    if not pm.is_multiplicative:
        return False
    if is_etale(fm) and not is_etale(pm):
        return False
    return True


def _main_xfy(f):
    if not (f.is_left_star_hom and is_etale(f)):
        return True
    X, S = f.source, f.target
    act = canonical_action(f).action
    for x in X.elements:
        dx = X.d(x)
        if act[x][f.map[dx]] != x:
            return False
        for y in X.elements:
            if act[x][f.map[X.mul[dx][y]]] != X.mul[x][y]:
                return False
    mult = f.is_multiplicative
    via = all(act[x][f.map[y]] == X.mul[x][y]
              for x in X.elements for y in X.elements)
    if mult != via:
        return False
    if mult:
        for x in X.elements:
            for y in X.elements:
                xy = X.mul[x][y]
                for s in S.elements:
                    if act[xy][s] != X.mul[x][act[y][s]]:
                        return False
    return True


def _main_rsrs(X):
    if not classify(X).inverse:
        return True
    S = as_inverse(X)
    for r in X.elements:
        e = X.c(r)
        R = representable_semigroup(S, e)
        se, pos = R.semigroup, R.index
        a = (r, e)
        for s in X.elements:
            rs = X.mul[r][s]
            b = (rs, X.c(rs))
            c = (X.mul[X.d(r)][s], X.mul[r][X.mul[s][X.star[s]]])
            if a not in pos or b not in pos or c not in pos:
                return False
            if se.mul[pos[a]][pos[c]] != pos[b]:
                return False
            da = se.mul[se.star[pos[a]]][pos[a]]
            if se.mul[da][pos[c]] != pos[c]:
                return False
    return True


def _main_xirho(inst):
    fm, e = inst
    S0 = fm.target
    if not (classify(S0).inverse and fm.is_star_hom and is_etale(fm)):
        return True
    G = topos.gamma(fm)
    ee = representable_semigroup(G.base, e).index[(e, e)]
    values = [table[ee] for table in G.alphas[e]]
    return len(set(values)) == len(values)


def _main_sym(inst):
    S, e = inst
    return topos.prop_sym_check(S, e).ok


def _main_seinv(inst):
    S, e = inst
    return topos.prop_sym_check(S, e).seinv_agrees


# ---------------------------------------------------------------------------
# the references: the hand-written naive checks


def _st_fdt(inst, facts):
    mx, sx, ms, ss, f = inst
    if not (_fact(facts, _n_left_involutive, mx, sx)
            and _fact(facts, _n_left_involutive, ms, ss)
            and _fact(facts, _n_is_left_hom, mx, sx, ms, ss, f)):
        return True
    proj_mult = all(
        f[mx[p][x]] == ms[f[p]][f[x]]
        for p in _nprojections(mx, sx) for x in range(len(mx))
    )
    return _fact(facts, _n_is_mult, mx, ms, f) == proj_mult


def _st_reflect(inst, facts):
    mx, sx, ms, ss, f = inst
    if not (_fact(facts, _n_is_left_hom, mx, sx, ms, ss, f)
            and _fact(facts, _n_is_etale, mx, sx, ms, ss, f)):
        return True
    for x in range(len(mx)):
        if f[x] == _nc(ms, ss, f[x]) and x != _nc(mx, sx, x):
            return False
    return True


def _st_fg(inst, facts):
    # g: X -> Y, f: Y -> Z; if f and f.g are etale then so is g
    mx, sx, my, sy, mz, sz, g, f = inst
    fg = tuple(f[g[x]] for x in range(len(mx)))
    if not (_fact(facts, _n_is_left_hom, mx, sx, my, sy, g)
            and _fact(facts, _n_is_left_hom, my, sy, mz, sz, f)):
        return True
    if not (_fact(facts, _n_is_etale, my, sy, mz, sz, f)
            and _fact(facts, _n_is_etale, mx, sx, mz, sz, fg)):
        return True
    return _fact(facts, _n_is_etale, mx, sx, my, sy, g)


def _st_starhomo(inst, facts):
    # psi: X -> Y, h: Y -> S with h etale *-hom; f = h.psi a *-hom
    mx, sx, my, sy, ms, ss, psi, h = inst
    f = tuple(h[psi[x]] for x in range(len(mx)))
    if not (_fact(facts, _n_is_star_morphism, my, sy, ms, ss, h)
            and _fact(facts, _n_is_mult, my, ms, h)
            and _fact(facts, _n_is_etale, my, sy, ms, ss, h)):
        return True
    if not (_fact(facts, _n_is_star_morphism, mx, sx, ms, ss, f)
            and _fact(facts, _n_is_mult, mx, ms, f)):
        return True
    if not _fact(facts, _n_is_left_hom, mx, sx, my, sy, psi):
        return True
    if not _fact(facts, _n_is_mult, mx, my, psi):
        return False
    if (_fact(facts, _n_is_etale, mx, sx, ms, ss, f)
            and not _fact(facts, _n_is_etale, mx, sx, my, sy, psi)):
        return False
    return True


def _n_action(mx, sx, ms, ss, f, x, s):
    cx = _nc(mx, sx, x)
    hits = [z for z in range(len(mx))
            if mx[cx][z] == z and f[z] == ms[f[x]][s]]
    if len(hits) != 1:
        raise OracleError("canonical action undefined: map not etale")
    return hits[0]


def _st_xfy(inst, facts):
    mx, sx, ms, ss, f = inst
    if not (_fact(facts, _n_is_left_hom, mx, sx, ms, ss, f)
            and _fact(facts, _n_is_etale, mx, sx, ms, ss, f)):
        return True
    n = len(mx)
    for x in range(n):
        dx = _nd(mx, sx, x)
        if _n_action(mx, sx, ms, ss, f, x, f[dx]) != x:
            return False
        for y in range(n):
            if _n_action(mx, sx, ms, ss, f, x, f[mx[dx][y]]) != mx[x][y]:
                return False
    mult = _fact(facts, _n_is_mult, mx, ms, f)
    via_action = all(
        _n_action(mx, sx, ms, ss, f, x, f[y]) == mx[x][y]
        for x in range(n) for y in range(n)
    )
    if mult != via_action:
        return False
    if mult:
        for x in range(n):
            for y in range(n):
                for s in range(len(ms)):
                    lhs = _n_action(mx, sx, ms, ss, f, mx[x][y], s)
                    rhs = mx[x][_n_action(mx, sx, ms, ss, f, y, s)]
                    if lhs != rhs:
                        return False
    return True


def _st_rsrs(inst, facts):
    mul, star = inst
    if not _fact(facts, _n_inverse, mul):
        return True
    n = len(mul)
    for r in range(n):
        e = mul[r][star[r]]
        carrier = set(_n_se_carrier(mul, star, e))
        a = (r, e)
        for s in range(n):
            rs = mul[r][s]
            b = (rs, mul[rs][star[rs]])
            c = (mul[mul[star[r]][r]][s], mul[r][mul[s][star[s]]])
            if a not in carrier or b not in carrier or c not in carrier:
                return False
            if _n_se_mul(mul, star, a, c) != b:
                return False
            da = _n_se_mul(mul, star, _n_se_star(mul, star, a), a)
            if _n_se_mul(mul, star, da, c) != c:
                return False
    return True


# the most candidate maps S(e) -> X that _st_xirho enumerates
XIRHO_BUDGET = 200000


def _st_xirho(inst, facts):
    # f: X -> S etale *-hom into inverse S, idempotent e: any two left
    # *-homs S(e) -> X over S agreeing at (e,e) agree
    mx, sx, ms, ss, f, e = inst
    if not (_fact(facts, _n_inverse, ms)
            and _fact(facts, _n_is_star_morphism, mx, sx, ms, ss, f)
            and _fact(facts, _n_is_mult, mx, ms, f)
            and _fact(facts, _n_is_etale, mx, sx, ms, ss, f)):
        return True
    carrier = _n_se_carrier(ms, ss, e)
    pos = {u: i for i, u in enumerate(carrier)}
    fibers = [[x for x in range(len(mx)) if f[x] == r] for (r, s) in carrier]
    total = 1
    for fib in fibers:
        total *= max(len(fib), 1)
        if total > XIRHO_BUDGET:
            raise BudgetExceeded("xirho naive enumeration too large")
        if not fib:
            return True

    # the left *-homs: alpha(u*) = alpha(u)* and alpha(uv) = alpha(u)
    # alpha(d(u)v) for all u, v of S(e)
    du = [_n_se_mul(ms, ss, _n_se_star(ms, ss, u), u) for u in carrier]
    alphas = []
    for a in itertools.product(*fibers):
        if all(sx[a[i]] == a[pos[_n_se_star(ms, ss, u)]]
               for i, u in enumerate(carrier)) and all(
                a[pos[_n_se_mul(ms, ss, u, v)]]
                == mx[a[i]][a[pos[_n_se_mul(ms, ss, du[i], v)]]]
                for i, u in enumerate(carrier) for v in carrier):
            alphas.append(a)

    ee = pos[(e, e)]
    seen = {}
    for values in alphas:
        key = values[ee]
        if key in seen and seen[key] != values:
            return False
        seen[key] = values
    return True


def _st_sym(inst, facts):
    mul, star, e = inst
    if not _fact(facts, _n_inverse, mul):
        return True
    carrier = _n_se_carrier(mul, star, e)
    for a in carrier:
        for b in carrier:
            p, q = a
            r, s = b
            lhs = _n_se_star(mul, star, _n_se_mul(mul, star, a, b))
            rhs = _n_se_mul(mul, star, _n_se_star(mul, star, b),
                            _n_se_star(mul, star, a))
            if (lhs == rhs) != _n_left_compatible(mul, star, s, mul[q][p]):
                return False
    return True


def _st_seinv(inst, facts):
    mul, star, e = inst
    if not _fact(facts, _n_inverse, mul):
        return True
    carrier = _n_se_carrier(mul, star, e)
    pos = {u: i for i, u in enumerate(carrier)}
    k = len(carrier)
    semul = [[pos[_n_se_mul(mul, star, carrier[i], carrier[j])]
              for j in range(k)] for i in range(k)]
    es = [s for s in range(len(mul)) if mul[e][s] == s]
    compat = all(_n_left_compatible(mul, star, r, s) for r in es for s in es)
    # semul is a list of lists, so it has no key: a direct call
    return _n_inverse(semul) == compat


MAIN_REFERENCE = {
    "lem:fdt": _main_fdt, "lem:reflect": _main_reflect, "ex:fg": _main_fg,
    "prop:starhomo": _main_starhomo, "lem:xfy": _main_xfy,
    "lem:rsrs": _main_rsrs, "lem:xirho": _main_xirho, "prop:sym": _main_sym,
    "rem:Seinv": _main_seinv,
}
NAIVE_REFERENCE = {
    "lem:fdt": _st_fdt, "lem:reflect": _st_reflect, "ex:fg": _st_fg,
    "prop:starhomo": _st_starhomo, "lem:xfy": _st_xfy, "lem:rsrs": _st_rsrs,
    "lem:xirho": _st_xirho, "prop:sym": _st_sym, "rem:Seinv": _st_seinv,
}

# ---------------------------------------------------------------------------
# the population

# clauses whose negated conclusion breaks no instance of the population, so
# negating it is not seen here; each would need a larger population.  None
# today: every clause is reached.
UNREACHED = frozenset()


@pytest.fixture(scope="module")
def population(star_pool, sl2, sl3, i2, inverse_bases):
    """Per statement, its (instance, raw tables) rows: the population of
    the module docstring."""
    structures = [*star_pool, sl2, sl3, i2]
    maps = [(StarMorphism(X, S, f), (X.mul, X.star, S.mul, S.star, f))
            for X in structures for S in structures
            for f in verify._star_morphism_maps(X, S)]
    catalogue = verify.catalogue(2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "PAIR_CAP", float("inf"))
        pairs = [(inst, raw) for _, inst, raw in verify.pair_pool(catalogue)]
    at_idempotents = [((S, e), (S.semigroup.mul, S.semigroup.star, e))
                      for S in map(as_inverse, inverse_bases)
                      for e in S.idempotents]
    return {"lem:fdt": maps, "lem:reflect": maps, "lem:xfy": maps,
            "ex:fg": pairs, "prop:starhomo": pairs,
            "lem:rsrs": [(X, (X.mul, X.star)) for X in inverse_bases],
            "prop:sym": at_idempotents, "rem:Seinv": at_idempotents,
            "lem:xirho": [(inst, raw)
                          for _, inst, raw in verify.etale_idem_pool(catalogue)]}


def test_the_population_has_the_sizes_it_names(population):
    sizes = {sid: len(rows) for sid, rows in population.items()}
    assert sizes == {"lem:fdt": 20631, "lem:reflect": 20631,
                     "lem:xfy": 20631, "ex:fg": 779, "prop:starhomo": 779,
                     "lem:rsrs": 28, "prop:sym": 77, "rem:Seinv": 77,
                     "lem:xirho": 8}
    assert set(sizes) == set(MAIN_REFERENCE) == set(NAIVE_REFERENCE) == {
        sid for sid, spec in oracle.REGISTRY.items()
        if spec.kind != "semigroup"}


@pytest.mark.parametrize("sid", sorted(MAIN_REFERENCE))
def test_both_evaluators_hold_where_the_references_do(sid, population):
    """On every row of the population and of verify's pools, each side's
    evaluator returns True exactly where its reference does, and both
    references hold everywhere.  The naive side runs through the checked
    ``oracle.evaluate_clauses`` with a run's dict, and without one."""
    pool = [(inst, raw) for _, _, inst, raw in verify.build_instances([sid], 4)]
    reference_facts, facts = {}, {}
    for inst, raw in population[sid] + pool:
        assert MAIN_REFERENCE[sid](inst) is True, (sid, raw)
        assert NAIVE_REFERENCE[sid](raw, reference_facts) is True, (sid, raw)
        assert verify.evaluate_clauses(sid, inst) is True, (sid, raw)
        assert oracle.evaluate_clauses(sid, raw, facts) is True, (sid, raw)
    for inst, raw in pool:
        assert oracle.evaluate_clauses(sid, raw) is True, (sid, raw)


def test_the_verify_pools_hold_5298_multi_table_rows():
    rows = verify.build_instances(sorted(MAIN_REFERENCE), 4)
    assert len(rows) == 5298


def _negated(clause, side):
    """``clause`` with its conclusion negated; an oracle conclusion that is
    a tuple of verdicts has each predicate negated, under its own key."""
    conclusion = clause.conclusion
    if type(conclusion) is tuple:
        assert side is oracle and len(conclusion) == 1
        (predicate, tables), = conclusion
        return clause._replace(conclusion=(
            (lambda *t: not predicate(*t), tables),))
    return clause._replace(conclusion=lambda *a: not conclusion(*a))


def _multi_clause_ids():
    return [(side.__name__[10:], sid, i) for side in (verify, oracle)
            for sid in sorted(MAIN_REFERENCE)
            for i in range(len(side.CLAUSES[sid]))]


@pytest.mark.parametrize("side, sid, index", _multi_clause_ids())
def test_negating_a_conclusion_is_seen_in_the_population(monkeypatch,
                                                         population, side,
                                                         sid, index):
    """Negating a clause's conclusion breaks its statement on some row,
    and the evaluator names that clause there."""
    module = verify if side == "verify" else oracle
    clauses = module.CLAUSES[sid]
    clause = clauses[index]
    monkeypatch.setitem(module.CLAUSES, sid, clauses[:index]
                        + (_negated(clause, module),) + clauses[index + 1:])
    for inst, raw in population[sid]:
        witness = (verify.evaluate_clauses(sid, inst) if side == "verify"
                   else oracle.evaluate_clauses(sid, raw))
        if witness is not True:
            break
    else:
        assert clause.name in UNREACHED, (side, sid, clause.name)
        return
    assert clause.name not in UNREACHED
    assert witness[0] == clause.name


def test_both_tables_name_the_same_lines_for_every_statement():
    assert set(verify.CLAUSES) == set(oracle.CLAUSES) == set(oracle.REGISTRY)
    for sid, clauses in verify.CLAUSES.items():
        assert [c.name for c in clauses] == [
            c.name for c in oracle.CLAUSES[sid]], sid
