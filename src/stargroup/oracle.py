"""Independent ground truth: brute-force enumeration of small semigroups,
standard families, and naive re-derivations of every registered statement.

Everything in this module works on raw ``(mul, star)`` tables with its own
little helpers.  It deliberately does not call the predicates in ``core``,
``site`` or ``topos``, so that an agreement test between ``naive_check`` and
the main code path compares two genuinely different implementations.  The
only imports from the rest of the package are the container type and its
validator, used to wrap return values.  Its searches are plain loops, and
``REGISTRY`` is the one statement table: each entry holds the statement's
instance kind and its summary.  A predicate's verdict is kept only in the
dict a caller passes to ``naive_check`` for one run.

Every registered statement is a list of clauses in the table ``CLAUSES``,
one clause per line of the paper, evaluated the way a finite-model checker
such as McCune's Mace4 evaluates first-order clauses: when the guard
(table- and map-level verdicts) holds of the instance, then for every
binding of the variables the hypothesis implies the conclusion.  To hold a
statement against the paper, read its clauses top to bottom; each name
states its clause.  ``evaluate_clauses`` returns True, or the name of the
first clause that fails and its first falsifying binding.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import FiniteStarSemigroup, validate_star_semigroup


class OracleError(Exception):
    pass


class BudgetExceeded(OracleError):
    pass


class UnknownFamily(OracleError):
    pass


class UnknownStatement(OracleError):
    pass


MAX_ENUM_ORDER = 4

# classes of associative tables up to isomorphism and anti-isomorphism,
# used as the enumeration self-test; order 5, beyond the cap, is checked by
# a test of the search alone
KNOWN_CLASS_COUNTS = {1: 1, 2: 4, 3: 18, 4: 126, 5: 1160}


# ---------------------------------------------------------------------------
# enumeration


def _associative_tables(n, budget=None):
    """All associative n x n tables, lexicographic order, via backtracking
    with incremental associativity checks.

    This is the unpruned tree, which ``dedup="none"`` and every budgeted
    call walk, so a budget counts the same steps whatever the dedup.  The
    class representatives come from the same search with every non-leader
    cut (``_least_tables``; lex-leader predicates of Crawford et al., KR
    1996, applied to semigroups by Distler et al., CP 2012)."""
    return _search(n, budget, [()] * (n * n))


def _consistent(table, n, a, b):
    """Whether the value just put in cell (a, b) keeps associativity on every
    triple whose four lookups are filled (-1 marks an empty cell)."""
    v = table[a][b]
    for z in range(n):
        bz = table[b][z]
        if bz != -1:
            left = table[v][z]
            right = table[a][bz]
            if left != -1 and right != -1 and left != right:
                return False
    for x in range(n):
        xa = table[x][a]
        if xa != -1:
            left = table[xa][b]
            right = table[x][v]
            if left != -1 and right != -1 and left != right:
                return False
    for x in range(n):
        row = table[x]
        for y in range(n):
            if row[y] == a:
                yb = table[y][b]
                if yb != -1 and table[x][yb] not in (-1, v):
                    return False
    for y in range(n):
        ty = table[y]
        for z in range(n):
            if ty[z] == b:
                ay = table[a][y]
                if ay != -1 and table[ay][z] not in (-1, v):
                    return False
    return True


def _search(n, budget, cuts):
    """Backtracking over the cells in row-major order, as one loop: k is the
    cell being filled, and its next value is one more than the value it
    holds.  Each value tried is one step.  After a consistent assignment to
    cell k, the branch is cut if some ``(p, cells)`` of ``cuts[k]`` makes the
    filled prefix smaller (see ``_smaller``).  A map absent from ``cuts[k]``
    knows no more cells than at the parent, where it was already compared.
    A cell whose values are spent is reset to -1 before the search backs up,
    because ``_consistent`` and ``_smaller`` read only filled cells."""
    table = [[-1] * n for _ in range(n)]
    last = n * n
    steps = 0
    k = 0
    while k >= 0:
        if k == last:
            yield tuple(map(tuple, table))
            k -= 1
            continue
        i, j = divmod(k, n)
        row = table[i]
        v = row[j] + 1
        if v == n:
            row[j] = -1
            k -= 1
            continue
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExceeded(f"associativity search budget {budget}")
        row[j] = v
        cut = cuts[k]
        if _consistent(table, n, i, j) and not (cut and _smaller(table, cut)):
            k += 1


# Lex-leader symmetry breaking (Crawford, Ginsberg, Luks and Roy, KR 1996;
# for semigroups, Distler, Jefferson, Kelsey and Kotthoff, CP 2012).  A
# relabelling p sends T to p(T), whose cell (i, j) reads p[T[q[i]][q[j]]]
# with q = p^-1; the relabelled transpose reads p[T[q[j]][q[i]]] and is
# anti-isomorphic to T.  Compared cell by cell in row-major order, p(T) is
# known on a prefix once the sources of its cells are filled.  If it is
# smaller there at the first difference, no completion of T is the least of
# its class.


def _leader_cuts(n, transpose):
    """``cuts[k]``: the ``(p, cells)`` whose comparison gains a cell once
    cells 0..k are filled, ``cells`` being every ``(i, j, a, b)`` (compare
    T[i][j] with p[T[a][b]]) that is known then.  Relabellings are the
    non-identity permutations, or with ``transpose`` all n! relabelled
    transposes.  ``cuts[n*n - 1]`` holds every map with every cell."""
    cuts = [[] for _ in range(n * n)]
    for p in itertools.permutations(range(n)):
        if not transpose and p == tuple(range(n)):
            continue
        q = sorted(range(n), key=p.__getitem__)
        cells = []
        for c in range(n * n):
            i, j = divmod(c, n)
            a, b = (q[j], q[i]) if transpose else (q[i], q[j])
            cells.append((i, j, a, b))
        # known[c]: the last cell read by cells 0..c of the relabelled table
        known = list(itertools.accumulate(
            (a * n + b for _, _, a, b in cells), max))
        for c, top in enumerate(known):
            if c == n * n - 1 or known[c + 1] > top:
                cuts[top].append((p, tuple(cells[:c + 1])))
    return cuts


def _smaller(table, cut):
    """Whether some ``(p, cells)`` of ``cut`` relabels the table into a
    smaller one at the first cell where the two differ."""
    for p, cells in cut:
        for i, j, a, b in cells:
            v = p[table[a][b]]
            t = table[i][j]
            if v < t:
                return True
            if v > t:
                break
    return False


def _flat(table):
    return bytes(v for row in table for v in row)


def _unflat(key, n):
    return tuple(tuple(key[i:i + n]) for i in range(0, n * n, n))


def _least_tables(n):
    """Every associative table of order n that is the least of its
    isomorphism class, in lexicographic order, as ``(table, least of its
    iso+anti class)``.  Non-leaders are cut while the search fills cells."""
    anti = _leader_cuts(n, transpose=True)[-1]
    for table in _search(n, None, _leader_cuts(n, transpose=False)):
        yield table, not _smaller(table, anti)


# order -> {"iso": reps, "iso+anti": reps}, each rep a flat encoding; at
# most MAX_ENUM_ORDER entries
_REPRESENTATIVES = {}


def _representatives(n):
    reps = _REPRESENTATIVES.get(n)
    if reps is None:
        iso, anti = [], []
        for table, is_anti in _least_tables(n):
            iso.append(_flat(table))
            if is_anti:
                anti.append(_flat(table))
        reps = _REPRESENTATIVES[n] = {"iso": tuple(iso), "iso+anti": tuple(anti)}
    return reps


def enumerate_semigroups(n, dedup="iso+anti", budget=None):
    """Stream all associative tables of order n in deterministic order.

    dedup: 'none' streams raw tables; 'iso' one representative per
    isomorphism class; 'iso+anti' folds in anti-isomorphism as well.
    Representatives are the lexicographically least table of their class.
    An unbudgeted call reads both lists of representatives, kept per order,
    from a search that cuts every partial table some relabelling makes
    smaller (lex-leader symmetry breaking: Crawford et al., KR 1996;
    Distler et al., CP 2012).  A budgeted call walks the unpruned search and
    keeps each complete table that no relabelling (and, with 'iso+anti', no
    relabelled transpose) makes smaller, so ``budget`` counts the same steps
    for every dedup and stops at the same table every time.
    """
    if (type(n) is not int or n < 1
            or not (budget is None or type(budget) is int)):
        raise ValueError(f"order and budget must be integers, the order "
                         f"at least 1, got {n!r} and {budget!r}")
    if n > MAX_ENUM_ORDER:
        raise BudgetExceeded(f"enumeration capped at order {MAX_ENUM_ORDER}")
    if dedup not in ("none", "iso", "iso+anti"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if dedup == "none":
        yield from _associative_tables(n, budget)
    elif budget is None:
        for key in _representatives(n)[dedup]:
            yield _unflat(key, n)
    else:
        last = n * n - 1
        cut = _leader_cuts(n, transpose=False)[last]
        if dedup == "iso+anti":
            cut += _leader_cuts(n, transpose=True)[last]
        for table in _associative_tables(n, budget):
            if not _smaller(table, cut):
                yield table


def enumeration_counts(max_order=MAX_ENUM_ORDER):
    return {
        n: sum(1 for _ in enumerate_semigroups(n))
        for n in range(1, max_order + 1)
    }


def _involutions(n):
    """All self-inverse permutations of 0..n-1, in lexicographic order."""
    identity = tuple(range(n))
    for p in itertools.permutations(identity):
        if tuple(map(p.__getitem__, p)) == identity:
            yield p


def enumerate_star_structures(table):
    """All involutions making an associative table a *-semigroup; ValueError
    unless ``table`` is a square table of integers in 0..n-1, and
    InvalidStarSemigroup from the validation when it is not associative."""
    n = _square(table)
    if not n:
        raise ValueError(f"table must be a square table of integers in "
                         f"0..n-1, n at least 1, got {table!r}")
    for star in _involutions(n):
        if all(table[table[x][star[x]]][x] == x for x in range(n)):
            yield validate_star_semigroup(n, table, star)


def _square(table, kinds=(tuple, list)):
    """The order n of ``table`` if it is a square table of integers in
    0..n-1, n at least 1, its rows and itself of the types ``kinds``; else
    0."""
    n = len(table) if isinstance(table, kinds) else 0
    return n if n and all(_row(row, n, n, kinds) for row in table) else 0


def _row(values, length, stop, kinds=(tuple, list)):
    """Whether ``values`` is a row of ``length`` integers in 0..stop-1."""
    return (isinstance(values, kinds) and len(values) == length
            and all(type(v) is int and 0 <= v < stop for v in values))


# ---------------------------------------------------------------------------
# standard families


def symmetric_inverse_maps(n):
    """All partial injective maps on n points as value tuples (-1 = undefined),
    sorted; the raw data behind symmetric_inverse(n)."""
    maps = []
    points = range(n)
    for size in range(n + 1):
        for domain in itertools.combinations(points, size):
            for image in itertools.permutations(points, size):
                t = [-1] * n
                for a, b in zip(domain, image):
                    t[a] = b
                maps.append(tuple(t))
    return sorted(maps)


def _compose_partial(x, y):
    # apply y first, then x
    return tuple(x[v] if v != -1 else -1 for v in y)


def _invert_partial(x):
    out = [-1] * len(x)
    for a, b in enumerate(x):
        if b != -1:
            out[b] = a
    return tuple(out)


# the largest order standard_family builds, as each family fills an order x
# order table and sweeps it in order^3 steps; symmetric_inverse stops sooner,
# at n = 3 (order 34)
FAMILY_ORDER_CAP = 256


def standard_family(name, n) -> FiniteStarSemigroup:
    """Named standard *-semigroups with their canonical involution; n an
    int of at least 1 and the order at most FAMILY_ORDER_CAP, else
    UnknownFamily, refused before any table is built."""
    if type(n) is not int or n < 1:
        raise UnknownFamily(f"family size must be an integer >= 1, got {n!r}")
    if name == "symmetric_inverse":
        if not 1 <= n <= 3:
            raise UnknownFamily("symmetric_inverse supported for n <= 3")
        maps = symmetric_inverse_maps(n)
        index = {m: i for i, m in enumerate(maps)}
        order = len(maps)
        mul = [[index[_compose_partial(a, b)] for b in maps] for a in maps]
        star = [index[_invert_partial(a)] for a in maps]
        return validate_star_semigroup(order, mul, star, name=f"I{n}")
    order = n * n + 1 if name == "brandt" else n
    if order > FAMILY_ORDER_CAP:
        raise UnknownFamily(f"family order {order} is above the cap "
                            f"{FAMILY_ORDER_CAP}")
    if name == "semilattice_chain":
        mul = [[min(i, j) for j in range(n)] for i in range(n)]
        return validate_star_semigroup(n, mul, range(n), name=f"SL{n}")
    if name == "cyclic_group":
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        star = [(-i) % n for i in range(n)]
        return validate_star_semigroup(n, mul, star, name=f"C{n}")
    if name == "left_zero":
        mul = [[i for _ in range(n)] for i in range(n)]
        return validate_star_semigroup(n, mul, range(n), name=f"LZ{n}")
    if name == "right_zero":
        mul = [[j for j in range(n)] for _ in range(n)]
        return validate_star_semigroup(n, mul, range(n), name=f"RZ{n}")
    if name == "brandt":
        # n x n matrix units over the trivial group, plus a zero
        def enc(i, j):
            return 1 + i * n + j
        mul = [[0] * order for _ in range(order)]
        for i, j, l in itertools.product(range(n), repeat=3):
            mul[enc(i, j)][enc(j, l)] = enc(i, l)
        star = [0] + [enc(j, i) for i in range(n) for j in range(n)]
        return validate_star_semigroup(order, mul, star, name=f"B{n}")
    raise UnknownFamily(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# naive helpers on raw tables


def _nd(mul, star, x):
    return mul[star[x]][x]


def _nc(mul, star, x):
    return mul[x][star[x]]


def _nleq(mul, e, f):
    return mul[e][f] == e and mul[f][e] == e


def _nproj(mul, star, x):
    return mul[x][x] == x and star[x] == x


def _nprojections(mul, star):
    return [p for p in range(len(mul)) if _nproj(mul, star, p)]


# The defining identities at one pair (x, y).  A table-level predicate is
# its identity at every pair; a clause below binds the pair itself.


def _inv_at(m, s, x, y):  # (xy)* = y*x*
    return s[m[x][y]] == m[s[y]][s[x]]


def _left_at(m, s, x, y):  # (xy)* = (d(x)y)* x*
    return s[m[x][y]] == m[s[m[_nd(m, s, x)][y]]][s[x]]


def _right_at(m, s, x, y):  # (xy)* = y* (x c(y))*
    return s[m[x][y]] == m[s[y]][s[m[x][_nc(m, s, y)]]]


def _local_at(m, s, x, y):
    # the pairs a locally involutive semigroup reverses: d(x) = c(y), or x
    # a projection below c(y), or y a projection below d(x)
    dx, cy = _nd(m, s, x), _nc(m, s, y)
    return (dx == cy or (_nproj(m, s, x) and _nleq(m, x, cy))
            or (_nproj(m, s, y) and _nleq(m, y, dx)))


def _restrict_at(m, s, x, y):  # d(xy) <= d(y)
    return _nleq(m, _nd(m, s, m[x][y]), _nd(m, s, y))


def _corestrict_at(m, s, x, y):  # c(xy) <= c(x)
    return _nleq(m, _nc(m, s, m[x][y]), _nc(m, s, x))


def _everywhere(identity, where=None):
    """The table-level predicate: ``identity`` holds at every pair (x, y)
    that ``where`` (default: every pair) admits."""
    def predicate(mul, star):
        n = len(mul)
        return all(identity(mul, star, x, y)
                   for x in range(n) for y in range(n)
                   if where is None or where(mul, star, x, y))
    return predicate


_n_involutive = _everywhere(_inv_at)
_n_left_involutive = _everywhere(_left_at)
_n_right_involutive = _everywhere(_right_at)
_n_locally_involutive = _everywhere(_inv_at, _local_at)
_n_restrictive = _everywhere(_restrict_at)
_n_corestrictive = _everywhere(_corestrict_at)


def _n_quasi_involutive(mul, star):  # birestrictive, locally involutive
    return (_n_restrictive(mul, star) and _n_corestrictive(mul, star)
            and _n_locally_involutive(mul, star))


def _n_inverse(mul, star=None):
    # every x has exactly one y with xyx = x and yxy = y; a clause passes
    # the star too, which plays no part
    n = len(mul)
    return all(sum(mul[mul[x][y]][x] == x and mul[mul[y][x]][y] == y
                   for y in range(n)) == 1 for x in range(n))


def _n_leq_left(mul, star, x, y):
    dx = _nd(mul, star, x)
    return _nleq(mul, dx, _nd(mul, star, y)) and x == mul[y][dx]


def _n_leq_right(mul, star, x, y):
    cx = _nc(mul, star, x)
    return _nleq(mul, cx, _nc(mul, star, y)) and x == mul[cx][y]


def _n_is_star_morphism(mx, sx, ms, ss, f):
    return all(f[sx[x]] == ss[f[x]] for x in range(len(mx)))


def _n_is_left_hom(mx, sx, ms, ss, f):
    n = len(mx)
    if not _n_is_star_morphism(mx, sx, ms, ss, f):
        return False
    return all(
        f[mx[x][y]] == ms[f[x]][f[mx[_nd(mx, sx, x)][y]]]
        for x in range(n) for y in range(n)
    )


def _n_is_mult(mx, ms, f):
    n = len(mx)
    return all(f[mx[x][y]] == ms[f[x]][f[y]]
               for x in range(n) for y in range(n))


def _n_is_etale(mx, sx, ms, ss, f):
    n, m = len(mx), len(ms)
    for x in range(n):
        cx = _nc(mx, sx, x)
        coset = [z for z in range(n) if mx[cx][z] == z]
        cf = _nc(ms, ss, f[x])
        target = {w for w in range(m) if ms[cf][w] == w}
        images = [f[z] for z in coset]
        if len(set(images)) != len(images) or set(images) != target:
            return False
    return True


def _n_in_se(mul, star, e, u):  # u = (r, s) with d(s) = c(r) and es = s
    r, s = u
    return mul[star[s]][s] == mul[r][star[r]] and mul[e][s] == s


def _n_se_carrier(mul, star, e):
    n = len(mul)
    return [(r, s) for r in range(n) for s in range(n)
            if _n_in_se(mul, star, e, (r, s))]


def _n_se_mul(mul, star, a, b):
    p, q = a
    r, s = b
    pr = mul[p][r]
    return (pr, mul[q][mul[pr][star[pr]]])


def _n_se_star(mul, star, a):
    r, s = a
    return (star[r], mul[s][r])


def _n_left_compatible(mul, star, s, t):
    return mul[s][mul[star[t]][t]] == mul[t][mul[star[s]][s]]


def _fact(facts, predicate, *tables):
    """``predicate(*tables)``, read from ``facts`` when it holds the verdict.

    ``facts`` is a dict its caller keeps for one run (``None`` computes
    every time), keyed by the predicate and the raw tables themselves, so
    equal tables held in distinct objects share one entry.  Only verdicts
    are stored: a predicate that raises leaves no entry.  The tables must
    be hashable (tuples); a table built from lists is passed to its
    predicate directly."""
    if facts is None:
        return predicate(*tables)
    key = (predicate, tables)
    verdict = facts.get(key)
    if verdict is None:
        verdict = facts[key] = predicate(*tables)
    return verdict


# ---------------------------------------------------------------------------
# naive statement checks


# The clause table (module docstring).  Each letter of ``over`` binds one
# variable, in the order of the lambda's parameters after the instance's
# tables: E an element and P a projection of the first semigroup, T an
# element of the second, A an element of S(e); a clause with no variables is
# evaluated once.  x <=l y and x <=r y are the left and right orders.


def _on(predicate, *slots):
    """The verdict ``(predicate, tables)``: ``predicate`` of the tables at
    ``slots`` of an instance, which ``tables`` picks."""
    pick = itemgetter(*slots)
    return predicate, pick if len(slots) > 1 else lambda i: (pick(i),)


def _holds(verdicts, instance, facts):
    """Whether every verdict of ``verdicts`` holds, read through ``_fact``."""
    for predicate, tables in verdicts:
        if not _fact(facts, predicate, *tables(instance)):
            return False
    return True


class Clause(NamedTuple):
    name: str
    over: str
    guard: tuple | None  # verdicts (_on) that must all hold
    hypothesis: Callable | tuple | None  # of (*tables, *binding), or verdicts
    conclusion: Callable | tuple


_INV, _LEFT, _RIGHT, _LOCAL, _INVERSE, _QUASI = (
    (_on(predicate, 0, 1),) for predicate in (
        _n_involutive, _n_left_involutive, _n_right_involutive,
        _n_locally_involutive, _n_inverse, _n_quasi_involutive))

CLAUSES = {
    "lem:reduct": (
        Clause("involutive => left involutive", "EE", _INV, None, _left_at),
        Clause("involutive => right involutive", "EE", _INV, None, _right_at),
        Clause("left involutive => locally involutive", "EE", _LEFT,
               _local_at, _inv_at),
        Clause("right involutive => locally involutive", "EE", _RIGHT,
               _local_at, _inv_at),
    ),
    "lem:birestrictive": (
        Clause("left involutive => corestrictive", "EE", _LEFT, None,
               _corestrict_at),
        Clause("right involutive => restrictive", "EE", _RIGHT, None,
               _restrict_at),
        Clause("involutive => restrictive", "EE", _INV, None, _restrict_at),
        Clause("involutive => corestrictive", "EE", _INV, None,
               _corestrict_at),
        Clause("left involutive, pq a projection => pq.p = pq", "PP",
               _LEFT, lambda m, s, p, q: _nproj(m, s, m[p][q]),
               lambda m, s, p, q: m[m[p][q]][p] == m[p][q]),
        Clause("right involutive, pq a projection => pq.p = qp", "PP",
               _RIGHT, lambda m, s, p, q: _nproj(m, s, m[p][q]),
               lambda m, s, p, q: m[m[p][q]][p] == m[q][p]),
        Clause("involutive, pq a projection => pq = qp", "PP",
               _INV, lambda m, s, p, q: _nproj(m, s, m[p][q]),
               lambda m, s, p, q: m[p][q] == m[q][p]),
    ),
    "lem:left/right": (
        Clause("c(y) <= p iff py = y and y*p = y*", "EP", None, None,
               lambda m, s, y, p: _nleq(m, _nc(m, s, y), p)
               == (m[p][y] == y and m[s[y]][p] == s[y])),
        Clause("d(x) <= q iff xq = x and qx* = x*", "EP", None, None,
               lambda m, s, x, q: _nleq(m, _nd(m, s, x), q)
               == (m[x][q] == x and m[q][s[x]] == s[x])),
        Clause("c(y) <= d(x) iff d(x)y = y and y*d(x) = y*", "EE", None, None,
               lambda m, s, x, y: _nleq(m, _nc(m, s, y), _nd(m, s, x))
               == (m[_nd(m, s, x)][y] == y and m[s[y]][_nd(m, s, x)] == s[y])),
        Clause("d(x) <= c(y) iff xc(y) = x and c(y)x* = x*", "EE", None, None,
               lambda m, s, x, y: _nleq(m, _nd(m, s, x), _nc(m, s, y))
               == (m[x][_nc(m, s, y)] == x and m[_nc(m, s, y)][s[x]] == s[x])),
        Clause("left involutive, py = y => y*p = y*", "PE", _LEFT,
               lambda m, s, p, y: m[p][y] == y,
               lambda m, s, p, y: m[s[y]][p] == s[y]),
        Clause("right involutive, xq = x => qx* = x*", "PE", _RIGHT,
               lambda m, s, q, x: m[x][q] == x,
               lambda m, s, q, x: m[q][s[x]] == s[x]),
    ),
    "cor:3cond": (
        Clause("left involutive => (c(y) <= d(x) iff d(x)y = y)", "EE",
               _LEFT, None,
               lambda m, s, x, y: _nleq(m, _nc(m, s, y), _nd(m, s, x))
               == (m[_nd(m, s, x)][y] == y)),
        Clause("left involutive => (d(x) <= c(y) iff c(y)x* = x*)", "EE",
               _LEFT, None,
               lambda m, s, x, y: _nleq(m, _nd(m, s, x), _nc(m, s, y))
               == (m[_nc(m, s, y)][s[x]] == s[x])),
    ),
    "prop:commproj": (
        Clause("inverse => restrictive", "EE", _INVERSE, None, _restrict_at),
        Clause("inverse => corestrictive", "EE", _INVERSE, None,
               _corestrict_at),
        Clause("inverse => locally involutive", "EE", _INVERSE,
               _local_at, _inv_at),
        Clause("inverse => pq = qp", "PP", _INVERSE, None,
               lambda m, s, p, q: m[p][q] == m[q][p]),
        Clause("quasi-involutive, all pq = qp => inverse", "",
               _QUASI,
               lambda m, s: all(m[p][q] == m[q][p]
                                for p in _nprojections(m, s)
                                for q in _nprojections(m, s)),
               _n_inverse),
    ),
}
# lem:po-1 .. lem:po-8, one clause each
for _i, _clause in enumerate((
    Clause("x <=l y iff xd(y) = x, y*x = d(x) and yx* = c(x)", "EE", None,
           None, lambda m, s, x, y: _n_leq_left(m, s, x, y)
           == (m[x][_nd(m, s, y)] == x and m[s[y]][x] == _nd(m, s, x)
               and m[y][s[x]] == _nc(m, s, x))),
    Clause("x <=r y iff c(y)x = x, x*y = d(x) and xy* = c(x)", "EE", None,
           None, lambda m, s, x, y: _n_leq_right(m, s, x, y)
           == (m[_nc(m, s, y)][x] == x and m[s[x]][y] == _nd(m, s, x)
               and m[x][s[y]] == _nc(m, s, x))),
    Clause("left involutive => (x <=l y iff y*x = d(x) and yx* = c(x))",
           "EE", _LEFT, None, lambda m, s, x, y: _n_leq_left(m, s, x, y)
           == (m[s[y]][x] == _nd(m, s, x) and m[y][s[x]] == _nc(m, s, x))),
    Clause("right involutive => (x <=r y iff x*y = d(x) and xy* = c(x))",
           "EE", _RIGHT, None, lambda m, s, x, y: _n_leq_right(m, s, x, y)
           == (m[s[x]][y] == _nd(m, s, x) and m[x][s[y]] == _nc(m, s, x))),
    Clause("x <=l y and xy* = c(x) => x <=r y", "EE", None,
           lambda m, s, x, y: _n_leq_left(m, s, x, y)
           and m[x][s[y]] == _nc(m, s, x), _n_leq_right),
    Clause("x <=r y and y*x = d(x) => x <=l y", "EE", None,
           lambda m, s, x, y: _n_leq_right(m, s, x, y)
           and m[s[y]][x] == _nd(m, s, x), _n_leq_left),
    Clause("locally involutive => (x <=l y iff x <=r y)", "EE", _LOCAL,
           None, lambda m, s, x, y: _n_leq_left(m, s, x, y)
           == _n_leq_right(m, s, x, y)),
    Clause("locally involutive => (x <=l y iff x* <=r y*)", "EE", _LOCAL,
           None, lambda m, s, x, y: _n_leq_left(m, s, x, y)
           == _n_leq_right(m, s, s[x], s[y])),
), 1):
    CLAUSES[f"lem:po-{_i}"] = (_clause,)


# The statements over maps, pairs and S(e).  A morphism or etale_idem
# instance holds X's tables, S's and f: X -> S at slots 0-4; a pair or
# triangle X's, Y's and Z's, then X -> Y and Y -> Z at slots 6 and 7.  A
# guard reads its verdicts in the order the paper names them.


def _after(i):  # X's tables, Z's and the map X -> Z of a pair or triangle
    return i[0], i[1], i[4], i[5], tuple(i[7][y] for y in i[6])


_F, _FIRST, _SECOND = (0, 1, 2, 3, 4), (0, 1, 2, 3, 6), (2, 3, 4, 5, 7)
_MULT, _LHOM = (_on(_n_is_mult, 0, 2, 4),), _on(_n_is_left_hom, *_F)
_FDT = (_on(_n_left_involutive, 0, 1), _on(_n_left_involutive, 2, 3), _LHOM)
_ETALE_LEFT = (_LHOM, _on(_n_is_etale, *_F))
_STARHOMO = (_on(_n_is_star_morphism, *_SECOND), _on(_n_is_mult, 2, 4, 7),
             _on(_n_is_etale, *_SECOND), (_n_is_star_morphism, _after),
             (_n_is_mult, lambda i: _after(i)[::2]),
             _on(_n_is_left_hom, *_FIRST))
_INVERSE_BASE = (_on(_n_inverse, 0),)


def _n_fdt_at(mx, sx, ms, ss, f, p, x):  # f(px) = f(p)f(x)
    return f[mx[p][x]] == ms[f[p]][f[x]]


def _n_action(mx, sx, ms, ss, f, x, s):
    cx = _nc(mx, sx, x)
    hits = [z for z in range(len(mx))
            if mx[cx][z] == z and f[z] == ms[f[x]][s]]
    if len(hits) != 1:
        raise OracleError("canonical action undefined: map not etale")
    return hits[0]


def _n_xfy_at(mx, sx, ms, ss, f, x, y):  # x f(y) = xy
    return _n_action(mx, sx, ms, ss, f, x, f[y]) == mx[x][y]


def _n_rsrs(mul, star, r, s):
    """With e = rr*, a = (r, e), b = (rs, c(rs)) and c = (d(r)s, r c(s)):
    whether a, b and c lie in S(e), whether ac = b and whether d(a)c = c."""
    rs, e = mul[r][s], _nc(mul, star, r)
    a, b = (r, e), (rs, _nc(mul, star, rs))
    c = (mul[_nd(mul, star, r)][s], mul[r][_nc(mul, star, s)])
    da = _n_se_mul(mul, star, _n_se_star(mul, star, a), a)
    return (all(_n_in_se(mul, star, e, u) for u in (a, b, c)),
            _n_se_mul(mul, star, a, c) == b, _n_se_mul(mul, star, da, c) == c)


# the most candidate maps S(e) -> X that _n_xirho enumerates
XIRHO_BUDGET = 200000


def _n_xirho(mx, sx, ms, ss, f, e):
    # any two left *-homs S(e) -> X over S agreeing at (e,e) agree
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
    # alpha(d(u)v) for all u, v of S(e); distinct tuples, so two that agree
    # at (e, e) differ somewhere
    du = [_n_se_mul(ms, ss, _n_se_star(ms, ss, u), u) for u in carrier]
    at_ee = [a[pos[(e, e)]] for a in itertools.product(*fibers)
             if all(sx[a[i]] == a[pos[_n_se_star(ms, ss, u)]]
                    for i, u in enumerate(carrier)) and all(
                 a[pos[_n_se_mul(ms, ss, u, v)]]
                 == mx[a[i]][a[pos[_n_se_mul(ms, ss, du[i], v)]]]
                 for i, u in enumerate(carrier) for v in carrier)]
    return len(set(at_ee)) == len(at_ee)


def _n_sym_at(mul, star, e, a, b):
    (p, q), (r, s) = a, b
    lhs = _n_se_star(mul, star, _n_se_mul(mul, star, a, b))
    rhs = _n_se_mul(mul, star, _n_se_star(mul, star, b),
                    _n_se_star(mul, star, a))
    return (lhs == rhs) == _n_left_compatible(mul, star, s, mul[q][p])


def _n_seinv(mul, star, e):
    carrier = _n_se_carrier(mul, star, e)
    pos = {u: i for i, u in enumerate(carrier)}
    semul = [[pos[_n_se_mul(mul, star, u, v)] for v in carrier]
             for u in carrier]
    es = [s for s in range(len(mul)) if mul[e][s] == s]
    compat = all(_n_left_compatible(mul, star, r, s) for r in es for s in es)
    # semul is a list of lists, so it has no key: a direct call
    return _n_inverse(semul) == compat


CLAUSES.update({
    "lem:fdt": (
        Clause("f multiplicative => f(px) = f(p)f(x)", "PE", _FDT, _MULT,
               _n_fdt_at),
        Clause("f(px) = f(p)f(x) for all p, x => f multiplicative", "", _FDT,
               lambda *i: all(_n_fdt_at(*i, p, x) for x in range(len(i[0]))
                              for p in _nprojections(i[0], i[1])), _MULT),
    ),
    "lem:reflect": (
        Clause("f(x) = c(f(x)) => x = c(x)", "E", _ETALE_LEFT,
               lambda mx, sx, ms, ss, f, x: f[x] == _nc(ms, ss, f[x]),
               lambda mx, sx, ms, ss, f, x: x == _nc(mx, sx, x)),
    ),
    "ex:fg": (
        Clause("f and fg etale => g etale", "", (
            _on(_n_is_left_hom, *_FIRST), _on(_n_is_left_hom, *_SECOND),
            _on(_n_is_etale, *_SECOND), (_n_is_etale, _after)), None,
            (_on(_n_is_etale, *_FIRST),)),
    ),
    "prop:starhomo": (
        Clause("psi over an etale *-hom => psi multiplicative", "",
               _STARHOMO, None, (_on(_n_is_mult, 0, 2, 6),)),
        Clause("h psi etale => psi etale", "", _STARHOMO,
               ((_n_is_etale, _after),), (_on(_n_is_etale, *_FIRST),)),
    ),
    "lem:xfy": (
        Clause("x f(d(x)) = x", "E", _ETALE_LEFT, None,
               lambda mx, sx, ms, ss, f, x:
               _n_action(mx, sx, ms, ss, f, x, f[_nd(mx, sx, x)]) == x),
        Clause("x f(d(x)y) = xy", "EE", _ETALE_LEFT, None,
               lambda mx, sx, ms, ss, f, x, y: mx[x][y] == _n_action(
                   mx, sx, ms, ss, f, x, f[mx[_nd(mx, sx, x)][y]])),
        Clause("f multiplicative => x f(y) = xy", "EE", _ETALE_LEFT, _MULT,
               _n_xfy_at),
        Clause("x f(y) = xy for all x, y => f multiplicative", "",
               _ETALE_LEFT, lambda *i: all(_n_xfy_at(*i, x, y) for x in
                                           range(len(i[0])) for y in
                                           range(len(i[0]))), _MULT),
        Clause("f multiplicative => (xy)s = x(ys)", "EET", _ETALE_LEFT, _MULT,
               lambda mx, sx, ms, ss, f, x, y, s:
               _n_action(mx, sx, ms, ss, f, mx[x][y], s)
               == mx[x][_n_action(mx, sx, ms, ss, f, y, s)]),
    ),
    "lem:rsrs": (
        Clause("(r, rr*), (rs, c(rs)) and (d(r)s, rc(s)) lie in S(rr*)",
               "EE", _INVERSE_BASE, None, lambda *i: _n_rsrs(*i)[0]),
        Clause("(r, rr*)(d(r)s, rc(s)) = (rs, c(rs))", "EE", _INVERSE_BASE,
               None, lambda *i: _n_rsrs(*i)[1]),
        Clause("d(r, rr*)(d(r)s, rc(s)) = (d(r)s, rc(s))", "EE",
               _INVERSE_BASE, None, lambda *i: _n_rsrs(*i)[2]),
    ),
    "lem:xirho": (
        Clause("left *-homs S(e) -> X over S agreeing at (e, e) agree", "",
               (_on(_n_inverse, 2), _on(_n_is_star_morphism, *_F), *_MULT,
                _on(_n_is_etale, *_F)), None, _n_xirho),
    ),
    "prop:sym": (
        Clause("((p, q)(r, s))* = (r, s)*(p, q)* iff s and qp are left "
               "compatible", "AA", _INVERSE_BASE, None, _n_sym_at),
    ),
    "rem:Seinv": (
        Clause("S(e) inverse iff eS pairwise left compatible", "",
               _INVERSE_BASE, None, _n_seinv),
    ),
})

# the range of each variable letter, of the instance's tables
_RANGES = {"E": lambda mul, *_: range(len(mul)),
           "P": lambda mul, star, *_: _nprojections(mul, star),
           "T": lambda mx, sx, ms, *_: range(len(ms)),
           "A": _n_se_carrier}


def evaluate_clauses(statement_id, instance, facts=None):
    """The clauses of ``statement_id`` on the raw ``instance``, in table
    order, each whose guard holds over its bindings in lexicographic
    order: True when all hold, else ``(clause name, first falsifying
    binding)``.  ``facts``, the instance shapes and the errors are as in
    ``naive_check``; ``facts`` keeps only the verdicts (``_on``), never a
    clause's."""
    spec = REGISTRY.get(statement_id) if type(statement_id) is str else None
    if spec is None:
        raise UnknownStatement(statement_id)
    if facts is not None and type(facts) is not dict:
        raise ValueError(f"facts must be a dict or None, got {facts!r}")
    if not _instance_ok(spec.kind, instance,
                        (tuple, list) if facts is None else tuple):
        raise ValueError(f"instance must be the tables of a {spec.kind} "
                         f"instance, got {instance!r}")
    return _evaluate(statement_id, instance, facts)


def _evaluate(statement_id, instance, facts):
    """``evaluate_clauses`` without its checks, for the tables of validated
    objects.  A run of clauses under one guard reads it once, and a clause
    builds its ranges only when its guard holds.  Verdicts for a hypothesis
    or conclusion are read before any binding: the clause holds when they
    fail or hold."""
    last, held = object(), False  # no guard yet
    for name, over, guard, hypothesis, conclusion in CLAUSES[statement_id]:
        if guard is not last:
            last, held = guard, guard is None or _holds(guard, instance, facts)
        if not held or type(hypothesis) is tuple and not _holds(
                hypothesis, instance, facts):
            continue
        if type(conclusion) is tuple:
            if _holds(conclusion, instance, facts):
                continue
            conclusion = _fails
        for binding in itertools.product(*(_RANGES[v](*instance)
                                           for v in over)):
            if ((type(hypothesis) is tuple or hypothesis is None
                 or hypothesis(*instance, *binding))
                    and not conclusion(*instance, *binding)):
                return name, binding
    return True


def _fails(*binding):  # the conclusion of a clause whose verdicts failed
    return False


@dataclass(frozen=True)
class StatementSpec:
    kind: str  # semigroup | morphism | pair | triangle | inverse | inverse_idem | etale_idem
    summary: str


REGISTRY = {
    "lem:reduct": StatementSpec(
        "semigroup",
        "involutive implies left+right involutive; left/right implies locally"),
    "lem:birestrictive": StatementSpec(
        "semigroup",
        "left involutive implies corestrictive (and duals); pqp identities"),
    "lem:left/right": StatementSpec(
        "semigroup", "the four projection-bound identity equivalences"),
    "cor:3cond": StatementSpec(
        "semigroup",
        "c(y) <= d(x) iff d(x)y = y in left involutive semigroups"),
    "lem:fdt": StatementSpec(
        "morphism", "multiplicative iff multiplicative on projection products"),
    "lem:reflect": StatementSpec(
        "morphism", "etale left *-homs reflect right projections"),
    "ex:fg": StatementSpec("pair", "f and fg etale imply g etale"),
    "prop:starhomo": StatementSpec(
        "triangle", "left *-hom over an etale *-hom is multiplicative"),
    "lem:xfy": StatementSpec(
        "morphism", "x f(d(x)y) = xy for the canonical action"),
    "prop:commproj": StatementSpec(
        "semigroup", "inverse iff quasi-involutive with commuting projections"),
    "lem:rsrs": StatementSpec(
        "inverse", "factorization identities inside S(rr*)"),
    "lem:xirho": StatementSpec(
        "etale_idem", "left *-homs out of S(e) agreeing at (e,e) agree"),
    "prop:sym": StatementSpec(
        "inverse_idem",
        "star reversal in S(e) iff left compatibility of s and qp"),
    "rem:Seinv": StatementSpec(
        "inverse_idem", "S(e) inverse iff eS pairwise left compatible"),
}
for _i in range(1, 9):
    REGISTRY[f"lem:po-{_i}"] = StatementSpec(
        "semigroup", f"partial order characterization ({_i})")


def statement_ids():
    return sorted(REGISTRY)


# per instance kind (naive_check): how many semigroups it holds, each as
# (mul, star), followed by the maps that chain them, first to second and so
# on, and whether an element of the last one ends it
_LAYOUTS = {"semigroup": (1, False), "inverse": (1, False),
            "morphism": (2, False), "pair": (3, False), "triangle": (3, False),
            "inverse_idem": (1, True), "etale_idem": (2, True)}


def _instance_ok(kind, inst, kinds):
    """Whether ``inst`` holds raw tables in the layout of ``kind``, every
    table, row and instance of the types ``kinds``."""
    count, last = _LAYOUTS[kind]
    if not (isinstance(inst, kinds) and len(inst) == 3 * count - 1 + last):
        return False
    n = [_square(inst[2 * i], kinds) for i in range(count)]
    rows = [*zip(inst[1:2 * count:2], n, n), *zip(inst[2 * count:], n, n[1:])]
    return all(n) and all(_row(*row, kinds) for row in rows) and (
        not last or _row(inst[-1:], 1, n[-1], kinds))


def naive_check(statement_id, instance, facts=None) -> bool:
    """Whether a registered statement holds on a raw instance: its clauses
    (``CLAUSES``) all hold, ``evaluate_clauses`` returning True.

    ``facts``: a dict the caller keeps for one run, in which the guards
    keep the verdict of each table-level predicate (``_n_left_involutive``,
    ``_n_inverse``, ...) and map-level one (``_n_is_left_hom``,
    ``_n_is_etale``, ...) per raw tables (``_fact``), so a run computes
    each once.  Without it every predicate is computed on every call.

    Instance shapes by kind:
      semigroup/inverse: (mul, star)
      morphism:          (mul_x, star_x, mul_s, star_s, map)
      pair:              (mul_x, star_x, mul_y, star_y, mul_z, star_z, g, f)
      triangle:          (mul_x, star_x, mul_y, star_y, mul_s, star_s, psi, h)
      inverse_idem:      (mul, star, e)
      etale_idem:        (mul_x, star_x, mul_s, star_s, map, e)
    Statements whose hypotheses fail on the instance hold vacuously.
    ValueError unless ``instance`` holds tables of integers in range in that
    shape, as tuples when ``facts`` is given, whose keys they become, and
    ``facts`` is a dict or None.
    """
    return evaluate_clauses(statement_id, instance, facts) is True


# ---------------------------------------------------------------------------
# counterexample searches for the open questions


def search_nonmult_etale_left_homs(sources, targets):
    """Etale left *-homomorphisms that are not *-homomorphisms.

    sources/targets: iterables of (mul, star) raw tables.  Returns a list of
    (source_tables, target_tables, map) triples, deterministic order.
    """
    found = []
    targets = list(targets)
    for mx, sx in sources:
        n = len(mx)
        for ms, ss in targets:
            m = len(ms)
            if m ** n > 100000:
                continue
            for f in itertools.product(range(m), repeat=n):
                if not _n_is_star_morphism(mx, sx, ms, ss, f):
                    continue
                if not _n_is_left_hom(mx, sx, ms, ss, f):
                    continue
                if not _n_is_etale(mx, sx, ms, ss, f):
                    continue
                if not _n_is_mult(mx, ms, f):
                    found.append(((mx, sx), (ms, ss), f))
    return found


def search_bijective_left_hom_without_inverse(pool):
    """Bijective left *-homomorphisms whose inverse map is not a left
    *-homomorphism; settles the open question about left *-isomorphisms."""
    found = []
    pool = list(pool)
    for mx, sx in pool:
        n = len(mx)
        for ms, ss in pool:
            if len(ms) != n:
                continue
            for f in itertools.permutations(range(n)):
                if not _n_is_left_hom(mx, sx, ms, ss, f):
                    continue
                g = [0] * n
                for i, v in enumerate(f):
                    g[v] = i
                if not _n_is_left_hom(ms, ss, mx, sx, tuple(g)):
                    found.append(((mx, sx), (ms, ss), f))
    return found
