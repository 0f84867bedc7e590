"""Independent ground truth: brute-force enumeration of small semigroups,
standard families, and naive re-derivations of every registered statement.

Everything in this module works on raw ``(mul, star)`` tables with its own
little helpers.  It deliberately does not call the predicates in ``core``,
``site`` or ``topos``, so that an agreement test between ``naive_check`` and
the main code path compares two genuinely different implementations.  The
only imports from the rest of the package are the container type and its
validator, used to wrap return values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def _search(n, budget, cuts):
    """Backtracking over the cells in row-major order.  After a consistent
    assignment to cell k, the branch is cut if some ``(p, cells)`` of
    ``cuts[k]`` makes the filled prefix smaller (see ``_smaller``).  A map
    absent from ``cuts[k]`` knows no more cells than at the parent, where
    it was already compared."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[-1] * n for _ in range(n)]
    steps = 0

    def consistent(a, b):
        # check every triple whose four lookups just became complete
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

    def fill(k):
        nonlocal steps
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        cut = cuts[k]
        for v in range(n):
            steps += 1
            if budget is not None and steps > budget:
                raise BudgetExceeded(f"associativity search budget {budget}")
            table[i][j] = v
            if consistent(i, j) and not (cut and _smaller(table, cut)):
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


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
    if not 1 <= n <= MAX_ENUM_ORDER:
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


def enumeration_counts(max_order=MAX_ENUM_ORDER, dedup="iso+anti"):
    return {
        n: sum(1 for _ in enumerate_semigroups(n, dedup))
        for n in range(1, max_order + 1)
    }


def _involutions(n):
    """All self-inverse permutations of 0..n-1, deterministic order."""
    def rec(remaining, acc):
        if not remaining:
            yield dict(acc)
            return
        i = remaining[0]
        yield from rec(remaining[1:], acc + [(i, i)])
        for j in remaining[1:]:
            rest = [k for k in remaining[1:] if k != j]
            yield from rec(rest, acc + [(i, j), (j, i)])

    for mapping in rec(list(range(n)), []):
        yield tuple(mapping[i] for i in range(n))


def enumerate_star_structures(table):
    """All involutions making an associative table a *-semigroup."""
    n = len(table)
    for star in _involutions(n):
        if all(table[table[x][star[x]]][x] == x for x in range(n)):
            yield validate_star_semigroup(n, table, star)


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


def standard_family(name, n) -> FiniteStarSemigroup:
    """Named standard *-semigroups with their canonical involution."""
    if name == "symmetric_inverse":
        if not 1 <= n <= 3:
            raise UnknownFamily("symmetric_inverse supported for n <= 3")
        maps = symmetric_inverse_maps(n)
        index = {m: i for i, m in enumerate(maps)}
        order = len(maps)
        mul = [[index[_compose_partial(a, b)] for b in maps] for a in maps]
        star = [index[_invert_partial(a)] for a in maps]
        return validate_star_semigroup(order, mul, star, name=f"I{n}")
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
        order = n * n + 1
        def enc(i, j):
            return 1 + i * n + j
        mul = [[0] * order for _ in range(order)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if j == k:
                            mul[enc(i, j)][enc(k, l)] = enc(i, l)
        star = [0] + [0] * (n * n)
        for i in range(n):
            for j in range(n):
                star[enc(i, j)] = enc(j, i)
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


def _nprojections(mul, star):
    return [p for p in range(len(mul)) if mul[p][p] == p and star[p] == p]


def _n_involutive(mul, star):
    n = len(mul)
    return all(star[mul[x][y]] == mul[star[y]][star[x]]
               for x in range(n) for y in range(n))


def _n_left_involutive(mul, star):
    n = len(mul)
    return all(
        star[mul[x][y]] == mul[star[mul[_nd(mul, star, x)][y]]][star[x]]
        for x in range(n) for y in range(n)
    )


def _n_right_involutive(mul, star):
    n = len(mul)
    return all(
        star[mul[x][y]] == mul[star[y]][star[mul[x][_nc(mul, star, y)]]]
        for x in range(n) for y in range(n)
    )


def _n_locally_involutive(mul, star):
    n = len(mul)
    projs = set(_nprojections(mul, star))
    for x in range(n):
        for y in range(n):
            if (
                _nd(mul, star, x) == _nc(mul, star, y)
                or (x in projs and _nleq(mul, x, _nc(mul, star, y)))
                or (y in projs and _nleq(mul, y, _nd(mul, star, x)))
            ):
                if star[mul[x][y]] != mul[star[y]][star[x]]:
                    return False
    return True


def _n_restrictive(mul, star):
    n = len(mul)
    return all(_nleq(mul, _nd(mul, star, mul[x][y]), _nd(mul, star, y))
               for x in range(n) for y in range(n))


def _n_corestrictive(mul, star):
    n = len(mul)
    return all(_nleq(mul, _nc(mul, star, mul[x][y]), _nc(mul, star, x))
               for x in range(n) for y in range(n))


def _n_quasi(mul, star):
    return (_n_restrictive(mul, star) and _n_corestrictive(mul, star)
            and _n_locally_involutive(mul, star))


def _n_inverse(mul):
    n = len(mul)
    for x in range(n):
        count = 0
        for y in range(n):
            if mul[mul[x][y]][x] == x and mul[mul[y][x]][y] == y:
                count += 1
        if count != 1:
            return False
    return True


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


def _n_se_carrier(mul, star, e):
    n = len(mul)
    return [
        (r, s)
        for r in range(n)
        for s in range(n)
        if mul[star[s]][s] == mul[r][star[r]] and mul[e][s] == s
    ]


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


# ---------------------------------------------------------------------------
# naive statement checks


def _st_reduct(inst):
    mul, star = inst
    inv = _n_involutive(mul, star)
    left = _n_left_involutive(mul, star)
    right = _n_right_involutive(mul, star)
    loc = _n_locally_involutive(mul, star)
    if inv and not (left and right):
        return False
    if (left or right) and not loc:
        return False
    return True


def _st_birestrictive(inst):
    mul, star = inst
    left = _n_left_involutive(mul, star)
    right = _n_right_involutive(mul, star)
    inv = _n_involutive(mul, star)
    if left and not _n_corestrictive(mul, star):
        return False
    if right and not _n_restrictive(mul, star):
        return False
    if inv and not (_n_restrictive(mul, star) and _n_corestrictive(mul, star)):
        return False
    projs = _nprojections(mul, star)
    for p in projs:
        for q in projs:
            pq = mul[p][q]
            if not (mul[pq][pq] == pq and star[pq] == pq):
                continue
            if left and mul[pq][p] != pq:
                return False
            if right and mul[pq][p] != mul[q][p]:
                return False
            if inv and pq != mul[q][p]:
                return False
    return True


def _st_leftright(inst):
    mul, star = inst
    n = len(mul)
    projs = _nprojections(mul, star)
    for y in range(n):
        cy = _nc(mul, star, y)
        for p in projs:
            lhs = _nleq(mul, cy, p)
            rhs = mul[p][y] == y and mul[star[y]][p] == star[y]
            if lhs != rhs:
                return False
    for x in range(n):
        dx = _nd(mul, star, x)
        for q in projs:
            lhs = _nleq(mul, dx, q)
            rhs = mul[x][q] == x and mul[q][star[x]] == star[x]
            if lhs != rhs:
                return False
    for x in range(n):
        dx = _nd(mul, star, x)
        for y in range(n):
            cy = _nc(mul, star, y)
            lhs = _nleq(mul, cy, dx)
            rhs = mul[dx][y] == y and mul[star[y]][dx] == star[y]
            if lhs != rhs:
                return False
            lhs2 = _nleq(mul, dx, cy)
            rhs2 = mul[x][cy] == x and mul[cy][star[x]] == star[x]
            if lhs2 != rhs2:
                return False
    if _n_left_involutive(mul, star):
        for p in projs:
            for y in range(n):
                if mul[p][y] == y and mul[star[y]][p] != star[y]:
                    return False
    if _n_right_involutive(mul, star):
        for q in projs:
            for x in range(n):
                if mul[x][q] == x and mul[q][star[x]] != star[x]:
                    return False
    return True


def _st_3cond(inst):
    mul, star = inst
    if not _n_left_involutive(mul, star):
        return True
    n = len(mul)
    for x in range(n):
        dx = _nd(mul, star, x)
        for y in range(n):
            cy = _nc(mul, star, y)
            if _nleq(mul, cy, dx) != (mul[dx][y] == y):
                return False
            if _nleq(mul, dx, cy) != (mul[cy][star[x]] == star[x]):
                return False
    return True


def _st_po(item):
    def check(inst):
        mul, star = inst
        n = len(mul)
        for x in range(n):
            dx, cx = _nd(mul, star, x), _nc(mul, star, x)
            for y in range(n):
                ll = _n_leq_left(mul, star, x, y)
                rr = _n_leq_right(mul, star, x, y)
                a1 = (mul[x][_nd(mul, star, y)] == x
                      and mul[star[y]][x] == dx and mul[y][star[x]] == cx)
                a2 = (mul[_nc(mul, star, y)][x] == x
                      and mul[star[x]][y] == dx and mul[x][star[y]] == cx)
                if item == 1 and ll != a1:
                    return False
                if item == 2 and rr != a2:
                    return False
                if item == 3 and _n_left_involutive(mul, star):
                    if ll != (mul[star[y]][x] == dx and mul[y][star[x]] == cx):
                        return False
                if item == 4 and _n_right_involutive(mul, star):
                    if rr != (mul[star[x]][y] == dx and mul[x][star[y]] == cx):
                        return False
                if item == 5 and ll and mul[x][star[y]] == cx and not rr:
                    return False
                if item == 6 and rr and mul[star[y]][x] == dx and not ll:
                    return False
                if item == 7 and _n_locally_involutive(mul, star) and ll != rr:
                    return False
                if item == 8 and _n_locally_involutive(mul, star):
                    if ll != _n_leq_right(mul, star, star[x], star[y]):
                        return False
        return True
    return check


def _st_fdt(inst):
    mx, sx, ms, ss, f = inst
    if not (_n_left_involutive(mx, sx) and _n_left_involutive(ms, ss)
            and _n_is_left_hom(mx, sx, ms, ss, f)):
        return True
    proj_mult = all(
        f[mx[p][x]] == ms[f[p]][f[x]]
        for p in _nprojections(mx, sx) for x in range(len(mx))
    )
    return _n_is_mult(mx, ms, f) == proj_mult


def _st_reflect(inst):
    mx, sx, ms, ss, f = inst
    if not (_n_is_left_hom(mx, sx, ms, ss, f)
            and _n_is_etale(mx, sx, ms, ss, f)):
        return True
    for x in range(len(mx)):
        if f[x] == _nc(ms, ss, f[x]) and x != _nc(mx, sx, x):
            return False
    return True


def _st_fg(inst):
    # g: X -> Y, f: Y -> Z; if f and f.g are etale then so is g
    mx, sx, my, sy, mz, sz, g, f = inst
    fg = tuple(f[g[x]] for x in range(len(mx)))
    if not (_n_is_left_hom(mx, sx, my, sy, g)
            and _n_is_left_hom(my, sy, mz, sz, f)):
        return True
    if not (_n_is_etale(my, sy, mz, sz, f)
            and _n_is_etale(mx, sx, mz, sz, fg)):
        return True
    return _n_is_etale(mx, sx, my, sy, g)


def _st_starhomo(inst):
    # psi: X -> Y, h: Y -> S with h etale *-hom; f = h.psi a *-hom
    mx, sx, my, sy, ms, ss, psi, h = inst
    f = tuple(h[psi[x]] for x in range(len(mx)))
    if not (_n_is_star_morphism(my, sy, ms, ss, h) and _n_is_mult(my, ms, h)
            and _n_is_etale(my, sy, ms, ss, h)):
        return True
    if not (_n_is_star_morphism(mx, sx, ms, ss, f) and _n_is_mult(mx, ms, f)):
        return True
    if not _n_is_left_hom(mx, sx, my, sy, psi):
        return True
    if not _n_is_mult(mx, my, psi):
        return False
    if _n_is_etale(mx, sx, ms, ss, f) and not _n_is_etale(mx, sx, my, sy, psi):
        return False
    return True


def _n_action(mx, sx, ms, ss, f, x, s):
    cx = _nc(mx, sx, x)
    hits = [z for z in range(len(mx))
            if mx[cx][z] == z and f[z] == ms[f[x]][s]]
    if len(hits) != 1:
        raise OracleError("canonical action undefined: map not etale")
    return hits[0]


def _st_xfy(inst):
    mx, sx, ms, ss, f = inst
    if not (_n_is_left_hom(mx, sx, ms, ss, f)
            and _n_is_etale(mx, sx, ms, ss, f)):
        return True
    n = len(mx)
    for x in range(n):
        dx = _nd(mx, sx, x)
        if _n_action(mx, sx, ms, ss, f, x, f[dx]) != x:
            return False
        for y in range(n):
            if _n_action(mx, sx, ms, ss, f, x, f[mx[dx][y]]) != mx[x][y]:
                return False
    mult = _n_is_mult(mx, ms, f)
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


def _st_commproj(inst):
    mul, star = inst
    projs = _nprojections(mul, star)
    commuting = all(mul[p][q] == mul[q][p] for p in projs for q in projs)
    return _n_inverse(mul) == (_n_quasi(mul, star) and commuting)


def _st_rsrs(inst):
    mul, star = inst
    if not _n_inverse(mul):
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


def _st_xirho(inst, budget=200000):
    # f: X -> S etale *-hom into inverse S, idempotent e: any two left
    # *-homs S(e) -> X over S agreeing at (e,e) agree
    mx, sx, ms, ss, f, e = inst
    if not (_n_inverse(ms)
            and _n_is_star_morphism(mx, sx, ms, ss, f)
            and _n_is_mult(mx, ms, f)
            and _n_is_etale(mx, sx, ms, ss, f)):
        return True
    carrier = _n_se_carrier(ms, ss, e)
    pos = {u: i for i, u in enumerate(carrier)}
    fibers = [[x for x in range(len(mx)) if f[x] == r] for (r, s) in carrier]
    total = 1
    for fib in fibers:
        total *= max(len(fib), 1)
        if total > budget:
            raise BudgetExceeded("xirho naive enumeration too large")
        if not fib:
            return True

    alphas = []
    for values in itertools.product(*fibers):
        ok = True
        for i, u in enumerate(carrier):
            if sx[values[i]] != values[pos[_n_se_star(ms, ss, u)]]:
                ok = False
                break
        if ok:
            for i, u in enumerate(carrier):
                du = _n_se_mul(ms, ss, _n_se_star(ms, ss, u), u)
                for j, v in enumerate(carrier):
                    uv = _n_se_mul(ms, ss, u, v)
                    dv = _n_se_mul(ms, ss, du, v)
                    if values[pos[uv]] != mx[values[i]][values[pos[dv]]]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            alphas.append(values)

    ee = pos[(e, e)]
    seen = {}
    for values in alphas:
        key = values[ee]
        if key in seen and seen[key] != values:
            return False
        seen[key] = values
    return True


def _st_sym(inst):
    mul, star, e = inst
    if not _n_inverse(mul):
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


def _st_seinv(inst):
    mul, star, e = inst
    if not _n_inverse(mul):
        return True
    carrier = _n_se_carrier(mul, star, e)
    pos = {u: i for i, u in enumerate(carrier)}
    k = len(carrier)
    semul = [[pos[_n_se_mul(mul, star, carrier[i], carrier[j])]
              for j in range(k)] for i in range(k)]
    es = [s for s in range(len(mul)) if mul[e][s] == s]
    compat = all(_n_left_compatible(mul, star, r, s) for r in es for s in es)
    return _n_inverse(semul) == compat


@dataclass(frozen=True)
class StatementSpec:
    id: str
    kind: str  # semigroup | morphism | pair | triangle | inverse | inverse_idem | etale_idem
    summary: str


REGISTRY = {
    "lem:reduct": StatementSpec(
        "lem:reduct", "semigroup",
        "involutive implies left+right involutive; left/right implies locally"),
    "lem:birestrictive": StatementSpec(
        "lem:birestrictive", "semigroup",
        "left involutive implies corestrictive (and duals); pqp identities"),
    "lem:left/right": StatementSpec(
        "lem:left/right", "semigroup",
        "the four projection-bound identity equivalences"),
    "cor:3cond": StatementSpec(
        "cor:3cond", "semigroup",
        "c(y) <= d(x) iff d(x)y = y in left involutive semigroups"),
    "lem:fdt": StatementSpec(
        "lem:fdt", "morphism",
        "multiplicative iff multiplicative on projection products"),
    "lem:reflect": StatementSpec(
        "lem:reflect", "morphism", "etale left *-homs reflect right projections"),
    "ex:fg": StatementSpec(
        "ex:fg", "pair", "f and fg etale imply g etale"),
    "prop:starhomo": StatementSpec(
        "prop:starhomo", "triangle",
        "left *-hom over an etale *-hom is multiplicative"),
    "lem:xfy": StatementSpec(
        "lem:xfy", "morphism", "x f(d(x)y) = xy for the canonical action"),
    "prop:commproj": StatementSpec(
        "prop:commproj", "semigroup",
        "inverse iff quasi-involutive with commuting projections"),
    "lem:rsrs": StatementSpec(
        "lem:rsrs", "inverse", "factorization identities inside S(rr*)"),
    "lem:xirho": StatementSpec(
        "lem:xirho", "etale_idem",
        "left *-homs out of S(e) agreeing at (e,e) agree"),
    "prop:sym": StatementSpec(
        "prop:sym", "inverse_idem",
        "star reversal in S(e) iff left compatibility of s and qp"),
    "rem:Seinv": StatementSpec(
        "rem:Seinv", "inverse_idem",
        "S(e) inverse iff eS pairwise left compatible"),
}
for _i in range(1, 9):
    REGISTRY[f"lem:po-{_i}"] = StatementSpec(
        f"lem:po-{_i}", "semigroup", f"partial order characterization ({_i})")

_CHECKS = {
    "lem:reduct": _st_reduct,
    "lem:birestrictive": _st_birestrictive,
    "lem:left/right": _st_leftright,
    "cor:3cond": _st_3cond,
    "lem:fdt": _st_fdt,
    "lem:reflect": _st_reflect,
    "ex:fg": _st_fg,
    "prop:starhomo": _st_starhomo,
    "lem:xfy": _st_xfy,
    "prop:commproj": _st_commproj,
    "lem:rsrs": _st_rsrs,
    "lem:xirho": _st_xirho,
    "prop:sym": _st_sym,
    "rem:Seinv": _st_seinv,
}
for _i in range(1, 9):
    _CHECKS[f"lem:po-{_i}"] = _st_po(_i)


def statement_ids():
    return sorted(REGISTRY)


def naive_check(statement_id, instance) -> bool:
    """Evaluate a registered statement on a raw instance.

    Instance shapes by kind:
      semigroup/inverse: (mul, star)
      morphism:          (mul_x, star_x, mul_s, star_s, map)
      pair:              (mul_x, star_x, mul_y, star_y, mul_z, star_z, g, f)
      triangle:          (mul_x, star_x, mul_y, star_y, mul_s, star_s, psi, h)
      inverse_idem:      (mul, star, e)
      etale_idem:        (mul_x, star_x, mul_s, star_s, map, e)
    Statements whose hypotheses fail on the instance hold vacuously.
    """
    if statement_id not in _CHECKS:
        raise UnknownStatement(statement_id)
    return _CHECKS[statement_id](instance)


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
