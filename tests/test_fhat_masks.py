"""F-hat on bitmask subsets against the frozenset construction it replaced,
kept here as the reference: every table of ``modalg.fhat`` must be the one
the reference builds, element for element, and the carrier cap must refuse
at the same size."""

import pytest

from conftest import raises_kind
from stargroup.core import SearchBudgetExceeded, ShapeError
from stargroup.modalg import fhat
from stargroup.ssets import canonical_action


def reference_tables(f, cap=2 ** 16):
    """F-hat's carrier and tables as the frozenset construction built them;
    the product is the direct formula AB = As union rB, which the derived
    product was checked against."""
    X, S = f.source, f.target
    fibers = {r: [x for x in X.elements if f.map[x] == r] for r in S.elements}
    total = sum(2 ** len(v) for v in fibers.values())
    if total > cap:
        raise SearchBudgetExceeded(
            f"F-hat carrier would have {total} > {cap} elements",
            kind="CarrierTooLarge")
    act0 = canonical_action(f)
    elements = []
    for r in S.elements:
        fib = fibers[r]
        for mask in range(2 ** len(fib)):
            subset = frozenset(fib[i] for i in range(len(fib)) if mask >> i & 1)
            elements.append((r, subset))
    elements = tuple(elements)
    index = {el: i for i, el in enumerate(elements)}

    def star_of(el):
        r, A = el
        return (S.star[r], frozenset(X.star[a] for a in A))

    def act_of(el, s):
        r, A = el
        return (S.mul[r][s], frozenset(act0.act(a, s) for a in A))

    def left_of(r, el):
        return star_of(act_of(star_of(el), S.star[r]))

    star = tuple(index[star_of(el)] for el in elements)
    action = tuple(tuple(index[act_of(el, s)] for s in S.elements)
                   for el in elements)
    add = tuple(tuple(index[(r, A | B)] if r == r2 else -1
                      for (r2, B) in elements) for (r, A) in elements)
    zero = tuple(index[(r, frozenset())] for r in S.elements)
    product = tuple(
        tuple(index[(S.mul[r][s], act_of((r, A), s)[1] | left_of(r, (s, B))[1])]
              for (s, B) in elements)
        for (r, A) in elements)
    return {"elements": elements, "index": index, "star": star,
            "action": action, "add": add, "zero": zero, "product": product}


def tables(fh):
    return {"elements": fh.elements, "index": fh.index,
            "star": fh.module.sset.star, "action": fh.module.sset.action,
            "add": fh.module.add, "zero": fh.module.zero,
            "product": fh.algebra.product}


@pytest.fixture(scope="module")
def population(small_lambdas, id_sl2, id_i2):
    """The structure map of every Lambda of the fiber <= 2 population over
    SL2, SL3 and I2, then id_sl2 and id_i2."""
    return [LP.structure_map for LP in small_lambdas] + [id_sl2, id_i2]


def test_fhat_tables_match_the_reference(population):
    assert len(population) == 174
    for f in population:
        fh = fhat(f)
        assert tables(fh) == reference_tables(f), f
        for i, (r, A) in enumerate(fh.elements):
            assert fh.position(r, sorted(A)) == i


def test_fhat_cap_refuses_at_the_reference_size(population):
    for f in population[::9]:
        total = len(reference_tables(f)["elements"])
        for cap in (total - 1, 0):
            with raises_kind(SearchBudgetExceeded, "CarrierTooLarge"):
                reference_tables(f, cap)
            with raises_kind(SearchBudgetExceeded, "CarrierTooLarge",
                             match=f"{total} > {cap}"):
                fhat(f, cap)
        assert len(fhat(f, total).elements) == total


@pytest.mark.parametrize("cap", [-1, True, False, 2.0, "16", None])
def test_fhat_cap_must_be_a_non_negative_int(id_sl2, cap):
    with pytest.raises(ShapeError, match="^cap must be an integer >= 0"):
        fhat(id_sl2, cap)
