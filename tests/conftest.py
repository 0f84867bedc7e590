"""The named fixtures and test populations.  A population is a tuple built
once per session (the Lambdas once per module), when a selected test first
asks for it, and no test changes one: a test that breaks an object of one
copies it first."""

import random

import pytest

from stargroup import oracle, site, topos, verify
from stargroup.core import StarMorphism, classify, identity_morphism, validate_star_semigroup


def pytest_collection_modifyitems(config, items):
    """The ``sweep`` tests are opt-in: deselected unless the ``-m``
    expression names the marker (``python -m pytest -m sweep``)."""
    if "sweep" in config.getoption("markexpr"):
        return
    opted = [item for item in items if item.get_closest_marker("sweep")]
    if opted:
        config.hook.pytest_deselected(items=opted)
        items[:] = [item for item in items if item not in opted]


@pytest.fixture(scope="session")
def t1():
    return validate_star_semigroup(1, [[0]], [0], "T1")


@pytest.fixture(scope="session")
def c2():
    return oracle.standard_family("cyclic_group", 2)


@pytest.fixture(scope="session")
def sl2():
    return oracle.standard_family("semilattice_chain", 2)


@pytest.fixture(scope="session")
def sl3():
    return oracle.standard_family("semilattice_chain", 3)


@pytest.fixture(scope="session")
def lz2():
    return oracle.standard_family("left_zero", 2)


@pytest.fixture(scope="session")
def rz2():
    return oracle.standard_family("right_zero", 2)


@pytest.fixture(scope="session")
def i2():
    return oracle.standard_family("symmetric_inverse", 2)


@pytest.fixture(scope="session")
def b2():
    return oracle.standard_family("brandt", 2)


@pytest.fixture(scope="session")
def sl2_inv(sl2):
    return site.as_inverse(sl2)


@pytest.fixture(scope="session")
def sl3_inv(sl3):
    return site.as_inverse(sl3)


@pytest.fixture(scope="session")
def i2_inv(i2):
    return site.as_inverse(i2)


@pytest.fixture(scope="session")
def p21(sl2_inv):
    """The presheaf over SL2 with a two-point fiber at 1 and a point at 0."""
    return site.validate_presheaf(
        sl2_inv,
        {1: ("u", "v"), 0: ("w",)},
        {(0, 0): (0,), (1, 1): (0, 1), (0, 1): (0, 0)},
    )


@pytest.fixture(scope="session")
def const_c2_t1(c2, t1):
    return StarMorphism(c2, t1, (0, 0), name="const")


@pytest.fixture(scope="session")
def id_sl2(sl2):
    return identity_morphism(sl2)


@pytest.fixture(scope="session")
def id_i2(i2):
    return identity_morphism(i2)


@pytest.fixture(scope="session")
def star_pool():
    """The 32 *-semigroups of order <= 3 (iso classes), verify's pool."""
    return tuple(X for _, X, _ in verify.semigroup_pool(3))


@pytest.fixture(scope="session")
def star_pool4():
    """The 214 *-semigroups of order <= 4 (iso classes, so a table and its
    transpose are both kept), none sampled."""
    return tuple(X for _, X, _ in verify.semigroup_pool(4, sample4=0))


@pytest.fixture(scope="session")
def order5_structures():
    """(label, X) for the 1267 *-semigroups of order 5, labeled as verify
    labels its pool; past the enumeration cap, so from ``_least_tables``."""
    return tuple((f"n5#{idx}*{j}", X)
                 for idx, (table, _) in enumerate(oracle._least_tables(5), 1)
                 for j, X in enumerate(oracle.enumerate_star_structures(table)))


@pytest.fixture(scope="session")
def inverse_bases(star_pool4, sl2, i2, b2):
    """The 24 inverse *-semigroups of order <= 4, then SL2, I2, B2 and I3:
    28 bases with 77 idempotents."""
    return (*(X for X in star_pool4 if classify(X).inverse),
            sl2, i2, b2, oracle.standard_family("symmetric_inverse", 3))


@pytest.fixture(scope="session")
def small_presheaves(sl2_inv, sl3_inv, i2_inv):
    """The 175 presheaves with fibers of size at most 2 over SL2, SL3 and
    I2, base by base; 172 are non-empty."""
    return tuple(P for S in (sl2_inv, sl3_inv, i2_inv)
                 for P in site.enumerate_presheaves(S, 2))


@pytest.fixture(scope="module")
def small_lambdas(small_presheaves):
    """Lambda(P) of each of the 172 non-empty ``small_presheaves``, held per
    module, so that their interned semigroups are freed after it."""
    return tuple(topos.lam(P) for P in small_presheaves if not P.is_empty())


@pytest.fixture(scope="session")
def acceptance_presheaves(small_presheaves, sl2_inv, sl3_inv, i2_inv):
    """``small_presheaves``, then 100 seeded random presheaves with fibers
    of size at most 3 over the same bases in turn: 275 in all."""
    bases = (sl2_inv, sl3_inv, i2_inv)
    return small_presheaves + tuple(
        site.random_presheaf(bases[i % 3], 3, random.Random(1000 + i))
        for i in range(100))
