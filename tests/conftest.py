import pytest

from stargroup import oracle, site
from stargroup.core import StarMorphism, identity_morphism, validate_star_semigroup


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
    """All *-semigroups over the order <= 3 enumeration (iso classes)."""
    out = []
    for n in range(1, 4):
        for table in oracle.enumerate_semigroups(n, "iso"):
            out.extend(oracle.enumerate_star_structures(table))
    return out
