"""The named test populations of conftest.py: each has the size it names,
and no other test file builds one of its own."""

import ast
import collections
import pathlib

from stargroup import site
from test_memo import _checked_calls

# The calls of the population builders, by test file.  conftest.py builds the
# named populations; test_oracle.py, test_site.py and test_memo.py test the
# builders themselves, and test_swept_once.py counts the sweeps over a base
# that no population holds.  A new inline population is an edit here.
BUILDERS = {"enumerate_star_structures", "_least_tables",
            "enumerate_presheaves", "random_presheaf", "semigroup_pool"}
BUILDER_CALLS = {
    "conftest.py": {"_least_tables": 1, "enumerate_presheaves": 1,
                    "enumerate_star_structures": 1, "random_presheaf": 1,
                    "semigroup_pool": 2},
    "test_memo.py": {"enumerate_presheaves": 1, "random_presheaf": 1},
    "test_oracle.py": {"_least_tables": 1, "enumerate_star_structures": 3,
                       "semigroup_pool": 2},
    "test_site.py": {"enumerate_presheaves": 7, "random_presheaf": 6},
    "test_swept_once.py": {"enumerate_presheaves": 1},
}


def test_each_population_has_the_size_it_names(
        star_pool, star_pool4, inverse_bases, small_presheaves,
        small_lambdas, acceptance_presheaves):
    # order5_structures is pinned at 1267 by the two sweep tests that read it
    assert len(star_pool) == 32 and star_pool4[:32] == star_pool
    assert len(star_pool4) == 214
    assert len(inverse_bases) == 28
    assert sum(len(site.as_inverse(X).idempotents)
               for X in inverse_bases) == 77
    assert len(small_presheaves) == 175
    assert len(small_lambdas) == 172  # one per non-empty presheaf
    assert len(acceptance_presheaves) == 275
    assert acceptance_presheaves[:175] == small_presheaves


def test_only_the_named_populations_are_built_in_the_tests():
    # a call of a builder by name or as an attribute, found as
    # test_memo.py finds a checked call
    found = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        calls = collections.Counter(
            _checked_calls(ast.parse(path.read_text()), BUILDERS, set()))
        if calls:
            found[path.name] = dict(calls)
    assert found == BUILDER_CALLS
