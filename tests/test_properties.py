"""Property tests over small modules: Kostant's multiplicity formula at
q = 1 against Freudenthal's recursion, and the Weyl invariance of
multiplicities.  Examples are derandomized and no example database is
kept, so every run checks the same cases."""

import itertools
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from lieq import (  # noqa: E402
    build_root_system,
    freudenthal_multiplicity,
    lusztig_q_analog,
    weyl_dimension,
)

# Even with no example database, hypothesis caches the constants it reads
# from the sources, at collection time.  Keep that cache in a temporary
# directory, removed at exit, instead of .hypothesis/ in the working tree.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G2", 2)]

# (system key, mu) for every dominant mu with entries <= 3 and dim V(mu) <= 60
SMALL_MODULES = [
    (key, mu)
    for key in SYSTEMS
    for mu in itertools.product(range(4), repeat=key[1])
    if weyl_dimension(build_root_system(*key).weight(mu)) <= 60
]

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@st.composite
def module_and_weight(draw):
    """(mu, lam) with lam = mu minus a small nonnegative sum of simple
    roots, so that lam shares mu's root-lattice class."""
    key, mu_fc = draw(st.sampled_from(SMALL_MODULES))
    system = build_root_system(*key)
    mu = system.weight(mu_fc)
    depth = draw(st.lists(st.integers(0, 4), min_size=system.rank, max_size=system.rank))
    return mu, mu - system.weight(depth, basis="root")


@PROPERTY_SETTINGS
@given(module_and_weight())
def test_kostant_sum_at_one_is_freudenthal(pair):
    mu, lam = pair
    assert lusztig_q_analog(mu, lam).evaluate(1) == freudenthal_multiplicity(mu, lam)


@PROPERTY_SETTINGS
@given(module_and_weight())
def test_multiplicity_is_invariant_under_simple_reflections(pair):
    mu, lam = pair
    system = mu.system
    m = freudenthal_multiplicity(mu, lam)
    for i in range(system.rank):
        assert freudenthal_multiplicity(mu, system.simple_reflection(i).apply(lam)) == m
