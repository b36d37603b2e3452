"""Property tests over small modules: Kostant's multiplicity formula at
q = 1 against Freudenthal's recursion, and the Weyl invariance of
multiplicities.  Property tests over weights in a small box: the rules
that the dominant conjugate, star and the combinatorial height cht obey
along roots and under simple reflections, the norm bound on cht, and
the direct predicate for cht = 0.  Examples are derandomized and no
example database is kept, so every run checks the same cases."""

import itertools
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from lieq import (  # noqa: E402
    build_root_system,
    cht,
    cht_is_zero_fast,
    freudenthal_multiplicity,
    lusztig_q_analog,
    star,
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


HEIGHT_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G2", 2)]


@st.composite
def box_weight(draw):
    """A weight with every fundamental coordinate in [-3, 3]."""
    system = build_root_system(*draw(st.sampled_from(HEIGHT_SYSTEMS)))
    fc = draw(st.lists(st.integers(-3, 3), min_size=system.rank, max_size=system.rank))
    return system.weight(fc)


def dominant(lam):
    return lam.system.weight(lam.system.dominant_weight_fc(lam.fc))


def simple_roots(system):
    return [root for root in system.positive_roots if root.height == 1]


@PROPERTY_SETTINGS
@given(box_weight())
def test_conjugate_rule(lam):
    # adding a root with pairing >= 0 raises the dominant conjugate,
    # pairing -1 keeps it, and pairing <= -2 lowers it
    system = lam.system
    plus = dominant(lam)
    for root in system.positive_roots:
        moved = dominant(lam + system.weight(root.fc))
        pairing = system.pair(lam, root)
        if pairing == -1:
            assert moved == plus
        else:
            low, high = (plus, moved) if pairing >= 0 else (moved, plus)
            assert low != high and system.dominance_leq(low, high)


@PROPERTY_SETTINGS
@given(box_weight())
def test_star_rule(lam):
    # adding a simple root with negative pairing keeps star
    system = lam.system
    for root in simple_roots(system):
        if system.pair(lam, root) < 0:
            assert star(lam + system.weight(root.fc)) == star(lam)


@PROPERTY_SETTINGS
@given(box_weight())
def test_cht_equal_and_drop_along_simple_roots(lam):
    system = lam.system
    value = cht(lam)
    for root in simple_roots(system):
        pairing = system.pair(lam, root)
        moved = cht(lam + system.weight(root.fc))
        if pairing == -1:
            assert moved == value
        elif pairing <= -2:
            assert moved < value


@PROPERTY_SETTINGS
@given(box_weight())
def test_reflection_and_shifted_reflection_rules(lam):
    system = lam.system
    value = cht(lam)
    for i in range(system.rank):
        s = system.simple_reflection(i)
        if lam.fc[i] <= 0:
            assert value >= cht(s.apply(lam))
        if lam.fc[i] <= -2:
            assert value > cht(system.shifted_action(s, lam))


@PROPERTY_SETTINGS
@given(box_weight())
def test_cht_norm_bound(lam):
    system = lam.system
    assert cht(lam) <= system.norm_sq(lam) - system.norm_sq(star(lam))


@PROPERTY_SETTINGS
@given(box_weight())
def test_cht_zero_agrees_with_the_fast_predicate(lam):
    assert (cht(lam) == 0) == cht_is_zero_fast(lam)
