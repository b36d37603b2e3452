import itertools
import random

import pytest

import lieq.height
from lieq import Caps, RootSystem, build_root_system, cht, cht_is_zero_fast, star
from lieq.height import dominant_interval

from oracles import cht_oracle, cht_two_pass_oracle, star_oracle, weyl_dominant_weight

BOX_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4)]


def sample_weights(system, count, bound=4, seed=7):
    rng = random.Random(f"{seed}:{system.type_label}{system.rank}")
    out = []
    for _ in range(count):
        out.append(system.weight([rng.randint(-bound, bound) for _ in range(system.rank)]))
    return out


def test_star_fixes_dominant_weights():
    A3 = build_root_system("A", 3)
    for fc in itertools.product(range(3), repeat=3):
        w = A3.weight(fc)
        assert star(w) == w


def test_star_reference_values():
    A2 = build_root_system("A", 2)
    alpha1 = A2.weight(A2._root_by_rc[(1, 0)].fc)
    assert star(-alpha1) == A2.zero_weight()
    theta = A2.weight(A2.highest_root.fc)
    assert star(-theta) == A2.zero_weight()


# star_oracle enumerates the box [lam, lam+] in simple roots, which grows
# fast with the rank: past rank 2 the weights are every point of
# [-1, 1]^rank whose box holds at most 5,000 points, and the count of
# weights checked is pinned (F4 has 22 larger boxes, up to 521,203 points)
STAR_ORACLE_WEIGHTS = {("B", 3): 27, ("C", 3): 27, ("D", 4): 81, ("F4", 4): 59}


@pytest.mark.parametrize(
    "key", [("A", 2), ("B", 2), ("G2", 2), ("B", 3), ("C", 3), ("D", 4), ("F4", 4)]
)
def test_star_matches_bruteforce_minimum(key):
    system = build_root_system(*key)
    if system.rank == 2:
        for lam in sample_weights(system, 25, bound=3):
            assert star(lam) == star_oracle(system, lam)
        return
    checked = 0
    for fc in itertools.product(range(-1, 2), repeat=system.rank):
        lam = system.weight(fc)
        expected = star_oracle(system, lam, max_box=5000)
        if expected is not None:
            assert star(lam) == expected
            checked += 1
    assert checked == STAR_ORACLE_WEIGHTS[key]


def test_star_takes_long_steps_at_once():
    # one-root steps would take 10^5 additions here
    G2 = build_root_system("G2", 2)
    assert star(G2.weight((10**5, -(10**5)))) == G2.zero_weight()
    F4 = build_root_system("F4", 4)
    lam = F4.weight((-40, 3, -7, 2))
    assert star(lam) == F4.zero_weight()
    assert F4.dominant_weight_fc(lam.fc) == (37, 3, 2, 2)
    assert weyl_dominant_weight(lam).fc == (37, 3, 2, 2)


def test_star_below_every_dominant_weight_above():
    system = build_root_system("A", 3)
    for lam in sample_weights(system, 10, bound=2):
        low = star(lam)
        assert low.is_dominant()
        assert system.dominance_leq(lam, low)


def test_cht_zero_on_dominant_weights():
    for key in BOX_TYPES:
        system = build_root_system(*key)
        for lam in sample_weights(system, 10):
            dom = system.weight([abs(x) for x in lam.fc])
            assert cht(dom) == 0
            assert cht_is_zero_fast(dom)


def test_cht_reference_values():
    A3 = build_root_system("A", 3)
    a1_plus_a3 = A3.weight((1, 0, 1), basis="root")
    assert cht(a1_plus_a3) == 1
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    assert cht(A2.zero_weight() - theta) == 1
    assert not cht_is_zero_fast(A2.zero_weight() - theta)
    # the corner of criterion 6's F4 box, whose top is 220 levels up
    F4 = build_root_system("F4", 4)
    assert cht(F4.weight((-4, -4, -4, -4))) == 194


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G2", 2)])
def test_cht_matches_bruteforce_longest_chain(key):
    system = build_root_system(*key)
    for lam in sample_weights(system, 20, bound=3):
        assert cht(lam) == cht_oracle(system, lam)


@pytest.mark.parametrize(
    "key,bound",
    [(("A", 3), 3), (("B", 3), 3), (("C", 3), 3), (("D", 4), 3), (("G2", 2), 3), (("F4", 4), 2)],
)
def test_walk_matches_two_pass_search(key, bound):
    # same nodes as the breadth-first interval, and the depth of star(lam)
    # is the longest chain the DP finds
    system = build_root_system(*key)
    for fc in itertools.product(range(-bound, bound + 1), repeat=system.rank):
        lam = system.weight(fc)
        value, nodes = cht_two_pass_oracle(lam)
        lo = star(lam)
        depths = dominant_interval(system, lo, system.weight(system.dominant_weight_fc(fc)))
        assert set(depths) == nodes
        assert depths[lo.fc] == value
        assert cht(lam) == value


@pytest.mark.parametrize("key", BOX_TYPES + [("D", 4)])
def test_one_root_interval(key):
    # top = one simple root: an interval of two nodes, whose rc fields are
    # the narrowest the walk packs and whose top fills its fc bound
    system = build_root_system(*key)
    for root in system.positive_roots:
        if root.height != 1:
            continue
        for fc in itertools.product(range(4), repeat=system.rank):
            lo = system.weight(fc)
            hi = lo + system.weight(root.fc)
            if hi.is_dominant():
                assert dominant_interval(system, lo, hi) == {hi.fc: 0, lo.fc: 1}


def test_interval_empty_off_the_cone():
    A2 = build_root_system("A", 2)
    lo, hi = A2.weight((1, 0)), A2.weight((0, 1))
    assert dominant_interval(A2, lo, hi) == {}
    assert dominant_interval(A2, hi, lo) == {}
    assert dominant_interval(A2, A2.zero_weight(), A2.weight((2, -1))) == {}


def test_interval_refuses_weights_of_another_system():
    A2, B2 = build_root_system("A", 2), build_root_system("B", 2)
    with pytest.raises(ValueError, match="cannot combine objects of A2 and B2"):
        dominant_interval(A2, B2.zero_weight(), B2.rho)
    with pytest.raises(ValueError, match="cannot combine objects of A2 and B2"):
        dominant_interval(A2, A2.zero_weight(), B2.rho)


def test_cht_between_layouts():
    # the F4 corner's wide fields between the narrow ones of a small box,
    # on one system: each value equals the one a fresh system gives and
    # the depth of star(lam) in the decoded interval
    F4 = build_root_system("F4", 4)
    corner = (-4, -4, -4, -4)
    box = list(itertools.product(range(-2, 2), repeat=4))
    order = []
    for start in range(0, len(box), 16):
        order += [corner] + box[start:start + 16]
    fresh = {fc: cht(RootSystem("F4", 4, F4.caps).weight(fc)) for fc in set(order)}
    assert fresh[corner] == 194
    for fc in order:
        lam = F4.weight(fc)
        lo = star(lam)
        hi = F4.weight(F4.dominant_weight_fc(fc))
        assert cht(lam) == fresh[fc]
        assert dominant_interval(F4, lo, hi)[lo.fc] == fresh[fc]
    assert len(F4._interval_steps) > 2


def test_systems_with_different_caps_keep_their_own_steps():
    small = RootSystem("B", 3, Caps(module_dim=100))
    large = RootSystem("B", 3, Caps(module_dim=200))
    weights = [(-3, 1, -2), (2, -4, 1), (-1, -1, -1)]
    values = [cht(small.weight(fc)) for fc in weights]
    assert small._interval_steps and not large._interval_steps
    assert [cht(large.weight(fc)) for fc in weights] == values
    assert large._interval_steps.keys() == small._interval_steps.keys()
    for widths, kept in large._interval_steps.items():
        assert kept is not small._interval_steps[widths]
        assert kept == small._interval_steps[widths]


@pytest.mark.parametrize(
    "key,bound", [(("A", 3), 3), (("B", 3), 3), (("G2", 2), 3), (("F4", 4), 2)]
)
def test_kept_depths_match_the_two_pass_search(key, bound):
    # a system outside the process cache starts with no kept depths; the
    # second call of every weight reads them
    system = RootSystem(*key, Caps())
    box = [
        system.weight(fc)
        for fc in itertools.product(range(-bound, bound + 1), repeat=system.rank)
    ]
    first = [cht(lam) for lam in box]
    assert system._cht_depths
    assert [cht(lam) for lam in box] == first
    assert first == [cht_two_pass_oracle(lam)[0] for lam in box]


def test_systems_with_different_caps_keep_their_own_depths():
    small = RootSystem("B", 3, Caps(module_dim=100))
    large = RootSystem("B", 3, Caps(module_dim=200))
    weights = [(-3, 1, -2), (2, -4, 1), (-1, -1, -1)]
    values = [cht(small.weight(fc)) for fc in weights]
    assert small._cht_depths and not large._cht_depths
    assert [cht(large.weight(fc)) for fc in weights] == values
    assert large._cht_depths is not small._cht_depths
    assert large._cht_depths == small._cht_depths


def test_cht_walks_each_interval_once(monkeypatch):
    walks = []
    walk = lieq.height._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(lieq.height, "_walk", counted)
    conjugates = 0
    for key in [("A", 3), ("B", 3), ("G2", 2), ("F4", 4)]:
        system = RootSystem(*key, Caps())
        pairs = set()
        for lam in sample_weights(system, 20, bound=3):
            pair = (star(lam).fc, system.dominant_weight_fc(lam.fc))
            before = len(walks)
            value = cht(lam)
            new = pair[0] != pair[1] and pair not in pairs
            assert len(walks) == before + new
            pairs.add(pair)
            assert cht(lam) == value
            assert len(walks) == before + new
            for i in range(system.rank):
                moved = system.simple_reflection(i).apply(lam)
                if moved != lam and star(moved) == star(lam):
                    conjugates += 1
                    assert cht(moved) == value
                    assert len(walks) == before + new
        assert len(system._cht_depths) == sum(lo != hi for lo, hi in pairs)
    assert conjugates > 0


def test_cht_decodes_no_interval(monkeypatch):
    def refuse(*args):
        raise AssertionError("cht decoded the dominant interval")

    monkeypatch.setattr(lieq.height, "dominant_interval", refuse)
    F4 = build_root_system("F4", 4)
    assert cht(F4.weight((-4, -4, -4, -4))) == 194
    for key in [("A", 3), ("B", 3), ("G2", 2)]:
        system = build_root_system(*key)
        for lam in sample_weights(system, 15, bound=3):
            assert cht(lam) == cht_two_pass_oracle(lam)[0]


@pytest.mark.parametrize("key", BOX_TYPES)
def test_cht_zero_equivalence(key):
    system = build_root_system(*key)
    for lam in sample_weights(system, 40):
        assert (cht(lam) == 0) == cht_is_zero_fast(lam)


@pytest.mark.parametrize("key", BOX_TYPES)
def test_short_root_plus_dominant_has_height_zero(key):
    system = build_root_system(*key)
    shorts = [r for r in system.positive_roots if not r.long]
    rng = random.Random(13)
    for root in shorts:
        for _ in range(4):
            mu = system.weight([rng.randint(0, 4) for _ in range(system.rank)])
            assert cht(system.weight(root.fc) + mu) == 0


def test_orthogonal_short_simple_roots():
    # cht of a sum of k pairwise-orthogonal short simple roots is k - 1
    cases = {
        ("A", 3): [(0, 2)],
        ("A", 5): [(0, 2), (0, 4), (2, 4), (0, 2, 4)],
        ("B", 3): [(2,)],
        ("C", 3): [(0,), (1,)],
        ("G2", 2): [(0,)],
        ("F4", 4): [(0,), (1,)],
    }
    for key, subsets in cases.items():
        system = build_root_system(*key)
        simples = {
            r.rc.index(1): r for r in system.positive_roots if r.height == 1
        }
        for subset in subsets:
            for i in subset:
                assert not simples[i].long
                for j in subset:
                    if i != j:
                        assert system.pair(system.weight(simples[i].fc), simples[j]) == 0
            total = system.zero_weight()
            for i in subset:
                total = total + system.weight(simples[i].fc)
            assert cht(total) == len(subset) - 1


@pytest.mark.parametrize("key", BOX_TYPES)
def test_conjugate_monotonicity_under_root_addition(key):
    # adding a root moves the dominant conjugate up, stays, or down
    # according to the sign of the pairing
    system = build_root_system(*key)
    for lam in sample_weights(system, 15):
        plus = system.weight(system.dominant_weight_fc(lam.fc))
        for root in system.positive_roots:
            moved = lam + system.weight(root.fc)
            moved_plus = system.weight(system.dominant_weight_fc(moved.fc))
            pairing = system.pair(lam, root)
            if pairing >= 0:
                assert system.dominance_leq(plus, moved_plus) and plus != moved_plus
            elif pairing == -1:
                assert plus == moved_plus
            else:
                assert system.dominance_leq(moved_plus, plus) and plus != moved_plus


@pytest.mark.parametrize("key", BOX_TYPES)
def test_star_and_cht_under_simple_root_addition(key):
    system = build_root_system(*key)
    simples = [r for r in system.positive_roots if r.height == 1]
    for lam in sample_weights(system, 12):
        for root in simples:
            pairing = system.pair(lam, root)
            moved = lam + system.weight(root.fc)
            if pairing < 0:
                assert star(lam) == star(moved)
            if pairing == -1:
                assert cht(lam) == cht(moved)
            if pairing <= -2:
                assert cht(lam) > cht(moved)


@pytest.mark.parametrize("key", BOX_TYPES)
def test_cht_under_reflections(key):
    system = build_root_system(*key)
    for lam in sample_weights(system, 12):
        for i in range(system.rank):
            pairing = lam.fc[i]
            s = system.simple_reflection(i)
            if pairing <= 0:
                assert cht(lam) >= cht(s.apply(lam))
            if pairing <= -2:
                # strictness holds for the shifted action
                assert cht(lam) > cht(system.shifted_action(s, lam))


@pytest.mark.parametrize("key", BOX_TYPES)
def test_cht_norm_bound(key):
    system = build_root_system(*key)
    for lam in sample_weights(system, 15):
        bound = system.norm_sq(lam) - system.norm_sq(star(lam))
        assert cht(lam) <= bound


@pytest.mark.parametrize("key", [("B", 3), ("C", 3), ("F4", 4), ("G2", 2)])
def test_long_simple_plus_dominant_box(key):
    # cht(alpha + mu) <= 1 for every long simple root and dominant mu
    system = build_root_system(*key)
    longs = [r for r in system.positive_roots if r.height == 1 and r.long]
    assert longs
    for mu_fc in itertools.product(range(3), repeat=system.rank):
        mu = system.weight(mu_fc)
        for root in longs:
            assert cht(system.weight(root.fc) + mu) <= 1
