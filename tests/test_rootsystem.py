import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from lieq import CapExceeded, Caps, build_chevalley, build_root_system
from lieq.rootsystem import weyl_group_order

from oracles import fraction_cartan_inverse, fraction_inner, fraction_root_coords, weyl_orbit

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("A", 4): 10,
    ("A", 5): 15,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("G2", 2): 6,
    ("F4", 4): 24,
}

ALL_TYPES = sorted(POSITIVE_ROOT_COUNTS)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_positive_root_counts(key):
    system = build_root_system(*key)
    assert len(system.positive_roots) == POSITIVE_ROOT_COUNTS[key]


def test_f4_positive_root_count_from_dimension():
    # dim F4 = 52, so the closure must produce (52 - 4) / 2 = 24 roots
    assert len(build_root_system("F4", 4).positive_roots) == (52 - 4) // 2


@pytest.mark.parametrize("key", ALL_TYPES)
def test_cartan_matrix_shape(key):
    system = build_root_system(*key)
    for i, row in enumerate(system.cartan_matrix):
        assert row[i] == 2
        for j, entry in enumerate(row):
            if i != j:
                assert entry <= 0


@pytest.mark.parametrize("key", ALL_TYPES)
def test_rho_pairs_to_one_on_simple_roots(key):
    system = build_root_system(*key)
    for root in system.positive_roots:
        if root.height == 1:
            assert system.pair(system.rho, root) == 1


@pytest.mark.parametrize("key", ALL_TYPES)
def test_inner_product_matrix_symmetric_positive_definite(key):
    system = build_root_system(*key)
    n = system.rank
    simples = [system.weight([int(i == j) for j in range(n)], basis="root") for i in range(n)]
    gram = [[system.inner(a, b) for b in simples] for a in simples]
    for i in range(n):
        for j in range(n):
            assert gram[i][j] == gram[j][i]
            # (alpha_i, alpha_j) = |alpha_i|^2 / 2 * <alpha_j, alpha_i^vee>
            assert gram[i][j] == Fraction(system.simple_norms[i], 2) * system.cartan_matrix[i][j]
    # Sylvester: all leading principal minors positive
    for k in range(1, n + 1):
        sub = [[gram[i][j] for j in range(k)] for i in range(k)]
        assert _det(sub) > 0
    # short simple roots are normalized to squared length 1
    assert min(system.simple_norms) == 1


def _det(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            c = rows[r][col] * inv
            if c:
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("key", ALL_TYPES)
def test_inner_product_weyl_invariance_sampled(key):
    system = build_root_system(*key)
    rng = random.Random(11)
    group = system.weyl_group() if weyl_group_order(*key) <= 2000 else None
    for _ in range(20):
        a = system.weight([rng.randint(-3, 3) for _ in range(system.rank)])
        b = system.weight([rng.randint(-3, 3) for _ in range(system.rank)])
        w = rng.choice(group) if group else system.simple_reflection(0)
        assert system.inner(w.apply(a), w.apply(b)) == system.inner(a, b)


def test_pair_examples():
    A3 = build_root_system("A", 3)
    mu = A3.weight((0, 1, 2))
    alpha2 = A3._root_by_rc[(0, 1, 0)]
    assert A3.pair(mu, alpha2) == 1
    for key in ALL_TYPES:
        system = build_root_system(*key)
        for root in system.positive_roots:
            assert system.pair(system.weight(root.fc), root) == 2


@pytest.mark.parametrize("key", ["A3", "B3", "C3", "G2", "F4"])
def test_pair_matches_inner_product_form(key):
    label, rank = (key[:-1], int(key[-1])) if key[0] in "ABCD" else (key, 2 if key == "G2" else 4)
    system = build_root_system(label, rank)
    rng = random.Random(5)
    for _ in range(15):
        lam = system.weight([rng.randint(-4, 4) for _ in range(system.rank)])
        for root in system.positive_roots:
            beta = system.weight(root.fc)
            expected = 2 * system.inner(lam, beta) / system.inner(beta, beta)
            assert system.pair(lam, root) == expected


def test_weight_basis_round_trip():
    A3 = build_root_system("A", 3)
    mu = A3.weight((1, 2, 2), basis="root")
    assert mu.fc == (0, 1, 2)
    assert tuple(int(x) for x in mu.root_coords()) == (1, 2, 2)
    assert mu.in_root_lattice()
    assert not A3.fundamental_weight(0).in_root_lattice()
    G2 = build_root_system("G2", 2)
    assert G2.fundamental_weight(0).in_root_lattice()  # full lattice = root lattice


def test_dominant_representative_orbit_invariance():
    system = build_root_system("B", 2)
    rng = random.Random(3)
    for _ in range(10):
        lam = system.weight([rng.randint(-3, 3) for _ in range(2)])
        plus = system.dominant_weight_fc(lam.fc)
        for fc in weyl_orbit(system, lam):
            assert system.dominant_weight_fc(fc) == plus


def test_neg_theta_orbit_contains_all_roots():
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    orbit = weyl_orbit(A2, theta)
    expected = {r.fc for r in A2.positive_roots}
    expected |= {tuple(-x for x in r.fc) for r in A2.positive_roots}
    assert orbit == expected


def test_shifted_action_identity_and_inverse():
    A3 = build_root_system("A", 3)
    mu = A3.weight((0, 1, 2))
    assert A3.shifted_action(A3.identity_element(), mu) == mu
    rng = random.Random(9)
    group = A3.weyl_group()
    for _ in range(20):
        a, b = rng.choice(group), rng.choice(group)
        lam = A3.weight([rng.randint(-3, 3) for _ in range(3)])
        assert A3.shifted_action(a, A3.shifted_action(b, lam)) == A3.shifted_action(
            a.compose(b), lam
        )


def test_shifted_action_reference_values():
    A3 = build_root_system("A", 3)
    mu = A3.weight((0, 1, 2))
    r1 = A3.simple_reflection(0)
    r2 = A3.simple_reflection(1)
    assert A3.shifted_action(r1, mu) == A3.weight((0, 2, 2), basis="root")
    assert A3.shifted_action(r2, mu) == A3.weight((1, 0, 2), basis="root")


@pytest.mark.parametrize(
    "key,order",
    [(("A", 1), 2), (("A", 2), 6), (("A", 3), 24), (("B", 2), 8), (("G2", 2), 12)],
)
def test_weyl_group_enumeration(key, order):
    system = build_root_system(*key)
    group = system.weyl_group()
    assert len(group) == order
    if key[0] == "A":
        assert order == factorial(key[1] + 1)
    assert len({w.matrix for w in group}) == order
    assert max(w.length for w in group) == len(system.positive_roots)


def test_weyl_lengths_match_inversion_counts():
    for key in [("A", 3), ("B", 2), ("G2", 2)]:
        system = build_root_system(*key)
        for w in system.weyl_group():
            inversions = sum(
                1
                for root in system.positive_roots
                if system.root_sign(w.apply_fc(root.fc)) < 0
            )
            assert len(w.word) == inversions


def test_weyl_matrices_permute_the_root_set():
    for key in [("A", 3), ("G2", 2)]:
        system = build_root_system(*key)
        for w in system.weyl_group():
            for root in system.positive_roots:
                assert system.root_sign(w.apply_fc(root.fc)) != 0


def test_weyl_cap_refusal_names_the_cap():
    system = build_root_system("B", 6, Caps(weyl_order=100))
    with pytest.raises(CapExceeded, match="100"):
        system.weyl_group()


def test_cap_variables_are_read_when_a_default_system_is_built(monkeypatch):
    monkeypatch.setenv("LIEQ_RANK_CAP", "8")
    system = build_root_system("A", 7)
    assert system.caps == Caps(rank=8)
    assert build_root_system("A", 7, Caps(rank=8)) is system


@pytest.mark.parametrize(
    "name,value",
    [("LIEQ_RANK_CAP", "abc"), ("LIEQ_MODULE_CAP", "0"), ("LIEQ_WEYL_CAP", "-3")],
)
def test_bad_cap_variable_names_itself(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"{name}='{value}'"):
        build_root_system("A", 2)
    # caps given explicitly do not read the environment
    assert build_root_system("A", 2, Caps()).caps == Caps()


def test_invalid_type_rank():
    with pytest.raises(ValueError):
        build_root_system("G2", 3)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    with pytest.raises(CapExceeded):
        build_root_system("A", 9)


@pytest.mark.parametrize("key,name", [(("A", 3), "A3"), (("G2", 2), "G2"), (("F4", 4), "F4")])
def test_system_name_carries_the_rank_once(key, name):
    system = build_root_system(*key)
    assert system.name == name
    assert repr(system) == f"RootSystem({name})"
    assert repr(build_chevalley(system)) == f"ChevalleyAlgebra({name})"


def test_parabolic_data():
    A3 = build_root_system("A", 3)
    P = A3.parabolic([1])
    assert [r.rc for r in P.positive_roots] == [(0, 1, 0)]
    full = A3.parabolic([0, 1, 2])
    assert full.rho_doubled == 2 * A3.rho


def test_g2_nilradical_of_long_node_parabolic():
    G2 = build_root_system("G2", 2)
    P = G2.parabolic([1])
    levi = {r.rc for r in P.positive_roots}
    assert levi == {(0, 1)}
    outside = {r.rc for r in G2.positive_roots} - levi
    assert outside == {(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_length_subadditivity():
    for key in [("A", 3), ("B", 2), ("G2", 2)]:
        system = build_root_system(*key)
        group = system.weyl_group()
        rng = random.Random(29)
        for _ in range(40):
            a, b = rng.choice(group), rng.choice(group)
            assert a.compose(b).length <= a.length + b.length


KERNEL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("G2", 2), ("F4", 4),
]


@pytest.mark.parametrize("key", KERNEL_TYPES)
def test_integer_kernel_matches_fraction_formulas(key):
    system = build_root_system(*key)
    inverse = fraction_cartan_inverse(system)
    radius = 3 if system.rank <= 2 else 2
    box = list(itertools.product(range(-radius, radius + 1), repeat=system.rank))
    rng = random.Random(61)
    for fc in box:
        exact = fraction_root_coords(system, fc, inverse)
        integral = all(x.denominator == 1 for x in exact)
        ints = system.lattice_coords(fc)
        assert (ints is None) == (not integral)
        coords = system.root_coords(fc)
        assert coords == exact
        weight = system.weight(fc)
        assert weight.root_coords() == exact
        assert weight.in_root_lattice() == integral
        if integral:
            assert ints == exact
            assert all(type(x) is int for x in ints + coords)
            assert system.height_of(weight) == sum(exact)
        else:
            assert all(isinstance(x, Fraction) for x in coords)
            with pytest.raises(ValueError):
                system.height_of(weight)
        other = system.weight(rng.choice(box))
        assert system.inner(weight, other) == fraction_inner(system, fc, other.fc, inverse)
        assert system.norm_sq(weight) == fraction_inner(system, fc, fc, inverse)
        diff = fraction_root_coords(system, [b - a for a, b in zip(fc, other.fc)], inverse)
        assert system.dominance_leq(weight, other) == all(
            x.denominator == 1 and x >= 0 for x in diff
        )
        assert system.dominance_leq(weight, weight)
