import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from lieq import (
    CapExceeded, Caps, Partition, RootSystem, build_chevalley, build_root_system,
    weyl_dimension,
)
from lieq.rootsystem import _DIAGRAMS, weyl_group_order

from oracles import (
    fraction_cartan_inverse, fraction_inner, fraction_root_coords, weyl_dominant_conjugates,
    weyl_orbit,
)

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


# every supported (type, rank <= 6), with |Phi+| as a function of the rank
ROOT_COUNT_FORMULAS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
    "F4": lambda n: 24,
}

# sha256 prefix of [(rc, fc, norm_sq, long, coroot_fc)] over the positive
# roots in index order
ROOT_DIGESTS = {
    ("A", 1): "8a820ba13972",
    ("A", 2): "3729a65b2eb4",
    ("A", 3): "f84f90ad980a",
    ("A", 4): "a9688f0b8c10",
    ("A", 5): "87fd40bf08f4",
    ("A", 6): "a14ef29b5325",
    ("B", 2): "5b0f80d9c37d",
    ("B", 3): "0afe5d49439a",
    ("B", 4): "867c8e001c41",
    ("B", 5): "2e94944bbf64",
    ("B", 6): "f92420ceaff7",
    ("C", 2): "9751f54b97c1",
    ("C", 3): "96bcb34dc1a0",
    ("C", 4): "6a27234cd1ff",
    ("C", 5): "a6cf1cf466f9",
    ("C", 6): "1f3923d1d771",
    ("D", 3): "70976924f6e1",
    ("D", 4): "678f309e379d",
    ("D", 5): "c36171c94fa1",
    ("D", 6): "720b56126f81",
    ("G2", 2): "583903e73e8a",
    ("F4", 4): "b777451af853",
}


@pytest.mark.parametrize(
    "key", list(ROOT_DIGESTS), ids=lambda k: k[0] if k[0] in ("G2", "F4") else f"{k[0]}{k[1]}"
)
def test_root_data_invariants(key):
    system = build_root_system(*key)
    n = system.rank
    roots = system.positive_roots
    assert len(roots) == ROOT_COUNT_FORMULAS[key[0]](n)
    assert [r.index for r in roots] == list(range(len(roots)))
    assert [(r.height, r.rc) for r in roots] == sorted((r.height, r.rc) for r in roots)
    for root in roots:
        assert all(type(x) is int and x >= 0 for x in root.rc)
        assert root.fc == tuple(
            sum(system.cartan_matrix[i][j] * root.rc[j] for j in range(n)) for i in range(n)
        )
        weight = system.weight(root.fc)
        assert system.pair(weight, root) == 2
        assert root.norm_sq == system.norm_sq(weight)
        assert root.long == (root.norm_sq > 1)
        # beta^vee = sum_j rc_j |alpha_j|^2 / |beta|^2 alpha_j^vee, exactly
        assert all(type(c) is int for c in root.coroot_fc)
        assert [c * root.norm_sq for c in root.coroot_fc] == [
            x * s for x, s in zip(root.rc, system.simple_norms)
        ]
    rows = [[list(r.rc), list(r.fc), r.norm_sq, r.long, list(r.coroot_fc)] for r in roots]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:12] == ROOT_DIGESTS[key]


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


A2, B2, G2 = (build_root_system(*key) for key in [("A", 2), ("B", 2), ("G2", 2)])
MIXED_CALLS = {
    "pair": lambda: A2.pair(B2.rho, A2.positive_roots[-1]),
    "inner": lambda: A2.inner(A2.rho, B2.rho),
    "inner of two foreign weights": lambda: A2.inner(B2.rho, B2.rho),
    "norm_sq": lambda: A2.norm_sq(B2.rho),
    "dominance_leq": lambda: A2.dominance_leq(B2.zero_weight(), B2.rho),
    "dominance_leq of one foreign weight": lambda: A2.dominance_leq(A2.zero_weight(), B2.rho),
    "parabolic is_dominant": lambda: A2.parabolic([1]).is_dominant(B2.rho),
    "parabolic is_regular_dominant": lambda: A2.parabolic([1]).is_regular_dominant(B2.rho),
    "is_regular": lambda: A2.is_regular(B2.rho),
    "height_of": lambda: A2.height_of(B2.rho),
    "weyl element apply": lambda: A2.simple_reflection(0).apply(B2.rho),
    "shifted_action": lambda: A2.shifted_action(A2.simple_reflection(0), B2.rho),
}


@pytest.mark.parametrize("call", MIXED_CALLS.values(), ids=MIXED_CALLS.keys())
def test_weights_of_another_system_are_refused(call):
    with pytest.raises(ValueError, match="cannot combine objects of A2 and B2"):
        call()


def test_a_foreign_weight_of_another_rank_is_refused_not_indexed():
    # an A2 weight read by an A3 parabolic raised IndexError
    A3 = build_root_system("A", 3)
    with pytest.raises(ValueError, match="cannot combine objects of A3 and A2"):
        A3.parabolic([2]).is_dominant(A2.weight((1, -1)))


@pytest.mark.parametrize(
    "call",
    [lambda w: w + 1, lambda w: w - 1, lambda w: 1 + w, lambda w: 1 - w,
     lambda w: w + (1, 0), lambda w: w - (1, 0)],
    ids=["w + 1", "w - 1", "1 + w", "1 - w", "w + tuple", "w - tuple"],
)
def test_weight_sum_with_a_non_weight_is_a_type_error(call):
    with pytest.raises(TypeError, match="unsupported operand"):
        call(A2.weight((1, 0)))


@pytest.mark.parametrize(
    "call,bad",
    [(lambda w: w * 1.5, "1.5"), (lambda w: 1.5 * w, "1.5"),
     (lambda w: w * Fraction(1, 2), "Fraction(1, 2)"), (lambda w: w * "2", "'2'")],
    ids=["w * float", "float * w", "w * Fraction", "w * str"],
)
def test_weight_multiple_names_a_non_integral_scalar(call, bad):
    with pytest.raises(ValueError, match=f"^scalar {re.escape(bad)} is not an integer$"):
        call(A2.weight((1, 0)))


def test_norm_of_a_g2_weight_in_a2_is_refused():
    # read as an A2 weight, (1, 0) of G2 had norm 1/3
    with pytest.raises(ValueError, match="cannot combine objects of A2 and G2"):
        A2.norm_sq(G2.weight((1, 0)))


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


@pytest.mark.parametrize(
    "key, bound",
    [(("A", 3), 3), (("B", 3), 3), (("C", 3), 3), (("D", 4), 3), (("G2", 2), 3), (("F4", 4), 2)],
)
def test_dominant_weight_fc_is_the_dominant_point_of_the_weyl_orbit(key, bound):
    system = build_root_system(*key)
    box = list(itertools.product(range(-bound, bound + 1), repeat=system.rank))
    expected = weyl_dominant_conjugates(system, box)
    for fc in box:
        assert system.dominant_weight_fc(fc) == expected[fc]


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


@pytest.mark.parametrize(
    "key", list(ROOT_DIGESTS), ids=lambda k: k[0] if k[0] in ("G2", "F4") else f"{k[0]}{k[1]}"
)
def test_parabolic_root_data_on_every_levi(key):
    system = build_root_system(*key)
    n = system.rank
    roots = list(system.positive_roots)
    for nodes in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        P = system.parabolic(nodes)
        levi, nilradical = list(P.positive_roots), list(P.nilradical)
        # the two parts split the positive roots, each in the system's order
        assert sorted(levi + nilradical, key=lambda r: r.index) == roots
        assert levi == sorted(levi, key=lambda r: r.index)
        assert nilradical == sorted(nilradical, key=lambda r: r.index)
        assert levi == [
            r for r in roots if all(i in nodes for i, c in enumerate(r.rc) if c)
        ]
        # 2 rho_P pairs to 2 with every simple coroot of the Levi
        assert all(P.rho_doubled.fc[i] == 2 for i in nodes)
        assert P.levi_dimension == n + 2 * len(levi)


def test_each_node_set_has_one_parabolic():
    A3 = build_root_system("A", 3)
    P = A3.parabolic([0, 2])
    for spelling in ([2, 0], (0, 2), {0, 2}, frozenset({2, 0}), [2, 0, 2, 0], range(0, 3, 2)):
        assert A3.parabolic(spelling) is P
    assert A3.borel() is A3.parabolic(()) is A3.parabolic([])
    assert A3.parabolic([1]) is not P


@pytest.mark.parametrize(
    "bad,message",
    [
        (0.5, "simple-root index 0.5 is not an integer"),
        (-1, "simple-root index -1 out of range"),
        (3, "simple-root index 3 out of range"),
    ],
    ids=["fractional", "negative", "rank"],
)
def test_bad_parabolic_node_is_refused_before_anything_is_kept(bad, message):
    system = RootSystem("A", 3, Caps())  # its own, so nothing is kept yet
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        system.parabolic([1, bad])
    assert system._parabolics == {}


@pytest.mark.parametrize(
    "entry,bad",
    [
        (lambda s: s.weight((0.5, 1.9)), "0.5"),
        (lambda s: s.weight((1.5, 0), "root"), "1.5"),
        (lambda s: weyl_dimension(s.weight((1.7, 1.2))), "1.7"),
        (lambda s: Partition((2.9, 1)), "2.9"),
        (lambda s: s.parabolic([0.7]), "0.7"),
    ],
    ids=["weight", "root-basis weight", "weyl_dimension", "partition", "parabolic"],
)
def test_non_integral_input_is_refused_not_truncated(entry, bad):
    system = build_root_system("A", 2)
    with pytest.raises(ValueError, match=f" {re.escape(bad)} is not an integer$"):
        entry(system)


@pytest.mark.parametrize(
    "entry,message",
    [
        (lambda s: s.fundamental_weight(0.5), "simple-root index 0.5 is not an integer"),
        (lambda s: s.fundamental_weight(7), "simple-root index 7 out of range"),
        (lambda s: s.fundamental_weight(-1), "simple-root index -1 out of range"),
        (lambda s: s.weight((1, 0, 5), "root"), "coordinate length does not match rank"),
        (lambda s: s.weight((1,), "root"), "coordinate length does not match rank"),
    ],
    ids=["fractional index", "index past rank", "negative index", "long root coords",
         "short root coords"],
)
def test_out_of_range_index_or_length_is_refused(entry, message):
    system = build_root_system("A", 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(system)


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


@pytest.mark.parametrize(
    "key", list(ROOT_DIGESTS), ids=lambda k: k[0] if k[0] in ("G2", "F4") else f"{k[0]}{k[1]}"
)
def test_root_datum_from_the_diagram_table(key):
    # every system the default caps build, as in test_root_data_invariants
    system = build_root_system(*key)
    n = system.rank
    cartan, norms = system.cartan_matrix, system.simple_norms
    edges = {frozenset(e) for e in _DIAGRAMS[key[0]].edges(n)}
    # diag(|alpha_i|^2) C is symmetric, <= 0 off the diagonal and nonzero
    # exactly on the edges
    for i in range(n):
        assert cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert norms[i] * cartan[i][j] == norms[j] * cartan[j][i]
                assert cartan[i][j] <= 0
                assert (cartan[i][j] != 0) == (frozenset((i, j)) in edges)
    # C num = den I
    assert [
        [sum(cartan[i][k] * system._num[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ] == [[system.den * (i == j) for j in range(n)] for i in range(n)]
    assert [alpha.rc for alpha in system.simple_roots] == [
        tuple(int(j == i) for j in range(n)) for i in range(n)
    ]
    # Kostant: the heights of the positive roots form the partition dual
    # to the exponents, so |W| = prod_k (k + 1)^(c_k - c_{k+1}) with c_k
    # the number of positive roots of height k
    counts = Counter(root.height for root in system.positive_roots)
    order = 1
    for k in counts:
        order *= (k + 1) ** (counts[k] - counts[k + 1])
    assert weyl_group_order(*key) == order


def test_d3_is_a3_relabelled():
    # D3's nodes 2 and 3 both hang off node 1, which plays A3's middle node
    a3 = build_root_system("A", 3).cartan_matrix
    d3 = build_root_system("D", 3).cartan_matrix
    relabel = (1, 0, 2)
    assert [[d3[relabel[i]][relabel[j]] for j in range(3)] for i in range(3)] == [
        list(row) for row in a3
    ]
