import random
from fractions import Fraction

import pytest

from lieq import build_chevalley, build_root_system
from lieq.chevalley import AlgebraElement, ChevalleyAlgebra

from oracles import ad_nilpotent_oracle


def algebra(label, rank):
    return build_chevalley(build_root_system(label, rank))


def random_element(alg, rng, support=3):
    coeffs = {}
    for _ in range(support):
        coeffs[rng.randrange(alg.dim)] = Fraction(rng.randint(-3, 3))
    return AlgebraElement(alg, coeffs)


def test_a1_relations():
    g = algebra("A", 1)
    assert g.dim == 3
    root = g.system.positive_roots[0]
    e, f, h = g.x(root), g.x(root, -1), g.h(0)
    assert e.bracket(f) == h
    assert h.bracket(e) == 2 * e
    assert h.bracket(f) == -2 * f


def test_a2_adjacent_simple_roots_span_their_sum():
    g = algebra("A", 2)
    a1 = g.system._root_by_rc[(1, 0)]
    a2 = g.system._root_by_rc[(0, 1)]
    out = g.x(a1).bracket(g.x(a2))
    theta_index = g.x_index(g.system._root_by_rc[(1, 1)])
    assert set(out.coeffs) == {theta_index}
    assert abs(out.coeffs[theta_index]) == 1


def test_a3_bracket_of_non_adjacent_roots():
    g = algebra("A", 3)
    a2 = g.system._root_by_rc[(0, 1, 0)]
    a3 = g.system._root_by_rc[(0, 0, 1)]
    out = g.x(a2).bracket(g.x(a3))
    target = g.x_index(g.system._root_by_rc[(0, 1, 1)])
    assert set(out.coeffs) == {target}
    assert abs(out.coeffs[target]) == 1
    a1 = g.system._root_by_rc[(1, 0, 0)]
    assert g.x(a1).bracket(g.x(a3)).is_zero()


def test_g2_dimension_and_large_constants():
    g = algebra("G2", 2)
    assert g.dim == 14
    magnitudes = {abs(v) for v in g._pos_n.values()}
    assert 2 in magnitudes and 3 in magnitudes


def test_antisymmetry_and_bilinearity():
    g = algebra("B", 2)
    rng = random.Random(2)
    for _ in range(15):
        x = random_element(g, rng)
        y = random_element(g, rng)
        assert x.bracket(x).is_zero()
        assert (x.bracket(y) + y.bracket(x)).is_zero()
        z = random_element(g, rng)
        left = (x + y).bracket(z)
        assert left == x.bracket(z) + y.bracket(z)


@pytest.mark.parametrize(
    "key",
    [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4),
        ("B", 2), ("B", 3), ("B", 4),
        ("C", 3), ("D", 4), ("G2", 2), ("F4", 4),
    ],
)
def test_jacobi_on_every_basis_triple(key):
    g = algebra(*key)
    units = [AlgebraElement(g, {i: 1}) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            bij = g.bracket(units[i], units[j])
            for k in range(j + 1, g.dim):
                total = (
                    g.bracket(bij, units[k])
                    + g.bracket(g.bracket(units[j], units[k]), units[i])
                    + g.bracket(g.bracket(units[k], units[i]), units[j])
                )
                assert total.is_zero(), (i, j, k)


@pytest.mark.parametrize("key", [("A", 5), ("B", 3), ("C", 3), ("D", 4)])
def test_jacobi_on_random_sparse_triples(key):
    # spot check an algebra too big for the exhaustive test, and
    # re-check midsize ones on random sparse input
    g = algebra(*key)
    rng = random.Random(5)
    for _ in range(25):
        x, y, z = (random_element(g, rng) for _ in range(3))
        total = (
            x.bracket(y).bracket(z)
            + y.bracket(z).bracket(x)
            + z.bracket(x).bracket(y)
        )
        assert total.is_zero()


def test_bracket_respects_weight_grading():
    g = algebra("G2", 2)
    for i in range(g.dim):
        wi = g.weight_of_index(i)
        for j in range(g.dim):
            out = AlgebraElement(g, {i: 1}).bracket(AlgebraElement(g, {j: 1}))
            expected = tuple(a + b for a, b in zip(wi, g.weight_of_index(j)))
            for k in out.coeffs:
                assert g.weight_of_index(k) == expected


def test_cartan_action_is_diagonal_with_pairings():
    g = algebra("A", 3)
    h = g.h(1)
    for root in g.system.positive_roots:
        out = h.bracket(g.x(root))
        assert out == root.fc[1] * g.x(root)


def test_ad_matrix_is_a_homomorphism_on_samples():
    g = algebra("A", 2)
    rng = random.Random(7)
    for _ in range(6):
        x = random_element(g, rng)
        y = random_element(g, rng)
        ad_x = g.ad_matrix(x)
        ad_y = g.ad_matrix(y)
        ad_bracket = g.ad_matrix(x.bracket(y))
        n = g.dim
        commutator = [
            [
                sum(ad_x[i][k] * ad_y[k][j] - ad_y[i][k] * ad_x[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert commutator == ad_bracket


def test_ad_of_nilpotent_is_nilpotent():
    g = algebra("A", 3)
    x = g.x(g.system._root_by_rc[(1, 0, 0)]) + g.x(g.system._root_by_rc[(0, 1, 1)])
    cols = g.ad_columns(x)

    def apply(vec):
        out = {}
        for c, coeff in vec.items():
            for r, a in cols[c].items():
                out[r] = out.get(r, 0) + coeff * a
        return {k: v for k, v in out.items() if v}

    vec = {g.dim - 1: Fraction(1)}
    for _ in range(g.dim + 1):
        vec = apply(vec)
    assert not vec


def test_is_nilpotent_on_sl2_elements():
    g = algebra("A", 1)
    root = g.system.positive_roots[0]
    e, f, h = g.x(root), g.x(root, -1), g.h(0)
    # e - h - f squares to zero in the defining module although it has a
    # Cartan part, so support in n+ is not what decides nilpotency
    cases = [(e - h - f, True), (h, False), (e + f, False), (g.zero(), True), (e, True)]
    for x, expected in cases:
        assert ad_nilpotent_oracle(x) is expected
        assert x.is_nilpotent() is expected


@pytest.mark.parametrize("key", [("A", 3), ("B", 2), ("G2", 2)])
def test_is_nilpotent_matches_a_fresh_search(key):
    g = algebra(*key)
    rng = random.Random(11)
    positive = range(g.system.rank, g.system.rank + g.npos)
    elements = [random_element(g, rng, support) for support in (1, 2, 3, 4) for _ in range(6)]
    elements += [
        AlgebraElement(g, {rng.choice(positive): rng.randint(1, 3) for _ in range(3)})
        + random_element(g, rng, support=1)
        for _ in range(12)
    ]
    verdicts = [ad_nilpotent_oracle(x) for x in elements]
    assert True in verdicts and False in verdicts
    assert [x.is_nilpotent() for x in elements] == verdicts


def test_is_nilpotent_is_decided_once(monkeypatch):
    g = algebra("G2", 2)
    calls = []
    original = ChevalleyAlgebra.ad_columns
    monkeypatch.setattr(
        ChevalleyAlgebra, "ad_columns", lambda self, x: calls.append(x) or original(self, x)
    )
    x = g.x(g.system.positive_roots[0]) + g.x(g.system.positive_roots[1])
    y = g.h(0)
    for _ in range(3):
        assert x.is_nilpotent() and not y.is_nilpotent()
    assert calls == [x, y]
    # a new element, even an equal one, decides again
    assert (x + g.zero()).is_nilpotent()
    assert len(calls) == 3


def test_centralizer_of_zero_is_everything():
    g = algebra("A", 2)
    assert g.centralizer_dimension(g.zero()) == g.dim


def test_levi_kernel_dimension_of_labelled_cartan():
    # ad H has kernel of dimension rank + |roots of the Levi| when the
    # labels vanish exactly on the Levi nodes
    for key, labels in [(("A", 3), (2, 0, 2)), (("G2", 2), (0, 2)), (("B", 3), (0, 2, 0))]:
        system = build_root_system(*key)
        g = build_chevalley(system)
        h = g.cartan_from_labels(labels)
        zero_nodes = [i for i, v in enumerate(labels) if v == 0]
        levi_roots = 2 * len(system.parabolic(zero_nodes).positive_roots)
        assert g.centralizer_dimension(h) == system.rank + levi_roots


def test_labelled_cartan_eigenvalues():
    system = build_root_system("A", 3)
    g = build_chevalley(system)
    h = g.cartan_from_labels((2, 0, 2))
    for root in system.positive_roots:
        out = h.bracket(g.x(root))
        expected = sum(l * c for l, c in zip((2, 0, 2), root.rc))
        assert out == expected * g.x(root)


def test_mismatched_algebras_raise():
    g1 = algebra("A", 2)
    g2 = algebra("A", 3)
    with pytest.raises(ValueError):
        g1.h(0).bracket(g2.h(0))


def test_structure_constants_are_pm_string_length():
    for key in [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4)]:
        g = algebra(*key)
        for (i, j), value in g._pos_n.items():
            beta = g.system.positive_roots[i]
            gamma = g.system.positive_roots[j]
            assert abs(value) == g._string_down(beta.rc, gamma.rc) + 1
