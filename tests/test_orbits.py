import pytest
from fractions import Fraction

from lieq import (
    BUILTIN_ORBITS,
    Partition,
    associated_parabolic,
    build_chevalley,
    build_irrep,
    build_root_system,
    good_position_representative,
    is_even_labels,
    is_even_partition,
    partition_labels,
    partitions_of,
    weighted_dynkin,
)
from lieq.linalg import rank_of_sparse
from lieq.orbits import MAX_DRAWS, grade_of_root

from oracles import jordan_type_of_nilpotent_matrix, operator_columns


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).total == 4


def test_partitions_of_counts():
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(6)) == 11
    assert partitions_of(3)[0].parts == (3,)


def test_orbit_rep_rank_mismatch():
    assert partition_labels(build_root_system("A", 3), Partition((3, 1))) == (2, 0, 2)
    with pytest.raises(ValueError, match="does not match A2"):
        partition_labels(build_root_system("A", 2), Partition((3, 1)))
    with pytest.raises(ValueError, match="type A"):
        partition_labels(build_root_system("B", 2), Partition((3,)))


def test_weighted_dynkin_values():
    assert weighted_dynkin(Partition((2,))) == (2,)
    assert weighted_dynkin(Partition((3, 1))) == (2, 0, 2)
    assert weighted_dynkin(Partition((2, 2))) == (0, 2, 0)
    assert weighted_dynkin(Partition((5,))) == (2, 2, 2, 2)
    assert weighted_dynkin(Partition((2, 1, 1))) == (1, 0, 1)


def test_evenness_rules():
    assert is_even_partition(Partition((3, 1)))
    assert not is_even_partition(Partition((2, 1, 1)))
    assert is_even_partition(Partition((2, 2)))
    for n in range(2, 7):
        for p in partitions_of(n):
            assert is_even_partition(p) == is_even_labels(weighted_dynkin(p))


def test_associated_parabolic():
    A3 = build_root_system("A", 3)
    assert associated_parabolic(A3, (2, 2, 2)).key == ()
    assert associated_parabolic(A3, (2, 0, 2)).key == (1,)
    G2 = build_root_system("G2", 2)
    labels = BUILTIN_ORBITS[("G2", 2)]["subregular"]
    # Levi of the subregular orbit is the minimal parabolic on the
    # short simple root; the label 2 sits on the long one
    assert associated_parabolic(G2, labels).key == (0,)
    assert G2.positive_roots[[r.rc for r in G2.positive_roots].index((0, 1))].long


def test_good_position_representatives_validate():
    A1 = build_root_system("A", 1)
    g1 = build_chevalley(A1)
    rep = good_position_representative(g1, (2,))
    assert rep == g1.x(A1.positive_roots[0])
    A3 = build_root_system("A", 3)
    g3 = build_chevalley(A3)
    rep = good_position_representative(g3, (2, 0, 2))
    assert g3.centralizer_dimension(rep) == 5
    G2 = build_root_system("G2", 2)
    gg = build_chevalley(G2)
    rep = good_position_representative(gg, (0, 2))
    assert gg.centralizer_dimension(rep) == 4
    # subregular orbit has codimension 4 in the 14-dim algebra
    assert gg.dim - (gg.dim - 4) == 4


def test_good_position_rejects_odd_labels():
    g = build_chevalley(build_root_system("A", 3))
    with pytest.raises(ValueError):
        good_position_representative(g, (1, 0, 1))


def test_good_position_gives_up_after_max_draws():
    # with the 2 on the short node of G2 no grade-2 element is Richardson
    g = build_chevalley(build_root_system("G2", 2))
    with pytest.raises(ValueError, match=rf"labels \(2, 0\) after {MAX_DRAWS} draws"):
        good_position_representative(g, (2, 0))


def test_the_handmade_good_position_element_is_accepted():
    # conjugating X_{a1} + X_{a2} by the reflection at node 3 gives
    # X_{a1} + X_{a2+a3}, which the Richardson check accepts
    A3 = build_root_system("A", 3)
    g = build_chevalley(A3)
    z = g.x(A3._root_by_rc[(1, 0, 0)]) + g.x(A3._root_by_rc[(0, 1, 1)])
    assert g.centralizer_dimension(z) == 5
    assert associated_parabolic(A3, (2, 0, 2)).levi_dimension == 5


def test_grade2_support_of_representatives():
    A3 = build_root_system("A", 3)
    g = build_chevalley(A3)
    labels = (2, 0, 2)
    rep = good_position_representative(g, labels)
    for idx in rep.coeffs:
        kind, sign, root = g.index_data(idx)
        assert kind == "x" and sign == 1
        assert grade_of_root(root, labels) == 2


def test_bracket_of_h_with_representative_is_2x():
    for key, labels in [(("A", 3), (2, 0, 2)), (("G2", 2), (0, 2)), (("A", 4), (2, 0, 0, 2))]:
        system = build_root_system(*key)
        g = build_chevalley(system)
        h = g.cartan_from_labels(labels)
        x = good_position_representative(g, labels)
        assert h.bracket(x) == 2 * x
        # the halved element scales the eigenvalue accordingly
        assert (Fraction(1, 2) * h).bracket(x) == x
        # ad H is the grading the representative is drawn from: it acts
        # on each root vector by the root's grade and kills the Cartan
        for root in system.positive_roots:
            grade = grade_of_root(root, labels)
            for sign in (1, -1):
                assert h.bracket(g.x(root, sign)) == sign * grade * g.x(root, sign)
        assert all(h.bracket(g.h(i)).is_zero() for i in range(system.rank))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_richardson_dimension_for_even_partitions(n):
    system = build_root_system("A", n - 1)
    g = build_chevalley(system)
    for p in partitions_of(n):
        labels = weighted_dynkin(p)
        parabolic = associated_parabolic(system, labels)
        if is_even_partition(p):
            rep = good_position_representative(g, labels)
            levi = parabolic.levi_dimension
            assert g.centralizer_dimension(rep) == levi
            # orbit codimension counts the nilradical twice
            nilradical = len(system.positive_roots) - len(parabolic.positive_roots)
            assert g.dim - levi == 2 * nilradical
        else:
            with pytest.raises(ValueError):
                good_position_representative(g, labels)


EVEN_PARTITIONS = [
    p.parts for n in range(2, 7) for p in partitions_of(n) if is_even_partition(p)
]


@pytest.mark.parametrize("parts", EVEN_PARTITIONS)
def test_orbit_rep_has_the_right_jordan_type(parts):
    # the representative verify_theorem uses acts on the natural module
    # V(omega_1) with Jordan type equal to the partition
    partition = Partition(parts)
    n = partition.total
    system = build_root_system("A", n - 1)
    algebra = build_chevalley(system)
    rep = good_position_representative(algebra, weighted_dynkin(partition))
    module = build_irrep(system, system.fundamental_weight(0))
    cols = operator_columns(module, rep)

    def rank_of_power(k):
        vecs = []
        for j in range(module.dim):
            v = {j: Fraction(1)}
            for _ in range(k):
                v = module.apply_cols(cols, v)
            vecs.append(v)
        return rank_of_sparse(vecs)

    assert jordan_type_of_nilpotent_matrix(n, rank_of_power) == partition
