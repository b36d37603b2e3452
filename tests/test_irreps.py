import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from lieq import (
    CapExceeded,
    Caps,
    Partition,
    build_chevalley,
    build_irrep,
    build_root_system,
    bk_jump_polynomial,
    dominant_multiplicities,
    freudenthal_multiplicity,
    good_position_representative,
    lusztig_q_analog,
    principal_nilpotent,
    verify_theorem,
    weyl_dimension,
)
from lieq.chevalley import AlgebraElement
from lieq.orbits import BUILTIN_ORBITS, associated_parabolic, partition_labels
from lieq.qpoly import QPolynomial
from lieq.rootsystem import RootSystem

from oracles import dominant_weights_with_dim_bound, filtration_oracle, operator_columns


# modules whose highest weight is off the root lattice outside type A,
# plus the 26-dimensional module of F4
OFF_ROOT_LATTICE = [
    (("B", 2), (0, 1)),
    (("B", 3), (0, 0, 1)),
    (("C", 3), (1, 0, 0)),
    (("D", 4), (0, 0, 0, 1)),
    (("D", 4), (0, 0, 1, 0)),
    (("F4", 4), (1, 0, 0, 0)),
]


def module_of(label, rank, fc):
    system = build_root_system(label, rank)
    return system, build_irrep(system, system.weight(fc))


def assert_filtration_matches_oracle(module, x, parabolic):
    """subspace_dims and the jump polynomial at every weight of the
    module equal the filtration through x's whole-module matrix."""
    system = module.system
    for fc in sorted(set(module.weights)):
        lam = system.weight(fc)
        report = bk_jump_polynomial(module, x, lam, parabolic)
        dims, jump = filtration_oracle(module, x, lam, parabolic)
        assert (report.subspace_dims, report.jump_polynomial) == (dims, jump), fc


def test_reference_dimensions():
    _, V = module_of("A", 1, (2,))
    assert V.dim == 3
    _, V = module_of("G2", 2, (0, 1))
    assert V.dim == 14
    _, V = module_of("A", 3, (0, 1, 2))
    assert V.dim == 45


@pytest.mark.parametrize(
    "key,fc",
    [
        (("A", 2), (1, 1)),
        (("A", 3), (0, 1, 2)),
        (("A", 3), (2, 0, 0)),
        (("B", 2), (1, 2)),
        (("B", 2), (0, 2)),
        (("C", 3), (0, 1, 0)),
        (("G2", 2), (1, 0)),
        (("G2", 2), (1, 1)),
        (("D", 4), (0, 1, 0, 0)),
    ]
    + OFF_ROOT_LATTICE,
)
def test_dimension_and_weight_spaces_match_oracles(key, fc):
    system = build_root_system(*key)
    mu = system.weight(fc)
    module = build_irrep(system, mu)
    assert module.dim == weyl_dimension(mu)
    seen = {}
    for wfc in module.weights:
        seen[wfc] = seen.get(wfc, 0) + 1
    for wfc, mult in seen.items():
        assert freudenthal_multiplicity(mu, system.weight(wfc)) == mult


def test_sl2_relations_on_generator_matrices():
    cases = [(("A", 2), (1, 1)), (("B", 2), (0, 2)), (("G2", 2), (1, 0))]
    for key, fc in cases + OFF_ROOT_LATTICE:
        system = build_root_system(*key)
        module = build_irrep(system, system.weight(fc))
        for i in range(system.rank):
            for idx in range(module.dim):
                unit = {idx: Fraction(1)}
                ef = module.apply_cols(module.e_cols[i], module.apply_cols(module.f_cols[i], unit))
                fe = module.apply_cols(module.f_cols[i], module.apply_cols(module.e_cols[i], unit))
                h = module.weights[idx][i]
                diff = dict(ef)
                for k, v in fe.items():
                    diff[k] = diff.get(k, 0) - v
                diff = {k: v for k, v in diff.items() if v}
                expected = {idx: Fraction(h)} if h else {}
                assert diff == expected


def test_e_raises_weight_by_a_simple_root():
    system, module = module_of("A", 3, (1, 0, 1))
    for i in range(system.rank):
        alpha_fc = system._root_by_rc[
            tuple(1 if j == i else 0 for j in range(3))
        ].fc
        for col, column in module.e_cols[i].items():
            source = module.weights[col]
            for row in column:
                assert module.weights[row] == tuple(
                    a + b for a, b in zip(source, alpha_fc)
                )


def test_weight_space_extraction():
    system, module = module_of("G2", 2, (0, 1))
    zero = module.weight_space(system.zero_weight())
    assert len(zero) == 2
    top = module.weight_space(system.weight((0, 1)))
    assert len(top) == 1
    assert module.weight_space(system.weight((5, 5))) == []


def test_l_highest_space_dimensions():
    A3 = build_root_system("A", 3)
    V = build_irrep(A3, A3.weight((0, 1, 2)))
    P = A3.parabolic([1])
    assert len(V.l_highest_space(A3.zero_weight(), P)) == 1
    # Borel case returns the full weight space
    assert len(V.l_highest_space(A3.zero_weight(), A3.borel())) == len(
        V.weight_space(A3.zero_weight())
    )
    G2 = build_root_system("G2", 2)
    W = build_irrep(G2, G2.weight((0, 1)))
    assert len(W.l_highest_space(G2.zero_weight(), G2.parabolic([0]))) == 1
    assert len(W.l_highest_space(G2.zero_weight(), G2.parabolic([1]))) == 1
    # at the highest weight the space is the highest line
    assert len(W.l_highest_space(G2.weight((0, 1)), G2.parabolic([0]))) == 1


def test_apply_element_on_cartan_is_diagonal():
    system, module = module_of("A", 2, (1, 1))
    algebra = build_chevalley(system)
    h = algebra.h(0)
    for idx, fc in enumerate(module.weights):
        expected = {idx: fc[0]} if fc[0] else {}
        assert module.apply_element(h, {idx: Fraction(1)}) == expected


def test_apply_element_matches_defining_matrix_units():
    # X on the weight ladder of the defining module acts by +-1 steps
    system = build_root_system("A", 3)
    module = build_irrep(system, system.fundamental_weight(0))
    algebra = build_chevalley(system)
    x = algebra.x(system._root_by_rc[(0, 1, 1)])
    images = {
        col: image
        for col in range(module.dim)
        if (image := module.apply_element(x, {col: Fraction(1)}))
    }
    # alpha2+alpha3 moves the fourth ladder vector up to the second one
    assert len(images) == 1
    (col, image), = images.items()
    (row, value), = image.items()
    assert abs(value) == 1
    assert module.weights[col] == (0, 0, -1)
    assert module.weights[row] == (-1, 1, 0)


def assert_representation(module, pairs):
    """[x, y] acts as x y - y x on every unit vector, for each pair."""
    for x, y in pairs:
        xy = x.bracket(y)
        for idx in range(module.dim):
            unit = {idx: Fraction(1)}
            lhs = module.apply_element(x, module.apply_element(y, unit))
            rhs = module.apply_element(y, module.apply_element(x, unit))
            for k, v in rhs.items():
                lhs[k] = lhs.get(k, 0) - v
            lhs = {k: v for k, v in lhs.items() if v}
            assert lhs == module.apply_element(xy, unit)


def test_apply_element_is_a_representation_on_samples():
    system, module = module_of("A", 2, (1, 1))
    algebra = build_chevalley(system)
    rng = random.Random(3)
    samples = []
    for _ in range(8):
        x = AlgebraElement(
            algebra, {rng.randrange(algebra.dim): rng.randint(-2, 2) for _ in range(2)}
        )
        y = AlgebraElement(
            algebra, {rng.randrange(algebra.dim): rng.randint(-2, 2) for _ in range(2)}
        )
        samples.append((x, y))
    assert_representation(module, samples)
    # every basis pair on modules that need non-simple root operators
    for key, fc in [(("B", 2), (1, 1)), (("G2", 2), (1, 0)),
                    (("A", 3), (1, 0, 1)), (("C", 3), (1, 0, 0))]:
        system, module = module_of(key[0], key[1], fc)
        algebra = build_chevalley(system)
        basis = [AlgebraElement(algebra, {i: 1}) for i in range(algebra.dim)]
        assert_representation(module, [(x, y) for x in basis for y in basis])


# sha256 prefix of every basis operator on the module, as
# [[(col, sorted (row, str(v))) for each nonzero column] per basis element]
OPERATOR_DIGESTS = [
    (("A", 3), (1, 0, 1), "779cbd6a6bcd"),
    (("B", 2), (1, 1), "68de94383526"),
    (("C", 3), (1, 0, 0), "2fac7fb9305a"),
    (("G2", 2), (1, 0), "296225a4099b"),
    (("F4", 4), (0, 0, 0, 1), "4193522a9929"),
]


@pytest.mark.parametrize("key,fc,digest", OPERATOR_DIGESTS)
def test_basis_operators_are_pinned(key, fc, digest):
    system, module = module_of(key[0], key[1], fc)
    algebra = build_chevalley(system)
    ops = []
    for b in range(algebra.dim):
        x = AlgebraElement(algebra, {b: 1})
        op = []
        for col in range(module.dim):
            image = module.apply_element(x, {col: Fraction(1)})
            if image:
                op.append((col, sorted((row, str(v)) for row, v in image.items())))
        ops.append(op)
    assert hashlib.sha256(json.dumps(ops).encode()).hexdigest()[:12] == digest


# sha256 prefix, per system, of the construction of every module with
# dim <= 200, as [[mu, weights, e_cols, f_cols] for each mu], each column
# map as [[col, [[row, str(v)] in stored order]] per generator]
CONSTRUCTION_DIGESTS = [
    (("A", 4), 36, "46addb839848"),
    (("B", 3), 15, "3e84215359a2"),
    (("C", 3), 13, "5d308e722bc7"),
    (("D", 4), 17, "16b162383bdd"),
    (("G2", 2), 9, "81d1d760479c"),
    (("F4", 4), 3, "8b9de503396e"),
]


@pytest.mark.parametrize("key,count,digest", CONSTRUCTION_DIGESTS)
def test_construction_is_pinned(key, count, digest):
    def pinned(cols):
        return [
            [[c, [[row, str(v)] for row, v in col.items()]] for c, col in by_col.items()]
            for by_col in cols
        ]

    system = build_root_system(*key)
    modules = []
    for mu in dominant_weights_with_dim_bound(system, 200):
        module = build_irrep(system, mu)
        modules.append([
            list(mu.fc), [list(fc) for fc in module.weights],
            pinned(module.e_cols), pinned(module.f_cols),
        ])
    assert len(modules) == count
    assert hashlib.sha256(json.dumps(modules).encode()).hexdigest()[:12] == digest


def test_simple_root_operators_are_the_stored_maps():
    system, module = module_of("G2", 2, (1, 1))
    algebra = build_chevalley(system)
    for i in range(system.rank):
        simple = system._root_by_rc[tuple(int(j == i) for j in range(system.rank))]
        assert module._basis_operator(algebra.x_index(simple, 1)) is module.e_cols[i]
        assert module._basis_operator(algebra.x_index(simple, -1)) is module.f_cols[i]


def test_lowering_maps_are_built_on_first_use():
    # a system outside the process cache, so this test builds its modules
    system = RootSystem("A", 3, Caps())
    module = build_irrep(system, system.weight((1, 0, 1)))
    e = principal_nilpotent(build_chevalley(system))
    for parabolic in (system.borel(), system.parabolic([1])):
        for fc in sorted(set(module.weights)):
            bk_jump_polynomial(module, e, system.weight(fc), parabolic)
    assert module._f_cols is None
    f_cols = module.f_cols
    assert module.f_cols is f_cols
    # the same maps as on a module built in the process cache
    _, cached = module_of("A", 3, (1, 0, 1))
    assert f_cols == cached.f_cols and module.e_cols == cached.e_cols


def test_modules_keep_under_a_kilobyte_per_basis_vector():
    # every A4 module of dim <= 200 with its principal operators, built
    # under tracemalloc in a system outside the process cache
    system = RootSystem("A", 4, Caps())
    e = principal_nilpotent(build_chevalley(system))
    assert e.is_nilpotent()
    borel = system.borel()
    mus = dominant_weights_with_dim_bound(system, 200)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for mu in mus:
            bk_jump_polynomial(build_irrep(system, mu), e, mu, borel)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    dims = sum(module.dim for module in system._irreps.values())
    assert len(mus) == 36
    assert kept < 1000 * dims


@pytest.mark.parametrize(
    "key,fc", [(("A", 2), (1, 1)), (("B", 2), (1, 1)), (("G2", 2), (1, 0))] + OFF_ROOT_LATTICE
)
def test_apply_element_matches_operator_columns(key, fc):
    system, module = module_of(key[0], key[1], fc)
    algebra = build_chevalley(system)
    rng = random.Random(5)
    for _ in range(6):
        x = AlgebraElement(
            algebra, {rng.randrange(algebra.dim): rng.randint(-3, 3) for _ in range(4)}
        )
        cols = operator_columns(module, x)
        vec = {
            rng.randrange(module.dim): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(5)
        }
        vec = {k: v for k, v in vec.items() if v}
        assert module.apply_element(x, vec) == module.apply_cols(cols, vec)


def test_principal_jump_polynomial_on_sl2_adjoint():
    system, module = module_of("A", 1, (2,))
    algebra = build_chevalley(system)
    e = principal_nilpotent(algebra)
    report = bk_jump_polynomial(module, e, system.zero_weight(), system.borel())
    assert report.jump_polynomial == QPolynomial({1: 1})
    assert report.subspace_dims == [0, 1]


def test_jump_polynomial_of_reference_instances():
    A3 = build_root_system("A", 3)
    V = build_irrep(A3, A3.weight((0, 1, 2)))
    algebra = build_chevalley(A3)
    z = algebra.x(A3._root_by_rc[(1, 0, 0)]) + algebra.x(A3._root_by_rc[(0, 1, 1)])
    report = bk_jump_polynomial(V, z, A3.zero_weight(), A3.parabolic([1]))
    assert report.jump_polynomial == QPolynomial({3: 1})
    G2 = build_root_system("G2", 2)
    W = build_irrep(G2, G2.weight((0, 1)))
    gg = build_chevalley(G2)
    rep = good_position_representative(gg, (0, 2))
    report = bk_jump_polynomial(W, rep, G2.zero_weight(), G2.parabolic([0]))
    assert report.jump_polynomial == QPolynomial({1: 1})


def test_jump_polynomial_counts_lhi_dimension_at_one():
    A2 = build_root_system("A", 2)
    V = build_irrep(A2, A2.weight(A2.highest_root.fc))
    algebra = build_chevalley(A2)
    e = principal_nilpotent(algebra)
    for fc in {w for w in V.weights}:
        lam = A2.weight(fc)
        report = bk_jump_polynomial(V, e, lam, A2.borel())
        assert report.jump_polynomial.evaluate(1) == len(V.weight_space(lam))
        assert report.subspace_dims == sorted(report.subspace_dims)


def test_non_nilpotent_element_raises():
    system, module = module_of("A", 1, (2,))
    algebra = build_chevalley(system)
    root = system.positive_roots[0]
    semisimple = algebra.x(root) + algebra.x(root, -1)
    for bad in (algebra.h(0), semisimple):
        # the verdict is kept on the element; the second call raises too
        for _ in range(2):
            with pytest.raises(ValueError, match="not nilpotent"):
                bk_jump_polynomial(module, bad, system.zero_weight(), system.borel())


def test_jump_polynomial_for_zero_orbit():
    system, module = module_of("A", 2, (1, 1))
    algebra = build_chevalley(system)
    report = bk_jump_polynomial(
        module, algebra.zero(), system.zero_weight(), system.parabolic([0, 1])
    )
    # L-highest vectors of weight 0 for the full Levi: none in V(1,1)
    assert report.jump_polynomial == QPolynomial.zero()


def test_construction_is_deterministic():
    # systems under different caps keep separate caches, so each builds
    # its own module and algebra
    outcomes = []
    for caps in (Caps(), Caps(module_dim=499)):
        system = build_root_system("A", 3, caps)
        module = build_irrep(system, system.weight((0, 1, 2)))
        algebra = build_chevalley(system)
        z = algebra.x(system._root_by_rc[(1, 0, 0)]) + algebra.x(
            system._root_by_rc[(0, 1, 1)]
        )
        report = bk_jump_polynomial(
            module, z, system.zero_weight(), system.parabolic([1])
        )
        outcomes.append((module, report.jump_polynomial))
    (first, r1), (second, r2) = outcomes
    assert first is not second
    assert first.weights == second.weights
    assert first.e_cols == second.e_cols
    assert first.f_cols == second.f_cols
    assert r1 == r2


def test_caps_are_enforced():
    system = build_root_system("A", 3, Caps(module_dim=100))
    with pytest.raises(CapExceeded):
        build_irrep(system, system.weight((9, 9, 9)))


def test_module_cap_holds_on_a_cache_hit():
    default = build_root_system("A", 2)
    assert build_irrep(default, default.weight((2, 2))).dim == 27
    capped = build_root_system("A", 2, Caps(module_dim=5))
    mu = capped.weight((2, 2))
    with pytest.raises(CapExceeded, match="27"):
        build_irrep(capped, mu)
    with pytest.raises(CapExceeded, match="27"):
        verify_theorem(capped, mu, capped.zero_weight(), "principal")
    roomy = build_root_system("A", 2, Caps(module_dim=27))
    assert build_irrep(roomy, roomy.weight((2, 2))).dim == 27


def test_caller_system_owns_algebra_and_module():
    # rank 7 is above the default rank cap: nothing may fall back to a
    # default-caps system
    caps = Caps(rank=8, weyl_order=40320)
    system = build_root_system("A", 7, caps)
    assert build_root_system("a", 7, caps) is system
    algebra = build_chevalley(system)
    assert algebra.system is system
    omega1 = system.fundamental_weight(0)
    module = build_irrep(system, omega1)
    assert module.system is system
    borel = system.borel()
    e = principal_nilpotent(algebra)
    r = bk_jump_polynomial(module, e, omega1, borel).jump_polynomial
    assert r == lusztig_q_analog(omega1, omega1, borel) == QPolynomial({0: 1})
    assert freudenthal_multiplicity(omega1, omega1) == 1


@pytest.mark.parametrize("key,fc", OFF_ROOT_LATTICE)
def test_principal_filtration_off_root_lattice(key, fc):
    system = build_root_system(*key)
    mu = system.weight(fc)
    module = build_irrep(system, mu)
    e = principal_nilpotent(build_chevalley(system))
    borel = system.borel()
    dominant = sorted(dominant_multiplicities(mu))
    assert fc in dominant
    for lam_fc in dominant:
        lam = system.weight(lam_fc)
        r = bk_jump_polynomial(module, e, lam, borel).jump_polynomial
        assert r == lusztig_q_analog(mu, lam, borel)
    assert_filtration_matches_oracle(module, e, borel)


@pytest.mark.parametrize(
    "entry",
    [
        lambda s, mu: build_irrep(s, mu),
        lambda s, mu: weyl_dimension(mu),
        lambda s, mu: freudenthal_multiplicity(mu, s.zero_weight()),
        lambda s, mu: verify_theorem(s, mu, s.zero_weight(), "principal"),
    ],
    ids=["build_irrep", "weyl_dimension", "freudenthal_multiplicity", "verify_theorem"],
)
def test_non_dominant_highest_weight_rejected(entry):
    # one rule and one message on the module and the q-analog side
    A3 = build_root_system("A", 3)
    with pytest.raises(ValueError, match=r"^highest weight \(-1, 0, 1\) is not dominant$"):
        entry(A3, A3.weight((-1, 0, 1)))


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2)])
def test_principal_filtration_matches_whole_module_matrix(key):
    system = build_root_system(*key)
    e = principal_nilpotent(build_chevalley(system))
    for mu in dominant_weights_with_dim_bound(system, 60):
        assert_filtration_matches_oracle(build_irrep(system, mu), e, system.borel())


@pytest.mark.parametrize(
    "key,orbit,bound",
    [
        (("A", 3), (2, 2), 60),
        (("A", 3), (3, 1), 60),
        (("A", 4), (3, 1, 1), 50),
        (("G2", 2), "subregular", 60),
    ],
    ids=["A3-2,2", "A3-3,1", "A4-3,1,1", "G2-subregular"],
)
def test_good_position_filtration_matches_whole_module_matrix(key, orbit, bound):
    system = build_root_system(*key)
    if isinstance(orbit, str):
        labels = BUILTIN_ORBITS[key][orbit]
    else:
        labels = partition_labels(system, Partition(orbit))
    x = good_position_representative(build_chevalley(system), labels)
    parabolic = associated_parabolic(system, labels)
    for mu in dominant_weights_with_dim_bound(system, bound):
        assert_filtration_matches_oracle(build_irrep(system, mu), x, parabolic)
