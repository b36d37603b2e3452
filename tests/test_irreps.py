import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import lieq.irreps
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
from lieq.linalg import rank_of_sparse, sparse_echelon
from lieq.orbits import BUILTIN_ORBITS, associated_parabolic, partition_labels
from lieq.qpoly import QPolynomial
from lieq.rootsystem import RootSystem

from oracles import (
    commutator_columns, dominant_weights_with_dim_bound, filtration_oracle,
    operator_columns,
)


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


@pytest.mark.parametrize(
    "key,fc",
    [
        (("A", 1), (199,)),
        (("A", 2), (12, 0)),
        (("A", 2), (4, 4)),
        (("A", 2), (6, 3)),
        (("B", 2), (6, 0)),
        (("B", 2), (0, 8)),
        (("B", 2), (3, 2)),
        (("G2", 2), (4, 0)),
        (("G2", 2), (2, 1)),
    ],
)
def test_freudenthal_tables_with_long_root_strings_match_the_module(key, fc):
    # root strings of four or more steps above a dominant weight, up to
    # 100 in A1 V(199); the module side counts each weight space
    system = build_root_system(*key)
    mu = system.weight(fc)
    module = build_irrep(system, mu)
    table = dominant_multiplicities(mu)
    dominant = {w for w in module.weights if min(w) >= 0}
    assert sorted(table) == sorted(dominant)
    for w in dominant:
        assert table[w] == len(module.weight_space(system.weight(w))), w


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
            for row in column[1::2]:
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
# map as [[col, [[row, str(v)] in stored order]] per generator], the
# entries v = Fraction(n, den) read from each flat (den, row0, n0, row1,
# n1, ...) column
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
            [[c, [[row, str(Fraction(n, col[0]))]
                  for row, n in zip(col[1::2], col[2::2])]]
             for c, col in by_col.items()]
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


def test_modules_keep_under_500_bytes_per_basis_vector():
    # every module of dim <= 200 in module-build's six systems, with its
    # principal operators, built under tracemalloc in systems outside the
    # process cache; what each system's modules keep, per basis vector
    counts = {("A", 4): 36, ("B", 3): 15, ("C", 3): 13, ("D", 4): 17,
              ("G2", 2): 9, ("F4", 4): 3}
    kept = {}
    for key, count in counts.items():
        system = RootSystem(*key, Caps())
        e = principal_nilpotent(build_chevalley(system))
        assert e.is_nilpotent()
        borel = system.borel()
        mus = dominant_weights_with_dim_bound(system, 200)
        assert len(mus) == count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for mu in mus:
                bk_jump_polynomial(build_irrep(system, mu), e, mu, borel)
            total = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept[key] = total // sum(module.dim for module in system._irreps.values())
    assert all(per_vector < 500 for per_vector in kept.values()), kept


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


def counted_echelons(monkeypatch) -> list:
    """Replace the filtration's `sparse_echelon` by a wrapper that
    records the number of rows of each call."""
    calls = []
    echelon = lieq.irreps.sparse_echelon

    def counted(rows):
        rows = list(rows)
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(lieq.irreps, "sparse_echelon", counted)
    return calls


def recorded_images(monkeypatch) -> list:
    """Replace the filtration's `_scaled_image` by a wrapper that
    records each (vector, image) pair."""
    steps = []
    scaled_image = lieq.irreps._scaled_image

    def recorded(terms, vec):
        image = scaled_image(terms, vec)
        steps.append((dict(vec), dict(image)))
        return image

    monkeypatch.setattr(lieq.irreps, "_scaled_image", recorded)
    return steps


def assert_line_steps_keep_echelon_rows(steps):
    """Each power of a one-line chain is the one row that sparse_echelon
    keeps of the power before's image: primitive, its sign kept."""
    for (_, image), (vec, _) in zip(steps, steps[1:]):
        ((row, _),) = sparse_echelon([dict(image)]).values()
        assert vec == row


def test_long_one_line_chain_builds_no_echelon(monkeypatch):
    # weight 0 of V(58) is one line that e carries up and f carries down
    # 29 weights; f's images are large ints (870, 868, ...) until the
    # line step divides them by their gcd, as sparse_echelon would
    system, module = module_of("A", 1, (58,))
    algebra = build_chevalley(system)
    root = system.positive_roots[0]
    lam, borel = system.zero_weight(), system.borel()
    steps = recorded_images(monkeypatch)
    calls = counted_echelons(monkeypatch)
    for x in (algebra.x(root), algebra.x(root, -1)):
        steps.clear()
        report = bk_jump_polynomial(module, x, lam, borel)
        assert calls == []
        assert report.subspace_dims == [0] * 29 + [1]
        assert report.jump_polynomial == QPolynomial({29: 1})
        assert (report.subspace_dims, report.jump_polynomial) == filtration_oracle(
            module, x, lam, borel
        )
        assert len(steps) == 30 and not steps[-1][1]
        assert_line_steps_keep_echelon_rows(steps)
    assert max(image[min(image)] for _, image in steps[:-1]) == 870


def test_line_killed_by_the_first_power(monkeypatch):
    system, module = module_of("A", 2, (1, 1))
    e = principal_nilpotent(build_chevalley(system))
    mu, borel = module.highest_weight, system.borel()
    calls = counted_echelons(monkeypatch)
    report = bk_jump_polynomial(module, e, mu, borel)
    assert calls == []
    assert report.subspace_dims == [1]
    assert (report.subspace_dims, report.jump_polynomial) == filtration_oracle(
        module, e, mu, borel
    )


def test_weight_space_that_narrows_to_a_line(monkeypatch):
    # the zero weight of the adjoint module of A3 has dimension 3; three
    # powers reduce an echelon basis, then the space is one line
    system, module = module_of("A", 3, (1, 0, 1))
    e = principal_nilpotent(build_chevalley(system))
    lam, borel = system.zero_weight(), system.borel()
    calls = counted_echelons(monkeypatch)
    report = bk_jump_polynomial(module, e, lam, borel)
    assert calls == [3, 3, 2]
    assert report.subspace_dims == [0, 1, 2, 3]
    assert (report.subspace_dims, report.jump_polynomial) == filtration_oracle(
        module, e, lam, borel
    )


def test_line_from_a_levi_highest_nullspace(monkeypatch):
    # the Levi-highest space of V(1,2,0) at (1,-2,0) for the parabolic of
    # A3 [2,2] is one kernel vector with two entries, not a unit vector;
    # some of its images lead with a negative entry
    system, module = module_of("A", 3, (1, 2, 0))
    labels = partition_labels(system, Partition((2, 2)))
    x = good_position_representative(build_chevalley(system), labels)
    parabolic = associated_parabolic(system, labels)
    lam = system.weight((1, -2, 0))
    (line,) = module.l_highest_space(lam, parabolic)
    assert len(line) == 2
    steps = recorded_images(monkeypatch)
    calls = counted_echelons(monkeypatch)
    report = bk_jump_polynomial(module, x, lam, parabolic)
    assert calls == []
    assert_line_steps_keep_echelon_rows(steps)
    assert any(image[min(image)] < 0 for _, image in steps[:-1])
    assert report.subspace_dims == [0, 0, 0, 0, 1]
    assert (report.subspace_dims, report.jump_polynomial) == filtration_oracle(
        module, x, lam, parabolic
    )


def test_element_keeps_its_int_coefficients_across_modules():
    system = build_root_system("B", 2)
    algebra = build_chevalley(system)
    first, second = system.positive_roots[:2]
    x = Fraction(2, 3) * algebra.x(first) - Fraction(4, 9) * algebra.x(second)
    kept = x.int_coeffs()
    for fc in [(1, 0), (0, 2)]:
        module = build_irrep(system, system.weight(fc))
        assert_filtration_matches_oracle(module, x, system.borel())
        assert x.int_coeffs() is kept
        terms = lieq.irreps._scaled_terms(module, x)
        assert [w for _, w in terms] == list(kept.values())
    # a fresh scaling of coeffs: 2/3 and -4/9 times 9, over their gcd 2
    den = math.lcm(*(c.denominator for c in x.coeffs.values()))
    nums = {b: int(c * den) for b, c in x.coeffs.items()}
    g = math.gcd(*nums.values())
    assert kept == {b: n // g for b, n in nums.items()}
    assert sorted(kept.values()) == [-2, 3]


def test_only_powers_of_two_or_more_vectors_build_an_echelon(monkeypatch):
    # a fixed small principal sweep: every dominant weight of every
    # module of dimension <= 30 of four systems; a power that is one
    # line must not reach sparse_echelon (248 of the 306 powers here
    # are one line)
    calls = counted_echelons(monkeypatch)
    instances = 0
    for key in [("A", 2), ("A", 3), ("B", 2), ("G2", 2)]:
        system = build_root_system(*key)
        e = principal_nilpotent(build_chevalley(system))
        for mu in dominant_weights_with_dim_bound(system, 30):
            module = build_irrep(system, mu)
            for fc in sorted(dominant_multiplicities(mu)):
                bk_jump_polynomial(module, e, system.weight(fc), system.borel())
                instances += 1
    assert min(calls) >= 2
    assert (instances, len(calls)) == (121, 58)


def counted_fractions(monkeypatch) -> list:
    """Replace `Fraction` in `lieq.irreps` by a wrapper that records
    the arguments of each construction."""
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lieq.irreps, "Fraction", counted)
    return made


@pytest.mark.parametrize(
    "key,fc", [(("A", 3), (1, 0, 1)), (("B", 2), (1, 1)), (("G2", 2), (1, 1))]
)
def test_levi_highest_spaces_are_the_exact_kernels(key, fc):
    # each column of e_i has its own den, so every constraint row mixes
    # dens; at every weight and for every parabolic, the space is killed
    # by the Levi's raising maps in the exact action and has the
    # dimension of the kernel of those maps on the weight space
    system, module = module_of(key[0], key[1], fc)
    for size in range(1, system.rank + 1):
        for indices in itertools.combinations(range(system.rank), size):
            parabolic = system.parabolic(list(indices))
            for wt in sorted(set(module.weights)):
                space = module.l_highest_space(system.weight(wt), parabolic)
                for v in space:
                    for i in indices:
                        assert module.apply_cols(module.e_cols[i], v) == {}
                assert rank_of_sparse(space) == len(space)
                units = module.weight_index[wt]
                images = [
                    {
                        (i, row): c
                        for i in indices
                        for row, c in module.apply_cols(
                            module.e_cols[i], {idx: 1}
                        ).items()
                    }
                    for idx in units
                ]
                assert len(space) == len(units) - rank_of_sparse(images)


def test_construction_filtration_and_operators_make_no_fraction(monkeypatch):
    # systems outside the process cache, so every module, lowering map
    # and operator below is built under the counter
    made = counted_fractions(monkeypatch)
    for key in [("A", 2), ("A", 3), ("B", 2), ("G2", 2)]:
        system = RootSystem(*key, Caps())
        e = principal_nilpotent(build_chevalley(system))
        for mu in dominant_weights_with_dim_bound(system, 30):
            module = build_irrep(system, mu)
            assert module.f_cols
            assert made == []
            for fc in sorted(dominant_multiplicities(mu)):
                bk_jump_polynomial(module, e, system.weight(fc), system.borel())
            assert made == []
    system = RootSystem("A", 3, Caps())
    module = build_irrep(system, system.weight((1, 0, 1)))
    algebra = build_chevalley(system)
    for b in range(algebra.dim):
        assert all(
            type(v) is int for column in module._basis_operator(b).values()
            for v in column
        )
    assert made == []
    # the exact action still reads each entry through the counter
    module.apply_element(e, {0: 1})
    assert made


@pytest.mark.parametrize(
    "key,fc",
    [(("A", 3), (1, 0, 1)), (("B", 2), (1, 1)), (("G2", 2), (1, 0)),
     (("B", 3), (0, 0, 1))],
)
def test_non_simple_root_operators_are_int_commutators(key, fc):
    # each column is over its least positive den, and equals
    # [a, b] / N from the exact action of the two factors that
    # _basis_operator takes: the first simple root whose removal
    # leaves a root, and that rest
    system, module = module_of(key[0], key[1], fc)
    algebra = build_chevalley(system)
    by_rc = system._root_by_rc
    checked = 0
    for root in system.positive_roots:
        if root.height == 1:
            continue
        for alpha in system.simple_roots:
            rest = by_rc.get(tuple(a - b for a, b in zip(root.rc, alpha.rc)))
            if rest is not None:
                break
        for sign in (1, -1):
            first, second = algebra.x_index(alpha, sign), algebra.x_index(rest, sign)
            index = algebra.x_index(root, sign)
            op = module._basis_operator(index)
            for column in op.values():
                assert all(type(v) is int for v in column)
                assert column[0] > 0 and math.gcd(*column[::2]) == 1
            expected = commutator_columns(
                module, module._basis_operator(first), module._basis_operator(second),
                algebra._ad[first][second][index],
            )
            assert {
                col: {row: Fraction(n, column[0]) for row, n in
                      zip(column[1::2], column[2::2])}
                for col, column in op.items()
            } == expected
            checked += 1
    assert checked == 2 * (len(system.positive_roots) - system.rank)
