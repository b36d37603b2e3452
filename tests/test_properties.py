"""Property tests over small modules: Kostant's multiplicity formula at
q = 1 against Freudenthal's recursion, and the Weyl invariance of
multiplicities, and the kernel filtration of a random element of n+
with fractional coefficients against the whole-module oracle.
Property tests over small boxes of root coordinates: every cell of a
partition table against multiset enumeration, and the same
q_partition whether a q-analog's shared table or a single call filled
the cache.  Levi transitivity over every Levi of six systems, F4 among
them: the Borel q-analog is the parabolic one convolved with the
Levi's own, from the independent oracle of `levi_q_analog_oracle`.
Property tests over weights in a small box: the rules
that the dominant conjugate, star and the combinatorial height cht obey
along roots and under simple reflections, the norm bound on cht, and
the direct predicate for cht = 0.  On every system the default caps
allow, every weight the library derives (sums, multiples,
reflections, star, rho and its parabolic halves, the zero and
fundamental weights) is the weight the checking constructor makes of
its coordinates.  Property tests over small random
sparse matrices: the one elimination's ranks, kernels and tails against
a plain Gauss-Jordan over Fraction, and its (row, tail) against a
reduction that divides out their content after every step, which the
one elimination leaves to the rows it keeps.  Examples are
derandomized and no example database is kept, so every run checks the
same cases."""

import functools
import itertools
import math
import operator
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import lieq.linalg
from lieq import (
    AlgebraElement,
    Caps,
    QPolynomial,
    bk_jump_polynomial,
    build_chevalley,
    build_irrep,
    build_root_system,
    cht,
    cht_is_zero_fast,
    freudenthal_multiplicity,
    lusztig_q_analog,
    q_partition,
    star,
    weyl_dimension,
)
from lieq.linalg import eliminate, rank_of_sparse, sparse_echelon, sparse_nullspace
from lieq.qanalog import _partition_table
from lieq.rootsystem import _DIAGRAMS, RootSystem, WeylElement
from oracles import (
    eliminate_dividing,
    filtration_oracle,
    fraction_gauss_jordan,
    fraction_rank,
    levi_q_analog_oracle,
    partition_poly_oracle,
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
    roots, so that lam shares mu's root-lattice class.  The system is
    drawn first, so each system gets its share of the examples however
    many small modules it has."""
    key = draw(st.sampled_from(SYSTEMS))
    mu_fc = draw(st.sampled_from([mu for k, mu in SMALL_MODULES if k == key]))
    system = build_root_system(*key)
    mu = system.weight(mu_fc)
    depth = draw(st.lists(st.integers(0, 4), min_size=system.rank, max_size=system.rank))
    return mu, mu - system.weight(depth, basis="root")


# more examples than the other properties: drawn system first, 120 give
# every system at least about a dozen
MODULE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=120)


@MODULE_SETTINGS
@given(module_and_weight())
def test_kostant_sum_at_one_is_freudenthal(pair):
    mu, lam = pair
    assert lusztig_q_analog(mu, lam).evaluate(1) == freudenthal_multiplicity(mu, lam)


@MODULE_SETTINGS
@given(module_and_weight())
def test_multiplicity_is_invariant_under_simple_reflections(pair):
    mu, lam = pair
    system = mu.system
    m = freudenthal_multiplicity(mu, lam)
    for i in range(system.rank):
        assert freudenthal_multiplicity(mu, system.simple_reflection(i).apply(lam)) == m


TABLE_SYSTEMS = [("A", 2), ("A", 3), ("B", 2), ("G2", 2)]


@st.composite
def partition_box(draw):
    """(system, parabolic, top): a random standard parabolic and a box
    with every root coordinate in [0, 3]."""
    system = build_root_system(*draw(st.sampled_from(TABLE_SYSTEMS)))
    rank = system.rank
    levi = draw(st.sets(st.integers(0, rank - 1)))
    top = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank))
    return system, system.parabolic(levi), tuple(top)


@PROPERTY_SETTINGS
@given(partition_box())
def test_every_cell_of_a_partition_table_is_the_multiset_count(box):
    system, parabolic, top = box
    roots = parabolic.nilradical
    strides, cells = _partition_table(parabolic, top)
    for rc in itertools.product(*(range(t + 1) for t in top)):
        cell = QPolynomial(cells[sum(map(operator.mul, rc, strides))])
        assert cell == partition_poly_oracle(system, system.weight(rc, "root"), roots)


@PROPERTY_SETTINGS
@given(partition_box(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_q_partition_is_the_same_from_a_shared_table_or_alone(box, mu_fc):
    # two systems of their own, so that both caches start empty: in one
    # a q-analog's one table fills every point of its walk, in the other
    # each point is a single call with its own table
    system, parabolic, depth = box
    shared, alone = (RootSystem(system.type_label, system.rank, Caps()) for _ in "ab")
    mu = shared.weight(mu_fc[: system.rank])
    levi = sorted(parabolic.indices)
    lusztig_q_analog(mu, mu - shared.weight(depth, "root"), shared.parabolic(levi))
    assert shared._q_partitions
    for (_, rc), value in shared._q_partitions.items():
        alone._q_partitions.clear()
        assert q_partition(alone.weight(rc, "root"), alone.parabolic(levi)) == value


LEVI_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]
LEVI_DRAWS = 8
# the nonzero terms m_P * m_L summed over all draws, pinned so that the
# Levi side is seen to be exercised
LEVI_TERMS = {
    ("A", 3): 116, ("B", 3): 119, ("C", 3): 102, ("D", 4): 333, ("G2", 2): 44, ("F4", 4): 278,
}


@pytest.mark.parametrize("key", LEVI_SYSTEMS)
def test_borel_q_analog_is_the_parabolic_one_times_the_levi_one(key):
    # m_B^lam_mu = sum over L-dominant nu with nu - lam in the Levi root
    # cone of m_P^nu_mu * m_L^lam_nu: the Borel partition function is the
    # convolution of those of n_P and of the Levi roots, and m_P is
    # alternating under W_L's shifted action.  Seeded draws, LEVI_DRAWS
    # per Levi: mu dominant with entries <= 2, lam = mu minus a sum of simple
    # roots with coefficients <= 3.
    system = build_root_system(*key)
    rank = system.rank
    rng = random.Random(f"levi:{system.name}")
    terms = 0
    for size in range(rank + 1):
        for levi in itertools.combinations(range(rank), size):
            parabolic = system.parabolic(levi)
            for _ in range(LEVI_DRAWS):
                mu = system.weight([rng.randint(0, 2) for _ in range(rank)])
                top = [rng.randint(0, 3) for _ in range(rank)]
                lam = mu - system.weight(top, "root")
                total: dict = {}
                ranges = (range(t + 1) if i in levi else (0,) for i, t in enumerate(top))
                for c in itertools.product(*ranges):
                    nu = lam + system.weight(c, "root")
                    if any(nu.fc[i] < 0 for i in levi):
                        continue
                    outer = lusztig_q_analog(mu, nu, parabolic)
                    if not outer:
                        continue
                    inner = levi_q_analog_oracle(nu, lam, levi)
                    terms += 1
                    for d, a in outer.coeffs.items():
                        for e, b in inner.coeffs.items():
                            total[d + e] = total.get(d + e, 0) + a * b
                assert QPolynomial(total) == lusztig_q_analog(mu, lam)
    assert terms == LEVI_TERMS[key]


# many module maps have non-integral entries (in A2, A3, B2 and C3 among
# SMALL_MODULES); these coefficients give x denominators of its own
COEFFICIENTS = (Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(3))


@st.composite
def filtration_instance(draw):
    """(module, x, lam, parabolic): V(mu) from SMALL_MODULES, x a sum of
    positive root vectors with coefficients from COEFFICIENTS, lam a
    weight of V(mu) drawn by multiplicity, and the Borel or a random
    standard parabolic."""
    key, mu_fc = draw(st.sampled_from(SMALL_MODULES))
    system = build_root_system(*key)
    module = build_irrep(system, system.weight(mu_fc))
    algebra = build_chevalley(system)
    roots = draw(st.lists(st.sampled_from(system.positive_roots), min_size=1))
    # half the time every simple root vector too, so x has long strings
    if draw(st.booleans()):
        roots += system.simple_roots
    terms = sorted({algebra.x_index(root) for root in roots})
    x = AlgebraElement(algebra, {b: draw(st.sampled_from(COEFFICIENTS)) for b in terms})
    lam = system.weight(draw(st.sampled_from(module.weights)))
    # the Borel half the time: its Levi-highest spaces are the whole
    # weight spaces, where a wrong scale is likeliest to change a rank
    levi = draw(st.one_of(st.just(()), st.sets(st.integers(0, system.rank - 1))))
    return module, x, lam, system.parabolic(levi)


# more examples than the other properties: a wrong scale shows only where
# an image mixes entries of different denominators
@settings(PROPERTY_SETTINGS, max_examples=200)
@given(filtration_instance())
def test_filtration_matches_the_whole_module_oracle(instance):
    module, x, lam, parabolic = instance
    report = bk_jump_polynomial(module, x, lam, parabolic)
    dims, jump = filtration_oracle(module, x, lam, parabolic)
    assert (report.subspace_dims, report.jump_polynomial) == (dims, jump)


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


# every (type, rank) the default caps allow
DEFAULT_CAP_SYSTEMS = [
    (label, rank)
    for label, row in _DIAGRAMS.items()
    for rank in range(row.least_rank, (row.least_rank if row.fixed_rank else Caps().rank) + 1)
]


def assert_checked(system, weight):
    """weight is what `system.weight` makes of its coordinates: a tuple
    of rank ints, bound to system."""
    assert weight.system is system
    assert type(weight.fc) is tuple and len(weight.fc) == system.rank
    assert all(type(x) is int for x in weight.fc)
    assert weight == system.weight(weight.fc)


def system_id(key):
    return key[0] if key[0] in ("G2", "F4") else f"{key[0]}{key[1]}"


@pytest.mark.parametrize("key", DEFAULT_CAP_SYSTEMS, ids=system_id)
def test_weights_of_the_system_are_checked_weights(key):
    system = build_root_system(*key)
    rank = system.rank
    derived = [system.rho, system.zero_weight()]
    derived += [system.fundamental_weight(i) for i in range(rank)]
    derived.append(system.weight(range(1, rank + 1), "root"))
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(rank), size):
            derived.append(system.parabolic(nodes).rho_doubled)
    for weight in derived:
        assert_checked(system, weight)


@pytest.mark.parametrize("key", DEFAULT_CAP_SYSTEMS, ids=system_id)
@settings(PROPERTY_SETTINGS, max_examples=20)
@given(data=st.data())
def test_derived_weights_are_checked_weights(key, data):
    system = build_root_system(*key)
    coords = st.lists(st.integers(-3, 3), min_size=system.rank, max_size=system.rank)
    a, b = system.weight(data.draw(coords)), system.weight(data.draw(coords))
    k = data.draw(st.integers(-3, 3))
    reflections = [system.simple_reflection(i) for i in range(system.rank)]
    coxeter = functools.reduce(WeylElement.compose, reflections)
    derived = [a + b, a - b, -a, k * a, a * k, star(a)]
    for w in [*reflections, coxeter]:
        derived += [w.apply(a), system.shifted_action(w, a)]
    for weight in derived:
        assert_checked(system, weight)


@st.composite
def sparse_matrix(draw):
    """(rows, columns): up to 5 sparse rows over up to 5 column keys taken
    from range(10) in order, entries int or Fraction (three in seven of
    them zero), some rows and columns forced to zero."""
    columns = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5)))
    n_rows = draw(st.integers(0, 5))
    zero_rows = draw(st.sets(st.integers(0, n_rows), max_size=2))
    zero_cols = draw(st.sets(st.sampled_from(columns), max_size=2))
    size = n_rows * len(columns)
    nums = draw(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=size, max_size=size)
    )
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=size, max_size=size))
    rows = []
    for n in range(n_rows):
        row = {}
        for j, c in enumerate(columns):
            k = n * len(columns) + j
            if nums[k] and n not in zero_rows and c not in zero_cols:
                row[c] = Fraction(nums[k], dens[k]) if dens[k] > 1 else nums[k]
        rows.append(row)
    return rows, columns


def dot(row, vec):
    return sum(v * vec.get(k, 0) for k, v in row.items())


@PROPERTY_SETTINGS
@given(sparse_matrix())
def test_rank_matches_gauss_jordan(matrix):
    rows, columns = matrix
    assert rank_of_sparse(rows) == fraction_rank(rows, columns)


@PROPERTY_SETTINGS
@given(sparse_matrix())
# the last column's kernel vector leaves the elimination as 2 (0, 1, 1)
@example(([{0: 2, 1: -1, 2: 1}, {}, {0: 2}], [0, 1, 2]))
def test_nullspace_is_a_kernel_basis(matrix):
    rows, columns = matrix
    _, free, kernel = fraction_gauss_jordan(rows, columns)
    basis = sparse_nullspace(rows, columns)
    assert len(basis) == len(columns) - fraction_rank(rows, columns)
    for vec in basis:
        assert all(type(v) is int for v in vec.values())
        assert math.gcd(*vec.values()) == 1
        assert all(dot(row, vec) == 0 for row in rows)
    # independent, and spanning the oracle's kernel
    assert fraction_rank(basis, columns) == len(basis)
    assert fraction_rank(basis + kernel, columns) == len(basis)
    # one vector per dependent column, in column order, positive there
    # and zero on every later column
    lasts = [max(vec) for vec in basis]
    assert lasts == free
    assert all(vec[last] > 0 for vec, last in zip(basis, lasts))
    # so each is the oracle's vector for its column, as a primitive int
    # vector
    for vec, ref in zip(basis, kernel):
        den = math.lcm(*(v.denominator for v in ref.values()))
        ints = {k: int(v * den) for k, v in ref.items() if v}
        g = math.gcd(*ints.values())
        assert vec == {k: v // g for k, v in ints.items()}


def int_rows(rows):
    """Each row times the lcm of its denominators."""
    inputs = []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row.values()))
        inputs.append({k: int(v * den) for k, v in row.items()})
    return inputs


def positive_multiple(new: dict, old: dict) -> bool:
    """new = k old for some rational k > 0, keys and all."""
    if new.keys() != old.keys():
        return False
    if not old:
        return True
    k0 = next(iter(old))
    return new[k0] * old[k0] > 0 and all(
        new[k] * old[k0] == new[k0] * old[k] for k in old
    )


@PROPERTY_SETTINGS
@given(sparse_matrix())
def test_eliminate_keeps_the_tail_invariant(matrix):
    rows, _ = matrix
    inputs = int_rows(rows)
    pivots: dict = {}
    for n, row in enumerate(inputs):
        reduced, tail = eliminate(dict(row), {n: 1}, pivots)
        assert tail[n] != 0
        assert not reduced.keys() & pivots.keys()
        combination: dict = {}
        for k, c in tail.items():
            for key, v in inputs[k].items():
                combination[key] = combination.get(key, 0) + c * v
        assert reduced == {k: v for k, v in combination.items() if v}
        if reduced:
            pivots[min(reduced)] = (reduced, tail)


@PROPERTY_SETTINGS
@given(sparse_matrix())
def test_eliminate_is_a_positive_multiple_of_the_dividing_reduction(matrix):
    """With the same pivots, `eliminate` reduces to the keys of the
    reduction that divides after every step, its (row, tail) a positive
    multiple of that one; each kept row is made primitive, as
    `sparse_echelon` keeps it, and the two echelon bases agree."""
    rows, _ = matrix
    inputs = int_rows(rows)
    pivots: dict = {}
    primitive_rows: dict = {}
    for n, row in enumerate(inputs):
        old_row, old_tail = eliminate_dividing(row, {n: 1}, pivots)
        new_row, new_tail = eliminate(dict(row), {n: 1}, pivots)
        assert new_row.keys() == old_row.keys()
        joint_new = {**new_row, **{("tail", k): v for k, v in new_tail.items()}}
        joint_old = {**old_row, **{("tail", k): v for k, v in old_tail.items()}}
        assert positive_multiple(joint_new, joint_old)
        if old_row:
            p = min(old_row)
            pivots[p] = (old_row, old_tail)
            g = math.gcd(*old_row.values())
            primitive_rows[p] = {k: v // g for k, v in old_row.items()}
    echelon = sparse_echelon(dict(row) for row in inputs)
    assert {p: row for p, (row, _) in echelon.items()} == primitive_rows
    for row, tail in echelon.values():
        assert math.gcd(*row.values()) == 1
        assert tail == {}


def test_eliminate_divides_no_content(monkeypatch):
    """One gcd per elimination step, for r and c: no step divides out
    the content of row and tail.  Each step makes one `add_scaled` call
    on the row, as the pivots' tails here are empty."""
    calls = {"gcd": 0, "add_scaled": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(lieq.linalg, "gcd", counted("gcd", math.gcd))
    monkeypatch.setattr(
        lieq.linalg, "add_scaled", counted("add_scaled", lieq.linalg.add_scaled)
    )
    pivots = {
        0: ({0: 2, 1: 1, 2: 1, 3: 1}, {}),
        1: ({1: 3, 2: 1, 3: 2}, {}),
        2: ({2: 5, 3: 1}, {}),
    }
    # steps at 0 (r, c = 1, 2), 1 (1, 1) and 2 (5, 3)
    row, tail = eliminate({0: 4, 1: 5, 2: 6, 3: 2}, {7: 2}, pivots)
    assert (row, tail) == ({3: -13}, {7: 10})
    assert calls == {"gcd": 3, "add_scaled": 3}
