import hashlib
import itertools
import json
import random

import pytest

from lieq import (
    CapExceeded,
    Caps,
    QPolynomial,
    build_root_system,
    dominant_multiplicities,
    freudenthal_multiplicity,
    lusztig_q_analog,
    q_partition,
    weyl_dimension,
)
from lieq import qanalog
from lieq.rootsystem import RootSystem

from oracles import (
    dominant_weights_with_dim_bound,
    freudenthal_table_oracle,
    kostka_foulkes_oracle,
    lusztig_q_analog_oracle,
    partition_poly_oracle,
    total_dimension_check,
)


def poly(coeffs):
    return QPolynomial(coeffs)


def test_q_partition_zero_weight_is_one():
    for key in [("A", 2), ("A", 3), ("G2", 2)]:
        system = build_root_system(*key)
        assert q_partition(system.zero_weight()) == poly({0: 1})
        assert q_partition(system.zero_weight(), system.parabolic([0])) == poly({0: 1})


def test_q_partition_outside_span_is_zero():
    A2 = build_root_system("A", 2)
    assert q_partition(A2.weight((-1, 0), basis="root")) == QPolynomial.zero()
    # fundamental weight is not in the root lattice
    assert q_partition(A2.fundamental_weight(0)) == QPolynomial.zero()


def test_q_partition_reference_values_a3():
    # the worked example: mu = alpha1 + 2 alpha2 + 2 alpha3, Levi on node 2.
    # The source text prints 2q^2 + q^3 for p(mu), but exhaustive multiset
    # enumeration of its own five nilradical roots gives q^2 + 2q^3
    # (one 2-term and two 3-term expressions); the oracle below pins that.
    A3 = build_root_system("A", 3)
    P = A3.parabolic([1])
    mu = A3.weight((1, 2, 2), basis="root")
    r1mu = A3.shifted_action(A3.simple_reflection(0), mu)
    r2mu = A3.shifted_action(A3.simple_reflection(1), mu)
    assert q_partition(mu, P) == poly({2: 1, 3: 2})
    assert q_partition(r1mu, P) == poly({2: 1})
    assert q_partition(r2mu, P) == poly({3: 1})
    for gamma in (mu, r1mu, r2mu):
        oracle = partition_poly_oracle(A3, gamma, P.nilradical)
        assert q_partition(gamma, P) == oracle


def test_q_partition_reference_values_g2():
    G2 = build_root_system("G2", 2)
    P = G2.parabolic([1])  # Levi on the long simple root
    mu = G2.weight((0, 1))
    assert q_partition(mu, P) == poly({1: 1, 2: 1, 3: 1})
    r_alpha = G2.shifted_action(G2.simple_reflection(0), mu)
    r_beta = G2.shifted_action(G2.simple_reflection(1), mu)
    assert q_partition(r_alpha, P) == poly({2: 1})
    assert q_partition(r_beta, P) == poly({3: 1})
    assert tuple(int(x) for x in r_beta.root_coords()) == (3, 0)


def test_q_partition_borel_a2_highest_root():
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    assert q_partition(theta) == poly({1: 1, 2: 1})


@pytest.mark.parametrize(
    "key",
    [("A", 2), ("A", 3), ("B", 2), ("G2", 2), ("B", 3), ("C", 3), ("D", 4), ("F4", 4)],
)
def test_q_partition_matches_bruteforce_oracle(key):
    # B3, C3, D4 and F4 have roots with coefficients 2 to 4
    system = build_root_system(*key)
    rng = random.Random(17)
    parabolics = [None, system.parabolic([0]), system.parabolic([0, 1])]
    for _ in range(12):
        rc = [rng.randint(0, 3) for _ in range(system.rank)]
        gamma = system.weight(rc, basis="root")
        for P in parabolics:
            roots = (P or system.borel()).nilradical
            assert q_partition(gamma, P) == partition_poly_oracle(system, gamma, roots)


def test_q_partition_at_one_counts_plain_partitions():
    A3 = build_root_system("A", 3)
    for rc in itertools.product(range(3), repeat=3):
        gamma = A3.weight(rc, basis="root")
        oracle = partition_poly_oracle(A3, gamma, A3.positive_roots)
        assert q_partition(gamma).evaluate(1) == oracle.evaluate(1)


def test_lusztig_q_analog_reference_values():
    A3 = build_root_system("A", 3)
    mu = A3.weight((0, 1, 2))
    # frozen from the multiset oracle; see test_q_partition_reference_values_a3
    assert lusztig_q_analog(mu, A3.zero_weight(), A3.parabolic([1])) == poly({3: 1})
    G2 = build_root_system("G2", 2)
    assert lusztig_q_analog(
        G2.weight((0, 1)), G2.zero_weight(), G2.parabolic([1])
    ) == poly({1: 1})
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    assert lusztig_q_analog(theta, A2.zero_weight()) == poly({1: 1, 2: 1})


def test_lusztig_q_analog_at_highest_weight_is_one():
    for key in [("A", 2), ("B", 2), ("G2", 2)]:
        system = build_root_system(*key)
        mu = system.weight([1] * system.rank)
        assert lusztig_q_analog(mu, mu) == poly({0: 1})


def test_lusztig_warns_on_non_dominant_mu():
    A2 = build_root_system("A", 2)
    with pytest.warns(UserWarning):
        lusztig_q_analog(A2.weight((-1, 2), basis="root") * 3, A2.zero_weight())


def test_lusztig_zero_when_weights_differ_off_the_root_lattice():
    A2 = build_root_system("A", 2)
    mu = A2.weight(A2.highest_root.fc)
    lam = A2.fundamental_weight(0)
    assert lusztig_q_analog(mu, lam) == QPolynomial.zero()


def test_freudenthal_reference_values():
    A1 = build_root_system("A", 1)
    assert freudenthal_multiplicity(A1.weight((2,)), A1.zero_weight()) == 1
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    assert freudenthal_multiplicity(theta, theta) == 1
    assert freudenthal_multiplicity(theta, A2.zero_weight()) == 2
    assert freudenthal_multiplicity(theta, A2.fundamental_weight(0)) == 0


def test_freudenthal_is_zero_off_the_coset_of_the_root_lattice():
    # the table holds only weights of mu + Q; an off-coset lam's dominant
    # conjugate is not among them
    A3 = build_root_system("A", 3)
    assert freudenthal_multiplicity(A3.weight((1, 0, 0)), A3.zero_weight()) == 0
    B2 = build_root_system("B", 2)
    assert freudenthal_multiplicity(B2.weight((0, 1)), B2.zero_weight()) == 0
    assert freudenthal_multiplicity(B2.weight((0, 1)), B2.weight((0, -1))) == 1


def test_weyl_dimension_reference_values():
    A3 = build_root_system("A", 3)
    assert weyl_dimension(A3.zero_weight()) == 1
    assert weyl_dimension(A3.fundamental_weight(0)) == 4
    assert weyl_dimension(A3.weight((0, 1, 2))) == 45
    G2 = build_root_system("G2", 2)
    assert weyl_dimension(G2.weight((0, 1))) == 14
    assert weyl_dimension(G2.weight((1, 0))) == 7


@pytest.mark.parametrize("key", [("A", 2), ("A", 3), ("B", 2), ("G2", 2)])
def test_lusztig_at_one_equals_freudenthal(key):
    system = build_root_system(*key)
    rng = random.Random(23)
    for _ in range(6):
        mu = system.weight([rng.randint(0, 2) for _ in range(system.rank)])
        lam = system.weight([rng.randint(-2, 2) for _ in range(system.rank)])
        assert lusztig_q_analog(mu, lam).evaluate(1) == freudenthal_multiplicity(
            mu, lam
        )


@pytest.mark.parametrize(
    "key", [("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G2", 2), ("B", 3), ("D", 4), ("F4", 4)]
)
def test_multiplicities_sum_to_weyl_dimension(key):
    system = build_root_system(*key)
    rng = random.Random(31)
    for _ in range(5):
        mu = system.weight([rng.randint(0, 2) for _ in range(system.rank)])
        total, dim = total_dimension_check(mu)
        assert total == dim


# sha256 prefix of [mu, sorted dominant_multiplicities(mu)] for every mu in
# {0, ..., top - 1}^rank
MULTIPLICITY_DIGESTS = [
    (("A", 3), 3, "446a50a45609"),
    (("B", 3), 3, "5695e36b0884"),
    (("C", 3), 3, "bb41ad8c62ad"),
    (("G2", 2), 3, "c6d8a8d42602"),
    (("D", 4), 2, "9ba78590405d"),
    (("F4", 4), 2, "7d7797d29c84"),
]


@pytest.mark.parametrize("key,top,digest", MULTIPLICITY_DIGESTS)
def test_dominant_multiplicities_are_pinned(key, top, digest):
    system = build_root_system(*key)
    rows = []
    for mu in itertools.product(range(top), repeat=system.rank):
        table = dominant_multiplicities(system.weight(mu))
        rows.append([list(mu), sorted([list(fc), m] for fc, m in table.items())])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:12] == digest


def test_borel_q_analog_nonnegative_for_dominant_pairs():
    for key in [("A", 2), ("B", 2), ("G2", 2)]:
        system = build_root_system(*key)
        rng = random.Random(41)
        for _ in range(8):
            mu = system.weight([rng.randint(0, 2) for _ in range(system.rank)])
            lam_fc = [rng.randint(0, 2) for _ in range(system.rank)]
            poly_m = lusztig_q_analog(mu, system.weight(lam_fc))
            assert poly_m.is_nonnegative()


def test_dominant_multiplicities_match_freudenthal():
    A3 = build_root_system("A", 3)
    mu = A3.weight((0, 1, 2))
    table = dominant_multiplicities(mu)
    for fc, mult in table.items():
        assert freudenthal_multiplicity(mu, A3.weight(fc)) == mult
    assert table[mu.fc] == 1


@pytest.mark.parametrize("fc", [(-1, 1), (2, -3)])
def test_dominant_multiplicities_refuse_a_non_dominant_highest_weight(fc):
    A2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not dominant"):
        dominant_multiplicities(A2.weight(fc))
    assert fc not in A2._multiplicity_tables


def test_freudenthal_tables_match_the_term_by_term_oracle():
    # every module of dimension <= 200: A1 reaches V(199), whose strings
    # run 100 steps; the oracle rebuilds every string sum, the table sums
    # each string once, and both must give the same values in the same
    # key order
    for key in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2),
                ("B", 3), ("C", 3), ("D", 4), ("F4", 4)]:
        system = build_root_system(*key)
        for mu in dominant_weights_with_dim_bound(system, 200):
            got = dominant_multiplicities(mu)
            assert list(got.items()) == list(freudenthal_table_oracle(mu).items()), mu


def counted_dominant_conjugates(monkeypatch) -> list:
    """Replace `RootSystem.dominant_weight_fc` by a wrapper that records
    the fc of each call."""
    calls = []
    dominant = RootSystem.dominant_weight_fc

    def counted(self, fc):
        calls.append(tuple(fc))
        return dominant(self, fc)

    monkeypatch.setattr(RootSystem, "dominant_weight_fc", counted)
    return calls


@pytest.mark.parametrize(
    "key,fc,lookups",
    # the term-by-term loop made 4951 and 55 lookups
    [(("A", 1), (199,), 100), (("G2", 2), (2, 1), 25)],
)
def test_one_table_reads_each_weight_once(monkeypatch, key, fc, lookups):
    # a fresh system, so the table is built here: one lookup for w0 mu,
    # then one per weight on a root string above a dominant weight
    system = RootSystem(*key, Caps())
    calls = counted_dominant_conjugates(monkeypatch)
    dominant_multiplicities(system.weight(fc))
    assert len(calls) == len(set(calls)) == lookups


WEYL_SUM_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G2", 2)]


@pytest.mark.parametrize("key", WEYL_SUM_TYPES)
def test_lusztig_q_analog_matches_weyl_group_sum(key):
    system = build_root_system(*key)
    rank = system.rank
    parabolics = [None, system.parabolic([0]), system.parabolic(range(1, rank))]
    mus = [mu for mu in itertools.product(range(4), repeat=rank) if sum(mu) <= 3]
    lams = list(itertools.product(range(-1, 3), repeat=rank))
    rng = random.Random(53)
    pairs = [(rng.choice(mus), rng.choice(lams)) for _ in range(40)]
    pairs += [(mu, mu) for mu in rng.sample(mus, 3)]  # the constant term
    for mu_fc, lam_fc in pairs:
        mu, lam = system.weight(mu_fc), system.weight(lam_fc)
        for P in parabolics:
            assert lusztig_q_analog(mu, lam, P) == lusztig_q_analog_oracle(mu, lam, P)


def test_lusztig_q_analog_matches_weyl_group_sum_f4():
    F4 = build_root_system("F4", 4)
    for mu_fc in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]:
        for lam_fc in [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, -1)]:
            mu, lam = F4.weight(mu_fc), F4.weight(lam_fc)
            assert lusztig_q_analog(mu, lam) == lusztig_q_analog_oracle(mu, lam)


@pytest.mark.parametrize(
    "key,mu_fc",
    [
        (("A", 2), (-4, 1)),     # mu + rho = (-3, 2): regular
        (("A", 2), (-2, 0)),     # mu + rho = (-1, 1): fixed by s_{a1+a2}
        (("A", 3), (2, -3, 3)),  # (3, -2, 4): regular
        (("A", 3), (0, -2, 0)),  # (1, -1, 1): fixed by s_{a2}
        (("B", 2), (3, -4)),     # (4, -3): regular
        (("G2", 2), (-3, 2)),    # (-2, 3): regular
    ],
)
def test_lusztig_q_analog_non_dominant_mu(key, mu_fc):
    system = build_root_system(*key)
    mu = system.weight(mu_fc)
    singular = not system.is_regular(mu + system.rho)
    parabolics = [None, system.parabolic([0])]
    for lam_fc in itertools.product(range(-2, 2), repeat=system.rank):
        lam = system.weight(lam_fc)
        for P in parabolics:
            with pytest.warns(UserWarning, match="non-dominant"):
                got = lusztig_q_analog(mu, lam, P)
            assert got == lusztig_q_analog_oracle(mu, lam, P)
            if singular:
                assert got == QPolynomial.zero()


def test_lusztig_q_analog_is_not_gated_by_the_weyl_cap():
    # the orbit walk never lists W, so only weyl_group() applies the cap;
    # the adjoint q-analog at 0 is q^e summed over the exponents e
    cases = [("A", 6, (1, 2, 3, 4, 5, 6)), ("B", 5, (1, 3, 5, 7, 9))]
    for type_label, rank, exponents in cases:
        system = build_root_system(type_label, rank, Caps())
        adjoint = system.weight(system.highest_root.fc)
        got = lusztig_q_analog(adjoint, system.zero_weight(), system.borel())
        assert got == poly({e: 1 for e in exponents})
        assert got.evaluate(1) == freudenthal_multiplicity(adjoint, system.zero_weight())
        with pytest.raises(CapExceeded, match="2000"):
            system.weyl_group()
    A2 = build_root_system("A", 2, Caps(weyl_order=2))
    assert lusztig_q_analog(A2.zero_weight(), A2.zero_weight()) == poly({0: 1})
    with pytest.raises(CapExceeded, match="2"):
        A2.weyl_group()


def test_the_borel_is_one_cache_entry_whatever_its_spelling():
    A2 = build_root_system("A", 2)
    mu = A2.weight((1, 1))
    assert lusztig_q_analog(mu, A2.zero_weight()) == lusztig_q_analog(
        mu, A2.zero_weight(), A2.borel()
    )
    assert all(key[0] is not None for key in A2._q_partitions)
    gamma = A2.weight((1, 1), basis="root")
    assert q_partition(gamma) is q_partition(gamma, A2.borel())


def partitions(size, parts):
    """The partitions of size with at most parts parts, padded with
    zeros to that length, largest first."""
    if parts == 0:
        return [()] if size == 0 else []
    out = []
    for first in range(size, -1, -1):
        for rest in partitions(size - first, parts - 1):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


# largest |lambda| per rank: about a second of tier-1 time in all
KOSTKA_SIZES = {1: 12, 2: 14, 3: 12}


@pytest.mark.parametrize("rank", sorted(KOSTKA_SIZES))
def test_borel_q_analog_is_the_kostka_foulkes_polynomial(rank):
    # m^lambda_mu(q) = K_{lambda mu}(q) for dominant lambda, mu of sl_n:
    # the charge oracle reaches no q_partition, so it checks the DP too
    system = build_root_system("A", rank)
    nonzero = 0
    for size in range(KOSTKA_SIZES[rank] + 1):
        shapes = partitions(size, rank + 1)
        for shape in shapes:
            mu = system.weight([a - b for a, b in zip(shape, shape[1:])])
            for content in shapes:
                lam = system.weight([a - b for a, b in zip(content, content[1:])])
                expected = kostka_foulkes_oracle(shape, content)
                assert lusztig_q_analog(mu, lam) == expected, (shape, content)
                nonzero += bool(expected)
    assert nonzero > 20 * rank


def test_the_kostka_foulkes_oracle_reference_values():
    # K_{(n), mu} = q^{n(mu)}, n(mu) = sum (i - 1) mu_i, and the two
    # tableaux of shape (4, 1) and content (2, 2, 1) have charges 2 and 3
    assert kostka_foulkes_oracle((2, 1, 0), (1, 1, 1)) == poly({1: 1, 2: 1})
    assert kostka_foulkes_oracle((3, 0, 0), (1, 1, 1)) == poly({3: 1})
    assert kostka_foulkes_oracle((2, 2, 0, 0), (1, 1, 1, 1)) == poly({2: 1, 4: 1})
    assert kostka_foulkes_oracle((3, 1, 0, 0), (2, 1, 1, 0)) == poly({1: 1, 2: 1})
    assert kostka_foulkes_oracle((5, 0, 0), (2, 2, 1)) == poly({4: 1})
    assert kostka_foulkes_oracle((4, 1, 0), (2, 2, 1)) == poly({2: 1, 3: 1})
    assert kostka_foulkes_oracle((1, 1, 1), (3, 0, 0)) == QPolynomial.zero()


def fresh_system(type_label, rank):
    """A root system of its own, so that its caches start empty."""
    return RootSystem(type_label, rank, Caps())


def walk_points(system, mu, lam):
    """Root coordinates of every w(mu + rho) - rho - lam in the Z>=0 span
    of the simple roots, over the whole Weyl group: the points that the
    orbit walk of lusztig_q_analog reaches."""
    out = set()
    for w in system.weyl_group():
        rc = (system.shifted_action(w, mu) - lam).root_coords()
        if all(x >= 0 and x == int(x) for x in rc):
            out.add(tuple(int(x) for x in rc))
    return out


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G2", 2)])
def test_a_q_analog_fills_one_table_and_caches_only_its_walk(key, monkeypatch):
    fills = []
    real = qanalog._partition_table

    def counting(parabolic, top):
        fills.append(top)
        return real(parabolic, top)

    monkeypatch.setattr(qanalog, "_partition_table", counting)
    system = fresh_system(*key)
    rng = random.Random(61)
    parabolics = [None, system.parabolic([0]), system.parabolic([system.rank - 1])]
    shared = 0
    for _ in range(12):
        mu = system.weight([rng.randint(0, 2) for _ in range(system.rank)])
        lam = mu - system.weight([rng.randint(0, 2) for _ in range(system.rank)], "root")
        P = rng.choice(parabolics)
        pkey = (P or system.borel()).key
        before = set(system._q_partitions)
        walk = {(pkey, rc) for rc in walk_points(system, mu, lam)}
        fills.clear()
        first = lusztig_q_analog(mu, lam, P)
        assert set(system._q_partitions) == before | walk
        missing = [rc for _, rc in walk - before]
        # one table, over the coordinate-wise max of the missing points
        assert fills == ([tuple(map(max, zip(*missing)))] if missing else [])
        shared += len(missing) > 1
        fills.clear()
        assert lusztig_q_analog(mu, lam, P) == first
        assert fills == [] and set(system._q_partitions) == before | walk
    assert shared
