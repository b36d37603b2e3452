import itertools
import random

import pytest

from lieq import (
    Caps,
    Partition,
    QPolynomial,
    bk_jump_polynomial,
    build_chevalley,
    build_irrep,
    build_root_system,
    cht,
    freudenthal_multiplicity,
    is_even_partition,
    lusztig_q_analog,
    partitions_of,
    principal_nilpotent,
    q_partition,
    vanishing_certificate,
    verify_theorem,
)
from lieq.verify import orbit_data

from oracles import all_weights, dominant_weights_with_dim_bound


def test_certificate_trivial_character():
    A3 = build_root_system("A", 3)
    for P in (A3.parabolic([1]), A3.borel(), A3.parabolic([0, 1, 2])):
        cert = vanishing_certificate(A3.zero_weight(), P, A3)
        assert cert.verdict == "PCharacter"
    lam = A3.weight((1, 0, 2))
    cert = vanishing_certificate(lam, A3.parabolic([1]), A3)
    assert cert.verdict == "PCharacter"


def test_certificate_minimal_parabolic():
    B2 = build_root_system("B", 2)
    lam = B2.weight((1, 1))
    cert = vanishing_certificate(lam, B2.parabolic([0]), B2)
    assert cert.verdict == "MinimalParabolicDominant"


def test_certificate_borel_cases():
    A2 = build_root_system("A", 2)
    dominant = A2.weight((2, 1))
    assert vanishing_certificate(dominant, A2.borel(), A2).verdict in (
        "PCharacter",
        "BorelDominant",
    )
    # non-dominant weight of combinatorial height zero
    lam = A2.weight((-1, 1))
    assert cht(lam) == 0 and not lam.is_dominant()
    assert vanishing_certificate(lam, A2.borel(), A2).verdict == "ChtZeroBorel"
    deep = A2.weight((-2, -2))
    assert vanishing_certificate(deep, A2.borel(), A2).verdict == "Unknown"


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G2", 2)])
def test_borel_certificates_follow_the_cht_rule(key):
    # on the Borel the certificate is PCharacter for a dominant weight,
    # else ChtZeroBorel exactly when cht vanishes, else Unknown
    system = build_root_system(*key)
    borel = system.borel()
    for fc in itertools.product(range(-4, 4), repeat=2):
        lam = system.weight(fc)
        if lam.is_dominant():
            expected = "PCharacter"
        else:
            expected = "ChtZeroBorel" if cht(lam) == 0 else "Unknown"
        assert vanishing_certificate(lam, borel, system).verdict == expected, fc


def test_certificate_shift_by_levi_weight():
    A3 = build_root_system("A", 3)
    P = A3.parabolic([0, 1])
    # lambda = nu - 2 rho_P with nu dominant and positive on the Levi
    nu = A3.weight((1, 1, 1))
    lam = nu - P.rho_doubled
    assert not lam.is_dominant()
    cert = vanishing_certificate(lam, P, A3)
    assert cert.verdict == "MuMinusTwoRhoP"


def test_certificate_type_a_regular():
    A3 = build_root_system("A", 3)
    P = A3.parabolic([0, 1])
    lam = A3.weight((2, 1, 1))  # regular dominant but positive on Levi?
    cert = vanishing_certificate(lam, P, A3)
    # rho is regular dominant; with nonzero Levi pairings the earlier
    # rules do not fire and the type A rule does
    assert cert.verdict in ("MuMinusTwoRhoP", "TypeARegularDominant")
    G2 = build_root_system("G2", 2)
    lam = G2.weight((-3, 1))
    assert vanishing_certificate(lam, G2.parabolic([0, 1]), G2).verdict == "Unknown"


def test_verify_reference_instances():
    A3 = build_root_system("A", 3)
    report = verify_theorem(
        A3, A3.weight((0, 1, 2)), A3.zero_weight(), Partition((3, 1))
    )
    assert report.equal
    assert report.certificate.verdict == "PCharacter"
    assert report.r == report.m == QPolynomial({3: 1})
    assert report.lhi_dimension == 1
    assert report.parabolic == (2,)

    G2 = build_root_system("G2", 2)
    report = verify_theorem(G2, G2.weight((0, 1)), G2.zero_weight(), "subregular")
    assert report.equal
    assert report.r == report.m == QPolynomial({1: 1})
    assert report.certificate.verdict == "PCharacter"

    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    report = verify_theorem(A2, theta, A2.zero_weight(), "principal")
    assert report.equal
    assert report.r == report.m == QPolynomial({1: 1, 2: 1})


def test_verify_principal_equals_partition_route():
    A2 = build_root_system("A", 2)
    theta = A2.weight(A2.highest_root.fc)
    via_partition = verify_theorem(A2, theta, A2.zero_weight(), Partition((3,)))
    via_principal = verify_theorem(A2, theta, A2.zero_weight(), "principal")
    via_orbit = verify_theorem(A2, theta, A2.zero_weight(), orbit_data(A2, "principal"))
    assert via_partition.r == via_principal.r
    assert via_partition.m == via_principal.m
    assert via_orbit == via_principal


@pytest.mark.parametrize(
    "key",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("C", 3),
     ("D", 4), ("G2", 2), ("F4", 4)],
)
def test_principal_orbit_data_is_the_principal_nilpotent(key):
    # the principal orbit goes through good_position_representative, whose
    # first draw on the all-2 diagram is the sum of the simple root vectors
    system = build_root_system(*key)
    orbit = orbit_data(system, "principal")
    assert (orbit.name, orbit.labels) == ("principal", (2,) * system.rank)
    assert orbit.parabolic == system.borel()
    assert orbit.representative == principal_nilpotent(build_chevalley(system))


def test_verify_rejects_odd_orbits():
    A3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        verify_theorem(
            A3, A3.weight((1, 0, 1)), A3.zero_weight(), Partition((2, 1, 1))
        )


def test_small_soundness_sweep_a2():
    system = build_root_system("A", 2)
    rng = random.Random(19)
    for parts in [(3,), (1, 1, 1)]:
        for _ in range(4):
            mu = system.weight([rng.randint(0, 2) for _ in range(2)])
            for lam in all_weights(mu):
                report = verify_theorem(system, mu, lam, Partition(parts))
                if report.certificate.certified:
                    assert report.equal, (mu.fc, lam.fc, parts, report)
                    assert report.m.is_nonnegative()


def test_unknown_certificates_are_recorded_not_asserted():
    system = build_root_system("B", 2)
    mu = system.weight((0, 2))
    seen_unknown = 0
    for lam in all_weights(mu):
        parabolic = system.parabolic([0])
        if not parabolic.is_dominant(lam):
            continue
        report = verify_theorem(system, mu, lam, "principal")
        if not report.certificate.certified:
            seen_unknown += 1
            assert isinstance(report.equal, bool)
    # report objects exist for uncertified instances too
    assert seen_unknown >= 0


def test_representative_independence_of_jump_polynomials():
    from lieq import (
        associated_parabolic,
        bk_jump_polynomial,
        build_chevalley,
        good_position_representative,
        weighted_dynkin,
    )

    system = build_root_system("A", 3)
    algebra = build_chevalley(system)
    labels = weighted_dynkin(Partition((3, 1)))
    parabolic = associated_parabolic(system, labels)
    reps = [
        good_position_representative(algebra, labels, seed=seed) for seed in (0, 1, 2)
    ]
    handmade = algebra.x(system._root_by_rc[(1, 0, 0)]) + algebra.x(
        system._root_by_rc[(0, 1, 1)]
    )
    reps.append(handmade)
    mu = system.weight((0, 1, 2))
    module = build_irrep(system, mu)
    for lam_fc in [(0, 0, 0), (1, 0, 1), (0, 1, 0)]:
        lam = system.weight(lam_fc)
        polys = {
            bk_jump_polynomial(module, rep, lam, parabolic).jump_polynomial
            for rep in reps
        }
        assert len(polys) == 1


def test_report_json_round_trip():
    A3 = build_root_system("A", 3)
    report = verify_theorem(
        A3, A3.weight((0, 1, 2)), A3.zero_weight(), Partition((3, 1))
    )
    data = report.to_json()
    assert data["equal"] is True
    assert data["r"] == {"3": 1}
    assert data["parabolic"] == [2]
    assert data["certificate"] == "PCharacter"


A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
MIXED_CALLS = {
    "weight sum": lambda: A2.weight((1, 1)) + A3.zero_weight(),
    "weight difference": lambda: A2.weight((1, 1)) - A3.zero_weight(),
    "filtration": lambda: bk_jump_polynomial(
        build_irrep(A2, A2.weight((1, 1))),
        principal_nilpotent(build_chevalley(A3)),
        A2.zero_weight(),
        A2.borel(),
    ),
    "q-analog": lambda: lusztig_q_analog(A2.weight((1, 1)), A3.zero_weight()),
    "q-partition": lambda: q_partition(A2.weight((1, 1)), A3.parabolic([0])),
    "freudenthal": lambda: freudenthal_multiplicity(A2.weight((1, 1)), A3.zero_weight()),
    "verify lambda": lambda: verify_theorem(
        A2, A2.weight((1, 1)), A3.zero_weight(), "principal"
    ),
    "verify mu": lambda: verify_theorem(
        A2, A3.weight((0, 1, 0)), A2.zero_weight(), "principal"
    ),
    "verify orbit": lambda: verify_theorem(
        A2, A2.weight((1, 1)), A2.zero_weight(), orbit_data(A3, "principal")
    ),
    "module": lambda: build_irrep(A2, A3.weight((0, 1, 0))),
    "certificate parabolic": lambda: vanishing_certificate(
        A2.weight((1, 1)), A3.parabolic([2]), A2
    ),
    "certificate system": lambda: vanishing_certificate(
        A3.weight((1, 0, 1)), A3.parabolic([0, 1]), A2
    ),
}


@pytest.mark.parametrize("call", MIXED_CALLS.values(), ids=MIXED_CALLS.keys())
def test_objects_of_different_root_systems_are_refused(call):
    with pytest.raises(ValueError, match="cannot combine objects of A2 and A3"):
        call()


def test_systems_that_differ_only_in_caps_still_combine():
    other = build_root_system("A", 2, Caps(module_dim=100))
    assert other is not A2
    mu = A2.weight((1, 1))
    assert (mu - other.zero_weight()).fc == (1, 1)
    assert lusztig_q_analog(mu, other.zero_weight()) == QPolynomial({1: 1, 2: 1})
    report = verify_theorem(A2, mu, other.zero_weight(), "principal")
    assert report.equal and report.r == QPolynomial({1: 1, 2: 1})


R_AT_1_ORBITS = [
    (("A", n - 1), partition)
    for n in (3, 4, 5)
    for partition in partitions_of(n)
    if is_even_partition(partition)
] + [(key, "principal") for key in [("B", 2), ("G2", 2), ("B", 3), ("C", 3)]]


def test_r_and_m_agree_at_q_1_uncertified_included():
    # r(1) is the dimension of the Levi-highest space of weight lambda and
    # m(1) the branching count of V(mu) to the Levi at lambda, so the two
    # agree whether or not a vanishing certificate applies
    instances = uncertified = 0
    for key, spec in R_AT_1_ORBITS:
        system = build_root_system(*key)
        orbit = orbit_data(system, spec)
        parabolic = orbit.parabolic
        for mu in dominant_weights_with_dim_bound(system, 60):
            module = build_irrep(system, mu)
            for lam_fc in dict.fromkeys(module.weights):
                lam = system.weight(lam_fc)
                if not parabolic.is_dominant(lam):
                    continue
                instances += 1
                uncertified += not vanishing_certificate(lam, parabolic, system).certified
                r = bk_jump_polynomial(
                    module, orbit.representative, lam, parabolic
                ).jump_polynomial
                m = lusztig_q_analog(mu, lam, parabolic)
                assert r.evaluate(1) == m.evaluate(1), (key, spec, mu.fc, lam_fc)
    assert (instances, uncertified) == (3176, 1884)
