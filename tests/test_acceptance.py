"""Acceptance suite.

Each criterion is one test that prints a PASS/FAIL line (run with -s to
see them inline; -v lists them per test).  Sweeps share session-scoped
caches through the library's own memoization.
"""

import itertools
import random
import time

import pytest

from lieq import (
    Partition,
    QPolynomial,
    build_chevalley,
    build_irrep,
    build_root_system,
    bk_jump_polynomial,
    cht,
    cht_is_zero_fast,
    freudenthal_multiplicity,
    good_position_representative,
    is_even_labels,
    is_even_partition,
    lusztig_q_analog,
    partitions_of,
    q_partition,
    star,
    verify_theorem,
    weighted_dynkin,
)
from lieq.orbits import associated_parabolic
from lieq.qanalog import dominant_multiplicities
from lieq.verify import orbit_data, vanishing_certificate

from oracles import (
    dominant_weights_with_dim_bound,
    partition_poly_oracle,
    total_dimension_check,
)


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_worked_example_a3():
    """Type A3, partition [3,1], mu = chi2 + 2 chi3, lambda = 0.

    The pinned values follow by hand.  The weighted Dynkin diagram of
    [3,1] is (2,0,2), so the Levi is {a2} and the nilradical roots are
    a1, a3, a12, a23 and a123.  In simple-root coordinates mu = (1,2,2),
    which has exactly three decompositions into nilradical roots:

        a123 + a23         (2 roots)
        a12 + a23 + a3     (3 roots)
        a1 + 2 a23         (3 roots)

    so p(mu) = q^2 + 2q^3.  In epsilon coordinates mu + rho = (6,5,3,0),
    and w(mu + rho) - rho is non-negative in root coordinates (all
    partial sums of w(6,5,3,0) - (5,4,3,2) at least 0) only for w = 1,
    s1 and s2.  s1.mu = (0,2,2) = 2 a23 gives q^2 and s2.mu = (1,0,2) =
    a1 + 2 a3 gives q^3, so m = (q^2 + 2q^3) - q^2 - q^3 = q^3.

    On the filtration side the Levi-highest space is one-dimensional,
    spanned by v, and the [3,1] representative Z has Z^3 v != 0 and
    Z^4 v = 0: the kernel dimensions of Z, Z^2, Z^3, Z^4 on it are
    0, 0, 0, 1, so r = q^3 = m.
    """
    t0 = time.time()
    system = build_root_system("A", 3)
    mu = system.weight((0, 1, 2))
    zero = system.zero_weight()
    parabolic = system.parabolic([1])
    r1mu = system.shifted_action(system.simple_reflection(0), mu)
    r2mu = system.shifted_action(system.simple_reflection(1), mu)
    levi = {r.rc for r in parabolic.positive_roots}
    nilradical = [r for r in system.positive_roots if r.rc not in levi]
    surviving = [
        w.word
        for w in system.weyl_group()
        if all(
            c.denominator == 1 and c >= 0
            for c in system.shifted_action(w, mu).root_coords()
        )
    ]
    p_mu, p_r1mu, p_r2mu = (q_partition(g, parabolic) for g in (mu, r1mu, r2mu))
    m = lusztig_q_analog(mu, zero, parabolic)

    checks = {
        "nilradical = a1, a3, a12, a23, a123": sorted(r.rc for r in nilradical)
        == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
        "mu = (1,2,2) in root coordinates": mu.root_coords() == (1, 2, 2),
        "Weyl terms: 1, s1, s2": sorted(surviving) == [(), (0,), (1,)],
        "p(mu) = q^2+2q^3": p_mu == QPolynomial({2: 1, 3: 2}),
        "p(r1*mu) = q^2": p_r1mu == QPolynomial({2: 1}),
        "p(r2*mu) = q^3": p_r2mu == QPolynomial({3: 1}),
        "p = brute-force oracle": all(
            p == partition_poly_oracle(system, g, nilradical)
            for p, g in ((p_mu, mu), (p_r1mu, r1mu), (p_r2mu, r2mu))
        ),
        "m = q^3": m == QPolynomial({3: 1}),
        "m = p(mu) - p(r1*mu) - p(r2*mu)": m == p_mu - p_r1mu - p_r2mu,
    }
    partition = Partition((3, 1))
    labels = weighted_dynkin(partition)
    checks["parabolic of [3,1] has Levi {a2}"] = (
        associated_parabolic(system, labels) == parabolic
    )
    outcome = verify_theorem(system, mu, zero, partition)
    checks["dim Lhi = 1"] = outcome.lhi_dimension == 1
    rep = good_position_representative(build_chevalley(system), labels)
    filtration = bk_jump_polynomial(build_irrep(system, mu), rep, zero, parabolic)
    checks["Z^4 v = 0, Z^3 v != 0"] = filtration.subspace_dims == [0, 0, 0, 1]
    checks["r = q^3"] = outcome.r == QPolynomial({3: 1})
    checks["r = m"] = outcome.equal and filtration.jump_polynomial == m
    elapsed = time.time() - t0
    checks[f"runtime {elapsed:.1f}s <= 10s"] = elapsed <= 10.0

    failed = [name for name, ok in checks.items() if not ok]
    detail = "; ".join(
        f"{name}: {'ok' if ok else 'FAILED'}" for name, ok in checks.items()
    )
    computed = (
        f" [computed: p(mu)={p_mu}, m={m}, r={outcome.r}, "
        f"dims={filtration.subspace_dims}, equality r=m: {outcome.equal}, "
        f"certificate={outcome.certificate.verdict}]"
    )
    report(1, not failed, detail + computed)


def test_criterion_2_worked_example_g2():
    """G2 subregular, mu = chi_beta, lambda = 0."""
    t0 = time.time()
    system = build_root_system("G2", 2)
    mu = system.weight((0, 1))
    zero = system.zero_weight()
    # the stated partition-count values are for the Levi on the long
    # simple root (node 2)
    literal_parabolic = system.parabolic([1])
    r_alpha_mu = system.shifted_action(system.simple_reflection(0), mu)
    r_beta_mu = system.shifted_action(system.simple_reflection(1), mu)
    checks = {
        "p(mu) = q+q^2+q^3": q_partition(mu, literal_parabolic)
        == QPolynomial({1: 1, 2: 1, 3: 1}),
        "p(r_a*mu) = q^2": q_partition(r_alpha_mu, literal_parabolic)
        == QPolynomial({2: 1}),
        "p(r_b*mu) = q^3": q_partition(r_beta_mu, literal_parabolic)
        == QPolynomial({3: 1}),
        "m = q": lusztig_q_analog(mu, zero, literal_parabolic) == QPolynomial({1: 1}),
    }
    # jump polynomial through the 14-dimensional adjoint module and the
    # validated subregular representative
    outcome = verify_theorem(system, mu, zero, "subregular")
    module = build_irrep(system, mu)
    checks["adjoint module is 14-dimensional"] = module.dim == 14
    checks["r = q"] = outcome.r == QPolynomial({1: 1})
    checks["r = m"] = outcome.equal
    elapsed = time.time() - t0
    checks[f"runtime {elapsed:.1f}s <= 10s"] = elapsed <= 10.0
    failed = [name for name, ok in checks.items() if not ok]
    detail = "; ".join(f"{n}: {'ok' if ok else 'FAILED'}" for n, ok in checks.items())
    report(2, not failed, detail)


BRYLINSKI_SWEEP = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2)]


@pytest.fixture(scope="module")
def brylinski_results():
    """`verify_theorem`'s reports on the principal orbit, resolved once
    per system, over every dominant highest weight of dimension <= 200
    and every dominant weight."""
    results = []
    t0 = time.time()
    for label, rank in BRYLINSKI_SWEEP:
        system = build_root_system(label, rank)
        orbit = orbit_data(system, "principal")
        for mu in dominant_weights_with_dim_bound(system, 200):
            for lam_fc in sorted(dominant_multiplicities(mu)):
                results.append(verify_theorem(system, mu, system.weight(lam_fc), orbit))
    return results, time.time() - t0


def test_criterion_3_principal_consistency(brylinski_results):
    results, elapsed = brylinski_results
    mismatches = [item for item in results if not item.equal]
    # a dominant weight on the Borel always carries a certificate
    uncertified = [item for item in results if not item.certificate.certified]
    ok = len(results) == 11773 and not mismatches and not uncertified and elapsed <= 300.0
    report(
        3,
        ok,
        f"{len(results)} instances over A1,A2,A3,B2,G2 (11773 expected); "
        f"{len(mismatches)} mismatches; {len(uncertified)} uncertified; "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_4_multiplicity_cross_oracles(brylinski_results):
    results, _ = brylinski_results
    bad = []
    for item in results:
        system = build_root_system(*item.system_key)
        if item.m.evaluate(1) != freudenthal_multiplicity(
            system.weight(item.mu), system.weight(item.lam)
        ):
            bad.append((item.system_key, item.mu, item.lam))
    checked = set()
    for label, rank in BRYLINSKI_SWEEP:
        system = build_root_system(label, rank)
        for mu in dominant_weights_with_dim_bound(system, 200):
            total, dim = total_dimension_check(mu)
            if total != dim:
                bad.append((system.key, mu.fc, "sum"))
            checked.add((system.key, mu.fc))
    report(
        4,
        not bad,
        f"q=1 values against the Freudenthal recursion on {len(results)} "
        f"instances and dimension sums on {len(checked)} modules; "
        f"{len(bad)} failures",
    )


def test_criterion_5_conditional_equality_sweep():
    t0 = time.time()
    instances = 0
    certified = 0
    unknown = 0
    failures = []
    for n in (3, 4, 5):
        system = build_root_system("A", n - 1)
        for partition in partitions_of(n):
            if not is_even_partition(partition):
                continue
            orbit = orbit_data(system, partition)
            parabolic = orbit.parabolic
            for mu in dominant_weights_with_dim_bound(system, 200):
                module = build_irrep(system, mu)
                seen = set()
                for lam_fc in module.weights:
                    if lam_fc in seen:
                        continue
                    seen.add(lam_fc)
                    lam = system.weight(lam_fc)
                    if not parabolic.is_dominant(lam):
                        continue
                    cert = vanishing_certificate(lam, parabolic, system)
                    if not cert.certified:
                        unknown += 1
                        continue
                    outcome = verify_theorem(system, mu, lam, orbit)
                    instances += 1
                    certified += 1
                    if not outcome.equal:
                        failures.append(
                            (system.key, partition.parts, mu.fc, lam_fc, outcome)
                        )
                    if not outcome.m.is_nonnegative():
                        failures.append(
                            (system.key, partition.parts, mu.fc, lam_fc, "negative m")
                        )
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 900.0
    report(
        5,
        ok,
        f"{certified} certified instances (plus {unknown} recorded Unknown) "
        f"across even partitions of 3..5; {len(failures)} failures; "
        f"{elapsed:.1f}s (budget 900s)",
    )


COMBINATORICS_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4)]


def test_criterion_6_combinatorial_height_suite():
    violations = []
    checked = 0
    for key in COMBINATORICS_TYPES:
        system = build_root_system(*key)
        rng = random.Random(f"101:{key[0]}{key[1]}")
        simples = [r for r in system.positive_roots if r.height == 1]
        samples = [
            system.weight([rng.randint(-4, 4) for _ in range(system.rank)])
            for _ in range(120)
        ]
        for lam in samples:
            checked += 1
            plus = system.weight(system.dominant_weight_fc(lam.fc))
            low = star(lam)
            value = cht(lam)
            # conjugate movement under adding any positive root
            for root in system.positive_roots:
                moved = lam + system.weight(root.fc)
                moved_plus = system.weight(system.dominant_weight_fc(moved.fc))
                pairing = system.pair(lam, root)
                if pairing >= 0:
                    good = system.dominance_leq(plus, moved_plus) and plus != moved_plus
                elif pairing == -1:
                    good = plus == moved_plus
                else:
                    good = system.dominance_leq(moved_plus, plus) and plus != moved_plus
                if not good:
                    violations.append((key, lam.fc, root.rc, "conjugate"))
            for root in simples:
                pairing = system.pair(lam, root)
                moved = lam + system.weight(root.fc)
                if pairing < 0 and star(moved) != low:
                    violations.append((key, lam.fc, root.rc, "star"))
                if pairing == -1 and cht(moved) != value:
                    violations.append((key, lam.fc, root.rc, "cht equal"))
                if pairing <= -2 and not cht(moved) < value:
                    violations.append((key, lam.fc, root.rc, "cht drop"))
            for i in range(system.rank):
                s = system.simple_reflection(i)
                if lam.fc[i] <= 0 and cht(lam) < cht(s.apply(lam)):
                    violations.append((key, lam.fc, i, "reflection"))
                if lam.fc[i] <= -2 and not cht(lam) > cht(
                    system.shifted_action(s, lam)
                ):
                    violations.append((key, lam.fc, i, "shifted reflection"))
            # height-zero predicate equivalence and the norm bound
            if (value == 0) != cht_is_zero_fast(lam):
                violations.append((key, lam.fc, None, "fast predicate"))
            if value > system.norm_sq(lam) - system.norm_sq(low):
                violations.append((key, lam.fc, None, "norm bound"))
        # short roots against dominant weights
        for root in system.positive_roots:
            if root.long:
                continue
            for _ in range(6):
                mu = system.weight([rng.randint(0, 4) for _ in range(system.rank)])
                if cht(system.weight(root.fc) + mu) != 0:
                    violations.append((key, root.rc, mu.fc, "short root"))
    # orthogonal short simple roots, up to three at a time
    for key in COMBINATORICS_TYPES + [("A", 5)]:
        system = build_root_system(*key)
        shorts = [r for r in system.positive_roots if r.height == 1 and not r.long]
        for size in (1, 2, 3):
            for subset in itertools.combinations(shorts, size):
                if any(
                    system.pair(system.weight(a.fc), b)
                    for a, b in itertools.permutations(subset, 2)
                ):
                    continue
                total = system.zero_weight()
                for r in subset:
                    total = total + system.weight(r.fc)
                if cht(total) != size - 1:
                    violations.append((key, [r.rc for r in subset], None, "orthogonal"))
    report(
        6,
        not violations,
        f"{checked} sampled weights per-property across A3,B3,C3,G2,F4; "
        f"{len(violations)} violations",
    )


def test_criterion_7_long_simple_root_box():
    violations = []
    checked = 0
    for key in [("B", 3), ("C", 3), ("F4", 4), ("G2", 2)]:
        system = build_root_system(*key)
        longs = [r for r in system.positive_roots if r.height == 1 and r.long]
        for mu_fc in itertools.product(range(5), repeat=system.rank):
            mu = system.weight(mu_fc)
            for root in longs:
                checked += 1
                if cht(system.weight(root.fc) + mu) > 1:
                    violations.append((key, root.rc, mu_fc))
    report(
        7,
        not violations,
        f"{checked} (long simple root, dominant weight) pairs in [0,4]^rank; "
        f"{len(violations)} violations",
    )


def test_criterion_8_orbit_data():
    failures = []
    if weighted_dynkin(Partition((3, 1))) != (2, 0, 2):
        failures.append("weighted diagram of [3,1]")
    for n in range(2, 7):
        for partition in partitions_of(n):
            parity_rule = len({p % 2 for p in partition}) == 1
            if is_even_partition(partition) != parity_rule:
                failures.append(("parity", partition.parts))
            if is_even_labels(weighted_dynkin(partition)) != parity_rule:
                failures.append(("labels", partition.parts))
    for n in (2, 3, 4, 5):
        system = build_root_system("A", n - 1)
        algebra = build_chevalley(system)
        for partition in partitions_of(n):
            if not is_even_partition(partition):
                continue
            labels = weighted_dynkin(partition)
            rep = good_position_representative(algebra, labels)
            expected = associated_parabolic(system, labels).levi_dimension
            if algebra.centralizer_dimension(rep) != expected:
                failures.append(("richardson", partition.parts))
    g2 = build_root_system("G2", 2)
    gg = build_chevalley(g2)
    from lieq import BUILTIN_ORBITS

    labels = BUILTIN_ORBITS[("G2", 2)]["subregular"]
    rep = good_position_representative(gg, labels)
    if gg.centralizer_dimension(rep) != associated_parabolic(g2, labels).levi_dimension:
        failures.append("G2 subregular richardson")
    report(
        8,
        not failures,
        f"weighted diagrams, parity rule to n=6, Richardson checks to n=5 "
        f"and G2 subregular; failures: {failures if failures else 'none'}",
    )
