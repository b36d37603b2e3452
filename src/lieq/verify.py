"""Equality harness: compares the nilpotent jump polynomial with the
alternating-sum q-analog on concrete instances, together with a
syntactic certificate recording which proven sufficient condition for
the required cohomology vanishing applies.

Certificates are decided purely from the stated hypotheses; instances
without a certificate are reported but never asserted equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import build_chevalley
from .config import DEFAULT_SEED
from .height import cht_is_zero_fast
from .irreps import bk_jump_polynomial, build_irrep, principal_nilpotent
from .orbits import (
    BUILTIN_ORBITS,
    Partition,
    associated_parabolic,
    good_position_representative,
    is_even_labels,
    partition_labels,
)
from .qanalog import lusztig_q_analog
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight

CERTIFICATE_ORDER = (
    "PCharacter",
    "BorelDominant",
    "MinimalParabolicDominant",
    "MuMinusTwoRhoP",
    "TypeARegularDominant",
    "ChtZeroBorel",
    "Unknown",
)


@dataclass(frozen=True)
class VanishingCertificate:
    verdict: str
    detail: str

    def __post_init__(self):
        if self.verdict not in CERTIFICATE_ORDER:
            raise ValueError(f"unknown verdict {self.verdict}")

    @property
    def certified(self) -> bool:
        return self.verdict != "Unknown"


def vanishing_certificate(
    lam: Weight, parabolic: Parabolic, system: RootSystem
) -> VanishingCertificate:
    """First applicable sufficient condition, checked in a fixed order."""
    dominant = lam.is_dominant()
    if dominant and all(lam.fc[i] == 0 for i in parabolic.indices):
        return VanishingCertificate(
            "PCharacter", "weight is dominant and trivial on the Levi nodes"
        )
    if not parabolic.indices:
        if dominant:
            return VanishingCertificate("BorelDominant", "Borel case, dominant weight")
        if cht_is_zero_fast(lam):
            return VanishingCertificate(
                "ChtZeroBorel", "Borel case, combinatorial height 0"
            )
    if len(parabolic.indices) == 1 and dominant:
        return VanishingCertificate(
            "MinimalParabolicDominant", "minimal parabolic, dominant weight"
        )
    shifted = lam + parabolic.rho_doubled
    if shifted.is_dominant() and parabolic.is_regular_dominant(shifted):
        return VanishingCertificate(
            "MuMinusTwoRhoP",
            "weight + 2 rho_P is dominant and Levi-regular",
        )
    if system.type_label == "A" and dominant and system.is_regular(lam):
        return VanishingCertificate(
            "TypeARegularDominant", "type A, regular dominant weight"
        )
    return VanishingCertificate("Unknown", "no proven vanishing condition applies")


@dataclass
class VerificationReport:
    system_key: tuple
    orbit: str
    labels: tuple
    parabolic: tuple       # 1-based Levi node indices
    mu: tuple
    lam: tuple
    r: QPolynomial
    m: QPolynomial
    equal: bool
    certificate: VanishingCertificate
    lhi_dimension: int

    def to_json(self) -> dict:
        return {
            "type": self.system_key[0],
            "rank": self.system_key[1],
            "orbit": self.orbit,
            "labels": list(self.labels),
            "parabolic": list(self.parabolic),
            "mu": list(self.mu),
            "lambda": list(self.lam),
            "r": self.r.to_json(),
            "m": self.m.to_json(),
            "equal": self.equal,
            "certificate": self.certificate.verdict,
            "lhi_dimension": self.lhi_dimension,
        }


def orbit_labels(system: RootSystem, orbit_spec):
    """(name, labels) for an orbit specification: a Partition, the
    string 'principal', or a named built-in orbit.  Raises ValueError
    for an unknown name, a partition that does not fit the system, or
    an orbit that is not even."""
    if orbit_spec == "principal":
        return "principal", tuple(2 for _ in range(system.rank))
    if isinstance(orbit_spec, str):
        table = BUILTIN_ORBITS.get(system.key, {})
        if orbit_spec not in table:
            raise ValueError(f"unknown orbit {orbit_spec!r} for {system.name}")
        return orbit_spec, table[orbit_spec]
    partition = (
        orbit_spec if isinstance(orbit_spec, Partition) else Partition(tuple(orbit_spec))
    )
    labels = partition_labels(system, partition)
    name = "[%s]" % ",".join(str(p) for p in partition)
    if not is_even_labels(labels):
        raise ValueError(f"orbit {name} is not even; no filtration theorem")
    return name, labels


def orbit_data(system: RootSystem, orbit_spec, seed: int = DEFAULT_SEED):
    """(name, labels, representative) for an orbit specification, as
    in `orbit_labels`."""
    name, labels = orbit_labels(system, orbit_spec)
    algebra = build_chevalley(system)
    if orbit_spec == "principal":
        return name, labels, principal_nilpotent(algebra)
    return name, labels, good_position_representative(algebra, labels, seed)


def verify_theorem(
    system: RootSystem,
    mu: Weight,
    lam: Weight,
    orbit_spec,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Build the module, run the filtration against the q-analog, and
    attach the certificate for this instance; the system's caps apply."""
    if not mu.is_dominant():
        raise ValueError("highest weight must be dominant")
    name, labels, rep = orbit_data(system, orbit_spec, seed)
    parabolic = associated_parabolic(system, labels)
    module = build_irrep(system, mu)
    report = bk_jump_polynomial(module, rep, lam, parabolic)
    m_poly = lusztig_q_analog(mu, lam, parabolic)
    cert = vanishing_certificate(lam, parabolic, system)
    equal = report.jump_polynomial == m_poly
    return VerificationReport(
        system_key=system.key,
        orbit=name,
        labels=labels,
        parabolic=tuple(i + 1 for i in parabolic.key),
        mu=mu.fc,
        lam=lam.fc,
        r=report.jump_polynomial,
        m=m_poly,
        equal=equal,
        certificate=cert,
        lhi_dimension=report.jump_polynomial.evaluate(1),
    )
