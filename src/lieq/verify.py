"""Equality harness: compares the nilpotent jump polynomial with the
alternating-sum q-analog on concrete instances, together with a
syntactic certificate recording which proven sufficient condition for
the required cohomology vanishing applies.

Each instance is compared on an `orbits.Orbit`, which `orbit_data`
resolves from a specification (principal, a built-in name or a
partition) once: a caller that runs many instances on one orbit passes
the Orbit to `verify_theorem` and reuses its representative.
Certificates are decided purely from the stated hypotheses; instances
without a certificate are reported but never asserted equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .chevalley import build_chevalley
from .config import DEFAULT_SEED
from .height import cht_is_zero_fast
from .irreps import bk_jump_polynomial, build_irrep
from .orbits import (
    BUILTIN_ORBITS,
    Orbit,
    Partition,
    associated_parabolic,
    good_position_representative,
    is_even_labels,
    partition_labels,
)
from .qanalog import lusztig_q_analog
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight, _require_dominant


class VanishingCertificate(NamedTuple):
    """The name of the first proven sufficient condition for the
    vanishing that applies, or "Unknown"; a read-only value."""

    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict != "Unknown"


def vanishing_certificate(
    lam: Weight, parabolic: Parabolic, system: RootSystem
) -> VanishingCertificate:
    """First applicable sufficient condition, checked in a fixed order."""
    system.require_same(lam.system, parabolic.system)
    dominant = lam.is_dominant()
    if dominant and all(lam.fc[i] == 0 for i in parabolic.indices):
        return VanishingCertificate("PCharacter")
    if not parabolic.indices:
        if dominant:
            return VanishingCertificate("BorelDominant")
        if cht_is_zero_fast(lam):
            return VanishingCertificate("ChtZeroBorel")
    if len(parabolic.indices) == 1 and dominant:
        return VanishingCertificate("MinimalParabolicDominant")
    # lam + 2 rho_P is dominant and regular on the Levi nodes
    shifted = lam + parabolic.rho_doubled
    if shifted.is_dominant() and parabolic.is_regular_dominant(shifted):
        return VanishingCertificate("MuMinusTwoRhoP")
    if system.type_label == "A" and dominant and system.is_regular(lam):
        return VanishingCertificate("TypeARegularDominant")
    return VanishingCertificate("Unknown")


class VerificationReport(NamedTuple):
    """One instance's filtration and q-analog, compared, with its
    certificate."""

    system_key: tuple
    orbit: str
    labels: tuple
    parabolic: tuple       # 1-based Levi node indices
    mu: tuple
    lam: tuple
    r: QPolynomial
    m: QPolynomial
    certificate: VanishingCertificate

    @property
    def equal(self) -> bool:
        return self.r == self.m

    @property
    def lhi_dimension(self) -> int:
        """The dimension of the Levi-highest space, r(1)."""
        return self.r.evaluate(1)

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


def orbit_data(system: RootSystem, orbit_spec, seed: int = DEFAULT_SEED) -> Orbit:
    """The Orbit of a specification: the string 'principal', a built-in
    orbit's name, or a Partition or its parts.  This is the one place an
    orbit is resolved; its labels, parabolic and seeded Richardson
    representative are computed once, so a caller that compares many
    instances on one orbit resolves it once and passes the Orbit.
    Raises ValueError for an unknown name, a partition that does not
    fit the system, or an orbit that is not even.  The principal orbit
    takes no path of its own: on the all-2 diagram g_2 is spanned by
    the simple root vectors, and the first draw, their sum, is
    `principal_nilpotent`."""
    if orbit_spec == "principal":
        name, labels = "principal", (2,) * system.rank
    elif isinstance(orbit_spec, str):
        name, labels = orbit_spec, BUILTIN_ORBITS.get(system.key, {}).get(orbit_spec)
        if labels is None:
            raise ValueError(f"unknown orbit {orbit_spec!r} for {system.name}")
    else:
        partition = Partition(orbit_spec)
        name, labels = str(partition), partition_labels(system, partition)
        if not is_even_labels(labels):
            raise ValueError(f"orbit {name} is not even; no filtration theorem")
    representative = good_position_representative(build_chevalley(system), labels, seed)
    return Orbit(name, labels, associated_parabolic(system, labels), representative)


def verify_theorem(
    system: RootSystem, mu: Weight, lam: Weight, orbit
) -> VerificationReport:
    """Build the module, run the filtration against the q-analog, and
    attach the certificate for this instance; the system's caps apply.
    `orbit` is an Orbit from `orbit_data`, or a specification that is
    resolved here with the default seed; a sweep over one orbit passes
    the Orbit, so its representative is drawn and found nilpotent once,
    and another seed is chosen through `orbit_data`."""
    if not isinstance(orbit, Orbit):
        orbit = orbit_data(system, orbit)
    system.require_same(mu.system, lam.system, orbit.parabolic.system)
    _require_dominant(mu)
    parabolic = orbit.parabolic
    module = build_irrep(system, mu)
    report = bk_jump_polynomial(module, orbit.representative, lam, parabolic)
    m_poly = lusztig_q_analog(mu, lam, parabolic)
    return VerificationReport(
        system_key=system.key,
        orbit=orbit.name,
        labels=orbit.labels,
        parabolic=tuple(i + 1 for i in parabolic.key),
        mu=mu.fc,
        lam=lam.fc,
        r=report.jump_polynomial,
        m=m_poly,
        certificate=vanishing_certificate(lam, parabolic, system),
    )
