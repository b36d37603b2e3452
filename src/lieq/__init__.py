"""Exact computation of parabolic q-analogs of weight multiplicity and
nilpotent kernel filtrations on explicit highest-weight modules."""

from .chevalley import AlgebraElement, ChevalleyAlgebra, build_chevalley
from .config import Caps, CapExceeded
from .height import cht, cht_is_zero_fast, star
from .irreps import (
    ExplicitModule,
    FiltrationReport,
    bk_jump_polynomial,
    build_irrep,
    principal_nilpotent,
)
from .orbits import (
    BUILTIN_ORBITS,
    Partition,
    associated_parabolic,
    good_position_representative,
    is_even_labels,
    is_even_partition,
    partition_labels,
    partitions_of,
    weighted_dynkin,
)
from .qanalog import (
    dominant_multiplicities,
    freudenthal_multiplicity,
    lusztig_q_analog,
    q_partition,
    weyl_dimension,
)
from .qpoly import QPolynomial
from .rootsystem import (
    Parabolic,
    Root,
    RootSystem,
    Weight,
    WeylElement,
    build_root_system,
)
from .verify import (
    VanishingCertificate,
    VerificationReport,
    vanishing_certificate,
    verify_theorem,
)

__version__ = "0.1.0"
