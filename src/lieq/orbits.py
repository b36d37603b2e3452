"""Nilpotent-orbit data: type-A partition orbits, weighted Dynkin
diagrams, associated parabolics, and validated good-position
representatives.

A representative for an even diagram is drawn generically on the
ad-eigenvalue-2 subspace and accepted only if its centralizer dimension
equals the Levi dimension (the Richardson condition); draws are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .chevalley import AlgebraElement, ChevalleyAlgebra
from .config import DEFAULT_SEED
from .rootsystem import Parabolic, RootSystem, _integers


class Partition:
    """A partition, its parts a nonincreasing tuple of positive ints; a
    read-only value."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = _integers(parts, "partition part")
        if not parts or any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be nonincreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *_):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def __str__(self):
        return "[%s]" % ",".join(map(str, self.parts))


# An even orbit, resolved once by `verify.orbit_data`: its name, weighted
# Dynkin labels, the parabolic of its grading and a Richardson
# representative in g_2.
Orbit = namedtuple("Orbit", "name labels parabolic representative")


# Weighted Dynkin diagrams outside type A that the package knows about.
# G2 subregular: the label 2 must sit on the long simple root (node 2);
# with the 2 on the short node the ad-eigenvalue multiplicities
# (..., 1 at eigenvalue 4, 2 at eigenvalue 6) cannot come from an sl2
# module, and indeed no element of that grade-2 space passes the
# Richardson test.
BUILTIN_ORBITS = {
    ("G2", 2): {"subregular": (0, 2)},
}

# Draws `good_position_representative` makes before it gives up.
MAX_DRAWS = 50


def partitions_of(n: int):
    """All partitions of n, largest part first, in lexicographic order."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(n, n)]


def is_even_partition(partition: Partition) -> bool:
    """Orbit evenness in type A: all parts share one parity."""
    parities = {p % 2 for p in partition}
    return len(parities) == 1


def is_even_labels(labels) -> bool:
    return all(v != 1 for v in labels)


def weighted_dynkin(partition: Partition) -> tuple:
    """Labels of the weighted Dynkin diagram of the type-A orbit with the
    given Jordan type: merge the block eigenvalue sets {p-1, p-3, ...},
    sort, and take consecutive differences."""
    eigenvalues = []
    for p in partition:
        eigenvalues.extend(p - 1 - 2 * k for k in range(p))
    eigenvalues.sort(reverse=True)
    labels = tuple(
        eigenvalues[i] - eigenvalues[i + 1] for i in range(len(eigenvalues) - 1)
    )
    if any(v not in (0, 1, 2) for v in labels):
        raise RuntimeError(f"bad weighted diagram {labels} for {partition}")
    return labels


def partition_labels(system: RootSystem, partition: Partition) -> tuple:
    """Weighted Dynkin labels of the partition's orbit in system, which
    must be A_n with the partition of n + 1."""
    if system.type_label != "A":
        raise ValueError(
            f"partition orbits are a type A construction, not {system.type_label}"
        )
    if partition.total != system.rank + 1:
        raise ValueError(
            f"partition of {partition.total} does not match A{system.rank}"
        )
    return weighted_dynkin(partition)


def associated_parabolic(system: RootSystem, labels) -> Parabolic:
    """Standard parabolic of the grading: Levi nodes are the zero labels."""
    return system.parabolic([i for i, v in enumerate(labels) if v == 0])


def grade_of_root(root, labels) -> int:
    """Eigenvalue of ad H on the root vector, H the labeled coweight."""
    return sum(l * c for l, c in zip(labels, root.rc))


def good_position_representative(
    algebra: ChevalleyAlgebra, labels, seed: int = DEFAULT_SEED
) -> AlgebraElement:
    """A Richardson-validated element of the eigenvalue-2 subspace for an
    even diagram.  The first draw uses all-ones coefficients, further
    draws use small seeded integers; failure after MAX_DRAWS signals a
    non-even or malformed diagram."""
    system = algebra.system
    labels = tuple(labels)
    if len(labels) != system.rank or any(v not in (0, 1, 2) for v in labels):
        raise ValueError(f"bad diagram labels {labels}")
    if not is_even_labels(labels):
        raise ValueError(f"diagram {labels} is not even")
    grade2 = [r for r in system.positive_roots if grade_of_root(r, labels) == 2]
    target = associated_parabolic(system, labels).levi_dimension
    rng = random.Random(seed)
    for draw in range(MAX_DRAWS):
        if draw == 0:
            coeffs = [1] * len(grade2)
        else:
            coeffs = [rng.randint(1, 5) for _ in grade2]
        cand = AlgebraElement(
            algebra, {algebra.x_index(r): c for c, r in zip(coeffs, grade2)}
        )
        if algebra.centralizer_dimension(cand) == target:
            return cand
    raise ValueError(
        f"no Richardson representative found for labels {labels} "
        f"after {MAX_DRAWS} draws"
    )
