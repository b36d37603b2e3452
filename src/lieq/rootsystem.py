"""Finite root systems, weights, and Weyl groups for types A-D, G2, F4.

Conventions fixed here and relied on everywhere else:

* Weights are stored in fundamental-weight coordinates (integer tuples);
  roots additionally carry simple-root coordinates.  cartan[i][j] is the
  pairing of alpha_j against the i-th simple coroot, so the j-th column
  of the Cartan matrix is alpha_j in fundamental coordinates.
* The invariant inner product is normalized so short simple roots have
  squared length 1.  In the simply-laced types every root counts as
  short.
* Simple roots are numbered 1..rank left to right on the Dynkin diagram.
  In type B the last node is short, in type C it is long.  In F4 nodes
  3 and 4 are the long ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from .config import CapExceeded, Caps, caps_from_env


# the exceptional types come in one rank; the classical ones from a least rank
_FIXED_RANK = {"G2": 2, "F4": 4}
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def _cartan_and_norms(type_label: str, rank: int):
    """Cartan matrix rows and squared lengths of the simple roots."""
    if type_label in _FIXED_RANK and rank != _FIXED_RANK[type_label]:
        raise ValueError(f"{type_label} has rank {_FIXED_RANK[type_label]}, not {rank}")
    if type_label in _LEAST_RANK and rank < _LEAST_RANK[type_label]:
        raise ValueError(
            f"type {type_label} needs rank at least {_LEAST_RANK[type_label]}, not {rank}"
        )
    n = rank

    def chain(norms, bonds):
        # bonds: {(i, j): entry c[i][j]}; unlisted adjacent pairs get -1
        cartan = [[0] * n for _ in range(n)]
        for i in range(n):
            cartan[i][i] = 2
        for (i, j), c in bonds.items():
            cartan[i][j] = c
        return cartan, norms

    if type_label == "A":
        bonds = {}
        for i in range(n - 1):
            bonds[(i, i + 1)] = bonds[(i + 1, i)] = -1
        return chain([1] * n, bonds)
    if type_label == "B":
        bonds = {}
        for i in range(n - 2):
            bonds[(i, i + 1)] = bonds[(i + 1, i)] = -1
        bonds[(n - 2, n - 1)] = -1   # <alpha_n, alpha_{n-1}^vee>
        bonds[(n - 1, n - 2)] = -2   # <alpha_{n-1}, alpha_n^vee>
        return chain([2] * (n - 1) + [1], bonds)
    if type_label == "C":
        bonds = {}
        for i in range(n - 2):
            bonds[(i, i + 1)] = bonds[(i + 1, i)] = -1
        bonds[(n - 2, n - 1)] = -2
        bonds[(n - 1, n - 2)] = -1
        return chain([1] * (n - 1) + [2], bonds)
    if type_label == "D":
        bonds = {}
        for i in range(n - 2):
            bonds[(i, i + 1)] = bonds[(i + 1, i)] = -1
        bonds[(n - 3, n - 1)] = bonds[(n - 1, n - 3)] = -1
        return chain([1] * n, bonds)
    if type_label == "G2":
        # node 1 short, node 2 long (squared length 3)
        return chain([1, 3], {(0, 1): -3, (1, 0): -1})
    if type_label == "F4":
        # nodes 1,2 short; nodes 3,4 long
        bonds = {(0, 1): -1, (1, 0): -1, (2, 3): -1, (3, 2): -1,
                 (1, 2): -2, (2, 1): -1}
        return chain([1, 1, 2, 2], bonds)
    raise ValueError(f"no finite root system of type {type_label}")


def _scaled_inverse(matrix):
    """(den, num) with num = den * matrix^-1 an integer matrix and den the
    least positive integer that clears its denominators.  Fraction-free
    Gauss-Jordan (Bareiss): every division is exact, and at the end each
    diagonal entry is the last pivot d and the right half is d * matrix^-1."""
    n = len(matrix)
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        piv = next(r for r in range(k, n) if aug[r][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        p = aug[k][k]
        for r in range(n):
            if r != k:
                c = aug[r][k]
                aug[r] = [(p * x - c * y) // prev for x, y in zip(aug[r], aug[k])]
        prev = p
    scaled = [row[n:] for row in aug]
    g = gcd(prev, *(x for row in scaled for x in row))
    if prev < 0:
        g = -g
    return prev // g, tuple(tuple(x // g for x in row) for row in scaled)


def weyl_group_order(type_label: str, rank: int) -> int:
    n = rank
    if type_label == "A":
        return factorial(n + 1)
    if type_label in ("B", "C"):
        return 2**n * factorial(n)
    if type_label == "D":
        return 2 ** (n - 1) * factorial(n)
    if type_label == "G2":
        return 12
    if type_label == "F4":
        return 1152
    raise ValueError(f"unknown type {type_label}")


@dataclass(frozen=True)
class Root:
    """A positive root with both coordinate systems precomputed."""

    index: int
    rc: tuple            # simple-root coordinates
    fc: tuple            # fundamental-weight coordinates
    norm_sq: int
    long: bool
    coroot_fc: tuple     # <lam, beta^vee> = sum(coroot_fc[j] * lam.fc[j])

    @property
    def height(self) -> int:
        return sum(self.rc)

    def __repr__(self):
        return f"Root{self.rc}"


class Weight:
    """Integer weight in fundamental coordinates, bound to its system."""

    __slots__ = ("system", "fc")

    def __init__(self, system: "RootSystem", fc):
        self.system = system
        self.fc = tuple(int(x) for x in fc)
        if len(self.fc) != system.rank:
            raise ValueError("coordinate length does not match rank")

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.system is other.system
            and self.fc == other.fc
        )

    def __hash__(self):
        return hash((self.system.key, self.fc))

    def __add__(self, other):
        return Weight(self.system, [a + b for a, b in zip(self.fc, other.fc)])

    def __sub__(self, other):
        return Weight(self.system, [a - b for a, b in zip(self.fc, other.fc)])

    def __neg__(self):
        return Weight(self.system, [-a for a in self.fc])

    def __mul__(self, k: int):
        return Weight(self.system, [k * a for a in self.fc])

    __rmul__ = __mul__

    def root_coords(self) -> tuple:
        """Coordinates on the simple roots: ints on the root lattice,
        Fractions off it."""
        return self.system.root_coords(self.fc)

    def in_root_lattice(self) -> bool:
        return self.system.lattice_coords(self.fc) is not None

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.fc)

    def is_zero(self) -> bool:
        return not any(self.fc)

    def __repr__(self):
        return f"Weight{self.fc}"


def _require_dominant(mu: Weight) -> None:
    """The one check that a highest weight is dominant, shared by the
    module and q-analog sides."""
    if not mu.is_dominant():
        raise ValueError(f"highest weight {mu.fc} is not dominant")


class WeylElement:
    """Weyl group element as an integer matrix on fundamental coordinates."""

    __slots__ = ("system", "matrix", "word", "_length")

    def __init__(self, system, matrix, word):
        self.system = system
        self.matrix = matrix
        self.word = tuple(word)
        self._length = None

    def apply_fc(self, fc):
        return tuple(sum(row[c] * fc[c] for c in range(len(fc))) for row in self.matrix)

    def apply(self, weight: Weight) -> Weight:
        return Weight(self.system, self.apply_fc(weight.fc))

    @property
    def length(self) -> int:
        """Coxeter length, computed as the number of positive roots sent
        to negative ones."""
        if self._length is None:
            count = 0
            for root in self.system.positive_roots:
                image = self.apply_fc(root.fc)
                if self.system.root_sign(image) < 0:
                    count += 1
            self._length = count
        return self._length

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self*other)(x) = self(other(x))."""
        n = self.system.rank
        a, b = self.matrix, other.matrix
        rows = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return WeylElement(self.system, rows, self.word + other.word)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        if not self.word:
            return "WeylElement(e)"
        return "WeylElement(%s)" % "*".join(f"s{i+1}" for i in self.word)


class Parabolic:
    """Standard parabolic subset, given by 0-based simple-root indices."""

    def __init__(self, system: "RootSystem", indices):
        self.system = system
        self.indices = frozenset(int(i) for i in indices)
        for i in self.indices:
            if not 0 <= i < system.rank:
                raise ValueError(f"simple-root index {i} out of range")
        self.key = tuple(sorted(self.indices))

    @property
    def positive_roots(self) -> list:
        """Positive roots supported on the chosen simple roots."""
        return [
            r
            for r in self.system.positive_roots
            if all(c == 0 or i in self.indices for i, c in enumerate(r.rc))
        ]

    @property
    def rho_doubled(self) -> Weight:
        """2*rho_P, the sum of the parabolic's positive roots."""
        fc = [0] * self.system.rank
        for r in self.positive_roots:
            fc = [a + b for a, b in zip(fc, r.fc)]
        return Weight(self.system, fc)

    def is_dominant(self, weight: Weight) -> bool:
        return all(weight.fc[i] >= 0 for i in self.indices)

    def is_regular_dominant(self, weight: Weight) -> bool:
        return all(weight.fc[i] > 0 for i in self.indices)

    def __eq__(self, other):
        return (
            isinstance(other, Parabolic)
            and self.system is other.system
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.system.key, self.key))

    def __repr__(self):
        inside = ",".join(str(i + 1) for i in self.key)
        return f"Parabolic({{{inside}}})"


class RootSystem:
    """Root-system data for one (type, rank) under one set of caps, and
    the cache of everything computed from it, which obeys those caps."""

    def __init__(self, type_label: str, rank: int, caps: Caps):
        if rank > caps.rank:
            raise CapExceeded(f"rank {rank} exceeds rank cap {caps.rank}")
        cartan, norms = _cartan_and_norms(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        # "A3", "G2", "F4": the G2 and F4 labels already carry the rank
        self.name = type_label if type_label[-1].isdigit() else f"{type_label}{rank}"
        self.caps = caps
        self.key = (type_label, rank)
        self.cartan_matrix = tuple(tuple(row) for row in cartan)
        self._cartan_cols = tuple(
            tuple(self.cartan_matrix[r][i] for r in range(rank)) for i in range(rank)
        )
        self.simple_norms = tuple(norms)
        # weight arithmetic kernel: den * C^-1 maps fundamental to root
        # coordinates, and the rows of diag(norms) * num give
        # 2 * den * (a, b) on fundamental coordinates
        self.den, self._num = _scaled_inverse(self.cartan_matrix)
        self._form = tuple(
            tuple(norm * x for x in row) for norm, row in zip(norms, self._num)
        )
        self.positive_roots = self._close_positive_roots()
        self._root_by_rc = {r.rc: r for r in self.positive_roots}
        self._weyl_group = None
        self._simple_refs: list = []
        self.rho = Weight(self, [1] * rank)
        # filled on first use by chevalley, irreps and qanalog
        self._algebra = None
        self._irreps: dict = {}             # mu fc -> ExplicitModule
        self._q_partitions: dict = {}       # (parabolic key, rc) -> QPolynomial
        self._multiplicity_tables: dict = {}  # mu fc -> Freudenthal table

    # -- construction ------------------------------------------------

    def _fc_of_rc(self, rc):
        return tuple(
            sum(self.cartan_matrix[i][j] * rc[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def _close_positive_roots(self):
        """The positive roots, ordered by (height, rc), as the orbit of the
        simple roots under s_i(beta) = beta - <beta, alpha_i^vee> alpha_i,
        where the pairing is entry i of beta's fc.  Only the raising steps,
        those with a negative pairing, are taken: a non-simple positive
        root beta has some i with a positive pairing, and s_i(beta) is a
        lower positive root whose raising step s_i leads back to beta.
        Reflections keep length, so each image takes its squared length
        from the root it came from."""
        n = self.rank
        norms = {}
        frontier = []
        for i, norm in enumerate(self.simple_norms):
            rc = tuple(int(j == i) for j in range(n))
            norms[rc] = norm
            frontier.append(rc)
        while frontier:
            nxt = []
            for rc in frontier:
                for i, c in enumerate(self._fc_of_rc(rc)):
                    if c < 0:
                        image = rc[:i] + (rc[i] - c,) + rc[i + 1:]
                        if image not in norms:
                            norms[image] = norms[rc]
                            nxt.append(image)
            frontier = nxt
        ordered = sorted(norms, key=lambda rc: (sum(rc), rc))
        return tuple(
            Root(
                index=idx,
                rc=rc,
                fc=self._fc_of_rc(rc),
                norm_sq=norms[rc],
                long=norms[rc] > 1,
                # beta^vee = sum_j rc_j |alpha_j|^2 / |beta|^2 alpha_j^vee
                coroot_fc=tuple(c * s // norms[rc] for c, s in zip(rc, self.simple_norms)),
            )
            for idx, rc in enumerate(ordered)
        )

    # -- basic accessors ----------------------------------------------

    def weight(self, coords, basis: str = "fundamental") -> Weight:
        if basis == "fundamental":
            return Weight(self, coords)
        if basis == "root":
            return Weight(self, self._fc_of_rc(tuple(int(c) for c in coords)))
        raise ValueError("basis must be 'fundamental' or 'root'")

    def zero_weight(self) -> Weight:
        return Weight(self, [0] * self.rank)

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(self, [1 if j == i else 0 for j in range(self.rank)])

    def lattice_coords(self, fc):
        """Simple-root coordinates of fc as ints, or None when fc is off
        the root lattice."""
        den = self.den
        out = []
        for row in self._num:
            q, r = divmod(sum(map(mul, row, fc)), den)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def root_coords(self, fc) -> tuple:
        """Simple-root coordinates: ints on the root lattice, Fractions
        with denominator dividing den off it."""
        rc = self.lattice_coords(fc)
        if rc is not None:
            return rc
        return tuple(Fraction(sum(map(mul, row, fc)), self.den) for row in self._num)

    def inner_scaled(self, a_fc, b_fc) -> int:
        """2 * den * (a, b) for weights in fundamental coordinates."""
        return sum(x * sum(map(mul, row, b_fc)) for x, row in zip(a_fc, self._form))

    def root_sign(self, fc) -> int:
        """+1/-1 if fc is a (positive/negative) root, else 0."""
        rc = self.lattice_coords(fc)
        if rc is None:
            return 0
        if rc in self._root_by_rc:
            return 1
        if tuple(-x for x in rc) in self._root_by_rc:
            return -1
        return 0

    @property
    def highest_root(self) -> Root:
        return max(self.positive_roots, key=lambda r: r.height)

    def inner(self, a: Weight, b: Weight) -> Fraction:
        """Invariant inner product (short simple roots have norm 1)."""
        return Fraction(self.inner_scaled(a.fc, b.fc), 2 * self.den)

    def norm_sq(self, a: Weight) -> Fraction:
        return self.inner(a, a)

    def pair(self, weight: Weight, root: Root) -> int:
        """Coroot pairing <weight, root^vee>."""
        return sum(k * x for k, x in zip(root.coroot_fc, weight.fc))

    def is_regular(self, weight: Weight) -> bool:
        return all(self.pair(weight, r) != 0 for r in self.positive_roots)

    def height_of(self, weight: Weight) -> int:
        """Sum of root coordinates; weight must be in the root lattice."""
        rc = self.lattice_coords(weight.fc)
        if rc is None:
            raise ValueError("weight is not in the root lattice")
        return sum(rc)

    def dominance_leq(self, a: Weight, b: Weight) -> bool:
        """True iff b - a is a nonnegative integer sum of simple roots."""
        rc = self.lattice_coords([y - x for x, y in zip(a.fc, b.fc)])
        return rc is not None and all(x >= 0 for x in rc)

    # -- Weyl group ----------------------------------------------------

    def identity_element(self) -> WeylElement:
        n = self.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return WeylElement(self, rows, ())

    def simple_reflection(self, i: int) -> WeylElement:
        if not self._simple_refs:
            n = self.rank
            for k in range(n):
                rows = tuple(
                    tuple(
                        (1 if r == c else 0)
                        - (self.cartan_matrix[r][k] if c == k else 0)
                        for c in range(n)
                    )
                    for r in range(n)
                )
                w = WeylElement(self, rows, (k,))
                w._length = 1
                self._simple_refs.append(w)
        return self._simple_refs[i]

    def weyl_order(self) -> int:
        """|W|; raises CapExceeded above the Weyl order cap."""
        order = weyl_group_order(self.type_label, self.rank)
        if order > self.caps.weyl_order:
            raise CapExceeded(
                f"|W| = {order} exceeds the Weyl order cap {self.caps.weyl_order}"
            )
        return order

    def weyl_group(self) -> list:
        """All Weyl group elements, ordered by (length, word); enumerated
        once, breadth first from the identity, and kept on the system."""
        self.weyl_order()
        if self._weyl_group is None:
            gens = [self.simple_reflection(i) for i in range(self.rank)]
            identity = self.identity_element()
            seen = {identity.matrix: identity}
            frontier = [identity]
            while frontier:
                nxt = []
                for w in frontier:
                    for g in gens:
                        cand = w.compose(g)
                        if cand.matrix not in seen:
                            cand._length = len(cand.word)
                            seen[cand.matrix] = cand
                            nxt.append(cand)
                frontier = nxt
            self._weyl_group = sorted(seen.values(), key=lambda w: (len(w.word), w.word))
        return self._weyl_group

    def parabolic(self, indices) -> Parabolic:
        return Parabolic(self, indices)

    def borel(self) -> Parabolic:
        return Parabolic(self, ())

    # -- actions --------------------------------------------------------

    def dominant_weight_fc(self, fc) -> tuple:
        """Fundamental coordinates of the dominant Weyl conjugate."""
        fc = list(fc)
        n = self.rank
        while True:
            for i in range(n):
                if fc[i] < 0:
                    c = fc[i]
                    col = self._cartan_cols[i]
                    fc = [x - c * col[r] for r, x in enumerate(fc)]
                    break
            else:
                return tuple(fc)

    def shifted_action(self, w: WeylElement, weight: Weight) -> Weight:
        """Affine action w(weight + rho) - rho."""
        shifted = [a + 1 for a in weight.fc]
        moved = w.apply_fc(shifted)
        return Weight(self, [a - 1 for a in moved])

    def __repr__(self):
        return f"RootSystem({self.name})"


@functools.lru_cache(maxsize=None)
def _cached_system(type_label: str, rank: int, caps: Caps) -> RootSystem:
    return RootSystem(type_label, rank, caps)


def build_root_system(type_label: str, rank: int, caps: Caps | None = None) -> RootSystem:
    """The root system of (type, rank) under caps, one instance per
    (type, rank, caps) in the process.  caps=None reads the defaults
    from the LIEQ_<NAME>_CAP variables."""
    if caps is None:
        caps = caps_from_env()
    return _cached_system(type_label.upper(), rank, caps)
