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

`_DIAGRAMS` is the one table of types: for each, its rank rule and, at
rank n, the squared lengths of the simple roots, the edges of the
Dynkin diagram and |W|.  The Cartan matrix follows from one rule: on an
edge {i, j}, C[i][j] = -max(|alpha_i|^2, |alpha_j|^2) / |alpha_i|^2,
off the edges 0, and 2 on the diagonal (Humphreys, *Introduction to Lie
Algebras and Representation Theory*, section 11).  Its scaled inverse
(den, den * C^-1), the integer kernel of the weight arithmetic, is read
off the kernel of [C | -I] from `linalg.sparse_nullspace`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm
from operator import add, index, mul, neg, sub
from typing import Callable, NamedTuple

from .config import CapExceeded, Caps, caps_from_env
from .linalg import sparse_nullspace


def _chain(n: int) -> list:
    """Edges of the path 1 - 2 - ... - n, 0-based."""
    return [(i, i + 1) for i in range(n - 1)]


class _Diagram(NamedTuple):
    least_rank: int
    fixed_rank: bool     # the exceptional types come in their least rank only
    norms: Callable      # rank -> squared lengths of the simple roots
    edges: Callable      # rank -> Dynkin edges (i, j), 0-based
    weyl_order: Callable  # rank -> |W|


_DIAGRAMS = {
    "A": _Diagram(1, False, lambda n: [1] * n, _chain, lambda n: factorial(n + 1)),
    "B": _Diagram(2, False, lambda n: [2] * (n - 1) + [1], _chain,
                  lambda n: 2**n * factorial(n)),
    "C": _Diagram(2, False, lambda n: [1] * (n - 1) + [2], _chain,
                  lambda n: 2**n * factorial(n)),
    # nodes n-1 and n both hang off node n-2
    "D": _Diagram(3, False, lambda n: [1] * n, lambda n: _chain(n - 1) + [(n - 3, n - 1)],
                  lambda n: 2 ** (n - 1) * factorial(n)),
    "G2": _Diagram(2, True, lambda n: [1, 3], _chain, lambda n: 12),
    "F4": _Diagram(4, True, lambda n: [1, 1, 2, 2], _chain, lambda n: 1152),
}


def _diagram(type_label: str, rank: int) -> _Diagram:
    """The table row of type_label, once rank is known to fit its rank
    rule; ValueError otherwise."""
    row = _DIAGRAMS.get(type_label)
    if row is None:
        raise ValueError(f"no finite root system of type {type_label}")
    if row.fixed_rank and rank != row.least_rank:
        raise ValueError(f"{type_label} has rank {row.least_rank}, not {rank}")
    if rank < row.least_rank:
        raise ValueError(
            f"type {type_label} needs rank at least {row.least_rank}, not {rank}"
        )
    return row


def _cartan_and_norms(type_label: str, rank: int):
    """Cartan matrix rows and squared lengths of the simple roots, from
    the table's lengths and edges."""
    row = _diagram(type_label, rank)
    norms = row.norms(rank)
    cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in row.edges(rank):
        longer = max(norms[i], norms[j])
        cartan[i][j] = -(longer // norms[i])
        cartan[j][i] = -(longer // norms[j])
    return cartan, norms


def _scaled_inverse(matrix):
    """(den, num) with num = den * matrix^-1 an integer matrix and den the
    least positive integer that clears its denominators.  The kernel of
    [matrix | -I] has one primitive vector (x, t) per column n + j, with
    matrix x = t e_j and t > 0, so column j of matrix^-1 is x / t, in
    lowest terms because (x, t) is primitive: den is the lcm of the t's."""
    n = len(matrix)
    rows = [
        {**{j: c for j, c in enumerate(row) if c}, n + i: -1}
        for i, row in enumerate(matrix)
    ]
    kernel = sparse_nullspace(rows, range(2 * n))
    den = lcm(*(vec[n + j] for j, vec in enumerate(kernel)))
    scales = [den // vec[n + j] for j, vec in enumerate(kernel)]
    return den, tuple(
        tuple(vec.get(i, 0) * s for vec, s in zip(kernel, scales)) for i in range(n)
    )


def weyl_group_order(type_label: str, rank: int) -> int:
    return _diagram(type_label, rank).weyl_order(rank)


class Root:
    """A positive root with both coordinate systems precomputed, a
    read-only value.  Slots rather than a named tuple: the hot loops
    read its fields, and a slot reads faster than a tuple field."""

    __slots__ = ("index", "rc", "fc", "norm_sq", "long", "coroot_fc")
    # rc: simple-root coordinates; fc: fundamental-weight coordinates;
    # coroot_fc: <lam, beta^vee> = sum(coroot_fc[j] * lam.fc[j])

    def __init__(self, index, rc, fc, norm_sq, long, coroot_fc):
        for name, value in zip(self.__slots__, (index, rc, fc, norm_sq, long, coroot_fc)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Root is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if not isinstance(other, Root):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    @property
    def height(self) -> int:
        return sum(self.rc)

    def __repr__(self):
        return f"Root{self.rc}"


def _integers(values, what: str) -> tuple:
    """values as a tuple of ints, each read with `operator.index`, so a
    float or Fraction raises ValueError naming it instead of being
    truncated.  A list or tuple is read in place; any other iterable is
    copied first, so that a bad value can still be named after the
    read."""
    if not isinstance(values, (tuple, list)):
        values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(f"{what} {bad!r} is not an integer") from None


class Weight:
    """Integer weight in fundamental coordinates, bound to its system.

    `Weight(system, fc)` reads every coordinate with `operator.index`
    and checks the length.  The weights the library derives from ones
    it already holds (sums, differences, multiples, reflections, star)
    are made by `_trusted`, which reads nothing again."""

    __slots__ = ("system", "fc")

    def __init__(self, system: "RootSystem", fc):
        fc = _integers(fc, "coordinate")
        if len(fc) != system.rank:
            raise ValueError("coordinate length does not match rank")
        self.system = system
        self.fc = fc

    @staticmethod
    def _trusted(system: "RootSystem", fc: tuple) -> "Weight":
        """The weight of fc, which must already be a tuple of system.rank
        ints."""
        weight = object.__new__(Weight)
        weight.system = system
        weight.fc = fc
        return weight

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.system is other.system
            and self.fc == other.fc
        )

    def __hash__(self):
        return hash((self.system.key, self.fc))

    def __add__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        self.system.require_same(other.system)
        return Weight._trusted(self.system, tuple(map(add, self.fc, other.fc)))

    def __sub__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        self.system.require_same(other.system)
        return Weight._trusted(self.system, tuple(map(sub, self.fc, other.fc)))

    def __neg__(self):
        return Weight._trusted(self.system, tuple(map(neg, self.fc)))

    def __mul__(self, k: int):
        try:
            k = index(k)
        except TypeError:
            raise ValueError(f"scalar {k!r} is not an integer") from None
        return Weight._trusted(self.system, tuple([k * a for a in self.fc]))

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
        self.system.require_same(weight.system)
        return Weight._trusted(self.system, self.apply_fc(weight.fc))

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
    """The standard parabolic of a set of Levi nodes, its root data
    decided once: `positive_roots`, the Levi's positive roots (those
    supported on the nodes), `nilradical`, the other positive roots,
    both in the system's order, `rho_doubled`, 2 rho_P, the sum of the
    Levi's positive roots, and `levi_dimension`, rank + 2 |Phi_L^+|.
    Made only by `RootSystem.parabolic`, which checks the nodes and keeps
    one per node set, so two equal parabolics are one object."""

    def __init__(self, system: "RootSystem", key: tuple):
        self.system = system
        self.key = key      # the 0-based Levi nodes, sorted
        self.indices = frozenset(key)
        levi, nilradical = [], []
        for r in system.positive_roots:
            inside = all(c == 0 or i in self.indices for i, c in enumerate(r.rc))
            (levi if inside else nilradical).append(r)
        self.positive_roots = tuple(levi)
        self.nilradical = tuple(nilradical)
        self.rho_doubled = Weight._trusted(
            system, tuple(sum(r.fc[j] for r in levi) for j in range(system.rank))
        )
        self.levi_dimension = system.rank + 2 * len(levi)

    def is_dominant(self, weight: Weight) -> bool:
        self.system.require_same(weight.system)
        return all(weight.fc[i] >= 0 for i in self.indices)

    def is_regular_dominant(self, weight: Weight) -> bool:
        self.system.require_same(weight.system)
        return all(weight.fc[i] > 0 for i in self.indices)

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
        # the simple-root steps: for each i, the pairs (r, C[r][i]) over the
        # Dynkin neighbours r of alpha_i, the nonzero entries of column i off
        # the diagonal; s_i and + alpha_i change fc[i] and these entries only
        self._simple_steps = tuple(
            tuple((r, cartan[r][i]) for r in range(rank) if r != i and cartan[r][i])
            for i in range(rank)
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
        # alpha_1..alpha_rank: the height-1 roots lead the (height, rc)
        # order, which puts alpha_rank first
        self.simple_roots = self.positive_roots[rank - 1::-1]
        self._root_by_rc = {r.rc: r for r in self.positive_roots}
        self._weyl_group = None
        self._simple_refs: list = []
        self._parabolics: dict = {}         # Levi node key -> Parabolic
        self.rho = Weight._trusted(self, (1,) * rank)
        # filled on first use by chevalley, irreps, qanalog and height
        self._algebra = None
        self._irreps: dict = {}             # mu fc -> ExplicitModule
        self._q_partitions: dict = {}       # (parabolic key, rc) -> QPolynomial
        self._multiplicity_tables: dict = {}  # mu fc -> Freudenthal table
        self._interval_steps: dict = {}     # field widths -> packed root steps
        self._cht_depths: dict = {}         # (star fc, dominant fc) -> cht

    def require_same(self, *others: "RootSystem") -> None:
        """The one check that combined objects share a root system:
        ValueError unless each other has this type and rank (caps may differ)."""
        for other in others:
            if other is not self and other.key != self.key:
                raise ValueError(f"cannot combine objects of {self.name} and {other.name}")

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
            rc = _integers(coords, "coordinate")
            if len(rc) != self.rank:
                raise ValueError("coordinate length does not match rank")
            return Weight._trusted(self, self._fc_of_rc(rc))
        raise ValueError("basis must be 'fundamental' or 'root'")

    def zero_weight(self) -> Weight:
        return Weight._trusted(self, (0,) * self.rank)

    def _nodes(self, indices) -> tuple:
        """indices as ints, each checked to be a 0-based simple-root
        index: ValueError naming the first that is not."""
        nodes = _integers(indices, "simple-root index")
        for i in nodes:
            if not 0 <= i < self.rank:
                raise ValueError(f"simple-root index {i} out of range")
        return nodes

    def fundamental_weight(self, i: int) -> Weight:
        """omega_i, for a 0-based simple-root index i."""
        (i,) = self._nodes((i,))
        return Weight._trusted(self, tuple(int(j == i) for j in range(self.rank)))

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
        self.require_same(a.system, b.system)
        return Fraction(self.inner_scaled(a.fc, b.fc), 2 * self.den)

    def norm_sq(self, a: Weight) -> Fraction:
        return self.inner(a, a)

    def pair(self, weight: Weight, root: Root) -> int:
        """Coroot pairing <weight, root^vee>."""
        return sum(map(mul, root.coroot_fc, weight.fc))

    def is_regular(self, weight: Weight) -> bool:
        self.require_same(weight.system)
        return all(self.pair(weight, r) != 0 for r in self.positive_roots)

    def height_of(self, weight: Weight) -> int:
        """Sum of root coordinates; weight must be in the root lattice."""
        self.require_same(weight.system)
        rc = self.lattice_coords(weight.fc)
        if rc is None:
            raise ValueError("weight is not in the root lattice")
        return sum(rc)

    def dominance_leq(self, a: Weight, b: Weight) -> bool:
        """True iff b - a is a nonnegative integer sum of simple roots."""
        self.require_same(a.system, b.system)
        rc = self.lattice_coords(tuple(map(sub, b.fc, a.fc)))
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

    def weyl_group(self) -> list:
        """All Weyl group elements, ordered by (length, word); enumerated
        once, breadth first from the identity, and kept on the system.
        The one place the Weyl order cap applies: CapExceeded above it."""
        order = weyl_group_order(self.type_label, self.rank)
        if order > self.caps.weyl_order:
            raise CapExceeded(
                f"|W| = {order} exceeds the Weyl order cap {self.caps.weyl_order}"
            )
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
        """The system's one Parabolic with these 0-based Levi nodes, in
        any order or repetition; the nodes are checked before anything
        is kept."""
        key = tuple(sorted(set(self._nodes(indices))))
        parabolic = self._parabolics.get(key)
        if parabolic is None:
            parabolic = self._parabolics[key] = Parabolic(self, key)
        return parabolic

    def borel(self) -> Parabolic:
        return self.parabolic(())

    # -- actions --------------------------------------------------------

    def dominant_weight_fc(self, fc) -> tuple:
        """Fundamental coordinates of the dominant Weyl conjugate.

        While some coordinate c = fc[i] is negative, reflect by s_i in
        place: s_i(lam) = lam - c alpha_i sets fc[i] to -c and takes
        c * C[r][i] from each neighbour r, read from the sparse steps.
        Each reflection adds -c > 0 copies of alpha_i, so the weight
        climbs in dominance order inside its finite orbit and the loop
        ends, at the orbit's one dominant point (Humphreys, section
        13.2), whatever order the reflections are taken in."""
        fc = list(fc)
        steps = self._simple_steps
        n = self.rank
        i = 0
        while i < n:
            c = fc[i]
            if c < 0:
                fc[i] = -c
                for r, a in steps[i]:
                    fc[r] -= c * a
                i = 0
            else:
                i += 1
        return tuple(fc)

    def shifted_action(self, w: WeylElement, weight: Weight) -> Weight:
        """Affine action w(weight + rho) - rho."""
        self.require_same(w.system, weight.system)
        shifted = [a + 1 for a in weight.fc]
        moved = w.apply_fc(shifted)
        return Weight._trusted(self, tuple([a - 1 for a in moved]))

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
