"""Explicit irreducible highest-weight modules in exact arithmetic, plus
the nilpotent jump polynomial of a filtration by kernels of powers.

Construction: V(mu) is built in its own weight spaces, with no ambient
space.  Starting from the highest vector, each level is reached by the
lowering operators f_i, and a vector below mu is represented only by
its raising images (e_j v)_j, which determine it in an irreducible
module.  Those images are known from the level above, so one row
reduction per weight decides which f_i.b are new basis vectors.  This
is the Verma-quotient view of de Graaf, *Lie Algebras: Theory and
Algorithms* (2000).  The reduction is `linalg.eliminate` on scaled
ints: each weight's basis vectors are its pivots, whose tails name
them, and a candidate's tail carries its scale and its coefficients in
them, the same rationals as a reduction over Q.  Every module carries
weight tags, one fc tuple per distinct weight, and sparse generator
matrices in its own coordinates.  A map is {col: column}, each column
the ints the construction produced, in one flat tuple (den, row0, n0,
row1, n1, ...): entry k is n_k / den, den > 0 the one denominator the
construction keeps per basis vector (for the raising images) or per
f column, and `linalg.entries` reads the (row, n) pairs after it.  The
raising maps e_i are written when the module is built and kept once:
the operator of a simple root vector is the stored map itself.  The
lowering maps f_i, which only negative root vectors read, are built on
first use by running the deterministic construction again, and kept.

Filtration: an algebra element x acts on a vector as the sum of its
basis terms, each an operator that the module builds once from its
generator matrices and keeps (a non-simple root vector as a commutator
of two such column maps); x itself is never built as a matrix on the
whole module.  The filtration vectors are ints: x's coefficients are
scaled to coprime ints once per element and kept on it
(`AlgebraElement.int_coeffs`), and each image is scaled by the lcm of
the dens of the columns it reads (`_scaled_image`), so the filtration
makes no `Fraction`; the commutators are built by the same kernel.
The exact action `apply_cols`/`apply_element`, which reads each entry
as `Fraction(n, den)`, stays, for the tests to compare against.
The Levi-highest kernel and the rank of a power of two or more vectors
go through `linalg.eliminate`, as the construction does; a power that
is one line needs no reduction: its image, divided by its gcd, is the
next power.  Whether x is nilpotent is decided once per element
(`AlgebraElement.is_nilpotent`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from .chevalley import AlgebraElement, ChevalleyAlgebra, build_chevalley
from .config import CapExceeded
from .linalg import (
    _primitive, add_scaled, eliminate, entries, sparse_echelon, sparse_nullspace
)
from .qanalog import weyl_dimension
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight, _require_dominant


class ExplicitModule:
    """A concrete module: a weight-tagged basis with sparse column maps
    for the Chevalley generators, each column a flat int tuple (den,
    row0, n0, row1, n1, ...) of the entries n_k / den.  The raising
    maps come with the module; the lowering maps, which only negative
    root vectors read, are built on first use."""

    def __init__(self, system, highest_weight, weights, e_cols):
        self.system = system
        self.highest_weight = highest_weight
        self.weights = weights          # fc tuple per basis vector, shared by a weight
        self.e_cols = e_cols            # e_cols[i][col] = (den, row0, n0, row1, n1, ...)
        self._f_cols = None
        index: dict = {}
        for idx, fc in enumerate(weights):
            index.setdefault(fc, []).append(idx)
        self.weight_index = {fc: tuple(idxs) for fc, idxs in index.items()}
        self._operator_cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def f_cols(self) -> list:
        """f_cols[i][col] = (den, row0, n0, row1, n1, ...), as e_cols,
        from a second run of the construction, which is deterministic,
        on the first access; then kept."""
        if self._f_cols is None:
            _, _, lowering = _lower_from_highest(
                self.system, self.highest_weight, self.dim
            )
            self._f_cols = [
                {
                    col: (den, *chain.from_iterable(expr.items()))
                    for col, (den, expr) in f_i.items()
                }
                for f_i in lowering
            ]
        return self._f_cols

    def weight_space(self, lam: Weight) -> list:
        """Unit vectors {idx: 1} (module coordinates) spanning the
        weight space."""
        return [{idx: 1} for idx in self.weight_index.get(lam.fc, ())]

    def l_highest_space(self, lam: Weight, parabolic: Parabolic) -> list:
        """Basis of the vectors of weight lam killed by the raising
        operators of the parabolic's Levi, as primitive int vectors:
        the unit vectors for the Borel, else `sparse_nullspace` over
        the weight space's indices in order, each constraint row scaled
        to ints by the lcm of the dens it reads."""
        if not parabolic.indices:
            return self.weight_space(lam)
        indices = self.weight_index.get(lam.fc, ())
        constraints: dict = {}
        for i in sorted(parabolic.indices):
            for idx in indices:
                column = self.e_cols[i].get(idx)
                if column:
                    for row, n in entries(column):
                        constraints.setdefault((i, row), {})[idx] = (n, column[0])
        rows = []
        for nd in constraints.values():
            den = lcm(*(d for _, d in nd.values()))
            rows.append({idx: n * (den // d) for idx, (n, d) in nd.items()})
        return sparse_nullspace(rows, indices)

    # -- generator / element action ------------------------------------

    def apply_cols(self, cols, vec: dict) -> dict:
        """The flat columns cols applied to vec, exactly: the sum of
        c / den times column col's numerators over vec's items (col, c)."""
        out: dict = {}
        for col, c in vec.items():
            column = cols.get(col)
            if column:
                add_scaled(out, entries(column), Fraction(c, column[0]))
        return out

    def _basis_operator(self, basis_index: int):
        """Sparse columns of one Chevalley basis element on this module,
        non-simple root vectors via iterated commutators of simple ones."""
        cached = self._operator_cache.get(basis_index)
        if cached is not None:
            return cached
        algebra = build_chevalley(self.system)
        kind = algebra.index_data(basis_index)
        if kind[0] == "h":
            i = kind[1]
            cols = {
                idx: (1, idx, self.weights[idx][i])
                for idx in range(self.dim)
                if self.weights[idx][i]
            }
        else:
            _, sign, root = kind
            if root.height == 1:
                i = root.rc.index(1)
                cols = self.e_cols[i] if sign > 0 else self.f_cols[i]
            else:
                # X_root = [X_a, X_rest] / N for the first simple root a
                # whose removal leaves a root, N read from the ad table
                by_rc = self.system._root_by_rc
                for alpha in self.system.simple_roots:
                    rest = by_rc.get(tuple(a - b for a, b in zip(root.rc, alpha.rc)))
                    if rest is not None:
                        break
                first = algebra.x_index(alpha, sign)
                second = algebra.x_index(rest, sign)
                cols = self._commutator_cols(
                    self._basis_operator(first), self._basis_operator(second),
                    algebra._ad[first][second][basis_index],
                )
        self._operator_cache[basis_index] = cols
        return cols

    def _commutator_cols(self, a, b, n: int):
        """Flat columns of [a, b] / n, n a nonzero int, from the columns
        of a and b, in ints: column col is a(b[col]) - b(a[col]), zero
        outside both maps' columns.  Each side is `_scaled_image` of the
        inner column's numerators, s times its value, s that column's
        den times the lcm of the dens the image reads; the sides are
        summed over the lcm L of their s, times n, and the column is
        over L n^2 > 0, in lowest terms."""
        cols = {}
        for col in sorted(a.keys() | b.keys()):
            sides = []
            for first, second, sign in ((a, b, n), (b, a, -n)):
                column = second.get(col)
                if column:
                    vec = dict(entries(column))
                    s = column[0] * lcm(*(first[r][0] for r in vec if r in first))
                    sides.append((s, sign, _scaled_image([(first, 1)], vec)))
            den = lcm(*(s for s, _, _ in sides))
            out: dict = {}
            for s, sign, image in sides:
                add_scaled(out, image.items(), sign * (den // s))
            if out:
                den *= n * n
                g = gcd(den, *out.values())
                pairs = ((k, v // g) for k, v in out.items())
                cols[col] = (den // g, *chain.from_iterable(pairs))
        return cols

    def apply_element(self, x: AlgebraElement, vec: dict) -> dict:
        """x.vec, exactly: the sum over x's basis terms c_b of c_b times
        the operator of basis element b applied to vec."""
        out: dict = {}
        for basis_index, coeff in x.coeffs.items():
            op = self._basis_operator(basis_index)
            add_scaled(out, self.apply_cols(op, vec).items(), coeff)
        return out

    def __repr__(self):
        fc = self.highest_weight.fc
        return f"ExplicitModule(dim={self.dim}, highest={fc})"


class FiltrationReport(NamedTuple):
    """Subspace dimensions of the kernel filtration and its jump
    polynomial."""

    subspace_dims: list
    jump_polynomial: QPolynomial


def bk_jump_polynomial(
    module: ExplicitModule,
    x: AlgebraElement,
    lam: Weight,
    parabolic: Parabolic,
) -> FiltrationReport:
    """Filtration of the Levi-highest subspace at weight lam by kernels
    of successive powers of x; the jump polynomial records dimension
    increments.  Raises if x is not nilpotent, which x decides once
    and keeps.  Each power keeps a basis of x^k applied to the space,
    so x is applied to rank-many vectors and the rank is the basis's
    size; x is never built as a matrix on the whole module.  Two or
    more vectors are reduced to an echelon basis (`sparse_echelon`); a
    single vector's image is made primitive by its positive gcd, sign
    kept, which is the row `sparse_echelon` would keep, and a zero image
    ends the filtration.  All of it runs in ints: each primitive int
    vector v goes to a positive int multiple of x.v (`_scaled_image`),
    which spans the same line, so the ranks are those of the exact
    action."""
    module.system.require_same(x.algebra.system, lam.system, parabolic.system)
    if not x.is_nilpotent():
        raise ValueError("element is not nilpotent on the module")
    space = module.l_highest_space(lam, parabolic)
    total = len(space)
    if total == 0:
        return FiltrationReport([], QPolynomial.zero())
    terms = _scaled_terms(module, x)
    dims = []
    current = space
    steps = 0
    while True:
        if len(current) == 1:
            # one line: its image, made primitive as sparse_echelon
            # makes a single row, is the next power's whole basis
            image = _scaled_image(terms, current[0])
            current = [_primitive(image)] if image else []
        else:
            basis = sparse_echelon(_scaled_image(terms, v) for v in current)
            current = [row for row, _ in basis.values()]
        dims.append(total - len(current))
        if not current:
            break
        steps += 1
        if steps > module.dim + 1:
            raise ValueError("element is not nilpotent on the module")
    jump = {}
    prev = 0
    for n, d in enumerate(dims):
        if d - prev:
            jump[n] = d - prev
        prev = d
    return FiltrationReport(dims, QPolynomial(jump))


def _scaled_terms(module: ExplicitModule, x: AlgebraElement) -> list:
    """(operator, w) over x's basis terms, w the coprime int coefficient
    that x keeps (`AlgebraElement.int_coeffs`)."""
    return [(module._basis_operator(b), w) for b, w in x.int_coeffs().items()]


def _scaled_image(terms, vec: dict) -> dict:
    """D times x.vec, for x given by its scaled terms (op, w) and vec an
    int vector: an int vector, D the lcm of the dens of the columns that
    vec touches, each column (den, ...) added w c (D // den) times, so
    no Fraction is made."""
    touched = [
        (column, w * c)
        for op, w in terms
        for col, c in vec.items()
        if (column := op.get(col))
    ]
    den = lcm(*{column[0] for column, _ in touched})
    out: dict = {}
    for column, wc in touched:
        add_scaled(out, entries(column), wc * (den // column[0]))
    return out


# ---------------------------------------------------------------------------
# construction


def _lower_from_highest(system: RootSystem, mu: Weight, dim: int) -> tuple:
    """V(mu) spanned by f-monomials on its highest vector, with each basis
    vector stored only through its raising images.

    For a basis vector b, the candidate f_i.b has raising images
    e_j(f_i.b) = f_i(e_j.b) + [i == j] <wt b, alpha_i^vee> b, all of
    them on the level just built.  Below mu a vector of an irreducible
    module is fixed by its raising images, so row-reducing those images
    weight by weight decides which candidates are new basis vectors and
    expresses the others in them.

    The reduction is `linalg.eliminate`, on ints.  A basis vector's
    raising images are kept as (den, {j * dim + row: int}), an int key
    that orders as the pair (j, row) would, and an f_i column as
    (den, {target: int}).  A candidate's images are summed in one pass
    over b's images, with S the lcm of the denominators of the f_i
    columns read so far; when S grows, the partial sum is rescaled.
    Each weight looks up the pivots of its targets wt b - alpha_i once,
    on its first candidate f_i.b.  Each weight keeps its linalg pivots
    {pivot: (R, {index: -r})}: R is a primitive int row with least key
    the pivot and R[pivot] = r > 0, r times the images of basis vector
    b = `index`, so its tail counts R as -r times -b.  A candidate v
    enters as its int images W with the tail {-1: S}, W = S v, and
    leaves with W = S v - sum X_b b and the tail {-1: S, b: X_b}, up to
    the positive factor `eliminate` leaves in: each is made primitive
    once, where it is kept.  A new basis vector's R is W over its gcd,
    signed so that R[pivot] > 0, and the tail over its gcd is the f_i
    column (S, X), the same rationals as a reduction over Q.

    Returns the weights, the raising images and the f_i columns, all in
    ints; `build_irrep` writes the module's e maps from the raising
    images, decoding each key with divmod, and `ExplicitModule.f_cols`
    the f maps from the columns, each map column led by its den."""
    rank = system.rank
    alpha_fc = [alpha.fc for alpha in system.simple_roots]
    # weight fc -> its pivots; the key is the one fc tuple every basis
    # vector of the weight shares
    echelons: dict = {}
    # weight fc -> [(fc - alpha_i, its pivots) for each i], each entry
    # looked up on the first candidate f_i.b of that weight
    below: dict = {}
    weights: list = [mu.fc]
    raising: list = [(1, {})]
    lowering: list = [dict() for _ in range(rank)]
    cursor = 0
    while cursor < len(weights):
        fc = weights[cursor]
        den, images = raising[cursor]
        targets = below.setdefault(fc, [None] * rank)
        for i in range(rank):
            f_i = lowering[i]
            scale = 1
            image: dict = {i * dim + cursor: fc[i] * den} if fc[i] else {}
            for key, c in images.items():
                row = key % dim
                column = f_i.get(row)
                if column is None:
                    continue
                d, expr = column
                if scale % d:
                    # the lcm of the denominators grew: rescale what is in
                    grow = lcm(scale, d) // scale
                    scale *= grow
                    for k in image:
                        image[k] *= grow
                c *= scale // d
                base = key - row
                for low, a in expr.items():
                    k = base + low
                    v = image.get(k, 0) + c * a
                    if v:
                        image[k] = v
                    else:
                        del image[k]
            if not image:
                continue
            slot = targets[i]
            if slot is None:
                t = tuple(map(sub, fc, alpha_fc[i]))
                slot = targets[i] = echelons.setdefault(t, (t, {}))
            target_fc, rows = slot
            image, tail = eliminate(image, {-1: scale * den}, rows)
            if image:
                new_idx = len(weights)
                if new_idx == dim:
                    raise RuntimeError(f"lowering exceeded dimension {dim}; bug")
                p = min(image)
                g = gcd(*image.values())
                if image[p] < 0:
                    g = -g
                pivot_row = {k: v // g for k, v in image.items()}
                rows[p] = (pivot_row, {new_idx: -pivot_row[p]})
                weights.append(target_fc)
                raising.append((pivot_row[p], pivot_row))
                tail[new_idx] = image[p]
            scale = tail.pop(-1)
            g = gcd(scale, *tail.values())
            if g > 1:
                tail = {k: v // g for k, v in tail.items()}
                scale //= g
            f_i[cursor] = (scale, tail)
        cursor += 1

    if len(weights) != dim:
        raise RuntimeError(
            f"lowering built dimension {len(weights)}, expected {dim}"
        )
    return weights, raising, lowering


def _capped_dimension(system: RootSystem, mu: Weight) -> int:
    """dim V(mu), once mu is known to be dominant (else ValueError) and
    the dimension to be within the system's module cap (else
    CapExceeded)."""
    _require_dominant(mu)
    dim = weyl_dimension(mu)
    cap = system.caps.module_dim
    if dim > cap:
        raise CapExceeded(f"dim V{mu.fc} = {dim} exceeds the module cap {cap}")
    return dim


def build_irrep(system: RootSystem, mu: Weight) -> ExplicitModule:
    """The irreducible module with highest weight mu, built once under
    the system's module cap and kept on the system."""
    system.require_same(mu.system)
    module = system._irreps.get(mu.fc)
    if module is None:
        dim = _capped_dimension(system, mu)
        weights, raising, _ = _lower_from_highest(system, mu, dim)
        e_cols: list = [dict() for _ in range(system.rank)]
        # columns are short (about 1.3 entries), so each grows by
        # concatenation, which is cheaper than grouping rows first
        for idx, (den, images) in enumerate(raising):
            for key, v in images.items():
                j, row = divmod(key, dim)
                cols = e_cols[j]
                cols[idx] = cols.get(idx, (den,)) + (row, v)
        module = system._irreps[mu.fc] = ExplicitModule(system, mu, weights, e_cols)
    return module


def principal_nilpotent(algebra: ChevalleyAlgebra) -> AlgebraElement:
    """Sum of the simple positive root vectors."""
    simple = algebra.system.simple_roots
    return AlgebraElement(algebra, {algebra.x_index(alpha): 1 for alpha in simple})
