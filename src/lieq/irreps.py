"""Explicit irreducible highest-weight modules in exact arithmetic, plus
the nilpotent jump polynomial of a filtration by kernels of powers.

Construction: V(mu) is built in its own weight spaces, with no ambient
space.  Starting from the highest vector, each level is reached by the
lowering operators f_i, and a vector below mu is represented only by
its raising images (e_j v)_j, which determine it in an irreducible
module.  Those images are known from the level above, so one row
reduction per weight decides which f_i.b are new basis vectors.  This
is the Verma-quotient view of de Graaf, *Lie Algebras: Theory and
Algorithms* (2000).  The reduction runs on scaled ints, fraction-free
as in Bareiss elimination (Math. Comp. 22, 1968), and gives the same
rationals as a reduction over Q.  Every module carries weight tags and
sparse generator matrices in its own coordinates, with `Fraction`
entries, one `Fraction` object per distinct (numerator, denominator)
pair that the int construction produces.  The raising maps
e_i are written when the module is built and kept once: the operator
of a simple root vector is the stored map itself.  The lowering maps
f_i, which only negative root vectors read, are built on first use by
running the deterministic construction again, and kept.

Filtration: an algebra element x acts on a vector as the sum of its
basis terms, each an operator that the module builds once from its
generator matrices and keeps (a non-simple root vector as a commutator
of two such column maps); x itself is never built as a matrix on the
whole module.  The filtration runs over `Fraction`, and every sparse
update goes through `linalg.add_scaled`.  Whether x is nilpotent is
decided once per element (`AlgebraElement.is_nilpotent`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .chevalley import AlgebraElement, ChevalleyAlgebra, build_chevalley
from .config import CapExceeded
from .linalg import add_scaled, rank_of_sparse, sparse_nullspace
from .qanalog import weyl_dimension
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight, _require_dominant


class ExplicitModule:
    """A concrete module: a weight-tagged basis with sparse column maps
    for the Chevalley generators.  The raising maps come with the
    module; the lowering maps, which only negative root vectors read,
    are built on first use."""

    def __init__(self, system, highest_weight, weights, e_cols):
        self.system = system
        self.highest_weight = highest_weight
        self.weights = weights          # list of fc tuples, one per basis vector
        self.e_cols = e_cols            # e_cols[i][col] = {row: coeff}
        self._f_cols = None
        self.weight_index: dict = {}
        for idx, fc in enumerate(weights):
            self.weight_index.setdefault(fc, []).append(idx)
        self._operator_cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def f_cols(self) -> list:
        """f_cols[i][col] = {row: coeff}, from a second run of the
        construction, which is deterministic, on the first access; then
        kept."""
        if self._f_cols is None:
            _, _, lowering = _lower_from_highest(
                self.system, self.highest_weight, self.dim
            )
            shared: dict = {}
            self._f_cols = [
                {col: {k: _fraction(shared, v, den) for k, v in expr.items()}
                 for col, (den, expr) in f_i.items()}
                for f_i in lowering
            ]
        return self._f_cols

    def weight_space(self, lam: Weight) -> list:
        """Unit vectors (module coordinates) spanning the weight space."""
        return [{idx: Fraction(1)} for idx in self.weight_index.get(lam.fc, [])]

    def l_highest_space(self, lam: Weight, parabolic: Parabolic) -> list:
        """Basis of the vectors of weight lam killed by the raising
        operators of the parabolic's Levi."""
        indices = self.weight_index.get(lam.fc, [])
        if not indices or not parabolic.indices:
            return [{idx: Fraction(1)} for idx in indices]
        constraints: dict = {}
        for i in sorted(parabolic.indices):
            for idx in indices:
                for row, coeff in self.e_cols[i].get(idx, {}).items():
                    constraints.setdefault((i, row), {})[idx] = coeff
        if not constraints:
            return [{idx: Fraction(1)} for idx in indices]
        return sparse_nullspace(constraints.values(), sorted(indices))

    # -- generator / element action ------------------------------------

    def apply_cols(self, cols, vec: dict) -> dict:
        out: dict = {}
        for col, c in vec.items():
            column = cols.get(col)
            if column:
                add_scaled(out, column, c)
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
                idx: {idx: Fraction(self.weights[idx][i])}
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
                for i in range(self.system.rank):
                    unit = tuple(int(j == i) for j in range(self.system.rank))
                    rest = by_rc.get(tuple(a - b for a, b in zip(root.rc, unit)))
                    if rest is not None:
                        break
                first = algebra.x_index(by_rc[unit], sign)
                second = algebra.x_index(rest, sign)
                scale = Fraction(1, algebra._ad[first][second][basis_index])
                cols = self._commutator_cols(
                    self._basis_operator(first), self._basis_operator(second), scale
                )
        self._operator_cache[basis_index] = cols
        return cols

    def _commutator_cols(self, a, b, scale: Fraction):
        """Columns of scale * [a, b] from the columns of a and b: column
        col is a(b[col]) - b(a[col]), zero outside both maps' columns."""
        cols = {}
        for col in sorted(a.keys() | b.keys()):
            out = self.apply_cols(a, b.get(col, {}))
            add_scaled(out, self.apply_cols(b, a.get(col, {})), -1)
            if out:
                cols[col] = {k: v * scale for k, v in out.items()}
        return cols

    def apply_element(self, x: AlgebraElement, vec: dict) -> dict:
        """x.vec: the sum over x's basis terms c_b of c_b times the
        operator of basis element b applied to vec."""
        out: dict = {}
        for basis_index, coeff in x.coeffs.items():
            op = self._basis_operator(basis_index)
            for col, c in vec.items():
                column = op.get(col)
                if column:
                    add_scaled(out, column, coeff * c)
        return out

    def __repr__(self):
        fc = self.highest_weight.fc
        return f"ExplicitModule(dim={self.dim}, highest={fc})"


class FiltrationReport:
    """Subspace dimensions of the kernel filtration and its jump
    polynomial."""

    def __init__(self, subspace_dims, jump_polynomial):
        self.subspace_dims = list(subspace_dims)
        self.jump_polynomial = jump_polynomial

    def __repr__(self):
        return f"FiltrationReport(dims={self.subspace_dims}, r={self.jump_polynomial})"


def bk_jump_polynomial(
    module: ExplicitModule,
    x: AlgebraElement,
    lam: Weight,
    parabolic: Parabolic,
) -> FiltrationReport:
    """Filtration of the Levi-highest subspace at weight lam by kernels
    of successive powers of x; the jump polynomial records dimension
    increments.  Raises if x is not nilpotent, which x decides once
    and keeps; x is applied to the vectors of the space, never built as
    a matrix on the whole module."""
    if not x.is_nilpotent():
        raise ValueError("element is not nilpotent on the module")
    space = module.l_highest_space(lam, parabolic)
    total = len(space)
    if total == 0:
        return FiltrationReport([], QPolynomial.zero())
    dims = []
    current = space
    steps = 0
    while True:
        current = [module.apply_element(x, v) for v in current]
        dims.append(total - rank_of_sparse(current))
        if all(not v for v in current):
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

    The reduction runs on ints.  A basis vector's raising images are
    kept as (den, {(j, row): int}) and an f_i column as
    (den, {target: int}).  A candidate's images are W / S with W an int
    vector; each weight keeps rows {pivot: (R, r, module index)}, R a
    primitive int row with R[pivot] = r > 0 and least key the pivot, so
    the rows are triangular in pivot order and the residue and the
    coefficients are the same rationals as a reduction over Q.

    Returns the weights, the raising images and the f_i columns, all in
    ints; `build_irrep` writes the module's e maps from the raising
    images, and `ExplicitModule.f_cols` the f maps from the columns."""
    rank = system.rank
    alpha_fc = [
        system._root_by_rc[tuple(1 if j == i else 0 for j in range(rank))].fc
        for i in range(rank)
    ]
    echelons: dict = {}
    weights: list = [mu.fc]
    raising: list = [(1, {})]
    lowering: list = [dict() for _ in range(rank)]
    cursor = 0
    while cursor < len(weights):
        fc = weights[cursor]
        den, images = raising[cursor]
        for i in range(rank):
            f_i = lowering[i]
            scale = 1
            for _, row in images:
                column = f_i.get(row)
                if column is not None:
                    scale = lcm(scale, column[0])
            image: dict = {(i, cursor): fc[i] * den * scale} if fc[i] else {}
            for (j, row), c in images.items():
                column = f_i.get(row)
                if column is not None:
                    c *= scale // column[0]
                    for target, a in column[1].items():
                        key = (j, target)
                        v = image.get(key, 0) + c * a
                        if v:
                            image[key] = v
                        else:
                            del image[key]
            if not image:
                continue
            scale *= den
            target_fc = tuple(a - b for a, b in zip(fc, alpha_fc[i]))
            rows = echelons.setdefault(target_fc, {})
            expr: dict = {}
            while True:
                hits = [k for k in image if k in rows]
                if not hits:
                    break
                p = min(hits)
                pivot_row, r, idx = rows[p]
                c = image[p]
                g = gcd(r, c)
                r //= g
                c //= g
                # W <- r W - c R keeps the scale if S and X are scaled too
                if r != 1:
                    for k in image:
                        image[k] *= r
                    for k in expr:
                        expr[k] *= r
                    scale *= r
                add_scaled(image, pivot_row, -c)
                expr[idx] = c * pivot_row[p]
                g = gcd(scale, *image.values(), *expr.values())
                if g > 1:
                    image = {k: v // g for k, v in image.items()}
                    expr = {k: v // g for k, v in expr.items()}
                    scale //= g
            if image:
                new_idx = len(weights)
                if new_idx == dim:
                    raise RuntimeError(f"lowering exceeded dimension {dim}; bug")
                p = min(image)
                g = gcd(*image.values())
                if image[p] < 0:
                    g = -g
                pivot_row = {k: v // g for k, v in image.items()}
                rows[p] = (pivot_row, pivot_row[p], new_idx)
                weights.append(target_fc)
                raising.append((pivot_row[p], pivot_row))
                expr[new_idx] = image[p]
            g = gcd(scale, *expr.values())
            if g > 1:
                expr = {k: v // g for k, v in expr.items()}
                scale //= g
            f_i[cursor] = (scale, expr)
        cursor += 1

    if len(weights) != dim:
        raise RuntimeError(
            f"lowering built dimension {len(weights)}, expected {dim}"
        )
    return weights, raising, lowering


def _fraction(shared: dict, v: int, den: int) -> Fraction:
    """Fraction(v, den), one object per distinct (v, den) in shared."""
    value = shared.get((v, den))
    if value is None:
        value = shared[(v, den)] = Fraction(v, den)
    return value


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
    module = system._irreps.get(mu.fc)
    if module is None:
        dim = _capped_dimension(system, mu)
        weights, raising, _ = _lower_from_highest(system, mu, dim)
        e_cols: list = [dict() for _ in range(system.rank)]
        shared: dict = {}
        for idx, (den, images) in enumerate(raising):
            for (j, row), v in images.items():
                e_cols[j].setdefault(idx, {})[row] = _fraction(shared, v, den)
        module = system._irreps[mu.fc] = ExplicitModule(system, mu, weights, e_cols)
    return module


def principal_nilpotent(algebra: ChevalleyAlgebra) -> AlgebraElement:
    """Sum of the simple positive root vectors."""
    system = algebra.system
    out = algebra.zero()
    for i in range(system.rank):
        root = system._root_by_rc[
            tuple(1 if j == i else 0 for j in range(system.rank))
        ]
        out = out + algebra.x(root)
    return out
