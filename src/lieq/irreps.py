"""Explicit irreducible highest-weight modules, built inside tensor
products with exact rational arithmetic, plus the nilpotent jump
polynomial of a filtration by kernels of powers.

Construction strategy: the defining module (type A) and the adjoint
module are base cases with hand-written generator actions.  A general
highest weight is reached by peeling off one fundamental weight at a
time, taking the cyclic submodule generated by a highest-weight vector
inside the two-factor tensor product; fundamental weights themselves
come from small tensor powers of a base module.  Every module carries
its basis as vectors in the ambient space, weight tags, and sparse
generator matrices in its own coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .chevalley import AlgebraElement, ChevalleyAlgebra, build_chevalley
from .config import DEFAULT_CAPS, CapExceeded, Caps
from .linalg import rank_of_sparse, sparse_nullspace
from .qanalog import weyl_dimension
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight


class ExplicitModule:
    """A concrete module: weight-tagged basis vectors living in an
    ambient space, with sparse column maps for the Chevalley generators."""

    def __init__(self, system, highest_weight, weights, basis, e_cols, f_cols, ambient):
        self.system = system
        self.highest_weight = highest_weight
        self.weights = weights          # list of fc tuples, one per basis vector
        self.basis = basis              # list of sparse ambient vectors
        self.e_cols = e_cols            # e_cols[i][col] = {row: coeff}
        self.f_cols = f_cols
        self.ambient = ambient          # human-readable descriptor
        self.weight_index: dict = {}
        for idx, fc in enumerate(weights):
            self.weight_index.setdefault(fc, []).append(idx)
        self._operator_cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.weights)

    def h_eigenvalue(self, i: int, idx: int) -> int:
        return self.weights[idx][i]

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
            for row, a in cols.get(col, {}).items():
                v = out.get(row, 0) + c * a
                if v:
                    out[row] = v
                else:
                    del out[row]
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
                raw = self.e_cols[i] if sign > 0 else self.f_cols[i]
                cols = {c: dict(col) for c, col in raw.items()}
            else:
                i = next(
                    k
                    for k, c in enumerate(root.rc)
                    if c
                    and tuple(
                        a - (1 if j == k else 0) for j, a in enumerate(root.rc)
                    )
                    in self.system._root_by_rc
                )
                rest_rc = tuple(
                    a - (1 if j == i else 0) for j, a in enumerate(root.rc)
                )
                simple = self.system._root_by_rc[
                    tuple(1 if j == i else 0 for j in range(self.system.rank))
                ]
                rest = self.system._root_by_rc[rest_rc]
                n_const = algebra._n_signed(sign, simple, sign, rest)
                first = self._basis_operator(algebra.x_index(simple, sign))
                second = self._basis_operator(algebra.x_index(rest, sign))
                cols = self._commutator_cols(first, second, Fraction(1, n_const))
        self._operator_cache[basis_index] = cols
        return cols

    def _commutator_cols(self, a, b, scale: Fraction):
        cols = {}
        for col in range(self.dim):
            unit = {col: Fraction(1)}
            vec = self.apply_cols(a, self.apply_cols(b, unit))
            back = self.apply_cols(b, self.apply_cols(a, unit))
            out = dict(vec)
            for k, v in back.items():
                nv = out.get(k, 0) - v
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
            if out:
                cols[col] = {k: v * scale for k, v in out.items()}
        return cols

    def apply_element(self, x: AlgebraElement):
        """Sparse columns of an arbitrary algebra element on the module."""
        cols: dict = {}
        for basis_index, coeff in x.coeffs.items():
            op = self._basis_operator(basis_index)
            for col, column in op.items():
                dest = cols.setdefault(col, {})
                for row, v in column.items():
                    nv = dest.get(row, 0) + coeff * v
                    if nv:
                        dest[row] = nv
                    else:
                        dest.pop(row, None)
        return {c: col for c, col in cols.items() if col}

    def __repr__(self):
        fc = self.highest_weight.fc
        return f"ExplicitModule(dim={self.dim}, highest={fc}, ambient={self.ambient})"


class FiltrationReport:
    """Subspace dimensions of the kernel filtration and its jump
    polynomial."""

    def __init__(self, subspace_dims, jump_polynomial):
        self.subspace_dims = list(subspace_dims)
        self.jump_polynomial = jump_polynomial

    def __repr__(self):
        return f"FiltrationReport(dims={self.subspace_dims}, r={self.jump_polynomial})"


def _is_ad_nilpotent(x: AlgebraElement) -> bool:
    algebra = x.algebra
    cols = algebra.ad_columns(x)
    vectors = [{j: Fraction(1)} for j in range(algebra.dim)]
    for _ in range(algebra.dim):
        nxt = []
        for v in vectors:
            out: dict = {}
            for c, coeff in v.items():
                for r, a in cols[c].items():
                    nv = out.get(r, 0) + coeff * a
                    if nv:
                        out[r] = nv
                    else:
                        del out[r]
            if out:
                nxt.append(out)
        if not nxt:
            return True
        vectors = nxt
    return False


def bk_jump_polynomial(
    module: ExplicitModule,
    x: AlgebraElement,
    lam: Weight,
    parabolic: Parabolic,
) -> FiltrationReport:
    """Filtration of the Levi-highest subspace at weight lam by kernels
    of successive powers of x; the jump polynomial records dimension
    increments.  Raises if x is not nilpotent."""
    if not _is_ad_nilpotent(x):
        raise ValueError("element is not nilpotent on the module")
    space = module.l_highest_space(lam, parabolic)
    total = len(space)
    if total == 0:
        return FiltrationReport([], QPolynomial.zero())
    cols = module.apply_element(x)
    dims = []
    current = list(space)
    steps = 0
    while True:
        current = [module.apply_cols(cols, v) for v in current]
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


def _trivial_module(system: RootSystem) -> ExplicitModule:
    zero = tuple(0 for _ in range(system.rank))
    return ExplicitModule(
        system,
        system.zero_weight(),
        [zero],
        [{0: Fraction(1)}],
        [{} for _ in range(system.rank)],
        [{} for _ in range(system.rank)],
        "trivial",
    )


def _defining_module(system: RootSystem) -> ExplicitModule:
    """The natural module of type A with e_i, f_i as matrix units."""
    if system.type_label != "A":
        raise ValueError("the defining module shortcut is type A only")
    n = system.rank
    dim = n + 1
    weights = []
    for j in range(dim):
        fc = [0] * n
        if j < n:
            fc[j] += 1
        if j > 0:
            fc[j - 1] -= 1
        weights.append(tuple(fc))
    e_cols = [{i + 1: {i: Fraction(1)}} for i in range(n)]
    f_cols = [{i: {i + 1: Fraction(1)}} for i in range(n)]
    basis = [{j: Fraction(1)} for j in range(dim)]
    return ExplicitModule(
        system, system.fundamental_weight(0), weights, basis, e_cols, f_cols,
        "defining",
    )


def _adjoint_module(system: RootSystem) -> ExplicitModule:
    algebra = build_chevalley(system)
    weights = [algebra.weight_of_index(i) for i in range(algebra.dim)]
    e_cols = []
    f_cols = []
    simples = [
        system._root_by_rc[tuple(1 if j == i else 0 for j in range(system.rank))]
        for i in range(system.rank)
    ]
    for i in range(system.rank):
        for sign, store in ((1, e_cols), (-1, f_cols)):
            gen = algebra.x(simples[i], sign)
            cols = {}
            for j in range(algebra.dim):
                out = algebra.bracket(gen, AlgebraElement(algebra, {j: 1})).coeffs
                if out:
                    cols[j] = dict(out)
            store.append(cols)
    highest = system.weight(system.highest_root.fc)
    basis = [{j: Fraction(1)} for j in range(algebra.dim)]
    return ExplicitModule(
        system, highest, weights, basis, e_cols, f_cols, "adjoint"
    )


class _TensorSpace:
    """Tensor product of explicit modules, addressed by mixed-radix
    index; generator actions by the Leibniz rule."""

    def __init__(self, factors):
        self.factors = factors
        self.sizes = [m.dim for m in factors]
        self.dim = 1
        for s in self.sizes:
            self.dim *= s
        self.strides = [0] * len(factors)
        acc = 1
        for i in range(len(factors) - 1, -1, -1):
            self.strides[i] = acc
            acc *= self.sizes[i]

    def tuple_of(self, idx: int):
        out = []
        for i, s in enumerate(self.sizes):
            out.append((idx // self.strides[i]) % s)
        return tuple(out)

    def weight(self, idx: int):
        parts = self.tuple_of(idx)
        rank = len(self.factors[0].weights[0])
        fc = [0] * rank
        for m, j in zip(self.factors, parts):
            for k, v in enumerate(m.weights[j]):
                fc[k] += v
        return tuple(fc)

    def gen_apply(self, which: str, i: int, vec: dict) -> dict:
        out: dict = {}
        for idx, c in vec.items():
            parts = self.tuple_of(idx)
            for f, (m, j) in enumerate(zip(self.factors, parts)):
                cols = m.e_cols[i] if which == "e" else m.f_cols[i]
                col = cols.get(j)
                if not col:
                    continue
                base = idx - j * self.strides[f]
                for row, a in col.items():
                    target = base + row * self.strides[f]
                    v = out.get(target, 0) + c * a
                    if v:
                        out[target] = v
                    else:
                        del out[target]
        return out

    def weight_subspace(self, fc) -> list:
        """Indices of basis tensors of the given total weight."""
        per_factor = []
        for m in self.factors:
            table: dict = {}
            for j, w in enumerate(m.weights):
                table.setdefault(w, []).append(j)
            per_factor.append(table)
        rank = len(fc)
        # reachable coordinate bounds for suffixes, for pruning
        suffix_min = [[0] * rank]
        suffix_max = [[0] * rank]
        for table in reversed(per_factor):
            lo = [min(w[k] for w in table) for k in range(rank)]
            hi = [max(w[k] for w in table) for k in range(rank)]
            suffix_min.append([a + b for a, b in zip(suffix_min[-1], lo)])
            suffix_max.append([a + b for a, b in zip(suffix_max[-1], hi)])
        suffix_min.reverse()
        suffix_max.reverse()
        out = []

        def rec(f: int, idx: int, remaining):
            if f == len(per_factor):
                if all(x == 0 for x in remaining):
                    out.append(idx)
                return
            lo, hi = suffix_min[f + 1], suffix_max[f + 1]
            for w, js in per_factor[f].items():
                rest = tuple(r - x for r, x in zip(remaining, w))
                if any(not lo[k] <= rest[k] <= hi[k] for k in range(rank)):
                    continue
                for j in js:
                    rec(f + 1, idx + j * self.strides[f], rest)

        rec(0, 0, tuple(fc))
        return sorted(out)

    @property
    def descriptor(self) -> str:
        return " (x) ".join(
            f"V{tuple(m.highest_weight.fc)}" for m in self.factors
        )


def _find_highest_vector(space: _TensorSpace, system: RootSystem, mu: Weight):
    """First echelon-order kernel vector of all raising operators inside
    the weight-mu subspace of the tensor space, or None."""
    candidates = space.weight_subspace(mu.fc)
    if not candidates:
        return None
    rows: dict = {}
    for i in range(system.rank):
        for idx in candidates:
            image = space.gen_apply("e", i, {idx: Fraction(1)})
            for target, coeff in image.items():
                rows.setdefault((i, target), {})[idx] = coeff
    kernel = sparse_nullspace(rows.values(), candidates)
    if not kernel:
        return None
    return dict(kernel[0])


class _WeightEchelon:
    """Echelon basis of one weight space of the ambient, with expansion
    bookkeeping in module coordinates."""

    def __init__(self):
        self.rows: dict = {}  # pivot ambient index -> (vector, expression)

    def reduce(self, vec: dict):
        vec = dict(vec)
        expr: dict = {}
        while vec:
            hits = [k for k in vec if k in self.rows]
            if not hits:
                break
            p = min(hits)
            row, row_expr = self.rows[p]
            c = vec[p]
            for k, v in row.items():
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
            for k, v in row_expr.items():
                nv = expr.get(k, 0) + c * v
                if nv:
                    expr[k] = nv
                else:
                    expr.pop(k, None)
        return vec, expr

    def insert(self, residue: dict, module_index: int) -> dict:
        """Normalize the residue to leading coefficient 1, store it with
        the given module index, and return the normalized vector."""
        p = min(residue)
        lead = residue[p]
        vec = {k: v / lead for k, v in residue.items()}
        self.rows[p] = (vec, {module_index: Fraction(1)})
        return vec, lead


def _cyclic_closure(
    system: RootSystem,
    space: _TensorSpace,
    highest: dict,
    mu: Weight,
    caps: Caps,
) -> ExplicitModule:
    rank = system.rank
    alpha_fc = [
        system._root_by_rc[tuple(1 if j == i else 0 for j in range(rank))].fc
        for i in range(rank)
    ]
    echelons: dict = {}
    weights: list = []
    basis: list = []
    f_cols: list = [dict() for _ in range(rank)]
    e_cols: list = [dict() for _ in range(rank)]

    def add_vector(fc, vec) -> int:
        idx = len(weights)
        if idx >= caps.module_dim:
            raise CapExceeded(
                f"module dimension exceeded the cap {caps.module_dim}"
            )
        ech = echelons.setdefault(fc, _WeightEchelon())
        normalized, _lead = ech.insert(vec, idx)
        weights.append(fc)
        basis.append(normalized)
        return idx

    add_vector(mu.fc, highest)
    cursor = 0
    while cursor < len(weights):
        fc = weights[cursor]
        vec = basis[cursor]
        for i in range(rank):
            image = space.gen_apply("f", i, vec)
            if not image:
                continue
            target_fc = tuple(a - b for a, b in zip(fc, alpha_fc[i]))
            ech = echelons.setdefault(target_fc, _WeightEchelon())
            residue, expr = ech.reduce(image)
            if residue:
                new_idx = add_vector(target_fc, residue)
                # add_vector stored residue/lead; account for the lead
                lead = residue[min(residue)]
                expr[new_idx] = lead
            if expr:
                f_cols[i][cursor] = expr
        cursor += 1

    expected = weyl_dimension(mu)
    if len(weights) != expected:
        raise RuntimeError(
            f"cyclic closure built dimension {len(weights)}, expected {expected}"
        )

    for cursor, (fc, vec) in enumerate(zip(weights, basis)):
        for i in range(rank):
            image = space.gen_apply("e", i, vec)
            if not image:
                continue
            target_fc = tuple(a + b for a, b in zip(fc, alpha_fc[i]))
            ech = echelons.get(target_fc)
            if ech is None:
                raise RuntimeError("raising operator left the module; bug")
            residue, expr = ech.reduce(image)
            if residue:
                raise RuntimeError("raising operator left the module; bug")
            if expr:
                e_cols[i][cursor] = expr

    return ExplicitModule(
        system, mu, weights, basis, e_cols, f_cols, space.descriptor
    )


_IRREP_CACHE: dict = {}


def build_irrep(system: RootSystem, mu: Weight, caps: Caps = DEFAULT_CAPS) -> ExplicitModule:
    """The irreducible module with highest weight mu.

    Type A reaches the full weight lattice through the defining module;
    other types reach the root lattice through the adjoint module."""
    if not mu.is_dominant():
        raise ValueError(f"highest weight {mu.fc} is not dominant")
    key = (system.key, mu.fc)
    hit = _IRREP_CACHE.get(key)
    dim = weyl_dimension(mu) if hit is None else hit.dim
    if dim > caps.module_dim:
        raise CapExceeded(
            f"dim V{mu.fc} = {dim} exceeds the module cap {caps.module_dim}"
        )
    if hit is not None:
        return hit
    module = _build_irrep_uncached(system, mu, caps)
    _IRREP_CACHE[key] = module
    return module


def _tensor_of(factors, caps: Caps) -> _TensorSpace:
    space = _TensorSpace(factors)
    if space.dim > caps.ambient_dim:
        raise CapExceeded(
            f"ambient dimension {space.dim} exceeds the cap {caps.ambient_dim}"
        )
    return space


def _build_irrep_uncached(system, mu, caps) -> ExplicitModule:
    if mu.is_zero():
        return _trivial_module(system)
    rank = system.rank
    coords = mu.fc
    weights_of_funds = [system.fundamental_weight(i) for i in range(rank)]

    if system.type_label == "A":
        if coords == weights_of_funds[0].fc:
            return _defining_module(system)
        nonzero = [i for i in range(rank) if coords[i]]
        if len(nonzero) == 1 and coords[nonzero[0]] == 1:
            i = nonzero[0]
            base = build_irrep(system, weights_of_funds[0], caps)
            space = _tensor_of([base] * (i + 1), caps)
            hw = _find_highest_vector(space, system, mu)
            if hw is None:
                raise RuntimeError("fundamental weight not found in tensor power")
            return _cyclic_closure(system, space, hw, mu, caps)
        # peel off the cheapest fundamental
        best = min(nonzero, key=lambda i: (weyl_dimension(weights_of_funds[i]), i))
        rest = system.weight(
            tuple(c - (1 if j == best else 0) for j, c in enumerate(coords))
        )
        factors = [
            build_irrep(system, rest, caps),
            build_irrep(system, weights_of_funds[best], caps),
        ]
        space = _tensor_of(factors, caps)
        hw = _find_highest_vector(space, system, mu)
        if hw is None:
            raise RuntimeError("highest weight missing from tensor product")
        return _cyclic_closure(system, space, hw, mu, caps)

    # other types: the root lattice is reachable through the adjoint
    if not mu.in_root_lattice():
        raise ValueError(
            f"weight {mu.fc} is outside the root lattice and not reachable "
            "from the adjoint module"
        )
    theta = system.weight(system.highest_root.fc)
    if mu.fc == theta.fc:
        return _adjoint_module(system)
    lattice_funds = [
        i for i in range(rank) if weights_of_funds[i].in_root_lattice()
    ]
    subtractable = [i for i in lattice_funds if coords[i] and mu.fc != weights_of_funds[i].fc]
    if subtractable:
        best = min(subtractable, key=lambda i: (weyl_dimension(weights_of_funds[i]), i))
        rest = system.weight(
            tuple(c - (1 if j == best else 0) for j, c in enumerate(coords))
        )
        factors = [
            build_irrep(system, rest, caps),
            build_irrep(system, weights_of_funds[best], caps),
        ]
        space = _tensor_of(factors, caps)
        hw = _find_highest_vector(space, system, mu)
        if hw is None:
            raise RuntimeError("highest weight missing from tensor product")
        return _cyclic_closure(system, space, hw, mu, caps)
    rest = mu - theta
    if rest.is_dominant() and not rest.is_zero():
        factors = [build_irrep(system, rest, caps), build_irrep(system, theta, caps)]
        space = _tensor_of(factors, caps)
        hw = _find_highest_vector(space, system, mu)
        if hw is None:
            raise RuntimeError("highest weight missing from tensor product")
        return _cyclic_closure(system, space, hw, mu, caps)
    # last resort: search adjoint tensor powers of growing length
    adjoint = build_irrep(system, theta, caps)
    k = 1
    while True:
        scaled = system.weight(tuple(k * x for x in theta.fc))
        if system.dominance_leq(mu, scaled):
            if adjoint.dim**k > caps.ambient_dim:
                raise CapExceeded(
                    f"adjoint power ambient {adjoint.dim}**{k} exceeds the cap "
                    f"{caps.ambient_dim}"
                )
            space = _tensor_of([adjoint] * k, caps)
            hw = _find_highest_vector(space, system, mu)
            if hw is not None:
                return _cyclic_closure(system, space, hw, mu, caps)
        k += 1
        if adjoint.dim**k > caps.ambient_dim:
            raise CapExceeded(
                f"no ambient within cap {caps.ambient_dim} contains V{mu.fc}"
            )


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
