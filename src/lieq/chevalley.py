"""Chevalley-basis Lie algebra with integer structure constants.

Basis: H_1..H_rank (simple coroots) followed by one root vector per
root, positive roots first.  Structure-constant signs are fixed by
giving every extraspecial pair the sign +; all remaining constants are
forced from those through antisymmetry, the Chevalley involution, and
the cyclic identity  N(a,b)/|c|^2 = N(b,c)/|a|^2 = N(c,a)/|b|^2  for
roots with a+b+c = 0.  The constants are plain ints, and the algebra
keeps them as one sparse ad map per basis element,
_ad[i] = {j: [b_i, b_j]}, from which brackets and ad(x) are read.  The
Jacobi identity is checked by the test suite, not at construction.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import add_scaled, rank_of_sparse
from .rootsystem import Root, RootSystem


class AlgebraElement:
    """Sparse vector in the Chevalley basis: {basis index: Fraction}.

    An element is a value: arithmetic returns new elements and its
    `coeffs` are never changed after construction, so what is derived
    from them, the columns of ad(x) and `is_nilpotent()`, is built once
    and kept on the element."""

    __slots__ = ("algebra", "coeffs", "_ad_cols", "_nilpotent")

    def __init__(self, algebra: "ChevalleyAlgebra", coeffs=None):
        self.algebra = algebra
        clean = {}
        if coeffs:
            for idx, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[idx] = c
        self.coeffs = clean
        self._ad_cols = None
        self._nilpotent = None

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, add_scaled(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        return AlgebraElement(
            self.algebra, {i: c * scalar for i, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def ad_cols(self) -> list:
        """The columns of ad(self), `ChevalleyAlgebra.ad_columns`, built
        on the first call and kept; callers must not change them."""
        if self._ad_cols is None:
            self._ad_cols = self.algebra.ad_columns(self)
        return self._ad_cols

    def is_nilpotent(self) -> bool:
        """Whether ad(self) is nilpotent, by applying ad(self) to every
        basis vector until all images vanish or dim steps have passed.
        Decided on the first call and kept."""
        if self._nilpotent is None:
            algebra = self.algebra
            cols = self.ad_cols()
            vectors = [{j: Fraction(1)} for j in range(algebra.dim)]
            for _ in range(algebra.dim):
                nxt = []
                for v in vectors:
                    out: dict = {}
                    for c, coeff in v.items():
                        add_scaled(out, cols[c], coeff)
                    if out:
                        nxt.append(out)
                vectors = nxt
                if not vectors:
                    break
            self._nilpotent = not vectors
        return self._nilpotent

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return self.algebra.bracket(self, other)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = self.algebra.basis_names
        terms = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            if c == 1:
                terms.append(names[idx])
            elif c == -1:
                terms.append(f"-{names[idx]}")
            else:
                terms.append(f"{c}*{names[idx]}")
        return " + ".join(terms).replace("+ -", "- ")


class ChevalleyAlgebra:
    def __init__(self, system: RootSystem):
        self.system = system
        self.npos = len(system.positive_roots)
        self.dim = system.rank + 2 * self.npos
        # signed roots: (+1, root) at rank+idx, (-1, root) at rank+npos+idx
        self._pos_n: dict = {}
        self._build_positive_table()
        self._ad = self._build_ad()

    # -- indexing -------------------------------------------------------

    def h_index(self, i: int) -> int:
        return i

    def x_index(self, root: Root, sign: int = 1) -> int:
        base = self.system.rank + (0 if sign > 0 else self.npos)
        return base + root.index

    def index_data(self, idx: int):
        """('h', i) or ('x', sign, root)."""
        rank = self.system.rank
        if idx < rank:
            return ("h", idx)
        idx -= rank
        if idx < self.npos:
            return ("x", 1, self.system.positive_roots[idx])
        return ("x", -1, self.system.positive_roots[idx - self.npos])

    @property
    def basis_names(self):
        names = [f"H{i+1}" for i in range(self.system.rank)]
        for sign in (1, -1):
            for root in self.system.positive_roots:
                rc = root.rc if sign > 0 else tuple(-c for c in root.rc)
                names.append("X[%s]" % ",".join(str(c) for c in rc))
        return names

    # -- element constructors --------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self)

    def h(self, i: int) -> AlgebraElement:
        return AlgebraElement(self, {self.h_index(i): 1})

    def x(self, root: Root, sign: int = 1) -> AlgebraElement:
        return AlgebraElement(self, {self.x_index(root, sign): 1})

    def cartan_from_labels(self, labels) -> AlgebraElement:
        """The semisimple element H with alpha_i(H) = labels[i], as a
        combination of the simple coroots H_j."""
        labels = tuple(labels)
        n = self.system.rank
        num, den = self.system._num, self.system.den
        # alpha_i(sum_j t_j H_j) = sum_j t_j cartan[j][i], so t = C^-T labels
        coeffs = {
            j: Fraction(sum(num[i][j] * labels[i] for i in range(n)), den)
            for j in range(n)
        }
        return AlgebraElement(self, coeffs)

    # -- structure constants ----------------------------------------------

    def _is_root_rc(self, rc) -> bool:
        return (
            rc in self.system._root_by_rc
            or tuple(-c for c in rc) in self.system._root_by_rc
        )

    def _string_down(self, beta_rc, gamma_rc) -> int:
        """Largest p with beta - p*gamma a root."""
        p = 0
        cur = beta_rc
        while True:
            cur = tuple(a - b for a, b in zip(cur, gamma_rc))
            if self._is_root_rc(cur):
                p += 1
            else:
                return p

    def _n_pos(self, i: int, j: int) -> int:
        """N(beta_i, beta_j) for positive roots, from the positive table
        and antisymmetry."""
        if (i, j) in self._pos_n:
            return self._pos_n[(i, j)]
        return -self._pos_n[(j, i)]

    def _build_positive_table(self):
        """Constants N(beta, gamma) for positive pairs with beta+gamma a
        positive root, keyed by (beta.index, gamma.index)."""
        system = self.system
        roots = system.positive_roots
        by_rc = system._root_by_rc
        n_pos = self._n_pos
        for delta in roots:
            if delta.height == 1:
                continue
            pairs = []
            for beta in roots:
                if beta.height >= delta.height:
                    break
                rest = tuple(a - b for a, b in zip(delta.rc, beta.rc))
                gamma = by_rc.get(rest)
                if gamma is not None and beta.index < gamma.index:
                    pairs.append((beta, gamma))
            if not pairs:
                raise RuntimeError(f"no summands found for {delta}; bug")
            b0, g0 = pairs[0]  # extraspecial: least beta in the fixed order
            p = self._string_down(b0.rc, g0.rc)
            self._pos_n[(b0.index, g0.index)] = p + 1
            m_const = -Fraction(g0.norm_sq, delta.norm_sq) * (p + 1)
            for beta, gamma in pairs[1:]:
                t1 = Fraction(0)
                diff1 = tuple(a - b for a, b in zip(beta.rc, b0.rc))
                if diff1 in by_rc:
                    mid = by_rc[diff1]
                    t1 = (
                        Fraction(mid.norm_sq, beta.norm_sq)
                        * n_pos(b0.index, mid.index)
                        * n_pos(mid.index, gamma.index)
                    )
                t3 = Fraction(0)
                diff3 = tuple(a - b for a, b in zip(gamma.rc, b0.rc))
                if diff3 in by_rc:
                    mid = by_rc[diff3]
                    t3 = (
                        -Fraction(mid.norm_sq, gamma.norm_sq)
                        * n_pos(b0.index, mid.index)
                        * n_pos(mid.index, beta.index)
                    )
                value = -(t1 + t3) / m_const
                expect = self._string_down(beta.rc, gamma.rc) + 1
                if value.denominator != 1 or abs(value) != expect:
                    raise RuntimeError(
                        f"structure constant for {beta},{gamma} came out {value}"
                    )
                self._pos_n[(beta.index, gamma.index)] = int(value)

    def _n_signed(self, sign_b, beta: Root, sign_g, gamma: Root) -> int:
        """N for arbitrary signed root pair whose sum is a root."""
        by_rc = self.system._root_by_rc
        n_pos = self._n_pos
        if sign_b > 0 and sign_g > 0:
            return n_pos(beta.index, gamma.index)
        if sign_b < 0 and sign_g < 0:
            return -n_pos(beta.index, gamma.index)
        if sign_b < 0 and sign_g > 0:
            return -self._n_signed(1, gamma, -1, beta)
        # beta positive, gamma negative
        s_rc = tuple(a - b for a, b in zip(beta.rc, gamma.rc))
        if s_rc in by_rc:
            delta = by_rc[s_rc]
            value = -Fraction(delta.norm_sq, beta.norm_sq) * n_pos(gamma.index, delta.index)
        else:
            delta = by_rc[tuple(-c for c in s_rc)]
            value = -Fraction(delta.norm_sq, gamma.norm_sq) * n_pos(beta.index, delta.index)
        if value.denominator != 1:
            raise RuntimeError("non-integral mixed structure constant; bug")
        return int(value)

    def _build_ad(self) -> list:
        """_ad[i] = {j: [b_i, b_j]} over the nonzero brackets; each pair
        i < j is computed once and its negation kept at _ad[j][i]."""
        kinds = [self.index_data(i) for i in range(self.dim)]
        ad: list = [{} for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entry = self._basis_bracket(kinds[i], kinds[j])
                if entry:
                    ad[i][j] = entry
                    ad[j][i] = {k: -v for k, v in entry.items()}
        return ad

    def _basis_bracket(self, a, b) -> dict:
        """[a, b] with int coefficients for the kinds (see `index_data`)
        of two basis elements, a before b, so an x never precedes an h."""
        if a[0] == "h" and b[0] == "h":
            return {}
        if a[0] == "h" and b[0] == "x":
            _, i = a
            _, sign, root = b
            c = sign * root.fc[i]
            return {self.x_index(root, sign): c} if c else {}
        _, sign_b, beta = a
        _, sign_g, gamma = b
        rc = tuple(
            sign_b * x + sign_g * y for x, y in zip(beta.rc, gamma.rc)
        )
        if not any(rc):
            # [X_beta, X_-beta] = beta^vee in the simple coroots H_j
            coroot = enumerate(beta.coroot_fc)
            return {self.h_index(j): sign_b * c for j, c in coroot if c}
        target = self.system._root_by_rc.get(rc)
        sign_out = 1
        if target is None:
            target = self.system._root_by_rc.get(tuple(-c for c in rc))
            sign_out = -1
        if target is None:
            return {}
        n = self._n_signed(sign_b, beta, sign_g, gamma)
        return {self.x_index(target, sign_out): n}

    # -- operations ---------------------------------------------------------

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """Sum of x_i * y_j * [b_i, b_j] over the ad table."""
        out: dict = {}
        for i, ci in x.coeffs.items():
            row = self._ad[i]
            for j, cj in y.coeffs.items():
                entry = row.get(j)
                if entry:
                    add_scaled(out, entry, ci * cj)
        return AlgebraElement(self, out)

    def ad_columns(self, x: AlgebraElement) -> list:
        """Columns of ad(x) as sparse dicts: column j is [x, basis_j],
        the sum of x_i * _ad[i][j]."""
        cols: list = [{} for _ in range(self.dim)]
        for i, ci in x.coeffs.items():
            for j, entry in self._ad[i].items():
                add_scaled(cols[j], entry, ci)
        return cols

    def ad_matrix(self, x: AlgebraElement) -> list:
        """Dense dim x dim matrix of ad(x) over Fractions."""
        cols = self.ad_columns(x)
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                mat[i][j] = v
        return mat

    def centralizer_dimension(self, x: AlgebraElement) -> int:
        return self.dim - rank_of_sparse(x.ad_cols())

    def weight_of_index(self, idx: int):
        kind = self.index_data(idx)
        if kind[0] == "h":
            return tuple(0 for _ in range(self.system.rank))
        _, sign, root = kind
        return tuple(sign * x for x in root.fc)

    def __repr__(self):
        return f"ChevalleyAlgebra({self.system.name})"


def build_chevalley(system: RootSystem) -> ChevalleyAlgebra:
    """The Chevalley algebra of system, built once and kept on it."""
    if system._algebra is None:
        system._algebra = ChevalleyAlgebra(system)
    return system._algebra
