"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: ranks and
kernels come from a plain Gauss-Jordan elimination over Fraction,
partition counts from exhaustive multiset enumeration, type-A Borel
q-analogs from the charge of semistandard tableaux, star/cht from
box enumeration over the full weight interval with a comparability DP,
simple-root coordinates from a Fraction inverse of the Cartan matrix,
q-analogs from the plain sum over every Weyl group element, Freudenthal
tables from the recursion with every root-string sum rebuilt term by
term, Levi q-analogs from a walk over the Levi's Weyl group and a
recursion over its roots, Weyl orbits from a walk by simple
reflections, dominant conjugates from the images under every Weyl
group element, and Jordan types from the ranks of matrix powers.  cht
also has the earlier two-pass search (breadth-first interval, then a
longest-chain DP) as an oracle for the one-pass walk.  An algebra
element's action is also built the whole-module way: one sparse matrix per element, summed from the
operators of its basis terms, which the kernel filtration then
applies; ad-nilpotency comes from powers of the dense matrix of ad(x).
The module's int commutators are checked against [a, b] / N built from
the exact `Fraction` action of the two factors.  The one elimination is
checked against a reduction that divides out the content of row and
tail after every step.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from lieq.height import dominant_interval, star
from lieq.linalg import rank_of_sparse
from lieq.orbits import Partition
from lieq.qanalog import dominant_multiplicities, q_partition, weyl_dimension
from lieq.qpoly import QPolynomial


def fraction_cartan_inverse(system):
    """C^-1 with Fraction entries, by Gauss-Jordan elimination."""
    n = system.rank
    aug = [
        [Fraction(system.cartan_matrix[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def fraction_gauss_jordan(rows, columns):
    """Reduced echelon form over Fraction of sparse rows over the given
    column keys: (pivot columns in order, free columns in order, the
    kernel basis with 1 on its free column and 0 on the other free
    columns)."""
    columns = list(columns)
    mat = [[Fraction(row.get(c, 0)) for c in columns] for row in rows]
    pivots = []
    top = 0
    for j in range(len(columns)):
        piv = next((r for r in range(top, len(mat)) if mat[r][j]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        lead = mat[top][j]
        mat[top] = [x / lead for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][j]:
                c = mat[r][j]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[top])]
        pivots.append(j)
        top += 1
    free = [j for j in range(len(columns)) if j not in pivots]
    kernel = []
    for f in free:
        vec = {columns[f]: Fraction(1)}
        for r, j in enumerate(pivots):
            if mat[r][f]:
                vec[columns[j]] = -mat[r][f]
        kernel.append(vec)
    return [columns[j] for j in pivots], [columns[f] for f in free], kernel


def eliminate_dividing(row: dict, tail: dict, pivots: dict) -> tuple:
    """The fraction-free reduction of `linalg.eliminate` with a content
    division after every step: pivots least key first, a step
    row <- r row - c R (r, c = R[p], row[p] over their gcd) done to the
    tail with T too, then row and tail divided by their joint gcd.
    Returns the reduced (row, tail) as new dicts."""
    row, tail = dict(row), dict(tail)
    while True:
        hits = [k for k in row if k in pivots]
        if not hits:
            return row, tail
        p = min(hits)
        prow, ptail = pivots[p]
        g = math.gcd(prow[p], row[p])
        r, c = prow[p] // g, row[p] // g
        row = {k: r * v for k, v in row.items()}
        tail = {k: r * v for k, v in tail.items()}
        for vec, other in ((row, prow), (tail, ptail)):
            for k, v in other.items():
                vec[k] = vec.get(k, 0) - c * v
                if not vec[k]:
                    del vec[k]
        g = math.gcd(*row.values(), *tail.values())
        row = {k: v // g for k, v in row.items()}
        tail = {k: v // g for k, v in tail.items()}


def fraction_rank(rows, columns) -> int:
    """Rank of sparse rows over the given column keys, over Fraction."""
    return len(fraction_gauss_jordan(rows, columns)[0])


def fraction_root_coords(system, fc, inverse=None):
    """Simple-root coordinates C^-1 fc as Fractions."""
    inv = inverse or fraction_cartan_inverse(system)
    n = system.rank
    return tuple(sum((inv[i][j] * fc[j] for j in range(n)), Fraction(0)) for i in range(n))


def fraction_inner(system, a_fc, b_fc, inverse=None):
    """(a, b) = sum_j |alpha_j|^2 / 2 * a_j * (C^-1 b)_j."""
    rc_b = fraction_root_coords(system, b_fc, inverse)
    return sum(
        (Fraction(system.simple_norms[j], 2) * a_fc[j] * rc_b[j] for j in range(system.rank)),
        Fraction(0),
    )


def lusztig_q_analog_oracle(mu, lam, parabolic=None) -> QPolynomial:
    """sum over w in W of sign(w) q_partition(w.mu - lam), one term per
    Weyl group element, with the shifted action and Fraction root
    coordinates."""
    system = mu.system
    inverse = fraction_cartan_inverse(system)
    acc = QPolynomial.zero()
    for w in system.weyl_group():
        gamma = system.shifted_action(w, mu) - lam
        rc = fraction_root_coords(system, gamma.fc, inverse)
        if any(x.denominator != 1 or x < 0 for x in rc):
            continue
        term = q_partition(gamma, parabolic)
        if term:
            acc = acc + term if w.sign > 0 else acc - term
    return acc


def freudenthal_table_oracle(mu) -> dict:
    """{dominant weight fc: multiplicity} for V(mu), zeros dropped, in the
    library's key order: Freudenthal's recursion over the same dominant
    interval in the same depth order, but with every inner sum
    m(delta + k beta) (delta + k beta, beta) rebuilt term by term for
    each delta and beta, and each term's multiplicity read through its
    own dominant conjugate.  Nothing is cached on the system."""
    system = mu.system
    form = system.inner_scaled
    rho = system.rho.fc
    mu_fc = mu.fc
    mu_norm = form(mu_fc, mu_fc)
    mu_rho = tuple(a + b for a, b in zip(mu_fc, rho))
    shifted_mu_norm = form(mu_rho, mu_rho)
    betas = [(r.fc, form(r.fc, r.fc)) for r in system.positive_roots]
    lowest = [-a for a in system.dominant_weight_fc([-a for a in mu_fc])]
    depths = dominant_interval(system, system.weight(lowest), mu)
    table = {mu_fc: 1}
    for delta in sorted(depths, key=depths.get)[1:]:
        delta_norm = form(delta, delta)
        total = 0
        for beta, beta_norm in betas:
            cross = form(delta, beta)
            k = 1
            # |delta + k beta|^2 = |delta|^2 + 2k (delta, beta) + k^2 |beta|^2
            while delta_norm + k * (2 * cross + k * beta_norm) <= mu_norm:
                nu = tuple(a + k * b for a, b in zip(delta, beta))
                total += table.get(system.dominant_weight_fc(nu), 0) * (cross + k * beta_norm)
                k += 1
        delta_rho = tuple(a + b for a, b in zip(delta, rho))
        value, rem = divmod(2 * total, shifted_mu_norm - form(delta_rho, delta_rho))
        assert rem == 0, (mu_fc, delta)
        table[delta] = value
    return {fc: m for fc, m in table.items() if m}


def partition_poly_oracle(system, gamma, roots) -> QPolynomial:
    """Exhaustive multiset enumeration of ways to write gamma as a sum
    of the given roots, graded by the number of summands."""
    rc = gamma.root_coords()
    if any(x.denominator != 1 or x < 0 for x in rc):
        return QPolynomial.zero()
    target = tuple(int(x) for x in rc)
    rcs = [r.rc for r in roots]
    counts: dict = {}

    def rec(i, remaining, used):
        if not any(remaining):
            counts[used] = counts.get(used, 0) + 1
            return
        if i == len(rcs):
            return
        root = rcs[i]
        max_mult = min(
            (rem // c for rem, c in zip(remaining, root) if c), default=0
        )
        for mult in range(max_mult + 1):
            rest = tuple(r - mult * c for r, c in zip(remaining, root))
            if all(x >= 0 for x in rest):
                rec(i + 1, rest, used + mult)

    rec(0, target, 0)
    return QPolynomial(counts)


def semistandard_tableaux(shape, content) -> list:
    """Every semistandard tableau of the partition shape with the given
    content, as a tuple of rows.  The entries k fill a horizontal strip
    of content[k - 1] boxes on the shape of the entries below k: a row
    grows to at most the length of the row above before the step."""
    rows = len(shape)
    out = []

    def strips(inner, r, left, outer):
        if r == rows:
            if not left:
                yield outer
            return
        hi = min(shape[r], inner[r - 1] if r else shape[0], inner[r] + left)
        for o in range(inner[r], hi + 1):
            yield from strips(inner, r + 1, left - (o - inner[r]), outer + (o,))

    def rec(k, inner, filled):
        if k > len(content):
            if inner == tuple(shape):
                out.append(filled)
            return
        for outer in strips(inner, 0, content[k - 1], ()):
            grown = tuple(row + (k,) * (o - i) for row, o, i in zip(filled, outer, inner))
            rec(k + 1, outer, grown)

    rec(1, (0,) * rows, ((),) * rows)
    return out


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word of partition content
    (C. R. Acad. Sci. Paris 286, 1978).  From the right end, read to
    the left for a 1, then on to the left for a 2, and so on, going
    back to the right end when the letter is not found before the left
    end.  Letter 1 has index 0, and letter r + 1 the index of r, plus
    one when the search for it went back to the right end.  The charge
    is the sum of the indices of this standard subword plus the charge
    of the word left when it is taken out."""
    word = list(word)
    total = 0
    while word:
        picked = set()
        pos = len(word)
        index = 0
        for r in range(1, max(word) + 1):
            left = [p for p in range(pos - 1, -1, -1) if word[p] == r]
            if left:
                pos = left[0]
            else:
                pos = max(p for p, a in enumerate(word) if a == r)
                index += 1
            total += index
            picked.add(pos)
        word = [a for p, a in enumerate(word) if p not in picked]
    return total


def kostka_foulkes_oracle(shape, content) -> QPolynomial:
    """K_{shape, content}(q): q to the charge of each semistandard
    tableau of the shape and content, its word read row by row from the
    bottom row up, each row from left to right.  For dominant weights
    of sl_n, given as partitions of the same size with at most n parts,
    this is Lusztig's Borel q-analog of the multiplicity of the weight
    content in the module of highest weight shape (Lusztig, Asterisque
    101-102, 1983; Kato, Invent. Math. 66, 1982)."""
    counts: dict = {}
    for tableau in semistandard_tableaux(shape, content):
        c = charge([a for row in reversed(tableau) for a in row])
        counts[c] = counts.get(c, 0) + 1
    return QPolynomial(counts)


def interval_weights_box(system, lo, hi):
    """Every weight between lo and hi in dominance order, by brute box
    enumeration (exponential; small cases only)."""
    diff = (hi - lo).root_coords()
    if any(x.denominator != 1 or x < 0 for x in diff):
        return []
    bounds = [int(x) for x in diff]
    out = []
    for coeffs in itertools.product(*[range(b + 1) for b in bounds]):
        w = lo
        for i, c in enumerate(coeffs):
            if c:
                root = system._root_by_rc[
                    tuple(1 if j == i else 0 for j in range(system.rank))
                ]
                w = w + c * system.weight(root.fc)
        out.append(w)
    return out


def weyl_dominant_conjugates(system, fcs) -> dict:
    """{fc: the dominant point of its orbit} for each fc of fcs, with the
    orbit taken as the images of fc under every element of the enumerated
    `RootSystem.weyl_group`; checks that the orbit has exactly one
    dominant point.  Every point of an orbit computed is recorded, so
    the points of fcs that share an orbit share its images."""
    matrices = [w.matrix for w in system.weyl_group()]
    found = {}
    for fc in map(tuple, fcs):
        if fc in found:
            continue
        orbit = {tuple(sum(map(operator.mul, row, fc)) for row in m) for m in matrices}
        dominant = [p for p in orbit if min(p) >= 0]
        assert len(dominant) == 1, (fc, dominant)
        found.update(dict.fromkeys(orbit, dominant[0]))
    return {tuple(fc): found[tuple(fc)] for fc in fcs}


def weyl_dominant_weight(lam):
    """The dominant Weyl conjugate of lam, from `weyl_dominant_conjugates`."""
    return lam.system.weight(weyl_dominant_conjugates(lam.system, [lam.fc])[lam.fc])


def interval_box_size(system, lo, hi) -> int:
    """The number of points `interval_weights_box` enumerates."""
    diff = (hi - lo).root_coords()
    if any(x.denominator != 1 or x < 0 for x in diff):
        return 0
    return math.prod(int(x) + 1 for x in diff)


def star_oracle(system, lam, max_box=None):
    """Minimum of the dominant weights in [lam, lam+] under dominance,
    with lam+ from the Weyl group; checks the minimum is comparable to
    every candidate.  None when the box of the interval holds more than
    max_box points."""
    hi = weyl_dominant_weight(lam)
    if max_box is not None and interval_box_size(system, lam, hi) > max_box:
        return None
    dominants = [w for w in interval_weights_box(system, lam, hi) if w.is_dominant()]
    best = None
    for w in dominants:
        if best is None or system.dominance_leq(w, best):
            best = w
    assert best is not None
    for w in dominants:
        assert system.dominance_leq(best, w)
    return best


def cht_oracle(system, lam):
    """Longest chain of dominant weights from star to the dominant
    conjugate, via the full comparability DP on the box interval."""
    lo = star_oracle(system, lam)
    hi = weyl_dominant_weight(lam)
    dominants = [w for w in interval_weights_box(system, lo, hi) if w.is_dominant()]
    dominants.sort(key=lambda w: system.height_of(w - lo))
    longest = {}
    for w in dominants:
        best = 0 if w.fc == lo.fc else None
        for v in dominants:
            if v.fc != w.fc and v.fc in longest and system.dominance_leq(v, w):
                cand = longest[v.fc] + 1
                if best is None or cand > best:
                    best = cand
        if best is not None:
            longest[w.fc] = best
    return longest[hi.fc]


def cht_two_pass_oracle(lam):
    """(cht, interval) the two-pass way: a breadth-first search down
    from the dominant conjugate collects the dominant interval as a set
    of fundamental coordinates, then a DP over the nodes sorted by
    height above star(lam) finds the longest positive-root chain up to
    the top."""
    system = lam.system
    lo = star(lam)
    hi = system.weight(system.dominant_weight_fc(lam.fc))
    start = system.lattice_coords([h - l for l, h in zip(lo.fc, hi.fc)])
    root_rcs = [r.rc for r in system.positive_roots]
    root_fcs = [r.fc for r in system.positive_roots]
    seen = {start: hi.fc}
    frontier = [(start, hi.fc)]
    while frontier:
        nxt = []
        for rc, fc in frontier:
            for root_rc, root_fc in zip(root_rcs, root_fcs):
                cand_rc = tuple(a - b for a, b in zip(rc, root_rc))
                if any(x < 0 for x in cand_rc) or cand_rc in seen:
                    continue
                cand_fc = tuple(a - b for a, b in zip(fc, root_fc))
                if any(x < 0 for x in cand_fc):
                    continue
                seen[cand_rc] = cand_fc
                nxt.append((cand_rc, cand_fc))
        frontier = nxt
    longest = {tuple(0 for _ in range(system.rank)): 0}
    for rc in sorted(seen, key=lambda rc: (sum(rc), rc)):
        prevs = [tuple(a - b for a, b in zip(rc, root_rc)) for root_rc in root_rcs]
        best = max((longest[p] + 1 for p in prevs if p in longest), default=None)
        if best is not None and sum(rc):
            longest[rc] = best
    return longest[start], set(seen.values())


def weyl_orbit(system, weight):
    """Fundamental coordinates of every point of the weight's Weyl orbit,
    stepping by s_i(lam) = lam - lam_i alpha_i, one Cartan column."""
    seen = {weight.fc}
    frontier = [weight.fc]
    cols = list(zip(*system.cartan_matrix))
    while frontier:
        nxt = []
        for fc in frontier:
            for i in range(system.rank):
                c = fc[i]
                if not c:
                    continue
                img = tuple(a - c * b for a, b in zip(fc, cols[i]))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def levi_q_analog_oracle(nu, lam, levi) -> QPolynomial:
    """m_L^lam_nu(q), Lusztig's q-analog of the Levi L whose simple roots
    have the 0-based indices levi: the sum over u in W_L of sign(u) times
    the graded count of ways to write u(nu + rho) - (lam + rho) as a sum
    of positive roots of L.  nu must be L-dominant, so nu + rho is
    L-regular and W_L acts freely on its orbit: the walk from nu + rho
    by the reflections s_i, i in levi, meets each u once, its sign the
    parity of the steps that reach it.  The graded count is a recursion
    over the Levi's positive roots one at a time, in root coordinates:
    a root is used no more, or once more."""
    system = nu.system
    cols = list(zip(*system.cartan_matrix))
    roots = [
        r.rc for r in system.positive_roots if all(c == 0 or i in levi for i, c in enumerate(r.rc))
    ]
    memo: dict = {}

    def count(rc, j):
        if not any(rc):
            return {0: 1}
        if j == len(roots):
            return {}
        if (rc, j) not in memo:
            out = dict(count(rc, j + 1))
            rest = tuple(a - b for a, b in zip(rc, roots[j]))
            if min(rest) >= 0:
                for deg, c in count(rest, j).items():
                    out[deg + 1] = out.get(deg + 1, 0) + c
            memo[rc, j] = out
        return memo[rc, j]

    # each point y = u(nu + rho) with the root coordinates of
    # y - (lam + rho) and sign(u); s_i lowers coordinate i by y_i
    start = tuple(a + 1 for a in nu.fc)
    diff = fraction_root_coords(system, [a - b for a, b in zip(nu.fc, lam.fc)])
    points = {start: (tuple(int(x) for x in diff), 1)}
    frontier = [start]
    while frontier:
        nxt = []
        for y in frontier:
            rc, sign = points[y]
            for i in levi:
                image = tuple(a - y[i] * b for a, b in zip(y, cols[i]))
                if image not in points:
                    points[image] = (rc[:i] + (rc[i] - y[i],) + rc[i + 1:], -sign)
                    nxt.append(image)
        frontier = nxt
    acc: dict = {}
    for rc, sign in points.values():
        if min(rc) >= 0:
            for deg, c in count(rc, 0).items():
                acc[deg] = acc.get(deg, 0) + sign * c
    return QPolynomial(acc)


def total_dimension_check(mu):
    """(sum of all weight multiplicities, weyl_dimension) for V(mu), each
    dominant weight counted once per point of its Weyl orbit."""
    system = mu.system
    table = dominant_multiplicities(mu)
    total = sum(m * len(weyl_orbit(system, system.weight(fc))) for fc, m in table.items())
    return total, weyl_dimension(mu)


def all_weights(mu):
    """Every weight of V(mu), each listed once, highest coordinates first."""
    system = mu.system
    fcs = set()
    for fc in dominant_multiplicities(mu):
        fcs |= weyl_orbit(system, system.weight(fc))
    return [system.weight(fc) for fc in sorted(fcs, reverse=True)]


def jordan_type_of_nilpotent_matrix(size, rank_fn):
    """Recover the Jordan type from the rank sequence of matrix powers:
    the number of blocks of size >= k is rank(M^(k-1)) - rank(M^k)."""
    ranks = [size]
    k = 1
    while ranks[-1] > 0:
        ranks.append(rank_fn(k))
        k += 1
    counts = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
    parts = []
    for block_size in range(len(counts), 0, -1):
        at_least = counts[block_size - 1]
        longer = counts[block_size] if block_size < len(counts) else 0
        parts.extend([block_size] * (at_least - longer))
    parts = [p for p in sorted(parts, reverse=True) if p > 0]
    return Partition(tuple(parts))


def dominant_weights_with_dim_bound(system, bound):
    """All dominant weights with Weyl dimension at most the bound.
    Dimension is monotone in each fundamental coordinate, so prefixes
    stop growing as soon as the dimension passes the bound."""
    out = []

    def rec(prefix):
        if len(prefix) == system.rank:
            mu = system.weight(prefix)
            if weyl_dimension(mu) <= bound:
                out.append(mu)
                return True
            return False
        c = 0
        any_ok = False
        while rec(tuple(prefix) + (c,)):
            any_ok = True
            c += 1
        return any_ok

    rec(())
    return out


def operator_columns(module, x):
    """Flat columns {col: (den, row0, n0, row1, n1, ...)} of an algebra
    element on the whole module, in the module's format: the sum of its
    basis terms' operator columns, each entry read from its flat tuple
    by slicing as Fraction(n, den), then written over the lcm of the
    column's denominators."""
    cols: dict = {}
    for basis_index, coeff in x.coeffs.items():
        op = module._basis_operator(basis_index)
        for col, column in op.items():
            dest = cols.setdefault(col, {})
            for row, n in zip(column[1::2], column[2::2]):
                nv = dest.get(row, 0) + coeff * Fraction(n, column[0])
                if nv:
                    dest[row] = nv
                else:
                    dest.pop(row, None)
    out = {}
    for c, col in cols.items():
        if col:
            den = math.lcm(*(Fraction(v).denominator for v in col.values()))
            out[c] = (den,) + tuple(
                entry for row, v in col.items() for entry in (row, int(v * den))
            )
    return out


def commutator_columns(module, a, b, n):
    """Columns of [a, b] / n for two operators' columns, from the exact
    action: column col is Fraction(1, n) (a(b e_col) - b(a e_col)), as a
    {row: Fraction} dict, over every column where it is nonzero."""
    cols = {}
    for col in range(module.dim):
        unit = {col: 1}
        out = module.apply_cols(a, module.apply_cols(b, unit))
        for row, v in module.apply_cols(b, module.apply_cols(a, unit)).items():
            out[row] = out.get(row, 0) - v
        out = {row: Fraction(v, n) for row, v in out.items() if v}
        if out:
            cols[col] = out
    return cols


def filtration_oracle(module, x, lam, parabolic):
    """(subspace dims, jump polynomial) of the Levi-highest space at lam
    filtered by kernels of powers of x, with x applied through its
    whole-module matrix from `operator_columns`."""
    space = module.l_highest_space(lam, parabolic)
    total = len(space)
    if not total:
        return [], QPolynomial.zero()
    cols = operator_columns(module, x)
    dims = []
    current = space
    while not dims or dims[-1] < total:
        if len(dims) > module.dim:
            raise ValueError("element is not nilpotent on the module")
        current = [module.apply_cols(cols, v) for v in current]
        dims.append(total - rank_of_sparse(current))
    jumps = {n: d - p for n, (p, d) in enumerate(zip([0] + dims, dims))}
    return dims, QPolynomial(jumps)


def ad_nilpotent_oracle(x):
    """Whether ad(x) is nilpotent: the dense matrix of ad(x), scaled to
    integers and squared until its exponent reaches the algebra's
    dimension, is zero."""
    n = x.algebra.dim
    ad = x.algebra.ad_matrix(x)
    scale = math.lcm(*(v.denominator for row in ad for v in row))
    power, exponent = [[int(v * scale) for v in row] for row in ad], 1
    while exponent < n:
        power = [
            [sum(row[k] * power[k][j] for k in range(n)) for j in range(n)]
            for row in power
        ]
        exponent *= 2
    return not any(any(row) for row in power)
