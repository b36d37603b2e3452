"""q-analogs of weight multiplicity and their classical cross-checks.

q_partition grades the partition count of a weight into sums of positive
roots outside a parabolic's Levi by the number of summands.  The
alternating Weyl sum of those polynomials over the shifted action gives
the q-analog of weight multiplicity; at q = 1 it collapses to the
ordinary multiplicity, which Freudenthal's recursion and the Weyl
dimension formula compute independently.

A q-analog walks its Weyl orbit first and then fills one box DP for
all the points of the walk that the system's cache misses, each root
walking by strides only the cells above it; q_partition is the
one-point case of the same lookup.  Freudenthal's recursion takes the
dominant weights below the highest weight from `height.dominant_interval`,
in order of chain depth; that walk belongs to neither side of the
identity, so the q-analog side still builds no module.  Its inner sums
run up root strings, and each string is summed once: with S = 2 den (,)
and h = den |beta|^2,
sum_{k >= 1} m(delta + k beta) S(delta + k beta, beta) = h T(delta + beta)
for T(nu) = m(nu) <nu, beta^vee> + T(nu + beta).  The table keeps T per
root and each weight's multiplicity, read once through its dominant
conjugate, so its work grows with the length of its strings, not with
the square of it.
"""

from __future__ import annotations

import itertools
import warnings
from operator import add, mul

from .config import CapExceeded
from .height import dominant_interval
from .qpoly import QPolynomial
from .rootsystem import Parabolic, RootSystem, Weight, _require_dominant

# the most cells one partition table may hold, checked before the table
# is allocated.  The test suite and the benchmark fill at most 360; a
# full G2 table of 25,000 cells takes about 0.7 s and 140 MB.
_TABLE_CELL_LIMIT = 25_000


def _partition_table(parabolic: Parabolic, top) -> tuple:
    """(strides, cells): the graded partition count of every point of
    the box [0, top] in root coordinates, cell sum(rc * strides) a
    {degree: count} dict for the point rc, or None where it is zero.

    One dense DP over the box with a pass per root outside the Levi.  A
    root's pass walks, by strides, only the cells at or above the root,
    in increasing index order, so each cell already counts the root's
    uses below it.  CapExceeded, before anything is allocated, when the
    box has more than `_TABLE_CELL_LIMIT` cells."""
    sizes = [c + 1 for c in top]
    strides = [0] * len(sizes)
    acc = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]
    if acc > _TABLE_CELL_LIMIT:
        raise CapExceeded(
            f"a partition table of {acc} cells exceeds the limit of {_TABLE_CELL_LIMIT}"
        )
    cells: list = [None] * acc
    cells[0] = {0: 1}
    for root in parabolic.nilradical:
        offset = sum(map(mul, root.rc, strides))
        above = itertools.product(
            *(range(r * st, s * st, st) for r, s, st in zip(root.rc, sizes, strides))
        )
        for idx in map(sum, above):
            src = cells[idx - offset]
            if src:
                cell = cells[idx]
                if cell is None:
                    cell = cells[idx] = {}
                for deg, c in src.items():
                    cell[deg + 1] = cell.get(deg + 1, 0) + c
    return strides, cells


def _partitions(system: RootSystem, parabolic: Parabolic, points) -> list:
    """q_partition at each point of points, given by root coordinates
    >= 0, read from the system's cache.  The points it misses are
    filled from one `_partition_table` over their coordinate-wise max
    and cached; no other cell of the table is kept."""
    cache = system._q_partitions
    key = parabolic.key
    missing = [rc for rc in points if (key, rc) not in cache]
    if missing:
        top = tuple(map(max, zip(*missing)))
        strides, cells = _partition_table(parabolic, top)
        for rc in missing:
            cache[(key, rc)] = QPolynomial(cells[sum(map(mul, rc, strides))])
    return [cache[(key, rc)] for rc in points]


def q_partition(gamma: Weight, parabolic: Parabolic | None = None) -> QPolynomial:
    """Graded count of ways to write gamma as a sum of positive roots
    outside the parabolic (all positive roots for the Borel, which
    parabolic=None also names); the q^n coefficient counts expressions
    with exactly n summands.  Zero polynomial when gamma is outside the
    Z>=0 span.

    The one-point case of `lusztig_q_analog`'s lookup: cached on the
    system per (parabolic, root coordinates), a miss filled from one
    `_partition_table` over the box [0, rc(gamma)]."""
    system = gamma.system
    parabolic = parabolic or system.borel()
    system.require_same(parabolic.system)
    rc = system.lattice_coords(gamma.fc)
    if rc is None or any(x < 0 for x in rc):
        return QPolynomial.zero()
    return _partitions(system, parabolic, [rc])[0]


def lusztig_q_analog(
    mu: Weight, lam: Weight, parabolic: Parabolic | None = None
) -> QPolynomial:
    """Alternating sum over the Weyl group of q_partition(w*mu - lam)
    for the shifted action.  parabolic=None is the Borel case.

    The sum runs over the W-orbit of x = (mu + rho)^+, the dominant
    conjugate, walked from x by simple reflections s_i that raise the
    length, i.e. at points y with y_i > 0; the depth of y is the length
    of the w with y = w x.  Such a step lowers the i-th root coordinate
    of y - rho - lam by y_i, so those coordinates only fall along the
    walk and a branch can stop at the first negative one.  A singular
    mu + rho is fixed by a reflection, whose terms cancel in pairs.

    The walk first collects the root coordinates of every point it
    reaches; the terms are then read from the system's cache, and the
    points it misses are filled from one DP table, whose box is never
    larger than the starting point's."""
    system = mu.system
    parabolic = parabolic or system.borel()
    system.require_same(lam.system, parabolic.system)
    if not mu.is_dominant():
        warnings.warn("q-analog requested for a non-dominant highest weight")
    shifted = mu + system.rho
    x = system.dominant_weight_fc(shifted.fc)
    if 0 in x:
        return QPolynomial.zero()
    rc = system.lattice_coords([a - 1 - b for a, b in zip(x, lam.fc)])
    if rc is None or any(c < 0 for c in rc):
        return QPolynomial.zero()
    # x = v(mu + rho) and w(mu + rho) = (w v^-1) x, so every term carries
    # sign(v) = (-1)^#{beta > 0 : <mu + rho, beta^vee> < 0} on top
    flips = sum(system.pair(shifted, root) < 0 for root in system.positive_roots)
    sign = -1 if flips % 2 else 1
    rank = system.rank
    steps = system._simple_steps
    points: list = []
    signs: list = []
    frontier = {x: rc}
    while frontier:
        points.extend(frontier.values())
        signs.extend([sign] * len(frontier))
        nxt = {}
        for y, rc in frontier.items():
            for i in range(rank):
                c = y[i]
                if c > 0 and rc[i] >= c:
                    image = list(y)
                    image[i] = -c
                    for r, a in steps[i]:
                        image[r] -= c * a
                    image = tuple(image)
                    if image not in nxt:
                        nxt[image] = rc[:i] + (rc[i] - c,) + rc[i + 1:]
        frontier = nxt
        sign = -sign
    acc: dict = {}
    for sign, term in zip(signs, _partitions(system, parabolic, points)):
        for deg, c in term.coeffs.items():
            acc[deg] = acc.get(deg, 0) + sign * c
    return QPolynomial(acc)


def weyl_dimension(mu: Weight) -> int:
    """Dimension of the irreducible module with highest weight mu."""
    system = mu.system
    _require_dominant(mu)
    shifted = mu + system.rho
    num = 1
    den = 1
    for root in system.positive_roots:
        num *= system.pair(shifted, root)
        den *= system.pair(system.rho, root)
    if num % den:
        raise RuntimeError("Weyl dimension did not come out integral; bug")
    return num // den


def _multiplicity_table(system: RootSystem, mu_fc) -> dict:
    """Freudenthal's recursion in integers: with S = 2 * den * (,),
    m(delta) = 2 * sum m(nu) S(nu, beta) / (S(mu+rho) - S(delta+rho)),
    nu = delta + k beta over k >= 1 and the positive roots beta.

    The dominant weights <= mu are the dominant interval from w0 mu =
    -(-mu)^+ up to mu, taken by longest-chain depth below mu.  Every
    dominant weight above delta lies on a chain down to delta, so its
    depth is smaller and its multiplicity is in the table first.

    Each root string is summed once.  S(nu, beta) = h <nu, beta^vee>
    with h = den |beta|^2, so the inner sum for delta is h T(delta + beta)
    for the string sum T(nu) = m(nu) <nu, beta^vee> + T(nu + beta), kept
    per root and cut where |nu|^2 passes |mu|^2, past which no weight
    lies.  (delta, beta) >= 0, so (nu, beta) > 0 at every nu = delta +
    k beta, k >= 1: the norm only grows up the rest of the string, and
    where T(nu) stops depends on nu alone, whichever delta reaches it
    first.  A nu's multiplicity is read once, through its dominant
    conjugate, and kept.  Both memos are exact when first written: nu's
    dominant conjugate lies at or above nu, strictly above delta, so it
    has a smaller depth and its entry is already final."""
    table = system._multiplicity_tables.get(mu_fc)
    if table is not None:
        return table
    form = system.inner_scaled
    dominant = system.dominant_weight_fc
    rho = system.rho.fc
    mu_norm = form(mu_fc, mu_fc)
    mu_rho = tuple(a + b for a, b in zip(mu_fc, rho))
    shifted_mu_norm = form(mu_rho, mu_rho)
    # (beta, beta^vee, h, {nu: T(nu)}) per positive root
    strings = [(r.fc, r.coroot_fc, system.den * r.norm_sq, {}) for r in system.positive_roots]
    lowest = [-a for a in dominant([-a for a in mu_fc])]
    depths = dominant_interval(
        system, Weight._trusted(system, tuple(lowest)), Weight._trusted(system, mu_fc)
    )
    table: dict = {mu_fc: 1}
    mult: dict = {}  # nu -> m(nu), read through nu's dominant conjugate
    # mu alone has depth 0
    for delta in sorted(depths, key=depths.get)[1:]:
        delta_norm = form(delta, delta)
        total = 0
        for beta, coroot, h, sums in strings:
            # walk up from delta + beta to the first nu already summed or
            # past the cut; p = <nu + beta, beta^vee> and norm = |nu + beta|^2
            # in units of S, and |nu + 2 beta|^2 = |nu + beta|^2 + 2h (p + 1)
            p = sum(map(mul, coroot, delta)) + 2
            norm = delta_norm + 2 * h * (p - 1)
            nu = delta
            path = []
            t = 0
            while norm <= mu_norm:
                nu = tuple(map(add, nu, beta))
                known = sums.get(nu)
                if known is not None:
                    t = known
                    break
                path.append((nu, p))
                norm += 2 * h * (p + 1)
                p += 2
            for nu, p in reversed(path):
                m = mult.get(nu)
                if m is None:
                    m = mult[nu] = table.get(dominant(nu), 0)
                t += m * p
                sums[nu] = t
            total += h * t
        delta_rho = tuple(a + b for a, b in zip(delta, rho))
        value, rem = divmod(2 * total, shifted_mu_norm - form(delta_rho, delta_rho))
        if rem:
            raise RuntimeError("Freudenthal recursion gave a non-integer; bug")
        table[delta] = value
    system._multiplicity_tables[mu_fc] = table
    return table


def freudenthal_multiplicity(mu: Weight, lam: Weight) -> int:
    """dim of the lam weight space in the irreducible module V(mu),
    by Freudenthal's recursion.  The table's weights all lie in mu + Q,
    and lam's dominant conjugate lies in lam + Q, so a lam off mu's
    coset of the root lattice Q reads 0."""
    system = mu.system
    system.require_same(lam.system)
    _require_dominant(mu)
    table = _multiplicity_table(system, mu.fc)
    return table.get(system.dominant_weight_fc(lam.fc), 0)


def dominant_multiplicities(mu: Weight) -> dict:
    """{dominant weight fc: multiplicity} for all weights of V(mu), in
    the table's order: mu first, then by chain depth below mu."""
    system = mu.system
    _require_dominant(mu)
    table = _multiplicity_table(system, mu.fc)
    return {fc: m for fc, m in table.items() if m}
