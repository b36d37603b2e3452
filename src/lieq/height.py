"""Combinatorial height of a weight.

star(lam) is the least dominant weight above lam in dominance order;
cht(lam) is the length of the longest chain of dominant weights from
star(lam) up to the dominant Weyl conjugate of lam.  Chains are walked
along positive-root steps, which is enough because covers between
dominant weights are positive-root differences.

star(lam) is found by climbing: while a coordinate c = <lam, alpha_i^vee>
is negative, add alpha_i.  Such a step never passes a dominant weight
nu above lam: with nu - lam = sum_j c_j alpha_j and c_j >= 0, the
pairing of nu - lam with alpha_i^vee is positive, since nu is dominant
and lam's pairing is negative, and it is at most 2 c_i, so c_i >= 1.
The climb stays below lam+, so it ends, and it ends at a dominant
weight below every dominant weight above lam, the least one, whatever
order the steps are taken in (Stembridge, *The partial order of dominant
weights*, Adv. Math. 136, 1998).  So `star` takes all ceil(-c / 2)
steps along alpha_i at once, and `RootSystem.dominant_weight_fc`
reflects in place; both read the system's sparse table of simple-root
steps, which lists only alpha_i's Dynkin neighbours.

One walk finds the interval and its longest chains together.  It goes
down from the top one height level at a time, so every parent of a
node sits on a higher level and has been expanded before the node is:
the node's depth, max(parent depth) + 1, is final when its own level
is expanded.

A node of the walk is one int: its simple-root coordinates rc over
lo, then its fundamental coordinates fc, each in a fixed-width field
with a guard bit above it.  With top = hi - lo in simple roots, every
node has 0 <= rc_j <= top_j and 0 <= fc_j = lo_j + sum_k C_jk rc_k
<= lo_j + 2 * top_j, because the Cartan matrix C has 2 on the
diagonal and entries <= 0 off it.  One positive-root step lowers an
rc entry by at most 4 (the largest coefficient of a root, in F4) and
never raises it, and moves an fc entry by at most 3.  So a field of w
bits stores 2**w plus any step's result without a borrow into the
next field once 2**w > top_j and 2**w >= 4 for an rc field, and
2**w > lo_j + 2 * top_j + 3 for an fc field.  Then (node | guards) -
root keeps every guard bit set exactly when no coordinate went
negative, that is, when the step stays above lo and dominant.

The walk has two readers.  `dominant_interval` decodes every node into
{fc: depth}, which the Freudenthal table needs.  `cht` decodes nothing:
it packs star(lam) once and reads its depth from level 0, the level of
lo.  The packed steps, guards - pack(rc + fc) for each positive root,
depend only on the field widths, so each RootSystem keeps them per
layout; a workload meets few layouts and many intervals.  The walk's
input is only the pair (star(lam), lam+), so its depth is a function
of that pair, and each RootSystem keeps the depth per pair: many
weights share one pair (every W-conjugate with the same star does),
and each pair is walked once.
"""

from __future__ import annotations

from .rootsystem import RootSystem, Weight


def star(lam: Weight) -> Weight:
    """Least dominant weight >= lam.  While some coordinate c = fc[i] is
    negative, add k = ceil(-c / 2) copies of alpha_i at once, in place
    through the system's sparse simple-root steps: fc[i] becomes c + 2k,
    0 or 1, and each Dynkin neighbour r gains k * C[r][i].  These are k
    single steps of the climb in the module docstring, since after
    j < k of them the pairing c + 2j is still negative, and the climb
    ends at star(lam) in any order.  G2's (10^5, -10^5) takes 74
    batches for 200,000 single steps."""
    system = lam.system
    fc = list(lam.fc)
    steps = system._simple_steps
    n = system.rank
    i = 0
    while i < n:
        c = fc[i]
        if c < 0:
            k = (1 - c) // 2
            fc[i] = c + 2 * k
            for r, a in steps[i]:
                fc[r] += k * a
            i = 0
        else:
            i += 1
    return Weight._trusted(system, tuple(fc))


def _layout(system: RootSystem, top, lo_fc):
    """(widths, offsets, guards, steps) of the fields that fit the
    interval from lo up by top simple roots; the steps, with
    node + step == (node | guards) - root, are kept per widths."""
    widths = tuple(
        [max(t.bit_length(), 2) for t in top]
        + [(l + 2 * t + 3).bit_length() for l, t in zip(lo_fc, top)]
    )
    kept = system._interval_steps.get(widths)
    if kept is None:
        offsets, guards, offset = [], 0, 0
        for width in widths:
            offsets.append(offset)
            guards |= 1 << (offset + width)
            offset += width + 1
        steps = tuple(
            (r.height, guards - _pack(r.rc + r.fc, offsets)) for r in system.positive_roots
        )
        kept = system._interval_steps[widths] = (offsets, guards, steps)
    return (widths, *kept)


def _pack(coords, offsets) -> int:
    return sum(c << o for c, o in zip(coords, offsets))


def _walk(top, hi_fc, offsets, guards, steps) -> list:
    """levels[h] = {node: depth} for the nodes h simple roots above lo,
    walked down from hi = lo + top."""
    levels = [{} for _ in range(sum(top) + 1)]
    levels[-1][_pack(top + hi_fc, offsets)] = 0
    for level in range(len(levels) - 1, -1, -1):
        for node, depth in levels[level].items():
            depth += 1
            for height, step in steps:
                child = node + step
                if child & guards == guards:
                    child ^= guards
                    below = levels[level - height]
                    if below.get(child, -1) < depth:
                        below[child] = depth
    return levels


def dominant_interval(system: RootSystem, lo: Weight, hi: Weight) -> dict:
    """{fc: depth} for every dominant weight delta with lo <= delta <= hi
    reached from hi by positive-root steps, where depth is the length
    of the longest such chain from hi down to delta.  Empty unless hi
    is dominant and hi - lo is a sum of positive roots."""
    system.require_same(lo.system, hi.system)
    top = system.lattice_coords([h - l for l, h in zip(lo.fc, hi.fc)])
    if top is None or any(x < 0 for x in top) or not hi.is_dominant():
        return {}
    widths, offsets, guards, steps = _layout(system, top, lo.fc)
    levels = _walk(top, hi.fc, offsets, guards, steps)
    rank = system.rank
    fc_fields = [(o, (1 << w) - 1) for o, w in zip(offsets[rank:], widths[rank:])]
    return {
        tuple((node >> o) & mask for o, mask in fc_fields): depth
        for nodes in levels
        for node, depth in nodes.items()
    }


def cht(lam: Weight) -> int:
    """Longest chain of dominant weights between star(lam) and the
    dominant conjugate lam+ of lam.  The chain lives in the interval
    [star(lam), lam+] of dominant weights, which its two ends fix, so
    the depth is kept on the system per (star(lam), lam+) and each
    interval is walked once."""
    system = lam.system
    lo = star(lam).fc
    hi = system.dominant_weight_fc(lam.fc)
    if lo == hi:
        return 0
    depth = system._cht_depths.get((lo, hi))
    if depth is not None:
        return depth
    # star(lam) is the least dominant weight above lam and hi is dominant
    # above lam, so top is a nonnegative int vector
    top = system.lattice_coords([h - l for l, h in zip(lo, hi)])
    _, offsets, guards, steps = _layout(system, top, lo)
    levels = _walk(top, hi, offsets, guards, steps)
    depth = levels[0].get(_pack((0,) * system.rank + lo, offsets))
    if depth is None:
        raise RuntimeError("dominant interval walk did not reach star(lam); bug")
    system._cht_depths[lo, hi] = depth
    return depth


def cht_is_zero_fast(lam: Weight) -> bool:
    """Direct predicate: the combinatorial height vanishes exactly when
    every coroot pairing is >= -1."""
    system = lam.system
    return all(system.pair(lam, root) >= -1 for root in system.positive_roots)
