"""Combinatorial height of a weight.

star(lam) is the least dominant weight above lam in dominance order;
cht(lam) is the length of the longest chain of dominant weights from
star(lam) up to the dominant Weyl conjugate of lam.  Chains are walked
along positive-root steps, which is enough because covers between
dominant weights are positive-root differences.
"""

from __future__ import annotations

from .rootsystem import RootSystem, Weight


def star(lam: Weight) -> Weight:
    """Least dominant weight >= lam: while some coordinate is negative,
    add the least-index simple root with negative pairing."""
    system = lam.system
    fc = list(lam.fc)
    while True:
        for i in range(system.rank):
            if fc[i] < 0:
                col = system._cartan_cols[i]
                fc = [x + col[r] for r, x in enumerate(fc)]
                break
        else:
            return Weight(system, fc)


def dominant_interval(system: RootSystem, lo: Weight, hi: Weight) -> list:
    """All dominant weights delta with lo <= delta <= hi, found by
    walking positive-root steps down from hi."""
    start = system.lattice_coords([h - l for l, h in zip(lo.fc, hi.fc)])
    if start is None or any(x < 0 for x in start):
        return []
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
    return [(rc, fc) for rc, fc in seen.items()]


def cht(lam: Weight) -> int:
    """Longest chain of dominant weights between star(lam) and the
    dominant conjugate of lam."""
    system = lam.system
    lo = star(lam)
    hi = system.weight(system.dominant_weight_fc(lam.fc))
    if lo.fc == hi.fc:
        return 0
    nodes = dominant_interval(system, lo, hi)
    by_rc = {rc: None for rc, _ in nodes}
    root_rcs = [r.rc for r in system.positive_roots]
    longest = {tuple(0 for _ in range(system.rank)): 0}
    for rc, _fc in sorted(nodes, key=lambda item: (sum(item[0]), item[0])):
        if sum(rc) == 0:
            continue
        best = None
        for root_rc in root_rcs:
            prev = tuple(a - b for a, b in zip(rc, root_rc))
            if prev in longest:
                cand = longest[prev] + 1
                if best is None or cand > best:
                    best = cand
        if best is not None:
            longest[rc] = best
    top = system.lattice_coords([h - l for l, h in zip(lo.fc, hi.fc)])
    if top not in longest:
        raise RuntimeError("dominant interval was not chain-connected; bug")
    return longest[top]


def cht_is_zero_fast(lam: Weight) -> bool:
    """Direct predicate: the combinatorial height vanishes exactly when
    every coroot pairing is >= -1."""
    system = lam.system
    return all(system.pair(lam, root) >= -1 for root in system.positive_roots)
