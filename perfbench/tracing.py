"""Per-layer tracing from outside the library.

`Tracer.install` replaces each traced function with a wrapper at every
place it can be looked up: the defining module, every `lieq` module that
bound it with `from .x import y`, and the `lieq` package namespace.
Methods are wrapped on their classes.  A span stack gives self time
(a span's duration minus the time of its direct child spans); total time
counts only the outermost span of a recursive function.  Spans are
folded into per-function totals in memory and reported when the worker
ends.  Counters are computed from arguments and results, never from the
library's private caches.
"""

from __future__ import annotations

import sys
import time

# layer (module of lieq) -> traced functions; "Class.method" wraps a method
LAYERS = {
    "rootsystem": [
        "build_root_system", "RootSystem.root_coords", "RootSystem.weyl_group",
        "RootSystem.shifted_action", "RootSystem.dominant_weight_fc", "RootSystem.inner",
    ],
    "chevalley": [
        "build_chevalley", "ChevalleyAlgebra.bracket", "ChevalleyAlgebra.ad_columns",
        "ChevalleyAlgebra.centralizer_dimension",
    ],
    "orbits": ["good_position_representative"],
    "qanalog": [
        "lusztig_q_analog", "q_partition", "freudenthal_multiplicity",
        "dominant_multiplicities", "weyl_dimension",
    ],
    "irreps": [
        "build_irrep", "bk_jump_polynomial", "ExplicitModule.l_highest_space",
        "ExplicitModule.apply_element", "ExplicitModule.apply_cols",
    ],
    "linalg": ["rank_of_sparse", "sparse_nullspace"],
    "height": ["cht", "star", "dominant_interval", "cht_is_zero_fast"],
    "verify": ["verify_theorem", "vanishing_certificate", "orbit_data"],
}

COUNTERS = {
    "qanalog.weyl_terms": "count",
    "qanalog.q_partition.hit_ratio": "ratio",
    "qanalog.q_partition.dp_cells": "count",
    "irreps.build_irrep.hit_ratio": "ratio",
    "irreps.build_irrep.dims_built": "count",
    "irreps.lhi_dim_sum": "count",
    "height.dominant_interval.nodes": "count",
    "trace.overhead_ratio": "ratio",
}


def span_names() -> list:
    """`<module>.<function>` for every traced function, in layer order."""
    return [f"{layer}.{qual.split('.')[-1]}" for layer, quals in LAYERS.items()
            for qual in quals]


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in span_names()}  # calls, self, total
        self.stack = [[0.0]]          # child time of each open span; [0] is the root
        self.depth = {}               # open spans per name, for recursion
        self.counts = dict.fromkeys(
            ["weyl_terms", "qp_hits", "qp_misses", "dp_cells", "irrep_hits",
             "irrep_misses", "dims_built", "lhi_dim_sum", "interval_nodes"], 0)
        self._qp_seen = {}            # q_partition key -> inside the cone
        self._irreps_seen = set()

    # -- installation ------------------------------------------------------

    def install(self):
        import lieq
        import lieq.rootsystem

        self._root_coords = lieq.rootsystem.RootSystem.root_coords
        self._weyl_order = lieq.rootsystem.weyl_group_order
        hooks = {
            "qanalog.lusztig_q_analog": self._on_q_analog,
            "qanalog.q_partition": self._on_q_partition,
            "irreps.build_irrep": self._on_build_irrep,
            "irreps.l_highest_space": self._on_lhi,
            "height.dominant_interval": self._on_interval,
        }
        sites = [m for n, m in sys.modules.items() if n == "lieq" or n.startswith("lieq.")]
        for layer, quals in LAYERS.items():
            module = sys.modules[f"lieq.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, vars(cls)[meth], hooks.get(name)))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original, hooks.get(name))
                bound = 0
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"no lookup site for {name}")

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self.stack
        depth = self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] = level
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if not level:
                    stats[2] += elapsed
                stack[-1][0] += elapsed
            if hook is not None:
                # counter work is charged to no span
                hook_start = clock()
                hook(args, result)
                stack[-1][0] += clock() - hook_start
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _on_q_analog(self, args, result):
        system = args[0].system
        self.counts["weyl_terms"] += self._weyl_order(system.type_label, system.rank)

    def _on_q_partition(self, args, result):
        gamma = args[0]
        parabolic = args[1] if len(args) > 1 else None
        key = (gamma.system.key, parabolic.key if parabolic is not None else None, gamma.fc)
        inside = self._qp_seen.get(key)
        if inside is not None:
            # outside the cone the answer is 0 without the DP or the cache
            self.counts["qp_hits"] += inside
            return
        rc = self._root_coords(gamma.system, gamma.fc)
        inside = self._qp_seen[key] = all(x.denominator == 1 and x >= 0 for x in rc)
        if not inside:
            return
        self.counts["qp_misses"] += 1
        cells = 1
        for x in rc:
            cells *= int(x) + 1
        self.counts["dp_cells"] += cells

    def _on_build_irrep(self, args, result):
        key = (args[0].key, args[1].fc)
        if key in self._irreps_seen:
            self.counts["irrep_hits"] += 1
        else:
            self._irreps_seen.add(key)
            self.counts["irrep_misses"] += 1
            self.counts["dims_built"] += result.dim

    def _on_lhi(self, args, result):
        self.counts["lhi_dim_sum"] += len(result)

    def _on_interval(self, args, result):
        self.counts["interval_nodes"] += len(result)

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        out = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        c = self.counts

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        out["qanalog.weyl_terms"] = c["weyl_terms"]
        out["qanalog.q_partition.hit_ratio"] = ratio(c["qp_hits"], c["qp_misses"])
        out["qanalog.q_partition.dp_cells"] = c["dp_cells"]
        out["irreps.build_irrep.hit_ratio"] = ratio(c["irrep_hits"], c["irrep_misses"])
        out["irreps.build_irrep.dims_built"] = c["dims_built"]
        out["irreps.lhi_dim_sum"] = c["lhi_dim_sum"]
        out["height.dominant_interval.nodes"] = c["interval_nodes"]
        return out
