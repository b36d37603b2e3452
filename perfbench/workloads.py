"""The four benchmark workloads.

Each workload has two halves.  `generate` runs in the benchmark's parent
process and turns a seed into a list of plain JSON instance specs; it
may use the library's public root-system API, since nothing it builds
reaches the measured process.  `setup` and `run` execute in a fresh
worker interpreter: `setup` builds what every instance needs, `run`
computes one instance through the public `lieq` API and checks its
outputs.  Calls go through the `lieq` package namespace so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import random

import lieq


class CheckFailed(Exception):
    """An output check of one instance did not hold."""


class Refused(Exception):
    """The library declined an input it documents as out of scope."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def canonical(spec, *outputs) -> str:
    """One digest line: the instance spec and its outputs."""
    return json.dumps([spec, *outputs], separators=(",", ":"), sort_keys=True)


# -- input generation (parent process) ---------------------------------


def dominant_weights_with_dim_bound(system, bound, root_lattice_only=False):
    """All dominant weights with Weyl dimension at most the bound.
    Dimension is monotone in each fundamental coordinate, so a prefix
    stops growing once the dimension passes the bound."""
    out = []

    def rec(prefix):
        if len(prefix) == system.rank:
            mu = system.weight(prefix)
            if lieq.weyl_dimension(mu) > bound:
                return False
            if not root_lattice_only or mu.in_root_lattice():
                out.append(prefix)
            return True
        c = 0
        grew = False
        while rec(prefix + (c,)):
            grew = True
            c += 1
        return grew

    rec(())
    return out


def dominant_below(system, mu_fc) -> dict:
    """{dominant lam: height of mu - lam} over the dominant weights of
    V(mu).  Every dominant weight below mu in the same root-lattice coset
    is a weight of V(mu), and covers between dominant weights are
    positive roots, so a walk down by positive roots finds them all."""
    roots = [(r.fc, r.height) for r in system.positive_roots]
    seen = {tuple(mu_fc): 0}
    frontier = [tuple(mu_fc)]
    while frontier:
        nxt = []
        for fc in frontier:
            for root_fc, height in roots:
                cand = tuple(a - b for a, b in zip(fc, root_fc))
                if cand in seen or min(cand) < 0:
                    continue
                seen[cand] = seen[fc] + height
                nxt.append(cand)
        frontier = nxt
    return seen


def weyl_orbit(system, fc) -> set:
    """The Weyl orbit of a weight, by simple reflections on fundamental
    coordinates: s_i(lam) = lam - lam_i * alpha_i."""
    n = system.rank
    cols = [[system.cartan_matrix[r][i] for r in range(n)] for i in range(n)]
    seen = {tuple(fc)}
    frontier = [tuple(fc)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(n):
                if w[i]:
                    img = tuple(x - w[i] * c for x, c in zip(w, cols[i]))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return seen


def shuffled(specs, seed, tag):
    rng = random.Random(f"{tag}:{seed}")
    specs = list(specs)
    rng.shuffle(specs)
    return specs


def by_module(groups, seed, tag):
    """Flatten {(dim V(mu), module): [specs]} with modules in ascending
    dimension, and equal dimensions and each module's instances in seeded
    order.  Modules are built from smaller ones (outside type A sometimes
    from the adjoint module), so the first instance of a module mostly
    pays for that module alone, whatever the seed."""
    rng = random.Random(f"{tag}:{seed}")
    keys = list(groups)
    rng.shuffle(keys)
    keys.sort(key=lambda key: key[0])
    out = []
    for key in keys:
        out.extend(shuffled(groups[key], seed, f"{tag}:{key}"))
    return out


# -- worker-side helpers -------------------------------------------------


class Context:
    """What the instances of one worker share: built systems and the
    highest weights whose module has already been checked."""

    def __init__(self):
        self.systems = {}
        self.checked_modules = set()

    def check_module(self, system, mu, module):
        key = (system.key, mu.fc)
        if key in self.checked_modules:
            return
        check(
            module.dim == lieq.weyl_dimension(mu),
            f"dim V{mu.fc} = {module.dim} != Weyl dimension",
        )
        self.checked_modules.add(key)


def principal_setup(keys):
    ctx = Context()
    for label, rank in keys:
        system = lieq.build_root_system(label, rank)
        algebra = lieq.build_chevalley(system)
        ctx.systems[(label, rank)] = (
            system,
            lieq.principal_nilpotent(algebra),
            system.borel(),
        )
    return ctx


def filtration_against_q_analog(module, e, borel, mu, lam):
    """Principal filtration r and Borel q-analog m at lam, compared, with
    m(1) checked against the dimension of the lam weight space."""
    r = lieq.bk_jump_polynomial(module, e, lam, borel).jump_polynomial
    m = lieq.lusztig_q_analog(mu, lam, borel)
    check(r == m, f"r = {r} != m = {m} at mu={mu.fc} lam={lam.fc}")
    dim = len(module.weight_space(lam))
    check(m.evaluate(1) == dim, f"m(1) = {m.evaluate(1)} != dim V_lam = {dim}")
    return r, m


# -- workloads --------------------------------------------------------------


class PrincipalSweep:
    """Principal nilpotent, Borel parabolic, every dominant lam of every
    V(mu) with dim <= dim_bound (root lattice only for B2 and G2)."""

    name = "principal-sweep"
    why = (
        "many queries per module: the filtration and the Freudenthal table "
        "dominate, Weyl sums are small (|W| <= 24)"
    )
    sweep = [("A", 1, False), ("A", 2, False), ("A", 3, False),
             ("B", 2, True), ("G2", 2, True)]
    # the acceptance sweep uses 200 (11,710 instances, about 30 s); 60
    # keeps the mix and lets one run hold several whole passes
    dim_bound = 60
    pass_size = 1228
    # the function the library calls exactly once per completed instance
    per_instance = "qanalog.freudenthal_multiplicity"

    def generate(self, seed):
        groups = {}
        for label, rank, lattice_only in self.sweep:
            system = lieq.build_root_system(label, rank)
            for mu in dominant_weights_with_dim_bound(system, self.dim_bound, lattice_only):
                dim = lieq.weyl_dimension(system.weight(mu))
                groups[(dim, label, rank, mu)] = [
                    [label, rank, list(mu), list(lam)]
                    for lam in sorted(dominant_below(system, mu))
                ]
        return by_module(groups, seed, self.name)

    def setup(self, specs):
        return principal_setup([(label, rank) for label, rank, _ in self.sweep])

    def run(self, ctx, spec):
        label, rank, mu_fc, lam_fc = spec
        system, e, borel = ctx.systems[(label, rank)]
        mu, lam = system.weight(mu_fc), system.weight(lam_fc)
        module = lieq.build_irrep(system, mu)
        ctx.check_module(system, mu, module)
        r, m = filtration_against_q_analog(module, e, borel, mu, lam)
        f = lieq.freudenthal_multiplicity(mu, lam)
        check(m.evaluate(1) == f, f"m(1) = {m.evaluate(1)} != Freudenthal {f}")
        return canonical(spec, r.to_json(), m.to_json())


class ParabolicVerify:
    """Every even partition of 3, 4, 5 in type A, every V(mu) with
    dim <= dim_bound, every P-dominant weight of V(mu); the certificate is
    screened inside the timed phase and certified candidates are
    verified."""

    name = "parabolic-verify"
    why = (
        "Weyl sums over |W| = 120 with parabolic q_partition, Levi-highest "
        "nullspaces and the per-call orbit representative; no Freudenthal"
    )
    # the acceptance sweep uses 200 (5,152 instances, about 25 s)
    dim_bound = 40
    pass_size = 623
    per_instance = "verify.verify_theorem"

    def generate(self, seed):
        groups = {}
        for n in (3, 4, 5):
            system = lieq.build_root_system("A", n - 1)
            mus = dominant_weights_with_dim_bound(system, self.dim_bound)
            weights = {}
            for mu in mus:
                orbit_union = set()
                for lam in dominant_below(system, mu):
                    orbit_union |= weyl_orbit(system, lam)
                weights[mu] = sorted(orbit_union)
            for partition in lieq.partitions_of(n):
                if not lieq.is_even_partition(partition):
                    continue
                labels = lieq.weighted_dynkin(partition)
                levi = [i for i, v in enumerate(labels) if v == 0]
                for mu in mus:
                    dim = lieq.weyl_dimension(system.weight(mu))
                    group = groups.setdefault((dim, n - 1, mu), [])
                    for lam in weights[mu]:
                        if all(lam[i] >= 0 for i in levi):
                            group.append([n - 1, list(partition.parts), list(mu), list(lam)])
        return by_module(groups, seed, self.name)

    def setup(self, specs):
        ctx = Context()
        for rank in (2, 3, 4):
            system = lieq.build_root_system("A", rank)
            lieq.build_chevalley(system)
            ctx.systems[rank] = system
        ctx.parabolics = {}
        for rank, parts, _mu, _lam in specs:
            key = (rank, tuple(parts))
            if key not in ctx.parabolics:
                partition = lieq.Partition(tuple(parts))
                labels = lieq.weighted_dynkin(partition)
                ctx.parabolics[key] = (
                    partition,
                    lieq.associated_parabolic(ctx.systems[rank], labels),
                )
        return ctx

    def run(self, ctx, spec):
        rank, parts, mu_fc, lam_fc = spec
        system = ctx.systems[rank]
        partition, parabolic = ctx.parabolics[(rank, tuple(parts))]
        mu, lam = system.weight(mu_fc), system.weight(lam_fc)
        cert = lieq.vanishing_certificate(lam, parabolic, system)
        if not cert.certified:
            return None
        report = lieq.verify_theorem(system, mu, lam, partition)
        check(report.equal, f"r = {report.r} != m = {report.m} for {spec}")
        check(report.m.is_nonnegative(), f"negative m = {report.m} for {spec}")
        ctx.check_module(system, mu, lieq.build_irrep(system, mu))
        return canonical(spec, cert.verdict, report.r.to_json(), report.m.to_json())


class HeightSuite:
    """Seeded weights in a box [-b, b]^rank per type, with every
    combinatorial-height rule checked per weight."""

    name = "height-suite"
    why = (
        "no module and no q-analog: isolates dominant_interval and weight "
        "arithmetic, where module or q-analog changes must not show"
    )
    # F4 uses [-2, 2]: in [-4, 4] one weight can cost 20x the mean, and the
    # 120 F4 weights a run holds spread throughput by a quarter across seeds
    boxes = {("A", 3): 4, ("B", 3): 4, ("C", 3): 4, ("G2", 2): 4, ("F4", 4): 2}
    per_type = 120
    # the top strata hold the costliest weights, which set instance_tail_ms;
    # a seeded draw there moved the tail by 15% between sets of ten seeds
    fixed_top = 12
    pass_size = 600
    per_instance = "height.cht_is_zero_fast"

    def generate(self, seed):
        """One weight from each of per_type equal strata of the box sorted
        by |lam+|^2 - |star(lam)|^2, a bound on cht that grows with the
        interval cht searches, so every seed draws the same spread of
        costs.  The seed draws the weight of each stratum, except in the
        top fixed_top strata, which give their middle weight."""
        specs = []
        for (label, rank), b in self.boxes.items():
            system = lieq.build_root_system(label, rank)

            def gap(fc):
                plus = system.weight(system.dominant_weight_fc(fc))
                return system.norm_sq(plus) - system.norm_sq(lieq.star(system.weight(fc)))

            box = itertools.product(range(-b, b + 1), repeat=rank)
            ordered = sorted(box, key=lambda fc: (gap(fc), fc))
            rng = random.Random(f"{self.name}:{seed}:{label}{rank}")
            n = len(ordered)
            for s in range(self.per_type):
                lo = s * n // self.per_type
                hi = max(lo + 1, (s + 1) * n // self.per_type)
                if s < self.per_type - self.fixed_top:
                    pick = rng.randrange(lo, hi)
                else:
                    pick = (lo + hi - 1) // 2
                specs.append([label, rank, list(ordered[pick])])
        return shuffled(specs, seed, self.name)

    def setup(self, specs):
        ctx = Context()
        for key in self.boxes:
            ctx.systems[key] = lieq.build_root_system(*key)
        return ctx

    def run(self, ctx, spec):
        label, rank, fc = spec
        system = ctx.systems[(label, rank)]
        lam = system.weight(fc)
        dominant = lambda w: system.weight(system.dominant_weight_fc(w.fc))
        plus = dominant(lam)
        low = lieq.star(lam)
        value = lieq.cht(lam)
        for root in system.positive_roots:
            moved_plus = dominant(lam + system.weight(root.fc))
            pairing = system.pair(lam, root)
            if pairing >= 0:
                ok = system.dominance_leq(plus, moved_plus) and plus != moved_plus
            elif pairing == -1:
                ok = plus == moved_plus
            else:
                ok = system.dominance_leq(moved_plus, plus) and plus != moved_plus
            check(ok, f"conjugate rule fails for {fc} + {root.rc}")
        for root in system.positive_roots:
            if root.height != 1:
                continue
            pairing = system.pair(lam, root)
            moved = lam + system.weight(root.fc)
            if pairing < 0:
                check(lieq.star(moved) == low, f"star rule fails for {fc} + {root.rc}")
            if pairing == -1:
                check(lieq.cht(moved) == value, f"cht equal fails for {fc} + {root.rc}")
            if pairing <= -2:
                check(lieq.cht(moved) < value, f"cht drop fails for {fc} + {root.rc}")
        for i in range(rank):
            s = system.simple_reflection(i)
            if fc[i] <= 0:
                check(value >= lieq.cht(s.apply(lam)), f"reflection rule fails for {fc}, s{i+1}")
            if fc[i] <= -2:
                shifted = system.shifted_action(s, lam)
                check(value > lieq.cht(shifted), f"shifted reflection fails for {fc}, s{i+1}")
        check((value == 0) == lieq.cht_is_zero_fast(lam), f"fast predicate fails for {fc}")
        check(
            value <= system.norm_sq(lam) - system.norm_sq(low),
            f"norm bound fails for {fc}",
        )
        return canonical(spec, value, list(low.fc), list(plus.fc))


class ModuleBuild:
    """Every dominant mu with dim <= dim_bound in A4, B3, C3, D4, G2, F4: build
    the module, then compare the principal filtration with the Borel
    q-analog at the lowest dominant weight of V(mu)."""

    name = "module-build"
    why = (
        "one query per module, so construction is most of the work; shows "
        "work moved into build or set-up, and the modules refused today"
    )
    types = [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]
    # 500 gives 153 modules and about 11 s a pass; 200 keeps every kind
    # of refusal (off the root lattice in B3, C3, D4; CapExceeded in F4)
    dim_bound = 200
    pass_size = 93
    per_instance = "irreps.bk_jump_polynomial"

    def generate(self, seed):
        groups = {}
        for label, rank in self.types:
            system = lieq.build_root_system(label, rank)
            for mu in dominant_weights_with_dim_bound(system, self.dim_bound):
                below = dominant_below(system, mu)
                lowest = max(below, key=lambda lam: (below[lam], lam))
                dim = lieq.weyl_dimension(system.weight(mu))
                groups[(dim, label, rank, mu)] = [[label, rank, list(mu), list(lowest)]]
        return by_module(groups, seed, self.name)

    def setup(self, specs):
        return principal_setup(self.types)

    def run(self, ctx, spec):
        label, rank, mu_fc, lam_fc = spec
        system, e, borel = ctx.systems[(label, rank)]
        mu, lam = system.weight(mu_fc), system.weight(lam_fc)
        try:
            module = lieq.build_irrep(system, mu)
        except lieq.CapExceeded as exc:
            raise Refused(f"V{mu_fc} in {label}{rank}: {exc}") from None
        except ValueError as exc:
            # documented gap: outside type A only the root lattice is
            # reachable; any other ValueError is a failure
            if label == "A" or mu.in_root_lattice():
                raise
            raise Refused(f"V{mu_fc} in {label}{rank}: {exc}") from None
        ctx.check_module(system, mu, module)
        r, m = filtration_against_q_analog(module, e, borel, mu, lam)
        return canonical(spec, module.dim, r.to_json(), m.to_json())


WORKLOADS = {
    w.name: w for w in (PrincipalSweep(), ParabolicVerify(), HeightSuite(), ModuleBuild())
}
