"""Command-line interface.

Subcommands: roots, qanalog, partition, cht, orbit, bk, verify.  Weights
are read as comma-separated fundamental coordinates (or simple-root
coordinates with --root-coords); simple-root and parabolic indices are
1-based, left to right on the Dynkin diagram.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chevalley import build_chevalley
from .config import DEFAULT_SEED, CapExceeded
from .height import cht, cht_is_zero_fast, star
from .irreps import _capped_dimension, bk_jump_polynomial, build_irrep
from .orbits import (
    Partition,
    associated_parabolic,
    good_position_representative,
    is_even_labels,
    is_even_partition,
    levi_dimension,
    partition_labels,
)
from .qanalog import lusztig_q_analog, q_partition
from .rootsystem import build_root_system, weyl_group_order
from .verify import orbit_data, orbit_labels, verify_theorem


def _parse_ints(args, name: str) -> list:
    """The comma-separated integers given to the flag --name."""
    text = getattr(args, name)
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(
            f"--{name} {text!r} is not a comma-separated list of integers"
        ) from None


def _system_from(args):
    return build_root_system(args.type, args.rank)


def _weight_from(system, args, name: str):
    coords = _parse_ints(args, name)
    return system.weight(coords, basis="root" if args.root_coords else "fundamental")


def _parabolic_from(system, args):
    nodes = _parse_ints(args, "parabolic")
    for node in nodes:
        if not 1 <= node <= system.rank:
            raise ValueError(f"parabolic node {node} is not in 1..{system.rank}")
    return system.parabolic([node - 1 for node in nodes])


def _add_system_args(parser):
    parser.add_argument("--type", required=True,
                        choices=["A", "B", "C", "D", "G2", "F4"])
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--root-coords", action="store_true",
                        help="read weights in simple-root coordinates")


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_roots(args):
    system = _system_from(args)
    roots = [
        {"rc": list(r.rc), "fc": list(r.fc), "long": r.long, "norm_sq": r.norm_sq}
        for r in system.positive_roots
    ]
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "cartan": [list(row) for row in system.cartan_matrix],
        "positive_roots": roots,
        "rho": list(system.rho.fc),
        "weyl_order": weyl_group_order(system.type_label, system.rank),
    }
    lines = [
        f"root system {system.name}",
        "cartan matrix: " + "; ".join(str(list(r)) for r in system.cartan_matrix),
        f"positive roots ({len(roots)}):",
    ]
    for r in system.positive_roots:
        kind = "long" if r.long else "short"
        lines.append(f"  {list(r.rc)}  fc={list(r.fc)}  {kind}")
    lines.append(f"rho = {list(system.rho.fc)}")
    lines.append(f"|W| = {payload['weyl_order']}")
    _emit(args, payload, lines)
    return 0


def cmd_qanalog(args):
    system = _system_from(args)
    mu = _weight_from(system, args, "mu")
    lam = _weight_from(system, args, "lambda")
    parabolic = _parabolic_from(system, args)
    poly = lusztig_q_analog(mu, lam, parabolic)
    payload = {
        "mu": list(mu.fc),
        "lambda": list(lam.fc),
        "parabolic": [i + 1 for i in parabolic.key],
        "m": poly.to_json(),
    }
    _emit(args, payload, [str(poly)])
    return 0


def cmd_partition(args):
    system = _system_from(args)
    gamma = _weight_from(system, args, "gamma")
    parabolic = _parabolic_from(system, args)
    poly = q_partition(gamma, parabolic)
    payload = {
        "gamma": list(gamma.fc),
        "parabolic": [i + 1 for i in parabolic.key],
        "p": poly.to_json(),
    }
    _emit(args, payload, [str(poly)])
    return 0


def cmd_cht(args):
    system = _system_from(args)
    lam = _weight_from(system, args, "weight")
    plus = system.weight(system.dominant_weight_fc(lam.fc))
    low = star(lam)
    value = cht(lam)
    fast = cht_is_zero_fast(lam)
    payload = {
        "weight": list(lam.fc),
        "dominant_conjugate": list(plus.fc),
        "star": list(low.fc),
        "cht": value,
        "cht_zero_fast": fast,
    }
    lines = [
        f"weight     = {list(lam.fc)}",
        f"conjugate+ = {list(plus.fc)}",
        f"star       = {list(low.fc)}",
        f"cht        = {value}",
        f"fast cht=0 = {fast}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_orbit(args):
    system = _system_from(args)
    algebra = build_chevalley(system)
    if args.partition:
        partition = Partition(tuple(_parse_ints(args, "partition")))
        labels = partition_labels(system, partition)
        name = "[%s]" % ",".join(str(p) for p in partition)
        even = is_even_partition(partition)
        rep = good_position_representative(algebra, labels, args.seed) if even else None
    elif args.orbit:
        name, labels, rep = orbit_data(system, args.orbit, args.seed)
        even = is_even_labels(labels)
    else:
        print("orbit: need --partition or --orbit", file=sys.stderr)
        return 2
    parabolic = associated_parabolic(system, labels)
    payload = {
        "orbit": name,
        "labels": list(labels),
        "parabolic": [i + 1 for i in parabolic.key],
        "even": even,
    }
    lines = [
        f"orbit      = {name}",
        f"labels     = {list(labels)}",
        f"parabolic  = {[i + 1 for i in parabolic.key]}",
        f"even       = {even}",
    ]
    if even:
        support = sorted(
            algebra.index_data(i)[2].rc for i in rep.coeffs
        )
        centralizer = algebra.centralizer_dimension(rep)
        payload.update(
            {
                "representative_support": [list(rc) for rc in support],
                "centralizer_dimension": centralizer,
                "levi_dimension": levi_dimension(system, parabolic),
            }
        )
        lines += [
            f"rep support= {[list(rc) for rc in support]}",
            f"dim g^X    = {centralizer} (levi {levi_dimension(system, parabolic)})",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_bk(args):
    system = _system_from(args)
    mu = _weight_from(system, args, "mu")
    lam = _weight_from(system, args, "lambda")
    if args.principal:
        spec = "principal"
    elif args.partition:
        spec = Partition(tuple(_parse_ints(args, "partition")))
    elif args.orbit:
        spec = args.orbit
    else:
        print("bk: need --partition, --orbit, or --principal", file=sys.stderr)
        return 2
    name, labels, rep = orbit_data(system, spec, args.seed)
    parabolic = associated_parabolic(system, labels)
    module = build_irrep(system, mu)
    report = bk_jump_polynomial(module, rep, lam, parabolic)
    payload = {
        "orbit": name,
        "mu": list(mu.fc),
        "lambda": list(lam.fc),
        "parabolic": [i + 1 for i in parabolic.key],
        "module_dimension": module.dim,
        "dims": report.subspace_dims,
        "r": report.jump_polynomial.to_json(),
    }
    lines = [
        f"orbit     = {name}  parabolic = {[i + 1 for i in parabolic.key]}",
        f"module    = V{tuple(mu.fc)}, dimension {module.dim}",
        f"filtration dims = {report.subspace_dims}",
        f"r = {report.jump_polynomial}",
    ]
    _emit(args, payload, lines)
    return 0


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


# what each verify entry value must be, and the check for it
_ENTRY_VALUES = {
    "type": ("a string", lambda v: isinstance(v, str)),
    "rank": ("an integer", lambda v: type(v) is int),
    "mu": ("a list of integers", _is_int_list),
    "lambda": ("a list of integers", _is_int_list),
    "partition": ("a list of integers", _is_int_list),
    "orbit": ("a string", lambda v: isinstance(v, str)),
}


def _entry_orbit(inst):
    """The orbit specification of a verify entry; a partition wins over
    an orbit name."""
    if "partition" in inst:
        return Partition(tuple(inst["partition"]))
    return inst["orbit"]


def _check_verify_entry(k: int, inst) -> None:
    if not isinstance(inst, dict):
        raise ValueError(f"verify entry {k}: must be a JSON object")
    for key in ("type", "rank", "mu", "lambda"):
        if key not in inst:
            raise ValueError(f"verify entry {k}: missing key {key!r}")
    if "partition" not in inst and "orbit" not in inst:
        raise ValueError(f"verify entry {k}: needs 'partition' or 'orbit'")
    for key, (kind, ok) in _ENTRY_VALUES.items():
        if key in inst and not ok(inst[key]):
            raise ValueError(f"verify entry {k}: {key!r} must be {kind}")
    try:
        system = build_root_system(inst["type"], inst["rank"])
        orbit_labels(system, _entry_orbit(inst))
        for key in ("mu", "lambda"):
            if len(inst[key]) != system.rank:
                raise ValueError(
                    f"{key!r} has length {len(inst[key])}, not rank {system.rank}"
                )
        _capped_dimension(system, system.weight(inst["mu"]))
        system.weyl_order()
    except (ValueError, CapExceeded) as exc:
        raise ValueError(f"verify entry {k}: {exc}") from None


def cmd_verify(args):
    with open(args.config) as handle:
        instances = json.load(handle)
    if not isinstance(instances, list):
        print("verify: config must be a JSON array", file=sys.stderr)
        return 2
    for k, inst in enumerate(instances):
        _check_verify_entry(k, inst)
    reports = []  # (system name, report)
    failed = False
    for inst in instances:
        system = build_root_system(inst["type"], inst["rank"])
        mu = system.weight(inst["mu"])
        lam = system.weight(inst["lambda"])
        report = verify_theorem(system, mu, lam, _entry_orbit(inst), seed=args.seed)
        reports.append((system.name, report))
        if report.certificate.certified and not report.equal:
            failed = True
    if args.json:
        print(json.dumps([r.to_json() for _, r in reports], indent=2, sort_keys=True))
    else:
        for name, r in reports:
            status = "OK " if r.equal else ("?? " if not r.certificate.certified else "FAIL")
            print(
                f"{status} {name} orbit={r.orbit} "
                f"mu={list(r.mu)} lambda={list(r.lam)} "
                f"cert={r.certificate.verdict} r={r.r} m={r.m}"
            )
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieq",
        description="exact q-analogs of weight multiplicity and nilpotent "
        "jump polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="print root system data")
    _add_system_args(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("qanalog", help="q-analog of weight multiplicity")
    _add_system_args(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", required=True)
    p.add_argument("--parabolic", default="")
    p.set_defaults(func=cmd_qanalog)

    p = sub.add_parser("partition", help="graded partition count of a weight")
    _add_system_args(p)
    p.add_argument("--gamma", required=True)
    p.add_argument("--parabolic", default="")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("cht", help="combinatorial height of a weight")
    _add_system_args(p)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_cht)

    p = sub.add_parser("orbit", help="nilpotent orbit data")
    _add_system_args(p)
    p.add_argument("--partition", default="")
    p.add_argument("--orbit", default="")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("bk", help="jump polynomial of the kernel filtration")
    _add_system_args(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", required=True)
    p.add_argument("--partition", default="")
    p.add_argument("--orbit", default="")
    p.add_argument("--principal", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_bk)

    p = sub.add_parser("verify", help="check r = m on configured instances")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
