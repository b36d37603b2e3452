"""lieq benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload principal-sweep --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's `src`.  The seed fixes the workload's
instances and their order.  A pass runs all of them in a fresh
interpreter (perfbench/worker.py), so the library's process-wide caches
start empty, as they do for every `lieq` command or test run.

--trace 0 measures the end-to-end metrics: the pass is repeated, each
time in a new process, while that brings the instance time closer to
--seconds, and every spec is timed at its median pass; set-up is
measured on every pass and on extra set-up-only launches.  Times are
scaled to the reference speed (see `at_reference_speed`).  --trace 1
alternates passes with and without the per-layer tracer in the same
way, checks that all give identical outputs and counts, and reports the
per-layer metrics of the fastest traced pass.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 4         # set-up-only launches per run: at least this many,
SETUP_SECONDS = 2.0       # and more while they have taken less than this
TAIL_BEYOND = 10          # instances beyond the reported tail percentile
WORKER_TIMEOUT_S = 150.0  # a pass takes seconds; a worker this slow has hung
# worker.reference_ms on the baseline machine (2-core x86_64 VM, CPython
# 3.11.7) in a quiet minute, at the low end of its runs there
REFERENCE_MS = 1.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "completion_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run: a worker crashed or timed out."""


def worker_env() -> dict:
    # caps come from the library's defaults, never from the caller's shell
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIEQ_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(workload, specs, *, max_specs=None, trace=False) -> dict:
    """Run one worker pass and return its result with `setup_s`, the time
    from process launch to the start of the first instance."""
    job = json.dumps({
        "workload": workload, "specs": specs, "max_specs": max_specs, "trace": trace,
    })
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=worker_env(), text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err}")
    result = json.loads(out)
    result["setup_s"] = (result["ready"] - launched) * REFERENCE_MS / result["ready_ref_ms"]
    result["spec_ms"] = at_reference_speed(result["spec_ms"], result["ref_ms"])
    lieq_file = Path(result["lieq_file"]).resolve()
    if SRC.resolve() not in lieq_file.parents:
        raise BenchError(f"worker imported lieq from {lieq_file}, not {SRC}")
    return result


def at_reference_speed(spec_ms, ref_ms) -> list:
    """Spec times scaled by REFERENCE_MS / the reference task's time
    around each spec.  The host is shared, and its speed swings by up to
    a factor of two for minutes on end, longer than a run.  The reference
    task slows with the instances, so the scaled times keep a program's
    own changes and lose most of the host's."""
    return [ms * REFERENCE_MS / ref for ms, ref in zip(spec_ms, ref_ms)]


def environment(args) -> str:
    return (
        f"env: python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {os.cpu_count()}, {platform.machine()}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}"
    )


def pass_checks(workload, result) -> list:
    """Problems with one pass beyond its instances' own checks."""
    problems = [f"instance failed: {f}" for f in result["failures"]]
    if result["attempted"] != workload.pass_size:
        problems.append(
            f"a pass attempted {result['attempted']} instances, "
            f"expected {workload.pass_size}"
        )
    return problems


def measure(workload, args) -> tuple[dict, dict, list]:
    """End-to-end metrics with tracing off."""
    specs = workload.generate(args.seed)
    passes = []
    remaining = args.seconds
    # another pass while it ends nearer the target than stopping does
    while not passes or remaining > passes[-1]["timed_s"] / 2:
        passes.append(launch(workload.name, specs))
        remaining -= passes[-1]["timed_s"]
    setups = [p["setup_s"] for p in passes]
    # a quick set-up is mostly interpreter start, which varies most
    setup_only = 0
    started = time.monotonic()
    while setup_only < SETUP_REPEATS or time.monotonic() - started < SETUP_SECONDS:
        setups.append(launch(workload.name, specs, max_specs=0)["setup_s"])
        setup_only += 1

    first = passes[0]
    problems = [msg for p in passes for msg in pass_checks(workload, p)]
    if any(p["status"] != first["status"] or p["digest"] != first["digest"]
           for p in passes):
        problems.append("passes over the same instances gave different outputs")
    # A pass's work is fixed, so each spec counts at its median pass,
    # which leaves out the runs of the reference task that a momentary
    # stall made slow or fast.
    spec_ms = [statistics.median(times) for times in zip(*(p["spec_ms"] for p in passes))]
    latencies = sorted(ms for ms, state in zip(spec_ms, first["status"]) if state == "ok")
    completed = len(latencies)
    if completed <= TAIL_BEYOND:
        raise BenchError(f"only {completed} instances a pass; the tail is undefined")
    tail_index = completed - TAIL_BEYOND - 1
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": completed / (sum(spec_ms) / 1e3),
        "instance_p50_ms": statistics.median(latencies),
        "instance_tail_ms": latencies[tail_index],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "completion_ratio": completed / first["attempted"],
    }
    info = {
        "passes": len(passes),
        "timed_s": sum(p["timed_s"] for p in passes),
        "setup_samples": len(setups),
        "tail_percentile": 100.0 * (tail_index + 1) / completed,
        "tail_samples": completed,
        "attempted": sum(p["attempted"] for p in passes),
        "completed_per_pass": completed,
        "refused_per_pass": first["status"].count("refused"),
        "failed": sum(len(p["failures"]) for p in passes),
        "error_rate": f"{first['attempted'] - completed}/{first['attempted']}",
        "digest": first["digest"],
    }
    return values, info, problems


def trace(workload, args) -> tuple[dict, dict, list]:
    """Per-layer metrics from traced passes, alternated with untraced
    passes of the same instances while that brings the instance time
    nearer to --seconds."""
    specs = workload.generate(args.seed)
    traced, plain = [], []
    remaining = args.seconds
    while not traced or remaining > (traced[-1]["timed_s"] + plain[-1]["timed_s"]) / 2:
        traced.append(launch(workload.name, specs, trace=True))
        plain.append(launch(workload.name, specs))
        remaining -= traced[-1]["timed_s"] + plain[-1]["timed_s"]

    problems = [msg for p in traced + plain for msg in pass_checks(workload, p)]
    if len({p["digest"] for p in traced + plain}) != 1:
        problems.append("traced and untraced outputs differ")
    counts = [{k: v for k, v in p["trace"].items() if not k.endswith("_s")} for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes over the same instances counted differently")
    # times from the least disturbed traced pass, as for the end-to-end metrics
    best = min(traced, key=lambda p: p["timed_s"])
    values = dict(best["trace"])

    def median_sum(passes):
        return sum(statistics.median(times) for times in zip(*(p["spec_ms"] for p in passes)))

    values["trace.overhead_ratio"] = median_sum(traced) / median_sum(plain) - 1.0
    completed = best["completed"]
    per_instance = values[f"{workload.per_instance}.calls"]
    if per_instance != completed:
        problems.append(
            f"{workload.per_instance}.calls = {per_instance}, "
            f"but {completed} instances completed"
        )
    info = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "attempted": sum(p["attempted"] for p in traced + plain),
        "completed_per_pass": completed,
        "failed": sum(len(p["failures"]) for p in traced + plain),
        "traced_timed_s": best["timed_s"],
        "traced_work_s": best["setup_work_s"] + best["timed_s"],
        "digest": best["digest"],
    }
    return values, info, problems


def run_workload(workload, args):
    """Print the human-readable report of one workload and return its
    result object."""
    import tracing

    if args.trace:
        values, info, problems = trace(workload, args)
        units = tracing.metric_units()
    else:
        values, info, problems = measure(workload, args)
        units = END_TO_END_UNITS
    print(f"== {workload.name}: {environment(args)}")
    for key, value in info.items():
        print(f"   {key}: {value}")
    if args.trace:
        shares = sorted(
            ((v, k) for k, v in values.items() if k.endswith(".self_s")), reverse=True
        )
        for v, k in shares[:12]:
            print(f"   share {k}: {v / info['traced_work_s']:.3f} of traced set-up and instances")
    for name, unit in units.items():
        print(f"   {name} = {values[name]:.6g} {unit}")
    for msg in problems:
        print(f"   CHECK FAILED: {msg}")
    return {
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "lieq" / "__init__.py").is_file():
        print(f"error: no lieq package under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(workloads.WORKLOADS[name], args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
