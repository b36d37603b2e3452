"""One pass of one workload in a fresh interpreter.

Reads a job from standard input, sets up, runs the first `max_specs`
specs (all of them when it is null), and writes one JSON result to
standard output.  Started only by run.py, with
`src` on PYTHONPATH so that `lieq` is the checkout's own copy.

Between instances the worker also times a fixed reference task, so that
run.py can tell how fast the machine ran around each instance.
"""

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

REFERENCE_EVERY_S = 0.04  # instance time between two runs of the reference task


def reference_ms() -> float:
    """Time one run of a fixed task of the library's own kind: Fraction
    arithmetic and dict updates on tuple keys, from the standard library
    only, so no change to `lieq` can alter it.  The collector is off
    while it runs, so the library's heap does not enter its time."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(600):
        acc += Fraction(i % 7, i % 5 + 1)
        table[(i % 31, i % 7)] = acc
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed * 1e3


def main():
    job = json.load(sys.stdin)
    import lieq
    import workloads

    work_start = time.perf_counter()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[job["workload"]]
    specs = job["specs"]
    ctx = workload.setup(specs)
    ready = time.monotonic()

    clock = time.perf_counter
    ready_ref_ms = sorted(reference_ms() for _ in range(3))[1]
    start = clock()
    limit = job["max_specs"] if job["max_specs"] is not None else len(specs)
    # per spec: its time and "ok", "screened", "refused" or "failed"
    spec_ms = []
    status = []
    failures = []
    digest = hashlib.sha256()
    # (index of the next spec, reference time) at each run of the reference
    marks = [(0, ready_ref_ms)]
    since_mark = 0.0
    for spec in specs[:limit]:
        if since_mark >= REFERENCE_EVERY_S:
            marks.append((len(spec_ms), reference_ms()))
            since_mark = 0.0
        t0 = clock()
        try:
            out = workload.run(ctx, spec)
            state = "screened" if out is None else "ok"  # screened: no certificate
        except workloads.Refused:
            out, state = f"refused {json.dumps(spec)}", "refused"
        except Exception as exc:
            out, state = f"failed {json.dumps(spec)}", "failed"
            failures.append(f"{json.dumps(spec)}: {exc!r}\n{traceback.format_exc(limit=-3)}")
        spec_ms.append((clock() - t0) * 1e3)
        since_mark += spec_ms[-1] / 1e3
        status.append(state)
        if out is not None:
            digest.update(out.encode() + b"\n")
    marks.append((len(spec_ms), reference_ms()))
    timed_s = clock() - start
    # each spec's reference time: the mean of the two runs around it
    ref_ms = []
    for (first, before), (end, after) in zip(marks, marks[1:]):
        ref_ms += [(before + after) / 2] * (end - first)

    result = {
        "ready": ready,
        "lieq_file": lieq.__file__,
        "timed_s": timed_s,
        "setup_work_s": start - work_start,
        "spec_ms": spec_ms,
        "ref_ms": ref_ms,
        "ready_ref_ms": ready_ref_ms,
        "status": status,
        "attempted": len(status) - status.count("screened"),
        "completed": status.count("ok"),
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report() if tracer is not None else None,
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
