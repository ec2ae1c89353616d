"""One benchmark process: set-up, then batches of jobs, one JSON line out.

run.py starts this file in a fresh interpreter for every measurement, so the
package's module-level caches and lazy first-call set-up never carry over
from one measurement to the next. The clock for setup_s starts before numpy
or matweight is imported.

    worker.py SRC WORKLOAD SEED PHASE SECONDS OUT_DIR

PHASE is `setup` (set up, report, exit), `timed` (batches back to back until
the next one would end after SECONDS; at least one), `once` (batch 0 only)
or `traced` (batch 0 only, with the layer tracer installed before set-up).

In the timed phase the reference kernel (reference.py) samples the host's
speed while the jobs run; its time is taken off the jobs', and each batch's
job time is also reported in units of the kernel's mean repetition sampled
during that batch (`refs`).
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def worker_cpu():
    """The CPU the worker is pinned to: the last one it may use."""
    return max(os.sched_getaffinity(0))


def main(argv):
    src, workload, seed, phase, seconds, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    # one CPU for the whole process, so the reference kernel's samples
    # measure the CPU the jobs run on (the two CPUs' speeds differ)
    os.sched_setaffinity(0, {worker_cpu()})
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import numpy as np

    import matweight
    from matweight.errors import MatweightError

    if not os.path.abspath(matweight.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported {matweight.__file__}, not the package under {src}")
    import reference
    import workloads

    tracer = None
    span = lambda name, job: contextlib.nullcontext()  # noqa: E731
    if phase == "traced":
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())
        span = tracer.span
    setup_fn, batch_fn = workloads.WORKLOADS[workload]
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    state = {"tmp": tmp}
    if setup_fn is not None:
        with span("setup", -1):
            state.update(setup_fn(seed))
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if phase != "setup":
        jobs, walls, refs = [], [], []
        ref = reference.Reference() if phase == "timed" else None
        with ref.sampling() if ref else contextlib.nullcontext():
            start = time.perf_counter()
            b = 0
            while True:
                batch = batch_fn(state, np.random.default_rng([seed, b]))
                wall = 0.0
                for label, fn in batch:
                    t_job = time.perf_counter()
                    ref_s = ref.seconds if ref else 0.0
                    try:
                        with span("job", len(jobs)):
                            detail = fn()
                        ok = True
                    except (workloads.GateError, MatweightError) as exc:
                        ok, detail = False, f"{type(exc).__name__}: {exc}"
                    secs = time.perf_counter() - t_job
                    if ref:
                        secs -= ref.seconds - ref_s  # the kernel's samples
                    jobs.append([b, label, secs, ok, detail])
                    wall += secs
                walls.append(wall)
                b += 1
                if phase != "timed":
                    break
                refs.append(wall / ref.take())
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / b > seconds:
                    break
        result.update(walls=walls, refs=refs, jobs=jobs)
        if tracer:
            result["layers"] = tracing.layer_metrics(tracer, len(jobs), walls[0])
            path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json.gz")
            with gzip.open(path, "wt") as fh:
                json.dump({"workload": workload, "seed": seed,
                           "span_fields": ["name", "start", "end", "parent", "job"],
                           "spans": [s[:5] for s in tracer.spans]}, fh)
            result["trace_file"] = path
    shutil.rmtree(tmp, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
