"""matweight benchmark: three workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One client in one process runs the workload's jobs back to back (a closed
loop); every measurement is a fresh worker process (worker.py), pinned to
one CPU, with BLAS and OpenMP pinned to one thread. The workloads and their
gates are in workloads.py:

- dimension_scalar: scalar growth-dimension sequences (apdim.a_sequence);
  graded-mesh construction dominates, no FFT, norm or MVEE work.
- matrix_weight: reducing families (MVEE and exact), the pairwise A_p
  kernel, matrix dimension estimates and the family JSON container.
- norms_fft: analysis/synthesis and function/sequence norms of seeded
  band-limited functions; FFT and LA^tau engine only, families built in
  set-up.

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_RUNS fresh processes of imports, input
               generation, filter and family construction and warm-up
  wall_ref     median over the run's batches of one batch's time (the
               workload's fixed job list) in units of a fixed reference
               kernel sampled while its jobs run (reference.py)
  wall_s       median seconds of one batch, the kernel's samples taken off
  peak_rss_mb  peak resident memory of the timed process
  job_p50_s    median seconds per job over every job of the run
  failed_frac  failed jobs over attempted jobs
Every failed job is listed by its input. The final JSON line carries
setup_s, wall_ref and peak_rss_mb. wall_s is printed but left out of it:
on a shared host the same batch takes 0.6x to 1.4x its usual time in
phases of seconds to minutes, so seconds spread between runs past any
usable bound, while wall_ref cancels such host-wide slowdowns. job_p50_s is left
out because the median of a handful of unlike jobs spreads more between
seeds than the batch time does, and failed_frac because it is 0 when the
program is correct (the line's `attempted` and `failed` carry the failures).

--trace 1 runs batch 0 twice, untraced and traced, each in its own process,
and prints the per-layer metrics of tracer.py plus trace.overhead_frac,
the traced batch time against the untraced one minus one. Spans are written
to .perfbench/trace-*.json.gz and every run's full result, with provenance,
to .perfbench/result-*.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKLOADS = ("dimension_scalar", "matrix_weight", "norms_fft")
SETUP_RUNS = 3
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
BUDGET_S = 170.0


def run_worker(args, deadline):
    env = dict(os.environ, **THREADS)
    proc = subprocess.run([sys.executable, WORKER, SRC, *map(str, args), OUT],
                          env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def src_digest():
    """Line count and SHA-256 of the package sources (the checkout may not be
    a git repository, so the digest identifies the code when the commit cannot)."""
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(data)
    return lines, digest.hexdigest()


def provenance(seed):
    lines, digest = src_digest()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "worker_cpu": max(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "threads": THREADS, "git_commit": git_commit(), "seed": seed,
            "src_lines": lines, "src_sha256": digest, "machine": platform.machine()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_percentile(times):
    """The highest percentile with at least ten samples above it."""
    if len(times) < 20:
        return "too few jobs for a tail percentile"
    q = int(100 * (1 - 10 / len(times)))
    return f"p{q} {statistics.quantiles(times, n=100)[q - 1]:.6f} s"


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_worker((workload, seed, "setup", seconds), deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = run_worker((workload, seed, "timed", seconds), deadline)
    setups.append(res["setup_s"])
    times = sorted(j[2] for j in res["jobs"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_ref": metric(statistics.median(res["refs"]), "ref"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    notes = [f"set-ups {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups),
             f"batches {len(res['walls'])}: " + " ".join(f"{w:.4f}" for w in res["walls"]),
             "batches in reference units: " + " ".join(f"{r:.2f}" for r in res["refs"]),
             f"wall_s {statistics.median(res['walls']):.6g} s",
             f"job_p50_s {statistics.median(times):.6g} s ({len(times)} jobs; "
             f"{tail_percentile(times)}, max {times[-1]:.6f} s)"]
    return metrics, res, notes


def traced(workload, seed, seconds, deadline):
    plain = run_worker((workload, seed, "once", seconds), deadline)
    res = run_worker((workload, seed, "traced", seconds), deadline)
    metrics = dict(res["layers"])
    metrics["trace.overhead_frac"] = metric(res["walls"][0] / plain["walls"][0] - 1.0, "frac")
    notes = [f"untraced batch {plain['walls'][0]:.4f} s, traced batch "
             f"{res['walls'][0]:.4f} s, spans in {os.path.relpath(res['trace_file'], ROOT)}"]
    return metrics, res, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "matweight", "__init__.py")):
        print(f"no matweight package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    prov = provenance(args.seed)
    measure = traced if args.trace else end_to_end
    metrics, res, notes = measure(args.workload, args.seed, args.seconds, deadline)
    jobs = res["jobs"]
    failed = [j for j in jobs if not j[3]]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {len(failed) / len(jobs):.6g} frac ({len(failed)} of {len(jobs)} jobs)")
    for b, label, secs, _, detail in failed:
        print(f"FAILED batch {b} job {label!r} ({secs:.3f} s): {detail}")

    summary = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
               "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"provenance": prov, "args": vars(args), **summary,
                   "jobs": jobs, "notes": notes}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
