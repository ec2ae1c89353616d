"""The benchmark's layer tracer still binds every entry point it wraps, and
every workload still runs its jobs on the package's API."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # install() looks up each traced name on the package's modules, so a
    # renamed or deleted entry point fails here rather than in a traced run
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracer; "
            "tracer.install(tracer.Tracer())")
    res = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_every_workload_runs_one_batch(tmp_path, monkeypatch):
    # a keyword a workload passes that the package no longer takes fails
    # here rather than in a bench run; a job raises GateError or a package
    # error when its result misses its gate
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for setup, batch in workloads.WORKLOADS.values():
        state = {"tmp": str(tmp_path)}
        if setup is not None:
            state.update(setup(402))
        for _, job in batch(state, np.random.default_rng([402, 0])):
            job()
