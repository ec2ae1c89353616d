"""The benchmark's layer tracer still binds every entry point it wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # install() looks up each traced name on the package's modules, so a
    # renamed or deleted entry point fails here rather than in a traced run
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracer; "
            "tracer.install(tracer.Tracer())")
    res = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
