"""The benchmark's layer tracer still finds every hook it patches.

perfbench/tracer.py replaces names such as solver.cho_solve_banded,
averaging.solve and averaging.path_distance, and raises for one that moved.
Installing it here, in a fresh process so the patches stay out of the test
run, makes a moved hook fail the tests and not only the traced benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import burgerslab.cli as cli

spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["--config", sys.argv[2], "--out", sys.argv[3]])
metrics = tracer.summarize(spans.spans)
print(json.dumps({"code": code, "metrics": metrics}))
"""


def test_tracer_installs_and_sees_the_reflection_layers(tmp_path):
    config = tmp_path / "reflection.json"
    config.write_text(json.dumps({
        "experiment": "reflection",
        "grid": {"m": 16},
        "mesh": {"t_final": 0.1, "dt": 0.001},
        "params": {"n_list": [10, 100], "sigma_amp": 0.25},
        "seed": 1,
    }))
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT, str(ROOT / "perfbench"),
         str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    # the projection path is one solve of 100 steps; the penalized rows march
    # in windows, so every step of both marches calls the kernel
    assert metrics["solver.solve.calls"] == 1
    assert metrics["solver.steps"] == 100
    assert metrics["solver.kernel.calls"] == 200
    assert metrics["coefficients.callback.calls"] == 4
    assert metrics["averaging.penalization_probe_s"] > 0.0
