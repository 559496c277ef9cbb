"""The benchmark's layer tracer still finds every hook it patches.

perfbench/tracer.py replaces names such as solver.cho_solve_banded,
averaging.solve, ldp.estimate_naive and cli.rate_function, and raises for
one that moved.
Installing it here, in a fresh process so the patches stay out of the test
run, makes a moved hook fail the tests and not only the traced benchmark.
The span counts also show that a traced run does the work of an untraced
one: wrapping a built set's callbacks does not change what a march calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import burgerslab.cli as cli

spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["--config", sys.argv[2], "--out", sys.argv[3]])
metrics = tracer.summarize(spans.spans)
names = collections.Counter(span[2] for span in spans.spans)
print(json.dumps({"code": code, "metrics": metrics, "spans": names}))
"""


def _traced_run(tmp_path, config):
    """The traced CLI run of config in a fresh process: its metrics and span counts by name."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT, str(ROOT / "perfbench"),
         str(path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    return result["metrics"], result["spans"]


def test_tracer_installs_and_sees_the_reflection_layers(tmp_path):
    metrics, _ = _traced_run(tmp_path, {
        "experiment": "reflection",
        "grid": {"m": 16},
        "mesh": {"t_final": 0.1, "dt": 0.001},
        "params": {"n_list": [10, 100], "sigma_amp": 0.25},
        "seed": 1,
    })
    # the projection path is one solve of 100 steps; the penalized rows march
    # in windows, so every step of both marches calls the kernel
    assert metrics["solver.solve.calls"] == 1
    assert metrics["solver.steps"] == 100
    assert metrics["solver.kernel.calls"] == 200
    assert metrics["coefficients.callback.calls"] == 4
    assert metrics["averaging.penalization_probe_s"] > 0.0


def test_traced_averaging_does_the_untraced_work(tmp_path):
    # the tracer wraps the callbacks of both sets the family returns; the
    # averaged set's constant record was fixed when it was built, so its
    # marches (the coupled loop's and the dumped pair's) call f and sigma
    # once each and never g or dg_dz, as an untraced run does
    _, spans = _traced_run(tmp_path, {
        "experiment": "averaging",
        "grid": {"m": 16},
        "mesh": {"t_final": 0.1, "dt": 0.002},
        "coefficients": {"family": "multiscale", "beta": 0.5, "amplitude": 1.0},
        "params": {"eps_list": [0.1, 0.01], "n_paths": 2, "kappa_t_hats": [10.0, 100.0],
                   "dump_first_pair": True},
        "seed": 1,
    })
    assert (tmp_path / "out" / "averaged_path_0.bin").is_file()
    assert "coefficients.g" not in spans and "coefficients.dg_dz" not in spans
    # 50 steps: the fast marches (one batch per eps, then the dumped path)
    # call f and sigma every step, each averaged march once, and
    # estimate_kappa once per Simpson node (85 at t_hat 10, 136 at 100)
    # plus once for the averaged set
    per_callback = 3 * 50 + 2 + (85 + 136 + 1)
    assert spans["coefficients.f"] == spans["coefficients.sigma"] == per_callback


def test_traced_rare_event_sees_the_ldp_and_ratefn_layers(tmp_path):
    metrics, spans = _traced_run(tmp_path, {
        "experiment": "rare-event",
        "grid": {"m": 16},
        "mesh": {"t_final": 1.0, "dt": 0.05},
        "params": {"eps": 0.1, "eps_list": [0.1, 0.05], "delta": 10.0, "n_samples": 4,
                   "theta": 0.5, "h_star": 1.0, "blocks": 2},
        "seed": 1,
    })
    # a tube of squared radius 10 holds every path, so the probe's naive
    # count is never zero and its importance fallback is not taken
    for name in ("ldp.estimate_naive", "ldp.estimate_importance", "ratefn.rate_function",
                 "core.path_distance"):
        assert spans[name] > 0, name
    assert spans["ldp.estimate_naive"] == 2 and spans["ldp.estimate_importance"] == 1
    assert spans["core.sample_noise"] == 3 * 4
    # every callback is constant, so f is called once per march and each
    # march of 20 steps calls the kernel 20 times: 185 marches, the target
    # skeleton, the three tube loops (one chunk each) and the rate function's
    # 181 (its h = 0 start and 180 batches of gradient and line-search rows)
    assert spans["coefficients.f"] == spans["coefficients.sigma"] == 185
    assert metrics["solver.kernel.calls"] == 20 * 185
