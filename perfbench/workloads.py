"""The benchmark's workloads: one generated CLI config each, plus output checks.

Each config is a shipped config from `configs/`, copied here so the benchmark
does not move when those files change, and scaled as noted.  The benchmark
seed is written into the config's `seed`; nothing else depends on it.

A check reads the run's own CSVs and returns a list of failure messages,
empty when the run's outputs hold the invariants the acceptance suite pins.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path


def _rows(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _decreasing(values: list[float], strict: bool) -> bool:
    pairs = list(zip(values, values[1:]))
    return all(b < a for a, b in pairs) if strict else all(b <= a for a, b in pairs)


def check_rare_event(out: Path) -> list[str]:
    bad = []
    for row in _rows(out, "rare_event.csv"):
        p, se = float(row["p_hat"]), float(row["std_err"])
        if not 0.0 <= p <= 1.0:
            bad.append(f"rare_event.csv {row['method']}: p_hat {p} outside [0, 1]")
        if not se >= 0.0:
            bad.append(f"rare_event.csv {row['method']}: std_err {se} < 0")
    fw = _rows(out, "fw_bound.csv")
    if not fw:
        bad.append("fw_bound.csv is empty")
    bad += [f"fw_bound.csv eps={r['eps']}: satisfied=false" for r in fw
            if r["satisfied"] == "false"]
    return bad


def check_averaging(out: Path) -> list[str]:
    bad = []
    rows = sorted(_rows(out, "averaging.csv"), key=lambda r: -float(r["eps"]))
    dist = [float(r["mean_sq_dist"]) for r in rows]
    if not all(math.isfinite(d) and d >= 0.0 for d in dist):
        bad.append(f"averaging.csv: mean_sq_dist not finite and >= 0: {dist}")
    if not _decreasing(dist, strict=False):
        bad.append(f"averaging.csv: mean_sq_dist increases as eps falls: {dist}")
    kappa = sorted(_rows(out, "kappa.csv"), key=lambda r: float(r["t_hat"]))
    kappa_hat = [float(r["kappa_hat"]) for r in kappa]
    if not _decreasing(kappa_hat, strict=True):
        bad.append(f"kappa.csv: kappa_hat does not decrease: {kappa_hat}")
    return bad


def check_reflection(out: Path) -> list[str]:
    bad = []
    (diag,) = _rows(out, "reflection_diagnostics.csv")
    if float(diag["min_u"]) != 0.0:
        bad.append(f"reflection_diagnostics.csv: min_u = {diag['min_u']}, not 0")
    if float(diag["complementarity"]) != 0.0:
        bad.append(f"reflection_diagnostics.csv: complementarity = "
                   f"{diag['complementarity']}, not exactly 0")
    pen = sorted(_rows(out, "penalization.csv"), key=lambda r: float(r["penalty_n"]))
    dist = [float(r["sq_dist_to_projection"]) for r in pen]
    if not dist or not _decreasing(dist, strict=True):
        bad.append(f"penalization.csv: distance does not decrease in n: {dist}")
    return bad


# every workload solves: the step loop, its banded kernel and the callbacks
SOLVES = ("solver.solve.calls", "solver.steps", "solver.kernel.calls",
          "coefficients.callback.calls", "cli.load_config_ms", "cli.write_ms")

# name -> why it was chosen, config without its seed, output check, the
# artifacts it must write, and the per-layer metrics that must be nonzero in
# a traced run (a layer the tracer no longer sees fails the run, rather than
# reading as a gain)
WORKLOADS = {
    "rare_event": {
        "why": "the paper's headline experiment and the only one using ldp and ratefn: "
               "naive and tilted Monte Carlo, a rate_function stage and the lower-bound probe",
        # configs/rare_event.json with n_samples 2000 -> 40, dt 0.005 -> 0.02 and
        # blocks 4 -> 2, so the rate stage (about 360 skeleton solves of 50
        # steps) stays near half the run; delta 0.035 -> 0.07 puts p near 0.5
        # at both eps, so the probe's naive count is never zero and its
        # importance fallback is never taken, whatever the seed
        # (P(zero hits in 40) ~ 1e-11 per eps)
        "config": {
            "experiment": "rare-event",
            "grid": {"m": 32},
            "mesh": {"t_final": 1.0, "dt": 0.02},
            "params": {"eps": 0.1, "eps_list": [0.1, 0.05], "delta": 0.07,
                       "n_samples": 40, "theta": 0.5, "h_star": 1.0, "blocks": 2},
        },
        "check": check_rare_event,
        "artifacts": ("fw_bound.csv", "rare_event.csv", "runmeta.jsonl"),
        "traced": SOLVES + ("ratefn.rate_function_s", "ratefn.skeleton_solves",
                            "ratefn.iterations", "ldp.naive.ms_per_sample",
                            "ldp.importance.ms_per_sample", "ldp.fw_probe_s",
                            "core.sample_noise.calls", "core.path_distance.calls"),
    },
    "averaging": {
        "why": "coupled fast/averaged path loop with the heavier multiscale callbacks, "
               "where path batching shows most; the only workload writing binary artifacts",
        # configs/averaging.json with n_paths 100 -> 8 and the first pair dumped
        "config": {
            "experiment": "averaging",
            "grid": {"m": 32},
            "mesh": {"t_final": 1.0, "dt": 0.002},
            "coefficients": {"family": "multiscale", "beta": 0.5, "amplitude": 1.0},
            "params": {"eps_list": [0.1, 0.01, 0.001], "n_paths": 8,
                       "kappa_t_hats": [100.0, 1000.0, 10000.0], "dump_first_pair": True},
        },
        "check": check_averaging,
        "artifacts": ("averaged_path_0.bin", "averaging.csv", "fast_path_0.bin",
                      "kappa.csv", "runmeta.jsonl"),
        "traced": SOLVES + ("averaging.experiment_s", "averaging.ms_per_pair",
                            "coefficients.estimate_kappa_ms", "core.sample_noise.calls",
                            "core.path_distance.calls"),
    },
    "reflection_fine": {
        "why": "five long single solves (projection twice, penalized thrice) with the largest "
               "arrays and no batching, so a path-batched kernel must leave it unchanged",
        # configs/reflection.json refined from m 64, dt 5e-4 to m 128, dt 1e-4,
        # over t_final 0.5 instead of 1.0 so a run fits about ten CLI processes
        "config": {
            "experiment": "reflection",
            "grid": {"m": 128},
            "mesh": {"t_final": 0.5, "dt": 0.0001},
            "params": {"n_list": [10, 100, 1000], "sigma_amp": 0.25},
        },
        "check": check_reflection,
        "artifacts": ("penalization.csv", "reflection_diagnostics.csv", "runmeta.jsonl"),
        "traced": SOLVES + ("averaging.penalization_probe_s",),
    },
}


def config_for(workload: str, seed: int) -> dict:
    return {**WORKLOADS[workload]["config"], "seed": seed}
