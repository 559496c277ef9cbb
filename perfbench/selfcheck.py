"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

Run from the root of a burgerslab checkout; prints one PASS/FAIL line per
check and exits nonzero if any fails.

  * BENCHMARK.json names exactly the workloads and metrics run.py reports.
  * Each output check rejects outputs that break its invariant.
  * The tracer refuses to wrap a name that is not there, and every layer a
    workload crosses shows work in its traced runs.
  * Traced counts (solve calls, steps, kernel calls) repeat exactly across
    two runs of one seed, and match across two seeds: the work a run does
    does not depend on its seed.
  * Traced and untraced runs of one seed write byte-identical artifacts.
  * In a directory holding only BENCHMARK.json and perfbench/, run.py exits
    nonzero without printing a result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

from run import END_TO_END_UNITS, EXACT_COUNTS, HERE, PER_LAYER_UNITS, Bench
from tracer import Tracer
from workloads import WORKLOADS

SEEDS = (101, 202)
results: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))


def check_benchmark_json(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check("workloads match", [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check("end-to-end metrics match", e2e == END_TO_END_UNITS, f"{e2e}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("per-layer metrics match", layers == PER_LAYER_UNITS,
          f"{set(layers) ^ set(PER_LAYER_UNITS)}")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def check_output_checks() -> None:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        out = Path(tmp)
        header = ["method", "eps", "p_hat", "std_err", "n_samples", "seed", "n_clipped"]
        fw_header = ["eps", "p_hat", "eps_log_p", "bound", "satisfied", "zero_hit", "method"]
        write_csv(out / "rare_event.csv", header, [["naive", 0.1, 0.2, 0.01, 80, 1, 0]])
        write_csv(out / "fw_bound.csv", fw_header,
                  [[0.1, 0.2, -0.16, -1, "true", "false", "naive"]])
        rare = WORKLOADS["rare_event"]["check"]
        check("rare_event check passes good output", rare(out) == [])
        write_csv(out / "fw_bound.csv", fw_header,
                  [[0.1, 0.2, -0.16, -1, "false", "false", "naive"]])
        check("rare_event check rejects satisfied=false", len(rare(out)) == 1)
        write_csv(out / "fw_bound.csv", fw_header, [])
        check("rare_event check rejects an empty fw_bound.csv", len(rare(out)) == 1)

        averaging = WORKLOADS["averaging"]["check"]
        write_csv(out / "kappa.csv", ["t_hat", "kappa_hat"], [[100, 0.3], [1000, 0.2]])
        write_csv(out / "averaging.csv", ["eps", "mean_sq_dist"], [[0.1, 0.2], [0.01, 0.05]])
        check("averaging check passes good output", averaging(out) == [])
        write_csv(out / "averaging.csv", ["eps", "mean_sq_dist"], [[0.1, 0.2], [0.01, 0.3]])
        check("averaging check rejects a rising distance", len(averaging(out)) == 1)

        reflection = WORKLOADS["reflection_fine"]["check"]
        write_csv(out / "reflection_diagnostics.csv", ["min_u", "complementarity", "tv_k"],
                  [[0, 0, 0.4]])
        write_csv(out / "penalization.csv", ["penalty_n", "sq_dist_to_projection"],
                  [[10, 0.1], [100, 0.01]])
        check("reflection check passes good output", reflection(out) == [])
        write_csv(out / "reflection_diagnostics.csv", ["min_u", "complementarity", "tv_k"],
                  [[0, 1e-300, 0.4]])
        check("reflection check rejects nonzero complementarity", len(reflection(out)) == 1)


def check_tracer_strict() -> None:
    module = types.ModuleType("moved")
    try:
        Tracer().patch(module, "solve", "solver.solve")
        refused = False
    except AttributeError:
        refused = True
    check("tracer refuses a name that is not there", refused)


def check_runs(root: Path) -> None:
    for name in WORKLOADS:
        runs = {}
        for seed, traced in ((SEEDS[0], False), (SEEDS[0], True), (SEEDS[0], True),
                             (SEEDS[1], True)):
            bench = Bench(root, name, seed)
            try:
                runs.setdefault((seed, traced), []).append(bench.run_cli(traced=traced))
            finally:
                bench.close()
        every = [r for rs in runs.values() for r in rs]
        check(f"{name}: every run passes its output checks",
              not any(r["problems"] for r in every),
              "; ".join(p for r in every for p in r["problems"]))
        counts = [{k: r["layers"][k] for k in EXACT_COUNTS}
                  for r in runs[(SEEDS[0], True)] + runs[(SEEDS[1], True)]]
        check(f"{name}: traced counts repeat within one seed", counts[0] == counts[1],
              f"{counts[:2]}")
        check(f"{name}: traced counts match across seeds", counts[0] == counts[2],
              f"{counts[0]} vs {counts[2]}")
        idle = sorted({k for r in runs[(SEEDS[0], True)] + runs[(SEEDS[1], True)]
                       for k in WORKLOADS[name]["traced"] if not r["layers"][k]})
        check(f"{name}: every layer it crosses shows work when traced", not idle, f"{idle}")
        plain, traced = runs[(SEEDS[0], False)][0], runs[(SEEDS[0], True)][0]
        check(f"{name}: traced artifacts are byte-identical to untraced",
              plain["hashes"] == traced["hashes"] and bool(plain["hashes"]))


def check_stripped_directory(root: Path) -> None:
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        shutil.copy(root / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "averaging", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        check("stripped directory: nonzero exit and no result",
              proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    root = Path.cwd()
    check_benchmark_json(root)
    check_output_checks()
    check_tracer_strict()
    check_stripped_directory(root)
    check_runs(root)
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
