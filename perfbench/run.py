"""The burgerslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a burgerslab checkout.  Each measurement spawns the
real CLI (`burgerslab.cli.main`, through child.py) in a fresh process on a
config generated from the workload and the seed: a closed loop with one
client, one run at a time, BLAS and OpenMP capped at one thread.  Runs
repeat until S seconds have passed (at least three), every run's outputs
are checked, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": runs, "failed": runs, "metrics": {...}}

--trace 0 reports the end-to-end metrics, each the median over the runs:
wall_s (spawn to exit), setup_s (spawn until load_config returns) and
peak_rss_mb (the child's own peak resident set, from wait4).
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics (see tracer.py), the two step micro-runs, process CPU time and the
tracing overhead; it also checks that traced and untraced runs write
byte-identical artifacts, that the traced counts repeat exactly and that
every layer the workload crosses shows work in the traced runs.

A run fails if it exits nonzero, writes failure.json, misses an artifact
its manifest lists or that the workload must write, has an artifact whose
sha256 differs from the manifest, or fails the workload's output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402

MIN_RUNS = 3
DEADLINE_S = 160.0  # the whole benchmark process must end within 180 s
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "solver.solve.calls": "count",
    "solver.steps": "count",
    "solver.solve.ms_per_path": "ms",
    "solver.step_us": "us",
    "solver.kernel.calls": "count",
    "solver.kernel.us": "us",
    "solver.kernel_share": "ratio",
    "solver.kernel.flops_computed": "flop",
    "solver.kernel.bytes_computed": "B",
    "solver.step_us.m32": "us",
    "solver.step_us.m128": "us",
    "coefficients.callback.calls": "count",
    "coefficients.callback.us_per_step": "us",
    "coefficients.estimate_kappa_ms": "ms",
    "ratefn.rate_function_s": "s",
    "ratefn.skeleton_solves": "count",
    "ratefn.iterations": "count",
    "ratefn.iter_per_solve": "ratio",
    "ldp.naive.ms_per_sample": "ms",
    "ldp.importance.ms_per_sample": "ms",
    "ldp.fw_probe_s": "s",
    "ldp.naive.hit_ratio": "ratio",
    "ldp.importance.n_clipped": "count",
    "averaging.experiment_s": "s",
    "averaging.ms_per_pair": "ms",
    "averaging.penalization_probe_s": "s",
    "core.sample_noise.calls": "count",
    "core.sample_noise.us": "us",
    "core.path_distance.calls": "count",
    "core.path_distance.us": "us",
    "cli.import_s": "s",
    "cli.load_config_ms": "ms",
    "cli.write_ms": "ms",
    "cli.artifact_bytes": "B",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across traced runs of one config
EXACT_COUNTS = ("solver.solve.calls", "solver.steps", "solver.kernel.calls")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    """One benchmark process: a checkout root and a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = {**os.environ, **THREAD_CAPS,
                    "PYTHONPATH": str(root / "src"), "TMPDIR": str(self.work)}
        self.count = 0
        self.deadline = now() + DEADLINE_S

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, object]:
        """Run one child to its end; (exit code, spawn time, exit time, rusage)."""
        with open(log, "wb") as fh:
            t_spawn = now()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - now()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t_exit = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t_spawn, t_exit, usage

    def run_cli(self, traced: bool = False) -> dict:
        """One CLI run of the workload: timings, artifact hashes and problems."""
        self.count += 1
        run_dir = self.work / f"run{self.count}"
        out = run_dir / "out"
        run_dir.mkdir()
        config = run_dir / "config.json"
        config.write_text(json.dumps(config_for(self.workload, self.seed), indent=1) + "\n")
        record_path, spans_path = run_dir / "record.json", run_dir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), str(record_path)]
        if traced:
            argv += ["--spans", str(spans_path)]
        argv += ["--", "--config", str(config), "--out", str(out)]
        code, t_spawn, t_exit, usage = self.spawn(argv, run_dir / "log.txt")

        record = json.loads(record_path.read_text()) if record_path.exists() else None
        problems, hashes, size = check_outputs(self.root, self.workload, code, out, record)
        if problems:
            log = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
            print(f"run {self.count} failed: {'; '.join(problems)}\n{log}", file=sys.stderr)
        marks = record["marks"] if record else {}
        result = {
            "problems": problems,
            "hashes": hashes,
            "artifact_bytes": size,
            "versions": record["versions"] if record else {},
            "wall_s": t_exit - t_spawn,
            "setup_s": marks.get("config_loaded", t_exit) - t_spawn,
            "import_s": marks.get("imported", t_exit) - marks.get("started", t_spawn),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        if traced and spans_path.exists():
            result["layers"] = summarize(json.loads(spans_path.read_text()))
        shutil.rmtree(run_dir)
        return result

    def run_micro(self) -> dict:
        record = self.work / "micro.json"
        code, *_ = self.spawn([sys.executable, str(HERE / "micro.py"), str(record),
                               str(self.seed)], self.work / "micro.txt")
        if code != 0:
            raise SystemExit("step micro-run failed:\n"
                             + (self.work / "micro.txt").read_text(errors="replace")[-2000:])
        return json.loads(record.read_text())


def parse_manifest(path: Path) -> dict[str, str]:
    listed = {}
    for line in path.read_text().splitlines():
        if line.startswith("  ") and " sha256=" in line:
            name, digest = line.strip().rsplit(" sha256=", 1)
            listed[name] = digest
    return listed


def check_outputs(root: Path, workload: str, code: int, out: Path,
                  record: dict | None) -> tuple[list[str], dict[str, str], int]:
    """(problems, sha256 of every listed artifact, their total bytes)."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if (out / "failure.json").exists():
        problems.append("failure.json: " + (out / "failure.json").read_text().strip())
    if record is None:
        problems.append("no child record")
    elif not Path(record["burgerslab_file"]).is_relative_to(root / "src"):
        problems.append(f"burgerslab imported from {record['burgerslab_file']}")
    manifest = out / "manifest.txt"
    if not manifest.exists():
        return problems + ["no manifest.txt"], {}, 0

    hashes, size = {}, 0
    for name, digest in parse_manifest(manifest).items():
        path = out / name
        if not path.exists():
            problems.append(f"{name} listed in the manifest but missing")
            continue
        data = path.read_bytes()
        size += len(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
        if hashes[name] != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    problems += [f"{name} not in the manifest" for name in WORKLOADS[workload]["artifacts"]
                 if name not in hashes]
    if not problems:
        try:
            problems += WORKLOADS[workload]["check"](out)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
    return problems, hashes, size


def machine_facts(root: Path, versions: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **versions, "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "thread_caps": THREAD_CAPS}


def drift(workload: str, seed: int, hashes: dict[str, str]) -> str | None:
    """Information only: artifacts whose bytes differ from the pinned seed's."""
    pinned = json.loads((HERE / "pinned.json").read_text()).get(workload)
    if pinned is None or seed != pinned["seed"]:
        return None
    changed = sorted(n for n, h in pinned["sha256"].items() if hashes.get(n) != h)
    changed += sorted(n for n in hashes if n not in pinned["sha256"])
    return (f"drift: {len(changed)} of {len(pinned['sha256'])} artifacts differ from the "
            f"hashes pinned at seed {seed}" + (f" ({', '.join(changed)})" if changed else ""))


def median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def measure(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    start = now()
    runs = []
    while len(runs) < MIN_RUNS or now() - start + median(runs, "wall_s") <= seconds:
        if runs and now() + 2 * max(r["wall_s"] for r in runs) > bench.deadline:
            break
        runs.append(bench.run_cli())
    metrics = {name: median(runs, name) for name in END_TO_END_UNITS}
    return runs, metrics


def measure_traced(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    start = now()
    plain, traced = [bench.run_cli()], [bench.run_cli(traced=True)]
    micro = bench.run_micro()
    pair_s = plain[-1]["wall_s"] + traced[-1]["wall_s"]
    while (now() - start + pair_s <= seconds
           and now() + 2 * pair_s <= bench.deadline):
        plain.append(bench.run_cli())
        traced.append(bench.run_cli(traced=True))

    reference = plain[0]["hashes"]
    for run in plain[1:] + traced:
        if run["hashes"] != reference and not run["problems"]:
            run["problems"].append("artifacts differ from the first untraced run")
    layers = [r["layers"] for r in traced if "layers" in r]
    for run in traced:
        if "layers" not in run:
            run["problems"].append("no spans written")
            continue
        if any(run["layers"][k] != layers[0][k] for k in EXACT_COUNTS):
            run["problems"].append("traced counts differ between runs of one config")
        idle = [k for k in WORKLOADS[bench.workload]["traced"] if not run["layers"][k]]
        if idle:
            run["problems"].append("traced layers saw no work: " + ", ".join(idle))

    wall = median(plain, "wall_s")
    metrics = ({k: statistics.median(run[k] for run in layers) for k in layers[0]}
               if layers else {})
    kernel_s = metrics.pop("solver.kernel.seconds", 0.0)
    metrics.update(micro)
    metrics["solver.kernel_share"] = kernel_s / wall
    metrics["cli.import_s"] = median(plain, "import_s")
    metrics["cli.artifact_bytes"] = plain[0]["artifact_bytes"]
    metrics["process.cpu_s"] = median(plain, "cpu_s")
    metrics["trace.overhead_s"] = median(traced, "wall_s") - wall
    return plain + traced, {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # a terminated benchmark still kills and reaps its child and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "burgerslab" / "cli.py").is_file():
        print(f"error: {root} is not a burgerslab checkout (no src/burgerslab/cli.py)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            runs, metrics = measure_traced(bench, args.seconds)
            units = PER_LAYER_UNITS
        else:
            runs, metrics = measure(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        bench.close()

    failed = sum(1 for r in runs if r["problems"])
    print("machine: " + json.dumps(machine_facts(root, runs[0]["versions"])))
    print(f"workload: {args.workload} seed={args.seed} runs={len(runs)} "
          f"trace={args.trace} (medians over runs)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  runs_failed = {failed} of runs_attempted = {len(runs)}")
    note = drift(args.workload, args.seed, runs[0]["hashes"])
    if note:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
