"""Record this checkout's benchmark numbers in one BENCH_<pr>.json file.

    python3 tools/bench_record.py --pr N [--runs K] [--seconds S] [--cli-runs R]

Runs from the root of the checkout it belongs to, one process at a time,
and records:

- `perfbench/run.py --trace 0` on each workload at its pinned seed, K
  times, workloads taken in turn: the median and quartiles of the K
  medians of wall_s, setup_s and peak_rss_mb (run.py prints medians only);
- one `perfbench/run.py --trace 1 --seed 1` run per workload: its exact
  counts and per-layer times;
- each shipped config in `configs/` through the CLI, as
  `tools/artifact_hashes.py` runs it, R times: wall time, user+sys CPU time
  and the peak RSS from wait4, best and median;
- the machine: nproc, Python, numpy, the git commit (and whether tracked
  files differ from it), the hash of `src/` as run.py reports it,
  PYTHONDONTWRITEBYTECODE and the core name of numpy's bundled OpenBLAS.

The file is written to the checkout's root.  Two files
recorded on one box in one session compare two checkouts; numbers from
different boxes or sessions do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import ROOT, THREAD_CAPS, WORKLOADS, openblas_corename, runs  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# the harness's own cost, recorded and not corrected
KNOWN_BIAS = (
    "perfbench/child.py imports scipy after the CLI returns, inside the process whose "
    "peak_rss_mb and wall_s run.py measures, so those carry the import's memory and time "
    "wherever the import sets them; the configs' CLI numbers do not carry it")


def spread(values: list[float]) -> dict:
    """Median, quartiles and the values themselves."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def best_median(values: list[float]) -> dict:
    return {"best": min(values), "median": statistics.median(values)}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last-line JSON of one perfbench/run.py invocation."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench/run.py {workload} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_run(config: dict, work: Path) -> dict:
    """One CLI run of config, as artifact_hashes.py runs it: exit code, wall, CPU and peak RSS."""
    work.mkdir(parents=True)
    path = work / "config.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{k: "1" for k in THREAD_CAPS}}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "burgerslab.cli", "--config", str(path),
                             "--out", str(work / "out")], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": time.monotonic() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def machine() -> dict:
    import numpy

    def git(*args: str) -> str | None:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    # the source run.py's machine facts name, so a record of a working tree names its code
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "git_commit": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": src.hexdigest()[:16],
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "openblas_corename": openblas_corename()}


def record(pr: int, k: int, seconds: float, cli_runs: int, workloads: list[str],
           configs: list[str] | None = None) -> dict:
    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    medians = {w: [] for w in workloads}
    for _ in range(k):
        for w in workloads:
            medians[w].append(bench(w, pinned[w]["seed"], seconds, 0))
    result = {w: {"seed": pinned[w]["seed"],
                  "correct": all(r["correct"] for r in medians[w]),
                  "end_to_end": {m: spread([r["metrics"][m]["value"] for r in medians[w]])
                                 for m in END_TO_END}}
              for w in workloads}
    for w in workloads:
        traced = bench(w, 1, seconds, 1)
        result[w]["traced_seed_1"] = {"correct": traced["correct"],
                                      "metrics": {m: v["value"]
                                                  for m, v in traced["metrics"].items()}}

    shipped = [(label.removeprefix("configs/"), cfg) for label, cfg in runs()
               if label.startswith("configs/")
               and (configs is None or label.removeprefix("configs/") in configs)]
    by_config = {name: [] for name, _ in shipped}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(cli_runs):
            for name, cfg in shipped:
                by_config[name].append(cli_run(cfg, Path(tmp) / f"{name}-{i}"))
    cli = {name: {"exit_codes": sorted({r["exit_code"] for r in done}),
                  **{m: best_median([r[m] for r in done])
                     for m in ("wall_s", "cpu_s", "peak_rss_mb")}}
           for name, done in by_config.items()}
    return {"pr": pr, "machine": machine(), "known_bias": KNOWN_BIAS,
            "settings": {"runs": k, "seconds": seconds, "cli_runs": cli_runs},
            "workloads": result, "configs": cli}


def failures(data: dict) -> list[str]:
    """The workloads and configs of a record that did not run correctly."""
    failed = [w for w, r in data["workloads"].items()
              if not (r["correct"] and r["traced_seed_1"]["correct"])]
    return failed + [c for c, r in data["configs"].items() if r["exit_codes"] != [0]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5, help="run.py --trace 0 runs per workload")
    parser.add_argument("--seconds", type=float, default=4.0, help="--seconds of each run.py")
    parser.add_argument("--cli-runs", type=int, default=5, help="CLI runs per shipped config")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.cli_runs < 1:
        parser.error("--runs and --cli-runs must be >= 1")
    data = record(args.pr, args.runs, args.seconds, args.cli_runs, list(WORKLOADS))
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(data, indent=1) + "\n")
    failed = failures(data)
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
