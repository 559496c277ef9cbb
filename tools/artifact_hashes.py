"""Print the sha256 of every artifact whose bytes a change must keep.

Runs the CLI of this checkout on the six shipped configs in `configs/` and
on the three benchmark workloads at seeds 1-3 (their configs come from
`perfbench/workloads.py`), one process at a time with BLAS capped at one
thread, as the benchmark runs it.  Prints one line per CSV, `.bin` and
`runmeta.jsonl` file, `<sha256>  <run>/<artifact>`, sorted, and exits 1 if
any run fails.  The manifest is left out: it records wall time.  The
kernel numpy's bundled OpenBLAS picked on this host goes to stderr as
`openblas core: <name>`, since the same bytes hold only on one kernel.

Compare two checkouts with

    python3 tools/artifact_hashes.py > new.txt
    (cd ../parent && python3 tools/artifact_hashes.py) > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_for  # noqa: E402

SEEDS = (1, 2, 3)
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def openblas_corename() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked on this host, or None if it cannot tell."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def runs() -> list[tuple[str, dict]]:
    """(label, config) of every run: each shipped config, then each workload per seed."""
    shipped = [(f"configs/{p.stem}", json.loads(p.read_text()))
               for p in sorted((ROOT / "configs").glob("*.json"))]
    return shipped + [(f"{name}@seed{seed}", config_for(name, seed))
                      for name in WORKLOADS for seed in SEEDS]


def hashed(out: Path) -> list[tuple[str, str]]:
    """(sha256, file name) of each CSV, .bin and runmeta.jsonl file in out."""
    names = sorted(p.name for p in out.glob("*")
                   if p.suffix in (".csv", ".bin") or p.name == "runmeta.jsonl")
    return [(hashlib.sha256((out / n).read_bytes()).hexdigest(), n) for n in names]


def run(config: dict, work: Path) -> tuple[int, list[tuple[str, str]]]:
    """Run the CLI on config in work; returns its exit code and its hashed artifacts."""
    work.mkdir(parents=True)
    path = work / "config.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{k: "1" for k in THREAD_CAPS}}
    done = subprocess.run([sys.executable, "-m", "burgerslab.cli", "--config", str(path),
                           "--out", str(work / "out")], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode, hashed(work / "out")


def main() -> int:
    print(f"openblas core: {openblas_corename()}", file=sys.stderr)
    status = 0
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, config) in enumerate(runs()):
            code, files = run(config, Path(tmp) / str(i))
            if code != 0:
                print(f"{label}: exit code {code}", file=sys.stderr)
                status = 1
            lines += [f"{digest}  {label}/{name}" for digest, name in files]
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return status


if __name__ == "__main__":
    sys.exit(main())
