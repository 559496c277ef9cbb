"""Rewrite pinned.json: the artifact hashes of one CLI run per workload.

    python3 perfbench/pin.py

Run from the root of a burgerslab checkout.  Each workload runs once at the
seed pinned.json already records for it (seed 1 for a workload it does not
list yet), and pinned.json is rewritten with that run's artifact hashes.
run.py reports drift against these hashes whenever it runs a workload at
its pinned seed; drift is information, not a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Bench
from workloads import WORKLOADS


def main() -> int:
    path = HERE / "pinned.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    pinned = {}
    for name in WORKLOADS:
        seed = old.get(name, {}).get("seed", 1)
        bench = Bench(Path.cwd(), name, seed)
        try:
            run = bench.run_cli()
        finally:
            bench.close()
        if run["problems"]:
            print(f"{name}: run failed: {'; '.join(run['problems'])}", file=sys.stderr)
            return 1
        pinned[name] = {"seed": seed, "sha256": run["hashes"]}
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(p['sha256']) for p in pinned.values())} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
