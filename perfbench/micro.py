"""Micro-run of one solve per grid size: whole-step time in microseconds.

    python3 micro.py RECORD SEED

Solves the controlled reflected Burgers equation (convection a_g = 1,
additive noise, projection) over 200 steps at m = 32 and m = 128, several
paths each, untraced, and writes the median time per step to RECORD.
"""

import json
import statistics
import sys
import time

import numpy as np

from burgerslab import (Control, SchemeConfig, SpatialGrid, TimeMesh, make_burgers_set,
                        sample_noise, sine_field, solve)

SIZES = (32, 128)
PATHS = 15


def step_us(m: int, seed: int) -> float:
    grid, mesh = SpatialGrid(m), TimeMesh(1.0, 200)
    cs = make_burgers_set(1.0, noise_profile="additive", c2=-1.0)
    cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5)
    u0 = sine_field(grid)
    control = Control.constant(1.0, [0.5])
    times = []
    for i in range(PATHS):
        noise = sample_noise(seed, mesh, cs.d, path_index=i)
        t0 = time.perf_counter()
        path = solve(cs, u0, noise, control, cfg)
        times.append((time.perf_counter() - t0) / mesh.steps * 1e6)
        if not np.all(path.u >= 0.0):
            raise SystemExit("micro-run produced a negative state")
    return statistics.median(times)


if __name__ == "__main__":
    record_path, seed = sys.argv[1], int(sys.argv[2])
    out = {f"solver.step_us.m{m}": step_us(m, seed) for m in SIZES}
    with open(record_path, "w") as fh:
        json.dump(out, fh)
