"""Coupled-path averaging experiments and their diagnostics.

The main experiment drives the fast-oscillation equation (coefficients on
the dilated clock t/eps) and the averaged equation with the SAME Brownian
increments, then reports the mean squared path distance per eps.  Coupling
turns the in-probability convergence statement into a monotone statistic
that is readable at a hundred samples.

Diagnostics mirror the proof devices: a Khasminskii block functional that
freezes the state at block starts, and the penalization-versus-projection
comparison on common noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _distance_of_rows, _distance_rows, path_distance, sample_noise
from .coefficients import CoefficientSet
from .solver import ReflectedPath, SchemeConfig, march_windows, solve, solve_paths

__all__ = [
    "AveragingRow",
    "AveragingReport",
    "run_averaging_experiment",
    "khasminskii_block_error",
    "penalization_convergence_probe",
]


@dataclass(frozen=True)
class AveragingRow:
    epsilon: float
    mean_sq_dist: float
    std_err: float
    exceed_frac: float
    n_samples: int


@dataclass(frozen=True)
class AveragingReport:
    """Per-eps coupled distances; coupling_seed echoes the shared noise."""

    rows: list[AveragingRow]
    coupling_seed: int
    delta: float

    def __post_init__(self) -> None:
        eps = [r.epsilon for r in self.rows]
        if len(set(eps)) != len(eps):
            raise ValueError("rows must be keyed by distinct epsilon values")


def run_averaging_experiment(
    ms: CoefficientSet,
    avg: CoefficientSet,
    u0: np.ndarray,
    eps_list: list[float],
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
    delta: float = 0.25,
) -> AveragingReport:
    """Mean squared path distance between the fast and averaged solutions.

    avg is the averaged set (its f and sigma do not depend on t), marched
    as it is.  Per sample index the same increments feed both equations;
    the averaged paths do not depend on eps and are solved once.  The
    averaged paths and then the fast paths of each eps run through
    solver.solve_paths, a chunk at a time, so only the averaged paths are
    kept.  Reported per eps: mean of the squared distances, its standard
    error, and the fraction exceeding delta (the in-probability view).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not delta > 0.0:  # NaN fails too
        raise ValueError(f"exceedance threshold must be positive, got {delta}")
    if avg.d != ms.d:
        raise ValueError(f"channel mismatch: averaged d={avg.d}, fast d={ms.d}")
    base_cfg = replace(cfg, noise_scale=1.0, time_scale=1.0)

    dw = np.stack([
        sample_noise(seed, cfg.mesh, ms.d, path_index=i).increments for i in range(n_samples)
    ])
    # copied path by path, so no chunk of the solve outlives the loop
    slow_paths = np.fromiter((slow for _, slow in solve_paths(avg, u0, dw, None, base_cfg)),
                             (float, (cfg.mesh.steps + 1, cfg.grid.m)), n_samples)

    rows = []
    for eps in eps_list:
        fast_cfg = replace(cfg, noise_scale=1.0, time_scale=eps)
        d2 = np.array([
            path_distance(fast, slow, cfg.grid, cfg.mesh).squared
            for (_, fast), slow in zip(solve_paths(ms, u0, dw, None, fast_cfg), slow_paths)
        ])
        rows.append(AveragingRow(
            epsilon=eps,
            mean_sq_dist=float(np.mean(d2)),
            std_err=float(np.std(d2)) / math.sqrt(n_samples),
            exceed_frac=float(np.mean(d2 >= delta)),
            n_samples=n_samples,
        ))
    return AveragingReport(rows=rows, coupling_seed=seed, delta=delta)


def khasminskii_block_error(
    ms: CoefficientSet,
    avg: CoefficientSet,
    p: ReflectedPath,
    theta: float,
    eps: float,
) -> float:
    """Block functional with the state frozen at block starts.

    Blocks of length theta (snapped to the mesh) tile [0, T] up to the last
    full block; on each one the reaction deviation
    |f(s/eps, ., u(k theta)) - f_bar(., u(k theta))|_H is integrated in s
    against the weight |u(k theta)|_H, and the block totals are summed
    (f is ms's; f_bar is the averaged set's f, read at t = 0).  Decaying coefficient deviations make this small as soon as theta/eps is
    large; a single block spanning the horizon reduces to |u(0)|_H times
    the whole-horizon integrated deviation.
    """
    dt, t_final = p.mesh.dt, p.mesh.t_final
    if not 0.0 < theta <= t_final:
        raise ValueError(f"block length must lie in (0, {t_final}], got {theta}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    w = max(1, int(round(theta / dt)))
    n_blocks = p.mesh.steps // w
    x = p.grid.nodes
    dx = p.grid.dx
    times = p.mesh.times

    total = 0.0
    for k in range(n_blocks):
        u_blk = p.u[k * w]
        weight = math.sqrt(p.h_sq[k * w])
        s = times[k * w : (k + 1) * w]
        diff = ms.f(s[:, None] / eps, x[None, :], u_blk[None, :]) - avg.f(0.0, x, u_blk)
        dev = np.sqrt(dx * np.einsum("km,km->k", diff, diff))
        total += weight * float(np.sum(dev)) * dt
    return total


def penalization_convergence_probe(
    cs: CoefficientSet,
    u0: np.ndarray,
    n_list: list[float],
    noise,
    cfg: SchemeConfig,
) -> tuple[ReflectedPath, list[tuple[float, float]]]:
    """Squared distance of penalized(n) to the projection solution, common noise.

    Returns the projection path and one (n, squared distance) row per n.
    Every scheme is checked before any solve.  The projection path is one
    solve.  The penalized paths march as one batch, one row per n on the
    same increments, through solver.march_windows: each window's H and V
    norms against the projection go into one (steps+1)-long pair per row,
    and no penalized path is ever held whole.  Each distance has the bits
    of path_distance on that row's own solve.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    pen_cfgs = [replace(cfg, reflection="penalized", penalty_n=float(n)) for n in n_list]
    proj = solve(cs, u0, noise, None, replace(cfg, reflection="projection", penalty_n=0.0))
    if not pen_cfgs:
        return proj, []
    dw = None if noise is None or cfg.noise_scale == 0.0 else np.repeat(
        noise.increments[None], len(pen_cfgs), axis=0)
    hsq = np.empty((len(pen_cfgs), cfg.mesh.steps + 1))
    vsq = np.empty_like(hsq)
    for first, states in march_windows(cs, u0, dw, None, pen_cfgs):
        skip = 1 if first else 0  # the state the window shares with the one before
        rows = slice(first + skip, first + states.shape[1])
        for i, u in enumerate(states):
            _distance_rows(u[skip:], proj.u[rows], cfg.grid, hsq[i, rows], vsq[i, rows])
    return proj, [
        (c.penalty_n, _distance_of_rows(h, v, cfg.mesh).squared)
        for c, h, v in zip(pen_cfgs, hsq, vsq)
    ]
