"""Coupled-path averaging experiments and their diagnostics.

The main experiment drives the fast-oscillation equation (coefficients on
the dilated clock t/eps) and the averaged equation with the SAME Brownian
increments, then reports the mean squared path distance per eps.  Coupling
turns the in-probability convergence statement into a monotone statistic
that is readable at a hundred samples.

The one diagnostic is the penalization-versus-projection comparison on
common noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# sample_noise is not called here: it stays a module name so that tools
# which wrap the noise layer by module name find it
from .core import path_distance, sample_noise
from .coefficients import CoefficientSet
from .ldp import _check_eps_list, _over_chunks
from .solver import (SchemeConfig, complementarity_residual, march_distances, solve,
                     solve_batch, total_variation_k)

__all__ = [
    "AveragingRow",
    "AveragingReport",
    "run_averaging_experiment",
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
    """Per-eps coupled distances, one row per eps in the order given."""

    rows: list[AveragingRow]


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
    the averaged paths do not depend on eps.  Per chunk of ldp._over_chunks
    the averaged paths are solved once, then the fast paths of each eps,
    each fast chunk dropped before the next, so no path outlives its chunk;
    a blow-up's path_index counts from path 0.
    Reported per eps: mean of the squared distances, its standard error,
    and the fraction exceeding delta (the in-probability view).  eps_list
    must pass ldp.eps_list_ok, which is checked before any march.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    _check_eps_list(eps_list)
    if not delta > 0.0:  # NaN fails too
        raise ValueError(f"exceedance threshold must be positive, got {delta}")
    if avg.d != ms.d:
        raise ValueError(f"channel mismatch: averaged d={avg.d}, fast d={ms.d}")
    base_cfg = replace(cfg, noise_scale=1.0, time_scale=1.0)
    fast_cfgs = [replace(base_cfg, time_scale=eps) for eps in eps_list]

    def march(dw: np.ndarray) -> np.ndarray:
        slow = solve_batch(avg, u0, dw, None, base_cfg, store_dk=False)[0]
        # each fast chunk is dropped before the next eps's is marched
        return np.array([[path_distance(f, s, cfg.grid, cfg.mesh) for f, s in
                          zip(solve_batch(ms, u0, dw, None, fast_cfg, store_dk=False)[0], slow)]
                         for fast_cfg in fast_cfgs])

    d2s = _over_chunks(seed, cfg, ms.d, n_samples, march)
    rows = []
    for eps, d2 in zip(eps_list, d2s):
        rows.append(AveragingRow(
            epsilon=eps,
            mean_sq_dist=float(np.mean(d2)),
            std_err=float(np.std(d2)) / math.sqrt(n_samples),
            exceed_frac=float(np.mean(d2 >= delta)),
            n_samples=n_samples,
        ))
    return AveragingReport(rows=rows)


def penalization_convergence_probe(
    cs: CoefficientSet,
    u0: np.ndarray,
    n_list: list[float],
    dw: np.ndarray | None,
    cfg: SchemeConfig,
) -> tuple[tuple[float, float, float], list[tuple[float, float]]]:
    """Squared distance of penalized(n) to the projection solution, common noise.

    dw is the (steps, d) Brownian increments every scheme shares, as
    sample_noise draws them on cfg's mesh, or None when cfg's noise scale
    is zero.

    Returns the projection path's diagnostics (min u, complementarity
    residual, total variation of K), in the columns' order of the
    reflection experiment's diagnostics table, and one (n, squared
    distance) row per n.  Every scheme is checked before any solve.  The
    projection path is one solve; its diagnostics are read, and its dK
    dropped, before the penalized paths march.  Those march as one batch,
    one row per n on one broadcast view of the increments, through
    solver.march_distances against the projection's u, so no penalized
    path is ever held whole.
    Each distance has the bits of path_distance on that row's own solve.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    pen_cfgs = [replace(cfg, reflection="penalized", penalty_n=float(n)) for n in n_list]
    proj = solve(cs, u0, dw, None, replace(cfg, reflection="projection", penalty_n=0.0))
    diagnostics = (proj.min_u, complementarity_residual(proj), total_variation_k(proj))
    reference = proj.u
    del proj  # its dK, as large as u, is read by nothing below
    if not pen_cfgs:
        return diagnostics, []
    dws = None if dw is None else np.broadcast_to(dw, (len(pen_cfgs), *np.shape(dw)))
    d2 = march_distances(cs, u0, dws, None, pen_cfgs, reference)
    return diagnostics, [(c.penalty_n, d) for c, d in zip(pen_cfgs, d2.tolist())]
