"""Rate-function evaluation by penalized control optimization.

The rate of a target path is the least control energy 1/2 ∫ |h|^2 dt over
all controls steering the deterministic skeleton onto the target.  The
hard constraint is relaxed to

    J_mu(h) = energy(h) + mu * squared_path_distance(skeleton(h), target)

minimized over piecewise-constant controls by gradient descent with
central finite-difference gradients and backtracking, under a geometric
continuation schedule in mu.  An empty or unreachable constraint set shows
up as a residual floor and converged=False rather than an exception: the
infimum over an empty set is infinite, and the report says so.

Gradients are finite differences rather than an adjoint solve on purpose:
the control dimension stays small (blocks * d) and the projection step of
the reflected dynamics is not differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .core import SpatialGrid, TimeMesh, path_distance
from .coefficients import CoefficientSet
from .solver import Control, SchemeConfig, solve_batch, solve_skeleton

__all__ = ["RateOptions", "RateFunctionResult", "rate_function"]

# The continuation's penalty weights mu, one stage each; the first step size of
# a stage's line search, which also caps the warm starts; the relative width of
# the central finite differences.
MU_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)
STEP_SIZE = 1.0
FD_STEP = 1e-4
# Step sizes one batch of the backtracking line search tries.  A line search
# takes three to four per iteration; of 1, 4, 8, 16 and 48, eight timed fastest
# on the rare-event benchmark workload.  Any size gives the same iterates.
LADDER = 8


@dataclass(frozen=True)
class RateOptions:
    """Optimizer knobs: block count and stopping rules."""

    blocks: int = 8
    max_iters: int = 40
    tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ValueError("need at least one control block")
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class RateFunctionResult:
    """Outcome of one rate-function optimization.

    lambda_hat is exactly the energy of h_star; residual is the squared
    path distance from the steered skeleton to the target, and converged
    says residual <= tol; history holds (mu, J, residual) for every
    accepted iterate, per continuation stage.
    """

    lambda_hat: float
    h_star: Control
    residual: float
    iterations: int
    converged: bool
    tol: float
    history: list[tuple[float, float, float]] = field(default_factory=list)


def _check_target(target: np.ndarray, grid: SpatialGrid, mesh: TimeMesh) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    if target.shape != (mesh.steps + 1, grid.m):
        raise ValueError(
            f"target shape {target.shape} does not match (steps+1, m) = "
            f"({mesh.steps + 1}, {grid.m})"
        )
    return target


def rate_function(
    cs: CoefficientSet,
    u0: np.ndarray,
    target: np.ndarray,
    cfg: SchemeConfig,
    opt: RateOptions = RateOptions(),
) -> RateFunctionResult:
    """Least control energy steering the skeleton to a target path.

    Each backtracking line search tries the step sizes alpha0, alpha0/2, ...
    LADDER at a time as one batch of skeleton solves and accepts the first
    one, in ladder order, that meets the Armijo test; the next batch is
    solved only if none does.  Rows equal single solves bit for bit, so the
    iterates are those of trying one step size at a time.  A batch's rows
    are measured against the target lazily, so no row past the accepted one
    is.  The skeleton does not depend on mu: the accepted residual is kept,
    and each continuation stage and the final result start from it without
    measuring the path again.  A blow-up in any row of a ladder batch
    raises, also in a row past the accepted one.
    """
    target = _check_target(target, cfg.grid, cfg.mesh)
    t_final = cfg.mesh.t_final
    d = cs.d
    block_dt = t_final / opt.blocks
    skeleton_cfg = replace(cfg, noise_scale=0.0)

    def control(h_flat: np.ndarray) -> Control:
        return Control(t_final, h_flat.reshape(opt.blocks, d))

    def residual(u: np.ndarray) -> float:
        return path_distance(u, target, cfg.grid, cfg.mesh).squared

    def residuals(h_rows: list[np.ndarray]) -> Iterator[float]:
        # one batch of skeleton solves, each row measured only when drawn
        h_mesh = np.stack([control(hf).on_mesh(cfg.mesh) for hf in h_rows])
        return map(residual, solve_batch(cs, u0, None, h_mesh, skeleton_cfg, store_dk=False)[0])

    def objective_on(h_flat: np.ndarray, res: float, mu: float) -> float:
        return 0.5 * float(np.dot(h_flat, h_flat)) * block_dt + mu * res

    def gradient(h_flat: np.ndarray, mu: float) -> np.ndarray:
        # central differences: all 2 * blocks * d bumped controls as one batch
        widths = np.empty_like(h_flat)
        trials = []
        for k in range(h_flat.size):
            widths[k] = FD_STEP * max(1.0, abs(h_flat[k]))
            bump = np.zeros_like(h_flat)
            bump[k] = widths[k]
            trials += [h_flat + bump, h_flat - bump]
        j = np.array([objective_on(hf, res, mu) for hf, res in zip(trials, residuals(trials))])
        return (j[0::2] - j[1::2]) / (2.0 * widths)

    def line_search(h_flat: np.ndarray, grad: np.ndarray, gnorm_sq: float, j_cur: float,
                    alpha: float, mu: float) -> tuple | None:
        # the ladder alpha, alpha/2, ... down to 1e-12, LADDER rows per batch;
        # returns (alpha, h, J, residual) of the first Armijo step, or None
        ladder = []
        while alpha > 1e-12:
            ladder.append(alpha)
            alpha *= 0.5
        for first in range(0, len(ladder), LADDER):
            alphas = ladder[first:first + LADDER]
            trials = [h_flat - a * grad for a in alphas]
            for a, trial, res in zip(alphas, trials, residuals(trials)):
                j_new = objective_on(trial, res, mu)
                if j_new <= j_cur - 1e-4 * a * gnorm_sq:
                    return a, trial, j_new, res
        return None

    h = np.zeros(opt.blocks * d)
    res_cur = residual(solve_skeleton(cs, u0, control(h), cfg).u)
    history: list[tuple[float, float, float]] = []
    iterations = 0

    for mu in MU_SCHEDULE:
        j_cur = objective_on(h, res_cur, mu)
        history.append((mu, j_cur, res_cur))
        alpha0 = STEP_SIZE
        for _ in range(opt.max_iters):
            grad = gradient(h, mu)
            gnorm_sq = float(np.dot(grad, grad))
            if gnorm_sq < 1e-18:
                break
            step = line_search(h, grad, gnorm_sq, j_cur, alpha0, mu)
            if step is None:
                break
            alpha, h, j_cur, res_cur = step
            # warm-start the next backtracking from just above the accepted step
            alpha0 = min(STEP_SIZE, 2.0 * alpha)
            iterations += 1
            history.append((mu, j_cur, res_cur))

    h_star = control(h)
    return RateFunctionResult(
        lambda_hat=h_star.energy,
        h_star=h_star,
        residual=res_cur,
        iterations=iterations,
        converged=res_cur <= opt.tol,
        tol=opt.tol,
        history=history,
    )
