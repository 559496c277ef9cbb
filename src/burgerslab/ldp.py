"""Monte Carlo probes for the small-noise family.

All probabilities concern tube events {rho(u, target) < delta} where rho
is the canonical squared path functional
sup_t |u - target|_H^2 + ∫ ||u - target||_V^2 dt.

Two estimators are provided: the naive frequency, and an importance-sampled
version that simulates the controlled equation (drift shifted by sigma h)
and reweights with the discrete Girsanov density

    exp{ -(1/sqrt(eps)) sum_k h(t_k).dW_k - (1/(2 eps)) sum_k |h(t_k)|^2 dt },

built from the same Brownian increments that drove the path (left-point
evaluation), which makes the weight mean exactly one in expectation.

Per-path seeds derive from (seed, path index) through the splittable
generator, and the same indices are reused across epsilon values and
estimator variants: common random numbers keep trend comparisons clean and
every estimate bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

# path_distance and solve are not called here: they stay module names so that
# tools which wrap the distance and solver layers by module name find them
from .core import path_distance, sample_noise
from .coefficients import CoefficientSet
from .ratefn import RateFunctionResult
from .solver import (BlowUpError, Control, SchemeConfig, _paths_per_chunk, march_distances,
                     solve, solve_skeleton)

__all__ = [
    "EventSpec",
    "RareEventEstimate",
    "FWBoundRow",
    "ConditionRow",
    "estimate_naive",
    "estimate_importance",
    "fw_lower_bound_probe",
    "condition_convergence_probe",
    "eps_list_ok",
]

LOG_WEIGHT_CLIP = 700.0  # exp overflow threshold for float64


@dataclass(frozen=True)
class EventSpec:
    """Tube event {rho(u, target) < delta} around a target path.

    rho is the squared path functional.  delta = inf makes it the sure
    event (useful for weight diagnostics).
    """

    target: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0.0:  # NaN fails too
            raise ValueError(f"tube radius must be positive, got {self.delta}")
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


@dataclass(frozen=True)
class RareEventEstimate:
    """Estimate record. p_hat is clipped to [0, 1]; raw_mean is not.

    For the naive estimator the two coincide.  For importance sampling
    raw_mean is the unbiased weighted average (it can stray above 1 on a
    sure event), and n_clipped counts log-weights truncated at the float64
    overflow threshold.
    """

    p_hat: float
    std_err: float
    n_samples: int
    epsilon: float
    method: str
    seed: int
    raw_mean: float
    n_clipped: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_hat <= 1.0 and self.std_err >= 0.0):  # NaN fails too
            raise ValueError("estimate out of range")


def eps_list_ok(eps_list: list[float]) -> bool:
    """True for a nonempty list of distinct, finite scales > 0 (NaN fails): the one eps rule."""
    return (bool(eps_list) and all(0.0 < eps < math.inf for eps in eps_list)
            and len(set(eps_list)) == len(eps_list))


def _check_eps_list(eps_list: list[float]) -> None:
    if not eps_list_ok(eps_list):
        raise ValueError(f"eps_list must be a nonempty list of distinct, finite numbers > 0, "
                         f"got {eps_list}")


def _distances(cs: CoefficientSet, u0: np.ndarray, h: np.ndarray | None, cfg: SchemeConfig,
               reference: np.ndarray, n_samples: int, seed: int,
               ) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (dw, squared distance to reference) of paths 0..n_samples-1 under cfg.

    Path i is driven by the Philox stream (seed, i) and the shared control
    h (or None).  Each chunk of _paths_per_chunk paths is drawn and marched
    by one solver.march_distances, so no path is held whole; a blow-up's
    path_index counts from path 0.
    """
    size = _paths_per_chunk(cfg)
    for first in range(0, n_samples, size):
        dw = np.stack([sample_noise(seed, cfg.mesh, cs.d, path_index=i)
                       for i in range(first, min(first + size, n_samples))])
        try:
            d2 = march_distances(cs, u0, dw, h, cfg, reference)
        except BlowUpError as err:
            err.path_index += first
            raise
        yield from zip(dw, d2.tolist())


def _tube_estimate(
    cs: CoefficientSet,
    u0: np.ndarray,
    eps: float,
    ev: EventSpec,
    h_tilt: Control | None,
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
) -> RareEventEstimate:
    """The one Monte Carlo tube loop; h_tilt None is the untilted (naive) case.

    Each path carries the weight exp(log_w), with log_w the discrete
    Girsanov exponent of h_tilt on the path's own increments; without a
    tilt h is zero, log_w = -0.0 and every weight is exactly 1.
    """
    if not eps > 0.0 or n_samples < 1:  # NaN fails too
        raise ValueError("need eps > 0 and at least one sample")
    run_cfg = replace(cfg, noise_scale=math.sqrt(eps))
    h_drive = None if h_tilt is None else h_tilt.on_mesh(cfg.mesh)
    h_path = np.zeros((cfg.mesh.steps, cs.d)) if h_drive is None else h_drive
    h_l2_sq = float(np.sum(h_path**2)) * cfg.mesh.dt
    sqrt_eps = math.sqrt(eps)

    stats = np.empty(n_samples)
    n_clipped = 0
    paths = _distances(cs, u0, h_drive, run_cfg, ev.target, n_samples, seed)
    for i, (dw, d2) in enumerate(paths):
        hit = d2 < ev.delta
        log_w = -float(np.sum(h_path * dw)) / sqrt_eps - h_l2_sq / (2.0 * eps)
        if log_w > LOG_WEIGHT_CLIP:
            log_w = LOG_WEIGHT_CLIP
            n_clipped += 1
        stats[i] = math.exp(log_w) if hit else 0.0
    raw = float(np.mean(stats))
    se = float(np.std(stats)) / math.sqrt(n_samples)
    return RareEventEstimate(
        p_hat=min(1.0, max(0.0, raw)), std_err=se, n_samples=n_samples,
        epsilon=eps, method="naive" if h_tilt is None else "importance", seed=seed,
        raw_mean=raw, n_clipped=n_clipped,
    )


def estimate_naive(
    cs: CoefficientSet,
    u0: np.ndarray,
    eps: float,
    ev: EventSpec,
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
) -> RareEventEstimate:
    """Plain Monte Carlo frequency of the event at noise level eps."""
    return _tube_estimate(cs, u0, eps, ev, None, n_samples, seed, cfg)


def estimate_importance(
    cs: CoefficientSet,
    u0: np.ndarray,
    eps: float,
    ev: EventSpec,
    h_tilt: Control,
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
) -> RareEventEstimate:
    """Girsanov-tilted estimator, unbiased for the same event probability.

    Simulates the controlled equation (tilt folded in as drift sigma h at
    unit strength, noise at sqrt(eps)) and weights each indicator with the
    discrete exponential density evaluated on the simulating increments.
    With h_tilt = 0 this reduces bit-exactly to the naive estimator.
    """
    return _tube_estimate(cs, u0, eps, ev, h_tilt, n_samples, seed, cfg)


@dataclass(frozen=True)
class FWBoundRow:
    """One row of the lower-bound probe: eps log p versus -(rate + theta).

    satisfied is None on zero-hit rows: the estimate is then only the
    95% one-sided upper bound 1 - 0.05^(1/N), so no violation conclusion
    can be drawn.
    """

    epsilon: float
    p_hat: float
    eps_log_p: float
    bound: float
    satisfied: bool | None
    zero_hit: bool
    method: str


def fw_lower_bound_probe(
    cs: CoefficientSet,
    u0: np.ndarray,
    ev: EventSpec,
    eps_list: list[float],
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
    rate_result: RateFunctionResult,
    theta: float,
    naive: Mapping[float, RareEventEstimate] | None = None,
) -> list[FWBoundRow]:
    """Tube lower bound check: is eps log p_hat >= -(lambda_hat + theta)?

    ev is the tube event, as estimate_naive and estimate_importance take
    it.  Needs a converged rate estimate for its target; falls back to
    importance sampling with the minimizing control whenever the naive
    count is zero.  naive maps eps to a naive estimate the caller already
    made of ev with these samples, seed and scheme; an eps
    found there is not estimated again.  Every input is checked before
    any estimate.
    """
    if not rate_result.converged:
        raise ValueError(
            f"rate estimate for the target did not converge: squared residual "
            f"{rate_result.residual:.6g} > tol {rate_result.tol:.6g}"
        )
    if not theta > 0.0:  # NaN fails too
        raise ValueError(f"slack theta must be positive, got {theta}")
    _check_eps_list(eps_list)
    bound = -(rate_result.lambda_hat + theta)

    known = dict(naive or {})
    for eps, est in known.items():
        if (est.method, est.epsilon, est.n_samples, est.seed) != ("naive", eps, n_samples, seed):
            raise ValueError(
                f"the estimate given for eps {eps} ({est.method}, eps {est.epsilon}, "
                f"{est.n_samples} samples, seed {est.seed}) is not the probe's naive "
                f"estimate ({n_samples} samples, seed {seed})")

    rows = []
    for eps in eps_list:
        est = known[eps] if eps in known else estimate_naive(
            cs, u0, eps, ev, n_samples, seed, cfg)
        method = "naive"
        if est.p_hat == 0.0:
            est = estimate_importance(
                cs, u0, eps, ev, rate_result.h_star, n_samples, seed, cfg
            )
            method = "importance"
        if est.p_hat > 0.0:
            eps_log_p = eps * math.log(est.p_hat)
            rows.append(FWBoundRow(
                epsilon=eps, p_hat=est.p_hat, eps_log_p=eps_log_p, bound=bound,
                satisfied=bool(eps_log_p >= bound), zero_hit=False, method=method,
            ))
        else:
            p_up = 1.0 - 0.05 ** (1.0 / n_samples)
            rows.append(FWBoundRow(
                epsilon=eps, p_hat=p_up, eps_log_p=eps * math.log(p_up), bound=bound,
                satisfied=None, zero_hit=True, method=method,
            ))
    return rows


@dataclass(frozen=True)
class ConditionRow:
    epsilon: float
    worst_fraction: float


def condition_convergence_probe(
    cs: CoefficientSet,
    u0_set: list[np.ndarray],
    controls: list[Control],
    eps_list: list[float],
    delta: float,
    n_samples: int,
    seed: int,
    cfg: SchemeConfig,
    energy_bound: float | None = None,
) -> list[ConditionRow]:
    """Uniform small-noise convergence of controlled paths to the skeleton.

    For every (start, control) pair the controlled equation and its
    skeleton share the control; the probe reports, per eps, the worst
    empirical fraction of paths whose squared distance to the skeleton
    meets delta.  Path indices are shared across eps values (common random
    numbers), so the reported trend is a coupled comparison.  Every input
    is checked before any solve.
    """
    if not delta > 0.0:  # NaN fails too
        raise ValueError(f"threshold delta must be positive, got {delta}")
    if n_samples < 1 or len(u0_set) == 0 or len(controls) == 0:
        raise ValueError("need at least one sample, one start and one control")
    _check_eps_list(eps_list)
    if energy_bound is not None:
        for ctrl in controls:
            if not ctrl.in_energy_class(energy_bound):
                raise ValueError(
                    f"control with ∫|h|^2 = {ctrl.l2_sq:.4g} exceeds bound {energy_bound}"
                )

    skeletons = [
        [solve_skeleton(cs, u0, ctrl, cfg).u for ctrl in controls] for u0 in u0_set
    ]
    rows = []
    for eps in eps_list:
        run_cfg = replace(cfg, noise_scale=math.sqrt(eps))
        worst = 0.0
        for iu, u0 in enumerate(u0_set):
            for ic, ctrl in enumerate(controls):
                paths = _distances(cs, u0, ctrl.on_mesh(cfg.mesh), run_cfg, skeletons[iu][ic],
                                   n_samples, seed)
                exceed = sum(d2 >= delta for _, d2 in paths)
                worst = max(worst, exceed / n_samples)
        rows.append(ConditionRow(epsilon=eps, worst_fraction=worst))
    return rows
