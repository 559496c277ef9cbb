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
from typing import Callable, Sequence

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


def _over_chunks(seed: int, cfg: SchemeConfig, d: int, n_samples: int,
                 march: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """march(dw) on each chunk of paths 0..n_samples-1, its results joined on their last axis.

    Path i is driven by the Philox stream (seed, i) on cfg's mesh.  Each
    chunk of _paths_per_chunk paths is drawn once, as the (P, steps, d)
    increments dw, and march returns its P per-path results on its last
    axis; a blow-up's path_index counts from path 0.  The one Monte Carlo
    chunk loop: the tube estimators, the condition probe and the averaging
    pairs all go through it.
    """
    size = _paths_per_chunk(cfg)
    out = []
    for first in range(0, n_samples, size):
        dw = np.stack([sample_noise(seed, cfg.mesh, d, path_index=i)
                       for i in range(first, min(first + size, n_samples))])
        try:
            out.append(march(dw))
        except BlowUpError as err:
            err.path_index += first
            raise
    return np.concatenate(out, axis=-1)


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

    def march(dw: np.ndarray) -> np.ndarray:
        log_w = [-float(np.sum(h_path * w)) / sqrt_eps - h_l2_sq / (2.0 * eps) for w in dw]
        return np.array([march_distances(cs, u0, dw, h_drive, run_cfg, ev.target), log_w])

    d2, log_w = (row.tolist() for row in _over_chunks(seed, run_cfg, cs.d, n_samples, march))
    # per path in Python floats: math.exp, not np.exp, gives each weight's bits
    n_clipped = sum(w > LOG_WEIGHT_CLIP for w in log_w)
    stats = np.array([math.exp(min(w, LOG_WEIGHT_CLIP)) if d < ev.delta else 0.0
                      for d, w in zip(d2, log_w)])
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
    naive: Sequence[RareEventEstimate],
    cfg: SchemeConfig,
    rate_result: RateFunctionResult,
    theta: float,
) -> list[FWBoundRow]:
    """Tube lower bound check: is eps log p_hat >= -(lambda_hat + theta)?

    naive holds the naive estimates of the tube event ev to bound, one per
    eps, in row order, as estimate_naive makes them under cfg; their eps
    must pass eps_list_ok.  Needs a converged rate estimate for ev's
    target.  A zero-hit estimate falls back to importance sampling with
    the minimizing control, on that estimate's own eps, samples and seed.
    Every input is checked before any march.
    """
    if not rate_result.converged:
        raise ValueError(
            f"rate estimate for the target did not converge: squared residual "
            f"{rate_result.residual:.6g} > tol {rate_result.tol:.6g}"
        )
    if not theta > 0.0:  # NaN fails too
        raise ValueError(f"slack theta must be positive, got {theta}")
    _check_eps_list([est.epsilon for est in naive])
    if any(est.method != "naive" for est in naive):
        raise ValueError("the lower-bound probe bounds naive estimates only")
    bound = -(rate_result.lambda_hat + theta)

    rows = []
    for est in naive:
        eps, n_samples = est.epsilon, est.n_samples
        if est.p_hat == 0.0:
            est = estimate_importance(
                cs, u0, eps, ev, rate_result.h_star, n_samples, est.seed, cfg
            )
        if est.p_hat > 0.0:
            eps_log_p = eps * math.log(est.p_hat)
            rows.append(FWBoundRow(
                epsilon=eps, p_hat=est.p_hat, eps_log_p=eps_log_p, bound=bound,
                satisfied=bool(eps_log_p >= bound), zero_hit=False, method=est.method,
            ))
        else:
            p_up = 1.0 - 0.05 ** (1.0 / n_samples)
            rows.append(FWBoundRow(
                epsilon=eps, p_hat=p_up, eps_log_p=eps * math.log(p_up), bound=bound,
                satisfied=None, zero_hit=True, method=est.method,
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
    numbers), so the reported trend is a coupled comparison: each chunk is
    drawn once and every (eps, start, control) row marches on it.  Starts,
    and controls on cfg's mesh, must be distinct.  Every input is checked
    before any solve.
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
    hs = [ctrl.on_mesh(cfg.mesh) for ctrl in controls]
    for name, arrays in (("starts", u0_set), ("controls", hs)):
        if any(np.array_equal(a, b) for i, a in enumerate(arrays) for b in arrays[:i]):
            raise ValueError(f"two {name} are equal: each would march the same paths again")

    pairs = [(u0, h, solve_skeleton(cs, u0, ctrl, cfg).u)
             for u0 in u0_set for ctrl, h in zip(controls, hs)]
    run_cfgs = [replace(cfg, noise_scale=math.sqrt(eps)) for eps in eps_list]

    def march(dw: np.ndarray) -> np.ndarray:
        return np.array([[march_distances(cs, u0, dw, h, run_cfg, skeleton)
                          for u0, h, skeleton in pairs] for run_cfg in run_cfgs])

    exceed = np.sum(_over_chunks(seed, cfg, cs.d, n_samples, march) >= delta, axis=-1)
    return [ConditionRow(epsilon=eps, worst_fraction=int(most) / n_samples)
            for eps, most in zip(eps_list, exceed.max(axis=1))]
