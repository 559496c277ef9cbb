"""Coefficient sets for the Burgers-type dynamics and their time averages.

A coefficient set bundles the convection antiderivative g(t, z), its
z-derivative, the reaction f(t, x, z) and the d noise amplitudes
sigma(t, x, z).  All callables must be numpy-vectorized: scalar or array
arguments broadcast, g/f return the broadcast shape, sigma returns
(d,) + broadcast shape.

Builtin families:
  * make_burgers_set    - g = a_g z^2/2 plus a bounded reaction/noise profile
  * make_multiscale_set - a time-decaying perturbation of an averaged set,
    engineered so the time-average of the squared deviation vanishes like
    a known kappa(t_hat)

An averaged set is an ordinary CoefficientSet whose f and sigma do not
depend on t (f_bar(x, z) is its f(t, x, z) at any t).  Nothing in the
signature enforces that: it is a condition on the set, which the builtin
family meets by construction.  Readers of f_bar and sigma_bar call
f(0.0, x, z) and sigma(0.0, x, z).

A builtin coefficient that depends on neither t nor the state is a
constant callback, built once: it fills the broadcast shape with its value
and does no arithmetic on z.  On finite z it returns the bits of its
formula, signed zeros included (a zero that takes the sign of z, as a_g z
does at a_g = 0, is not a constant and keeps its formula).  A constant
callback carries the attribute constant = True, and a CoefficientSet
records which of its g, f and sigma are constant in its `constant` field
when it is built, so a solver march evaluates those once instead of every
step (a wrapper set on the built set later does not change the record).

The decay modulus kappa(t_hat) is estimated from a Cesaro mean (1/T)
∫_0^T · ds computed by composite Simpson on geometrically graded panels
(the builtin perturbations decay like a power of 1+s, which a uniform rule
resolves poorly at large horizons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CoefficientSet",
    "make_burgers_set",
    "make_multiscale_set",
    "burgers_multiscale_family",
    "estimate_kappa",
    "time_average",
]

NOISE_PROFILES = ("additive", "bounded")

# Simpson intervals per graded panel of the Cesaro mean (an even count)
PER_PANEL = 16


def _expand(out: np.ndarray, *args) -> np.ndarray:
    """Give out the broadcast shape of args (read-only view if needed)."""
    shape = np.broadcast(*args).shape
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _constant(value: float, lead: tuple[int, ...] = ()) -> Callable[..., np.ndarray]:
    """The constant callback (t, x, z) or (t, z) -> value on lead + broadcast shape.

    np.full is slower than np.empty and fill.
    """

    def constant(*args):
        out = np.empty(lead + np.broadcast(*args).shape)
        out.fill(value)
        return out

    constant.constant = True
    return constant


_zero_g = _constant(0.0)


def _signed_zero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0.0


def _spot_check_derivative(g, dg_dz) -> None:
    # cheap guard that dg_dz matches g; loose tolerance, smooth g assumed
    h = 1e-5
    for t in (0.1, 1.7):
        for z in (-2.3, -0.7, 0.4, 1.9):
            fd = (float(g(t, z + h)) - float(g(t, z - h))) / (2.0 * h)
            an = float(dg_dz(t, z))
            if abs(fd - an) > 5e-3 * max(1.0, abs(an)):
                raise ValueError(
                    f"dg_dz disagrees with finite differences at (t={t}, z={z}): "
                    f"analytic {an}, fd {fd}"
                )


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable coefficients (g, dg_dz, f, sigma) with d noise channels."""

    g: Callable[..., np.ndarray]
    dg_dz: Callable[..., np.ndarray]
    f: Callable[..., np.ndarray]
    sigma: Callable[..., np.ndarray]
    d: int
    # which of g, f and sigma are constant callbacks, read when the set is built
    constant: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"need at least one noise channel, got d={self.d}")
        _spot_check_derivative(self.g, self.dg_dz)
        object.__setattr__(self, "constant", frozenset(
            name for name in ("g", "f", "sigma")
            if getattr(getattr(self, name), "constant", False)))


def make_burgers_set(
    a_g: float = 0.0,
    noise_profile: str = "additive",
    c1: float = 0.0,
    c2: float = 0.0,
    sigma_amp: float = 1.0,
    d: int = 1,
) -> CoefficientSet:
    """Burgers-type set: g = a_g z^2/2, bounded reaction, profile noise.

    f(t, x, z) = c1 * z / (1 + z^2) + c2 is bounded with one-sided slope
    bounded by |c1|.  Noise profiles (identical across channels):
      additive - sigma_j = sigma_amp
      bounded  - sigma_j = sigma_amp * (0.5 + z / (1 + z^2)), Lipschitz in z
    No noise is sigma_amp = 0 (deterministic dynamics).

    g is the zero callback at a_g = 0 (0.5 * 0 * z * z is +0 on finite z),
    f fills c2 at c1 = 0 unless c2 is -0.0 (then 0 * z + c2 takes the
    sign of z), and the additive profile's sigma fills the (d,) +
    broadcast shape: all constant callbacks.
    """
    if noise_profile not in NOISE_PROFILES:
        raise ValueError(f"unknown noise profile {noise_profile!r}; use one of {NOISE_PROFILES}")

    if a_g == 0.0 and not _signed_zero(a_g):
        g = _zero_g
    else:

        def g(t, z):
            z = np.asarray(z, dtype=float)
            return _expand(0.5 * a_g * z * z, t, z)

    def dg_dz(t, z):
        z = np.asarray(z, dtype=float)
        return _expand(a_g * z, t, z)

    if c1 == 0.0 and not _signed_zero(c2):
        f = _constant(c2)
    else:

        def f(t, x, z):
            z = np.asarray(z, dtype=float)
            return _expand(c1 * z / (1.0 + z * z) + c2, t, x, z)

    if noise_profile == "bounded":

        def sigma(t, x, z):
            z = np.asarray(z, dtype=float)
            row = _expand(sigma_amp * (0.5 + z / (1.0 + z * z)), t, x, z)
            return np.broadcast_to(row, (d,) + row.shape)

    else:
        sigma = _constant(sigma_amp, (d,))

    return CoefficientSet(g=g, dg_dz=dg_dz, f=f, sigma=sigma, d=d)


def make_multiscale_set(
    avg: CoefficientSet,
    beta: float,
    amplitude: float,
) -> CoefficientSet:
    """Decaying perturbation of an averaged set.

    With f_bar(x, z) = avg.f(0.0, x, z) and sigma_bar(x, z) = avg.sigma(0.0,
    x, z), f(s, x, z) = f_bar(x, z) + amplitude * (1 + s)^(-beta) and each
    sigma channel picks up (amplitude/sqrt(d)) * (1 + s)^(-beta), so the
    time-average of |f - f_bar|^2 + sum_j |sigma_j - sigma_bar_j|^2 equals
    2 * amplitude^2 * (1/T) ∫ (1+s)^(-2 beta) ds, which vanishes as the
    horizon grows (logarithmically for beta = 1/2).  g, dg_dz and d are
    avg's.  The callables of avg are read when the set is built, so a
    wrapper later set on avg does not reach the fast set.  Periodic
    perturbations are deliberately not offered: their squared deviation
    does not average out.
    """
    if not beta > 0.0:  # NaN fails too
        raise ValueError(f"decay exponent must be positive, got beta={beta}")
    f_bar, sigma_bar = avg.f, avg.sigma
    per_channel = amplitude / math.sqrt(avg.d)

    def f(t, x, z):
        decay = (1.0 + np.asarray(t, dtype=float)) ** (-beta)
        return f_bar(0.0, x, z) + amplitude * decay

    def sigma(t, x, z):
        decay = (1.0 + np.asarray(t, dtype=float)) ** (-beta)
        pert = per_channel * decay
        return sigma_bar(0.0, x, z) + pert[None, ...]

    return CoefficientSet(g=avg.g, dg_dz=avg.dg_dz, f=f, sigma=sigma, d=avg.d)


def burgers_multiscale_family(
    beta: float, amplitude: float, **burgers
) -> tuple[CoefficientSet, CoefficientSet]:
    """Builtin multiscale family: a Burgers set perturbed by (1+s)^(-beta).

    The keyword arguments go to make_burgers_set, which declares their
    defaults.  Returns the fast set together with its exact averaged
    counterpart, the unperturbed Burgers set itself (its callbacks ignore
    t, and its constant record is the one make_burgers_set built), ready
    for coupled averaging experiments.
    """
    avg = make_burgers_set(**burgers)
    return make_multiscale_set(avg, beta, amplitude), avg


def _graded_simpson(t_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes/weights on panels [0,1], [1,2], [2,4], ... up to t_hat."""
    edges = [0.0, min(1.0, t_hat)]
    while edges[-1] < t_hat:
        edges.append(min(2.0 * edges[-1], t_hat))
    nodes, weights = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        h = (right - left) / PER_PANEL
        xs = left + h * np.arange(PER_PANEL + 1)
        ws = np.full(PER_PANEL + 1, 2.0)
        ws[1::2] = 4.0
        ws[0] = ws[-1] = 1.0
        nodes.append(xs)
        weights.append(ws * h / 3.0)
    return np.concatenate(nodes), np.concatenate(weights)


def time_average(func_of_s: Callable[[float], np.ndarray], t_hat: float) -> np.ndarray:
    """(1/t_hat) ∫_0^t_hat func(s) ds by graded composite Simpson."""
    if not 0.0 < t_hat < math.inf:  # NaN fails too
        raise ValueError(f"averaging horizon t_hat must be finite and > 0, got {t_hat}")
    nodes, weights = _graded_simpson(t_hat)
    acc = weights[0] * np.asarray(func_of_s(float(nodes[0])), dtype=float)
    for s, w in zip(nodes[1:], weights[1:]):
        acc = acc + w * np.asarray(func_of_s(float(s)), dtype=float)
    return acc / t_hat


def estimate_kappa(
    cs: CoefficientSet,
    avg: CoefficientSet,
    t_hat_list: Sequence[float],
) -> list[tuple[float, float]]:
    """Decay modulus of the averaged approximation.

    kappa_hat(t_hat) = max over the fixed 7 x 5 (z, x) grid, z in
    linspace(-3, 3, 7) and x in linspace(0.1, 0.9, 5), of
    [(1/t_hat) ∫_0^t_hat |f - f_bar|^2 + sum_j |sigma_j - sigma_bar_j|^2 ds]
    / (1 + z^2), with f_bar and sigma_bar the averaged set's f and sigma,
    read once at t = 0.  Invariant under relabeling of noise channels (the
    channel deviations enter through their sum).
    """
    t_hats = list(t_hat_list)
    if any(b <= a for a, b in zip(t_hats, t_hats[1:])):
        raise ValueError("t_hat_list must be strictly increasing")
    xg, zg = np.meshgrid(np.linspace(0.1, 0.9, 5), np.linspace(-3, 3, 7))
    x, z = xg.ravel(), zg.ravel()
    fb = avg.f(0.0, x, z)
    sb = avg.sigma(0.0, x, z)

    def sq_dev(s: float) -> np.ndarray:
        df = cs.f(s, x, z) - fb
        ds = cs.sigma(s, x, z) - sb
        return df * df + np.sum(ds * ds, axis=0)

    out = []
    for t_hat in t_hats:
        mean_dev = time_average(sq_dev, t_hat)
        kappa_hat = float(np.max(mean_dev / (1.0 + z * z)))
        out.append((t_hat, kappa_hat))
    return out
