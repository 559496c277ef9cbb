"""Semi-implicit stepping for the reflected Burgers-type dynamics.

One step advances

    du = u_xx dt + d/dx g(t,u) dt + f(t/tau, x, u) dt
         + sum_j sigma_j(t/tau, x, u) (h_j dt + noise_scale dW_j) + dK

with homogeneous Dirichlet boundaries:

  * Laplacian implicit: (I - dt L) u~ = rhs, solved by a banded Cholesky
    factorization computed once per solve (the matrix is SPD and constant).
  * Convection, reaction, control drift and noise explicit, evaluated at
    the left endpoint.  The reaction and noise coefficients see the dilated
    clock t/time_scale; the convection antiderivative g keeps the plain
    clock, matching the fast-oscillation equation being discretized.
  * Reflection last, so every stored state satisfies the constraint:
    projection clips at zero and books the clipped mass as the reflection
    increment dK (discrete complementarity u * dK = 0 holds exactly);
    penalization adds dt * n * u^- and books that instead (requires
    n * dt <= 1 so the penalty cannot overshoot the constraint).

dK is stored per node as a density increment; the measure mass on a cell
is dx * dK, and the total variation is dx * sum dK since all increments
are nonnegative.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .core import (
    NoisePath,
    SpatialGrid,
    TimeMesh,
    _h_norms_sq,
    _v_norms_sq,
)
from .coefficients import CoefficientSet

__all__ = [
    "SchemeConfig",
    "Control",
    "ReflectedPath",
    "BlowUpError",
    "step",
    "solve",
    "solve_skeleton",
    "complementarity_residual",
    "total_variation_k",
    "energy_functional",
    "write_path_csv",
    "write_path_binary",
    "path_binary_bytes",
    "read_path_binary",
]

REFLECTIONS = ("projection", "penalized")
CONVECTIONS = ("central", "upwind")

BINARY_MAGIC = b"RBPATH01"


class BlowUpError(RuntimeError):
    """State became non-finite or exceeded the ceiling at some step."""

    def __init__(self, step_index: int, t: float, peak: float):
        self.step_index = step_index
        self.t = t
        self.peak = peak
        super().__init__(
            f"state blew up at step {step_index} (t={t:.6g}), max |u| = {peak:.3g}"
        )


@dataclass(frozen=True)
class SchemeConfig:
    """Grid, mesh and scheme options for one solve."""

    grid: SpatialGrid
    mesh: TimeMesh
    reflection: str = "projection"
    penalty_n: float = 0.0
    convection: str = "central"
    time_scale: float = 1.0
    noise_scale: float = 1.0
    blowup_ceiling: float = 1e6

    def __post_init__(self) -> None:
        if self.reflection not in REFLECTIONS:
            raise ValueError(f"unknown reflection {self.reflection!r}; use one of {REFLECTIONS}")
        if self.convection not in CONVECTIONS:
            raise ValueError(f"unknown convection {self.convection!r}; use one of {CONVECTIONS}")
        if self.reflection == "penalized":
            if self.penalty_n <= 0.0:
                raise ValueError("penalized reflection needs penalty_n > 0")
            if self.penalty_n * self.mesh.dt > 1.0 + 1e-12:
                raise ValueError(
                    f"explicit penalty unstable: n*dt = {self.penalty_n * self.mesh.dt:.3g} > 1"
                )
        if self.time_scale <= 0.0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")
        if self.noise_scale < 0.0:
            raise ValueError(f"noise_scale must be nonnegative, got {self.noise_scale}")


@dataclass(frozen=True)
class Control:
    """Piecewise-constant control [0,T] -> R^d on equal blocks.

    values has shape (blocks, d).  energy = 1/2 ∫ |h|^2 dt; the control
    belongs to the energy class D^N exactly when 2 * energy <= N.
    """

    t_final: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"control values must be (blocks, d), got shape {v.shape}")
        if self.t_final <= 0.0:
            raise ValueError(f"control horizon must be positive, got {self.t_final}")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @classmethod
    def zero(cls, t_final: float, d: int, blocks: int = 1) -> "Control":
        return cls(t_final, np.zeros((blocks, d)))

    @classmethod
    def constant(cls, t_final: float, h: np.ndarray | float, d: int = 1) -> "Control":
        row = np.atleast_1d(np.asarray(h, dtype=float))
        if row.shape != (d,):
            raise ValueError(f"constant control must have d={d} components")
        return cls(t_final, row[None, :])

    @property
    def blocks(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def block_dt(self) -> float:
        return self.t_final / self.blocks

    @property
    def l2_sq(self) -> float:
        """∫_0^T |h(t)|^2 dt."""
        return float(np.sum(self.values**2)) * self.block_dt

    @property
    def energy(self) -> float:
        return 0.5 * self.l2_sq

    def in_energy_class(self, n: float) -> bool:
        return self.l2_sq <= n + 1e-12

    def on_mesh(self, mesh: TimeMesh) -> np.ndarray:
        """Expand to per-step values h(t_k), k = 0..steps-1 (left endpoints)."""
        if abs(mesh.t_final - self.t_final) > 1e-12 * max(1.0, self.t_final):
            raise ValueError(
                f"control horizon {self.t_final} does not match mesh horizon {mesh.t_final}"
            )
        return self.values[np.arange(mesh.steps) * self.blocks // mesh.steps]


@dataclass(frozen=True)
class ReflectedPath:
    """Solution path plus reflection bookkeeping.

    u has shape (steps+1, m); dk has shape (steps, m) and pairs with the
    post-reflection state u[k+1].  h_sq and v_sq cache the squared H and V
    norms at every time node.
    """

    grid: SpatialGrid
    mesh: TimeMesh
    u: np.ndarray
    dk: np.ndarray
    h_sq: np.ndarray
    v_sq: np.ndarray
    config: SchemeConfig
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        for arr in (self.u, self.dk, self.h_sq, self.v_sq):
            arr.setflags(write=False)

    @property
    def min_u(self) -> float:
        return float(np.min(self.u))


class _Stepper:
    """Per-solve workspace: node positions and the factored implicit matrix."""

    def __init__(self, cs: CoefficientSet, cfg: SchemeConfig):
        self.cs = cs
        self.cfg = cfg
        self.x = cfg.grid.nodes
        self.dx = cfg.grid.dx
        self.dt = cfg.mesh.dt
        r = self.dt / self.dx**2
        m = cfg.grid.m
        ab = np.zeros((2, m))
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        self._factor = cholesky_banded(ab, lower=False)

    def _convection(self, t: float, u: np.ndarray) -> np.ndarray:
        cs, dx = self.cs, self.dx
        padded = np.zeros(u.size + 2)  # Dirichlet ghosts
        padded[1:-1] = u
        gp = cs.g(t, padded)
        if self.cfg.convection == "central":
            return (gp[2:] - gp[:-2]) / (2.0 * dx)
        speed = cs.dg_dz(t, u)
        forward = (gp[2:] - gp[1:-1]) / dx
        backward = (gp[1:-1] - gp[:-2]) / dx
        return np.where(speed >= 0.0, forward, backward)

    def step(
        self,
        u: np.ndarray,
        t: float,
        dw: np.ndarray | None,
        h: np.ndarray | None,
        step_index: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        cs, cfg = self.cs, self.cfg
        t_fast = t / cfg.time_scale
        rhs = u + self.dt * (self._convection(t, u) + cs.f(t_fast, self.x, u))

        want_noise = cfg.noise_scale > 0.0 and dw is not None
        want_drift = h is not None and np.any(h)
        if want_noise or want_drift:
            sig = cs.sigma(t_fast, self.x, u)
            if want_drift:
                rhs += self.dt * np.dot(h, sig)
            if want_noise:
                rhs += cfg.noise_scale * np.dot(dw, sig)

        u_free = cho_solve_banded((self._factor, False), rhs, check_finite=False)

        if cfg.reflection == "projection":
            u_new = np.maximum(u_free, 0.0)
            dk = u_new - u_free
        else:
            dk = (self.dt * cfg.penalty_n) * np.maximum(-u_free, 0.0)
            u_new = u_free + dk

        peak = float(np.max(np.abs(u_new))) if u_new.size else 0.0
        if not math.isfinite(peak) or peak > cfg.blowup_ceiling:
            raise BlowUpError(step_index, t + self.dt, peak)
        return u_new, dk


def step(
    u: np.ndarray,
    t: float,
    dw: np.ndarray | None,
    h: np.ndarray | None,
    cs: CoefficientSet,
    cfg: SchemeConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one state by one step; returns (new state, reflection increment).

    dw holds the d Brownian increments over [t, t+dt] (None for none),
    h the control values at time t (None for the uncontrolled equation).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (cfg.grid.m,):
        raise ValueError(f"state shape {u.shape} does not match grid ({cfg.grid.m},)")
    return _Stepper(cs, cfg).step(u, t, dw, h)


def solve(
    cs: CoefficientSet,
    u0: np.ndarray,
    noise: NoisePath | None,
    control: Control | None,
    cfg: SchemeConfig,
) -> ReflectedPath:
    """March the scheme over the whole mesh from a nonnegative start.

    Deterministic given (noise, control, cfg).  noise may be omitted only
    when the configured noise scale is zero.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.grid.m,):
        raise ValueError(f"u0 shape {u0.shape} does not match grid ({cfg.grid.m},)")
    if np.min(u0) < 0.0:
        raise ValueError(f"u0 must be nonnegative, min entry is {np.min(u0):.3g}")
    if cfg.noise_scale > 0.0:
        if noise is None:
            raise ValueError("noise_scale > 0 requires a NoisePath")
        if noise.mesh != cfg.mesh:
            raise ValueError("noise mesh does not match scheme mesh")
        if noise.d != cs.d:
            raise ValueError(f"noise has {noise.d} channels, coefficients have {cs.d}")

    steps, m = cfg.mesh.steps, cfg.grid.m
    h_path = control.on_mesh(cfg.mesh) if control is not None else None
    dw = noise.increments if (noise is not None and cfg.noise_scale > 0.0) else None

    stepper = _Stepper(cs, cfg)
    u = np.empty((steps + 1, m))
    dk = np.empty((steps, m))
    u[0] = u0
    times = cfg.mesh.times
    for k in range(steps):
        u[k + 1], dk[k] = stepper.step(
            u[k],
            float(times[k]),
            dw[k] if dw is not None else None,
            h_path[k] if h_path is not None else None,
            step_index=k,
        )

    return ReflectedPath(
        grid=cfg.grid,
        mesh=cfg.mesh,
        u=u,
        dk=dk,
        h_sq=_h_norms_sq(u, cfg.grid),
        v_sq=_v_norms_sq(u, cfg.grid),
        config=cfg,
        noise_seed=noise.seed if noise is not None else None,
    )


def solve_skeleton(
    cs: CoefficientSet,
    u0: np.ndarray,
    control: Control | None,
    cfg: SchemeConfig,
) -> ReflectedPath:
    """Deterministic controlled equation: noise replaced by the drift sigma h."""
    return solve(cs, u0, None, control, replace(cfg, noise_scale=0.0))


def complementarity_residual(p: ReflectedPath) -> float:
    """dx * sum over steps and nodes of u_post * dK.

    Zero exactly for the projection scheme (the increment only acts where
    the clipped state is zero); small and decreasing in n for penalization.
    """
    return p.grid.dx * float(np.sum(p.u[1:] * p.dk))


def total_variation_k(p: ReflectedPath) -> float:
    """Total mass dx * sum dK of the reflection measure (all increments >= 0)."""
    return p.grid.dx * float(np.sum(p.dk))


def energy_functional(p: ReflectedPath) -> tuple[float, float]:
    """(sup_t |u|_H^2, ∫_0^T ||u||_V^2 dt) with left-endpoint quadrature."""
    sup_h_sq = float(np.max(p.h_sq))
    int_v_sq = float(np.sum(p.v_sq[:-1])) * p.mesh.dt
    return sup_h_sq, int_v_sq


def write_path_csv(p: ReflectedPath, fh: TextIO) -> None:
    """CSV dump: one row per time node, columns t then the node values."""
    header = "t," + ",".join(f"x_{xi:.6f}" for xi in p.grid.nodes)
    fh.write(header + "\n")
    for t, row in zip(p.mesh.times, p.u):
        fh.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")


def path_binary_bytes(p: ReflectedPath) -> bytes:
    """Compact dump payload.  Layout (little endian):

    8-byte magic "RBPATH01", int64 m, int64 steps, float64 dt, float64 dx,
    then u as (steps+1)*m row-major float64, then dK as steps*m row-major
    float64.
    """
    return b"".join((
        BINARY_MAGIC,
        struct.pack("<qqdd", p.grid.m, p.mesh.steps, p.mesh.dt, p.grid.dx),
        np.ascontiguousarray(p.u, dtype="<f8").tobytes(),
        np.ascontiguousarray(p.dk, dtype="<f8").tobytes(),
    ))


def write_path_binary(p: ReflectedPath, path: str) -> None:
    """Write the compact dump of path_binary_bytes to a file."""
    with open(path, "wb") as fh:
        fh.write(path_binary_bytes(p))


def read_path_binary(path: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """Inverse of write_path_binary; returns (meta, u, dK)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != BINARY_MAGIC:
            raise ValueError(f"not a path dump (magic {magic!r})")
        m, steps, dt, dx = struct.unpack("<qqdd", fh.read(32))
        u = np.frombuffer(fh.read((steps + 1) * m * 8), dtype="<f8").reshape(steps + 1, m)
        dk = np.frombuffer(fh.read(steps * m * 8), dtype="<f8").reshape(steps, m)
    meta = {"m": m, "steps": steps, "dt": dt, "dx": dx}
    return meta, u.copy(), dk.copy()
