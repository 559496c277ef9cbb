"""Semi-implicit stepping for the reflected Burgers-type dynamics.

One step advances

    du = u_xx dt + d/dx g(t,u) dt + f(t/tau, x, u) dt
         + sum_j sigma_j(t/tau, x, u) (h_j dt + noise_scale dW_j) + dK

with homogeneous Dirichlet boundaries:

  * Laplacian implicit: (I - dt L) u~ = rhs, solved by a product with the
    dense inverse of that tridiagonal matrix, computed once per solve (the
    matrix is SPD and constant; the grid schema bounds m so the m x m inverse
    stays cheap).
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
from itertools import islice
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

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
    "solve_batch",
    "solve_paths",
    "solve_skeleton",
    "row_path",
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
    """State became non-finite or exceeded the ceiling at some step.

    path_index is the row of the batch that blew up (0 for a single solve);
    noise_scale and time_scale are the solve's, so that with the noise seed
    one solve replays the blow-up.
    """

    def __init__(self, step_index: int, t: float, peak: float, path_index: int = 0,
                 noise_scale: float = 1.0, time_scale: float = 1.0):
        super().__init__(step_index, t, peak, path_index, noise_scale, time_scale)
        self.step_index = step_index
        self.t = t
        self.peak = peak
        self.path_index = path_index
        self.noise_scale = noise_scale
        self.time_scale = time_scale

    def __str__(self) -> str:
        return (f"path {self.path_index}: state blew up at step {self.step_index} "
                f"(t={self.t:.6g}), max |u| = {self.peak:.3g}")


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


# One chunk of solve_paths keeps its stored u and dK within this many bytes,
# so the memory of a Monte Carlo loop grows with the chunk, not the path count.
BATCH_BYTES = 8 * 2**20


def _paths_per_chunk(cfg: SchemeConfig) -> int:
    """How many paths' stored u and dK fit in BATCH_BYTES (at least one)."""
    return max(1, BATCH_BYTES // (8 * cfg.grid.m * (2 * cfg.mesh.steps + 1)))


def _weighted_channels(c: np.ndarray, sig_t: np.ndarray) -> np.ndarray:
    """sum_j c_j sigma_j per row: c is (d,) or (P, d), sig_t is (P, d, m).

    A matrix product per row makes the same BLAS call np.dot(c, sigma) makes
    for one state, so a row's bits never depend on the batch around it.
    """
    return np.matmul(c.reshape(-1, 1, c.shape[-1]), sig_t)[:, 0]


def cho_solve_banded(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (I - dt L) x = b for the (m, P) right-hand sides b; inv is the matrix's inverse.

    One stacked (1, m) x (m, m) product per column, so column p's bits equal
    the solve of that column alone (a single (P, m) x (m, m) gemm does not
    keep them at P >= 3).  inv is symmetric, as the matrix is, so a row
    times inv is the solve.  This is burgerslab's own numpy function, not
    scipy's routine of the same name: the name stays because
    perfbench/tracer.py patches solver.cho_solve_banded to time the kernel
    and requires calls to it, until a benchmark change renames the hook.
    """
    return np.matmul(b.T[:, None, :], inv)[:, 0].T


class _Stepper:
    """Per-solve workspace: node positions, penalty weight and the inverse implicit matrix.

    penalties, if given, replaces cfg.penalty_n by one penalty per row, so
    the weight dt * n is a (P, 1) column instead of a scalar.
    """

    def __init__(self, cs: CoefficientSet, cfg: SchemeConfig,
                 penalties: Sequence[float] | None = None):
        self.cs = cs
        self.cfg = cfg
        self.x = cfg.grid.nodes
        self.dx = cfg.grid.dx
        self.dt = cfg.mesh.dt
        self.penalty = (self.dt * cfg.penalty_n if penalties is None
                        else self.dt * np.array(penalties, dtype=float)[:, None])
        r = self.dt / self.dx**2
        m = cfg.grid.m
        off = np.full(m - 1, -r)
        self._inv = np.linalg.inv(np.diag(np.full(m, 1.0 + 2.0 * r)) + np.diag(off, 1)
                                  + np.diag(off, -1))

    def _convection(self, t: float, u: np.ndarray) -> np.ndarray:
        cs, dx = self.cs, self.dx
        padded = np.zeros((u.shape[0], u.shape[1] + 2))  # Dirichlet ghosts
        padded[:, 1:-1] = u
        gp = cs.g(t, padded)
        if self.cfg.convection == "central":
            return (gp[:, 2:] - gp[:, :-2]) / (2.0 * dx)
        speed = cs.dg_dz(t, u)
        forward = (gp[:, 2:] - gp[:, 1:-1]) / dx
        backward = (gp[:, 1:-1] - gp[:, :-2]) / dx
        return np.where(speed >= 0.0, forward, backward)

    def step(
        self,
        u: np.ndarray,
        t: float,
        dw: np.ndarray | None,
        h: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the (P, m) states u from t by one step; returns (u_new, dK).

        dw holds each row's d increments (P, d) or is None; h the control
        values at t, shared (d,) or per row (P, d), or None for no drift.
        A zero control gives the bits of no control.
        """
        cs, cfg = self.cs, self.cfg
        t_fast = t / cfg.time_scale
        rhs = u + self.dt * (self._convection(t, u) + cs.f(t_fast, self.x, u))

        want_noise = cfg.noise_scale > 0.0 and dw is not None
        if want_noise or h is not None:
            # a fresh C-ordered copy: no zero strides, so every row takes the BLAS path
            sig_t = np.array(cs.sigma(t_fast, self.x, u), order="C").transpose(1, 0, 2)
            if h is not None:
                rhs += self.dt * _weighted_channels(h, sig_t)
            if want_noise:
                rhs += cfg.noise_scale * _weighted_channels(dw, sig_t)

        # one implicit solve for every row: P right-hand sides as an (m, P) array
        u_free = cho_solve_banded(self._inv, rhs.T).T

        if cfg.reflection == "projection":
            u_new = np.maximum(u_free, 0.0)
            dk = u_new - u_free
        else:
            dk = self.penalty * np.maximum(-u_free, 0.0)
            u_new = u_free + dk
        return u_new, dk

    def blown_rows(self, u_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, peaks): the rows of u_new that are non-finite or over the ceiling."""
        ceiling = self.cfg.blowup_ceiling
        peak = np.max(np.abs(u_new), axis=1)
        rows = np.flatnonzero(~np.isfinite(peak) | (peak > ceiling))
        return rows, peak[rows]

    def march(
        self,
        u: np.ndarray,
        dk: np.ndarray,
        dw: np.ndarray | None,
        h: np.ndarray | None,
    ) -> None:
        """Fill u[:, 1:] and dk from u[:, 0]; raises for the lowest row that blows up.

        dw is (P, steps, d) or None; h is (steps, d) shared or (P, steps, d)
        per row, or None.  Rows are independent, so a row that blew up keeps
        stepping (non-finite, warnings off) until no lower row can still
        blow up; the error carries that row's own first bad step.
        """
        dt, ceiling = self.dt, self.cfg.blowup_ceiling
        times = self.cfg.mesh.times[:-1].tolist()
        first_bad: dict[int, tuple[int, float, float]] = {}
        state = u[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            for k, t in enumerate(times):
                state, dk[:, k] = self.step(
                    state, t, None if dw is None else dw[:, k], None if h is None else h[..., k, :])
                u[:, k + 1] = state
                top = float(np.abs(state).max())
                if not (math.isfinite(top) and top <= ceiling):
                    bad, peaks = self.blown_rows(state)
                    for row, peak in zip(bad.tolist(), peaks.tolist()):
                        first_bad.setdefault(row, (k, t + dt, peak))
                    if 0 in first_bad:
                        break
        if first_bad:
            row = min(first_bad)
            raise BlowUpError(*first_bad[row], path_index=row,
                              noise_scale=self.cfg.noise_scale, time_scale=self.cfg.time_scale)


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
    A batch of one through the batched step.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (cfg.grid.m,):
        raise ValueError(f"state shape {u.shape} does not match grid ({cfg.grid.m},)")
    stepper = _Stepper(cs, cfg)
    u_new, dk = stepper.step(
        u[None], t, None if dw is None else np.asarray(dw, float)[None],
        None if h is None else np.asarray(h, float)[None],
    )
    bad, peaks = stepper.blown_rows(u_new)
    if bad.size:
        raise BlowUpError(0, t + stepper.dt, float(peaks[0]),
                          noise_scale=cfg.noise_scale, time_scale=cfg.time_scale)
    return u_new[0], dk[0]


def solve_batch(
    cs: CoefficientSet,
    u0: np.ndarray,
    dw: np.ndarray | None,
    h: np.ndarray | None,
    cfg: SchemeConfig | Sequence[SchemeConfig],
) -> tuple[np.ndarray, np.ndarray]:
    """March P paths from one start at once; returns u (P, steps+1, m), dK (P, steps, m).

    dw holds each path's increments (P, steps, d); it may be None only
    when the noise scale is zero, and is not used then.  h holds control
    values on the mesh, shared (steps, d) or per path (P, steps, d), or is
    None.  cfg is one scheme for every path, or one per path (P configs
    that differ only in penalty_n; anything else raises ValueError), which
    sets the path count when there is no noise or per-path control.  Each
    step evaluates the callbacks once on the (P, m) state and solves all P
    right-hand sides in one implicit-solve call; every row marches at once,
    so the caller sizes the batch (solve_paths chunks a long one).  Row p equals,
    bit for bit, the batch of one on row p's inputs and config.  A blow-up
    raises BlowUpError for the lowest row that blows up, with path_index
    that row.
    """
    sizes = set()
    penalties = None
    if not isinstance(cfg, SchemeConfig):
        cfgs = list(cfg)
        if not cfgs:
            raise ValueError("need at least one scheme config")
        cfg = cfgs[0]
        if any(replace(c, penalty_n=cfg.penalty_n) != cfg for c in cfgs):
            raise ValueError("the scheme configs of one batch may differ only in penalty_n")
        penalties = [c.penalty_n for c in cfgs]
        sizes.add(len(cfgs))
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.grid.m,):
        raise ValueError(f"u0 shape {u0.shape} does not match grid ({cfg.grid.m},)")
    if np.min(u0) < 0.0:
        raise ValueError(f"u0 must be nonnegative, min entry is {np.min(u0):.3g}")
    steps, m, d = cfg.mesh.steps, cfg.grid.m, cs.d
    if dw is not None:
        dw = np.asarray(dw, dtype=float)
        if dw.ndim != 3 or dw.shape[1:] != (steps, d):
            raise ValueError(f"increments shape {dw.shape} does not match (P, {steps}, {d})")
        sizes.add(dw.shape[0])
    elif cfg.noise_scale > 0.0:
        raise ValueError("noise_scale > 0 requires Brownian increments")
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape[-2:] != (steps, d) or h.ndim not in (2, 3):
            raise ValueError(f"control shape {h.shape} does not match ([P,] {steps}, {d})")
        if h.ndim == 3:
            sizes.add(h.shape[0])
    if len(sizes) > 1:
        raise ValueError(
            f"increments, controls and configs disagree on the path count: {sorted(sizes)}")
    n_paths = sizes.pop() if sizes else 1

    u = np.empty((n_paths, steps + 1, m))
    dk = np.empty((n_paths, steps, m))
    u[:, 0] = u0
    _Stepper(cs, cfg, penalties).march(u, dk, dw, h)
    return u, dk


def solve_paths(
    cs: CoefficientSet,
    u0: np.ndarray,
    increments: Iterable[np.ndarray],
    h: np.ndarray | None,
    cfg: SchemeConfig,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (dw, u) per path, solving the paths a chunk at a time.

    increments holds each path's (steps, d) increments and is pulled one
    chunk at a time; h is a control shared by every path, (steps, d) or
    None.  A chunk is as many paths as fit BATCH_BYTES and runs as one
    solve_batch, so u equals the batch of one bit for bit.  dw is the
    path's increments as given and u a copy of its row, so a path the
    caller keeps does not keep its chunk, and no chunk is left when the
    next is drawn and solved: with a lazy iterable the noise and paths in
    memory grow with one chunk, not the path count.  A blow-up raises for
    the lowest path index that blows up, with path_index counted from the
    first path.
    """
    paths = iter(increments)
    first, size = 0, _paths_per_chunk(cfg)
    while chunk := list(islice(paths, size)):
        try:
            u = solve_batch(cs, u0, np.stack(chunk), h, cfg)[0]
        except BlowUpError as err:
            err.path_index += first
            raise
        first += len(chunk)
        yield from zip(chunk, map(np.copy, u))
        del chunk, u


def solve(
    cs: CoefficientSet,
    u0: np.ndarray,
    noise: NoisePath | None,
    control: Control | None,
    cfg: SchemeConfig,
) -> ReflectedPath:
    """March the scheme over the whole mesh from a nonnegative start.

    Deterministic given (noise, control, cfg).  noise may be omitted only
    when the configured noise scale is zero.  A batch of one.
    """
    if cfg.noise_scale > 0.0:
        if noise is None:
            raise ValueError("noise_scale > 0 requires a NoisePath")
        if noise.mesh != cfg.mesh:
            raise ValueError("noise mesh does not match scheme mesh")
        if noise.d != cs.d:
            raise ValueError(f"noise has {noise.d} channels, coefficients have {cs.d}")
    dw = noise.increments[None] if (noise is not None and cfg.noise_scale > 0.0) else None
    h = control.on_mesh(cfg.mesh) if control is not None else None
    u, dk = solve_batch(cs, u0, dw, h, cfg)
    return row_path(u[0], dk[0], cfg, noise.seed if noise is not None else None)


def row_path(u: np.ndarray, dk: np.ndarray, cfg: SchemeConfig,
             noise_seed: int | None = None) -> ReflectedPath:
    """One row (u, dK) of solve_batch under cfg as a path, its norms cached."""
    return ReflectedPath(
        grid=cfg.grid,
        mesh=cfg.mesh,
        u=u,
        dk=dk,
        h_sq=_h_norms_sq(u, cfg.grid),
        v_sq=_v_norms_sq(u, cfg.grid),
        config=cfg,
        noise_seed=noise_seed,
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
