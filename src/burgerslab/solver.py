"""Semi-implicit stepping for the reflected Burgers-type dynamics.

One step advances

    du = u_xx dt + d/dx g(t,u) dt + f(t/tau, x, u) dt
         + sum_j sigma_j(t/tau, x, u) (h_j dt + noise_scale dW_j) + dK

with homogeneous Dirichlet boundaries:

  * Laplacian implicit: (I - dt L) u~ = rhs, solved by a product with the
    dense inverse of that tridiagonal matrix, built once per grid and mesh
    and shared, read-only, by every march on them (the matrix is SPD and
    constant; the grid schema bounds m so the m x m inverse stays cheap).
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

Step k of a march starts at t_k = k * dt, which has the bits of
TimeMesh.times[k] (numpy's linspace computes k * (T / steps) + 0.0), so a
march keeps no list of its times.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .core import (
    NoisePath,
    SpatialGrid,
    TimeMesh,
    _check_path,
    _distance_of_rows,
    _distance_rows,
    _distance_scratch,
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
    "march_distances",
    "solve_skeleton",
    "complementarity_residual",
    "total_variation_k",
    "energy_functional",
    "path_binary_bytes",
    "read_path_binary",
]

REFLECTIONS = ("projection", "penalized")
CONVECTIONS = ("central", "upwind")

BINARY_MAGIC = b"RBPATH01"


class BlowUpError(RuntimeError):
    """State became non-finite or exceeded BLOWUP_CEILING at some step.

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


def stable_penalty(n: float, dt: float) -> bool:
    """Whether n > 0 and n * dt <= 1 (up to rounding): the explicit penalty cannot overshoot."""
    return 0.0 < n and n * dt <= 1.0 + 1e-12


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

    def __post_init__(self) -> None:
        if self.reflection not in REFLECTIONS:
            raise ValueError(f"unknown reflection {self.reflection!r}; use one of {REFLECTIONS}")
        if self.convection not in CONVECTIONS:
            raise ValueError(f"unknown convection {self.convection!r}; use one of {CONVECTIONS}")
        if self.reflection == "penalized":
            if not self.penalty_n > 0.0:  # NaN fails too, here and below
                raise ValueError("penalized reflection needs penalty_n > 0")
            if not stable_penalty(self.penalty_n, self.mesh.dt):
                raise ValueError(
                    f"explicit penalty unstable: n*dt = {self.penalty_n * self.mesh.dt:.3g} > 1"
                )
        # an infinite time scale would freeze the coefficients' clock at t/tau = 0,
        # and a blow-up would record it in failure.json as a number JSON lacks
        if not 0.0 < self.time_scale < math.inf:
            raise ValueError(f"time_scale must be positive and finite, got {self.time_scale}")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be nonnegative and finite, got {self.noise_scale}")


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
        if not 0.0 < self.t_final < math.inf:  # NaN fails too
            raise ValueError(f"control horizon t_final must be positive and finite, "
                             f"got {self.t_final}")
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
    post-reflection state u[k+1].  grid and mesh are the config's; h_sq and
    v_sq, the squared H and V norms per time node, are computed together on
    first read, as the row pass of path_distance against the zero path.
    """

    u: np.ndarray
    dk: np.ndarray
    config: SchemeConfig

    def __post_init__(self) -> None:
        for arr in (self.u, self.dk):
            arr.setflags(write=False)

    @property
    def grid(self) -> SpatialGrid:
        return self.config.grid

    @property
    def mesh(self) -> TimeMesh:
        return self.config.mesh

    @cached_property
    def _norms_sq(self) -> tuple[np.ndarray, np.ndarray]:
        h_sq, v_sq = np.empty(len(self.u)), np.empty(len(self.u))
        _distance_rows(self.u, np.broadcast_to(0.0, self.u.shape), h_sq, v_sq)
        h_sq *= self.grid.dx
        v_sq /= self.grid.dx
        h_sq.setflags(write=False)
        v_sq.setflags(write=False)
        return h_sq, v_sq

    @property
    def h_sq(self) -> np.ndarray:
        return self._norms_sq[0]

    @property
    def v_sq(self) -> np.ndarray:
        return self._norms_sq[1]

    @property
    def min_u(self) -> float:
        return float(np.min(self.u))


# One chunk of a Monte Carlo loop is sized to hold its paths' u in this many
# bytes, so the loop's memory grows with the chunk, not the path count.
BATCH_BYTES = 4 * 2**20


def _paths_per_chunk(cfg: SchemeConfig) -> int:
    """How many paths' u, (steps+1, m) each, fit in BATCH_BYTES (at least one)."""
    return max(1, BATCH_BYTES // (8 * cfg.grid.m * (cfg.mesh.steps + 1)))


def cho_solve_banded(inv: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - dt L) x = b for the (m, P) right-hand sides b; inv is the matrix's inverse.

    One stacked (1, m) x (m, m) product per column, so column p's bits equal
    the solve of that column alone (a single (P, m) x (m, m) gemm does not
    keep them at P >= 3).  inv is symmetric, as the matrix is, so a row
    times inv is the solve.  out, a (P, 1, m) buffer, takes the products
    instead of a new array; x is then a view of it.  This is burgerslab's
    own numpy function, not scipy's routine of the same name: the name
    stays because perfbench/tracer.py patches solver.cho_solve_banded to
    time the kernel and requires calls to it, until a benchmark change
    renames the hook.
    """
    return np.matmul(b.T[:, None, :], inv, out=out)[:, 0].T


# How many implicit inverses stay built, one per (m, dt): every run but the
# heat regression marches on one grid and mesh; that one marches on six, each once.
INVERSES_KEPT = 4


@lru_cache(maxsize=INVERSES_KEPT)
def _implicit_inverse(m: int, dt: float) -> np.ndarray:
    """The read-only inverse of I - dt L on m nodes, tridiagonal with r = dt / dx^2.

    Built once per (m, dt) and shared by every march on that grid and mesh.
    r keeps the grid's dx = 1/(m+1): dt * (m+1)^2 rounds differently.
    """
    r = dt / SpatialGrid(m).dx**2
    off = np.full(m - 1, -r)
    inv = np.linalg.inv(np.diag(np.full(m, 1.0 + 2.0 * r)) + np.diag(off, 1) + np.diag(off, -1))
    inv.setflags(write=False)
    return inv


# The largest grid for the implicit solve: past m = 256 its dense m x m inverse
# falls well behind a banded solve (README "Performance").
MAX_M = 256

# A march looks for a blow-up once per this many steps, over every state
# stored since its last look: one max and one min instead of a check per step.
# It is also the width of a forcing block and of a march_distances window: at
# 16 steps a shipped 81-row chunk at m 32 keeps its window of states and its
# kicks in ~0.7 MiB, inside a 2 MiB L2 cache (README "Performance").
CHECK_EVERY = 16
# A state with some |u| above this counts as blown up, like a non-finite one.
BLOWUP_CEILING = 1e6


class _Stepper:
    """One march: its inputs, the implicit inverse and the buffers a step writes in place.

    The march takes steps steps from the (P, m) states u0 at time t0, step
    k from t0 + k * dt, computed only where a callback or a blow-up reads
    it; dw is (P, steps, d) or None, h is (steps, d) shared or (P,
    steps, d) per row, or None, and penalties holds one penalty n per row,
    so the weight dt * n is a (P, 1) column.  The implicit inverse is the
    shared one of the grid and mesh (_implicit_inverse).  A term whose
    callback the set records as constant (CoefficientSet.constant) is
    evaluated here, once per march, on the start states (which may be a
    broadcast view of one state), and reused by every step, however many
    calls to march the march takes: with a constant g the convection is
    exactly +0.0 and neither g nor dg_dz is called; with a constant f as
    well, dt * (0 + f) is one array; with a constant sigma the drift dt * h
    sigma and the kick noise_scale * dw sigma of a block of CHECK_EVERY
    steps are one product each.  A constant sigma with a shared control
    gives every row the same drift, so the drift buffer then holds one row,
    (width, 1, m), and each step adds it to all P right-hand sides; the kick
    differs per row and stays (width, P, m).  Both are step-major, so a step
    adds one contiguous block.  Any other term is computed per step.  A
    non-constant g sees the state in a ghost-padded (P, m + 2) buffer whose
    Dirichlet ghosts stay zero.  sigma is copied into one C-ordered (d, P,
    m) buffer: no zero strides, so every row takes the BLAS path.  The
    implicit solve writes into one (P, 1, m) buffer.
    """

    def __init__(self, cs: CoefficientSet, cfg: SchemeConfig, u0: np.ndarray,
                 dw: np.ndarray | None, h: np.ndarray | None, penalties: Sequence[float],
                 steps: int, t0: float = 0.0):
        rows, m = u0.shape
        x = cfg.grid.nodes
        self.cs, self.cfg, self.x, self.h = cs, cfg, x, h
        self.steps, self.t0 = steps, t0
        self.dx = cfg.grid.dx
        self.dt = cfg.mesh.dt
        self.penalty = self.dt * np.array(penalties, dtype=float)[:, None]
        self._inv = _implicit_inverse(m, self.dt)
        self._padded = None if "g" in cs.constant else np.zeros((rows, m + 2))
        self._rhs = np.empty((rows, m))
        self._free = np.empty((rows, 1, m))
        self._sigma = np.empty((cs.d, rows, m))
        self._sig_t = self._sigma.transpose(1, 0, 2)
        self.dw = dw if cfg.noise_scale > 0.0 else None
        # steps marched so far, and (step, t, peak) of each row's first bad state
        self.done = 0
        self.first_bad: dict[int, tuple[int, float, float]] = {}
        forced = self.dw is not None or h is not None
        self._block_forcing = forced and "sigma" in cs.constant
        self._forced_per_step = forced and not self._block_forcing
        width = min(CHECK_EVERY, steps) if self._block_forcing else 1
        # a shared control under a constant sigma drives every row alike: one
        # drift row; step-major, so a step adds one contiguous (rows, m) block
        drift_rows = 1 if self._block_forcing and h is not None and h.ndim == 2 else rows
        self._drift = None if h is None else np.empty((width, drift_rows, m))
        self._kick = None if self.dw is None else np.empty((width, rows, m))

        t_fast = t0 / cfg.time_scale
        self._f = cs.f(t_fast, x, u0) if "f" in cs.constant else None
        self._base = None
        if self._f is not None and "g" in cs.constant:
            self._base = np.zeros((rows, m))  # the convection of a constant g
            self._base += self._f
            self._base *= self.dt
        if self._block_forcing:
            np.copyto(self._sigma, cs.sigma(t_fast, x, u0))
        # a step reads its time only for a callback it calls
        self._clocked = self._base is None or self._forced_per_step

    def _time(self, k: int) -> float:
        """The march's time after k steps, t0 + k * dt."""
        return self.t0 + k * self.dt

    def _convection(self, t: float, u: np.ndarray, out: np.ndarray) -> None:
        """d/dx g(t, u) into out, from g on the ghost-padded state (+0.0 for a constant g)."""
        if self._padded is None:
            out.fill(0.0)
            return
        cs, dx, padded = self.cs, self.dx, self._padded
        padded[:, 1:-1] = u
        gp = cs.g(t, padded)
        if self.cfg.convection == "central":
            np.subtract(gp[:, 2:], gp[:, :-2], out=out)
            out /= 2.0 * dx
            return
        speed = cs.dg_dz(t, u)
        forward = (gp[:, 2:] - gp[:, 1:-1]) / dx
        backward = (gp[:, 1:-1] - gp[:, :-2]) / dx
        out[...] = np.where(speed >= 0.0, forward, backward)

    def _forcing(self, lo: int, hi: int) -> None:
        """dt * h sigma and noise_scale * dw sigma of steps lo..hi-1 into the drift, kick buffers.

        Each row and step is one (1, d) x (d, m) matrix product, the BLAS
        call np.dot(c, sigma) makes for one state, so a row's bits never
        depend on the batch or the block around it.  A one-row drift buffer
        (shared control, constant sigma) takes row 0's product, which has
        the bits of every row's own: the rows share h, and a constant sigma
        is the same on every row.
        """
        if self._drift is not None:
            out = np.matmul(self.h[..., lo:hi, None, :], self._sig_t[:self._drift.shape[1], None],
                            out=self._drift[:hi - lo, :, None].swapaxes(0, 1))
            out *= self.dt
        if self._kick is not None:
            out = np.matmul(self.dw[:, lo:hi, None, :], self._sig_t[:, None],
                            out=self._kick[:hi - lo, :, None].swapaxes(0, 1))
            out *= self.cfg.noise_scale

    def march(self, u: np.ndarray, dk: np.ndarray | None) -> None:
        """Fill u[:, 1:] and dk from u[:, 0] by the march's next n steps.

        u is (P, n+1, m) and dk (P, n, m) or None; a whole march is one
        call, and a march in windows is one call per window, each starting
        from the last state of the one before.  A zero control gives the
        bits of no control.
        dk None stores no reflection increments: projection then skips
        them, and penalization books each step's in the next state's row
        before adding u_free to it, so u keeps its bits.
        Every CHECK_EVERY steps the states stored since the last look are
        checked at once, into first_bad.  Rows are independent, so a row
        that blew up keeps stepping (non-finite, warnings off) until no
        lower row can still blow up: the BlowUpError of the lowest bad row,
        with its own first bad step, is raised once row 0 has blown up or
        the march has reached its last step.
        """
        cs, cfg, x, rhs, inv, free = self.cs, self.cfg, self.x, self._rhs, self._inv, self._free
        first, steps = self.done, u.shape[1] - 1
        f, base, drift, kick = self._f, self._base, self._drift, self._kick
        clocked, per_step, penalty = self._clocked, self._forced_per_step, self.penalty
        projection = cfg.reflection == "projection"
        states = u.swapaxes(0, 1)  # states[k] is u[:, k]
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, steps, CHECK_EVERY):
                stop = min(start + CHECK_EVERY, steps)
                if self._block_forcing:
                    self._forcing(first + start, first + stop)
                for k in range(start, stop):
                    uk, j = states[k], k - start
                    if clocked:
                        t = self._time(first + k)
                        t_fast = t / cfg.time_scale
                    # rhs = u + dt * (convection + f), each product and sum as the formula rounds it
                    if base is not None:
                        np.add(base, uk, out=rhs)
                    else:
                        self._convection(t, uk, rhs)
                        rhs += cs.f(t_fast, x, uk) if f is None else f
                        rhs *= self.dt
                        rhs += uk
                    if per_step:
                        np.copyto(self._sigma, cs.sigma(t_fast, x, uk))
                        self._forcing(first + k, first + k + 1)
                        j = 0
                    if drift is not None:
                        rhs += drift[j]
                    if kick is not None:
                        rhs += kick[j]

                    # one implicit solve for every row: P right-hand sides as an (m, P) array
                    u_free = cho_solve_banded(inv, rhs.T, free).T

                    u_next = states[k + 1]
                    if projection:
                        np.maximum(u_free, 0.0, out=u_next)
                        if dk is not None:
                            np.subtract(u_next, u_free, out=dk[:, k])
                    else:
                        # without stored dK the increment is booked in u_next itself
                        dk_k = u_next if dk is None else dk[:, k]
                        np.negative(u_free, out=dk_k)
                        np.maximum(dk_k, 0.0, out=dk_k)
                        dk_k *= penalty
                        np.add(u_free, dk_k, out=u_next)
                self._note_blowups(u[:, start + 1:stop + 1], first + start)
                if 0 in self.first_bad:
                    break
        self.done += steps
        if self.first_bad and (0 in self.first_bad or self.done == self.steps):
            row = min(self.first_bad)
            raise BlowUpError(*self.first_bad[row], path_index=row,
                              noise_scale=cfg.noise_scale, time_scale=cfg.time_scale)

    def _note_blowups(self, block: np.ndarray, start: int) -> None:
        """Record (step, t, peak) of each row's first bad state in block = u[:, start + 1:]."""
        # NaN fails both tests; a projected state is >= 0 or NaN, so its min is not read
        if block.max() <= BLOWUP_CEILING and (
                self.cfg.reflection == "projection" or -block.min() <= BLOWUP_CEILING):
            return
        peak = np.max(np.abs(block), axis=2)
        bad = ~np.isfinite(peak) | (peak > BLOWUP_CEILING)
        for row in np.flatnonzero(bad.any(axis=1)).tolist():
            j = int(np.argmax(bad[row]))
            self.first_bad.setdefault(
                row, (start + j, self._time(start + j) + self.dt, float(peak[row, j])))


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
    A march of one step for a batch of one.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (cfg.grid.m,):
        raise ValueError(f"state shape {u.shape} does not match grid ({cfg.grid.m},)")
    path = np.empty((1, 2, cfg.grid.m))
    path[0, 0] = u
    dk = np.empty((1, 1, cfg.grid.m))
    dw = None if dw is None else np.asarray(dw, float)[None, None]
    h = None if h is None else np.asarray(h, float)[None]
    _Stepper(cs, cfg, path[:, 0], dw, h, [cfg.penalty_n], 1, t).march(path, dk)
    return path[0, 1], dk[0, 0]


def _batch_inputs(
    cs: CoefficientSet,
    u0: np.ndarray,
    dw: np.ndarray | None,
    h: np.ndarray | None,
    cfg: SchemeConfig | Sequence[SchemeConfig],
) -> tuple[SchemeConfig, np.ndarray, np.ndarray | None, np.ndarray | None, list[float]]:
    """solve_batch's checks; returns (cfg, u0, dw, h, one penalty per path)."""
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
    if not np.min(u0) >= 0.0:  # NaN fails too
        raise ValueError(f"u0 must be nonnegative, min entry is {np.min(u0):.3g}")
    steps, d = cfg.mesh.steps, cs.d
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
    return cfg, u0, dw, h, penalties or [cfg.penalty_n] * n_paths


def solve_batch(
    cs: CoefficientSet,
    u0: np.ndarray,
    dw: np.ndarray | None,
    h: np.ndarray | None,
    cfg: SchemeConfig | Sequence[SchemeConfig],
    *,
    store_dk: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """March P paths from one start at once; returns u (P, steps+1, m) and dK.

    dK is (P, steps, m), or None with store_dk False: the march then stores
    no reflection increments, and u keeps its bits.  The averaging loop,
    which never reads dK, passes False; solve keeps it.  A caller that
    only measures rows against one reference calls march_distances, the
    same march without holding the whole path.

    dw holds each path's increments (P, steps, d); it may be None only
    when the noise scale is zero, and is not used then.  h holds control
    values on the mesh, shared (steps, d) or per path (P, steps, d), or is
    None.  cfg is one scheme for every path, or one per path (P configs
    that differ only in penalty_n; anything else raises ValueError), which
    sets the path count when there is no noise or per-path control.  A
    callback the set records as constant is evaluated once per march on
    the (P, m) start states, any other once per step on the (P, m) state;
    each step solves all P right-hand sides in one implicit-solve call.
    Every row marches at once, so the caller sizes the batch (a Monte
    Carlo loop marches _paths_per_chunk rows at a time).  Row p equals,
    bit for bit, the batch of one on row p's inputs and config.  A blow-up
    raises BlowUpError for the lowest row that blows up, with path_index
    that row.
    """
    cfg, u0, dw, h, penalties = _batch_inputs(cs, u0, dw, h, cfg)
    steps, m, paths = cfg.mesh.steps, cfg.grid.m, len(penalties)
    # built first, so the inverse's and the constant terms' scratch is freed below the path
    stepper = _Stepper(cs, cfg, np.broadcast_to(u0, (paths, m)), dw, h, penalties, steps)
    u = np.empty((paths, steps + 1, m))
    dk = np.empty((paths, steps, m)) if store_dk else None
    u[:, 0] = u0
    stepper.march(u, dk)
    return u, dk


def march_distances(
    cs: CoefficientSet,
    u0: np.ndarray,
    dw: np.ndarray | None,
    h: np.ndarray | None,
    cfg: SchemeConfig | Sequence[SchemeConfig],
    reference: np.ndarray,
) -> np.ndarray:
    """Each row's squared path distance to reference, marched without holding a path.

    Takes solve_batch's arguments and one (steps+1, m) reference, all
    checked before any step; row p's distance has the bits of
    path_distance(u[p], reference).squared on solve_batch's u.  The rows
    march through one reused, time-major buffer of CHECK_EVERY steps, and
    one row pass per window (core._distance_rows, through one scratch pair)
    fills each row's (steps+1)-long H and V sums, scaled once at the end
    and reduced as path_distance reduces them.  A
    window is one forcing block and one blow-up check of the march, which
    is one: constant callbacks are evaluated once.  A blow-up raises
    solve_batch's BlowUpError, with the global step and the lowest bad row;
    no window holding a bad state is measured.
    """
    cfg, u0, dw, h, penalties = _batch_inputs(cs, u0, dw, h, cfg)
    reference = _check_path(reference, cfg.grid, cfg.mesh, "reference")
    steps, window, paths, m = cfg.mesh.steps, CHECK_EVERY, len(penalties), cfg.grid.m
    stepper = _Stepper(cs, cfg, np.broadcast_to(u0, (paths, m)), dw, h, penalties, steps)
    hsq = np.empty((paths, steps + 1))
    vsq = np.empty_like(hsq)
    buf = np.empty((min(window, steps) + 1, paths, m))
    buf[0] = u0
    scratch = _distance_scratch(len(buf), (paths,), m)
    for first in range(0, steps, window):
        n = min(window, steps - first)
        if first:
            buf[0] = buf[window]
        stepper.march(buf[:n + 1].transpose(1, 0, 2), None)
        if stepper.first_bad:
            continue
        skip = 1 if first else 0  # the state the window shares with the one before
        rows = slice(first + skip, first + n + 1)
        _distance_rows(buf[skip:n + 1], reference[rows, None], hsq[:, rows].T, vsq[:, rows].T,
                       scratch)
    hsq *= cfg.grid.dx
    vsq /= cfg.grid.dx
    return np.array([_distance_of_rows(a, b, cfg.mesh).squared for a, b in zip(hsq, vsq)])


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
    return ReflectedPath(u[0], dk[0], cfg)


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
    One dot product over the flattened arrays, with no path-sized product.
    """
    return p.grid.dx * float(np.vdot(p.u[1:], p.dk))


def total_variation_k(p: ReflectedPath) -> float:
    """Total mass dx * sum dK of the reflection measure (all increments >= 0)."""
    return p.grid.dx * float(np.sum(p.dk))


def energy_functional(p: ReflectedPath) -> tuple[float, float]:
    """(sup_t |u|_H^2, ∫_0^T ||u||_V^2 dt) with left-endpoint quadrature."""
    sup_h_sq = float(np.max(p.h_sq))
    int_v_sq = float(np.sum(p.v_sq[:-1])) * p.mesh.dt
    return sup_h_sq, int_v_sq


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


def read_path_binary(path: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a file holding path_binary_bytes; returns (meta, u, dK).

    A file whose length is not the one its header implies (cut short, or
    with bytes after dK) is rejected, as is one without the magic.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = len(BINARY_MAGIC) + struct.calcsize("<qqdd")
    if data[:len(BINARY_MAGIC)] != BINARY_MAGIC or len(data) < head:
        raise ValueError(f"not a path dump (magic {data[:len(BINARY_MAGIC)]!r})")
    m, steps, dt, dx = struct.unpack_from("<qqdd", data, len(BINARY_MAGIC))
    size = head + 8 * m * (2 * steps + 1)
    if m < 1 or steps < 1 or len(data) != size:
        raise ValueError(f"path dump of {len(data)} bytes, but its header "
                         f"(m={m}, steps={steps}) implies {size}")
    u = np.frombuffer(data, dtype="<f8", count=(steps + 1) * m, offset=head)
    dk = np.frombuffer(data, dtype="<f8", count=steps * m, offset=head + u.nbytes)
    meta = {"m": m, "steps": steps, "dt": dt, "dx": dx}
    return meta, u.reshape(steps + 1, m).copy(), dk.reshape(steps, m).copy()
