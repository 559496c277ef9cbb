"""Grids, norms, path metrics and noise generation.

State fields live on M interior nodes of [0, 1] with homogeneous Dirichlet
boundary values; they are plain 1-D float arrays of length M.  The discrete
H norm is the L^2 norm (midpoint weights dx), the discrete V norm is the
H^1_0 seminorm built from all M+1 jumps including the two boundary jumps
against the implicit zeros.

Paths are (steps+1, M) arrays, one row per time node.  Their distance is
measured in C([0,T], H) ∩ L^2([0,T], V): the canonical squared form is
sup_t |p-q|_H^2 + ∫ ||p-q||_V^2 dt with left-endpoint quadrature in time.

Noise is a plain (steps, d) array of Brownian increments, one row per
step, as sample_noise draws it; the solver takes it as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpatialGrid",
    "TimeMesh",
    "PathDistance",
    "sine_field",
    "h_norm",
    "v_norm",
    "path_distance",
    "sample_noise",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of M interior nodes x_i = i/(M+1), i = 1..M."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"grid needs at least 2 interior nodes, got m={self.m}")

    @property
    def dx(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(1, self.m + 1)


@dataclass(frozen=True)
class TimeMesh:
    """Uniform time mesh 0 = t_0 < ... < t_steps = T."""

    t_final: float
    steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.t_final < math.inf:  # NaN fails too
            raise ValueError(f"horizon t_final must be positive and finite, got {self.t_final}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)


@dataclass(frozen=True)
class PathDistance:
    """Distance record between two discrete paths.

    squared = sup_h**2 + l2_v**2 is the canonical functional; its square
    root is a metric.
    """

    sup_h: float
    l2_v: float

    @property
    def squared(self) -> float:
        return self.sup_h**2 + self.l2_v**2


def sine_field(grid: SpatialGrid, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * sin(pi x) sampled at the interior nodes (+0.0 at amplitude 0)."""
    return amplitude * np.sin(math.pi * grid.nodes)


def _check_field(u: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.m,):
        raise ValueError(f"field shape {u.shape} does not match grid ({grid.m},)")
    return u


def h_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete L^2([0,1]) norm: (dx * sum u_i^2)^(1/2)."""
    u = _check_field(u, grid)
    return math.sqrt(grid.dx * float(np.dot(u, u)))


def v_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete H^1_0 norm: (sum of (u_{i+1}-u_i)^2 / dx)^(1/2) with ghost zeros."""
    u = _check_field(u, grid)
    jumps = np.diff(u, prepend=0.0, append=0.0)
    return math.sqrt(float(np.dot(jumps, jumps)) / grid.dx)


def _check_path(p: np.ndarray, grid: SpatialGrid, mesh: TimeMesh,
                name: str = "path") -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (mesh.steps + 1, grid.m):
        raise ValueError(
            f"{name} shape {p.shape} does not match (steps+1, m) = "
            f"({mesh.steps + 1}, {grid.m})"
        )
    return p


# path_distance streams the paths through buffers of about this many floats,
# a block of whole time rows, so a distance's scratch stays in cache whatever
# the path length, and a row pass over a window of P paths at once holds no
# more scratch than one path's.
DISTANCE_BLOCK = 8 * 1024


def path_distance(
    p: np.ndarray, q: np.ndarray, grid: SpatialGrid, mesh: TimeMesh
) -> PathDistance:
    """C([0,T],H) ∩ L^2([0,T],V) distance between two paths on a common mesh.

    sup_h = max_k |p_k - q_k|_H; l2_v^2 = sum_{k<steps} ||p_k - q_k||_V^2 dt
    (left-endpoint rule, consistent with the time stepping order).

    The difference goes block by block of time rows into a ghost-padded
    buffer whose zero columns give the boundary jumps (x - 0 and 0 - x are
    exact), so each row's norms have the bits of dx * sum(diff^2) and
    sum(jumps^2) / dx over the whole difference, with the jumps of np.diff
    and zero ghosts, and the scratch is two buffers of about DISTANCE_BLOCK
    floats, not three path-sized arrays.  The row pass (_distance_rows)
    and the reduction (_distance_of_rows) are two parts, so a path held a
    window of rows at a time gets the same bits.
    """
    p = _check_path(p, grid, mesh)
    q = _check_path(q, grid, mesh)
    hsq = np.empty(len(p))
    vsq = np.empty(len(p))
    _distance_rows(p, q, hsq, vsq)
    hsq *= grid.dx
    vsq /= grid.dx
    return _distance_of_rows(hsq, vsq, mesh)


def _distance_scratch(rows: int, paths: tuple[int, ...], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pass's ghost-padded and jump buffers, about DISTANCE_BLOCK floats of whole rows."""
    block = max(1, min(rows, DISTANCE_BLOCK // (math.prod(paths) * (m + 2))))
    return np.zeros((block, *paths, m + 2)), np.empty((block, *paths, m + 1))


def _distance_rows(p: np.ndarray, q: np.ndarray, hsq: np.ndarray, vsq: np.ndarray,
                   scratch: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """sum((p_k - q_k)^2) and the sum of its squared jumps, for each row k, into hsq, vsq.

    The row pass of path_distance: p is (rows, m), or (rows, P, m) for P
    paths, q broadcasts against it, and hsq, vsq are p's shape without m.
    The sums are unscaled: hsq * dx and vsq / dx are |p_k - q_k|_H^2 and
    ||p_k - q_k||_V^2.  Every (row, path) has the bits of the whole-path
    call, so a caller holding paths a window of rows at a time fills each
    path's pair window by window, through one scratch pair
    (_distance_scratch) and one scaling at the end.
    """
    rows, paths, m = p.shape[0], p.shape[1:-1], p.shape[-1]
    padded, jumps = _distance_scratch(rows, paths, m) if scratch is None else scratch
    block = len(padded)
    for lo in range(0, rows, block):
        n = min(block, rows - lo)
        diff, jump = padded[:n, ..., 1:-1], jumps[:n]
        np.subtract(p[lo:lo + n], q[lo:lo + n], out=diff)
        np.einsum("...m,...m->...", diff, diff, out=hsq[lo:lo + n])
        np.subtract(padded[:n, ..., 1:], padded[:n, ..., :-1], out=jump)
        np.einsum("...m,...m->...", jump, jump, out=vsq[lo:lo + n])


def _distance_of_rows(hsq: np.ndarray, vsq: np.ndarray, mesh: TimeMesh) -> PathDistance:
    """The reduction of path_distance: sup over the hsq rows, left-endpoint sum of vsq."""
    sup_h = math.sqrt(float(np.max(hsq)))
    l2_v = math.sqrt(float(np.sum(vsq[:-1])) * mesh.dt)
    return PathDistance(sup_h=sup_h, l2_v=l2_v)


def sample_noise(seed: int, mesh: TimeMesh, d: int, path_index: int = 0) -> np.ndarray:
    """d channels of Brownian increments on mesh, deterministic in (seed, path_index).

    Returns a read-only (steps, d) array whose entry (k, j) is
    W_j(t_{k+1}) - W_j(t_k).  Uses the Philox counter-based generator keyed
    through a spawned SeedSequence, so (master seed, path index) fully
    determines every (step, channel) increment regardless of how paths are
    scheduled, and paths drawn with distinct indices never overlap.
    """
    if d < 1:
        raise ValueError(f"need at least one noise channel, got d={d}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    rng = np.random.Generator(np.random.Philox(ss))
    increments = rng.standard_normal((mesh.steps, d)) * math.sqrt(mesh.dt)
    increments.setflags(write=False)
    return increments
