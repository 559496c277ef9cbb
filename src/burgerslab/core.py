"""Grids, norms, path metrics and noise generation.

State fields live on M interior nodes of [0, 1] with homogeneous Dirichlet
boundary values; they are plain 1-D float arrays of length M.  The discrete
H norm is the L^2 norm (midpoint weights dx), the discrete V norm is the
H^1_0 seminorm built from all M+1 jumps including the two boundary jumps
against the implicit zeros.

Paths are (steps+1, M) arrays, one row per time node.  Their distance is
measured in C([0,T], H) ∩ L^2([0,T], V), and path_distance returns its
square, sup_t |p-q|_H^2 + ∫ ||p-q||_V^2 dt with left-endpoint quadrature in
time.  _Distances, its one home, takes P paths' rows a window at a time.

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


# The row pass streams the paths through buffers of about this many floats,
# a block of whole time rows, so a distance's scratch stays in cache whatever
# the path length, and a row pass over a window of P paths at once holds no
# more scratch than one path's.
DISTANCE_BLOCK = 8 * 1024


def path_distance(p: np.ndarray, q: np.ndarray, grid: SpatialGrid, mesh: TimeMesh) -> float:
    """Squared C([0,T],H) ∩ L^2([0,T],V) distance between two paths on a common mesh.

    sup_k |p_k - q_k|_H^2 + sum_{k<steps} ||p_k - q_k||_V^2 dt (left-endpoint
    rule, consistent with the time stepping order): the one-path _Distances
    fed the whole path at once.
    """
    distances = _Distances(q, 1, grid, mesh)
    distances.add(0, _check_path(p, grid, mesh)[:, None])
    return distances.squared()[0]


class _Distances:
    """The squared distances of P paths to one reference, fed time rows a window at a time.

    add(first, rows) takes the (n, P, m) states at time rows first ..
    first + n - 1, in one row pass (_distance_rows, through one scratch
    pair built at the first call) into each path's H and V sums; squared(),
    called once after the last add, gives the P squared distances, with the
    same bits however the rows were split into windows.
    """

    def __init__(self, reference: np.ndarray, paths: int, grid: SpatialGrid, mesh: TimeMesh):
        self.reference = _check_path(reference, grid, mesh, "reference")
        self.grid, self.mesh = grid, mesh
        # path-major, so each path's sums reduce as one contiguous row
        self.hsq = np.empty((paths, mesh.steps + 1))
        self.vsq = np.empty_like(self.hsq)
        self.scratch: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, first: int, rows: np.ndarray) -> None:
        if self.scratch is None:
            self.scratch = _distance_scratch(*rows.shape)
        span = slice(first, first + len(rows))
        _distance_rows(rows, self.reference[span, None], self.hsq[:, span].T,
                       self.vsq[:, span].T, self.scratch)

    def squared(self) -> list[float]:
        """sup of each path's H sums plus the left-endpoint sum of its V sums, scaled once."""
        self.hsq *= self.grid.dx
        self.vsq /= self.grid.dx
        return [math.sqrt(float(np.max(h)))**2 + math.sqrt(float(np.sum(v[:-1])) * self.mesh.dt)**2
                for h, v in zip(self.hsq, self.vsq)]


def _distance_scratch(rows: int, paths: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pass's ghost-padded and jump buffers, about DISTANCE_BLOCK floats of whole rows."""
    block = max(1, min(rows, DISTANCE_BLOCK // (paths * (m + 2))))
    return np.zeros((block, paths, m + 2)), np.empty((block, paths, m + 1))


def _distance_rows(p: np.ndarray, q: np.ndarray, hsq: np.ndarray, vsq: np.ndarray,
                   scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """sum((p_k - q_k)^2) and the sum of its squared jumps, for each row k, into hsq, vsq.

    The one row pass of the distance: p is (rows, P, m), q broadcasts
    against it, and hsq, vsq are (rows, P).  The difference goes block by
    block of time rows into the ghost-padded scratch buffer, whose zero
    columns give the boundary jumps (x - 0 and 0 - x are exact), so each
    row's sums have the bits of sum(diff^2) and sum(jumps^2) over the whole
    difference, with the jumps of np.diff and zero ghosts.  The sums are
    unscaled: hsq * dx and vsq / dx are |p_k - q_k|_H^2 and ||p_k - q_k||_V^2.
    """
    padded, jumps = scratch
    block, rows = len(padded), len(p)
    for lo in range(0, rows, block):
        n = min(block, rows - lo)
        diff, jump = padded[:n, ..., 1:-1], jumps[:n]
        np.subtract(p[lo:lo + n], q[lo:lo + n], out=diff)
        np.einsum("...m,...m->...", diff, diff, out=hsq[lo:lo + n])
        np.subtract(padded[:n, ..., 1:], padded[:n, ..., :-1], out=jump)
        np.einsum("...m,...m->...", jump, jump, out=vsq[lo:lo + n])


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
