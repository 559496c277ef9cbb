import math
import tracemalloc

import numpy as np
import pytest

from burgerslab import core
from burgerslab.core import (
    SpatialGrid,
    TimeMesh,
    h_norm,
    path_distance,
    sample_noise,
    sine_field,
    v_norm,
)
from burgerslab.solver import MAX_M


class TestGridMesh:
    def test_dx_partition(self):
        for m in (2, 7, 64, 255):
            g = SpatialGrid(m)
            assert g.dx * (m + 1) == pytest.approx(1.0, abs=1e-15)
            assert g.nodes.shape == (m,)
            assert 0.0 < g.nodes[0] and g.nodes[-1] < 1.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(1)

    def test_mesh_endpoints(self):
        mesh = TimeMesh(2.0, 8)
        assert mesh.dt == pytest.approx(0.25)
        assert mesh.times[0] == 0.0
        assert mesh.times[-1] == pytest.approx(2.0, abs=1e-15)

    def test_bad_mesh(self):
        with pytest.raises(ValueError):
            TimeMesh(0.0, 10)
        with pytest.raises(ValueError):
            TimeMesh(1.0, 0)


class TestNorms:
    def test_h_norm_zero_field(self):
        g = SpatialGrid(8)
        assert h_norm(np.zeros(8), g) == 0.0

    def test_h_norm_ones(self):
        g = SpatialGrid(3)
        assert h_norm(np.ones(3), g) == pytest.approx(math.sqrt(3.0 / 4.0), rel=1e-14)

    def test_h_norm_sine_mode(self):
        g = SpatialGrid(256)
        assert h_norm(sine_field(g), g) == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_zero_amplitude_start_is_zeros(self):
        # a zero start is amplitude 0: +0.0 at every node, the bits of np.zeros
        for m in range(2, MAX_M + 1):
            assert sine_field(SpatialGrid(m), amplitude=0.0).tobytes() == np.zeros(m).tobytes()

    def test_v_norm_zero(self):
        g = SpatialGrid(5)
        assert v_norm(np.zeros(5), g) == 0.0

    def test_v_norm_sine_mode(self):
        g = SpatialGrid(256)
        assert v_norm(sine_field(g), g) == pytest.approx(math.pi / math.sqrt(2), abs=1e-2)

    def test_v_norm_spike(self):
        g = SpatialGrid(9)
        u = np.zeros(9)
        u[4] = 1.0
        assert v_norm(u, g) == pytest.approx(math.sqrt(2.0 / 0.1), rel=1e-12)

    def test_absolute_homogeneity(self):
        g = SpatialGrid(17)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(17)
        for c in (-3.7, -1.0, 0.0, 0.25, 8.0):
            assert h_norm(c * u, g) == pytest.approx(abs(c) * h_norm(u, g), abs=1e-12)
            assert v_norm(c * u, g) == pytest.approx(abs(c) * v_norm(u, g), abs=1e-12)

    def test_discrete_poincare(self):
        rng = np.random.default_rng(1)
        for m in (2, 5, 33, 128):
            g = SpatialGrid(m)
            for _ in range(50):
                u = rng.standard_normal(m) * rng.uniform(0.1, 10)
                assert h_norm(u, g) <= v_norm(u, g) + 1e-12
                assert np.max(np.abs(u)) <= v_norm(u, g) + 1e-12

    def test_dimension_mismatch(self):
        g = SpatialGrid(4)
        with pytest.raises(ValueError):
            h_norm(np.zeros(5), g)
        with pytest.raises(ValueError):
            v_norm(np.zeros(3), g)


class TestPathDistance:
    def setup_method(self):
        self.g = SpatialGrid(16)
        self.mesh = TimeMesh(1.0, 20)

    def _const_path(self, field):
        return np.tile(field, (self.mesh.steps + 1, 1))

    def test_identical_paths(self):
        p = self._const_path(sine_field(self.g))
        assert path_distance(p, p, self.g, self.mesh) == 0.0

    def test_constant_path_arithmetic(self):
        u = sine_field(self.g)
        p = self._const_path(u)
        q = self._const_path(np.zeros(self.g.m))
        a, b = h_norm(u, self.g), v_norm(u, self.g)
        d = path_distance(p, q, self.g, self.mesh)
        assert d == pytest.approx(a**2 + b**2, rel=1e-12)  # T = 1
        # left-endpoint rule: the last row counts only in the sup over H
        last = np.zeros_like(p)
        last[-1] = u
        assert path_distance(last, q, self.g, self.mesh) == pytest.approx(a**2, rel=1e-12)

    def test_heat_flow_sup_at_start(self):
        # difference of the flows from sin and 2 sin is a decaying first mode
        lam = math.pi**2
        t = self.mesh.times
        base = np.exp(-lam * t)[:, None] * sine_field(self.g)[None, :]
        d = path_distance(2 * base, base, self.g, self.mesh)
        h_sq = [h_norm(row, self.g) ** 2 for row in base]
        assert max(h_sq) == h_sq[0]
        int_v_sq = sum(v_norm(row, self.g) ** 2 for row in base[:-1]) * self.mesh.dt
        assert d == pytest.approx(h_norm(sine_field(self.g), self.g) ** 2 + int_v_sq, rel=1e-12)

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(3)
        shape = (self.mesh.steps + 1, self.g.m)
        # sqrt(squared) is a metric: Minkowski's inequality over the sup-H
        # and L2-V parts gives the triangle inequality
        dist = lambda a, b: math.sqrt(path_distance(a, b, self.g, self.mesh))
        for _ in range(25):
            p, q, r = (rng.standard_normal(shape) for _ in range(3))
            assert dist(p, q) == pytest.approx(dist(q, p), rel=1e-12)
            assert dist(p, p) == 0.0
            assert dist(p, q) <= dist(p, r) + dist(r, q) + 1e-10

    def test_mesh_mismatch(self):
        p = np.zeros((21, 16))
        q = np.zeros((11, 16))
        with pytest.raises(ValueError):
            path_distance(p, q, self.g, self.mesh)


def _whole_path_distance(p, q, grid, mesh):
    """path_distance as one pass over whole-path arrays, the bits the blocked one keeps."""
    diff = p - q
    sup_h = math.sqrt(float(np.max(grid.dx * np.einsum("km,km->k", diff, diff))))
    jumps = np.diff(diff, axis=1, prepend=0.0, append=0.0)
    vsq = np.einsum("km,km->k", jumps, jumps) / grid.dx
    l2_v = math.sqrt(float(np.sum(vsq[:-1])) * mesh.dt)
    return sup_h**2 + l2_v**2


class TestBlockedPathDistance:
    """path_distance streams time blocks through two buffers and keeps the bits of one pass."""

    @pytest.mark.parametrize("m", [2, 3, 33, 128])
    def test_equals_whole_path_formula_at_the_block_edges(self, m):
        rows = core.DISTANCE_BLOCK // (m + 2)  # one block's time rows
        rng = np.random.default_rng(m)
        for n_rows in (2, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
            grid, mesh = SpatialGrid(m), TimeMesh(0.5, n_rows - 1)
            for scale in (1.0, 1e-9, 1e7):
                p, q = scale * rng.standard_normal((2, n_rows, m))
                got = path_distance(p, q, grid, mesh)
                assert got == _whole_path_distance(p, q, grid, mesh)

    @pytest.mark.parametrize("block", [1, 5, 6, 7, 40])
    def test_block_length_never_shows(self, monkeypatch, block):
        # m = 4: block floats per buffer give block // 6 time rows (at least one),
        # so 11 rows span one, two or many blocks with a short last one
        grid, mesh = SpatialGrid(4), TimeMesh(1.0, 10)
        p, q = np.random.default_rng(block).standard_normal((2, 11, 4))
        want = _whole_path_distance(p, q, grid, mesh)
        monkeypatch.setattr(core, "DISTANCE_BLOCK", block * 6)
        got = path_distance(p, q, grid, mesh)
        assert got == want

    @pytest.mark.parametrize("steps, m, scale", [
        (1, 3, 1.0), (40, 16, 1e-300), (300, 33, 1e150), (5000, 128, 1.0),
    ])
    def test_distance_to_the_zero_path_at_extreme_scales(self, steps, m, scale):
        # a path's energy, its squared distance to 0 * u: rows longer than a
        # DISTANCE_BLOCK, signed zeros, subnormals and near-overflow keep the bits
        grid, mesh = SpatialGrid(m), TimeMesh(1.0, steps)
        u = scale * np.random.default_rng(steps + m).standard_normal((steps + 1, m))
        u.flat[::7] = -0.0
        u.flat[3::11] = 0.0
        with np.errstate(over="ignore"):
            got = path_distance(u, 0 * u, grid, mesh)
            assert got == _whole_path_distance(u, 0 * u, grid, mesh)

    def test_one_step_and_batch_rows(self):
        grid, mesh = SpatialGrid(2), TimeMesh(1.0, 1)
        p, q = np.array([[0.5, -1.0], [2.0, 0.0]]), np.array([[0.0, 1.0], [-0.0, 3.0]])
        got = path_distance(p, q, grid, mesh)
        assert got == _whole_path_distance(p, q, grid, mesh)
        # rows of a (P, steps+1, m) batch, as the Monte Carlo loops pass them
        grid, mesh = SpatialGrid(12), TimeMesh(0.6, 30)
        batch = np.random.default_rng(5).standard_normal((4, 31, 12))
        for p in batch:
            for q in (batch[0], batch[3], batch[1, :, :][::-1]):
                got = path_distance(p, q, grid, mesh)
                assert got == _whole_path_distance(p, q, grid, mesh)

    @pytest.mark.parametrize("paths", [1, 3])
    def test_window_splits_never_show(self, paths):
        # the accumulator fed in windows of any widths, from one row each to
        # the whole path, keeps the bits of the whole-path feed; rows of
        # signed zeros and of subnormal differences and sums included
        grid, mesh = SpatialGrid(9), TimeMesh(1.0, 40)
        rng = np.random.default_rng(paths)
        u = rng.standard_normal((mesh.steps + 1, paths, grid.m))
        ref = rng.standard_normal((mesh.steps + 1, grid.m))
        scale = np.array([1.0, 1e-160, 1e-310])[np.arange(mesh.steps + 1) % 3]
        u *= scale[:, None, None]
        ref *= scale[:, None]
        u.flat[::7] = -0.0
        ref.flat[3::11] = 0.0

        def fed(widths):
            distances = core._Distances(ref, paths, grid, mesh)
            first = 0
            for width in widths:
                distances.add(first, u[first:first + width])
                first += width
            assert first == len(u)
            return [d.hex() for d in distances.squared()]

        whole = fed([len(u)])
        assert whole == [path_distance(u[:, p], ref, grid, mesh).hex() for p in range(paths)]
        assert fed([1] * len(u)) == whole
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, len(u)), rng.integers(1, 12), replace=False))
            assert fed(np.diff([0, *cuts, len(u)]).tolist()) == whole

    def test_scratch_stays_under_one_mib(self):
        # the reflection_fine workload's size: three path-sized temporaries
        # (~15 MiB) in one pass, two block buffers and two per-row norms here
        grid, mesh = SpatialGrid(128), TimeMesh(0.5, 5000)
        p, q = np.random.default_rng(2).standard_normal((2, 5001, 128))
        path_distance(p, q, grid, mesh)
        tracemalloc.start()
        try:
            path_distance(p, q, grid, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestNoise:
    def test_determinism(self):
        mesh = TimeMesh(1.0, 100)
        a = sample_noise(123, mesh, 3)
        b = sample_noise(123, mesh, 3)
        assert np.array_equal(a, b)

    def test_distinct_seeds(self):
        mesh = TimeMesh(1.0, 100)
        a = sample_noise(5, mesh, 2)
        b = sample_noise(6, mesh, 2)
        assert not np.array_equal(a, b)

    def test_distinct_path_indices(self):
        mesh = TimeMesh(1.0, 100)
        a = sample_noise(5, mesh, 2, path_index=0)
        b = sample_noise(5, mesh, 2, path_index=1)
        assert not np.array_equal(a, b)

    def test_increment_variance(self):
        mesh = TimeMesh(10.0, 100_000)
        nz = sample_noise(7, mesh, 1)
        assert nz.var() == pytest.approx(mesh.dt, rel=0.05)

    def test_channel_count_validated(self):
        mesh = TimeMesh(1.0, 10)
        with pytest.raises(ValueError):
            sample_noise(0, mesh, 0)

    def test_increments_are_read_only_steps_by_channels(self):
        # one row per step, one column per channel, and no caller can change a draw
        mesh = TimeMesh(1.0, 10)
        dw = sample_noise(0, mesh, 2)
        assert dw.shape == (10, 2) and dw.dtype == np.float64
        assert not dw.flags.writeable
        with pytest.raises(ValueError):
            dw[0, 0] = 1.0


def _nan_cases():
    """(name, call) for every range check of the library on a float: each gets NaN."""
    from dataclasses import replace

    from burgerslab.averaging import run_averaging_experiment
    from burgerslab.coefficients import (
        make_burgers_set,
        make_multiscale_set,
        time_average,
    )
    from burgerslab.ldp import (
        EventSpec,
        RareEventEstimate,
        condition_convergence_probe,
        estimate_importance,
        estimate_naive,
        fw_lower_bound_probe,
    )
    from burgerslab.ratefn import RateFunctionResult, rate_function
    from burgerslab.solver import Control, SchemeConfig, solve_batch, solve_skeleton

    nan = math.nan
    grid, mesh = SpatialGrid(4), TimeMesh(0.1, 4)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    cs = make_burgers_set()
    u0 = sine_field(grid)
    flow = solve_skeleton(cs, u0, None, cfg)
    ev = EventSpec(target=flow.u, delta=0.1)
    zero = Control(mesh.t_final, np.zeros((1, 1)))
    rate = RateFunctionResult(lambda_hat=0.0, h_star=zero, residual=0.0, iterations=0,
                              converged=True, tol=1e-3)
    return {
        "TimeMesh.t_final": lambda: TimeMesh(nan, 10),
        "SchemeConfig.time_scale": lambda: SchemeConfig(grid=grid, mesh=mesh, time_scale=nan),
        "SchemeConfig.noise_scale": lambda: SchemeConfig(grid=grid, mesh=mesh, noise_scale=nan),
        "SchemeConfig.penalty_n": lambda: SchemeConfig(grid=grid, mesh=mesh,
                                                       reflection="penalized", penalty_n=nan),
        "Control.t_final": lambda: Control(nan, np.zeros((1, 1))),
        "rate_function.tol": lambda: rate_function(cs, u0, flow.u, cfg, tol=nan),
        "RareEventEstimate.std_err": lambda: RareEventEstimate(
            p_hat=0.5, std_err=nan, n_samples=1, epsilon=0.1, method="naive", seed=0,
            raw_mean=0.5),
        "EventSpec.delta": lambda: EventSpec(target=flow.u, delta=nan),
        "RareEventEstimate.p_hat": lambda: RareEventEstimate(
            p_hat=nan, std_err=0.1, n_samples=1, epsilon=0.1, method="naive", seed=0,
            raw_mean=0.5),
        "estimate_naive.eps": lambda: estimate_naive(cs, u0, nan, ev, 2, 0, cfg),
        "estimate_importance.eps": lambda: estimate_importance(cs, u0, nan, ev, zero, 2, 0, cfg),
        "fw_lower_bound_probe.theta": lambda: fw_lower_bound_probe(
            cs, u0, ev, [estimate_naive(cs, u0, 0.1, ev, 2, 0, cfg)], cfg, rate, nan),
        "fw_lower_bound_probe.eps_list": lambda: fw_lower_bound_probe(
            cs, u0, ev, [estimate_naive(cs, u0, 0.1, ev, 2, 0, cfg),
                         replace(estimate_naive(cs, u0, 0.2, ev, 2, 0, cfg), epsilon=nan)],
            cfg, rate, 0.5),
        "condition_convergence_probe.delta": lambda: condition_convergence_probe(
            cs, [u0], [zero], [0.1], nan, 2, 0, cfg),
        "condition_convergence_probe.eps_list": lambda: condition_convergence_probe(
            cs, [u0], [zero], [0.1, nan], 0.1, 2, 0, cfg),
        "run_averaging_experiment.delta": lambda: run_averaging_experiment(
            cs, cs, u0, [0.1], 2, 0, cfg, delta=nan),
        "make_multiscale_set.beta": lambda: make_multiscale_set(cs, nan, 1.0),
        "time_average.t_hat": lambda: time_average(lambda s: s, nan),
        "solve_batch.u0": lambda: solve_batch(cs, np.where(u0 > 0.5, nan, u0), None, None,
                                              SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)),
    }


@pytest.mark.parametrize("name", list(_nan_cases()))
def test_nan_fails_every_range_check(name):
    # each of these once took NaN and ended later in a misleading blow-up or
    # a rate that never converged
    call = _nan_cases()[name]
    with pytest.raises(ValueError):
        call()


def _inf_cases():
    from burgerslab.coefficients import make_burgers_set, time_average
    from burgerslab.ldp import condition_convergence_probe
    from burgerslab.solver import Control, SchemeConfig

    inf = math.inf
    grid, mesh = SpatialGrid(4), TimeMesh(0.1, 4)
    return {
        "t_final": lambda: TimeMesh(inf, 10),
        "control horizon t_final": lambda: Control(inf, [[1.0]]),
        "noise_scale": lambda: SchemeConfig(grid=grid, mesh=mesh, noise_scale=inf),
        "time_scale": lambda: SchemeConfig(grid=grid, mesh=mesh, time_scale=inf),
        "t_hat": lambda: time_average(lambda s: 1.0, inf),
        "eps_list": lambda: condition_convergence_probe(
            make_burgers_set(), [np.zeros(4)], [Control(0.1, np.zeros((1, 1)))], [0.1, inf], 0.1,
            2, 0, SchemeConfig(grid=grid, mesh=mesh)),
    }


@pytest.mark.parametrize("field", list(_inf_cases()))
def test_infinity_fails_the_finite_range_checks(field):
    # an infinite horizon once built dt = inf, and an infinite noise scale
    # solved into numpy warnings and a blow-up at step 0; the error names the field
    with pytest.raises(ValueError, match=f"{field} must be"):
        _inf_cases()[field]()
