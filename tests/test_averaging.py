import math
from dataclasses import replace

import numpy as np
import pytest

from burgerslab import averaging, solver
from burgerslab.core import (
    SpatialGrid,
    TimeMesh,
    h_norm,
    path_distance,
    sample_noise,
    sine_field,
)
from burgerslab.coefficients import burgers_multiscale_family, make_burgers_set
from burgerslab.averaging import (
    khasminskii_block_error,
    penalization_convergence_probe,
    run_averaging_experiment,
)
from burgerslab.solver import SchemeConfig, solve

GRID = SpatialGrid(16)
MESH = TimeMesh(1.0, 200)
CFG = SchemeConfig(grid=GRID, mesh=MESH)
U0 = sine_field(GRID)


class TestAveragingExperiment:
    def test_zero_amplitude_exact_coupling(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=0.0)
        rep = run_averaging_experiment(ms, avg, U0, [0.1, 0.01], 3, seed=1, cfg=CFG)
        assert all(r.mean_sq_dist == 0.0 for r in rep.rows)
        assert rep.coupling_seed == 1

    def test_distance_decreases_with_eps(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        rep = run_averaging_experiment(
            ms, avg, U0, [0.1, 0.01, 0.001], 8, seed=2, cfg=CFG
        )
        means = [r.mean_sq_dist for r in rep.rows]
        assert means[0] > means[1] > means[2]

    def test_repeat_identical(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        a = run_averaging_experiment(ms, avg, U0, [0.05], 1, seed=3, cfg=CFG)
        b = run_averaging_experiment(ms, avg, U0, [0.05], 1, seed=3, cfg=CFG)
        assert a == b

    def test_batched_matches_per_path_loop(self, monkeypatch):
        # 7 paths in chunks of 3: every distance is the one a solve per path gives
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0, a_g=0.5)
        per_path = 8 * GRID.m * (MESH.steps + 1)
        monkeypatch.setattr(solver, "BATCH_BYTES", 3 * per_path)
        rep = run_averaging_experiment(ms, avg, U0, [0.1, 0.01], 7, seed=4, cfg=CFG)
        for row in rep.rows:
            d2 = []
            for i in range(7):
                nz = sample_noise(4, MESH, 1, path_index=i)
                slow = solve(avg, U0, nz, None, replace(CFG, noise_scale=1.0))
                fast = solve(ms, U0, nz, None,
                             replace(CFG, noise_scale=1.0, time_scale=row.epsilon))
                d2.append(path_distance(fast.u, slow.u, GRID, MESH).squared)
            assert row.mean_sq_dist == float(np.mean(d2))
            assert row.std_err == float(np.std(d2)) / math.sqrt(7)

    @pytest.mark.parametrize("kwargs", [dict(), dict(noise_profile="bounded", d=2)])
    def test_constant_average_evaluated_once_per_march(self, kwargs):
        # the family's averaged set, its callbacks wrapped after it was built
        # as a tracer does: the constant ones once per march, g and dg_dz
        # never, with the bits of calling f and sigma every step
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0, **kwargs)
        per_step = replace(avg, f=lambda t, x, z: avg.f(t, x, z),
                           sigma=lambda t, x, z: avg.sigma(t, x, z))
        calls = []
        for name in ("g", "dg_dz", "f", "sigma"):
            def counted(*args, fn=getattr(avg, name), name=name):
                calls.append(name)
                return fn(*args)
            object.__setattr__(avg, name, counted)
        cfg = replace(CFG, noise_scale=1.0)
        dw = np.stack([sample_noise(5, MESH, ms.d, path_index=i).increments
                       for i in range(3)])
        u, dk = solver.solve_batch(avg, U0, dw, None, cfg)
        steps = MESH.steps
        if "sigma" in avg.constant:
            assert calls == ["f", "sigma"]
        else:
            assert calls.count("f") == 1 and calls.count("sigma") == steps
            assert len(calls) == steps + 1
        calls.clear()
        u_ref, dk_ref = solver.solve_batch(per_step, U0, dw, None, cfg)
        assert calls.count("f") == calls.count("sigma") == steps == len(calls) // 2
        assert (u.tobytes(), dk.tobytes()) == (u_ref.tobytes(), dk_ref.tobytes())

    def test_channel_counts_must_match(self):
        ms = burgers_multiscale_family(beta=0.5, amplitude=1.0, d=2)[0]
        avg = make_burgers_set(d=1)
        with pytest.raises(ValueError, match="channel mismatch"):
            run_averaging_experiment(ms, avg, U0, [0.1], 1, seed=4, cfg=CFG)

    def test_distinct_eps_required(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        with pytest.raises(ValueError):
            run_averaging_experiment(ms, avg, U0, [0.1, 0.1], 1, seed=4, cfg=CFG)

    def test_fourth_moment_no_superquartic_growth(self):
        cs = make_burgers_set(1.0, noise_profile="additive")
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=1.0)
        ratios = []
        for c in (1.0, 2.0, 4.0):
            u0c = c * U0
            sups4 = []
            for i in range(100):
                nz = sample_noise(31, MESH, 1, path_index=i)
                p = solve(cs, u0c, nz, None, cfg)
                sups4.append(float(np.max(p.h_sq)) ** 2)
            ratios.append(np.mean(sups4) / (1.0 + h_norm(u0c, GRID) ** 4))
        # bounded against 1 + |u0|^4, and not growing with the scaling
        assert max(ratios) < 2.0
        assert ratios[2] / ratios[1] < 1.5


class TestKhasminskiiBlocks:
    def test_zero_amplitude_zero_error(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=0.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, time_scale=0.1)
        p = solve(ms, U0, sample_noise(5, MESH, 1), None, cfg)
        assert khasminskii_block_error(ms, avg, p, 0.1, 0.1) == 0.0

    def test_decreasing_in_eps(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        vals = []
        for eps in (0.1, 0.01):
            cfg = SchemeConfig(grid=GRID, mesh=MESH, time_scale=eps)
            p = solve(ms, U0, sample_noise(6, MESH, 1), None, cfg)
            vals.append(khasminskii_block_error(ms, avg, p, 0.1, eps))
        assert vals[1] < vals[0]

    def test_single_block_is_whole_horizon_average(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        eps = 0.05
        cfg = SchemeConfig(grid=GRID, mesh=MESH, time_scale=eps)
        p = solve(ms, U0, sample_noise(7, MESH, 1), None, cfg)
        got = khasminskii_block_error(ms, avg, p, MESH.t_final, eps)
        # independent recomputation: |u0|_H * sum_s |f(s/eps,.,u0)-f_bar(.,u0)|_H dt
        x = GRID.nodes
        acc = 0.0
        for k in range(MESH.steps):
            s = MESH.times[k]
            diff = np.asarray(ms.f(s / eps, x, p.u[0]) - avg.f(0.0, x, p.u[0]))
            acc += math.sqrt(GRID.dx * float(np.dot(diff, diff))) * MESH.dt
        expected = h_norm(p.u[0], GRID) * acc
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bad_block_length(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, time_scale=0.1)
        p = solve(ms, U0, sample_noise(8, MESH, 1), None, cfg)
        with pytest.raises(ValueError):
            khasminskii_block_error(ms, avg, p, 0.0, 0.1)
        with pytest.raises(ValueError):
            khasminskii_block_error(ms, avg, p, 2.0, 0.1)


class TestPenalizationProbe:
    def test_inactive_obstacle_gives_zero(self):
        # strong upward forcing keeps the state positive: schemes coincide
        cs = make_burgers_set(0.0, noise_profile="zero", c2=2.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=0.0)
        _, rows = penalization_convergence_probe(
            cs, 2 * U0, [10.0, 100.0], None, cfg
        )
        assert all(d2 == 0.0 for _, d2 in rows)

    def test_distance_decreases_in_n(self):
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        mesh = TimeMesh(1.0, 2000)
        cfg = SchemeConfig(grid=GRID, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(9, mesh, 1)
        _, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), [10, 100, 1000], nz, cfg)
        d2s = [d2 for _, d2 in rows]
        assert d2s[0] > d2s[1] > d2s[2] > 0.0

    @pytest.mark.parametrize("noise_scale", [0.0, 1.0])
    def test_batched_matches_per_n_solves(self, noise_scale):
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=noise_scale)
        nz = sample_noise(11, MESH, 1)
        n_list = [5.0, 20.0, 80.0, 200.0]
        proj, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), n_list, nz, cfg)
        # the per-n loop the batch replaces
        ref = solve(cs, np.zeros(GRID.m), nz, None, cfg)
        expected = [
            (n, path_distance(
                solve(cs, np.zeros(GRID.m), nz, None,
                      replace(cfg, reflection="penalized", penalty_n=n)).u,
                ref.u, GRID, MESH).squared)
            for n in n_list
        ]
        assert rows == expected
        assert (proj.u.tobytes(), proj.dk.tobytes()) == (ref.u.tobytes(), ref.dk.tobytes())

    def test_schemes_checked_before_any_solve(self, monkeypatch):
        calls = []

        def counted(fn):
            def run(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return run

        for name in ("solve", "march_windows"):
            monkeypatch.setattr(averaging, name, counted(getattr(averaging, name)))
        cs = make_burgers_set(0.0, noise_profile="zero", c2=-1.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=0.0)  # dt = 0.005
        with pytest.raises(ValueError, match="unstable"):
            penalization_convergence_probe(cs, np.zeros(GRID.m), [10, 100, 1000], None, cfg)
        assert calls == []
        proj, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), [], None, cfg)
        assert rows == [] and calls == ["solve"]
        assert proj.u.tobytes() == solve(cs, np.zeros(GRID.m), None, None, cfg).u.tobytes()
        calls.clear()
        penalization_convergence_probe(cs, np.zeros(GRID.m), [10, 100], None, cfg)
        assert calls == ["solve", "march_windows"]  # the penalized rows march as one batch

    @pytest.mark.parametrize("window", [5, 10, 20, 40, 64, 1024])
    def test_windowed_distances_equal_path_distance(self, monkeypatch, window):
        # 600 steps: windows that divide them, one that leaves a short last
        # window, and one longer than the march
        monkeypatch.setattr(solver, "CHECK_EVERY", window)
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        mesh = TimeMesh(0.6, 600)
        cfg = SchemeConfig(grid=GRID, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(12, mesh, 1)
        n_list = [5.0, 50.0, 500.0]
        proj, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), n_list, nz, cfg)
        pen_cfgs = [replace(cfg, reflection="penalized", penalty_n=n) for n in n_list]
        whole = solver.solve_batch(cs, np.zeros(GRID.m), np.repeat(nz.increments[None], 3, axis=0),
                                   None, pen_cfgs)[0]
        expected = [(n, path_distance(u, proj.u, GRID, mesh).squared)
                    for n, u in zip(n_list, whole)]
        assert [(n, d2.hex()) for n, d2 in rows] == [(n, d2.hex()) for n, d2 in expected]
        assert all(d2 > 0.0 for _, d2 in rows)

    def test_penalized_rows_never_held_whole(self):
        # tracemalloc peak of the probe: the projection path (u and dK) and
        # window-sized buffers, below the n penalized rows' full paths alone
        import tracemalloc

        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.25)
        grid, mesh = SpatialGrid(32), TimeMesh(0.5, 4000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(7, mesh, 1)
        n_list = [10.0, 100.0, 1000.0, 2000.0]
        path_bytes = 8 * (mesh.steps + 1) * grid.m
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            proj, rows = penalization_convergence_probe(cs, np.zeros(grid.m), n_list, nz, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rows) == 4
        assert peak < len(n_list) * path_bytes

    def test_repeat_identical(self):
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=1.0)
        nz = sample_noise(10, MESH, 1)
        a = penalization_convergence_probe(cs, np.zeros(GRID.m), [50.0], nz, cfg)[1]
        b = penalization_convergence_probe(cs, np.zeros(GRID.m), [50.0], nz, cfg)[1]
        assert a == b

    def test_increasing_n_required(self):
        cs = make_burgers_set(0.0, noise_profile="zero", c2=-1.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=0.0)
        with pytest.raises(ValueError):
            penalization_convergence_probe(cs, np.zeros(GRID.m), [100, 10], None, cfg)
