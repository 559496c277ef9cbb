import math
import weakref
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
    penalization_convergence_probe,
    run_averaging_experiment,
)
from burgerslab.solver import (BlowUpError, SchemeConfig, complementarity_residual, solve,
                               total_variation_k)

GRID = SpatialGrid(16)
MESH = TimeMesh(1.0, 200)
CFG = SchemeConfig(grid=GRID, mesh=MESH)
U0 = sine_field(GRID)


def _small_chunks(monkeypatch, paths_per_chunk):
    monkeypatch.setattr(solver, "BATCH_BYTES", paths_per_chunk * 8 * GRID.m * (MESH.steps + 1))
    assert solver._paths_per_chunk(CFG) == paths_per_chunk


class TestAveragingExperiment:
    def test_zero_amplitude_exact_coupling(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=0.0)
        rep = run_averaging_experiment(ms, avg, U0, [0.1, 0.01], 3, seed=1, cfg=CFG)
        assert all(r.mean_sq_dist == 0.0 for r in rep.rows)

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
                d2.append(path_distance(fast.u, slow.u, GRID, MESH))
            assert row.mean_sq_dist == float(np.mean(d2))
            assert row.std_err == float(np.std(d2)) / math.sqrt(7)

    def test_chunked_equals_unchunked(self, monkeypatch):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        args = (ms, avg, U0, [0.1, 0.01], 7, 4, CFG)
        whole = run_averaging_experiment(*args)
        _small_chunks(monkeypatch, 2)  # chunks of 2, 2, 2 and 1 paths
        assert run_averaging_experiment(*args) == whole

    def test_holds_one_chunk(self, monkeypatch):
        # chunk-major: a chunk's averaged paths, then its fast paths of each
        # eps; when a chunk is marched, only its own averaged paths are left
        # of what was marched before, and no march stores dK
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        _small_chunks(monkeypatch, 2)
        marched = []
        real = averaging.solve_batch

        def tracked(cs, *args, **kwargs):
            alive = [(kind, rows) for kind, rows, ref in marched if ref() is not None]
            assert alive == ([] if cs is avg else [("avg", len(args[1]))])
            assert kwargs == {"store_dk": False}
            u, dk = real(cs, *args, **kwargs)
            assert dk is None
            marched.append(("avg" if cs is avg else "fast", len(u), weakref.ref(u)))
            return u, dk

        monkeypatch.setattr(averaging, "solve_batch", tracked)
        run_averaging_experiment(ms, avg, U0, [0.1, 0.01], 7, 4, CFG)
        assert [(kind, rows) for kind, rows, _ in marched] == (
            [("avg", 2), ("fast", 2), ("fast", 2)] * 3 + [("avg", 1), ("fast", 1), ("fast", 1)])

    def test_blow_up_names_the_global_path_and_replays(self, monkeypatch):
        # the ceiling lies above every path of the first chunk of two and
        # below some of the second: the error is that of the first march of
        # the second chunk to blow up (averaged, then fast per eps), for its
        # lowest row, and its path_index, noise_scale and time_scale, with
        # the seed, replay it with one solve
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        seed, eps_list = 5, [0.1, 0.01]
        marches = [(avg, 1.0)] + [(ms, eps) for eps in eps_list]

        def peaks(cs, time_scale):
            run = replace(CFG, noise_scale=1.0, time_scale=time_scale)
            return [np.max(np.abs(solve(cs, U0, sample_noise(seed, MESH, 1, path_index=i),
                                        None, run).u)) for i in range(4)]

        peak = [peaks(cs, time_scale) for cs, time_scale in marches]
        first_chunk = max(max(p[:2]) for p in peak)
        second_chunk = max(max(p[2:]) for p in peak)
        assert second_chunk > first_chunk
        ceiling = (first_chunk + second_chunk) / 2
        cs, time_scale, row = next((cs, time_scale, i) for (cs, time_scale), p in zip(marches, peak)
                                   for i in (2, 3) if p[i] > ceiling)
        monkeypatch.setattr(solver, "BLOWUP_CEILING", ceiling)
        _small_chunks(monkeypatch, 2)
        with pytest.raises(BlowUpError) as err:
            run_averaging_experiment(ms, avg, U0, eps_list, 4, seed, CFG)
        got = err.value
        assert (got.path_index, got.noise_scale, got.time_scale) == (row, 1.0, time_scale)
        with pytest.raises(BlowUpError) as replay:
            solve(cs, U0, sample_noise(seed, MESH, 1, path_index=got.path_index), None,
                  replace(CFG, noise_scale=got.noise_scale, time_scale=got.time_scale))
        assert (replay.value.step_index, replay.value.t, replay.value.peak) == (
            got.step_index, got.t, got.peak)

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
        dw = np.stack([sample_noise(5, MESH, ms.d, path_index=i)
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

    def test_distinct_eps_required(self, monkeypatch):
        # a repeated eps is rejected before any march, not after the experiment
        calls, kernel = [], solver.cho_solve_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(solver, "cho_solve_banded", counted)
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        cfg = replace(CFG, mesh=TimeMesh(1.0, 50))
        with pytest.raises(ValueError, match="eps_list must be a nonempty list of distinct"):
            run_averaging_experiment(ms, avg, U0, [0.1, 0.1], 4, seed=4, cfg=cfg)
        assert calls == []
        run_averaging_experiment(ms, avg, U0, [0.1, 0.2], 4, seed=4, cfg=cfg)
        assert len(calls) == 150  # the averaged march and one per eps, 50 steps each

    def test_fourth_moment_no_superquartic_growth(self):
        cs = make_burgers_set(1.0, noise_profile="additive")
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=1.0)
        ratios = []
        for c in (1.0, 2.0, 4.0):
            u0c = c * U0
            sups4 = []
            for i in range(100):
                nz = sample_noise(31, MESH, 1, path_index=i)
                u = solve(cs, u0c, nz, None, cfg).u
                sups4.append(max(h_norm(row, GRID) for row in u) ** 4)
            ratios.append(np.mean(sups4) / (1.0 + h_norm(u0c, GRID) ** 4))
        # bounded against 1 + |u0|^4, and not growing with the scaling
        assert max(ratios) < 2.0
        assert ratios[2] / ratios[1] < 1.5


def _diagnostics_hex(p):
    """The projection diagnostics of path p, as the probe returns them, in hex."""
    return [v.hex() for v in (p.min_u, complementarity_residual(p), total_variation_k(p))]


class TestPenalizationProbe:
    def test_inactive_obstacle_gives_zero(self):
        # strong upward forcing keeps the state positive: schemes coincide
        cs = make_burgers_set(0.0, c2=2.0, sigma_amp=0.0)
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
        diagnostics, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), n_list, nz, cfg)
        # the per-n loop the batch replaces
        ref = solve(cs, np.zeros(GRID.m), nz, None, cfg)
        expected = [
            (n, path_distance(
                solve(cs, np.zeros(GRID.m), nz, None,
                      replace(cfg, reflection="penalized", penalty_n=n)).u,
                ref.u, GRID, MESH))
            for n in n_list
        ]
        assert [(n, d2.hex()) for n, d2 in rows] == [(n, d2.hex()) for n, d2 in expected]
        assert [v.hex() for v in diagnostics] == _diagnostics_hex(ref)

    def test_schemes_checked_before_any_solve(self, monkeypatch):
        calls = []

        def counted(fn):
            def run(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return run

        for name in ("solve", "march_distances"):
            monkeypatch.setattr(averaging, name, counted(getattr(averaging, name)))
        cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=0.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=0.0)  # dt = 0.005
        with pytest.raises(ValueError, match="unstable"):
            penalization_convergence_probe(cs, np.zeros(GRID.m), [10, 100, 1000], None, cfg)
        assert calls == []
        diagnostics, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), [], None, cfg)
        assert rows == [] and calls == ["solve"]
        ref = solve(cs, np.zeros(GRID.m), None, None, cfg)
        assert [v.hex() for v in diagnostics] == _diagnostics_hex(ref)
        calls.clear()
        penalization_convergence_probe(cs, np.zeros(GRID.m), [10, 100], None, cfg)
        assert calls == ["solve", "march_distances"]  # the penalized rows march as one batch

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
        diagnostics, rows = penalization_convergence_probe(cs, np.zeros(GRID.m), n_list, nz, cfg)
        ref = solve(cs, np.zeros(GRID.m), nz, None, cfg)
        pen_cfgs = [replace(cfg, reflection="penalized", penalty_n=n) for n in n_list]
        whole = solver.solve_batch(cs, np.zeros(GRID.m), np.repeat(nz[None], 3, axis=0),
                                   None, pen_cfgs)[0]
        expected = [(n, path_distance(u, ref.u, GRID, mesh))
                    for n, u in zip(n_list, whole)]
        assert [(n, d2.hex()) for n, d2 in rows] == [(n, d2.hex()) for n, d2 in expected]
        assert all(d2 > 0.0 for _, d2 in rows)
        assert [v.hex() for v in diagnostics] == _diagnostics_hex(ref)

    @pytest.mark.parametrize("m, steps", [(32, 4000), (64, 2000)])
    def test_penalized_rows_never_held_whole(self, m, steps):
        # tracemalloc peak of the probe: the projection solve's u and dK and
        # a quarter path of scratch; its dK is dropped before the penalized
        # rows march in window-sized buffers
        import tracemalloc

        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.25)
        grid, mesh = SpatialGrid(m), TimeMesh(0.5, steps)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(7, mesh, 1)
        n_list = [10.0, 100.0, 1000.0, 2000.0]
        path_bytes = 8 * (mesh.steps + 1) * grid.m
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, rows = penalization_convergence_probe(cs, np.zeros(grid.m), n_list, nz, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rows) == 4
        assert peak < 2.25 * path_bytes

    @pytest.mark.parametrize("m, mesh", [(16, TimeMesh(0.3, 150)), (9, TimeMesh(0.2, 70))],
                             ids=["m16-steps150", "m9-steps70"])
    @pytest.mark.parametrize("profile", ["additive", "bounded"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_share_one_noise_view(self, monkeypatch, d, profile, m, mesh):
        # every penalized row reads the one noise path through a broadcast
        # view, with the bits of a march on one copy per row: under block
        # forcing (additive, a constant sigma) and per-step forcing (bounded)
        cs = make_burgers_set(0.0, noise_profile=profile, c2=-1.0, sigma_amp=0.5, d=d)
        cfg = SchemeConfig(grid=SpatialGrid(m), mesh=mesh, noise_scale=1.0)
        nz = sample_noise(13, mesh, d)
        n_list = [10.0, 100.0, 300.0]
        seen = []

        def spied(cs, u0, dw, *args):
            seen.append(dw)
            return solver.march_distances(cs, u0, dw, *args)

        monkeypatch.setattr(averaging, "march_distances", spied)
        _, rows = penalization_convergence_probe(cs, np.zeros(m), n_list, nz, cfg)
        assert seen[0].strides[0] == 0  # one view, no copy per row
        ref = solve(cs, np.zeros(m), nz, None, cfg)
        pen_cfgs = [replace(cfg, reflection="penalized", penalty_n=n) for n in n_list]
        copies = np.repeat(nz[None], len(n_list), axis=0)
        expected = solver.march_distances(cs, np.zeros(m), copies, None, pen_cfgs, ref.u)
        assert [d2.hex() for _, d2 in rows] == [d2.hex() for d2 in expected.tolist()]
        assert all(d2 > 0.0 for _, d2 in rows)

    def test_repeat_identical(self):
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=1.0)
        nz = sample_noise(10, MESH, 1)
        a = penalization_convergence_probe(cs, np.zeros(GRID.m), [50.0], nz, cfg)[1]
        b = penalization_convergence_probe(cs, np.zeros(GRID.m), [50.0], nz, cfg)[1]
        assert a == b

    def test_increasing_n_required(self):
        cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=0.0)
        cfg = SchemeConfig(grid=GRID, mesh=MESH, noise_scale=0.0)
        with pytest.raises(ValueError):
            penalization_convergence_probe(cs, np.zeros(GRID.m), [100, 10], None, cfg)
