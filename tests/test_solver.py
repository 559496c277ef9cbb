import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from burgerslab import solver
from burgerslab.core import SpatialGrid, TimeMesh, h_norm, sample_noise, sine_field
from burgerslab.coefficients import burgers_multiscale_family, make_burgers_set
from burgerslab.solver import (
    BlowUpError,
    Control,
    SchemeConfig,
    complementarity_residual,
    energy_functional,
    read_path_binary,
    solve,
    solve_batch,
    solve_paths,
    solve_skeleton,
    step,
    total_variation_k,
    write_path_binary,
    write_path_csv,
)

ZERO = make_burgers_set(0.0, noise_profile="zero")
ADDITIVE = make_burgers_set(0.0, noise_profile="additive")
FORCED_DOWN = make_burgers_set(0.0, noise_profile="zero", c2=-1.0)


def heat_exact(grid, mesh, amplitude=1.0):
    lam = math.pi**2
    return amplitude * np.exp(-lam * mesh.times)[:, None] * np.sin(
        math.pi * grid.nodes
    )[None, :]


class TestSchemeConfig:
    def test_penalty_stability_guard(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 100)  # dt = 0.01
        SchemeConfig(grid=grid, mesh=mesh, reflection="penalized", penalty_n=100.0)
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, reflection="penalized", penalty_n=101.0)
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, reflection="penalized", penalty_n=0.0)

    def test_bad_options(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 10)
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, reflection="clip")
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, convection="weno")
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, time_scale=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(grid=grid, mesh=mesh, noise_scale=-0.1)


class TestControl:
    def test_energy(self):
        ctrl = Control(2.0, np.array([[1.0], [3.0]]))  # blocks of length 1
        assert ctrl.l2_sq == pytest.approx(10.0)
        assert ctrl.energy == pytest.approx(5.0)
        assert ctrl.in_energy_class(10.0)
        assert not ctrl.in_energy_class(9.9)

    def test_on_mesh_expansion(self):
        ctrl = Control(1.0, np.array([[1.0], [2.0]]))
        mesh = TimeMesh(1.0, 10)
        vals = ctrl.on_mesh(mesh)
        assert vals.shape == (10, 1)
        assert np.all(vals[:5, 0] == 1.0) and np.all(vals[5:, 0] == 2.0)

    def test_on_mesh_blocks_split_evenly(self):
        # every steps <= 400 and blocks <= 16: blocks in order, each floor or
        # ceil of steps/blocks steps (a float floor of t/block_dt gave 15
        # steps over 5 blocks as 3,3,4,2,3)
        for steps in range(1, 401):
            mesh = TimeMesh(1.0, steps)
            for blocks in range(1, min(16, steps) + 1):
                ctrl = Control(1.0, np.arange(float(blocks))[:, None])
                idx = ctrl.on_mesh(mesh)[:, 0].astype(int)
                assert np.all(np.diff(idx) >= 0), (steps, blocks)
                counts = np.bincount(idx, minlength=blocks)
                lo, hi = steps // blocks, -(-steps // blocks)
                assert np.all((counts == lo) | (counts == hi)), (steps, blocks, counts)

    def test_horizon_mismatch(self):
        ctrl = Control.constant(2.0, 1.0)
        with pytest.raises(ValueError):
            ctrl.on_mesh(TimeMesh(1.0, 10))

    def test_zero(self):
        ctrl = Control.zero(1.0, 3)
        assert ctrl.energy == 0.0 and ctrl.d == 3


class TestStep:
    def test_zero_everything(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 100)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        u_new, dk = step(np.zeros(8), 0.0, None, None, ZERO, cfg)
        assert np.all(u_new == 0.0) and np.all(dk == 0.0)

    def test_heat_step_matches_dense_solve(self):
        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 1000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        u = sine_field(grid) + 0.2 * sine_field(grid, k=3)
        u_new, _ = step(u, 0.0, None, None, ZERO, cfg)
        # independent oracle: dense solve of (I - dt L) v = u
        m, dx, dt = grid.m, grid.dx, mesh.dt
        lap = (np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1)
               + np.diag(np.ones(m - 1), -1)) / dx**2
        oracle = np.linalg.solve(np.eye(m) - dt * lap, u)
        assert u_new == pytest.approx(oracle, abs=1e-12)

    def test_downward_forcing_one_step(self):
        grid, mesh = SpatialGrid(64), TimeMesh(1.0, 10000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        u_new, dk = step(np.zeros(64), 0.0, None, None, FORCED_DOWN, cfg)
        assert np.all(u_new == 0.0)
        # away from the boundary layer the free step is exactly -dt
        assert dk[32] == pytest.approx(mesh.dt, rel=1e-9)
        assert np.all(dk >= 0.0)

    def test_upwind_stencil_for_linear_transport(self):
        # g = z: positive wave speed, upwind takes the forward difference
        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 1000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0, convection="upwind")
        cs = make_burgers_set(0.0, noise_profile="zero")
        lin = type(cs)(
            g=lambda t, z: np.asarray(z, float) + np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))),
            dg_dz=lambda t, z: np.ones(np.broadcast_shapes(np.shape(t), np.shape(z))),
            f=cs.f, sigma=cs.sigma, d=1,
        )
        u = sine_field(grid)
        u_new, _ = step(u, 0.0, None, None, lin, cfg)
        padded = np.concatenate([[0.0], u, [0.0]])
        forward = (padded[2:] - padded[1:-1]) / grid.dx
        m, dx, dt = grid.m, grid.dx, mesh.dt
        lap = (np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1)
               + np.diag(np.ones(m - 1), -1)) / dx**2
        oracle = np.linalg.solve(np.eye(m) - dt * lap, u + dt * forward)
        assert u_new == pytest.approx(oracle, abs=1e-12)

    def test_upwind_consistent_with_central(self):
        # both discretizations converge to the same Burgers flow
        cs = make_burgers_set(1.0, noise_profile="zero")
        grid, mesh = SpatialGrid(128), TimeMesh(0.2, 2000)
        flows = {}
        for conv in ("central", "upwind"):
            cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0, convection=conv)
            flows[conv] = solve_skeleton(cs, sine_field(grid), None, cfg).u
        gap = np.max(np.abs(flows["central"] - flows["upwind"]))
        assert 0.0 < gap < 5e-3


class TestImplicitSolve:
    """The implicit solve against its matrix, and the numpy-only import."""

    # r = dt / dx^2 from a gentle step up to the rare_event workload's
    # 0.02 * 33^2 = 21.78 (m 32, dt 0.02)
    @pytest.mark.parametrize("r", [0.01, 0.5, 4.0, 21.78])
    @pytest.mark.parametrize("m", [2, 3, 32, 256])
    def test_solves_the_tridiagonal_system(self, m, r):
        grid = SpatialGrid(m)
        cfg = SchemeConfig(grid=grid, mesh=TimeMesh(r * grid.dx**2, 1), noise_scale=0.0)
        inv = solver._Stepper(ZERO, cfg)._inv
        matrix = ((1.0 + 2.0 * r) * np.eye(m) - r * np.eye(m, k=1) - r * np.eye(m, k=-1))
        b = np.random.default_rng(m).normal(size=(m, 5))
        x = solver.cho_solve_banded(inv, b)
        assert x.shape == (m, 5)
        for p in range(5):
            residual = np.linalg.norm(matrix @ x[:, p] - b[:, p])
            assert residual <= 1e-13 * np.linalg.norm(b[:, p])

    @pytest.mark.parametrize("n_rhs", [1, 3, 8, 40])
    @pytest.mark.parametrize("m", [2, 3, 32, 256])
    def test_columns_equal_solve_of_one(self, m, n_rhs):
        # a single (P, m) x (m, m) gemm changes the bits of a row at P >= 3
        grid = SpatialGrid(m)
        cfg = SchemeConfig(grid=grid, mesh=TimeMesh(21.78 * grid.dx**2, 1), noise_scale=0.0)
        inv = solver._Stepper(ZERO, cfg)._inv
        b = np.random.default_rng(n_rhs).normal(size=(m, n_rhs))
        x = solver.cho_solve_banded(inv, b)
        for p in range(n_rhs):
            assert x[:, p].tobytes() == solver.cho_solve_banded(inv, b[:, p:p + 1])[:, 0].tobytes()

    def test_runs_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import burgerslab.cli\n"
            "from burgerslab.coefficients import make_burgers_set\n"
            "from burgerslab.core import SpatialGrid, TimeMesh, sample_noise, sine_field\n"
            "from burgerslab.solver import SchemeConfig, solve\n"
            "grid, mesh = SpatialGrid(8), TimeMesh(0.1, 10)\n"
            "cs = make_burgers_set(1.0, noise_profile='additive')\n"
            "path = solve(cs, sine_field(grid), sample_noise(0, mesh, cs.d), None,\n"
            "             SchemeConfig(grid=grid, mesh=mesh))\n"
            "assert path.min_u >= 0.0\n"
            "loaded = [k for k, v in sys.modules.items()\n"
            "          if k.split('.')[0] == 'scipy' and v is not None]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestSolve:
    def test_zero_path(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 50)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, np.zeros(8), None, cfg)
        assert np.all(p.u == 0.0) and np.all(p.dk == 0.0)
        assert total_variation_k(p) == 0.0
        assert complementarity_residual(p) == 0.0

    def test_heat_flow_accuracy(self):
        grid, mesh = SpatialGrid(64), TimeMesh(0.1, 1000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, sine_field(grid), None, cfg)
        err = np.max(np.abs(p.u - heat_exact(grid, mesh)))
        assert err < 1e-3

    def test_heat_time_refinement_halves_error(self):
        grid = SpatialGrid(256)  # fine grid so dt error dominates
        cfg_kwargs = dict(grid=grid, noise_scale=0.0)
        errs = []
        for steps in (50, 100):
            mesh = TimeMesh(0.1, steps)
            cfg = SchemeConfig(mesh=mesh, **cfg_kwargs)
            p = solve_skeleton(ZERO, sine_field(grid), None, cfg)
            errs.append(
                max(h_norm(p.u[k] - heat_exact(grid, mesh)[k], grid)
                    for k in range(mesh.steps + 1))
            )
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_heat_space_refinement_quarters_error(self):
        errs = []
        for m in (16, 32):
            grid = SpatialGrid(m)
            mesh = TimeMesh(0.05, 5000)  # dt error negligible
            cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
            p = solve_skeleton(ZERO, sine_field(grid), None, cfg)
            errs.append(
                max(h_norm(p.u[k] - heat_exact(grid, mesh)[k], grid)
                    for k in range(mesh.steps + 1))
            )
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_downward_forcing_reflection_budget(self):
        grid, mesh = SpatialGrid(64), TimeMesh(0.1, 5000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(FORCED_DOWN, np.zeros(64), None, cfg)
        assert p.min_u == 0.0
        assert complementarity_residual(p) == 0.0
        # K mass approximately covers the forcing over the resolved interior
        expected = grid.dx * grid.m * mesh.t_final
        assert total_variation_k(p) == pytest.approx(expected, rel=0.02)

    def test_tv_stable_under_dt_refinement(self):
        grid = SpatialGrid(64)
        tvs = []
        for steps in (2000, 4000):
            mesh = TimeMesh(0.1, steps)
            cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
            tvs.append(total_variation_k(solve_skeleton(FORCED_DOWN, np.zeros(64), None, cfg)))
        assert abs(tvs[0] - tvs[1]) / tvs[1] < 0.02

    def test_noisy_path_stays_nonnegative(self):
        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 200)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(2, mesh, 1)
        p = solve(ADDITIVE, np.zeros(32), nz, None, cfg)
        assert p.min_u >= 0.0
        assert complementarity_residual(p) == 0.0
        assert p.noise_seed == 2

    def test_two_channel_noise(self):
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 100)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.8)
        cs2 = make_burgers_set(0.5, noise_profile="bounded", d=2)
        nz = sample_noise(8, mesh, 2)
        p = solve(cs2, sine_field(grid), nz, None, cfg)
        q = solve(cs2, sine_field(grid), sample_noise(8, mesh, 2), None, cfg)
        assert p.min_u >= 0.0
        assert np.array_equal(p.u, q.u)
        # channel count mismatch rejected
        with pytest.raises(ValueError):
            solve(cs2, sine_field(grid), sample_noise(8, mesh, 1), None, cfg)

    def test_negative_start_rejected(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 10)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        with pytest.raises(ValueError):
            solve_skeleton(ZERO, -np.ones(8), None, cfg)

    def test_missing_noise_rejected(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 10)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        with pytest.raises(ValueError):
            solve(ADDITIVE, np.zeros(8), None, None, cfg)

    def test_determinism(self):
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 100)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.7)
        cs = make_burgers_set(1.0, noise_profile="additive", c1=0.5)
        a = solve(cs, sine_field(grid), sample_noise(9, mesh, 1), None, cfg)
        b = solve(cs, sine_field(grid), sample_noise(9, mesh, 1), None, cfg)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.dk, b.dk)

    def test_skeleton_repeat_bit_identical(self):
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 100)
        cfg = SchemeConfig(grid=grid, mesh=mesh)
        ctrl = Control.constant(1.0, 0.8)
        a = solve_skeleton(ADDITIVE, sine_field(grid), ctrl, cfg)
        b = solve_skeleton(ADDITIVE, sine_field(grid), ctrl, cfg)
        assert np.array_equal(a.u, b.u)

    def test_constant_control_poisson_limit(self):
        # u_t = u_xx + c settles at the discrete Poisson solution c x(1-x)/2
        grid, mesh = SpatialGrid(64), TimeMesh(2.0, 2000)
        cfg = SchemeConfig(grid=grid, mesh=mesh)
        c = 3.0
        p = solve_skeleton(ADDITIVE, np.zeros(64), Control.constant(2.0, c), cfg)
        exact = c * grid.nodes * (1 - grid.nodes) / 2
        assert np.max(np.abs(p.u[-1] - exact)) <= 0.05 * c / 8

    def test_blow_up_reports_step(self):
        grid, mesh = SpatialGrid(64), TimeMesh(1.0, 50)  # coarse dt
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0, blowup_ceiling=1e4)
        cs = make_burgers_set(8.0, noise_profile="zero")
        with pytest.raises(BlowUpError) as err:
            solve_skeleton(cs, 50 * sine_field(grid), None, cfg)
        assert 0 <= err.value.step_index < mesh.steps


class TestProjectionInvariants:
    """Seeded sweep of the discrete Skorokhod conditions under projection."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["additive", "bounded"])
    @pytest.mark.parametrize("convection", ["central", "upwind"])
    def test_u_nonnegative_dk_nonnegative_complementary(self, convection, profile, d):
        rng = np.random.default_rng(17)
        grid, mesh = SpatialGrid(16), TimeMesh(0.5, 100)
        acted = False
        for draw in range(4):
            cs = make_burgers_set(
                rng.uniform(-1.0, 1.0), noise_profile=profile, c1=rng.uniform(-1.0, 1.0),
                c2=rng.uniform(-3.0, 0.0), sigma_amp=rng.uniform(0.2, 2.0), d=d,
            )
            cfg = SchemeConfig(grid=grid, mesh=mesh, convection=convection,
                               noise_scale=rng.uniform(0.1, 1.5))
            p = solve(cs, rng.uniform(0.0, 1.0, grid.m), sample_noise(draw, mesh, d),
                      None, cfg)
            assert np.all(p.u >= 0.0)
            assert np.all(p.dk >= 0.0)
            assert np.all(p.u[1:] * p.dk == 0.0)
            acted = acted or bool(np.any(p.dk > 0.0))
        assert acted  # the sweep exercised the reflection


def _batch_case(convection, profile, d, reflection, n_paths=5, steps=30):
    """A coefficient set, start, scheme and per-path increments for batch tests."""
    grid, mesh = SpatialGrid(12), TimeMesh(0.6, steps)
    if profile == "multiscale":
        cs, _ = burgers_multiscale_family(
            beta=0.5, amplitude=1.0, a_g=0.8, noise_profile="bounded", c2=-1.0, d=d)
    else:
        cs = make_burgers_set(0.8, noise_profile=profile, c1=0.5, c2=-2.0, d=d)
    cfg = SchemeConfig(
        grid=grid, mesh=mesh, convection=convection, reflection=reflection,
        penalty_n=40.0 if reflection == "penalized" else 0.0, noise_scale=0.9,
        time_scale=0.05 if profile == "multiscale" else 1.0,
    )
    dw = np.stack([sample_noise(4, mesh, d, path_index=i).increments for i in range(n_paths)])
    return cs, sine_field(grid), cfg, dw


class TestSolveBatch:
    """Batching never changes a path: every row equals the batch of one, bit for bit."""

    @pytest.mark.parametrize("control", ["none", "shared", "per_path"])
    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["additive", "bounded", "multiscale"])
    @pytest.mark.parametrize("convection", ["central", "upwind"])
    def test_rows_equal_batch_of_one(self, convection, profile, d, reflection, control):
        cs, u0, cfg, dw = _batch_case(convection, profile, d, reflection)
        steps, n = cfg.mesh.steps, dw.shape[0]
        rng = np.random.default_rng(3)
        h = {
            "none": None,
            "shared": Control(0.6, rng.uniform(-1.5, 1.5, (3, d))).on_mesh(cfg.mesh),
            # row 0 uncontrolled, so rows with and without a drift share the batch
            "per_path": np.stack([
                Control(0.6, rng.uniform(-1.5, 1.5, (3, d)) * (i > 0)).on_mesh(cfg.mesh)
                for i in range(n)
            ]),
        }[control]
        u, dk = solve_batch(cs, u0, dw, h, cfg)
        assert u.shape == (n, steps + 1, cfg.grid.m) and dk.shape == (n, steps, cfg.grid.m)
        for p in range(n):
            h_p = h[p:p + 1] if control == "per_path" else h
            u1, dk1 = solve_batch(cs, u0, dw[p:p + 1], h_p, cfg)
            assert u[p].tobytes() == u1[0].tobytes()
            assert dk[p].tobytes() == dk1[0].tobytes()
        if control == "per_path":
            # a zero control gives the bits of no control
            u_free, dk_free = solve_batch(cs, u0, dw[:1], None, cfg)
            assert (u[0].tobytes(), dk[0].tobytes()) == (u_free[0].tobytes(), dk_free[0].tobytes())
        if control != "per_path":
            ctrl = None if h is None else Control(0.6, h[:: steps // 3])
            one = solve(cs, u0, sample_noise(4, cfg.mesh, d, path_index=n - 1), ctrl, cfg)
            assert one.u.tobytes() == u[n - 1].tobytes()
        if reflection == "penalized":
            # one penalty per row (n * dt <= 1 at dt = 0.02): each row equals
            # the batch of one under its own config
            cfgs = [replace(cfg, penalty_n=10.0 * (p + 1)) for p in range(n)]
            u, dk = solve_batch(cs, u0, dw, h, cfgs)
            for p in range(n):
                h_p = h[p:p + 1] if control == "per_path" else h
                u1, dk1 = solve_batch(cs, u0, dw[p:p + 1], h_p, cfgs[p])
                assert u[p].tobytes() == u1[0].tobytes()
                assert dk[p].tobytes() == dk1[0].tobytes()

    def test_chunked_equals_unchunked(self, monkeypatch):
        cs, u0, cfg, dw = _batch_case("central", "bounded", 2, "projection", n_paths=7)
        h = np.full((cfg.mesh.steps, 2), 0.3)
        whole = solve_batch(cs, u0, dw, h, cfg)[0]
        per_path = 8 * cfg.grid.m * (2 * cfg.mesh.steps + 1)
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * per_path)
        assert solver._paths_per_chunk(cfg) == 2  # chunks of 2, 2, 2 and 1 paths
        chunked = list(solve_paths(cs, u0, iter(dw), h, cfg))
        assert len(chunked) == 7
        for p, (dw_p, u_p) in enumerate(chunked):
            assert dw_p.tobytes() == dw[p].tobytes()
            assert u_p.tobytes() == whole[p].tobytes()

    def test_solve_paths_holds_one_chunk(self, monkeypatch):
        cs, u0, cfg, dw = _batch_case("central", "bounded", 1, "projection", n_paths=7)
        per_path = 8 * cfg.grid.m * (2 * cfg.mesh.steps + 1)
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * per_path)
        solved = []
        real = solver.solve_batch

        def tracked(*args):
            # every chunk solved so far is gone when the next one is solved
            assert all(ref() is None for ref in solved)
            u, dk = real(*args)
            solved.append(weakref.ref(u))
            return u, dk

        monkeypatch.setattr(solver, "solve_batch", tracked)
        kept = list(solve_paths(cs, u0, iter(dw), None, cfg))  # the caller keeps every path
        assert len(solved) == 4 and len(kept) == 7

    def test_config_sequence(self):
        cs, u0, cfg, dw = _batch_case("upwind", "additive", 1, "penalized")
        cfgs = [replace(cfg, penalty_n=n) for n in (10.0, 20.0, 30.0, 40.0, 50.0)]
        assert solve_batch(cs, u0, dw, None, cfgs)[0].shape[0] == 5
        for bad in (
            cfgs[:4] + [replace(cfgs[4], convection="central")],
            cfgs[:4] + [replace(cfgs[4], noise_scale=0.5)],
            cfgs[:4] + [replace(cfgs[4], reflection="projection")],
            cfgs[:4],  # four configs for five paths of increments
            [],
        ):
            with pytest.raises(ValueError):
                solve_batch(cs, u0, dw, None, bad)
        # without noise the path count comes from the configs
        quiet = [replace(c, noise_scale=0.0) for c in cfgs[:3]]
        u, dk = solve_batch(cs, u0, None, None, quiet)
        assert u.shape[0] == dk.shape[0] == 3
        for c, row in zip(quiet, u):
            assert row.tobytes() == solve(cs, u0, None, None, c).u.tobytes()

    def test_blow_up_names_lowest_row_at_its_own_step(self, monkeypatch):
        # row 5 blows up first, row 3 later: the error is row 3's, as a
        # per-path loop (which reaches row 3 first) would raise
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5, blowup_ceiling=50.0)
        dw = np.zeros((8, mesh.steps, 1))
        dw[3], dw[5] = 50.0, 2500.0
        u0 = np.zeros(grid.m)
        alone = {}
        for row in (3, 5):
            with pytest.raises(BlowUpError) as err:
                solve_batch(ADDITIVE, u0, dw[row:row + 1], None, cfg)
            alone[row] = err.value
        assert alone[5].step_index < alone[3].step_index
        with pytest.raises(BlowUpError) as err:
            solve_batch(ADDITIVE, u0, dw, None, cfg)
        got = err.value
        assert got.path_index == 3
        assert (got.step_index, got.t, got.peak) == (
            alone[3].step_index, alone[3].t, alone[3].peak)
        assert "path 3" in str(got)
        # solve_paths in chunks of 2: row 3 blows up in the second chunk and
        # keeps its global index and its own step
        per_path = 8 * grid.m * (2 * mesh.steps + 1)
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * per_path)
        paths = solve_paths(ADDITIVE, u0, dw, None, cfg)
        next(paths), next(paths)  # the first chunk, rows 0 and 1, is fine
        with pytest.raises(BlowUpError) as err:
            next(paths)
        assert (err.value.path_index, err.value.step_index) == (3, alone[3].step_index)

    def test_blow_up_replays_from_seed_path_and_noise_scale(self, monkeypatch):
        # the lowest path over the ceiling sits in the second chunk of two
        # paths; the error's path_index and noise_scale, with the seed the
        # increments came from, replay it with one solve
        grid, mesh, seed = SpatialGrid(16), TimeMesh(0.5, 50), 10
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.7, blowup_ceiling=1e9)
        u0 = np.zeros(grid.m)
        noises = [sample_noise(seed, mesh, 1, path_index=i) for i in range(6)]
        peaks = [np.max(np.abs(solve(ADDITIVE, u0, nz, None, cfg).u)) for nz in noises]
        assert max(peaks[2:4]) > max(peaks[:2])  # a path of the second chunk peaks higher
        cfg = replace(cfg, blowup_ceiling=(max(peaks[:2]) + max(peaks[2:4])) / 2)
        per_path = 8 * grid.m * (2 * mesh.steps + 1)
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * per_path)
        with pytest.raises(BlowUpError) as err:
            list(solve_paths(ADDITIVE, u0, (nz.increments for nz in noises), None, cfg))
        got = err.value
        assert got.path_index == 3
        assert (got.noise_scale, got.time_scale) == (0.7, 1.0)
        with pytest.raises(BlowUpError) as replay:
            solve(ADDITIVE, u0, sample_noise(seed, mesh, 1, path_index=got.path_index), None,
                  replace(cfg, noise_scale=got.noise_scale, time_scale=got.time_scale))
        assert (replay.value.step_index, replay.value.t, replay.value.peak) == (
            got.step_index, got.t, got.peak)

    def test_shape_checks(self):
        cs, u0, cfg, dw = _batch_case("central", "additive", 1, "projection")
        with pytest.raises(ValueError):
            solve_batch(cs, u0, None, None, cfg)  # noise scale > 0 needs increments
        with pytest.raises(ValueError):
            solve_batch(cs, u0, dw[:, :-1], None, cfg)
        with pytest.raises(ValueError):
            solve_batch(cs, u0, dw, np.zeros((dw.shape[0] + 1, cfg.mesh.steps, 1)), cfg)


class TestPenalized:
    def _run(self, n, noise, cfg):
        from dataclasses import replace

        pen_cfg = replace(cfg, reflection="penalized", penalty_n=n)
        cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.5)
        return solve(cs, np.zeros(cfg.grid.m), noise, None, pen_cfg)

    def test_violation_shrinks_with_n(self):
        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 2000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(21, mesh, 1)
        mins = [self._run(n, nz, cfg).min_u for n in (10.0, 100.0, 1000.0)]
        assert mins[0] < mins[1] < mins[2] <= 0.0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["additive", "bounded"])
    def test_residual_sweep_shrinks_with_n(self, profile, d):
        # seeded sweep: on common noise the residual dx * sum u * dK is <= 0
        # (n * dt <= 1 keeps the penalized state at or below the obstacle
        # where dK acts) and its size falls as n grows
        from dataclasses import replace

        rng = np.random.default_rng(5)
        grid, mesh = SpatialGrid(24), TimeMesh(0.5, 1000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        for draw in range(3):
            cs = make_burgers_set(
                rng.uniform(-1.0, 1.0), noise_profile=profile, c1=rng.uniform(-1.0, 1.0),
                c2=rng.uniform(-3.0, -0.5), sigma_amp=rng.uniform(0.2, 1.0), d=d,
            )
            nz = sample_noise(draw, mesh, d)
            res = [
                complementarity_residual(solve(
                    cs, np.zeros(grid.m), nz, None,
                    replace(cfg, reflection="penalized", penalty_n=n)))
                for n in (100.0, 400.0, 1600.0)
            ]
            assert res[0] < res[1] < res[2] <= 0.0

    def test_complementarity_residual_shrinks_with_n(self):
        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 2000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        nz = sample_noise(22, mesh, 1)
        r100 = complementarity_residual(self._run(100.0, nz, cfg))
        r1000 = complementarity_residual(self._run(1000.0, nz, cfg))
        assert 0.0 < abs(r1000) < abs(r100)


class TestEnergyFunctional:
    def test_zero_path(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 20)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, np.zeros(8), None, cfg)
        assert energy_functional(p) == (0.0, 0.0)

    def test_heat_flow_analytic_integral(self):
        grid, mesh = SpatialGrid(128), TimeMesh(0.1, 4000)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, sine_field(grid), None, cfg)
        sup_h_sq, int_v_sq = energy_functional(p)
        assert sup_h_sq == pytest.approx(0.5, rel=1e-3)
        analytic = (1.0 - math.exp(-2 * math.pi**2 * 0.1)) / 4.0
        assert int_v_sq == pytest.approx(analytic, rel=0.01)

    def test_quadratic_scaling(self):
        grid, mesh = SpatialGrid(32), TimeMesh(0.1, 200)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p1 = solve_skeleton(ZERO, sine_field(grid), None, cfg)
        p2 = solve_skeleton(ZERO, 2 * sine_field(grid), None, cfg)
        s1, i1 = energy_functional(p1)
        s2, i2 = energy_functional(p2)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)
        assert i2 == pytest.approx(4 * i1, rel=1e-12)


class TestExport:
    def test_binary_round_trip(self, tmp_path):
        grid, mesh = SpatialGrid(16), TimeMesh(0.5, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        p = solve(ADDITIVE, sine_field(grid), sample_noise(1, mesh, 1), None, cfg)
        path = tmp_path / "dump.bin"
        write_path_binary(p, str(path))
        meta, u, dk = read_path_binary(str(path))
        assert meta == {"m": 16, "steps": 40, "dt": mesh.dt, "dx": grid.dx}
        assert np.array_equal(u, p.u) and np.array_equal(dk, p.dk)

    def test_csv_layout(self, tmp_path):
        grid, mesh = SpatialGrid(4), TimeMesh(1.0, 2)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, sine_field(grid), None, cfg)
        out = tmp_path / "path.csv"
        with open(out, "w") as fh:
            write_path_csv(p, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,x_")
        assert len(lines) == 1 + mesh.steps + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:] == pytest.approx(list(sine_field(grid)))
