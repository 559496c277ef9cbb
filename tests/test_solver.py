import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from burgerslab import core, solver
from burgerslab.core import (
    SpatialGrid, TimeMesh, h_norm, path_distance, sample_noise, sine_field, v_norm,
)
from burgerslab.coefficients import burgers_multiscale_family, make_burgers_set
from burgerslab.solver import (
    BlowUpError,
    Control,
    SchemeConfig,
    complementarity_residual,
    energy_functional,
    path_binary_bytes,
    read_path_binary,
    solve,
    solve_batch,
    solve_skeleton,
    step,
    total_variation_k,
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

    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    def test_equals_first_step_of_solve(self, reflection):
        cs, u0, cfg, dw = _batch_case("upwind", "bounded", 2, reflection, n_paths=1)
        h = np.array([0.4, -1.1])
        u_new, dk = step(u0, 0.0, dw[0, 0], h, cs, cfg)
        u, dks = solve_batch(cs, u0, dw, np.tile(h, (cfg.mesh.steps, 1)), cfg)
        assert (u_new.tobytes(), dk.tobytes()) == (u[0, 1].tobytes(), dks[0, 0].tobytes())

    def test_blow_up_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 1.0)
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 10)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        with pytest.raises(BlowUpError) as err:
            step(np.full(8, 50.0), 0.3, None, None, ZERO, cfg)
        assert (err.value.step_index, err.value.path_index, err.value.t) == (0, 0, 0.3 + 0.1)
        assert err.value.peak > 1.0

    @pytest.mark.parametrize("reflection, kick", [("penalized", -3000.0),
                                                   ("projection", 1e308)])
    def test_blow_up_below_zero_or_not_finite(self, monkeypatch, reflection, kick):
        # a projected state is >= 0 or NaN, so its march reads only the max
        # of each window; a penalized state can blow up below zero, which
        # only the min sees
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 50.0)
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5, reflection=reflection,
                           penalty_n=10.0)
        dw = np.zeros((3, mesh.steps, 1))
        dw[1, 20:] = kick
        with pytest.raises(BlowUpError) as err:
            solve_batch(ADDITIVE, np.zeros(grid.m), dw, None, cfg)
        assert (err.value.path_index, err.value.step_index) == (1, 20)
        assert not err.value.peak <= 50.0  # NaN or above the ceiling

    @pytest.mark.parametrize("scale, blows_up", [(0.5, False), (2.0, True)])
    def test_default_ceiling(self, scale, blows_up):
        # a state of twice BLOWUP_CEILING is a blow-up, half of it is not;
        # one step of 1e-6 barely moves a flat start
        grid, mesh = SpatialGrid(8), TimeMesh(1e-5, 10)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        u0 = np.full(8, scale * solver.BLOWUP_CEILING)
        if blows_up:
            with pytest.raises(BlowUpError):
                step(u0, 0.0, None, None, ZERO, cfg)
        else:
            u_new, _ = step(u0, 0.0, None, None, ZERO, cfg)
            assert np.max(u_new) > 0.49 * solver.BLOWUP_CEILING

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
        inv = solver._implicit_inverse(m, cfg.mesh.dt)
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
        inv = solver._implicit_inverse(m, cfg.mesh.dt)
        b = np.random.default_rng(n_rhs).normal(size=(m, n_rhs))
        x = solver.cho_solve_banded(inv, b)
        for p in range(n_rhs):
            assert x[:, p].tobytes() == solver.cho_solve_banded(inv, b[:, p:p + 1])[:, 0].tobytes()

    @pytest.mark.parametrize("steps", [1, 7, 40, 2000, 5000])
    @pytest.mark.parametrize("m", [2, 3, 16, 32, 128, 256])
    def test_inverse_has_the_bits_of_the_direct_build(self, m, steps):
        # r is dt / dx^2 with the grid's dx, as the inverse was built per
        # solve; dt * (m + 1)^2 rounds differently
        grid = SpatialGrid(m)
        cfg = SchemeConfig(grid=grid, mesh=TimeMesh(0.7, steps), noise_scale=0.0)
        r = cfg.mesh.dt / grid.dx**2
        off = np.full(m - 1, -r)
        direct = np.linalg.inv(np.diag(np.full(m, 1.0 + 2.0 * r)) + np.diag(off, 1)
                               + np.diag(off, -1))
        assert solver._implicit_inverse(m, cfg.mesh.dt).tobytes() == direct.tobytes()

    def test_one_read_only_inverse_per_grid_and_mesh(self):
        grid, mesh = SpatialGrid(24), TimeMesh(0.3, 90)
        u0 = np.zeros((2, grid.m))

        def inverse(cfg):
            return solver._Stepper(FORCED_DOWN, cfg, u0, None, None, [cfg.penalty_n] * 2,
                                   mesh.steps)._inv

        a = inverse(SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0))
        b = inverse(SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0, reflection="penalized",
                                 penalty_n=10.0, convection="upwind", time_scale=0.5))
        assert a is b
        assert not a.flags.writeable
        other = inverse(SchemeConfig(grid=grid, mesh=TimeMesh(0.3, 91), noise_scale=0.0))
        assert other is not a

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

    def test_blow_up_reports_step(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 1e4)
        grid, mesh = SpatialGrid(64), TimeMesh(1.0, 50)  # coarse dt
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
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
    elif profile == "multiscale_default":  # the family's defaults: only g is constant
        cs, _ = burgers_multiscale_family(beta=0.5, amplitude=1.0, d=d)
    elif profile == "constant":  # every callback a constant, as in the reflection experiment
        cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=0.25, d=d)
    elif profile == "constant_zero":  # the same without noise
        cs = make_burgers_set(0.0, noise_profile="zero", c2=-1.0, d=d)
    elif profile == "burgers_ag1":
        cs = make_burgers_set(1.0, noise_profile="bounded", c1=0.5, c2=-1.0, d=d)
    else:
        cs = make_burgers_set(0.8, noise_profile=profile, c1=0.5, c2=-2.0, d=d)
    cfg = SchemeConfig(
        grid=grid, mesh=mesh, convection=convection, reflection=reflection,
        penalty_n=40.0 if reflection == "penalized" else 0.0, noise_scale=0.9,
        time_scale=0.05 if profile.startswith("multiscale") else 1.0,
    )
    dw = np.stack([sample_noise(4, mesh, d, path_index=i).increments for i in range(n_paths)])
    return cs, sine_field(grid), cfg, dw


def _batch_control(kind, cfg, d, n_paths):
    """No control, one shared by every path, or one per path on a batch case's mesh."""
    rng = np.random.default_rng(3)
    shared = Control(0.6, rng.uniform(-1.5, 1.5, (3, d))).on_mesh(cfg.mesh)
    if kind != "per_path":
        return shared if kind == "shared" else None
    # row 0 uncontrolled, so rows with and without a drift share the batch
    return np.stack([
        Control(0.6, rng.uniform(-1.5, 1.5, (3, d)) * (i > 0)).on_mesh(cfg.mesh)
        for i in range(n_paths)
    ])


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
        h = _batch_control(control, cfg, d, n)
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

    # (m, steps, paths, paths per chunk when the budget was 8 MiB of u and dK):
    # shipped rare_event and condition_probe, shipped averaging, and the
    # rare_event and averaging benchmark workloads
    @pytest.mark.parametrize("m, steps, n_paths, before", [
        (32, 200, 2000, 81), (32, 200, 100, 81), (32, 500, 100, 32),
        (32, 50, 40, 324), (32, 500, 8, 32),
    ])
    def test_chunks_of_the_shipped_meshes(self, m, steps, n_paths, before):
        # the budget of u alone splits every shipped and workload loop into
        # the chunks of the budget of u and dK
        def chunks(size):
            return [min(size, n_paths - i) for i in range(0, n_paths, size)]

        cfg = SchemeConfig(grid=SpatialGrid(m), mesh=TimeMesh(1.0, steps))
        assert chunks(solver._paths_per_chunk(cfg)) == chunks(before)

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
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 50.0)
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5)
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

    def test_shape_checks(self):
        cs, u0, cfg, dw = _batch_case("central", "additive", 1, "projection")
        with pytest.raises(ValueError):
            solve_batch(cs, u0, None, None, cfg)  # noise scale > 0 needs increments
        with pytest.raises(ValueError):
            solve_batch(cs, u0, dw[:, :-1], None, cfg)
        with pytest.raises(ValueError):
            solve_batch(cs, u0, dw, np.zeros((dw.shape[0] + 1, cfg.mesh.steps, 1)), cfg)


def _reference_march(cs, u0, dw, h, cfg, penalties=None):
    """The step and march as they were before the stepper kept a workspace.

    Every operation makes a fresh array, the blow-up check runs after every
    step, and the implicit solve is the stacked product with the inverse.
    Returns (u, dk) as solve_batch does, or raises its BlowUpError.
    """
    x, dx, dt, m = cfg.grid.nodes, cfg.grid.dx, cfg.mesh.dt, cfg.grid.m
    penalty = (dt * cfg.penalty_n if penalties is None
               else dt * np.array(penalties, dtype=float)[:, None])
    r = dt / dx**2
    off = np.full(m - 1, -r)
    inv = np.linalg.inv(np.diag(np.full(m, 1.0 + 2.0 * r)) + np.diag(off, 1) + np.diag(off, -1))

    def weighted(c, sig_t):
        return np.matmul(c.reshape(-1, 1, c.shape[-1]), sig_t)[:, 0]

    def convection(t, u):
        padded = np.zeros((u.shape[0], u.shape[1] + 2))
        padded[:, 1:-1] = u
        gp = cs.g(t, padded)
        if cfg.convection == "central":
            return (gp[:, 2:] - gp[:, :-2]) / (2.0 * dx)
        speed = cs.dg_dz(t, u)
        forward = (gp[:, 2:] - gp[:, 1:-1]) / dx
        backward = (gp[:, 1:-1] - gp[:, :-2]) / dx
        return np.where(speed >= 0.0, forward, backward)

    def step(u, t, dw, h):
        t_fast = t / cfg.time_scale
        rhs = u + dt * (convection(t, u) + cs.f(t_fast, x, u))
        want_noise = cfg.noise_scale > 0.0 and dw is not None
        if want_noise or h is not None:
            sig_t = np.array(cs.sigma(t_fast, x, u), order="C").transpose(1, 0, 2)
            if h is not None:
                rhs += dt * weighted(h, sig_t)
            if want_noise:
                rhs += cfg.noise_scale * weighted(dw, sig_t)
        u_free = np.matmul(rhs.T.T[:, None, :], inv)[:, 0].T.T
        if cfg.reflection == "projection":
            u_new = np.maximum(u_free, 0.0)
            dk = u_new - u_free
        else:
            dk = penalty * np.maximum(-u_free, 0.0)
            u_new = u_free + dk
        return u_new, dk

    if cfg.noise_scale == 0.0:
        dw = None
    n_paths = (dw.shape[0] if dw is not None else h.shape[0] if h is not None and h.ndim == 3
               else len(penalties) if penalties is not None else 1)
    u = np.empty((n_paths, cfg.mesh.steps + 1, m))
    dks = np.empty((n_paths, cfg.mesh.steps, m))
    u[:, 0] = u0
    first_bad = {}
    state = u[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(cfg.mesh.times[:-1].tolist()):
            state, dks[:, k] = step(
                state, t, None if dw is None else dw[:, k], None if h is None else h[..., k, :])
            u[:, k + 1] = state
            top = float(np.abs(state).max())
            if not (math.isfinite(top) and top <= solver.BLOWUP_CEILING):
                peak = np.max(np.abs(state), axis=1)
                bad = np.flatnonzero(~np.isfinite(peak) | (peak > solver.BLOWUP_CEILING))
                for row in bad.tolist():
                    first_bad.setdefault(row, (k, t + dt, float(peak[row])))
                if 0 in first_bad:
                    break
    if first_bad:
        row = min(first_bad)
        raise BlowUpError(*first_bad[row], path_index=row, noise_scale=cfg.noise_scale,
                          time_scale=cfg.time_scale)
    return u, dks


class TestReferenceStep:
    """solve_batch equals the step without a workspace, bit for bit in u and dK."""

    @pytest.mark.parametrize("control", ["none", "shared", "per_path"])
    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["additive", "bounded", "multiscale", "constant",
                                         "multiscale_default", "burgers_ag1"])
    @pytest.mark.parametrize("convection", ["central", "upwind"])
    def test_equals_reference(self, convection, profile, d, reflection, control):
        cs, u0, cfg, dw = _batch_case(convection, profile, d, reflection)
        n = dw.shape[0]
        h = _batch_control(control, cfg, d, n)
        runs = [(cfg, None), (replace(cfg, noise_scale=0.0), None)]
        if reflection == "penalized":
            runs.append(([replace(cfg, penalty_n=10.0 * (p + 1)) for p in range(n)],
                         [10.0 * (p + 1) for p in range(n)]))
        for run, penalties in runs:
            first = run if penalties is None else run[0]
            u, dk = solve_batch(cs, u0, dw if first.noise_scale > 0.0 else None, h, run)
            u_ref, dk_ref = _reference_march(cs, u0, dw, h, first, penalties)
            assert u.tobytes() == u_ref.tobytes()
            assert dk.tobytes() == dk_ref.tobytes()

    @pytest.mark.parametrize("check_every", [1, 3, 7, 64])
    @pytest.mark.parametrize("case", ["rows_3_and_5", "row_0_late", "row_2_between_checks"])
    def test_blow_up_equals_reference(self, monkeypatch, case, check_every):
        # the march looks for a blow-up once per CHECK_EVERY steps; the error
        # still names the lowest row at its own first bad step
        monkeypatch.setattr(solver, "CHECK_EVERY", check_every)
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 50.0)
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5)
        dw = np.zeros((8, mesh.steps, 1))
        if case == "rows_3_and_5":
            dw[3], dw[5] = 50.0, 2500.0
        elif case == "row_0_late":
            dw[0, 25:], dw[4, 5:] = 3000.0, 50.0
        else:
            dw[2, 9:], dw[6, 1:] = 400.0, 2500.0
        with pytest.raises(BlowUpError) as ref:
            _reference_march(ADDITIVE, np.zeros(grid.m), dw, None, cfg)
        with pytest.raises(BlowUpError) as got:
            solve_batch(ADDITIVE, np.zeros(grid.m), dw, None, cfg)
        assert got.value.args == ref.value.args


class TestClock:
    """Step k of a march starts at k * dt, with the bits of mesh.times[k]."""

    @pytest.mark.parametrize("t_final", [0.1, 0.3, 0.5, 0.7, 1.0, 1.0 / 3.0, 2.9])
    def test_k_dt_is_the_mesh_time(self, t_final):
        # every step count up to 599, and longer marches up to 20,000 steps
        for steps in [*range(1, 600), 1000, 2000, 4999, 5000, 12345, 20000]:
            mesh = TimeMesh(t_final, steps)
            clock = np.array([k * mesh.dt for k in range(steps)])
            assert clock.tobytes() == mesh.times[:-1].tobytes(), steps

    @pytest.mark.parametrize("window", [7, 64])
    def test_callbacks_see_the_mesh_times(self, monkeypatch, window):
        monkeypatch.setattr(solver, "CHECK_EVERY", window)
        seen = []

        def f(t, x, z):
            seen.append(t)
            return FORCED_DOWN.f(t, x, z)

        cs = replace(FORCED_DOWN, f=f)
        grid, mesh = SpatialGrid(8), TimeMesh(0.7, 150)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0, time_scale=0.3)
        expected = (mesh.times[:-1] / 0.3).tobytes()
        solve_batch(cs, np.zeros(grid.m), None, None, cfg)
        assert np.array(seen).tobytes() == expected
        seen.clear()
        solver.march_distances(cs, np.zeros(grid.m), None, None, cfg, _reference(cfg))
        assert np.array(seen).tobytes() == expected

    @pytest.mark.parametrize("t_final, steps, bad", [
        (0.3, 70, 41), (0.7, 30, 29), (1.0 / 3.0, 90, 17), (2.9, 1000, 777), (0.1, 5000, 4097),
    ])
    def test_blow_up_time_is_the_mesh_time(self, monkeypatch, t_final, steps, bad):
        # BlowUpError.t is mesh.times[step] + dt, as it was read from the mesh's times
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 50.0)
        grid, mesh = SpatialGrid(8), TimeMesh(t_final, steps)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        dw = np.zeros((1, steps, 1))
        dw[0, bad:] = 1e4
        for march in (solve_batch, lambda *a: solver.march_distances(*a, _reference(cfg))):
            with pytest.raises(BlowUpError) as err:
                march(ADDITIVE, np.zeros(grid.m), dw, None, cfg)
            assert err.value.step_index == bad
            assert err.value.t.hex() == (mesh.times[bad] + mesh.dt).hex()


def _per_step(cs):
    """cs with every callback wrapped in a lambda, so a march evaluates each one per step."""
    ref = replace(cs, g=lambda t, z: cs.g(t, z), f=lambda t, x, z: cs.f(t, x, z),
                  sigma=lambda t, x, z: cs.sigma(t, x, z))
    assert ref.constant == frozenset()
    return ref


def _count_calls(cs):
    """Wrap cs's callbacks in place, as perfbench/tracer.py does; returns the call counts."""
    calls = {}
    for name in ("g", "dg_dz", "f", "sigma"):
        def counted(*args, fn=getattr(cs, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        object.__setattr__(cs, name, counted)
    return calls


class TestHoistedMarch:
    """A constant callback is evaluated once per march, with the bits of evaluating it every step."""

    # 30 steps: blocks of 7 steps and a short last one, or one block
    @pytest.mark.parametrize("check_every", [7, 64])
    @pytest.mark.parametrize("control", ["none", "shared", "per_path"])
    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["constant", "constant_zero"])
    @pytest.mark.parametrize("convection", ["central", "upwind"])
    def test_equals_per_step_evaluation(self, monkeypatch, convection, profile, d, reflection,
                                        control, check_every):
        monkeypatch.setattr(solver, "CHECK_EVERY", check_every)
        cs, u0, cfg, dw = _batch_case(convection, profile, d, reflection)
        assert cs.constant == {"g", "f", "sigma"}
        ref_cs = _per_step(cs)
        n = dw.shape[0]
        h = _batch_control(control, cfg, d, n)
        runs = [cfg, replace(cfg, noise_scale=0.0)]
        if reflection == "penalized":
            runs.append([replace(cfg, penalty_n=10.0 * (p + 1)) for p in range(n)])
        for run in runs:
            noise = dw if (run if isinstance(run, SchemeConfig) else run[0]).noise_scale else None
            u_ref, dk_ref = solve_batch(ref_cs, u0, noise, h, run)
            u, dk = solve_batch(cs, u0, noise, h, run)
            assert u.tobytes() == u_ref.tobytes() and dk.tobytes() == dk_ref.tobytes()
            # chunked: each march of two rows hoists its own terms
            for lo in range(0, u_ref.shape[0], 2):
                rows = slice(lo, lo + 2)
                u, dk = solve_batch(
                    cs, u0, None if noise is None else noise[rows],
                    h[rows] if control == "per_path" else h,
                    run if isinstance(run, SchemeConfig) else run[rows])
                assert u.tobytes() == u_ref[rows].tobytes()
                assert dk.tobytes() == dk_ref[rows].tobytes()
        assert np.any(dk_ref > 0.0)  # the reflection acted

    def test_constant_callbacks_are_called_once_per_march(self):
        cs, u0, cfg, dw = _batch_case("upwind", "constant", 2, "projection", n_paths=7)
        h = _batch_control("shared", cfg, 2, 7)
        plain = solve_batch(cs, u0, dw, h, cfg)
        calls = _count_calls(cs)
        assert cs.constant == {"g", "f", "sigma"}  # wrapping after the build keeps the record
        u, dk = solve_batch(cs, u0, dw, h, cfg)
        assert calls == {"f": 1, "sigma": 1}
        assert u.tobytes() == plain[0].tobytes() and dk.tobytes() == plain[1].tobytes()
        calls.clear()
        solve_batch(cs, u0, None, None, replace(cfg, noise_scale=0.0))
        assert calls == {"f": 1}  # no noise and no control: sigma is not needed
        # the per-step reference calls every callback at every step
        ref_cs = _per_step(cs)
        calls.clear()  # building a set spot-checks dg_dz against g
        solve_batch(ref_cs, u0, dw, h, cfg)
        steps = cfg.mesh.steps
        assert calls == {"g": steps, "dg_dz": steps, "f": steps, "sigma": steps}


class TestMarchWithoutDk:
    """store_dk=False keeps u's bits and blow-ups, for every batch case."""

    @pytest.mark.parametrize("control", ["none", "shared", "per_path"])
    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("profile", ["additive", "bounded", "multiscale", "constant",
                                         "constant_zero", "multiscale_default", "burgers_ag1"])
    @pytest.mark.parametrize("convection", ["central", "upwind"])
    def test_u_and_blow_up_equal_march_with_dk(self, monkeypatch, convection, profile, d,
                                               reflection, control):
        cs, u0, cfg, dw = _batch_case(convection, profile, d, reflection)
        n = dw.shape[0]
        h = _batch_control(control, cfg, d, n)
        runs = [[cfg], [replace(cfg, noise_scale=0.0)]]
        if reflection == "penalized":
            runs.append([replace(cfg, penalty_n=10.0 * (p + 1)) for p in range(n)])
        for run in runs:
            noise = dw if run[0].noise_scale > 0.0 else None
            arg = run if len(run) > 1 else run[0]
            u, dk = solve_batch(cs, u0, noise, h, arg)
            u_free, no_dk = solve_batch(cs, u0, noise, h, arg, store_dk=False)
            assert no_dk is None and u_free.tobytes() == u.tobytes()
            # a ceiling below the median row peak: at least half the rows blow up
            ceiling = 0.999 * float(np.median(np.max(np.abs(u[:, 1:]), axis=(1, 2))))
            with monkeypatch.context() as low:
                low.setattr(solver, "BLOWUP_CEILING", ceiling)
                with pytest.raises(BlowUpError) as kept:
                    solve_batch(cs, u0, noise, h, arg)
                with pytest.raises(BlowUpError) as free:
                    solve_batch(cs, u0, noise, h, arg, store_dk=False)
            assert free.value.args == kept.value.args


def _reference(cfg):
    """A fixed (steps+1, m) path to measure batch cases against."""
    return (0.5 * np.linspace(1.0, 0.2, cfg.mesh.steps + 1)[:, None]
            * sine_field(cfg.grid)[None, :])


def _count_kernel_calls(monkeypatch):
    """Count the implicit solves of every march from here on."""
    calls = []
    real = solver.cho_solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "cho_solve_banded", counted)
    return calls


class TestMarchDistances:
    """march_distances gives path_distance on solve_batch's rows, with their bits."""

    # 30 steps: windows that divide them, a short last window, and one
    # window longer than the march
    @pytest.mark.parametrize("window", [5, 10, 20, 40])
    @pytest.mark.parametrize("control", ["none", "shared", "per_path"])
    @pytest.mark.parametrize("reflection", ["projection", "penalized"])
    @pytest.mark.parametrize("profile", ["additive", "multiscale", "constant"])
    def test_distances_equal_path_distance(self, monkeypatch, profile, reflection, control,
                                           window):
        # a shared control under the constant profile's sigma drives every
        # row through one drift row; each row still has the batch of one's bits
        monkeypatch.setattr(solver, "CHECK_EVERY", window)
        cs, u0, cfg, dw = _batch_case("upwind", profile, 2, reflection)
        n = dw.shape[0]
        h = _batch_control(control, cfg, 2, n)
        ref = _reference(cfg)
        runs = [cfg, replace(cfg, noise_scale=0.0)]
        if reflection == "penalized":
            runs.append([replace(cfg, penalty_n=10.0 * (p + 1)) for p in range(n)])
        for run in runs:
            noise = dw if (run if isinstance(run, SchemeConfig) else run[0]).noise_scale else None
            got = solver.march_distances(cs, u0, noise, h, run, ref)
            u = solve_batch(cs, u0, noise, h, run, store_dk=False)[0]
            expected = [path_distance(row, ref, cfg.grid, cfg.mesh).squared for row in u]
            assert [d.hex() for d in got.tolist()] == [d.hex() for d in expected]
            for p in range(len(u)):
                one = solver.march_distances(
                    cs, u0, None if noise is None else noise[p:p + 1],
                    h[p:p + 1] if control == "per_path" else h,
                    run if isinstance(run, SchemeConfig) else run[p], ref)
                assert one.tolist()[0].hex() == expected[p].hex()

    @pytest.mark.parametrize("block_rows", [1, 2, 7])
    def test_row_blocks_inside_a_window(self, monkeypatch, block_rows):
        # the row pass takes a window of every row in blocks of whole time
        # rows; blocks that split a window keep every distance's bits
        cs, u0, cfg, dw = _batch_case("central", "additive", 1, "projection")
        ref = _reference(cfg)
        u = solve_batch(cs, u0, dw, None, cfg, store_dk=False)[0]
        expected = [path_distance(row, ref, cfg.grid, cfg.mesh).squared.hex() for row in u]
        monkeypatch.setattr(core, "DISTANCE_BLOCK", block_rows * len(u) * (cfg.grid.m + 2))
        got = solver.march_distances(cs, u0, dw, None, cfg, ref)
        assert [d.hex() for d in got.tolist()] == expected

    def test_default_window_is_one_block(self, monkeypatch):
        block = solver.CHECK_EVERY
        tail = block // 2  # a last window shorter than the block
        cs, u0, cfg, dw = _batch_case("central", "constant", 1, "penalized", n_paths=3,
                                      steps=block * 2 + tail)
        marched = []
        real = solver._Stepper.march

        def recorded(stepper, u, dk):
            marched.append(u.shape[1] - 1)
            return real(stepper, u, dk)

        monkeypatch.setattr(solver._Stepper, "march", recorded)
        ref = _reference(cfg)
        got = solver.march_distances(cs, u0, dw, None, cfg, ref)
        assert marched == [block, block, tail]
        u = solve_batch(cs, u0, dw, None, cfg)[0]
        assert got.tolist() == [path_distance(row, ref, cfg.grid, cfg.mesh).squared
                                for row in u]

    @pytest.mark.parametrize("tilted", [False, True], ids=["untilted", "shared-tilt"])
    def test_chunk_window_fits_in_cache(self, tilted):
        # tracemalloc peak of one shipped rare_event chunk, 81 rows at m 32
        # over 200 steps under a constant sigma: the window's states, the
        # block's kicks and the row pass all span CHECK_EVERY steps, so the
        # march holds ~1.2 MiB besides its inputs; 64-step windows fail (3.1 MiB)
        import tracemalloc

        grid, mesh = SpatialGrid(32), TimeMesh(1.0, 200)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=math.sqrt(0.1))
        cs, u0 = make_burgers_set(), sine_field(grid)
        assert solver._paths_per_chunk(cfg) == 81
        dw = np.stack([sample_noise(4, mesh, 1, path_index=i).increments for i in range(81)])
        h = Control.constant(1.0, 1.0).on_mesh(mesh) if tilted else None
        ref = solve_skeleton(cs, u0, Control.constant(1.0, 1.0), cfg).u
        solver.march_distances(cs, u0, dw, h, cfg, ref)  # builds the cached inverse
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver.march_distances(cs, u0, dw, h, cfg, ref)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_constant_callbacks_are_called_once_per_march(self, monkeypatch):
        monkeypatch.setattr(solver, "CHECK_EVERY", 10)
        cs, u0, cfg, dw = _batch_case("upwind", "constant", 2, "penalized", n_paths=3)
        calls = _count_calls(cs)
        kernel = _count_kernel_calls(monkeypatch)
        solver.march_distances(cs, u0, dw, None, cfg, _reference(cfg))
        assert len(kernel) == cfg.mesh.steps  # three windows of 10 steps
        assert calls == {"f": 1, "sigma": 1}

    def test_inputs_checked_at_the_call(self, monkeypatch):
        # every input, the reference too, is checked before any step
        cs, u0, cfg, dw = _batch_case("central", "additive", 1, "projection")
        ref = _reference(cfg)
        kernel = _count_kernel_calls(monkeypatch)
        with pytest.raises(ValueError, match="nonnegative"):
            solver.march_distances(cs, -u0 - 1.0, dw, None, cfg, ref)
        with pytest.raises(ValueError, match="increments shape"):
            solver.march_distances(cs, u0, dw[:, :-1], None, cfg, ref)
        for bad in (ref[:-1], ref[:, :-1], ref[0]):
            with pytest.raises(ValueError, match="reference shape"):
                solver.march_distances(cs, u0, dw, None, cfg, bad)
        assert kernel == []

    @pytest.mark.parametrize("case", ["rows_3_and_5", "row_0_late", "row_2_between_checks"])
    def test_blow_up_in_a_later_window(self, monkeypatch, case):
        # windows of 8 steps: the error is solve_batch's, with the global
        # step, and no window holding a bad state is measured
        monkeypatch.setattr(solver, "CHECK_EVERY", 8)
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 50.0)
        grid, mesh = SpatialGrid(16), TimeMesh(1.0, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.5)
        dw = np.zeros((8, mesh.steps, 1))
        if case == "rows_3_and_5":
            dw[3, 17:], dw[5, 12:] = 50.0, 2500.0
        elif case == "row_0_late":
            dw[0, 25:], dw[4, 11:] = 3000.0, 50.0
        else:
            dw[2, 9:], dw[6, 20:] = 400.0, 2500.0
        u0 = np.zeros(grid.m)
        with pytest.raises(BlowUpError) as whole:
            solve_batch(ADDITIVE, u0, dw, None, cfg)
        earliest = min(
            err.step_index for err in (
                pytest.raises(BlowUpError, solve_batch, ADDITIVE, u0, dw[row:row + 1], None,
                              cfg).value
                for row in np.flatnonzero(dw.any(axis=(1, 2)))))
        measured = []
        real = solver._distance_rows

        def checked(p, q, *rest):
            assert np.max(np.abs(p)) <= 50.0
            measured.append(p.shape[:2])
            return real(p, q, *rest)

        monkeypatch.setattr(solver, "_distance_rows", checked)
        with pytest.raises(BlowUpError) as got:
            solver.march_distances(ADDITIVE, u0, dw, None, cfg, np.zeros((mesh.steps + 1, grid.m)))
        assert got.value.args == whole.value.args
        assert got.value.step_index >= 8  # not in the first window
        # the windows before the earliest bad state's, every row of each
        assert measured == [(9, 8)] + [(8, 8)] * (earliest // 8 - 1)


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


def _formula_norms_sq(u, grid):
    """The squared H and V norms of each row as whole-path formulas: the bit reference."""
    jumps = np.diff(u, axis=1, prepend=0.0, append=0.0)
    return (grid.dx * np.einsum("km,km->k", u, u),
            np.einsum("km,km->k", jumps, jumps) / grid.dx)


class TestReflectedPath:
    def _path(self):
        grid, mesh = SpatialGrid(16), TimeMesh(0.5, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        return solve(ADDITIVE, sine_field(grid), sample_noise(3, mesh, 1), None, cfg), cfg

    def test_grid_and_mesh_are_the_configs(self):
        p, cfg = self._path()
        assert p.config is cfg
        assert p.grid is cfg.grid and p.mesh is cfg.mesh

    def test_norms_are_lazy_read_only_and_exact(self):
        p, cfg = self._path()
        assert not {"h_sq", "v_sq", "_norms_sq"} & set(vars(p))
        for name, norms in zip(("h_sq", "v_sq"), _formula_norms_sq(p.u, cfg.grid)):
            value = getattr(p, name)
            assert getattr(p, name) is value
            assert value.tobytes() == norms.tobytes()
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 1.0
            with pytest.raises(FrozenInstanceError):
                setattr(p, name, np.zeros_like(value))
        assert not p.u.flags.writeable and not p.dk.flags.writeable

    @pytest.mark.parametrize("steps, m, scale", [
        (0, 2, 1.0), (1, 3, 1.0), (40, 16, 1e-300), (300, 33, 1e150), (5000, 128, 1.0),
    ])
    def test_norms_have_the_bits_of_the_formulas(self, steps, m, scale):
        # rows longer than a DISTANCE_BLOCK, signed zeros, subnormals and near-overflow
        grid, mesh = SpatialGrid(m), TimeMesh(1.0, max(steps, 1))
        rng = np.random.default_rng(steps + m)
        u = scale * rng.standard_normal((steps + 1, m))
        u.flat[::7] = -0.0
        u.flat[3::11] = 0.0
        p = solver.ReflectedPath(u=u, dk=np.zeros((steps, m)),
                                 config=SchemeConfig(grid=grid, mesh=mesh))
        with np.errstate(over="ignore", under="ignore"):
            h_ref, v_ref = _formula_norms_sq(u, grid)
            assert (p.h_sq.tobytes(), p.v_sq.tobytes()) == (h_ref.tobytes(), v_ref.tobytes())


class TestEnergyFunctional:
    def test_zero_path(self):
        grid, mesh = SpatialGrid(8), TimeMesh(1.0, 20)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        p = solve_skeleton(ZERO, np.zeros(8), None, cfg)
        assert energy_functional(p) == (0.0, 0.0)

    def test_matches_the_reference_norms(self):
        # node by node, the cached norms behind the functional are h_norm and
        # v_norm squared
        grid, mesh = SpatialGrid(16), TimeMesh(0.5, 40)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        p = solve(ADDITIVE, sine_field(grid), sample_noise(4, mesh, 1), None, cfg)
        h_sq = [h_norm(row, grid) ** 2 for row in p.u]
        v_sq = [v_norm(row, grid) ** 2 for row in p.u]
        sup_h_sq, int_v_sq = energy_functional(p)
        assert sup_h_sq == pytest.approx(max(h_sq), rel=1e-12)
        assert int_v_sq == pytest.approx(sum(v_sq[:-1]) * mesh.dt, rel=1e-12)

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
        path.write_bytes(path_binary_bytes(p))
        meta, u, dk = read_path_binary(str(path))
        assert meta == {"m": 16, "steps": 40, "dt": mesh.dt, "dx": grid.dx}
        assert np.array_equal(u, p.u) and np.array_equal(dk, p.dk)

    def _dump(self, tmp_path):
        grid, mesh = SpatialGrid(8), TimeMesh(0.5, 10)
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
        p = solve(ADDITIVE, sine_field(grid), sample_noise(2, mesh, 1), None, cfg)
        return tmp_path / "dump.bin", path_binary_bytes(p)

    def test_wrong_magic_rejected(self, tmp_path):
        path, data = self._dump(tmp_path)
        path.write_bytes(b"RBPATH00" + data[8:])
        with pytest.raises(ValueError, match="not a path dump"):
            read_path_binary(str(path))

    @pytest.mark.parametrize("case", ["cut-short", "trailing-bytes"])
    def test_length_must_match_the_header(self, tmp_path, case):
        # a short file once failed in a reshape, and bytes after dK were ignored
        path, data = self._dump(tmp_path)
        path.write_bytes(data[:-8] if case == "cut-short" else data + bytes(8))
        with pytest.raises(ValueError, match="implies"):
            read_path_binary(str(path))
