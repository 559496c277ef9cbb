import math

import numpy as np
import pytest

from burgerslab.core import SpatialGrid, TimeMesh, h_norm, sample_noise, sine_field
from burgerslab.coefficients import make_burgers_set
from burgerslab.solver import (
    BlowUpError,
    Control,
    SchemeConfig,
    complementarity_residual,
    energy_functional,
    read_path_binary,
    solve,
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
        # 15 steps over 5 blocks: 3 steps each (a float floor of t/block_dt gave 3,3,4,2,3)
        ctrl = Control(1.0, np.arange(5.0)[:, None])
        idx = ctrl.on_mesh(TimeMesh(1.0, 15))[:, 0].astype(int)
        assert np.bincount(idx).tolist() == [3, 3, 3, 3, 3]

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
