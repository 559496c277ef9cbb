import numpy as np
import pytest

from burgerslab.core import SpatialGrid, TimeMesh, path_distance, sine_field
from burgerslab.coefficients import make_burgers_set
from burgerslab.ratefn import (
    RateOptions,
    level_set_continuity_probe,
    rate_function,
    sample_level_set,
)
from burgerslab.solver import Control, SchemeConfig, solve_skeleton

ADDITIVE = make_burgers_set(0.0, noise_profile="additive")
NOISELESS = make_burgers_set(0.0, noise_profile="zero")

GRID = SpatialGrid(16)
MESH = TimeMesh(1.0, 50)
CFG = SchemeConfig(grid=GRID, mesh=MESH)
OPT = RateOptions(blocks=4, max_iters=25)


class TestRateFunction:
    def test_zero_control_target(self):
        u0 = sine_field(GRID)
        target = solve_skeleton(ADDITIVE, u0, None, CFG).u
        res = rate_function(ADDITIVE, u0, target, CFG, OPT)
        assert res.converged
        assert res.lambda_hat <= 1e-3
        assert res.residual <= OPT.tol

    def test_generating_control_upper_bound(self):
        u0 = sine_field(GRID)
        gen = Control.constant(1.0, 1.0)
        target = solve_skeleton(ADDITIVE, u0, gen, CFG).u
        res = rate_function(ADDITIVE, u0, target, CFG, OPT)
        assert res.converged and res.residual <= OPT.tol
        assert 0.3 <= res.lambda_hat <= 0.55
        # never above the energy of a known generating control (plus slack)
        assert res.lambda_hat <= gen.energy + 0.05
        assert res.lambda_hat == pytest.approx(res.h_star.energy, rel=1e-12)

    def test_unreachable_target_reports_floor(self):
        u0 = sine_field(GRID)
        flow = solve_skeleton(NOISELESS, u0, None, CFG).u
        res = rate_function(NOISELESS, u0, flow + 0.1, CFG, OPT)
        assert not res.converged
        assert res.residual > 10 * OPT.tol

    def test_quadratic_scaling_of_rate(self):
        # doubling an additive-noise deviation target quadruples the energy
        u0 = np.zeros(GRID.m)
        lambdas = []
        for c in (1.0, 2.0):
            target = solve_skeleton(ADDITIVE, u0, Control.constant(1.0, c), CFG).u
            res = rate_function(ADDITIVE, u0, target, CFG, OPT)
            assert res.converged
            lambdas.append(res.lambda_hat)
        assert 3.0 <= lambdas[1] / lambdas[0] <= 5.0

    def test_objective_decreases_within_stage(self):
        u0 = sine_field(GRID)
        target = solve_skeleton(ADDITIVE, u0, Control.constant(1.0, 1.0), CFG).u
        res = rate_function(ADDITIVE, u0, target, CFG, OPT)
        assert res.converged
        by_stage: dict[float, list[float]] = {}
        for mu, j, _ in res.history:
            by_stage.setdefault(mu, []).append(j)
        for js in by_stage.values():
            assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))

    def test_target_shape_validated(self):
        with pytest.raises(ValueError):
            rate_function(ADDITIVE, np.zeros(16), np.zeros((10, 16)), CFG, OPT)


class TestLevelSets:
    def test_zero_bound_is_uncontrolled_flow(self):
        u0 = sine_field(GRID)
        sample = sample_level_set(ADDITIVE, u0, 0.0, 5, seed=1, cfg=CFG)
        flow = solve_skeleton(ADDITIVE, u0, None, CFG).u
        for ctrl, path in sample.members:
            assert ctrl.energy == 0.0
            assert np.array_equal(path.u, flow)

    def test_energies_within_bound(self):
        sample = sample_level_set(ADDITIVE, sine_field(GRID), 0.8, 12, seed=2, cfg=CFG)
        assert len(sample.members) == 12
        assert all(ctrl.energy <= 0.8 + 1e-9 for ctrl, _ in sample.members)

    def test_seed_changes_members(self):
        u0 = sine_field(GRID)
        a = sample_level_set(ADDITIVE, u0, 0.8, 6, seed=3, cfg=CFG)
        b = sample_level_set(ADDITIVE, u0, 0.8, 6, seed=4, cfg=CFG)
        vals_a = np.concatenate([c.values.ravel() for c, _ in a.members])
        vals_b = np.concatenate([c.values.ravel() for c, _ in b.members])
        assert not np.array_equal(vals_a, vals_b)

    def test_seed_reproducibility(self):
        u0 = sine_field(GRID)
        a = sample_level_set(ADDITIVE, u0, 0.8, 6, seed=5, cfg=CFG)
        b = sample_level_set(ADDITIVE, u0, 0.8, 6, seed=5, cfg=CFG)
        for (ca, pa), (cb, pb) in zip(a.members, b.members):
            assert np.array_equal(ca.values, cb.values)
            assert np.array_equal(pa.u, pb.u)


class TestContinuityProbe:
    def test_identical_starts_give_zero(self):
        u0 = sine_field(GRID)
        ests = level_set_continuity_probe(
            ADDITIVE, u0, [u0.copy(), u0.copy()], 0.5, 6, seed=6, cfg=CFG
        )
        assert all(e == 0.0 for e in ests)

    def test_shrinking_perturbations_shrink_estimates(self):
        u0 = sine_field(GRID)
        seq = [u0 + (1.0 / n) * sine_field(GRID) for n in (1, 2, 4, 8)]
        ests = level_set_continuity_probe(ADDITIVE, u0, seq, 0.5, 6, seed=7, cfg=CFG)
        assert all(b < a for a, b in zip(ests, ests[1:]))

    def test_zero_bound_singleton(self):
        u0 = sine_field(GRID)
        u0n = u0 + 0.3 * sine_field(GRID, k=2) ** 2
        ests = level_set_continuity_probe(ADDITIVE, u0, [u0n], 0.0, 4, seed=8, cfg=CFG)
        flow = solve_skeleton(ADDITIVE, u0, None, CFG).u
        flow_n = solve_skeleton(ADDITIVE, u0n, None, CFG).u
        expected = path_distance(flow, flow_n, GRID, MESH).squared
        assert ests[0] == pytest.approx(expected, rel=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            level_set_continuity_probe(ADDITIVE, sine_field(GRID), [], 0.5, 4, 9, CFG)

    def test_batched_probe_matches_per_control_solves(self):
        # the probe solves each set of controls as one batch; the estimate is
        # what one skeleton solve per control gives, bit for bit
        u0 = sine_field(GRID)
        seq = [u0 + 0.2 * sine_field(GRID, k=2) ** 2, 0.5 * u0]
        ests = level_set_continuity_probe(ADDITIVE, u0, seq, 0.8, 5, seed=10, cfg=CFG)
        controls = [ctrl for ctrl, _ in sample_level_set(
            ADDITIVE, u0, 0.8, 5, seed=10, cfg=CFG).members]
        ref = [solve_skeleton(ADDITIVE, u0, c, CFG).u for c in controls]
        for u0_n, est in zip(seq, ests):
            per = [solve_skeleton(ADDITIVE, u0_n, c, CFG).u for c in controls]
            dists = np.array([[path_distance(p, q, GRID, MESH).squared for q in per]
                              for p in ref])
            assert est == max(float(np.max(np.min(dists, axis=1))),
                              float(np.max(np.min(dists, axis=0))))
