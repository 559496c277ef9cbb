from dataclasses import replace

import numpy as np
import pytest

from burgerslab import ratefn
from burgerslab.core import SpatialGrid, TimeMesh, path_distance, sine_field
from burgerslab.coefficients import make_burgers_set
from burgerslab.ratefn import (
    RateOptions,
    level_set_continuity_probe,
    rate_function,
    sample_level_set,
)
from burgerslab.solver import Control, SchemeConfig, solve_batch, solve_skeleton

ADDITIVE = make_burgers_set(0.0, noise_profile="additive")
NOISELESS = make_burgers_set(0.0, noise_profile="zero")
BOUNDED_2D = make_burgers_set(0.3, noise_profile="bounded", d=2)

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


def _one_step_at_a_time(cs, u0, target, cfg, opt, step_size):
    """The rate function with one skeleton solve per trial step size, from step_size.

    Returns (h, history, iterations, residual) and, to show what a case
    covers, the number of line searches that ran out of step sizes and the
    most step sizes one line search tried.
    """
    d, t_final = cs.d, cfg.mesh.t_final
    block_dt = t_final / opt.blocks
    skeleton_cfg = replace(cfg, noise_scale=0.0)

    def control(h_flat):
        return Control(t_final, h_flat.reshape(opt.blocks, d))

    def objective_on(h_flat, u, mu):
        res = path_distance(u, target, cfg.grid, cfg.mesh).squared
        return 0.5 * float(np.dot(h_flat, h_flat)) * block_dt + mu * res, res

    def objective(h_flat, mu):
        return objective_on(h_flat, solve_skeleton(cs, u0, control(h_flat), cfg).u, mu)

    def gradient(h_flat, mu):
        widths = np.empty_like(h_flat)
        trials = []
        for k in range(h_flat.size):
            widths[k] = ratefn.FD_STEP * max(1.0, abs(h_flat[k]))
            bump = np.zeros_like(h_flat)
            bump[k] = widths[k]
            trials += [h_flat + bump, h_flat - bump]
        h_mesh = np.stack([control(hf).on_mesh(cfg.mesh) for hf in trials])
        paths = solve_batch(cs, u0, None, h_mesh, skeleton_cfg)[0]
        j = np.array([objective_on(hf, u, mu)[0] for hf, u in zip(trials, paths)])
        return (j[0::2] - j[1::2]) / (2.0 * widths)

    h = np.zeros(opt.blocks * d)
    history, iterations, exhausted, longest = [], 0, 0, 0
    for mu in ratefn.MU_SCHEDULE:
        j_cur, res_cur = objective(h, mu)
        history.append((mu, j_cur, res_cur))
        alpha0 = step_size
        for _ in range(opt.max_iters):
            grad = gradient(h, mu)
            gnorm_sq = float(np.dot(grad, grad))
            if gnorm_sq < 1e-18:
                break
            alpha, accepted, tried = alpha0, False, 0
            while alpha > 1e-12:
                tried += 1
                trial = h - alpha * grad
                j_new, res_new = objective(trial, mu)
                if j_new <= j_cur - 1e-4 * alpha * gnorm_sq:
                    h, j_cur, res_cur = trial, j_new, res_new
                    accepted = True
                    break
                alpha *= 0.5
            longest = max(longest, tried)
            if not accepted:
                exhausted += 1
                break
            alpha0 = min(step_size, 2.0 * alpha)
            iterations += 1
            history.append((mu, j_cur, res_cur))
    _, residual = objective(h, 0.0)
    return (h, history, iterations, residual), exhausted, longest


def _ladder_case(name):
    """(cs, u0, target, opt, first step size) of one ladder case."""
    u0 = sine_field(GRID)
    if name == "several_batches":
        # a huge first step: the first line search of a stage tries 16 sizes
        target = solve_skeleton(ADDITIVE, u0, Control.constant(1.0, 1.0), CFG).u
        return ADDITIVE, u0, target, RateOptions(blocks=4, max_iters=10), 1024.0
    if name == "exhausted":
        # a negative target is out of reach of u >= 0: a line search runs out
        return ADDITIVE, u0, np.full((MESH.steps + 1, GRID.m), -0.05), OPT, ratefn.STEP_SIZE
    gen = Control.constant(1.0, [1.0, -0.5], d=2)
    target = solve_skeleton(BOUNDED_2D, u0, gen, CFG).u
    return BOUNDED_2D, u0, target, RateOptions(blocks=3, max_iters=15), ratefn.STEP_SIZE


_REFERENCE = {}


def _reference(name):
    if name not in _REFERENCE:
        cs, u0, target, opt, step_size = _ladder_case(name)
        _REFERENCE[name] = _one_step_at_a_time(cs, u0, target, CFG, opt, step_size)
    return _REFERENCE[name]


class TestBatchedLineSearch:
    @pytest.mark.parametrize("ladder", [1, 2, 3, None])
    @pytest.mark.parametrize("case", ["several_batches", "exhausted", "bounded_2d"])
    def test_equals_one_step_at_a_time(self, monkeypatch, case, ladder):
        # the ladder of step sizes runs LADDER at a time; the result is the
        # one of trying one step size per skeleton solve, bit for bit
        if ladder is not None:
            monkeypatch.setattr(ratefn, "LADDER", ladder)
        h, history, iterations, residual = _reference(case)[0]
        cs, u0, target, opt, step_size = _ladder_case(case)
        monkeypatch.setattr(ratefn, "STEP_SIZE", step_size)
        res = rate_function(cs, u0, target, CFG, opt)
        assert np.array_equal(res.h_star.values, h.reshape(opt.blocks, cs.d))
        assert res.history == history
        assert res.iterations == iterations
        assert res.residual == residual
        assert res.lambda_hat == Control(MESH.t_final, h.reshape(opt.blocks, cs.d)).energy

    def test_cases_cover_what_they_name(self):
        # a line search longer than the default ladder, one that runs out,
        # and in d = 2 one longer than the smallest monkeypatched ladders
        assert _reference("several_batches")[2] > ratefn.LADDER
        assert _reference("exhausted")[1] >= 1
        assert _reference("bounded_2d")[2] > 3

    def test_one_skeleton_solve_per_call(self, monkeypatch):
        # only the h = 0 start is a single solve; the line search and the
        # stage starts reuse batch rows
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_skeleton(*args, **kwargs)

        monkeypatch.setattr(ratefn, "solve_skeleton", counted)
        u0 = sine_field(GRID)
        target = solve_skeleton(ADDITIVE, u0, Control.constant(1.0, 1.0), CFG).u
        res = rate_function(ADDITIVE, u0, target, CFG, OPT)
        assert res.iterations > len(ratefn.MU_SCHEDULE)
        assert len(calls) == 1


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

    @pytest.mark.parametrize("cs", [ADDITIVE, BOUNDED_2D], ids=["additive", "bounded_2d"])
    def test_batched_members_equal_skeleton_solves(self, cs):
        # the members are rows of one batch; each equals the skeleton solve
        # of its control, bit for bit
        u0 = sine_field(GRID)
        sample = sample_level_set(cs, u0, 0.8, 6, seed=11, cfg=CFG)
        for ctrl, path in sample.members:
            ref = solve_skeleton(cs, u0, ctrl, CFG)
            for field in ("u", "dk", "h_sq", "v_sq"):
                assert np.array_equal(getattr(path, field), getattr(ref, field)), field
            assert path.config == ref.config and path.noise_seed is None

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
