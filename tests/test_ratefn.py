from dataclasses import replace

import numpy as np
import pytest

from burgerslab import ratefn
from burgerslab.core import SpatialGrid, TimeMesh, path_distance, sine_field
from burgerslab.coefficients import make_burgers_set
from burgerslab.ratefn import RateOptions, rate_function
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

    def test_each_path_measured_once(self, monkeypatch):
        # the accepted residual is kept, so no stage start and not the final
        # residual measure the accepted path again: with one step size per
        # batch, the measured paths are the h = 0 start and each solved row.
        # A ladder batch is measured lazily, so at any LADDER the measured
        # paths are those of one step size at a time
        u0 = sine_field(GRID)
        target = solve_skeleton(ADDITIVE, u0, Control.constant(1.0, 1.0), CFG).u
        rows = []

        def counted_solve(*args, **kwargs):
            u, dk = solve_batch(*args, **kwargs)
            rows.append(len(u))
            return u, dk

        monkeypatch.setattr(ratefn, "solve_batch", counted_solve)
        measured = {}
        for ladder in (1, ratefn.LADDER, 48):
            seen = measured[ladder] = []

            def counted(u, *args, seen=seen):
                seen.append(u.tobytes())
                return path_distance(u, *args)

            monkeypatch.setattr(ratefn, "path_distance", counted)
            monkeypatch.setattr(ratefn, "LADDER", ladder)
            res = rate_function(ADDITIVE, u0, target, CFG, OPT)
            assert res.iterations > len(ratefn.MU_SCHEDULE)
            if ladder == 1:
                assert len(seen) == 1 + sum(rows)
        assert measured[1] == measured[ratefn.LADDER] == measured[48]
