import math
from dataclasses import replace

import numpy as np
import pytest

from burgerslab import ldp, solver
from burgerslab.averaging import run_averaging_experiment
from burgerslab.core import SpatialGrid, TimeMesh, path_distance, sample_noise, sine_field
from burgerslab.coefficients import burgers_multiscale_family, make_burgers_set
from burgerslab.ldp import (
    EventSpec,
    condition_convergence_probe,
    estimate_importance,
    estimate_naive,
    fw_lower_bound_probe,
)
from burgerslab.ratefn import rate_function
from burgerslab.solver import BlowUpError, Control, SchemeConfig, solve, solve_skeleton

ADDITIVE = make_burgers_set(0.0, noise_profile="additive")
NOISELESS = make_burgers_set(0.0, sigma_amp=0.0)

GRID = SpatialGrid(16)
MESH = TimeMesh(1.0, 50)
CFG = SchemeConfig(grid=GRID, mesh=MESH)
U0 = sine_field(GRID)
FLOW = solve_skeleton(ADDITIVE, U0, None, CFG).u
NO_TILT = Control(1.0, np.zeros((1, 1)))


class TestEventSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventSpec(target=FLOW, delta=0.0)

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_radius_must_be_a_positive_number(self, delta):
        # a NaN radius once passed and made every event impossible
        with pytest.raises(ValueError, match="tube radius"):
            EventSpec(target=FLOW, delta=delta)

    @pytest.mark.parametrize("side, hit", [("below", False), ("at", False), ("above", True)])
    def test_hit_is_strictly_inside_the_tube(self, side, hit):
        # the event is d² < delta: the one sample's path at squared distance
        # exactly delta misses
        eps, seed = 0.2, 3
        u = solve(ADDITIVE, U0, sample_noise(seed, MESH, 1), None,
                  replace(CFG, noise_scale=math.sqrt(eps))).u
        d2 = path_distance(u, FLOW, GRID, MESH)
        delta = {"below": np.nextafter(d2, 0.0), "at": d2, "above": np.nextafter(d2, np.inf)}
        ev = EventSpec(target=FLOW, delta=float(delta[side]))
        assert estimate_naive(ADDITIVE, U0, eps, ev, 1, seed, CFG).p_hat == float(hit)

    def test_target_shape_checked_before_any_step(self, monkeypatch):
        # a target off the mesh was once rejected only after a whole chunk had marched
        calls = []
        real = solver.cho_solve_banded
        monkeypatch.setattr(solver, "cho_solve_banded",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        for target in (FLOW[:-1], FLOW[:, :-1]):
            with pytest.raises(ValueError, match="reference shape"):
                estimate_naive(ADDITIVE, U0, 0.2, EventSpec(target=target, delta=0.1), 5, 0, CFG)
        assert calls == []

    def test_sure_event(self):
        ev = EventSpec(target=FLOW, delta=float("inf"))
        est = estimate_naive(ADDITIVE, U0, 0.3, ev, 20, seed=0, cfg=CFG)
        assert est.p_hat == 1.0 and est.std_err == 0.0

    def test_impossible_event(self):
        # a tube of squared radius 1e-12 around an off-flow target
        ev = EventSpec(target=FLOW + 0.5, delta=1e-12)
        est = estimate_naive(ADDITIVE, U0, 0.3, ev, 20, seed=0, cfg=CFG)
        assert est.p_hat == 0.0


class TestNaive:
    def test_tube_probability_grows_as_noise_shrinks(self):
        ev = EventSpec(target=FLOW, delta=0.25)
        ps = []
        for eps in (0.5, 0.1, 0.02):
            est = estimate_naive(ADDITIVE, U0, eps, ev, 120, seed=11, cfg=CFG)
            ps.append(est.p_hat)
        # common path indices couple the comparison: exactly monotone here
        assert ps[0] <= ps[1] <= ps[2]
        assert ps[2] > ps[0]

    def test_shrinking_tube_never_gains(self):
        ps = []
        for delta in (0.3, 0.1, 0.03):
            ev = EventSpec(target=FLOW, delta=delta)
            est = estimate_naive(ADDITIVE, U0, 0.3, ev, 80, seed=12, cfg=CFG)
            ps.append(est.p_hat)
        assert ps[0] >= ps[1] >= ps[2]

    def test_reproducible(self):
        ev = EventSpec(target=FLOW, delta=0.2)
        a = estimate_naive(ADDITIVE, U0, 0.2, ev, 40, seed=13, cfg=CFG)
        b = estimate_naive(ADDITIVE, U0, 0.2, ev, 40, seed=13, cfg=CFG)
        assert a == b


class TestImportance:
    def test_zero_tilt_equals_naive(self):
        ev = EventSpec(target=FLOW, delta=0.2)
        naive = estimate_naive(ADDITIVE, U0, 0.2, ev, 60, seed=14, cfg=CFG)
        tilted = estimate_importance(
            ADDITIVE, U0, 0.2, ev, NO_TILT, 60, seed=14, cfg=CFG
        )
        assert tilted.p_hat == naive.p_hat
        assert tilted.std_err == naive.std_err

    def test_unreachable_event_stays_zero(self):
        flow = solve_skeleton(NOISELESS, U0, None, CFG).u
        ev = EventSpec(target=flow + 0.5, delta=1e-6)
        est = estimate_importance(
            NOISELESS, U0, 0.2, ev, Control.constant(1.0, 2.0), 30, seed=15, cfg=CFG
        )
        assert est.p_hat == 0.0

    def test_weight_mean_is_one(self):
        # delta = inf makes the estimator the bare Girsanov weight average
        ev = EventSpec(target=FLOW, delta=float("inf"))
        est = estimate_importance(
            ADDITIVE, U0, 0.1, ev, Control.constant(1.0, 0.5), 200, seed=16, cfg=CFG
        )
        assert abs(est.raw_mean - 1.0) <= 3.0 * est.std_err
        assert est.n_clipped == 0

    def test_weight_mean_is_one_two_channels(self):
        cs2 = make_burgers_set(0.0, noise_profile="additive", d=2)
        flow2 = solve_skeleton(cs2, U0, None, CFG).u
        ev = EventSpec(target=flow2, delta=float("inf"))
        tilt = Control(1.0, np.array([[0.4, -0.3]]))
        est = estimate_importance(cs2, U0, 0.1, ev, tilt, 200, seed=25, cfg=CFG)
        assert abs(est.raw_mean - 1.0) <= 3.0 * est.std_err

    def test_reproducible(self):
        ev = EventSpec(target=FLOW, delta=0.1)
        tilt = Control.constant(1.0, 0.7)
        a = estimate_importance(ADDITIVE, U0, 0.15, ev, tilt, 40, seed=17, cfg=CFG)
        b = estimate_importance(ADDITIVE, U0, 0.15, ev, tilt, 40, seed=17, cfg=CFG)
        assert a == b


def _naive(ev, eps_list, n_samples, seed, cs=ADDITIVE):
    """The naive estimates the lower-bound probe bounds, one per eps."""
    return [estimate_naive(cs, U0, eps, ev, n_samples, seed, CFG) for eps in eps_list]


class TestLowerBoundProbe:
    def _zero_rate(self):
        return rate_function(
            ADDITIVE, U0, FLOW, CFG, blocks=2, max_iters=5
        )

    def test_deterministic_flow_tube_trend(self):
        ev = EventSpec(target=FLOW, delta=0.15)
        rows = fw_lower_bound_probe(
            ADDITIVE, U0, ev, _naive(ev, [0.5, 0.2, 0.1], 100, 18), CFG,
            self._zero_rate(), theta=0.5,
        )
        vals = [r.eps_log_p for r in rows]
        assert vals[0] < vals[1] < vals[2] <= 0.0

    def test_generous_slack_always_satisfied(self):
        ev = EventSpec(target=FLOW, delta=0.15)
        rows = fw_lower_bound_probe(
            ADDITIVE, U0, ev, _naive(ev, [0.5, 0.2], 60, 19), CFG,
            self._zero_rate(), theta=10.0,
        )
        assert all(r.satisfied for r in rows)

    def test_zero_hit_row_flagged(self):
        # unreachable tube: zero hits for naive and for the zero-control tilt
        ev = EventSpec(target=FLOW + 2.0, delta=1e-9)
        rows = fw_lower_bound_probe(
            ADDITIVE, U0, ev, _naive(ev, [0.2], 25, 20), CFG, self._zero_rate(), theta=0.5,
        )
        row = rows[0]
        assert row.zero_hit and row.satisfied is None
        assert row.p_hat == pytest.approx(1.0 - 0.05 ** (1.0 / 25), rel=1e-12)

    def test_zero_hit_falls_back_on_the_estimate_own_eps_samples_and_seed(self, monkeypatch):
        # each zero-hit row tilts with the rate's control on its own naive
        # estimate's eps, sample count and seed; a row with hits tilts nothing
        far = EventSpec(target=FLOW + 2.0, delta=1e-9)
        naive = [estimate_naive(ADDITIVE, U0, 0.2, far, 25, 20, CFG),
                 estimate_naive(ADDITIVE, U0, 0.1, far, 12, 7, CFG)]
        rate = self._zero_rate()
        tilted = []

        def counted(cs, u0, eps, ev, h, n_samples, seed, cfg):
            tilted.append((eps, ev, h, n_samples, seed))
            return estimate_importance(cs, u0, eps, ev, h, n_samples, seed, cfg)

        monkeypatch.setattr(ldp, "estimate_importance", counted)
        rows = fw_lower_bound_probe(ADDITIVE, U0, far, naive, CFG, rate, theta=0.5)
        assert tilted == [(0.2, far, rate.h_star, 25, 20), (0.1, far, rate.h_star, 12, 7)]
        assert [(r.epsilon, r.method) for r in rows] == [(0.2, "importance"), (0.1, "importance")]
        assert rows[1].p_hat == pytest.approx(1.0 - 0.05 ** (1.0 / 12), rel=1e-12)
        tilted.clear()
        near = EventSpec(target=FLOW, delta=0.15)
        rows = fw_lower_bound_probe(ADDITIVE, U0, near, _naive(near, [0.2], 60, 19), CFG, rate,
                                    theta=0.5)
        assert tilted == [] and rows[0].method == "naive"

    def test_requires_converged_rate(self):
        bad = rate_function(
            NOISELESS, U0, FLOW + 0.1, CFG, blocks=2, max_iters=3
        )
        ev = EventSpec(target=FLOW, delta=0.1)
        with pytest.raises(ValueError):
            fw_lower_bound_probe(ADDITIVE, U0, ev, _naive(ev, [0.2], 10, 21), CFG, bad,
                                 theta=0.5)

    @pytest.mark.parametrize("kind", ["none", "repeated-eps", "importance", "nan-eps"])
    def test_estimates_checked_before_any_march(self, monkeypatch, kind):
        # an empty sequence, a repeated eps, an importance estimate and an
        # estimate of NaN eps are refused before any march of the probe
        ev = EventSpec(target=FLOW, delta=0.15)
        rate = self._zero_rate()
        est = estimate_naive(ADDITIVE, U0, 0.2, ev, 10, 19, CFG)
        naive = {
            "none": [],
            "repeated-eps": [est, estimate_naive(ADDITIVE, U0, 0.5, ev, 10, 19, CFG), est],
            "importance": [est, estimate_importance(ADDITIVE, U0, 0.5, ev, NO_TILT, 10, 19,
                                                    CFG)],
            "nan-eps": [est, replace(est, epsilon=math.nan)],
        }[kind]
        calls = []
        monkeypatch.setattr(solver, "cho_solve_banded",
                            lambda *args: calls.append("cho_solve_banded"))
        with pytest.raises(ValueError, match="naive estimates" if kind == "importance"
                           else "eps_list"):
            fw_lower_bound_probe(ADDITIVE, U0, ev, naive, CFG, rate, theta=0.5)
        assert calls == []

    def test_given_estimates_are_bounded_as_they_are(self, monkeypatch):
        # the probe makes no naive estimate of its own: its rows are those of
        # the estimates given, in their order, whatever their samples and seed
        ev = EventSpec(target=FLOW, delta=0.15)
        naive = [estimate_naive(ADDITIVE, U0, 0.5, ev, 60, 19, CFG),
                 estimate_naive(ADDITIVE, U0, 0.2, ev, 40, 3, CFG)]
        monkeypatch.setattr(ldp, "estimate_naive", lambda *args: pytest.fail("estimated again"))
        rows = fw_lower_bound_probe(ADDITIVE, U0, ev, naive, CFG, self._zero_rate(), theta=0.5)
        assert [(r.epsilon, r.p_hat, r.method) for r in rows] == [
            (est.epsilon, est.p_hat, "naive") for est in naive]
        assert all(est.p_hat > 0.0 for est in naive)

    def test_reachable_target_satisfied_at_half_rate_slack(self):
        gen = Control.constant(1.0, 1.0)
        target = solve_skeleton(ADDITIVE, U0, gen, CFG).u
        res = rate_function(ADDITIVE, U0, target, CFG, blocks=4, max_iters=25)
        assert res.converged
        ev = EventSpec(target=target, delta=0.06)
        rows = fw_lower_bound_probe(
            ADDITIVE, U0, ev, _naive(ev, [0.2, 0.1], 200, 11), CFG, res,
            theta=0.5 * res.lambda_hat,
        )
        assert all(r.satisfied for r in rows)


class TestConditionProbe:
    def test_huge_delta_all_zero(self):
        rows = condition_convergence_probe(
            ADDITIVE, [U0], [NO_TILT], [0.3, 0.1], 1e6, 10, 22, CFG
        )
        assert all(r.worst_fraction == 0.0 for r in rows)

    def test_fraction_decays_with_eps(self):
        controls = [NO_TILT, Control.constant(1.0, 1.0)]
        rows = condition_convergence_probe(
            ADDITIVE, [U0, 0.5 * U0], controls, [0.5, 0.1, 0.02], 0.25, 60, 23, CFG
        )
        fr = [r.worst_fraction for r in rows]
        assert fr[0] >= fr[1] >= fr[2]
        assert fr[2] == 0.0

    def test_energy_bound_enforced(self):
        with pytest.raises(ValueError):
            condition_convergence_probe(
                ADDITIVE, [U0], [Control.constant(1.0, 2.0)], [0.1], 0.25, 5, 24,
                CFG, energy_bound=2.0,
            )


    @pytest.mark.parametrize("u0_set, controls, n_samples, eps_list, match", [
        ([U0], [NO_TILT], 0, [0.1], "at least one"),
        ([], [NO_TILT], 5, [0.1], "at least one"),
        ([U0], [], 5, [0.1], "at least one"),
        ([U0], [NO_TILT], 5, [-0.1], "eps_list"),
        ([U0], [NO_TILT], 5, [float("nan")], "eps_list"),
        ([U0], [NO_TILT], 5, [0.0], "eps_list"),
        ([U0], [NO_TILT], 5, [], "eps_list"),
        ([U0], [NO_TILT], 5, [0.1, math.inf], "eps_list"),
        ([U0], [NO_TILT], 5, [0.2, 0.2], "eps_list"),
        ([U0, 0.5 * U0, U0], [NO_TILT], 5, [0.1], "two starts are equal"),
        ([U0], [NO_TILT, Control.constant(1.0, 1.0), NO_TILT], 5, [0.1],
         "two controls are equal"),
        ([U0], [NO_TILT, Control(1.0, np.zeros((2, 1)))], 5, [0.1], "two controls are equal"),
    ], ids=["no-samples", "no-starts", "no-controls", "negative-eps", "nan-eps", "zero-eps",
            "no-eps", "inf-eps", "repeated-eps", "repeated-start", "repeated-control",
            "controls-equal-on-the-mesh"])
    def test_empty_inputs_rejected_before_any_solve(self, monkeypatch, u0_set, controls,
                                                    n_samples, eps_list, match):
        # n_samples 0 once solved every skeleton and then divided by zero; an
        # empty start or control set once reported worst_fraction 0.0; a
        # negative or NaN eps once failed only after every skeleton solve, eps
        # 0 was reported as a row and an empty eps_list returned no rows
        calls = []
        for name in ("solve_skeleton", "march_distances"):
            monkeypatch.setattr(ldp, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(solver, "cho_solve_banded",
                            lambda *args: calls.append("cho_solve_banded"))
        with pytest.raises(ValueError, match=match):
            condition_convergence_probe(ADDITIVE, u0_set, controls, eps_list, 0.25, n_samples,
                                        25, CFG)
        assert calls == []


def _small_chunks(monkeypatch, paths_per_chunk, cfg=CFG):
    per_path = 8 * cfg.grid.m * (cfg.mesh.steps + 1)
    monkeypatch.setattr(solver, "BATCH_BYTES", paths_per_chunk * per_path)
    assert solver._paths_per_chunk(cfg) == paths_per_chunk


class TestBatchedLoops:
    """The batched Monte Carlo loops give what a per-path solve loop gives, bit for bit."""

    @pytest.mark.parametrize("clipped", [False, True])
    def test_importance_matches_per_path_loop(self, monkeypatch, clipped):
        # clipped: the clip sits at the median log-weight, so about half of
        # the weights are truncated and counted, hits and misses alike
        _small_chunks(monkeypatch, 7)  # 30 samples in chunks of 7
        cs = make_burgers_set(0.5, noise_profile="bounded", c1=0.3)
        tilt = Control(1.0, np.array([[0.8], [0.0], [-0.5]]))
        ev = EventSpec(target=FLOW, delta=0.15)
        eps, n, seed = 0.2, 30, 31

        run_cfg = replace(CFG, noise_scale=math.sqrt(eps))
        h_path = tilt.on_mesh(MESH)
        log_ws, hits = [], []
        for i in range(n):
            noise = sample_noise(seed, MESH, cs.d, path_index=i)
            u = solve(cs, U0, noise, tilt, run_cfg).u
            hits.append(path_distance(u, FLOW, GRID, MESH) < ev.delta)
            log_ws.append(-float(np.sum(h_path * noise)) / math.sqrt(eps)
                          - float(np.sum(h_path**2)) * MESH.dt / (2.0 * eps))
        clip = sorted(log_ws)[n // 2] if clipped else ldp.LOG_WEIGHT_CLIP
        monkeypatch.setattr(ldp, "LOG_WEIGHT_CLIP", clip)
        stats, n_clipped = [], 0
        for log_w, hit in zip(log_ws, hits):
            if log_w > clip:
                log_w = clip
                n_clipped += 1
            stats.append(math.exp(log_w) if hit else 0.0)
        assert 0 < sum(hits) < n and (n_clipped > 0) == clipped

        est = estimate_importance(cs, U0, eps, ev, tilt, n, seed, CFG)
        assert est.raw_mean == float(np.mean(stats))
        assert est.std_err == float(np.std(stats)) / math.sqrt(n)
        assert est.n_clipped == n_clipped

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_tilt_weights_exactly_one(self, monkeypatch, d):
        # seeded sweep: with h = 0 every Girsanov weight is exactly 1.0, so
        # on the sure event the mean is 1 and the spread is 0, chunk or not
        _small_chunks(monkeypatch, 4)
        cs = make_burgers_set(0.3, noise_profile="bounded", d=d)
        sure = EventSpec(target=FLOW, delta=float("inf"))
        for seed in range(3):
            for eps in (0.5, 0.05):
                est = estimate_importance(cs, U0, eps, sure, Control(1.0, np.zeros((2, d))),
                                          10, seed, CFG)
                assert est.raw_mean == 1.0 and est.std_err == 0.0
                assert est.n_clipped == 0

    def test_shared_tilt_drift_is_one_row(self):
        # tracemalloc peaks of one chunk of 40 rows over 50 steps, in forcing
        # blocks of CHECK_EVERY steps: the tilt's drift dt * h sigma is one row
        # of a block for the whole chunk, so the tilted loop holds less than
        # one path's bytes more than the naive one, not the 40 x block x m
        # drift block of a per-row copy, which is several paths' bytes
        import tracemalloc

        grid, mesh = SpatialGrid(64), TimeMesh(1.0, 50)
        cfg = SchemeConfig(grid=grid, mesh=mesh)
        u0 = sine_field(grid)
        ev = EventSpec(target=solve_skeleton(ADDITIVE, u0, None, cfg).u, delta=0.1)
        tilt = Control.constant(1.0, 1.0)
        block = min(mesh.steps, solver.CHECK_EVERY)
        assert solver._paths_per_chunk(cfg) >= 40 and 40 * block >= 4 * (mesh.steps + 1)
        path_bytes = 8 * (mesh.steps + 1) * grid.m

        def peak(run):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        naive = lambda: estimate_naive(ADDITIVE, u0, 0.1, ev, 40, 3, cfg)
        naive()  # the first draw imports numpy.random; that stays out of the peaks
        naive_peak = peak(naive)
        tilted_peak = peak(lambda: estimate_importance(ADDITIVE, u0, 0.1, ev, tilt, 40, 3, cfg))
        assert tilted_peak - naive_peak < path_bytes

    def test_condition_probe_chunking_changes_nothing(self, monkeypatch):
        args = (ADDITIVE, [U0, 0.5 * U0], [NO_TILT, Control.constant(1.0, 1.0)],
                [0.5, 0.1], 0.05, 9, 41, CFG)
        whole = condition_convergence_probe(*args)
        _small_chunks(monkeypatch, 2)
        assert condition_convergence_probe(*args) == whole

    def test_condition_probe_draws_each_sample_once(self, monkeypatch):
        # 9 samples in chunks of 2: every (eps, start, control) row of a
        # chunk marches on that chunk's one draw, so 9 draws for 2 x 2 x 2
        # rows, and each row's worst fraction is that of a solve per path
        controls = [NO_TILT, Control.constant(1.0, 1.0)]
        starts, eps_list, delta, n, seed = [U0, 0.5 * U0], [0.5, 0.1], 0.05, 9, 41
        worst = []
        for eps in eps_list:
            run = replace(CFG, noise_scale=math.sqrt(eps))
            exceed = [sum(path_distance(solve(ADDITIVE, u0, sample_noise(seed, MESH, 1, i), ctrl,
                                              run).u, solve_skeleton(ADDITIVE, u0, ctrl, CFG).u,
                                        GRID, MESH) >= delta for i in range(n))
                      for u0 in starts for ctrl in controls]
            worst.append(max(exceed) / n)
        assert 0.0 < worst[0]
        drawn = []
        monkeypatch.setattr(ldp, "sample_noise",
                            lambda seed, mesh, d, path_index: drawn.append(path_index)
                            or sample_noise(seed, mesh, d, path_index=path_index))
        _small_chunks(monkeypatch, 2)
        rows = condition_convergence_probe(ADDITIVE, starts, controls, eps_list, delta, n, seed,
                                           CFG)
        assert drawn == list(range(n))
        assert [(r.epsilon, r.worst_fraction) for r in rows] == list(zip(eps_list, worst))

    @pytest.mark.parametrize("loop", ["tube", "condition", "averaging"])
    def test_blow_up_in_a_later_chunk_names_the_global_path(self, monkeypatch, loop):
        # 6 samples in chunks of 2; only path 3 (row 1 of the second chunk)
        # is driven past the ceiling, so each loop through the one chunk
        # walk reports path 3
        monkeypatch.setattr(ldp, "sample_noise", lambda seed, mesh, d, path_index: (
            np.full((mesh.steps, d), 1e9) if path_index == 3
            else sample_noise(seed, mesh, d, path_index=path_index)))
        _small_chunks(monkeypatch, 2)
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        run = {
            "tube": lambda: estimate_naive(ADDITIVE, U0, 0.2, EventSpec(FLOW, 0.1), 6, 1, CFG),
            "condition": lambda: condition_convergence_probe(
                ADDITIVE, [U0], [NO_TILT], [0.5, 0.1], 0.05, 6, 1, CFG),
            "averaging": lambda: run_averaging_experiment(ms, avg, U0, [0.1, 0.01], 6, 1, CFG),
        }[loop]
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.path_index == 3
        assert err.value.step_index < solver.CHECK_EVERY

    def test_chunked_equals_unchunked(self, monkeypatch):
        # 7 samples in one chunk, then in chunks of 2, 2, 2 and 1
        ev = EventSpec(target=FLOW, delta=0.1)
        tilt = Control.constant(1.0, 0.4)
        whole = [estimate_naive(ADDITIVE, U0, 0.2, ev, 7, 5, CFG),
                 estimate_importance(ADDITIVE, U0, 0.2, ev, tilt, 7, 5, CFG)]
        assert 0.0 < whole[0].p_hat < 1.0
        _small_chunks(monkeypatch, 2)
        assert [estimate_naive(ADDITIVE, U0, 0.2, ev, 7, 5, CFG),
                estimate_importance(ADDITIVE, U0, 0.2, ev, tilt, 7, 5, CFG)] == whole

    def test_constant_callbacks_are_called_once_per_chunk(self, monkeypatch):
        # 7 tilted samples in chunks of 2, 2, 2 and 1: one march per chunk,
        # each evaluating the constant f and sigma once
        cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=0.25, d=2)
        assert cs.constant == {"g", "f", "sigma"}
        ev = EventSpec(target=solve_skeleton(cs, U0, None, CFG).u, delta=0.1)
        tilt = Control(1.0, np.array([[0.5, -0.5]]))
        plain = estimate_importance(cs, U0, 0.2, ev, tilt, 7, 6, CFG)
        calls = {}
        for name in ("g", "dg_dz", "f", "sigma"):
            def counted(*args, fn=getattr(cs, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            object.__setattr__(cs, name, counted)
        _small_chunks(monkeypatch, 2)
        assert estimate_importance(cs, U0, 0.2, ev, tilt, 7, 6, CFG) == plain
        assert calls == {"f": 4, "sigma": 4}

    def test_blow_up_names_the_global_path_and_replays(self, monkeypatch):
        # the lowest path over the ceiling sits in the second chunk of two
        # paths; the error's path_index and noise_scale, with the seed the
        # increments came from, replay it with one solve
        monkeypatch.setattr(solver, "BLOWUP_CEILING", 1e9)
        grid, mesh, seed, eps = SpatialGrid(16), TimeMesh(0.5, 50), 10, 0.49
        cfg = SchemeConfig(grid=grid, mesh=mesh)
        run = replace(cfg, noise_scale=math.sqrt(eps))
        u0 = np.zeros(grid.m)
        noises = [sample_noise(seed, mesh, 1, path_index=i) for i in range(6)]
        peaks = [np.max(np.abs(solve(ADDITIVE, u0, nz, None, run).u)) for nz in noises]
        assert max(peaks[2:4]) > max(peaks[:2])  # a path of the second chunk peaks higher
        ceiling = (max(peaks[:2]) + max(peaks[2:4])) / 2
        monkeypatch.setattr(solver, "BLOWUP_CEILING", ceiling)
        _small_chunks(monkeypatch, 2, cfg)
        ev = EventSpec(target=np.zeros((mesh.steps + 1, grid.m)), delta=1.0)
        with pytest.raises(BlowUpError) as err:
            estimate_naive(ADDITIVE, u0, eps, ev, 6, seed, cfg)
        got = err.value
        assert got.path_index == min(i for i, peak in enumerate(peaks) if peak > ceiling)
        assert got.path_index in (2, 3)
        assert (got.noise_scale, got.time_scale) == (run.noise_scale, 1.0)
        with pytest.raises(BlowUpError) as replay:
            solve(ADDITIVE, u0, sample_noise(seed, mesh, 1, path_index=got.path_index), None,
                  replace(cfg, noise_scale=got.noise_scale, time_scale=got.time_scale))
        assert (replay.value.step_index, replay.value.t, replay.value.peak) == (
            got.step_index, got.t, got.peak)
