"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every tolerance is pinned here.  Monte Carlo criteria use fixed seeds and
the splittable per-path noise streams, so each run is reproducible; the
trend assertions additionally share path indices across noise levels
(common random numbers), which makes the comparisons coupled rather than
independent estimates.
"""

import json
import math

import numpy as np
import pytest

from burgerslab.core import (
    SpatialGrid,
    TimeMesh,
    h_norm,
    path_distance,
    sample_noise,
    sine_field,
)
from burgerslab.coefficients import (
    burgers_multiscale_family,
    estimate_kappa,
    make_burgers_set,
)
from burgerslab.solver import (
    Control,
    SchemeConfig,
    complementarity_residual,
    solve,
    solve_skeleton,
    total_variation_k,
)
from burgerslab.ratefn import rate_function
from burgerslab.ldp import (
    EventSpec,
    condition_convergence_probe,
    estimate_importance,
    estimate_naive,
    fw_lower_bound_probe,
)
from burgerslab.averaging import penalization_convergence_probe, run_averaging_experiment
from burgerslab.cli import load_config, run_experiment


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_heat_regression():
    cs = make_burgers_set(0.0, sigma_amp=0.0)
    grid = SpatialGrid(64)
    errors = {}
    for dt in (1e-4, 5e-5):
        mesh = TimeMesh(0.1, round(0.1 / dt))
        cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
        path = solve_skeleton(cs, sine_field(grid), None, cfg)
        exact = np.exp(-math.pi**2 * mesh.times)[:, None] * sine_field(grid)[None, :]
        errors[dt] = max(
            h_norm(path.u[k] - exact[k], grid) for k in range(mesh.steps + 1)
        )
    ok = errors[1e-4] <= 5e-3 and errors[5e-5] < errors[1e-4]
    report(1, ok, f"sup-H error {errors[1e-4]:.2e} <= 5e-3, refined {errors[5e-5]:.2e}")
    assert errors[1e-4] <= 5e-3
    assert errors[5e-5] < errors[1e-4]


def test_criterion_02_discrete_skorokhod():
    cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=0.0)
    grid = SpatialGrid(128)
    mesh = TimeMesh(1.0, 50_000)
    cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
    path = solve_skeleton(cs, np.zeros(grid.m), None, cfg)
    tv = total_variation_k(path)
    compl = complementarity_residual(path)
    ok = path.min_u >= 0.0 and compl == 0.0 and 0.98 <= tv <= 1.02
    report(2, ok, f"min u = {path.min_u}, complementarity = {compl}, TV(K) = {tv:.4f}")
    assert path.min_u >= 0.0
    assert compl == 0.0
    assert 0.98 <= tv <= 1.02


def test_criterion_03_penalization_limit():
    cs = make_burgers_set(0.0, noise_profile="additive", c2=-1.0, sigma_amp=0.25)
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 2000)  # n_max * dt = 0.5 < 1
    cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
    noise = sample_noise(17, mesh, 1)
    _, rows = penalization_convergence_probe(cs, np.zeros(grid.m), [10, 100, 1000], noise, cfg)
    d2 = [v for _, v in rows]
    ok = d2[0] > d2[1] > d2[2] and d2[2] <= 1e-2 * d2[0]
    report(3, ok, f"sq distances {d2[0]:.3e} > {d2[1]:.3e} > {d2[2]:.3e}, "
                  f"final/first = {d2[2] / d2[0]:.2e} <= 1e-2")
    assert d2[0] > d2[1] > d2[2]
    assert d2[2] <= 1e-2 * d2[0]


def test_criterion_04_apriori_bound_shape():
    cs = make_burgers_set(1.0, noise_profile="additive")  # Burgers g, sigma = 1
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 500)
    cfg = SchemeConfig(grid=grid, mesh=mesh, noise_scale=1.0)
    ratios = []
    for c in (1.0, 2.0, 4.0):
        u0 = c * sine_field(grid)
        energies = []
        for i in range(50):
            noise = sample_noise(99, mesh, 1, path_index=i)
            u = solve(cs, u0, noise, None, cfg).u
            # sup_t |u|_H^2 + ∫ ||u||_V^2 dt: the squared distance to the zero path
            energies.append(path_distance(u, 0 * u, grid, mesh))
        ratios.append(np.mean(energies) / (1.0 + h_norm(u0, grid) ** 2))
    spread = max(ratios) / min(ratios)
    ok = spread < 3.0
    report(4, ok, f"energy/(1+|u0|^2) ratios {[f'{r:.3f}' for r in ratios]}, "
                  f"spread {spread:.2f} < 3")
    assert spread < 3.0


def test_criterion_05_rate_function_recovery():
    cs = make_burgers_set(0.0, noise_profile="additive")
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 250)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    u0 = sine_field(grid)
    target = solve_skeleton(cs, u0, Control.constant(1.0, 1.0), cfg).u
    res = rate_function(cs, u0, target, cfg)
    flow = solve_skeleton(cs, u0, None, cfg).u
    res0 = rate_function(cs, u0, flow, cfg)
    ok = (res.residual <= 1e-3 and res.lambda_hat <= 0.55
          and res0.lambda_hat <= 1e-3)
    report(5, ok, f"lambda {res.lambda_hat:.4f} <= 0.55 (residual {res.residual:.1e}), "
                  f"zero-target lambda {res0.lambda_hat:.1e} <= 1e-3")
    assert res.converged and res.residual <= 1e-3
    assert res.lambda_hat <= 0.55
    assert res0.lambda_hat <= 1e-3


def test_criterion_06_small_noise_convergence_probe():
    cs = make_burgers_set(0.0, noise_profile="additive", sigma_amp=1.5)
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 200)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    u0 = sine_field(grid)
    controls = [
        Control(1.0, np.zeros((1, 1))),
        Control.constant(1.0, 1.0),
        Control.constant(1.0, -1.2),
    ]
    rows = condition_convergence_probe(
        cs, [u0, 0.5 * u0], controls, [0.2, 0.05, 0.01], 0.25, 200, 7, cfg,
        energy_bound=2.0,
    )
    fr = [r.worst_fraction for r in rows]
    ok = fr[0] >= fr[1] >= fr[2] and fr[2] == 0.0
    report(6, ok, f"worst exceedance fractions {fr} (nonincreasing, last 0)")
    assert fr[0] >= fr[1] >= fr[2]
    assert fr[2] == 0.0


def test_criterion_07_girsanov_consistency():
    cs = make_burgers_set(0.0, noise_profile="additive")
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 200)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    u0 = sine_field(grid)

    sure = EventSpec(target=np.zeros((mesh.steps + 1, grid.m)), delta=float("inf"))
    weights = estimate_importance(
        cs, u0, 0.1, sure, Control.constant(1.0, 0.5), 2000, 42, cfg
    )
    mean_ok = abs(weights.raw_mean - 1.0) <= 3.0 * weights.std_err

    gen = Control.constant(1.0, 1.0)
    target = solve_skeleton(cs, u0, gen, cfg).u
    ev = EventSpec(target=target, delta=0.035)
    naive = estimate_naive(cs, u0, 0.1, ev, 2000, 42, cfg)
    tilted = estimate_importance(cs, u0, 0.1, ev, gen, 2000, 42, cfg)
    combined = math.hypot(naive.std_err, tilted.std_err)
    agree = abs(naive.p_hat - tilted.p_hat) <= 3.0 * combined
    variance_win = tilted.std_err < naive.std_err

    ok = mean_ok and agree and variance_win
    report(7, ok, f"weight mean {weights.raw_mean:.3f} (se {weights.std_err:.3f}); "
                  f"naive {naive.p_hat:.4f}+-{naive.std_err:.4f} vs "
                  f"IS {tilted.p_hat:.4f}+-{tilted.std_err:.4f}")
    assert mean_ok
    assert agree
    assert variance_win


def test_criterion_08_fw_lower_bound_trend():
    cs = make_burgers_set(0.0, noise_profile="additive")
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 200)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    u0 = sine_field(grid)
    flow = solve_skeleton(cs, u0, None, cfg).u
    rate0 = rate_function(cs, u0, flow, cfg, blocks=2, max_iters=5)
    ev = EventSpec(target=flow, delta=0.15)
    naive = [estimate_naive(cs, u0, eps, ev, 500, 3, cfg) for eps in (0.5, 0.2, 0.1)]
    rows = fw_lower_bound_probe(cs, u0, ev, naive, cfg, rate0, theta=0.5)
    vals = [r.eps_log_p for r in rows]
    ok = vals[0] < vals[1] < vals[2] <= 0.0
    report(8, ok, f"eps*log p = {[f'{v:.4f}' for v in vals]} increasing toward 0")
    assert rate0.lambda_hat <= 1e-3
    assert vals[0] < vals[1] < vals[2] <= 0.0


def test_criterion_09_averaging_principle():
    ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
    grid = SpatialGrid(32)
    mesh = TimeMesh(1.0, 500)
    cfg = SchemeConfig(grid=grid, mesh=mesh)
    rep = run_averaging_experiment(
        ms, avg, sine_field(grid), [0.1, 0.01, 0.001], 100, 5, cfg
    )
    means = [r.mean_sq_dist for r in rep.rows]
    ok = means[0] > means[1] > means[2] and means[2] <= 0.25 * means[0]
    report(9, ok, f"mean sq distances {[f'{m:.4f}' for m in means]}, "
                  f"final/first = {means[2] / means[0]:.3f} <= 0.25")
    assert means[0] > means[1] > means[2]
    assert means[2] <= 0.25 * means[0]


def test_criterion_10_kappa_decay():
    ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
    t_hats = [1e2, 1e3, 1e4]
    ks = estimate_kappa(ms, avg, t_hats)
    # f and the sigma channel each contribute amp^2 log(1+T)/T at z = 0
    ok = all(
        abs(k - 2.0 * math.log(1.0 + t) / t) <= 0.10 * 2.0 * math.log(1.0 + t) / t
        for t, k in ks
    )
    flat, flat_avg = burgers_multiscale_family(beta=0.5, amplitude=0.0)
    ks0 = estimate_kappa(flat, flat_avg, t_hats)
    zero_ok = all(k == 0.0 for _, k in ks0)
    report(10, ok and zero_ok,
           f"kappa ratios to log(1+T)/T: {[f'{k * t / math.log(1 + t):.3f}' for t, k in ks]}, "
           f"time-constant kappa = 0: {zero_ok}")
    for t, k in ks:
        assert k == pytest.approx(2.0 * math.log(1.0 + t) / t, rel=0.10)
    assert zero_ok


DESK_CONFIGS = {
    "heat-regression": {
        "experiment": "heat-regression",
        "seed": 1,
        "params": {"m_values": [16, 32], "dt_values": [2e-4], "t_final": 0.05},
    },
    "reflection": {
        "experiment": "reflection",
        "seed": 2,
        "grid": {"m": 32},
        "mesh": {"t_final": 1.0, "dt": 5e-4},
        "params": {"n_list": [10, 100, 1000], "sigma_amp": 0.5},
    },
    "rate-function": {
        "experiment": "rate-function",
        "seed": 3,
        "grid": {"m": 16},
        "mesh": {"t_final": 1.0, "dt": 0.02},
        "params": {"h_star": 1.0, "blocks": 4, "max_iters": 8},
    },
    "rare-event": {
        "experiment": "rare-event",
        "seed": 4,
        "grid": {"m": 16},
        "mesh": {"t_final": 1.0, "dt": 0.02},
        "params": {"eps": 0.1, "eps_list": [0.5, 0.2], "delta": 0.1,
                   "n_samples": 40, "blocks": 2},
    },
    "condition-probe": {
        "experiment": "condition-probe",
        "seed": 5,
        "grid": {"m": 16},
        "mesh": {"t_final": 1.0, "dt": 0.02},
        "coefficients": {"family": "burgers", "sigma_amp": 1.5},
        "params": {"eps_list": [0.2, 0.05], "n_paths": 10},
    },
    "averaging": {
        "experiment": "averaging",
        "seed": 6,
        "grid": {"m": 16},
        "mesh": {"t_final": 1.0, "dt": 0.005},
        "coefficients": {"family": "multiscale", "beta": 0.5, "amplitude": 1.0},
        "params": {"eps_list": [0.1, 0.01], "n_paths": 5},
    },
}


def test_criterion_11_deterministic_artifacts(tmp_path):
    mismatches = []
    for name, payload in DESK_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(payload))
        cfg = load_config(cfg_path)
        code_a, arts_a = run_experiment(cfg, tmp_path / name / "a", cfg_path)
        code_b, arts_b = run_experiment(cfg, tmp_path / name / "b", cfg_path)
        assert code_a == 0 and code_b == 0, f"{name} failed to run"
        for art in arts_a:
            if art.suffix not in (".csv", ".jsonl"):
                continue
            twin = tmp_path / name / "b" / art.name
            if art.read_bytes() != twin.read_bytes():
                mismatches.append(f"{name}/{art.name}")
    ok = not mismatches
    report(11, ok, "byte-identical CSV artifacts across reruns"
           if ok else f"mismatched: {mismatches}")
    assert not mismatches
