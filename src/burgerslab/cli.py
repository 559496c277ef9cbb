"""Config-driven experiment runner.

One JSON config file describes one experiment: shared sections (grid, mesh,
coefficients, scheme, u0, seed) plus one experiment-specific params table.
Every key is declared once, in the schema tables below, with its kind,
default and range check.  `load_config` walks every table, so an unknown
key, a key the chosen experiment, family, convection coefficient a_g or
reflection never reads (the _UNREAD table), a wrong type or an out-of-range
value is a ConfigError naming the field before any solve runs.

Artifacts land in the output directory: one or more CSV tables (full
17-significant-digit round-trip precision, so reruns are byte-identical),
a runmeta.jsonl with per-artifact metadata, and manifest.txt referencing
every emitted file with its sha256 (the manifest also records wall time,
and is therefore the only non-reproducible output).  A rejected config
(exit 2) or a failed run (exit 1) writes failure.json instead, to the same
output directory; one that cannot be made exits 2 with a one-line error and
no record.

Usage:
  burgerslab --config cfg.json [--out DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import SpatialGrid, TimeMesh, h_norm, sample_noise, sine_field
from .coefficients import (
    NOISE_PROFILES,
    burgers_multiscale_family,
    estimate_kappa,
    make_burgers_set,
)
from .solver import (
    CONVECTIONS,
    MAX_M,
    REFLECTIONS,
    BlowUpError,
    Control,
    SchemeConfig,
    path_binary_bytes,
    solve,
    solve_skeleton,
    stable_penalty,
)
from .ratefn import rate_function
from .ldp import (
    EventSpec,
    condition_convergence_probe,
    eps_list_ok,
    estimate_importance,
    estimate_naive,
    fw_lower_bound_probe,
)
from .averaging import penalization_convergence_probe, run_averaging_experiment

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main"]


class ConfigError(ValueError):
    """Invalid or missing configuration."""


# ---------------------------------------------------------------------------
# schema: one table per section, one row (key, kind, default, check, reason)
# per key.  kind is a type, list[float] / list[int], or a tuple of allowed
# names.  check(value, seen) gets every value validated before it, keyed
# "section.key" ("mesh.dt", "params.t_final"), so rows may refer back.

_REQUIRED = object()
_ANY = (None, "")
_POSITIVE = (lambda v, c: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v, c: v >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda v, c: v >= 1, "must be >= 1")
_EPS_LIST = (lambda v, c: eps_list_ok(v),
             "must be a nonempty list of distinct, finite numbers > 0")


def _whole_steps(t_final: float, dt: float) -> bool:
    """True when dt > 0 splits t_final into a positive, finite whole number of steps."""
    quotient = t_final / dt if dt > 0 else 0.0
    if not math.isfinite(quotient):
        return False
    steps = round(quotient)
    return steps >= 1 and abs(steps * dt - t_final) <= 1e-9 * max(1.0, t_final)


def _increasing(v: list) -> bool:
    return all(b > a for a, b in zip(v, v[1:]))


def _constant_control(t_final: float, amp: float, d: int) -> Control:
    return Control.constant(t_final, [amp] * d, d=d)


_GRID_SIZE = (lambda v, c: 2 <= v <= MAX_M,
              f"must be >= 2 and <= {MAX_M} (the implicit solve applies a dense m x m inverse)")
_GRID = (("m", int, 64, *_GRID_SIZE),)

_MESH = (
    ("t_final", float, 1.0, *_POSITIVE),
    ("dt", float, 1e-3, lambda v, c: _whole_steps(c["mesh.t_final"], v),
     "must be > 0 and divide mesh.t_final into whole steps"),
)

# the library defaults that schema defaults stand for, read from the signatures
_BURGERS, _SCHEME_CFG, _SINE, _RATE, _AVERAGING = (
    {k: p.default for k, p in inspect.signature(fn).parameters.items()}
    for fn in (make_burgers_set, SchemeConfig, sine_field, rate_function,
               run_averaging_experiment))

# a control block shorter than one step would never be applied
_BLOCKS = (lambda v, c: 1 <= v <= round(c["mesh.t_final"] / c["mesh.dt"]),
           "must be >= 1 and at most the mesh's steps (mesh.t_final / mesh.dt)")

# the rate stage's target control and blocks, read by rate-function and rare-event
_RATE_STAGE = (
    ("h_star", float, 1.0, *_ANY),
    ("blocks", int, _RATE["blocks"], *_BLOCKS),
)

_COEFFICIENTS = (
    ("family", ("burgers", "multiscale"), "burgers",
     lambda v, c: v == "multiscale" or c["experiment"] != "averaging",
     "the averaging experiment needs the multiscale family"),
    ("a_g", float, _BURGERS["a_g"], *_ANY),
    ("noise_profile", NOISE_PROFILES, _BURGERS["noise_profile"], *_ANY),
    ("c1", float, _BURGERS["c1"], *_ANY),
    ("c2", float, _BURGERS["c2"], *_ANY),
    ("sigma_amp", float, _BURGERS["sigma_amp"], *_ANY),
    ("d", int, _BURGERS["d"], lambda v, c: v == 1,
     "must be 1: every builtin noise is the same on each channel, so d channels are "
     "one channel of amplitude sigma_amp * sqrt(d)"),
    ("beta", float, None,
     lambda v, c: v > 0 if v is not None else c["coefficients.family"] == "burgers",
     "must be > 0, and the multiscale family requires it"),
    ("amplitude", float, 1.0, *_ANY),
)

_SCHEME = (
    ("reflection", REFLECTIONS, _SCHEME_CFG["reflection"], *_ANY),
    ("penalty_n", float, _SCHEME_CFG["penalty_n"],
     lambda v, c: c["scheme.reflection"] != "penalized" or stable_penalty(v, c["mesh.dt"]),
     "penalized reflection needs n > 0 and n*dt <= 1 (explicit penalty stability)"),
    ("convection", CONVECTIONS, _SCHEME_CFG["convection"], *_ANY),
)

_U0 = (
    ("amplitude", float, _SINE["amplitude"], *_NONNEGATIVE),
)

_PARAMS = {
    "heat-regression": (
        ("t_final", float, 0.1, *_POSITIVE),
        ("tolerance", float, 5e-3, *_POSITIVE),
        ("m_values", list[int], [32, 64],
         lambda v, c: v and len(set(v)) == len(v) and all(_GRID_SIZE[0](m, c) for m in v),
         f"must be a nonempty list of distinct grid sizes >= 2 and <= {MAX_M}"),
        # distinct step counts, so no two entries make one mesh
        ("dt_values", list[float], [2e-4, 1e-4],
         lambda v, c: v and all(_whole_steps(c["params.t_final"], dt) for dt in v)
         and len({round(c["params.t_final"] / dt) for dt in v}) == len(v),
         "must be a nonempty list of steps dt > 0 that divide params.t_final "
         "into distinct step counts"),
    ),
    "reflection": (
        ("n_list", list[float], [10.0, 100.0, 1000.0],
         lambda v, c: v and _increasing(v) and all(stable_penalty(n, c["mesh.dt"]) for n in v),
         "must be a nonempty, strictly increasing list of n > 0 with n*dt <= 1"),
        ("sigma_amp", float, 0.0, *_NONNEGATIVE),
    ),
    "rate-function": (
        *_RATE_STAGE,
        ("tol", float, _RATE["tol"], *_POSITIVE),
        ("max_iters", int, _RATE["max_iters"], *_AT_LEAST_1),
    ),
    "rare-event": (
        ("eps", float, 0.1, *_POSITIVE),
        ("eps_list", list[float], [0.5, 0.2, 0.1], *_EPS_LIST),
        ("delta", float, 0.25, *_POSITIVE),
        ("n_samples", int, 500, *_AT_LEAST_1),
        ("theta", float, 0.5, *_POSITIVE),
        *_RATE_STAGE,
    ),
    "condition-probe": (
        ("eps_list", list[float], [0.2, 0.05, 0.01], *_EPS_LIST),
        ("delta", float, 0.25, *_POSITIVE),
        ("n_paths", int, 200, *_AT_LEAST_1),
        ("energy_bound", float, 2.0, *_POSITIVE),
        ("control_amps", list[float], [0.0, 1.0, -1.2],
         lambda v, c: v and len(set(v)) == len(v) and all(
             _constant_control(c["mesh.t_final"], a, c["coefficients.d"])
             .in_energy_class(c["params.energy_bound"]) for a in v),
         "must be a nonempty list of distinct amplitudes whose energy class is "
         "within params.energy_bound"),
        ("u0_scales", list[float], [1.0, 0.5],  # distinct starts: a zero start scales to one
         lambda v, c: v and len(set(v)) == len(v) and min(v) >= 0
         and (len(v) == 1 or c["u0.amplitude"] > 0),
         "must be a nonempty list of distinct numbers >= 0, one number at u0.amplitude 0"),
    ),
    "averaging": (
        ("eps_list", list[float], [0.1, 0.01, 0.001], *_EPS_LIST),
        ("n_paths", int, 100, *_AT_LEAST_1),
        ("delta", float, _AVERAGING["delta"], *_POSITIVE),
        ("kappa_t_hats", list[float], [1e2, 1e3, 1e4],
         lambda v, c: v and min(v) > 0 and _increasing(v),
         "must be a nonempty, strictly increasing list of numbers > 0"),
        ("dump_first_pair", bool, False, *_ANY),
    ),
}

# what a choice never reads, keyed by (choice, value), a section name standing
# for all its keys; the value is the one set, or else the schema default.  A
# config that sets an unread key is rejected, so no setting is silently ignored
_UNREAD = {
    ("experiment", "heat-regression"): ("grid", "mesh", "coefficients", "scheme", "u0"),
    ("experiment", "reflection"): ("coefficients", "u0", "scheme"),
    ("coefficients.family", "burgers"): ("coefficients.beta", "coefficients.amplitude"),
    # a constant g: the solver never computes the convection
    ("coefficients.a_g", 0.0): ("scheme.convection",),
    ("scheme.reflection", "projection"): ("scheme.penalty_n",),
}

# experiments whose every table is one deterministic computation: the seed,
# which the config still accepts, changes none of their bytes (runmeta.jsonl
# records it)
_SEEDLESS = ("heat-regression", "rate-function")

_TOP = (
    ("experiment", tuple(_PARAMS), _REQUIRED, *_ANY),
    ("seed", int, 0, *_NONNEGATIVE),
    ("grid", dict, {}, *_ANY),
    ("mesh", dict, {}, *_ANY),
    ("coefficients", dict, {}, *_ANY),
    ("scheme", dict, {}, *_ANY),
    ("u0", dict, {}, *_ANY),
    ("params", dict, {}, *_ANY),
)


def _typed(val, kind):
    """val as a value of kind, or None when it is not one."""
    if isinstance(kind, tuple):
        return val if isinstance(val, str) else None
    if getattr(kind, "__origin__", None) is list:
        if not isinstance(val, list):
            return None
        items = [_typed(v, kind.__args__[0]) for v in val]
        return None if None in items else items
    if kind in (int, float):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            return None
        if kind is int:
            return int(val) if isinstance(val, int) or val.is_integer() else None
        return float(val) if abs(val) <= sys.float_info.max else None
    return val if isinstance(val, kind) else None


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _reject_unknown(table: dict, rows: tuple, where: str) -> None:
    known = [row[0] for row in rows]
    for key in table:
        if key not in known:
            raise ConfigError(f"unknown key '{_path(where, key)}'")


def _walk(table: dict, rows: tuple, where: str, seen: dict) -> dict:
    """Check one section's values against its rows; returns {key: typed value}."""
    out = {}
    for key, kind, default, check, why in rows:
        path = _path(where, key)
        if key not in table:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{path}'")
            val = default
        else:
            val = _typed(table[key], kind)
            if val is None:
                name = ("str" if isinstance(kind, tuple)
                        else kind if hasattr(kind, "__origin__") else kind.__name__)
                raise ConfigError(f"bad type at '{path}': expected {name}")
            if isinstance(kind, tuple) and val not in kind:
                raise ConfigError(
                    f"unknown value {val!r} at '{path}'; available: {', '.join(kind)}"
                )
        seen[path] = out[key] = val
        if check is not None and not check(val, seen):
            raise ConfigError(f"range violation at '{path}': {why}, got {val!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (echoed verbatim into the manifest)."""

    experiment: str
    seed: int
    scheme: SchemeConfig
    coefficients: dict
    u0_spec: dict
    params: dict
    raw: dict

    @property
    def grid(self) -> SpatialGrid:
        return self.scheme.grid

    @property
    def mesh(self) -> TimeMesh:
        return self.scheme.mesh

    def build_u0(self) -> np.ndarray:
        return sine_field(self.grid, amplitude=self.u0_spec["amplitude"])

    def build_coefficients(self):
        """Returns (coefficient set, averaged set or None)."""
        c = dict(self.coefficients)
        family, beta, amplitude = c.pop("family"), c.pop("beta"), c.pop("amplitude")
        if family == "burgers":
            return make_burgers_set(**c), None
        return burgers_multiscale_family(beta=beta, amplitude=amplitude, **c)


def _validate(raw: dict) -> ExperimentConfig:
    """Unknown keys first, then keys a choice never reads, then values."""
    seen: dict = {}
    _reject_unknown(raw, _TOP, "")
    top = _walk(raw, _TOP, "", seen)
    sections = (("grid", _GRID), ("mesh", _MESH), ("coefficients", _COEFFICIENTS),
                ("scheme", _SCHEME), ("u0", _U0), ("params", _PARAMS[top["experiment"]]))
    for name, rows in sections:
        _reject_unknown(top[name], rows, name)
    defaults = {f"{name}.{row[0]}": row[2] for name, rows in sections for row in rows}
    for (choice, value), unread in _UNREAD.items():
        section, _, key = choice.rpartition(".")
        set_value = top[section].get(key, defaults[choice]) if section else top[key]
        if _typed(set_value, type(value)) != value:  # typed, so JSON false is no a_g 0.0
            continue
        ignored = [f"'{name}.{k}'" for name, _ in sections for k in top[name]
                   if name in unread or f"{name}.{k}" in unread]
        if ignored:
            raise ConfigError(f"{choice} {value!r} does not read {', '.join(ignored)}")
    sec = {name: _walk(top[name], rows, name, seen) for name, rows in sections}
    grid = SpatialGrid(sec["grid"]["m"])
    t_final, dt = sec["mesh"]["t_final"], sec["mesh"]["dt"]
    mesh = TimeMesh(t_final, round(t_final / dt))
    return ExperimentConfig(
        experiment=top["experiment"], seed=top["seed"],
        scheme=SchemeConfig(grid=grid, mesh=mesh, **sec["scheme"]),
        coefficients=sec["coefficients"], u0_spec=sec["u0"], params=sec["params"], raw=raw,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError with the field path."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _validate(raw)


# ---------------------------------------------------------------------------
# experiment drivers: each returns {artifact filename: (header, rows)}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _drive_heat_regression(cfg: ExperimentConfig):
    p = cfg.params
    cs = make_burgers_set(0.0, sigma_amp=0.0)
    rows = []
    for m in p["m_values"]:
        grid = SpatialGrid(m)
        u0 = sine_field(grid)
        for dt in p["dt_values"]:
            mesh = TimeMesh(p["t_final"], round(p["t_final"] / dt))
            run = SchemeConfig(grid=grid, mesh=mesh, noise_scale=0.0)
            path = solve_skeleton(cs, u0, None, run)
            exact = np.exp(-math.pi**2 * mesh.times)[:, None] * u0[None, :]
            err = max(
                h_norm(path.u[k] - exact[k], grid) for k in range(mesh.steps + 1)
            )
            rows.append([grid.dx, mesh.dt, err, err <= p["tolerance"]])
    return {"heat_regression.csv": (["dx", "dt", "sup_h_error", "pass"], rows)}


def _drive_reflection(cfg: ExperimentConfig):
    sigma_amp = cfg.params["sigma_amp"]
    cs = make_burgers_set(0.0, c2=-1.0, sigma_amp=sigma_amp)
    u0 = np.zeros(cfg.grid.m)
    run = replace(cfg.scheme, noise_scale=1.0 if sigma_amp > 0 else 0.0)
    dw = sample_noise(cfg.seed, cfg.mesh, cs.d) if sigma_amp > 0 else None
    diagnostics, pen = penalization_convergence_probe(cs, u0, cfg.params["n_list"], dw, run)
    pen_rows = [[n, d2] for n, d2 in pen]
    return {
        "reflection_diagnostics.csv": (["min_u", "complementarity", "tv_k"], [list(diagnostics)]),
        "penalization.csv": (["penalty_n", "sq_dist_to_projection"], pen_rows),
    }


def _drive_rate_function(cfg: ExperimentConfig):
    p = cfg.params
    cs, _ = cfg.build_coefficients()
    u0 = cfg.build_u0()
    gen = _constant_control(cfg.mesh.t_final, p["h_star"], cs.d)
    target = solve_skeleton(cs, u0, gen, cfg.scheme).u
    res = rate_function(cs, u0, target, cfg.scheme, blocks=p["blocks"], tol=p["tol"],
                        max_iters=p["max_iters"])
    iter_rows = [[mu, j, r] for mu, j, r in res.history]
    result_rows = [[res.lambda_hat, res.residual, res.converged, res.iterations,
                    gen.energy]]
    h_rows = [[i, *row] for i, row in enumerate(res.h_star.values)]
    return {
        "rate_iterations.csv": (["mu", "objective", "sq_residual"], iter_rows),
        "rate_result.csv": (
            ["lambda_hat", "sq_residual", "converged", "iterations", "generator_energy"],
            result_rows,
        ),
        "rate_control.csv": (
            ["block"] + [f"h_{j}" for j in range(cs.d)], h_rows),
    }


def _drive_rare_event(cfg: ExperimentConfig):
    p = cfg.params
    eps, n_samples = p["eps"], p["n_samples"]
    cs, _ = cfg.build_coefficients()
    u0 = cfg.build_u0()
    gen = _constant_control(cfg.mesh.t_final, p["h_star"], cs.d)
    target = solve_skeleton(cs, u0, gen, cfg.scheme).u
    ev = EventSpec(target=target, delta=p["delta"])
    # one naive estimate per distinct eps, which the lower-bound probe bounds too
    naive = {e: estimate_naive(cs, u0, e, ev, n_samples, cfg.seed, cfg.scheme)
             for e in dict.fromkeys([eps, *p["eps_list"]])}
    tilted = estimate_importance(cs, u0, eps, ev, gen, n_samples, cfg.seed, cfg.scheme)
    est_rows = [
        [e.method, e.epsilon, e.p_hat, e.std_err, e.n_samples, e.seed, e.n_clipped]
        for e in (naive[eps], tilted)
    ]
    res = rate_function(cs, u0, target, cfg.scheme, blocks=p["blocks"])
    rows = fw_lower_bound_probe(cs, u0, ev, [naive[e] for e in p["eps_list"]], cfg.scheme, res,
                                p["theta"])
    fw_rows = [
        [r.epsilon, r.p_hat, r.eps_log_p, r.bound,
         "" if r.satisfied is None else r.satisfied, r.zero_hit, r.method]
        for r in rows
    ]
    return {
        "rare_event.csv": (
            ["method", "eps", "p_hat", "std_err", "n_samples", "seed", "n_clipped"],
            est_rows,
        ),
        "fw_bound.csv": (
            ["eps", "p_hat", "eps_log_p", "bound", "satisfied", "zero_hit", "method"],
            fw_rows,
        ),
    }


def _drive_condition_probe(cfg: ExperimentConfig):
    p = cfg.params
    cs, _ = cfg.build_coefficients()
    base_u0 = cfg.build_u0()
    u0_set = [s * base_u0 for s in p["u0_scales"]]
    controls = [_constant_control(cfg.mesh.t_final, a, cs.d) for a in p["control_amps"]]
    rows = condition_convergence_probe(
        cs, u0_set, controls, p["eps_list"], p["delta"], p["n_paths"], cfg.seed,
        cfg.scheme, energy_bound=p["energy_bound"],
    )
    return {
        "condition_probe.csv": (
            ["eps", "worst_fraction"],
            [[r.epsilon, r.worst_fraction] for r in rows],
        )
    }


def _drive_averaging(cfg: ExperimentConfig):
    p = cfg.params
    ms, avg = cfg.build_coefficients()
    u0 = cfg.build_u0()
    report = run_averaging_experiment(
        ms, avg, u0, p["eps_list"], p["n_paths"], cfg.seed, cfg.scheme, delta=p["delta"]
    )
    avg_rows = [
        [r.epsilon, r.mean_sq_dist, r.std_err, r.exceed_frac, r.n_samples, cfg.seed]
        for r in report.rows
    ]
    kappa_rows = [[t, k] for t, k in estimate_kappa(ms, avg, p["kappa_t_hats"])]
    tables = {
        "averaging.csv": (
            ["eps", "mean_sq_dist", "std_err", "exceed_frac", "n_samples", "seed"],
            avg_rows,
        ),
        "kappa.csv": (["t_hat", "kappa_hat"], kappa_rows),
    }
    if p["dump_first_pair"]:
        dw = sample_noise(cfg.seed, cfg.mesh, ms.d, path_index=0)
        fast = solve(ms, u0, dw, None,
                     replace(cfg.scheme, noise_scale=1.0, time_scale=p["eps_list"][0]))
        slow = solve(avg, u0, dw, None,
                     replace(cfg.scheme, noise_scale=1.0, time_scale=1.0))
        tables["fast_path_0.bin"] = path_binary_bytes(fast)
        tables["averaged_path_0.bin"] = path_binary_bytes(slow)
    return tables


_DRIVERS = {
    "heat-regression": _drive_heat_regression,
    "reflection": _drive_reflection,
    "rate-function": _drive_rate_function,
    "rare-event": _drive_rare_event,
    "condition-probe": _drive_condition_probe,
    "averaging": _drive_averaging,
}


def _git_blob_hash(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _write_failure(out: Path, cfg: ExperimentConfig | None, exc: Exception) -> Path:
    """failure.json: experiment, seed (both None for a rejected config), error and message.

    A blow-up also records the step, the path index and the noise and time
    scales of the solve it happened in.  With the seed, that replays a
    blow-up of the naive tube loop or the averaging pairs; elsewhere the
    path index means another row and a replay needs more (README "Exit
    codes", ROADMAP item 13).
    """
    out.mkdir(parents=True, exist_ok=True)
    record = {"experiment": None, "seed": None, "error": type(exc).__name__, "message": str(exc)}
    if cfg is not None:
        record.update(experiment=cfg.experiment, seed=cfg.seed)
    if isinstance(exc, BlowUpError):
        record.update(step_index=exc.step_index, path_index=exc.path_index,
                      noise_scale=exc.noise_scale, time_scale=exc.time_scale)
    failure = out / "failure.json"
    failure.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"error: {exc}", file=sys.stderr)
    return failure


def run_experiment(
    cfg: ExperimentConfig, out: str | Path, config_path: str | Path | None = None
) -> tuple[int, list[Path]]:
    """Dispatch to the named driver; write CSVs, runmeta.jsonl and manifest.txt.

    Returns (exit code, artifact paths).  Fatal errors (blow-up, any
    ValueError a library call raises, arrays larger than memory) yield a
    failure.json record and exit code 1; the rate-function experiment
    reports optimizer non-convergence in its tables, while the rare-event
    lower-bound probe cannot run without a converged rate and fails.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        tables = _DRIVERS[cfg.experiment](cfg)
    except (BlowUpError, ValueError, MemoryError) as exc:
        return 1, [_write_failure(out, cfg, exc)]

    artifacts: list[Path] = []
    meta_lines = []
    for name, payload in sorted(tables.items()):
        path = out / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
            size = len(payload)
        else:
            header, rows = payload
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            size = len(rows)
        artifacts.append(path)
        meta_lines.append({
            "experiment": cfg.experiment,
            "artifact": name,
            "rows": size,
            "seed": cfg.seed,
        })

    meta_path = out / "runmeta.jsonl"
    with open(meta_path, "w") as fh:
        for line in meta_lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    artifacts.append(meta_path)

    config_bytes = (
        Path(config_path).read_bytes()
        if config_path is not None
        else json.dumps(cfg.raw, sort_keys=True).encode()
    )
    manifest = out / "manifest.txt"
    with open(manifest, "w") as fh:
        fh.write(f"experiment: {cfg.experiment}\n")
        fh.write(f"seed: {cfg.seed}\n")
        fh.write(f"config: {json.dumps(cfg.raw, sort_keys=True)}\n")
        fh.write(f"config-blob-sha1: {_git_blob_hash(config_bytes)}\n")
        fh.write("artifacts:\n")
        for path in artifacts:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            fh.write(f"  {path.name} sha256={digest}\n")
        fh.write(f"wall-time-seconds: {time.time() - started:.3f}\n")
    return 0, artifacts + [manifest]


def _make_out(path: str) -> bool:
    """Make the output directory; False, after a one-line error naming --out, if it cannot be one.

    No failure record is written: it would have to go where the directory
    cannot be.
    """
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {path} cannot be an output directory: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="burgerslab",
        description="Run one reflected-Burgers experiment from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=".", help="output directory (default: '.')")
    args = parser.parse_args(argv)

    if not _make_out(args.out):
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _write_failure(Path(args.out), None, exc)
        return 2

    print(f"experiment={cfg.experiment} seed={cfg.seed} out={args.out}")
    unread = _UNREAD.get(("experiment", cfg.experiment), ())
    sections = [text for name, text in (
        ("grid", f"grid m={cfg.grid.m}"),
        ("mesh", f"mesh T={cfg.mesh.t_final} steps={cfg.mesh.steps}"),
        ("coefficients", f"coefficients {cfg.coefficients['family']}"),
        ("u0", f"u0 amplitude={cfg.u0_spec['amplitude']}"),
    ) if name not in unread]
    if sections:
        print(", ".join(sections))
    if cfg.experiment in _SEEDLESS:
        print(f"note: {cfg.experiment} draws no noise; seed {cfg.seed} changes no table",
              file=sys.stderr)
    code, artifacts = run_experiment(cfg, args.out, config_path=args.config)
    for path in artifacts:
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
