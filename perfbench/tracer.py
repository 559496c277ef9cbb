"""Span tracing of burgerslab from outside the package.

Every public function the CLI experiments call is wrapped at its module
boundary: the name is replaced in each module that imported it, because
`ldp`, `averaging`, `ratefn` and `cli` bind `solve`, `solve_skeleton`,
`sample_noise` and `path_distance` by name at import time.  Coefficient
callbacks are wrapped on the sets the CLI builds through its factories.
A name that is not where the tracer expects it raises, so the traced run
fails instead of reporting the layer as zero work.

A span is (id, parent id, name, start, end, attrs).  The parent is the
innermost open span, so a layer's self time is its duration minus the time
its child spans cover.  Spans stay in memory and are written out once, at
the end of the traced process.

`summarize` turns a span list into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SET_CALLBACKS = {
    "CoefficientSet": ("g", "dg_dz", "f", "sigma"),
    "AveragedCoefficientSet": ("f_bar", "sigma_bar"),
}
CALLBACK_SPANS = tuple("coefficients." + c for cs in SET_CALLBACKS.values() for c in cs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, attrs=None):
        """fn with a span around each call; attrs(args, result) adds counts to it."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1,
                              attrs(args, out) if attrs and out is not None else None))

        return traced

    def patch(self, module, attr, name, attrs=None) -> None:
        """Replace module.attr by its traced version.

        A missing name raises: a layer that moved must fail the traced run,
        not read as zero work.
        """
        if not hasattr(module, attr):
            raise AttributeError(f"tracer: {module.__name__} has no {attr!r} to wrap")
        setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))

    def wrap_set(self, cs) -> None:
        """Trace the callbacks of a (frozen) coefficient set in place."""
        kind = type(cs).__name__
        if kind not in SET_CALLBACKS:
            raise TypeError(f"tracer: a set factory returned an unknown {kind}")
        for field in SET_CALLBACKS[kind]:
            object.__setattr__(cs, field, self.wrap("coefficients." + field,
                                                    getattr(cs, field)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.spans, separators=(",", ":")))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI experiments cross."""
    from burgerslab import averaging, cli, ldp, ratefn, solver

    def kernel_attrs(args, out):
        b = args[1]
        return (b.shape[0], 1 if b.ndim == 1 else b.shape[1])

    solve_attrs = lambda args, out: out.mesh.steps
    tracer.patch(solver, "cho_solve_banded", "solver.kernel", kernel_attrs)
    for mod in (solver, ldp, averaging, cli):
        tracer.patch(mod, "solve", "solver.solve", solve_attrs)
    for mod in (ldp, ratefn, cli):
        tracer.patch(mod, "solve_skeleton", "solver.solve_skeleton")
    for mod in (ldp, averaging, ratefn):
        tracer.patch(mod, "path_distance", "core.path_distance")
    for mod in (ldp, averaging, cli):
        tracer.patch(mod, "sample_noise", "core.sample_noise")

    tracer.patch(cli, "rate_function", "ratefn.rate_function",
                 lambda args, out: out.iterations)
    estimate_attrs = lambda args, out: (out.n_samples, round(out.p_hat * out.n_samples),
                                        out.n_clipped)
    for mod in (ldp, cli):
        tracer.patch(mod, "estimate_naive", "ldp.estimate_naive", estimate_attrs)
        tracer.patch(mod, "estimate_importance", "ldp.estimate_importance", estimate_attrs)
    tracer.patch(cli, "fw_lower_bound_probe", "ldp.fw_lower_bound_probe")
    tracer.patch(cli, "run_averaging_experiment", "averaging.run_averaging_experiment",
                 lambda args, out: sum(r.n_samples for r in out.rows))
    tracer.patch(cli, "penalization_convergence_probe",
                 "averaging.penalization_convergence_probe")
    tracer.patch(cli, "estimate_kappa", "coefficients.estimate_kappa")

    def traced_sets(factory):
        def build(*args, **kwargs):
            out = factory(*args, **kwargs)
            for cs in out if isinstance(out, tuple) else (out,):
                tracer.wrap_set(cs)
            return out
        return build

    for attr in ("make_burgers_set", "burgers_multiscale_family"):
        setattr(cli, attr, traced_sets(getattr(cli, attr)))

    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(cli, "run_experiment", "cli.run_experiment")
    for key, fn in list(cli._DRIVERS.items()):
        cli._DRIVERS[key] = tracer.wrap("cli.experiment", fn)


def summarize(spans: list) -> dict[str, float]:
    """Per-layer metrics from one traced CLI process (process-level ones excluded)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    names = {}
    for sid, parent, name, t0, t1, _ in spans:
        names[sid] = name
        calls[name] += 1
        total[name] += t1 - t0
        child_time[parent] += t1 - t0

    steps = kernel_flops = kernel_bytes = 0
    self_solve = callback_in_solve = 0.0
    skeleton_in_rate = iterations = 0
    naive_n = naive_hits = importance_n = clipped = pairs = 0
    for sid, parent, name, t0, t1, attrs in spans:
        parent_name = names.get(parent)
        if name == "solver.solve":
            steps += attrs or 0
            self_solve += (t1 - t0) - child_time[sid]
        elif name == "solver.kernel" and attrs:
            m, nrhs = attrs
            # banded Cholesky solve, bandwidth 1: two sweeps of 3m - 2 flops per
            # right-hand side; factor, right-hand side and solution touched once
            kernel_flops += (6 * m - 4) * nrhs
            kernel_bytes += 8 * (2 * m + 2 * m * nrhs)
        elif name in CALLBACK_SPANS and parent_name == "solver.solve":
            callback_in_solve += t1 - t0
        elif name == "solver.solve_skeleton" and parent_name == "ratefn.rate_function":
            skeleton_in_rate += 1
        elif name == "ratefn.rate_function":
            iterations += attrs or 0
        elif name == "ldp.estimate_naive" and attrs:
            naive_n += attrs[0]
            naive_hits += attrs[1]
        elif name == "ldp.estimate_importance" and attrs:
            importance_n += attrs[0]
            clipped += attrs[2]
        elif name == "averaging.run_averaging_experiment":
            pairs += attrs or 0

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    kernel = "solver.kernel"
    return {
        "solver.solve.calls": calls["solver.solve"],
        "solver.steps": steps,
        "solver.solve.ms_per_path": per(total["solver.solve"], calls["solver.solve"], 1e3),
        "solver.step_us": per(self_solve, steps, 1e6),
        "solver.kernel.calls": calls[kernel],
        "solver.kernel.us": per(total[kernel], calls[kernel], 1e6),
        "solver.kernel.seconds": total[kernel],
        "solver.kernel.flops_computed": kernel_flops,
        "solver.kernel.bytes_computed": kernel_bytes,
        "coefficients.callback.calls": sum(calls[c] for c in CALLBACK_SPANS),
        "coefficients.callback.us_per_step": per(callback_in_solve, steps, 1e6),
        "coefficients.estimate_kappa_ms": total["coefficients.estimate_kappa"] * 1e3,
        "ratefn.rate_function_s": total["ratefn.rate_function"],
        "ratefn.skeleton_solves": skeleton_in_rate,
        "ratefn.iterations": iterations,
        "ratefn.iter_per_solve": per(iterations, skeleton_in_rate),
        "ldp.naive.ms_per_sample": per(total["ldp.estimate_naive"], naive_n, 1e3),
        "ldp.importance.ms_per_sample": per(total["ldp.estimate_importance"], importance_n, 1e3),
        "ldp.fw_probe_s": total["ldp.fw_lower_bound_probe"],
        "ldp.naive.hit_ratio": per(naive_hits, naive_n),
        "ldp.importance.n_clipped": clipped,
        "averaging.experiment_s": total["averaging.run_averaging_experiment"],
        "averaging.ms_per_pair": per(total["averaging.run_averaging_experiment"], pairs, 1e3),
        "averaging.penalization_probe_s": total["averaging.penalization_convergence_probe"],
        "core.sample_noise.calls": calls["core.sample_noise"],
        "core.sample_noise.us": per(total["core.sample_noise"], calls["core.sample_noise"], 1e6),
        "core.path_distance.calls": calls["core.path_distance"],
        "core.path_distance.us": per(total["core.path_distance"], calls["core.path_distance"], 1e6),
        "cli.load_config_ms": total["cli.load_config"] * 1e3,
        "cli.write_ms": (total["cli.run_experiment"] - total["cli.experiment"]) * 1e3,
    }
