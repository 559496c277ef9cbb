import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burgerslab import cli
from burgerslab.averaging import run_averaging_experiment
from burgerslab.cli import ConfigError, load_config, main, run_experiment
from burgerslab.coefficients import make_burgers_set
from burgerslab.core import SpatialGrid, TimeMesh, sine_field
from burgerslab.ratefn import rate_function
from burgerslab.solver import SchemeConfig


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "heat-regression"})
        cfg = load_config(path)
        assert cfg.seed == 0
        assert cfg.grid.m == 64
        assert cfg.mesh.t_final == 1.0
        assert cfg.coefficients["family"] == "burgers"
        assert cfg.u0_spec == {"amplitude": 1.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_zero_dt_names_field(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "rate-function", "mesh": {"dt": 0.0}}
        )
        with pytest.raises(ConfigError, match="mesh.dt"):
            load_config(path)

    def test_penalty_stability_error(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "rate-function",
            "mesh": {"t_final": 1.0, "dt": 1e-3},
            "scheme": {"reflection": "penalized", "penalty_n": 1e4},
        })
        with pytest.raises(ConfigError, match="penalty"):
            load_config(path)

    @pytest.mark.parametrize("n, stable", [(1000.0, True), (1000.0 * (1 + 1e-13), True),
                                           (1000.0 * (1 + 1e-11), False), (1001.0, False)])
    def test_schema_and_scheme_share_the_penalty_bound(self, tmp_path, n, stable):
        # n * dt <= 1 up to rounding, at dt = 1e-3: the scheme row, the
        # reflection experiment's n_list and SchemeConfig draw the line alike
        steps = {"t_final": 1.0, "dt": 1e-3}
        payloads = [{"experiment": "rate-function", "mesh": steps,
                     "scheme": {"reflection": "penalized", "penalty_n": n}},
                    {"experiment": "reflection", "mesh": steps, "params": {"n_list": [n]}}]
        for i, payload in enumerate(payloads):
            path = write_config(tmp_path, payload, name=f"cfg{i}.json")
            if stable:
                load_config(path)
            else:
                with pytest.raises(ConfigError, match="n\\*dt <= 1"):
                    load_config(path)
        grid, mesh = SpatialGrid(4), TimeMesh(1.0, 1000)
        if stable:
            SchemeConfig(grid, mesh, reflection="penalized", penalty_n=n)
        else:
            with pytest.raises(ValueError, match="unstable"):
                SchemeConfig(grid, mesh, reflection="penalized", penalty_n=n)

    def test_schema_defaults_are_the_library_defaults(self):
        # each default a config may leave out is the one the library call it feeds takes
        def defaults(rows):
            return {row[0]: row[2] for row in rows}

        def signature(fn):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

        pairs = [(cli._SCHEME, SchemeConfig, ("reflection", "penalty_n", "convection")),
                 (cli._PARAMS["rate-function"], rate_function, ("blocks", "tol", "max_iters")),
                 (cli._PARAMS["rare-event"], rate_function, ("blocks",)),
                 (cli._PARAMS["averaging"], run_averaging_experiment, ("delta",)),
                 (cli._COEFFICIENTS, make_burgers_set,
                  ("a_g", "noise_profile", "c1", "c2", "sigma_amp", "d")),
                 (cli._U0, sine_field, ("amplitude",))]
        for rows, fn, keys in pairs:
            schema, library = defaults(rows), signature(fn)
            assert {k: schema[k] for k in keys} == {k: library[k] for k in keys}

    def test_unknown_top_key_named(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "reflection", "mehs": {}})
        with pytest.raises(ConfigError, match="'mehs'"):
            load_config(path)

    def test_unknown_param_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "averaging", "params": {"epz_list": [0.1]},
        })
        with pytest.raises(ConfigError, match="params.epz_list"):
            load_config(path)

    def test_unknown_experiment_lists_names(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "exit-time"})
        with pytest.raises(ConfigError, match="averaging"):
            load_config(path)

    def test_small_grid_named(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "reflection", "grid": {"m": 1}})
        with pytest.raises(ConfigError, match="grid.m"):
            load_config(path)


HEAT_CFG = {
    "experiment": "heat-regression",
    "seed": 3,
    "params": {
        "m_values": [16, 32],
        "dt_values": [2e-4, 1e-4],
        "t_final": 0.05,
        "tolerance": 5e-3,
    },
}


class TestRunExperiment:
    def test_heat_regression_artifacts(self, tmp_path):
        cfg = load_config(write_config(tmp_path, HEAT_CFG))
        code, artifacts = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        names = {p.name for p in artifacts}
        assert names == {"heat_regression.csv", "runmeta.jsonl", "manifest.txt"}
        table = (tmp_path / "out" / "heat_regression.csv").read_text().splitlines()
        assert table[0] == "dx,dt,sup_h_error,pass"
        assert len(table) == 1 + 4
        assert all(line.endswith("true") for line in table[1:])

    def test_manifest_references_every_artifact(self, tmp_path):
        cfg = load_config(write_config(tmp_path, HEAT_CFG))
        _, artifacts = run_experiment(cfg, tmp_path / "out")
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        emitted = {
            p.name for p in (tmp_path / "out").iterdir() if p.name != "manifest.txt"
        }
        for name in emitted:
            assert name in manifest

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(write_config(tmp_path, HEAT_CFG))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("heat_regression.csv", "runmeta.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_blow_up_writes_failure_record(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "experiment": "rate-function",
            "mesh": {"t_final": 1.0, "dt": 0.02},
            "coefficients": {"family": "burgers", "a_g": 8.0, "sigma_amp": 0.0},
            "u0": {"amplitude": 60.0},
            "params": {"h_star": 0.0, "max_iters": 1},
        }))
        code, artifacts = run_experiment(cfg, tmp_path / "out")
        assert code == 1
        record = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert record["error"] == "BlowUpError"
        assert "step" in record["message"]
        # enough to replay: the seed, the step, the batch row that blew up
        # and the scales of its solve (a noise-free skeleton here)
        assert record["seed"] == cfg.seed
        assert record["path_index"] == 0
        assert 0 <= record["step_index"] < 50
        assert (record["noise_scale"], record["time_scale"]) == (0.0, 1.0)
        assert f"step {record['step_index']}" in record["message"]

    def test_unconverged_rate_stage_fails_rare_event_run(self, tmp_path):
        # a tilt of 20 on a coarse mesh is out of the rate stage's reach: the
        # lower-bound probe cannot run, so the run fails instead of writing
        # an empty fw_bound.csv with exit 0
        cfg = load_config(write_config(tmp_path, {
            "experiment": "rare-event",
            "grid": {"m": 8},
            "mesh": {"t_final": 1.0, "dt": 0.05},
            "params": {"blocks": 1, "h_star": 20.0, "n_samples": 2},
        }))
        code, artifacts = run_experiment(cfg, tmp_path / "out")
        assert code == 1
        assert [p.name for p in artifacts] == ["failure.json"]
        record = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert record["error"] == "ValueError" and record["seed"] == cfg.seed
        assert "did not converge" in record["message"]
        assert "squared residual" in record["message"] and "tol 0.001" in record["message"]
        assert not (tmp_path / "out" / "fw_bound.csv").exists()

    def test_rare_event_probe_reuses_the_naive_estimate(self, tmp_path, monkeypatch):
        # one naive estimate per distinct eps: the run's at eps is the
        # probe's row at that eps, and the probe makes none of its own
        from burgerslab import cli, ldp

        ran = []
        real = cli.estimate_naive

        def counted(cs, u0, eps, *rest):
            ran.append(eps)
            return real(cs, u0, eps, *rest)

        monkeypatch.setattr(cli, "estimate_naive", counted)
        monkeypatch.setattr(ldp, "estimate_naive", lambda *args: pytest.fail("probe estimated"))
        cfg = load_config(write_config(tmp_path, {
            "experiment": "rare-event",
            "seed": 4,
            "grid": {"m": 16},
            "mesh": {"t_final": 1.0, "dt": 0.02},
            "params": {"eps": 0.1, "eps_list": [0.2, 0.1], "delta": 0.1,
                       "n_samples": 20, "blocks": 2},
        }))
        code, _ = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        assert ran == [0.1, 0.2]
        est = (tmp_path / "out" / "rare_event.csv").read_text().splitlines()[1].split(",")
        row = (tmp_path / "out" / "fw_bound.csv").read_text().splitlines()[2].split(",")
        assert (est[0], est[1:3]) == ("naive", row[:2])  # the same eps and p_hat


class TestAveragingDriver:
    def test_optional_path_dump(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "experiment": "averaging",
            "seed": 6,
            "grid": {"m": 8},
            "mesh": {"t_final": 0.5, "dt": 0.01},
            "coefficients": {"family": "multiscale", "beta": 0.5, "amplitude": 1.0},
            "params": {"eps_list": [0.1], "n_paths": 2, "dump_first_pair": True},
        }))
        code, artifacts = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        names = {p.name for p in artifacts}
        assert {"fast_path_0.bin", "averaged_path_0.bin"} <= names
        from burgerslab.solver import read_path_binary

        meta, u, _ = read_path_binary(str(tmp_path / "out" / "fast_path_0.bin"))
        assert meta["m"] == 8 and u.shape == (51, 8)
        # the seed column is the config's seed, the one noise every pair shares
        rows = (tmp_path / "out" / "averaging.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "seed"
        assert [row.split(",")[-1] for row in rows[1:]] == ["6"]


class TestShippedConfigs:
    def test_sample_configs_load(self):
        config_dir = Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) == 6
        names = {load_config(p).experiment for p in paths}
        assert names == {
            "heat-regression", "reflection", "rate-function",
            "rare-event", "condition-probe", "averaging",
        }


class TestMain:
    def test_cli_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, {**HEAT_CFG, "seed": 9})
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert (tmp_path / "out" / "heat_regression.csv").exists()
        meta = (tmp_path / "out" / "runmeta.jsonl").read_text()
        assert '"seed": 9' in meta

    @pytest.mark.parametrize("payload", [
        pytest.param(HEAT_CFG, id="heat-regression"),
        pytest.param({"experiment": "rate-function", "grid": {"m": 8},
                      "mesh": {"t_final": 0.2, "dt": 0.01},
                      "params": {"blocks": 2, "max_iters": 3}}, id="rate-function"),
    ])
    def test_seedless_experiment_says_the_seed_changes_nothing(self, tmp_path, capsys, payload):
        tables, meta = [], []
        for seed in (1, 2):
            path = write_config(tmp_path, {**payload, "seed": seed}, name=f"cfg{seed}.json")
            out = tmp_path / str(seed)
            assert main(["--config", str(path), "--out", str(out)]) == 0
            err = capsys.readouterr().err
            assert err == (f"note: {payload['experiment']} draws no noise; seed {seed} "
                           "changes no table\n")
            tables.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
            lines = (out / "runmeta.jsonl").read_text().splitlines()
            meta.append([json.loads(line) for line in lines])
        assert tables[0] and tables[0] == tables[1]
        # runmeta.jsonl records the seed, and nothing else in it differs
        assert [line.pop("seed") for line in meta[0]] == [1] * len(meta[0])
        assert [line.pop("seed") for line in meta[1]] == [2] * len(meta[1])
        assert meta[0] == meta[1]

    def test_seeded_experiment_prints_no_note(self, tmp_path, capsys):
        payload = {"experiment": "reflection", "grid": {"m": 8},
                   "mesh": {"t_final": 0.2, "dt": 0.01}, "params": {"n_list": [10, 50]}}
        path = write_config(tmp_path, payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("payload, sections", [
        # the heat regression builds its own grids, meshes, set and start
        pytest.param(HEAT_CFG, [], id="heat-regression"),
        # the reflection probe marches its own set from a zero start
        pytest.param({"experiment": "reflection", "grid": {"m": 8},
                      "mesh": {"t_final": 0.2, "dt": 0.01}, "params": {"n_list": [10, 50]}},
                     ["grid m=8, mesh T=0.2 steps=20"], id="reflection"),
    ])
    def test_banner_names_only_the_sections_the_run_reads(self, tmp_path, capsys, payload,
                                                          sections):
        path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"experiment={payload['experiment']} seed={payload.get('seed', 0)} " \
                           f"out={out_dir}"
        assert [line for line in lines[1:] if not line.startswith("wrote ")] == sections

    def test_cli_bad_config_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # without --out the failure record lands in '.'
        path = write_config(tmp_path, {"experiment": "unknown-thing"})
        code = main(["--config", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert (tmp_path / "failure.json").exists()

    def test_cli_negative_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**HEAT_CFG, "seed": -1})
        code = main(["--config", str(path)])
        assert code == 2
        assert json.loads((tmp_path / "failure.json").read_text())["error"] == "ConfigError"

    @pytest.mark.parametrize("flag", ["--experiment", "--seed"])
    def test_flag_restating_a_config_key_is_gone(self, tmp_path, capsys, monkeypatch, flag):
        # the config's experiment and seed keys are their one declaration
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, HEAT_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_help_lists_only_config_and_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        flags = {word.strip("[],") for word in capsys.readouterr().out.split()
                 if word.strip("[],").startswith("--")}
        assert flags == {"--help", "--config", "--out"}

    def test_manifest_describes_the_config_that_made_the_artifacts(self, tmp_path):
        # the manifest's config line and blob hash are those of the file the
        # run read, byte for byte
        path = Path(__file__).resolve().parents[1] / "configs" / "reflection.json"
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        lines = dict(line.split(": ", 1) for line in
                     (out / "manifest.txt").read_text().splitlines() if ": " in line)
        data = path.read_bytes()
        blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        assert lines["config-blob-sha1"] == blob
        assert json.loads(lines["config"]) == json.loads(data)
        assert lines["seed"] == str(json.loads(data)["seed"])

    def test_library_value_error_writes_failure_record(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("boom")

        monkeypatch.setitem(cli._DRIVERS, "heat-regression", broken)
        code = main(["--config", str(write_config(tmp_path, HEAT_CFG)),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        record = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert record == {"experiment": "heat-regression", "seed": 3, "error": "ValueError",
                          "message": "boom"}

    def test_arrays_larger_than_memory_write_failure_record(self, tmp_path, capsys):
        # 10^15 steps: the path array alone is hundreds of PiB, past any
        # address space, so the allocation fails at once; once a traceback
        payload = {"experiment": "reflection", "mesh": {"dt": 1e-15}}
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        assert "allocate" in capsys.readouterr().err
        record = json.loads((out / "failure.json").read_text())
        assert record["error"] == "MemoryError" and record["experiment"] == "reflection"
        assert sorted(p.name for p in out.iterdir()) == ["failure.json"]

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, case):
        # each once ended in an IsADirectoryError or UnicodeDecodeError traceback
        if case == "directory":
            path = tmp_path / "cfg.json"
            path.mkdir()
        else:
            path = tmp_path / "cfg.json"
            path.write_bytes(b'{"experiment": "caf\xe9"}')
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "config" in capsys.readouterr().err
        record = json.loads((out / "failure.json").read_text())
        assert record["error"] == "ConfigError" and "config" in record["message"]

    @pytest.mark.parametrize("payload", [HEAT_CFG, {"experiment": "unknown-thing"}])
    def test_out_naming_a_file_exits_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      payload):
        # once a FileExistsError traceback from mkdir; a bad config must not
        # reach it either, since its failure record would go there
        def no_solve(cfg):
            raise AssertionError("a solve ran")

        monkeypatch.setitem(cli._DRIVERS, "heat-regression", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        code = main(["--config", str(write_config(tmp_path, payload)), "--out", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--out" in err
        assert taken.read_text() == "keep me"


SMALL = {"grid": {"m": 8}, "mesh": {"t_final": 0.2, "dt": 0.01}}
MULTISCALE = {**SMALL, "coefficients": {"family": "multiscale", "beta": 0.5}}
TINY_HEAT = {"experiment": "heat-regression",
             "params": {"m_values": [8], "dt_values": [0.01], "t_final": 0.1}}


def bad(name, field, payload):
    return pytest.param(payload, field, id=name)


# each of these once ended in a traceback, an empty table, a silently
# different run or a check made only after the whole experiment
BAD_CONFIGS = [
    bad("reflection-n-list-decreasing", "params.n_list",
        {"experiment": "reflection", **SMALL, "params": {"n_list": [50, 10]}}),
    bad("reflection-default-n-list-unstable", "params.n_list",
        {"experiment": "reflection", "grid": {"m": 8}, "mesh": {"t_final": 1.0, "dt": 0.01}}),
    bad("averaging-repeated-eps", "params.eps_list",
        {"experiment": "averaging", **MULTISCALE,
         "params": {"eps_list": [0.1, 0.1], "n_paths": 1}}),
    bad("averaging-kappa-t-hats-decreasing", "params.kappa_t_hats",
        {"experiment": "averaging", **MULTISCALE,
         "params": {"eps_list": [0.1], "n_paths": 1, "kappa_t_hats": [100, 10]}}),
    bad("condition-probe-control-over-energy-bound", "params.control_amps",
        {"experiment": "condition-probe", **SMALL,
         "params": {"control_amps": [10], "energy_bound": 1, "n_paths": 1}}),
    bad("condition-probe-negative-eps", "params.eps_list",
        {"experiment": "condition-probe", **SMALL,
         "params": {"eps_list": [-0.1], "n_paths": 1}}),
    bad("condition-probe-nan-eps", "params.eps_list",
        {"experiment": "condition-probe", **SMALL,
         "params": {"eps_list": [0.1, float("nan")], "n_paths": 1}}),
    # an entry keys a row, so a repeat once wrote the row twice
    bad("condition-probe-repeated-eps", "params.eps_list",
        {"experiment": "condition-probe", **SMALL,
         "params": {"eps_list": [0.2, 0.2], "n_paths": 1}}),
    # a repeated start or control once marched the same paths again for the same row
    bad("condition-probe-repeated-control", "params.control_amps",
        {"experiment": "condition-probe", **SMALL,
         "params": {"control_amps": [1.0, 1.0], "n_paths": 1}}),
    bad("condition-probe-repeated-u0-scale", "params.u0_scales",
        {"experiment": "condition-probe", **SMALL,
         "params": {"u0_scales": [0.5, 0.5], "n_paths": 1}}),
    bad("condition-probe-scales-of-a-zero-start", "params.u0_scales",
        {"experiment": "condition-probe", **SMALL, "u0": {"amplitude": 0},
         "params": {"u0_scales": [1.0, 0.5], "n_paths": 1}}),
    bad("rare-event-repeated-eps", "params.eps_list",
        {"experiment": "rare-event", **SMALL,
         "params": {"eps_list": [0.05, 0.05], "n_samples": 2, "blocks": 1}}),
    bad("heat-regression-repeated-m-and-dt", "params.m_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "m_values": [8, 8],
                                 "dt_values": [0.01, 0.01]}}),
    bad("heat-regression-repeated-dt", "params.dt_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "dt_values": [0.01, 0.01]}}),
    bad("heat-regression-dt-values-of-one-step-count", "params.dt_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "dt_values": [0.01, 0.0100000000001]}}),
    bad("heat-regression-grid-too-small", "params.m_values",
        {"experiment": "heat-regression", "params": {"m_values": [1]}}),
    bad("heat-regression-grid-too-large", "params.m_values",
        {"experiment": "heat-regression", "params": {"m_values": [32, 257]}}),
    bad("grid-too-large-for-dense-inverse", "grid.m",
        {"experiment": "reflection", "grid": {"m": 257}, "mesh": {"t_final": 0.1, "dt": 0.001}}),
    bad("unknown-noise-profile", "coefficients.noise_profile",
        {"experiment": "rare-event", **SMALL, "coefficients": {"noise_profile": "gaussian"},
         "params": {"n_samples": 2, "blocks": 1}}),
    bad("rare-event-empty-eps-list", "params.eps_list",
        {"experiment": "rare-event", **SMALL,
         "params": {"eps_list": [], "n_samples": 2, "blocks": 1}}),
    bad("averaging-empty-eps-list", "params.eps_list",
        {"experiment": "averaging", **MULTISCALE, "params": {"eps_list": [], "n_paths": 1}}),
    bad("heat-regression-dt-not-dividing-t-final", "params.dt_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "dt_values": [0.03]}}),
    bad("mesh-step-count-overflows", "mesh.dt",
        {"experiment": "reflection", "mesh": {"t_final": 1e308, "dt": 1e-10}}),
    bad("heat-regression-step-count-overflows", "params.dt_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "t_final": 1e308, "dt_values": [1e-10]}}),
    bad("mesh-subnormal-dt-overflows", "mesh.dt",
        {"experiment": "reflection", "mesh": {"t_final": 1.0, "dt": 5e-324}}),
    bad("heat-regression-subnormal-dt-overflows", "params.dt_values",
        {**TINY_HEAT, "params": {**TINY_HEAT["params"], "dt_values": [5e-324]}}),
    bad("negative-seed", "seed", {**TINY_HEAT, "seed": -1}),
    # --out is the one declaration of the output directory
    bad("out-dir-key", "out_dir", {"experiment": "reflection", "out_dir": "x"}),
    # a control block shorter than a step is never applied: 8 blocks on 2
    # steps once ran and listed six blocks of zeros in rate_control.csv
    bad("rate-function-more-blocks-than-steps", "params.blocks",
        {"experiment": "rate-function", "mesh": {"dt": 0.5}, "params": {"blocks": 8}}),
    bad("rate-function-default-blocks-over-steps", "params.blocks",
        {"experiment": "rate-function", "grid": {"m": 8}, "mesh": {"t_final": 0.1, "dt": 0.02}}),
    bad("rare-event-more-blocks-than-steps", "params.blocks",
        {"experiment": "rare-event", **SMALL, "params": {"n_samples": 2, "blocks": 21}}),
    bad("dump-first-pair-not-bool", "params.dump_first_pair",
        {"experiment": "averaging", **MULTISCALE,
         "params": {"eps_list": [0.1], "n_paths": 1, "dump_first_pair": "yes"}}),
    # a zero start is u0.amplitude 0, and no noise is coefficients.sigma_amp 0
    bad("u0-kind-key", "u0.kind",
        {"experiment": "condition-probe", **SMALL, "u0": {"kind": "zero"}}),
    bad("u0-mode-key", "u0.mode",
        {"experiment": "condition-probe", **SMALL, "u0": {"amplitude": 0, "mode": 3}}),
    bad("zero-noise-profile", "coefficients.noise_profile",
        {"experiment": "condition-probe", **SMALL, "coefficients": {"noise_profile": "zero"}}),
    # every builtin noise is the same on each channel: d channels are one of sigma_amp * sqrt(d)
    bad("two-noise-channels", "coefficients.d",
        {"experiment": "condition-probe", **SMALL, "coefficients": {"d": 2}}),
]


@pytest.mark.parametrize("payload, field", BAD_CONFIGS)
def test_bad_config_rejected_before_any_solve(tmp_path, capsys, payload, field):
    out = tmp_path / "out"
    code = main(["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "ConfigError" and field in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]


# heat-regression reads only params and seed; reflection builds its own
# coefficients, starts from zero and sets the scheme itself; the burgers
# family has no multiscale perturbation; a constant g (a_g 0) has no
# convection to discretize and projection no penalty.  Each of the last two
# once ran and ignored the key
UNREAD = [
    pytest.param({**TINY_HEAT, "scheme": {"reflection": "penalized"},
                  "coefficients": {"c2": -5}, "u0": {"amplitude": 3}},
                 "experiment 'heat-regression'",
                 ["coefficients.c2", "scheme.reflection", "u0.amplitude"], id="heat-regression"),
    pytest.param({"experiment": "reflection", **SMALL, "params": {"n_list": [10]},
                  "coefficients": {"a_g": 2, "c2": 5}, "u0": {"amplitude": 3},
                  "scheme": {"convection": "upwind", "penalty_n": 5.0}},
                 "experiment 'reflection'",
                 ["coefficients.a_g", "coefficients.c2", "scheme.convection",
                  "scheme.penalty_n", "u0.amplitude"],
                 id="reflection"),
    pytest.param({"experiment": "rare-event", **SMALL,
                  "params": {"n_samples": 2, "blocks": 1}, "scheme": {"convection": "upwind"}},
                 "coefficients.a_g 0.0", ["scheme.convection"], id="convection-default-a_g"),
    pytest.param({"experiment": "averaging", **MULTISCALE, "params": {"n_paths": 2},
                  "coefficients": {"family": "multiscale", "beta": 0.5, "a_g": 0},
                  "scheme": {"convection": "central"}},
                 "coefficients.a_g 0.0", ["scheme.convection"], id="convection-a_g-set-0"),
    pytest.param({"experiment": "condition-probe", **SMALL, "params": {"n_paths": 2},
                  "coefficients": {"family": "burgers", "beta": 0.5, "amplitude": 3}},
                 "coefficients.family 'burgers'",
                 ["coefficients.amplitude", "coefficients.beta"], id="burgers-family"),
    pytest.param({"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
                  "coefficients": {"beta": 0.5}},
                 "coefficients.family 'burgers'", ["coefficients.beta"],
                 id="burgers-family-default"),
    pytest.param({"experiment": "condition-probe", **SMALL, "params": {"n_paths": 2},
                  "scheme": {"penalty_n": 5.0}},
                 "scheme.reflection 'projection'", ["scheme.penalty_n"],
                 id="projection-default"),
    pytest.param({"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
                  "scheme": {"reflection": "projection", "penalty_n": 5.0}},
                 "scheme.reflection 'projection'", ["scheme.penalty_n"], id="projection-set"),
]


# the message names the choice, whose value is the one set or else the schema default
@pytest.mark.parametrize("payload, choice, ignored", UNREAD)
def test_key_the_experiment_never_reads_is_rejected(tmp_path, capsys, payload, choice, ignored):
    out = tmp_path / "out"
    code = main(["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "ConfigError"
    head, _, named = record["message"].partition(" does not read ")
    assert head == choice
    assert sorted(named.split(", ")) == [f"'{field}'" for field in ignored]  # and no other key
    assert record["message"] in err
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]


# the key a choice reads is accepted, and params.blocks may equal the steps
@pytest.mark.parametrize("payload", [
    {"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
     "u0": {"amplitude": 2.0}},
    {"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
     "coefficients": {"a_g": 1.0}, "scheme": {"convection": "upwind"}},
    {"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
     "scheme": {"reflection": "penalized", "penalty_n": 5.0}},
    {"experiment": "rate-function", **SMALL, "params": {"blocks": 2},
     "coefficients": {"noise_profile": "bounded", "sigma_amp": 2.0}},
    {"experiment": "rate-function", **SMALL, "params": {"blocks": 20}},
])
def test_keys_a_choice_reads_are_accepted(tmp_path, payload):
    load_config(write_config(tmp_path, payload))


# 10^14 or 10^15 steps: each experiment's first array is petabytes, past any
# address space, so the allocation fails at once
HUGE_MESHES = [
    pytest.param({"experiment": "rare-event", "mesh": {"dt": 1e-15}}, id="rare-event"),
    pytest.param({"experiment": "rate-function", "mesh": {"dt": 1e-15}}, id="rate-function"),
    pytest.param({"experiment": "condition-probe", "mesh": {"dt": 1e-15}},
                 id="condition-probe"),
    pytest.param({"experiment": "averaging", "mesh": {"dt": 1e-15},
                  "coefficients": {"family": "multiscale", "beta": 0.5}}, id="averaging"),
    pytest.param({"experiment": "heat-regression", "params": {"dt_values": [1e-15]}},
                 id="heat-regression"),
]


@pytest.mark.parametrize("payload", HUGE_MESHES)
def test_every_experiment_too_large_for_memory_writes_failure_record(tmp_path, capsys, payload):
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
    assert "allocate" in capsys.readouterr().err
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "MemoryError" and record["experiment"] == payload["experiment"]
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]


@pytest.mark.parametrize("payload, code", [
    pytest.param({"experiment": "reflection", "no_such_key": 1}, 2, id="unknown-key"),
    pytest.param({"experiment": "reflection", "mesh": {"t_final": 1e308, "dt": 1e-10}}, 2,
                 id="overflowing-mesh"),
    pytest.param({"experiment": "reflection", "mesh": {"dt": 1e-15}}, 1, id="petabyte-mesh"),
    pytest.param({"experiment": "condition-probe", "coefficients": {"d": 2}}, 2,
                 id="two-noise-channels"),
])
def test_command_line_never_prints_a_traceback(tmp_path, payload, code):
    # the module run as a program, under -X dev -W error: the exit code and a
    # failure record, with the error on one line
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "burgerslab.cli",
         "--config", str(write_config(tmp_path, payload)), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert (out / "failure.json").exists()
    assert "Traceback" not in done.stderr and done.stderr.startswith("error: ")
