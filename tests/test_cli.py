import json
from pathlib import Path

import pytest

from burgerslab import cli
from burgerslab.cli import ConfigError, load_config, main, run_experiment


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
        assert cfg.u0_spec["kind"] == "sine"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_zero_dt_names_field(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "heat-regression", "mesh": {"dt": 0.0}}
        )
        with pytest.raises(ConfigError, match="mesh.dt"):
            load_config(path)

    def test_penalty_stability_error(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "reflection",
            "mesh": {"t_final": 1.0, "dt": 1e-3},
            "scheme": {"reflection": "penalized", "penalty_n": 1e4},
        })
        with pytest.raises(ConfigError, match="penalty"):
            load_config(path)

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
            "coefficients": {"family": "burgers", "a_g": 8.0, "noise_profile": "zero"},
            "u0": {"kind": "sine", "amplitude": 60.0},
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
        path = write_config(tmp_path, HEAT_CFG)
        code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert (tmp_path / "out" / "heat_regression.csv").exists()
        meta = (tmp_path / "out" / "runmeta.jsonl").read_text()
        assert '"seed": 9' in meta

    def test_cli_bad_config_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # without --out the failure record lands in '.'
        path = write_config(tmp_path, {"experiment": "unknown-thing"})
        code = main(["--config", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert (tmp_path / "failure.json").exists()

    def test_cli_experiment_override_validated(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, HEAT_CFG)
        code = main(["--config", str(path), "--experiment", "nope"])
        assert code == 2

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


SMALL = {"grid": {"m": 8}, "mesh": {"t_final": 0.2, "dt": 0.01}}
MULTISCALE = {**SMALL, "coefficients": {"family": "multiscale", "beta": 0.5}}
TINY_HEAT = {"experiment": "heat-regression",
             "params": {"m_values": [8], "dt_values": [0.01], "t_final": 0.1}}


def bad(name, field, payload, *argv):
    return pytest.param(payload, list(argv), field, id=name)


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
    bad("experiment-override-revalidates-params", "params.m_values",
        TINY_HEAT, "--experiment", "reflection"),
    bad("dump-first-pair-not-bool", "params.dump_first_pair",
        {"experiment": "averaging", **MULTISCALE,
         "params": {"eps_list": [0.1], "n_paths": 1, "dump_first_pair": "yes"}}),
]


@pytest.mark.parametrize("payload, argv, field", BAD_CONFIGS)
def test_bad_config_rejected_before_any_solve(tmp_path, capsys, payload, argv, field):
    out = tmp_path / "out"
    code = main(["--config", str(write_config(tmp_path, payload)), "--out", str(out), *argv])
    assert code == 2
    assert field in capsys.readouterr().err
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "ConfigError" and field in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
