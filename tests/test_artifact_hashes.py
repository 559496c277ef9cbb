"""tools/artifact_hashes.py covers every hashed run and hashes what the manifest hashes."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_hashes",
                                                  ROOT / "tools" / "artifact_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_are_the_shipped_configs_and_each_workload_at_three_seeds():
    tool = _tool()
    labels = [label for label, _ in tool.runs()]
    shipped = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert len(shipped) == 6
    assert labels == ([f"configs/{name}" for name in shipped]
                      + [f"{w}@seed{s}" for w in tool.WORKLOADS for s in (1, 2, 3)])
    assert {cfg["seed"] for label, cfg in tool.runs() if "@" in label} == {1, 2, 3}


def test_hashes_equal_the_manifest(tmp_path):
    tool = _tool()
    config = {"experiment": "reflection", "grid": {"m": 8}, "mesh": {"t_final": 0.2, "dt": 0.01},
              "params": {"n_list": [10, 50], "sigma_amp": 0.25}}
    code, files = tool.run(config, tmp_path / "run")
    assert code == 0
    manifest = (tmp_path / "run" / "out" / "manifest.txt").read_text()
    listed = sorted((digest, name) for name, digest in
                    re.findall(r"^  (\S+) sha256=(\w+)$", manifest, re.M))
    assert [name for _, name in files] == ["penalization.csv", "reflection_diagnostics.csv",
                                           "runmeta.jsonl"]
    assert sorted(files) == listed


def test_the_listing_keeps_its_format_and_the_kernel_goes_to_stderr(tmp_path, monkeypatch,
                                                                     capsys):
    tool = _tool()
    config = {"experiment": "heat-regression",
              "params": {"m_values": [8], "dt_values": [0.01], "t_final": 0.1}}
    monkeypatch.setattr(tool, "runs", lambda: [("configs/tiny", config)])
    assert tool.main() == 0
    out, err = capsys.readouterr()
    assert re.fullmatch(r"([0-9a-f]{64}  configs/tiny/\S+\n)+", out)
    assert err == f"openblas core: {tool.openblas_corename()}\n"


def test_bench_record_names_the_kernel_through_the_listing_tool():
    # one openblas_corename for the byte listing and the benchmark record
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.openblas_corename is sys.modules["artifact_hashes"].openblas_corename
    defined = [path.name for path in sorted((ROOT / "tools").glob("*.py"))
               if "def openblas_corename" in path.read_text()]
    assert defined == ["artifact_hashes.py"]
