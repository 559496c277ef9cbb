"""tools/bench_record.py writes every number it promises, finite, on one tiny run."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numbers(tree):
    """Every number in a JSON tree, bools left out."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _numbers(v)]
    if isinstance(tree, list):
        return [x for v in tree for x in _numbers(v)]
    return [tree] if isinstance(tree, (int, float)) and not isinstance(tree, bool) else []


def test_spread_of_medians():
    tool = _tool()
    assert tool.spread([3.0, 1.0, 2.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "values": [3.0, 1.0, 2.0, 4.0, 5.0]}
    assert tool.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "values": [7.0]}
    assert tool.best_median([3.0, 1.0, 2.0]) == {"best": 1.0, "median": 2.0}


def test_record_schema_on_one_tiny_run():
    # the benchmark's child process imports scipy, so the workload runs need it
    pytest.importorskip("scipy")
    tool = _tool()
    data = json.loads(json.dumps(tool.record(0, 1, 0, 1, ["rare_event"], ["heat_regression"])))
    assert tool.failures(data) == []
    assert set(data) == {"pr", "machine", "known_bias", "settings", "workloads", "configs"}
    assert set(data["machine"]) == {"nproc", "python", "numpy", "git_commit", "git_dirty",
                                    "src_sha256", "PYTHONDONTWRITEBYTECODE",
                                    "openblas_corename"}
    assert "scipy" in data["known_bias"]
    run = data["workloads"]["rare_event"]
    assert run["correct"] and run["traced_seed_1"]["correct"]
    assert set(run["end_to_end"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    for spread in run["end_to_end"].values():
        assert spread["q1"] <= spread["median"] <= spread["q3"] and len(spread["values"]) == 1
    counts = run["traced_seed_1"]["metrics"]
    assert counts["solver.kernel.calls"] > 0 and counts["solver.solve.calls"] > 0
    assert list(data["configs"]) == ["heat_regression"]
    cli = data["configs"]["heat_regression"]
    assert cli["exit_codes"] == [0]
    assert set(cli) == {"exit_codes", "wall_s", "cpu_s", "peak_rss_mb"}
    assert all(math.isfinite(x) for x in _numbers(data))
