"""Smoke test of the benchmark itself, at a size that runs in seconds.

  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spans
from igenkrylov import harness, tomo

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"geometry": {"n": 16, "angle_count": 8, "angle_step": 22.0}, "max_iter": 3}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at n=16 with 3 iterations; the ceilings are for full size."""
    for name, w in list(bench.WORKLOADS.items()):
        monkeypatch.setitem(
            bench.WORKLOADS, name, bench.Workload(config={**w.config, **TINY}, relerr_ceiling=1.0)
        )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_emitted(tiny, capsys, name, trace, section):
    result = bench.run_one(name, seed=7, seconds=0, trace=trace)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        shares = sum(result["metrics"][f"{layer}.share"]["value"] for layer in spans.LAYERS)
        assert shares == pytest.approx(100.0)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_spans_nest_and_self_times_are_nonnegative(tiny, name):
    cfg = bench.make_config(bench.WORKLOADS[name], seed=7)
    tracer = spans.Tracer()
    original = tomo.RadonOperator._apply
    with tracer.install():
        problem = harness.build_problem(cfg)
        harness.run_reconstruction(cfg, problem)
    assert tomo.RadonOperator._apply is original
    recorded, _ = tracer.take()
    assert sum(s.name == "solve.run" for s in recorded) == 1
    assert {"harness.build_problem", "tomo.fwd", "linop.padj", "bidiag.step"} <= {
        s.name for s in recorded
    }
    for s in recorded:
        assert s.self_s >= 0.0
        if s.parent is not None:
            assert s.parent.start <= s.start <= s.end <= s.parent.end


def test_failed_check_is_counted(monkeypatch, capsys):
    w = bench.WORKLOADS["igk-angles-wgcv-n64"]
    tight = bench.Workload(config={**w.config, **TINY}, relerr_ceiling=0.0)
    monkeypatch.setitem(bench.WORKLOADS, "igk-angles-wgcv-n64", tight)
    result = bench.run_one("igk-angles-wgcv-n64", seed=7, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "above ceiling" in capsys.readouterr().err


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
