"""Fast smoke test of the benchmark harness at a tiny config.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs with two-step trains on 64 rows per domain and a
zero-second window, so the whole module takes seconds. The quality gates
are off here: a model trained for two steps is not meant to pass them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

assert run._package_error() is None

import harness  # noqa: E402
from vicinalda import cli, trainer  # noqa: E402

TINY = {"n_per_domain": 64, "batch_size": 32, "warmup_epochs": 1, "covi_epochs": 1}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, wl in list(harness.WORKLOADS.items()):
        monkeypatch.setitem(harness.WORKLOADS, name, dataclasses.replace(
            wl, overrides={**wl.overrides, **TINY}, min_target_acc=0.0,
            min_ratio_agreement=0.0))


def _result(capsys, name: str, trace: bool) -> tuple[dict, str]:
    assert run.run_one(name, seed=3, seconds=0, trace=trace) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(capsys, name, trace):
    result, out = _result(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and got["value"] >= 0, (m["name"], got)
        if m["unit"] in ("s", "ms", "us", "MB"):
            assert got["value"] > 0, m["name"]
    report = json.loads(next(line for line in out.splitlines()
                             if line.startswith("REPORT "))[len("REPORT "):])
    if not trace:  # the unbounded metrics are in the REPORT; the read path on diagnose only
        read_path = {"eval_ms_p50", "sweep_ms_p50", "equilibrium_ms_p50", "cycle_ms_p90"}
        want = set(harness.UNBOUNDED_UNITS) - (set() if name == "diagnose" else read_path)
        assert want <= set(report["metrics"]), want - set(report["metrics"])
    assert len(report["metrics_csv_sha256"]["3"]) == 1
    assert report["host"]["src_lines"] > 0 and report["host"]["root_exports"] > 0


def test_tracer_restores_the_package():
    before = (trainer.covi_step, trainer.logits_of, cli._cmd_eval)
    tracer = harness.Tracer()
    with tracer:
        assert trainer.covi_step is not before[0]
    assert (trainer.covi_step, trainer.logits_of, cli._cmd_eval) == before


def test_nondeterministic_metrics_csv_fails(capsys, monkeypatch):
    real_train = trainer.train
    calls = []

    def corrupting_train(cfg):
        params, path = real_train(cfg)
        if os.path.basename(cfg.out_dir) == "run":  # not a set-up warm-up call
            calls.append(path)
        if len(calls) == 2:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("0\n")
        return params, path

    monkeypatch.setattr(trainer, "train", corrupting_train)
    result, out = _result(capsys, "moons_default", trace=False)
    assert result["correct"] is False and result["failed"] == 1
    assert "metrics.csv sha256" in out


def test_wrong_eval_output_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "evaluate", lambda p, ds: (0.0, 0.0))
    result, out = _result(capsys, "diagnose", trace=False)
    assert result["correct"] is False and result["failed"] >= 1
    assert "eval printed" in out


def test_refuses_a_checkout_without_the_package():
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "moons_default", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(bare)
        if not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no package" in proc.stderr
