"""The benchmark (bench/) reaches into the package by name: the tracer
patches attributes, the harness calls trainer, model, vicinal, domains and
cli functions. A rename or deletion in the package would silently empty
the tracer's metrics or fail only when the benchmark runs, so these tests
load the bench modules read-only and exercise every name they use."""

import importlib
import importlib.util
import os
import sys

import numpy as np

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
TRACER_PATH = os.path.join(BENCH_DIR, "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("vicinalda_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_harness():
    # the harness imports the tracer as the top-level module `tracer`
    sys.path.insert(0, BENCH_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            "vicinalda_bench_harness", os.path.join(BENCH_DIR, "harness.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH_DIR)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_harness_runs_a_tiny_workload(tmp_path):
    """One train, one traced train and one traced eval/sweep/equilibrium
    cycle through the harness's own code, plus the names its checks read."""
    from vicinalda.diffcore import Tensor
    from vicinalda.domains import DomainBatch
    from vicinalda.model import RATIO_GRID, load_checkpoint
    from vicinalda.vicinal import brute_force_emp, emp_argmax

    harness = load_harness()
    wl = harness.Workload(
        name="tiny", why="", timed="train",
        overrides={"n_per_domain": 160, "batch_size": 32, "warmup_epochs": 2, "covi_epochs": 1},
        min_target_acc=0.0, min_ratio_agreement=0.0,
    )
    run = harness.Run(wl, 0, 0.0, False, str(tmp_path))
    assert run.train_once(traced=False) is not None
    assert run.train_once(traced=True) is not None
    # the model nodes feed these metrics; a change to them must not empty them
    assert run.tracer.counter("diffcore.tape_nodes", "step") > 0
    assert run.tracer.counter("model.logits_of.calls", "step") > 0
    calls, total_s, _ = run.tracer.span("diffcore.backward", "step")
    assert calls > 0 and total_s > 0
    assert run.cycle_once(traced=True) is not None
    assert run.checks.failures == []
    assert run.tracer.missing == []
    assert harness.host_facts(os.path.dirname(BENCH_DIR))["root_exports"] > 0

    ds = run.dataset()
    params = load_checkpoint(os.path.join(run.out_dir, "checkpoint_final.ckpt"))
    held = DomainBatch(
        xs=Tensor(ds.source_x.data[:64]),
        ys=Tensor(ds.source_y.data[:64]),
        xt=Tensor(ds.target_x.data[:64]),
    )
    # the harness compares these two `.values` elementwise
    for lam in (emp_argmax(params, held), brute_force_emp(params, held)):
        assert isinstance(lam.values, np.ndarray) and lam.values.shape == (64,)
        assert np.isin(lam.values, RATIO_GRID).all()
