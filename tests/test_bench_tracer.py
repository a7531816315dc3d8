"""The benchmark tracer (bench/tracer.py) patches package attributes by
name; a rename in the package would silently empty its metrics. This
loads the tracer read-only and resolves every one of its targets."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("vicinalda_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
