"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
by name; a rename or a move must not leave one of its targets missing."""

import importlib.util
from pathlib import Path

import treebraid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_target_wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trace = module.Tracer(treebraid)
    try:
        assert trace.missing == []
    finally:
        trace.uninstall()
