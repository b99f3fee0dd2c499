"""The benchmark's traced names still exist and still see work.

``bench/spans.py`` wraps names inside the package by attribute; a
rename or a changed call path would read as zero work, not as an
error.  Each workload's warm-up runs here under the tracer, and the
counters the per-layer metrics are built on must be positive.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Import bench/<name>.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look it up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["ladder", "section", "suite"])
def test_warm_up_is_traced(workload):
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    with tracer.installed(workloads):
        workloads.warm_up(workload)
    counts = tracer.counts
    assert counts["integrate.time_arrays_samples"] > 0
    if workload != "section":
        assert counts["integrate.rhs_calls"] > 0
        assert counts["integrate.partition_samples"] > 0
    if workload == "ladder":
        assert counts["perturbation.distance_segments"] > 0
        assert counts["synthesis.verify_bumps"] > 0
    else:
        assert counts["synthesis.moment_runs"] > 0
    if workload == "suite":
        assert counts["synthesis.mc_path_steps"] > 0
