"""The benchmark's pipeline workload against ``bench/reference.json``, in
process at the BLAS thread count of the test run. The reference was recorded
with one thread; its rules must cover the digits that move with the count."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench(monkeypatch):
    """The ``reference`` and ``workloads`` modules of ``bench/``, imported
    without writing bytecode there, and forgotten afterwards."""
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("reference"), importlib.import_module("workloads")
    for name in ("reference", "workloads"):
        sys.modules.pop(name, None)


def test_pipeline_n256_matches_the_reference(bench, tmp_path):
    # build then verify --suite full, three models at the benchmark's flags
    # and seed 0; each check's numbers within the reference's rules
    reference, workloads = bench
    want = reference.load()
    ops = workloads.make("pipeline-n256", 0, str(tmp_path)).ops
    assert [op.name for op in ops] == [f"{model}.{kind}" for kind in ("build", "verify")
                                       for model in ("kipriyanov1d", "riesz", "difference")]
    failures = [(name, why) for op in ops for name, why in op.check(op.run(), want) if why]
    assert not failures
