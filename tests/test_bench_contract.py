"""The benchmark's contract, checked in the test suite.

Runs cycle 0 of seed 1 of each workload in ``bench/workloads.py`` over every
timed configuration, untraced, and requires what ``bench/run.py`` requires of
a run: no job raises, and every failed check is one that
``bench/expectations.json`` lists for its configuration.  The warm-up job
that set-up runs must not raise either, for every configuration.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    # leave bench/ as checked in: no __pycache__ beside its sources
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["range", "grid", "lines"])
def test_cycle_zero_meets_expectations(workload, tmp_path):
    workloads, spans = load("workloads"), load("spans")
    expectations = json.loads((BENCH / "expectations.json").read_text())
    expected = {tuple(e["config"]): set(e["checks"])
                for e in expectations["expected_failures"] if e["workload"] == workload}
    wl = workloads.make(workload, str(tmp_path))
    unexpected = []
    for cfg, inp in wl.inputs(1, 0):
        # set-up records warm-up errors and still reports setup_s, so a broken
        # warm path would only read as a faster set-up
        wl.run(cfg, inp, spans.NullRecorder(), warm=True)
        if cfg in wl.untimed:
            continue
        verdict = wl.run(cfg, inp, spans.NullRecorder())
        if not set(verdict.failed) <= expected.get(cfg, set()):
            unexpected.append((cfg, verdict.failed, verdict.detail))
    assert not unexpected, f"{workload}: unexpected failed checks {unexpected}"
