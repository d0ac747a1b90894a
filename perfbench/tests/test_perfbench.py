"""Tests of the benchmark's own logic: inputs, self times, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from treekuramoto import cli

ROOT = Path(__file__).resolve().parents[2]


def test_tree_generator_is_deterministic_per_seed(tmp_path):
    first, again, other = tmp_path / "a.yaml", tmp_path / "b.yaml", tmp_path / "c.yaml"
    workloads.write_config(workloads.tree_config(7), first)
    workloads.write_config(workloads.tree_config(7), again)
    workloads.write_config(workloads.tree_config(8), other)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_tree_config_is_accepted_by_the_cli(tmp_path):
    path = tmp_path / "tree.yaml"
    workloads.write_config(workloads.tree_config(3, sizes={"mc_samples": 2}), path)
    config = cli.load_config(path)
    assert config.graph.n == workloads.TREE_NODES
    assert min(config.omega) > 0
    argv = ["spectral", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    np.testing.assert_allclose(tracing.self_times(parent, start, end), [3, 3, 3, 1])
    spans = {"name": np.array(["r", "x", "x", "y"], dtype=object), "parent": parent,
             "start": start, "end": end}
    metrics = tracing.layer_metrics(spans, {"x.rows": 5})
    assert metrics["x.calls"] == 2
    assert metrics["x.s"] == 7.0
    assert metrics["x.self_s"] == 6.0
    assert metrics["r.self_s"] == 3.0
    assert metrics["x.rows"] == 5


def test_tracer_records_nesting_from_its_wrappers():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    spans = tracer.spans()
    assert list(spans["name"]) == ["outer", "inner", "inner"]
    assert list(spans["parent"]) == [-1, 0, 0]
    # outer spans ticks 0..5, each inner one tick
    assert list(tracing.self_times(spans["parent"], spans["start"], spans["end"])) == [3, 1, 1]


def test_failing_check_counts_as_failed_run():
    def wrong(out_dir, results, config):
        raise workloads.CheckFailed("deliberately wrong")

    small = dataclasses.replace(
        workloads.WORKLOADS["recurrence_line5"], sizes={"horizon": 20, "trials": 3}
    )
    passing = run.run_window(small, seed=0, seconds=0, trace=False, root=ROOT)
    assert passing.failed == 0
    failing = run.run_window(
        dataclasses.replace(small, check=wrong), seed=0, seconds=0, trace=False, root=ROOT
    )
    assert failing.attempted == 1 + run.MIN_RUNS
    assert failing.failed == failing.attempted
    assert failing.failed_fraction == 1.0
    with pytest.raises(run.BenchmarkError):
        run.end_to_end(failing)


def test_tracer_skips_functions_the_program_no_longer_has():
    assert tracing._lookup("treekuramoto", "linalg", "no_such_function") is None
    assert tracing._lookup("treekuramoto", "no_such_module", "f") is None
    assert tracing._lookup("treekuramoto", "dynamics", "wrap_angle") is not None
