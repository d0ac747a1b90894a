"""End-to-end and per-layer benchmark of the ``treekuramoto`` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``workloads.py`` or ``all``. Every run
is a fresh single-process CLI invocation on a config generated from the
seed; runs follow one another (closed loop, one client) until the runs'
wall time adds up to ``--seconds``, after one warm-up run that fills the
file cache and bytecode cache. Each run's outputs are checked; a run that
exits non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics over the measured runs:

* ``wall_s``: process start to exit of one CLI run, mean over the runs;
* ``setup_s``: process start to the start of ``run_subcommand``
  (interpreter, package import, config load and validation), median;
* ``throughput``: work units per second of the ``run_subcommand`` phase
  (total work over total phase time), in the workload's own unit;
* ``peak_rss_mb``: the child's maximum resident set size, median;
* ``failed_fraction``: failed runs over attempted runs (printed in the
  report; the result line carries it as ``failed``/``attempted``).

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of ``tracing.py`` (medians over the traced runs) plus
the tracing overhead, traced minus untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the
result, with every run's raw values and the environment, is written to
``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import workloads

HERE = Path(__file__).resolve().parent

#: BLAS threads of every CLI run. One thread keeps timings steady on a
#: shared machine, and the eigenproblems here are small.
BLAS_THREADS = "1"
BLAS_ENV = {
    name: BLAS_THREADS
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

#: Per-run limit; a run that takes longer is killed and counted as failed.
CHILD_TIMEOUT_S = 30.0

#: Fewest measured runs per mode, however long the runs take.
MIN_RUNS = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("throughput", "1/s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("dynamics.step_theta.calls", "count"),
    ("dynamics.step_theta.self_s", "s"),
    ("dynamics.step_theta.state_rows", "count"),
    ("dynamics.step_theta.p50_us", "us"),
    ("dynamics.step_theta.p99_us", "us"),
    ("dynamics.wrap_angle.calls", "count"),
    ("dynamics.wrap_angle.self_s", "s"),
    ("dynamics.edge_geodesics.calls", "count"),
    ("dynamics.edge_geodesics.self_s", "s"),
    ("dynamics.drift_values.self_s", "s"),
    ("noise.sample_noise_block.calls", "count"),
    ("noise.sample_noise_block.self_s", "s"),
    ("noise.sample_noise_block.draws", "count"),
    ("linalg.jacobi_eigenvalues.calls", "count"),
    ("linalg.jacobi_eigenvalues.self_s", "s"),
    ("linalg.jacobi_eigenvalues.matrices", "count"),
    ("linalg.weighted_edge_laplacian.calls", "count"),
    ("linalg.weighted_edge_laplacian.self_s", "s"),
    ("conditions.mc_spectral_stats.self_s", "s"),
    ("analysis.recurrence_experiment.self_s", "s"),
    ("analysis.simulate.self_s", "s"),
    ("analysis.simulate.record_mb", "MB"),
    ("analysis.drift_sweep.self_s", "s"),
    ("analysis.drift_estimate.calls", "count"),
    ("analysis.drift_estimate.self_s", "s"),
    ("analysis.edge_box_sampler.sample.calls", "count"),
    ("analysis.edge_box_sampler.sample.self_s", "s"),
    ("cli.run_subcommand.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.load_config.s", "s"),
    ("graph.build_tree.s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    traced: bool
    warmup: bool
    wall_s: float
    code: int
    setup_s: float = float("nan")
    run_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    output_bytes: int = 0
    layers: dict = field(default_factory=dict)
    error: str = ""


@dataclass
class Window:
    """All runs of one workload at one seed."""

    workload: workloads.Workload
    seed: int
    work: int
    runs: list = field(default_factory=list)
    digests: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.error)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted

    def measured(self, traced: bool) -> list:
        return [r for r in self.runs if not r.warmup and not r.error and r.traced == traced]


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "treekuramoto" / "cli.py").is_file():
        raise BenchmarkError(f"no treekuramoto sources under {src}")
    return src


def spawn(root: Path, workdir: Path, command: list, traced: bool) -> Run:
    """One CLI run in a fresh interpreter, timed from just before spawn."""
    timings = workdir / "timings.json"
    timings.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "TREEKURAMOTO_SEED"}
    src = str(source_dir(root))
    env.update(BLAS_ENV, PYTHONPATH=src)
    argv = [sys.executable, str(HERE / "child.py"), str(timings), "1" if traced else "0", src]
    argv += command
    with open(workdir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=root)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        ended = time.monotonic()
    run = Run(traced=traced, warmup=False, wall_s=ended - started, code=code)
    if run.code != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-500:]
        run.error = f"exit code {run.code}: {tail}"
        return run
    phase = json.loads(timings.read_text())
    run.setup_s = phase["run_start"] - started
    run.run_s = phase["run_end"] - phase["run_start"]
    run.peak_rss_mb = phase["peak_rss_kb"] / 1024.0
    run.layers = phase.get("layers", {})
    return run


def check_run(window: Window, run: Run, out_dir: Path, config: dict) -> None:
    """Record in ``run.error`` why the run's outputs are wrong, if they are."""
    if run.error:
        return
    wl = window.workload
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        results = summary["results"]
        found = workloads.digest(out_dir, wl.data_file, results)
        if found not in window.digests:  # equal outputs pass or fail alike
            wl.check(out_dir, results, config)
            window.digests.add(found)
        workloads.require(len(window.digests) == 1, "outputs differ between runs of one seed")
        run.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    except workloads.CheckFailed as exc:
        run.error = f"check failed: {exc}"
    except Exception:  # a malformed output must not stop the benchmark
        run.error = "check raised:\n" + traceback.format_exc(limit=3)


def run_window(wl: workloads.Workload, seed: int, seconds: float, trace: bool, root: Path) -> Window:
    src = source_dir(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    workdir = root / ".perfbench_out" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out_dir = workdir / "out"
    config = wl.config(seed, root)
    config["output"] = {"directory": str(out_dir), "decimation": 1}
    config_path = workdir / "config.yaml"
    workloads.write_config(config, config_path)
    command = [wl.command, "--config", str(config_path)]

    window = Window(workload=wl, seed=seed, work=wl.work(config))
    modes = [False, True] if trace else [False]
    spent = 0.0
    turn = 0
    while True:
        traced = modes[turn % len(modes)]
        warmup = turn == 0
        shutil.rmtree(out_dir, ignore_errors=True)
        run = spawn(root, workdir, command, traced)
        run.warmup = warmup
        check_run(window, run, out_dir, config)
        window.runs.append(run)
        if run.error:
            print(f"{wl.name}: run {turn} failed: {run.error}", file=sys.stderr)
        if not warmup:
            spent += run.wall_s
        turn += 1
        counts = [sum(1 for r in window.runs if not r.warmup and r.traced == m) for m in modes]
        if spent >= seconds and min(counts) >= MIN_RUNS:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    return window


def end_to_end(window: Window) -> dict:
    """Metric name -> (value, how it summarises the runs, per-run values).

    Wall and run-phase times are averaged over the window: on a shared
    host the CPU speed can flip between states every few seconds, and an
    average over the flips varies less from window to window than a
    median does.
    """
    runs = window.measured(traced=False)
    if not runs:
        raise BenchmarkError(f"{window.workload.name}: every run failed")
    wall = [r.wall_s for r in runs]
    setup = [r.setup_s for r in runs]
    rates = [window.work / r.run_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    total_work = window.work * len(runs)
    return {
        "wall_s": (statistics.fmean(wall), "mean", wall),
        "setup_s": (statistics.median(setup), "median", setup),
        "throughput": (total_work / sum(r.run_s for r in runs), "total work / total time", rates),
        "peak_rss_mb": (statistics.median(rss), "median", rss),
    }


def per_layer(window: Window) -> dict:
    traced = window.measured(traced=True)
    if not traced or not window.measured(traced=False):
        raise BenchmarkError(f"{window.workload.name}: no successful traced run")
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "cli.output_bytes":
            values = [r.output_bytes for r in traced]
        else:
            values = [r.layers.get(name, 0.0) for r in traced]
        out[name] = statistics.median(values)
    untraced_wall = statistics.median(r.wall_s for r in window.measured(traced=False))
    out["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - untraced_wall
    return out


def report(window: Window, trace: bool) -> dict:
    """Print the human-readable report; return the metrics for the result line."""
    wl = window.workload
    runs = window.measured(traced=False)
    print(
        f"workload {wl.name} (seed {window.seed}, {wl.command}, closed loop, 1 client, "
        f"{window.work} {wl.unit.split('/')[0]} per run): {wl.why}"
    )
    metrics = {}
    if not trace:
        units = dict(END_TO_END)
        for name, (value, summary, values) in end_to_end(window).items():
            unit = wl.unit if name == "throughput" else units[name]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(
                f"  {name:<16} {value:14.6g} {unit:<14} {summary} of {len(values)} runs "
                f"(per-run quartiles {q1:.6g} .. {q3:.6g})"
            )
            metrics[name] = {"value": value, "unit": units[name]}
        print(
            f"  {'failed_fraction':<16} {window.failed_fraction:14.6g} {'1':<14} "
            f"{window.failed} of {window.attempted} runs (warm-up included)"
        )
    else:
        values = per_layer(window)
        traced = len(window.measured(traced=True))
        for name, unit in PER_LAYER:
            print(f"  {name:<42} {values[name]:14.6g} {unit:<6} median of {traced} traced runs")
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def save(root: Path, window: Window, trace: bool, metrics: dict, env: dict) -> None:
    path = root / ".perfbench_out" / f"result-{window.workload.name}-seed{window.seed}-trace{int(trace)}.json"
    runs = [vars(r) for r in window.runs]
    path.write_text(
        json.dumps(
            {
                "workload": window.workload.name,
                "seed": window.seed,
                "work_per_run": window.work,
                "throughput_unit": window.workload.unit,
                "environment": env,
                "metrics": metrics,
                "attempted": window.attempted,
                "failed": window.failed,
                "runs": runs,
            },
            indent=2,
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    trace = bool(args.trace)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        source_dir(root)
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            window = run_window(workloads.WORKLOADS[name], args.seed, args.seconds, trace, root)
            found = report(window, trace)
            save(root, window, trace, found, env)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += window.attempted
            failed += window.failed
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
