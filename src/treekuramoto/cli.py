"""Configuration-driven experiment runner.

Subcommands
    bounds      evaluate the coupling / sampling-period bounds
    spectral    Monte Carlo extreme-eigenvalue expectations
    simulate    record one trajectory to CSV
    recurrence  first-return statistics over many trials to CSV
    drift       one-step drift estimates over sampled states to CSV

Every run reads a single YAML config file; any scalar field can be
overridden on the command line with ``--set KEY=VALUE`` (dotted keys for
nested fields, e.g. ``--set output.decimation=10``). The environment
variable ``TREEKURAMOTO_SEED`` overrides the config seed; an explicit
``--set seed=...`` wins over both. All angles are radians, frequencies
rad/s, the sampling period seconds.

Config schema (unknown keys are rejected):

    graph:      {n: int >= 2, edges: [[tail, head], ...]}  # a tree
    omega:      [float, ...]                 # length n, rad/s
    noise:      [{family: gaussian|uniform|none,
                  mean: float, variance: float}, ...]      # length n
    variant:    frequency_dependent | undirected
    kappa:      float > 0
    tau:        float > 0                    # seconds
    gamma:      float in (0, pi/2)           # optional, default pi/2 - 0.05
    seed:       int
    horizon:    int in [1, 2**53]            # simulate / recurrence
    trials:     int in [1, 2**53]            # recurrence
    mc_samples: int in [1, 2**53]            # spectral / bounds / MC gap
    pair_set:   all | edges                  # optional, default all
    initial:    {mode: explicit, phases: [float, ...]}
                | {mode: sample, low: float, high: float}  # optional
    drift:      {probes: int >= 0, noise_samples: int >= 2}  # optional, <= 2**53
    output:     {directory: str, decimation: int >= 1}       # optional, <= 2**53

Data files are comma-separated with a header row; the summary report is
a single JSON file. Exit codes: 0 success, 2 configuration error,
3 numeric error (including a non-finite state, an allocation that
fails and a worker process that ends without a result), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .errors import ConfigError, NumericError
from . import analysis, conditions, noise as noise_mod
from .conditions import DEFAULT_GAMMA
from .dynamics import NetworkModel, edge_geodesics, wrap_angle
from .graph import TreeGraph, build_tree
from .noise import InvalidNoiseSpec, NodeNoise, NoiseSpec, RandomStream

SEED_ENV_VAR = "TREEKURAMOTO_SEED"

BUNDLED_CONFIGS = (
    "line5_noise_free",
    "line5_zero_mean",
    "line5_shifted_mean",
    "line5_strong_negative_mean",
    "line5_undirected",
    "two_node_minimal",
)

_TOP_KEYS = {
    "graph",
    "omega",
    "noise",
    "variant",
    "kappa",
    "tau",
    "gamma",
    "seed",
    "horizon",
    "trials",
    "mc_samples",
    "pair_set",
    "initial",
    "drift",
    "output",
}


class ParseError(ConfigError):
    """Config file is not parseable YAML."""


class ValidationError(ConfigError):
    """Config violates the schema; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the built domain objects."""

    raw: dict
    graph: TreeGraph
    omega: tuple
    noise: NoiseSpec
    variant: str
    kappa: float
    tau: float
    gamma: float
    seed: int
    horizon: int | None
    trials: int | None
    mc_samples: int | None
    pair_set: str
    initial_mode: str
    initial_phases: tuple | None
    initial_low: float
    initial_high: float
    drift_probes: int
    drift_noise_samples: int
    output_directory: str
    decimation: int

    def model(self) -> NetworkModel:
        return NetworkModel(
            graph=self.graph,
            omega=np.array(self.omega),
            noise=self.noise,
            kappa=self.kappa,
            tau=self.tau,
            variant=self.variant,
        )

    def stream(self) -> RandomStream:
        return RandomStream(seed=self.seed)

    def initial_sampler(self):
        if self.initial_mode == "explicit":
            return analysis.fixed_initial(np.array(self.initial_phases))
        return analysis.edge_box_sampler(self.initial_low, self.initial_high)


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled example config."""
    if name not in BUNDLED_CONFIGS:
        raise ConfigError(
            f"unknown bundled config {name!r}; available: {', '.join(BUNDLED_CONFIGS)}"
        )
    return Path(
        importlib.resources.files("treekuramoto") / "configs" / f"{name}.yaml"
    )


def _is_number(x) -> bool:
    """A finite int or float (bools, infinities, NaN and ints beyond the
    float range are not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


#: Largest accepted count field: every integer up to 2**53 is exact as a
#: float, and anything larger could never be allocated or iterated.
_MAX_COUNT = 2**53


def _is_count(x, minimum: int) -> bool:
    return _is_int(x) and minimum <= x <= _MAX_COUNT


def _validate(data: dict) -> ExperimentConfig:
    bad: list[str] = []

    def fail(msg: str):
        bad.append(msg)

    if not isinstance(data, dict):
        raise ValidationError(["top level must be a mapping"])

    for key in data:
        if key not in _TOP_KEYS:
            fail(f"unknown key {key!r}")
    for key in ("graph", "omega", "noise", "variant", "kappa", "tau", "seed"):
        if key not in data:
            fail(f"missing required key {key!r}")

    graph = None
    n = None
    graph_raw = data.get("graph")
    if isinstance(graph_raw, dict):
        for key in graph_raw:
            if key not in {"n", "edges"}:
                fail(f"graph: unknown key {key!r}")
        n = graph_raw.get("n")
        edges = graph_raw.get("edges")
        if not _is_int(n):
            fail("graph.n: must be an integer")
            n = None
        elif not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)
            for e in edges
        ):
            fail("graph.edges: must be a list of [tail, head] integer pairs")
        else:
            try:
                graph = build_tree(n, [tuple(e) for e in edges])
            except ConfigError as exc:
                fail(f"graph: {exc}")
    elif graph_raw is not None:
        fail("graph: must be a mapping with keys n, edges")

    omega = data.get("omega")
    if omega is not None:
        if not isinstance(omega, list) or not all(_is_number(x) for x in omega):
            fail("omega: must be a list of finite numbers")
            omega = None
        elif n is not None and len(omega) != n:
            fail(f"omega: length {len(omega)} != graph.n {n}")

    spec = None
    noise_raw = data.get("noise")
    if noise_raw is not None:
        if not isinstance(noise_raw, list):
            fail("noise: must be a list of per-node mappings")
        else:
            if n is not None and len(noise_raw) != n:
                fail(f"noise: length {len(noise_raw)} != graph.n {n}")
            nodes = []
            for i, entry in enumerate(noise_raw):
                if not isinstance(entry, dict):
                    fail(f"noise[{i}]: must be a mapping")
                    continue
                for key in entry:
                    if key not in {"family", "mean", "variance"}:
                        fail(f"noise[{i}]: unknown key {key!r}")
                family = entry.get("family")
                mean = entry.get("mean", 0.0)
                variance = entry.get("variance", 0.0)
                if not _is_number(mean) or not _is_number(variance):
                    fail(f"noise[{i}]: mean and variance must be finite numbers")
                    continue
                try:
                    nodes.append(
                        NodeNoise(family, mean=float(mean), variance=float(variance))
                    )
                except InvalidNoiseSpec as exc:
                    fail(f"noise[{i}]: {exc}")
            if not bad and nodes:
                spec = NoiseSpec(tuple(nodes))

    variant = data.get("variant")
    if variant is not None and variant not in (
        "frequency_dependent",
        "undirected",
    ):
        fail("variant: must be frequency_dependent or undirected")

    def positive_number(key):
        value = data.get(key)
        if value is None:
            return None
        if not _is_number(value) or not value > 0:
            fail(f"{key}: must be a positive finite number")
            return None
        return float(value)

    kappa = positive_number("kappa")
    tau = positive_number("tau")

    gamma = data.get("gamma", DEFAULT_GAMMA)
    if not _is_number(gamma) or not 0.0 < gamma < 0.5 * math.pi:
        fail("gamma: must lie strictly in (0, pi/2)")
        gamma = DEFAULT_GAMMA

    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        fail("seed: must be an integer")
        seed = None

    def positive_int(key, minimum=1):
        value = data.get(key)
        if value is None:
            return None
        if not _is_count(value, minimum):
            fail(f"{key}: must be an integer in [{minimum}, 2**53]")
            return None
        return value

    horizon = positive_int("horizon")
    trials = positive_int("trials")
    mc_samples = positive_int("mc_samples")

    pair_set = data.get("pair_set", "all")
    if pair_set not in ("all", "edges"):
        fail("pair_set: must be all or edges")
        pair_set = "all"

    initial_mode = "sample"
    initial_phases = None
    initial_low, initial_high = 0.0, 0.5 * math.pi
    initial = data.get("initial")
    if initial is not None:
        if not isinstance(initial, dict):
            fail("initial: must be a mapping")
        else:
            mode = initial.get("mode")
            if mode == "explicit":
                for key in initial:
                    if key not in {"mode", "phases"}:
                        fail(f"initial: unknown key {key!r}")
                phases = initial.get("phases")
                if not isinstance(phases, list) or not all(
                    _is_number(x) for x in phases
                ):
                    fail("initial.phases: must be a list of finite numbers")
                elif n is not None and len(phases) != n:
                    fail(f"initial.phases: length {len(phases)} != graph.n {n}")
                else:
                    initial_mode = "explicit"
                    initial_phases = tuple(float(x) for x in phases)
            elif mode == "sample":
                for key in initial:
                    if key not in {"mode", "low", "high"}:
                        fail(f"initial: unknown key {key!r}")
                low = initial.get("low", 0.0)
                high = initial.get("high", 0.5 * math.pi)
                if not (_is_number(low) and _is_number(high)):
                    fail("initial.low/high: must be finite numbers")
                elif not 0.0 <= low < high <= 0.5 * math.pi:
                    fail("initial: need 0 <= low < high <= pi/2")
                else:
                    initial_low, initial_high = float(low), float(high)
            else:
                fail("initial.mode: must be explicit or sample")

    drift_probes, drift_noise_samples = 100, 10_000
    drift = data.get("drift")
    if drift is not None:
        if not isinstance(drift, dict):
            fail("drift: must be a mapping")
        else:
            for key in drift:
                if key not in {"probes", "noise_samples"}:
                    fail(f"drift: unknown key {key!r}")
            probes = drift.get("probes", drift_probes)
            samples = drift.get("noise_samples", drift_noise_samples)
            if not _is_count(probes, 0):
                fail("drift.probes: must be an integer in [0, 2**53]")
            else:
                drift_probes = probes
            if not _is_count(samples, 2):
                fail("drift.noise_samples: must be an integer in [2, 2**53]")
            else:
                drift_noise_samples = samples

    output_directory, decimation = "out", 1
    output = data.get("output")
    if output is not None:
        if not isinstance(output, dict):
            fail("output: must be a mapping")
        else:
            for key in output:
                if key not in {"directory", "decimation"}:
                    fail(f"output: unknown key {key!r}")
            directory = output.get("directory", output_directory)
            if not isinstance(directory, str) or not directory:
                fail("output.directory: must be a nonempty string")
            else:
                output_directory = directory
            dec = output.get("decimation", 1)
            if not _is_count(dec, 1):
                fail("output.decimation: must be an integer in [1, 2**53]")
            else:
                decimation = dec

    if initial_phases is not None and graph is not None:
        wrapped = wrap_angle(np.array(initial_phases))
        if float(np.max(edge_geodesics(graph, wrapped))) > 0.5 * math.pi + 1e-12:
            fail("initial.phases: an edge distance exceeds pi/2")

    if bad:
        raise ValidationError(bad)

    return ExperimentConfig(
        raw=data,
        graph=graph,
        omega=tuple(float(x) for x in omega),
        noise=spec,
        variant=variant,
        kappa=kappa,
        tau=tau,
        gamma=float(gamma),
        seed=seed,
        horizon=horizon,
        trials=trials,
        mc_samples=mc_samples,
        pair_set=pair_set,
        initial_mode=initial_mode,
        initial_phases=initial_phases,
        initial_low=initial_low,
        initial_high=initial_high,
        drift_probes=drift_probes,
        drift_noise_samples=drift_noise_samples,
        output_directory=output_directory,
        decimation=decimation,
    )


def _read_raw(path) -> dict:
    """Read a YAML config file into its raw mapping."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        location = ""
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            location = f" at line {mark.line + 1}, column {mark.column + 1}"
        raise ParseError(f"invalid YAML in {path}{location}: {exc}") from exc
    if data is None:
        raise ValidationError(["config file is empty"])
    return data


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config.

    Raises:
        ParseError: unreadable or syntactically invalid YAML (with
            line/column when available).
        ValidationError: schema violations; the message lists all of
            them, not just the first.
    """
    return _validate(_read_raw(path))


def _apply_overrides(data: dict, pairs: list[str]) -> dict:
    """Apply ``--set KEY=VALUE`` overrides to the raw config mapping."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            parsed = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                parsed = value
        target = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not a mapping")
            target = node
        leaf = parts[-1]
        if isinstance(target.get(leaf), (dict, list)):
            raise ConfigError(f"--set {key}: only scalar fields can be overridden")
        target[leaf] = parsed
    return data


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _require(config: ExperimentConfig, command: str, fields: dict) -> None:
    missing = [name for name, value in fields.items() if value is None]
    if missing:
        raise ValidationError(
            [f"{command}: required field {name!r} is missing" for name in missing]
        )


def _gap_estimate(config: ExperimentConfig):
    method = "auto"
    kwargs = {}
    if not config.noise.analytic_gaussian:
        if config.mc_samples is None:
            raise ValidationError(
                ["bounds: mc_samples is required for non-gaussian noise"]
            )
        kwargs = {"mc_samples": config.mc_samples, "stream": config.stream()}
    return noise_mod.e_max_delta_omega(
        np.array(config.omega),
        config.noise,
        pairs=config.pair_set,
        graph=config.graph,
        method=method,
        **kwargs,
    )


def _run_bounds(config: ExperimentConfig):
    gap = _gap_estimate(config)
    provenance = {
        "e_max_delta_omega": {"method": gap.method, "samples": gap.samples}
    }
    results = {
        "e_max_delta_omega": gap.value,
        "e_max_delta_omega_stderr": gap.stderr,
        "e_max_delta_omega_pair": list(gap.pair),
        "gamma": config.gamma,
        "variant": config.variant,
    }
    if config.variant == "frequency_dependent":
        if not config.noise.is_deterministic and config.mc_samples is None:
            raise ValidationError(
                ["bounds: mc_samples is required for stochastic spectral statistics"]
            )
        stats = conditions.mc_spectral_stats(
            config.graph,
            np.array(config.omega),
            config.noise,
            n_samples=config.mc_samples or 1,
            stream=config.stream(),
        )
        bound = conditions.bounds_frequency_dependent(
            stats, gap.value, config.gamma, tau=config.tau, kappa=config.kappa
        )
        results["spectral"] = {
            "e_lambda_min": stats.e_lambda_min,
            "e_lambda_max": stats.e_lambda_max,
            "stderr_min": stats.stderr_min,
            "stderr_max": stats.stderr_max,
            "samples": stats.samples,
        }
        provenance["spectral"] = {
            "method": "deterministic"
            if config.noise.is_deterministic
            else "monte-carlo",
            "samples": stats.samples,
        }
    else:
        bound = conditions.bounds_undirected(
            config.graph, gap.value, config.gamma, tau=config.tau, kappa=config.kappa
        )
    results["kappa_min"] = bound.kappa_min
    results["tau_max"] = bound.tau_max
    results["tau"] = config.tau
    results["kappa"] = config.kappa
    provenance["bounds"] = {"method": "analytic", "samples": 0}
    omega = np.array(config.omega)
    if np.all(omega > 0):
        results["continuous_reference_kappa"] = conditions.continuous_reference_kappa(
            omega, config.graph, config.gamma
        )
        provenance["continuous_reference_kappa"] = {
            "method": "analytic",
            "samples": 0,
        }
    return results, provenance, {}


def _run_spectral(config: ExperimentConfig):
    _require(config, "spectral", {"mc_samples": config.mc_samples})
    stats = conditions.mc_spectral_stats(
        config.graph,
        np.array(config.omega),
        config.noise,
        n_samples=config.mc_samples,
        stream=config.stream(),
    )
    results = {
        "e_lambda_min": stats.e_lambda_min,
        "e_lambda_max": stats.e_lambda_max,
        "stderr_min": stats.stderr_min,
        "stderr_max": stats.stderr_max,
        "samples": stats.samples,
    }
    provenance = {
        "spectral": {
            "method": "deterministic"
            if config.noise.is_deterministic
            else "monte-carlo",
            "samples": stats.samples,
        }
    }
    return results, provenance, {}


def _run_simulate(config: ExperimentConfig):
    _require(config, "simulate", {"horizon": config.horizon})
    model = config.model()
    sampler = config.initial_sampler()
    stream = config.stream()
    theta0 = sampler(config.graph, stream.child(trial=0, purpose="init"))
    record = analysis.simulate(
        model, theta0, config.horizon, config.gamma, stream.child(trial=0)
    )
    n, m = config.graph.n, config.graph.m
    header = (
        ["step"]
        + [f"theta_{i}" for i in range(n)]
        + [f"edge_dist_{e}" for e in range(m)]
        + ["max_edge_distance", "drift_v", "in_set"]
        + [f"realized_freq_{i}" for i in range(n)]
    )

    def rows():
        for k in range(0, record.horizon + 1, config.decimation):
            yield (
                [record.steps[k]]
                + list(record.theta[k])
                + list(record.edge_distances[k])
                + [
                    record.max_edge_distance[k],
                    record.drift_v[k],
                    record.in_set[k],
                ]
                + list(record.realized_frequency[k])
            )

    escaped_steps = np.flatnonzero(
        record.max_edge_distance >= analysis.ESCAPE_LEVEL
    )
    results = {
        "horizon": record.horizon,
        "in_set_fraction": float(np.mean(record.in_set)),
        "max_edge_distance_overall": float(np.max(record.max_edge_distance)),
        "escaped": bool(escaped_steps.size),
        "first_escape_step": int(escaped_steps[0]) if escaped_steps.size else None,
        "final_drift_v": float(record.drift_v[-1]),
        "gamma": config.gamma,
    }
    provenance = {"trajectory": {"method": "monte-carlo", "samples": 1}}
    return results, provenance, {"trajectory.csv": (header, rows())}


def _run_recurrence(config: ExperimentConfig):
    _require(
        config,
        "recurrence",
        {"horizon": config.horizon, "trials": config.trials},
    )
    model = config.model()
    stats = analysis.recurrence_experiment(
        model,
        config.initial_sampler(),
        config.gamma,
        config.trials,
        config.horizon,
        config.stream(),
    )
    header = [
        "trial",
        "started_in_set",
        "returned",
        "return_time",
        "max_excursion",
        "escaped",
        "escape_time",
    ]

    def rows():
        for t in range(stats.trials):
            yield [
                t,
                stats.started_in_set[t],
                stats.returned[t],
                stats.return_time[t],
                stats.max_excursion[t],
                stats.escaped[t],
                stats.escape_time[t],
            ]

    finite = stats.return_times
    results = {
        "trials": stats.trials,
        "horizon": stats.horizon,
        "gamma": stats.gamma,
        "return_fraction": stats.return_fraction,
        "return_fraction_ci95": list(
            analysis.wilson_interval(int(stats.returned.sum()), stats.trials)
        ),
        "escaped_fraction": stats.escaped_fraction,
        "escaped_fraction_ci95": list(
            analysis.wilson_interval(int(stats.escaped.sum()), stats.trials)
        ),
        "max_excursion_overall": float(np.max(stats.max_excursion)),
        "return_time_median": float(np.median(finite)) if finite.size else None,
        "return_time_p90": float(np.percentile(finite, 90)) if finite.size else None,
        "return_time_max": int(np.max(finite)) if finite.size else None,
    }
    provenance = {
        "recurrence": {
            "method": "monte-carlo",
            "samples": stats.trials,
            "workers": stats.workers,
        }
    }
    return results, provenance, {"trials.csv": (header, rows())}


def _run_drift(config: ExperimentConfig):
    model = config.model()
    estimates = analysis.drift_sweep(
        model,
        config.gamma,
        config.drift_probes,
        config.drift_noise_samples,
        config.stream(),
    )
    n = config.graph.n
    header = ["probe", "estimate", "stderr", "samples"] + [
        f"theta_{i}" for i in range(n)
    ]

    def rows():
        for i, est in enumerate(estimates):
            yield [i, est.estimate, est.stderr, est.samples] + list(est.theta)

    values = np.array([est.estimate for est in estimates])
    errors = np.array([est.stderr for est in estimates])
    results = {
        "probes": len(estimates),
        "noise_samples": config.drift_noise_samples,
        "gamma": config.gamma,
        "min_estimate": float(values.min()) if values.size else None,
        "max_estimate": float(values.max()) if values.size else None,
        "worst_stderr": float(errors.max()) if errors.size else None,
        "all_negative_3se": bool(np.all(values + 3.0 * errors < 0.0))
        if values.size
        else None,
    }
    provenance = {
        "drift": {
            "method": "monte-carlo",
            "samples": config.drift_noise_samples,
        }
    }
    return results, provenance, {"probes.csv": (header, rows())}


def _environment() -> dict:
    """The numeric environment of a run: results are bit-reproducible
    only for the same platform and numpy/LAPACK build."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        deps = {}

    def library(kind):
        info = deps.get(kind, {})
        parts = [str(info[k]) for k in ("name", "version") if k in info]
        return " ".join(parts) or None

    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": library("blas"),
        "lapack": library("lapack"),
        "platform": f"{uname.system}-{uname.release}-{uname.machine}",
    }


_COMMANDS = {
    "bounds": _run_bounds,
    "spectral": _run_spectral,
    "simulate": _run_simulate,
    "recurrence": _run_recurrence,
    "drift": _run_drift,
}


def run_subcommand(command: str, config: ExperimentConfig) -> dict:
    """Execute one subcommand: write data files and the summary report.

    Returns the summary report dictionary (also written to
    ``summary.json`` in the output directory).
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    started = time.perf_counter()
    results, provenance, files = _COMMANDS[command](config)

    out_dir = Path(config.output_directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, rows) in files.items():
        _write_csv(out_dir / name, header, rows)
        written.append(name)

    report = {
        "version": __version__,
        "command": command,
        "config": config.raw,
        "results": results,
        "provenance": provenance,
        "data_files": written,
        "environment": _environment(),
        "wall_clock_s": time.perf_counter() - started,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treekuramoto",
        description="Stochastic Kuramoto oscillators on trees: bounds, "
        "spectral statistics, trajectories, recurrence and drift checks.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a YAML config file")
    source.add_argument(
        "--bundled",
        choices=BUNDLED_CONFIGS,
        help="name of a bundled example config",
    )
    parser.add_argument(
        "--out", help="output directory (overrides output.directory)"
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a scalar config field (dotted keys allowed)",
    )
    args = parser.parse_args(argv)

    try:
        path = (
            bundled_config_path(args.bundled) if args.bundled else Path(args.config)
        )
        data = _read_raw(path)

        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                data["seed"] = int(env_seed)
            except ValueError:
                raise ConfigError(
                    f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                ) from None
        _apply_overrides(data, args.overrides)
        if args.out:
            data.setdefault("output", {})["directory"] = args.out

        config = _validate(data)
        report = run_subcommand(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    results = report["results"]
    for key in sorted(results):
        print(f"{key}: {results[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
