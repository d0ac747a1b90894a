"""Configuration-driven experiment runner.

Subcommands
    bounds      evaluate the coupling / sampling-period bounds
    spectral    Monte Carlo extreme-eigenvalue expectations
    simulate    record one trajectory to CSV
    recurrence  first-return statistics over many trials to CSV
    drift       one-step drift estimates over sampled states to CSV

Every run reads a single YAML config file: ``--config PATH``, or
``--bundled NAME`` for one of the YAML files in ``treekuramoto/configs``,
whose names are ``BUNDLED_CONFIGS``. Any scalar field can be overridden
on the command line with ``--set KEY=VALUE`` (dotted keys for nested
fields, e.g. ``--set output.decimation=10``, or ``--set seed=99`` for
one run's seed). A run reads no environment variable: its inputs are
its command line and its config file. All angles are radians,
frequencies rad/s, the sampling period seconds.

The config schema is ``_FIELDS``, one row per field: ``treekuramoto
--help`` lists each row's key, rule, default and the commands that need
it, and README "Config schema" adds the per-node noise entries and the
initial modes. Unknown keys are rejected, a null value counts as absent,
and every violation is reported at once.

Large ``recurrence``, ``drift`` and ``spectral`` runs (and ``bounds``'
spectral means) split their trials, probes or samples across forked
worker processes, one per CPU the process may run on; every file and
result is the same at any worker count, and the summary's provenance
records the count as ``workers``.

Data files are comma-separated with a header row; the summary report is
a single JSON file. ``simulate`` steps its trajectory a noise chunk at a
time while it writes ``trajectory.csv``, so its memory does not grow
with the horizon. Every file is written to a temporary name and renamed
into place, so a run that fails leaves no partial file, though it may
leave an empty output directory. Exit codes: 0 success, 2 configuration
error, 3 numeric error (including a non-finite state or result, an
allocation that fails or that is too large for one array, and a worker
process that ends without a result), 4 I/O error (a closed or full
stdout included), 130 (128 + 2) interrupted by SIGINT (Ctrl-C) and 143
(128 + 15) terminated by SIGTERM, after the temporary files are removed
and the worker processes reaped.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
import yaml

from . import __version__
from .errors import ConfigError, NumericError
from . import analysis, conditions, noise as noise_mod
from .conditions import DEFAULT_GAMMA
from .dynamics import (
    _UNRESOLVED,
    VARIANTS,
    NetworkModel,
    drift_values,
    edge_geodesics,
    wrap_angle,
)
from .graph import TreeGraph, build_tree
from .noise import NodeNoise, NoiseSpec, RandomStream

#: libyaml's parser where PyYAML was built with it (several times faster
#: on a large config); the pure-Python one otherwise. Both build the
#: same mapping and report errors at the same marks.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_HALF_PI = 0.5 * math.pi

_CONFIGS = Path(__file__).parent / "configs"

#: Names of the bundled example configs: the YAML files packaged in
#: ``treekuramoto/configs``, sorted.
BUNDLED_CONFIGS = tuple(
    sorted(entry.stem for entry in _CONFIGS.iterdir() if entry.suffix == ".yaml")
)

class ParseError(ConfigError):
    """Config file is not parseable YAML."""


class ValidationError(ConfigError):
    """Config violates the schema; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        sep = "\n  - " if len(self.violations) > 1 else " "
        super().__init__("invalid configuration:" + sep + sep.join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``model``, ``sampler`` (``(graph, stream) -> phases``, the fixed or
    sampled start state of ``initial``) and ``stream`` (keyed by ``seed``)
    are the run's domain objects, built once by validation. Every field is
    read by its dotted key, as the YAML, ``--set`` and the error messages
    name it: ``config["drift.probes"]``. ``values`` holds one entry per
    ``_FIELDS`` key, the default where the field is absent, with ``gamma``
    as a float; it is ``None`` for an absent optional count and for the
    ``initial`` fields that its mode does not read.
    """

    model: NetworkModel
    sampler: Callable[[TreeGraph, RandomStream], np.ndarray]
    stream: RandomStream
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def resolved(self) -> dict:
        """The config as a file would hold it, with every ``_FIELDS`` key
        and every noise entry's family, mean and variance, defaults filled
        in: read back, it is the same run whatever the defaults become."""
        data = {}
        for f in _FIELDS:
            if f.key in _KEYS:  # a section: its fields fill it
                data[f.key] = {}
            else:
                (data[f.section] if f.section else data)[f.leaf] = self[f.key]
        data["noise"] = [
            {"family": node.family, "mean": node.mean, "variance": node.variance}
            for node in self.model.noise.nodes
        ]
        return data

    # the benchmark harness's tests read these two
    @property
    def graph(self) -> TreeGraph:
        return self.model.graph

    @property
    def omega(self) -> np.ndarray:
        return self.model.omega


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled example config."""
    if name not in BUNDLED_CONFIGS:
        raise ConfigError(
            f"unknown bundled config {name!r}; available: {', '.join(BUNDLED_CONFIGS)}"
        )
    return _CONFIGS / f"{name}.yaml"


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


class _Field(NamedTuple):
    """One config field: its dotted key, a check of its value, the violation
    message, a default (``...`` when required) and the commands that always
    need it (:func:`_require` adds ``bounds``' need for ``mc_samples``). A
    section's default is the mapping used when the section is absent."""

    key: str
    check: Callable[[object], bool]
    message: str
    default: object = ...
    commands: tuple[str, ...] = ()

    @property
    def section(self) -> str:
        return self.key.rpartition(".")[0]

    @property
    def leaf(self) -> str:
        return self.key.rpartition(".")[2]


def _instance(kind: type):
    return lambda x: isinstance(x, kind)


def _numbers(x) -> bool:
    return isinstance(x, list) and all(_is_number(v) for v in x)


def _edges(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e) for e in x
    )


def _between(low: float, high: float):
    return lambda x: _is_number(x) and low < x < high


def _path(x) -> bool:
    return isinstance(x, str) and x != "" and "\0" not in x


def _one_of(*choices):
    """Check and message of a field that takes one of ``choices``."""
    check = lambda x: isinstance(x, str) and x in choices  # noqa: E731
    return check, f"must be {' or '.join(choices)}"


def _count(minimum: int):
    """Check and message of a count field. Integers up to 2**53 are exact
    as floats; a larger count could never be allocated or iterated."""
    check = lambda x: _is_int(x) and minimum <= x <= 2**53  # noqa: E731
    return check, f"must be an integer in [{minimum}, 2**53]"


_FIELDS = tuple(_Field(*row) for row in (
    ("graph", _instance(dict), "must be a mapping with keys n, edges"),
    ("graph.n", _is_int, "must be an integer"),
    ("graph.edges", _edges, "must be a list of [tail, head] integer pairs"),
    ("omega", _numbers, "must be a list of finite numbers"),
    ("noise", _instance(list), "must be a list of per-node mappings"),
    ("variant", *_one_of(*VARIANTS)),
    ("kappa", _between(0.0, math.inf), "must be a positive finite number"),
    ("tau", _between(0.0, math.inf), "must be a positive finite number"),
    ("gamma", _between(0.0, _HALF_PI), "must lie strictly in (0, pi/2)", DEFAULT_GAMMA),
    ("seed", _is_int, "must be an integer"),
    ("horizon", *_count(1), None, ("simulate", "recurrence")),
    ("trials", *_count(1), None, ("recurrence",)),
    ("mc_samples", *_count(1), None, ("spectral",)),
    ("pair_set", *_one_of("all", "edges"), "all"),
    ("initial", _instance(dict), "must be a mapping", {"mode": "sample"}),
    ("initial.mode", *_one_of("explicit", "sample")),
    ("initial.phases", _numbers, "must be a list of finite numbers", None),
    ("initial.low", _is_number, "must be a finite number", 0.0),
    ("initial.high", _is_number, "must be a finite number", _HALF_PI),
    ("drift", _instance(dict), "must be a mapping", {}),
    ("drift.probes", *_count(0), 100),
    ("drift.noise_samples", *_count(2), 10_000),
    ("output", _instance(dict), "must be a mapping", {}),
    ("output.directory", _path, "must be a nonempty string without NUL", "out"),
    ("output.decimation", *_count(1), 1),
))

#: Known keys of the top level ("") and of each section.
_KEYS = {
    f.section: {g.leaf for g in _FIELDS if g.section == f.section} for f in _FIELDS
}


def _unknown(prefix: str, mapping: dict, known) -> list[str]:
    return [f"{prefix}unknown key {key!r}" for key in mapping if key not in known]


def _validate(data: dict) -> ExperimentConfig:
    # A null value counts as absent.
    bad = _unknown("", data, _KEYS[""])
    values = {}
    for field in _FIELDS:
        mapping = values.get(field.section) if field.section else data
        if mapping is None:  # its section is invalid or missing
            continue
        value = mapping.get(field.leaf)
        if value is None and field.default is not ...:
            values[field.key] = field.default
        elif value is None and not field.section:
            bad.append(f"missing required key {field.key!r}")
        elif not field.check(value):
            bad.append(f"{field.key}: {field.message}")
        else:
            values[field.key] = value
            if field.key in _KEYS:
                bad += _unknown(f"{field.key}: ", value, _KEYS[field.key])

    # Checks that relate fields to each other or to graph.n.
    graph = None
    n, edges = values.get("graph.n"), values.get("graph.edges")
    if n is not None and edges is not None and n > len(edges) + 1:
        bad.append(f"graph.n: {n} nodes need {n - 1} edges, got {len(edges)}")
    elif n is not None and edges is not None:
        try:
            graph = build_tree(n, [tuple(e) for e in edges])
        except ConfigError as exc:
            bad.append(f"graph: {exc}")
    for key in ("omega", "noise", "initial.phases"):
        if n is not None and values.get(key) is not None and len(values[key]) != n:
            bad.append(f"{key}: length {len(values[key])} != graph.n {n}")

    nodes = []
    for i, entry in enumerate(values.get("noise") or ()):
        if not isinstance(entry, dict):
            bad.append(f"noise[{i}]: must be a mapping")
            continue
        bad += _unknown(f"noise[{i}]: ", entry, ("family", "mean", "variance"))
        given = {key: value for key, value in entry.items() if value is not None}
        mean, variance = given.get("mean", 0.0), given.get("variance", 0.0)
        if not _is_number(mean) or not _is_number(variance):
            bad.append(f"noise[{i}]: mean and variance must be finite numbers")
            continue
        try:
            nodes.append(NodeNoise(given.get("family"), float(mean), float(variance)))
        except ConfigError as exc:
            bad.append(f"noise[{i}]: {exc}")

    initial, mode = values.get("initial"), values.get("initial.mode")
    phases, low, high = (values.get(f"initial.{k}") for k in ("phases", "low", "high"))
    if mode is not None:
        foreign = ("low", "high") if mode == "explicit" else ("phases",)
        bad += [
            f"initial: unknown key {k!r}"
            for k, v in initial.items()
            if k in foreign and v is not None
        ]
    if mode == "explicit" and initial.get("phases") is None:
        bad.append("initial.phases: must be a list of finite numbers")
    if mode == "sample" and None not in (low, high) and not 0 <= low < high <= _HALF_PI:
        bad.append("initial: need 0 <= low < high <= pi/2")
    if mode == "explicit" and any(abs(x) >= _UNRESOLVED for x in phases or ()):
        bad.append(
            "initial.phases: a phase of magnitude 2**52 or more cannot be wrapped"
        )
    elif mode == "explicit" and graph and phases is not None and len(phases) == n:
        distances = edge_geodesics(graph, wrap_angle(np.array(phases, dtype=float)))
        if float(np.max(distances)) > analysis.ADMISSIBLE_LEVEL:
            bad.append("initial.phases: an edge distance exceeds pi/2")

    if bad:
        raise ValidationError(bad)

    if mode == "explicit":
        sampler = analysis.fixed_initial(phases)
        values["initial.low"] = values["initial.high"] = None
    else:
        sampler = analysis.edge_box_sampler(float(low), float(high))
    values["gamma"] = float(values["gamma"])
    model = NetworkModel(
        graph=graph,
        omega=values["omega"],
        noise=NoiseSpec(tuple(nodes)),
        kappa=float(values["kappa"]),
        tau=float(values["tau"]),
        variant=values["variant"],
    )
    stream = RandomStream(seed=values["seed"])
    return ExperimentConfig(model, sampler, stream, values)


def _read_raw(path) -> dict:
    """Read a YAML config file into its raw mapping."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        location = ""
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            location = f" at line {mark.line + 1}, column {mark.column + 1}"
        raise ParseError(f"invalid YAML in {path}{location}: {exc}") from exc
    if data is None:
        raise ValidationError(["config file is empty"])
    if not isinstance(data, dict):
        raise ValidationError(["top level must be a mapping"])
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


def _set_field(data: dict, key: str, value, option: str) -> None:
    """Set the scalar field at dotted ``key``, creating absent sections."""
    *sections, leaf = key.split(".")
    for part in sections:
        if data.get(part) is None:
            data[part] = {}
        data = data[part]
        if not isinstance(data, dict):
            raise ConfigError(f"{option}: {part!r} is not a mapping")
    if isinstance(data.get(leaf), (dict, list)):
        raise ConfigError(f"{option}: only scalar fields can be overridden")
    data[leaf] = value


def _apply_overrides(data: dict, pairs: list[str]) -> None:
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
        _set_field(data, key, parsed, f"--set {key}")


def _replace(path: Path, write) -> None:
    """Write ``path`` through ``write(handle)`` into a temporary file in
    its directory, then rename that over ``path``. A write that fails
    midway leaves the previous ``path`` intact and removes the temporary
    file."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", newline="", encoding="utf-8") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


#: Cells formatted per chunk of CSV rows. Bounds the memory that a chunk's
#: strings take, however wide the table is.
_CSV_CHUNK_CELLS = 1 << 13


def _format(values: np.ndarray) -> list[str]:
    """The CSV cells of ``values``, in C order: ``0``/``1`` for bools,
    decimal integers, and the shortest round-trip ``repr`` of floats
    (``-0.0`` kept). ``tolist`` gives the Python int or float whose
    ``repr`` each of these is."""
    if values.dtype == bool:
        values = values.view(np.uint8)
    return list(map(repr, values.ravel().tolist()))


def _write_csv(path: Path, chunks) -> None:
    """Write a CSV table from ``chunks``, an iterable of dicts of
    equal-length 1-D columns under the same names, headed by those names.
    Each column is formatted once per chunk of rows."""

    def write(handle):
        for index, columns in enumerate(chunks):
            if index == 0:
                handle.write(",".join(columns) + "\n")
            rows = len(next(iter(columns.values())))
            chunk = max(1, _CSV_CHUNK_CELLS // len(columns))
            for start in range(0, rows, chunk):
                cells = [_format(c[start : start + chunk]) for c in columns.values()]
                handle.write("\n".join(map(",".join, zip(*cells))) + "\n")

    _replace(path, write)


def _require(config: ExperimentConfig, command: str) -> None:
    """Raise ValidationError naming every field ``command`` needs that
    ``config`` lacks: those whose ``_FIELDS`` row lists the command, and
    for ``bounds`` ``mc_samples`` where the spectra are Monte Carlo, that
    is for any noise under the frequency-dependent variant (the gap is
    exact for every family). Where a figure is Monte Carlo (``bounds`` as
    above, ``spectral`` for any noise), one sample gives no standard
    error, so ``mc_samples`` must be at least 2."""
    noisy = not config.model.noise.is_deterministic
    monte_carlo = {
        "bounds": config.model.variant == "frequency_dependent" and noisy,
        "spectral": noisy,
    }.get(command, False)
    needed = [f.key for f in _FIELDS if command in f.commands]
    if command == "bounds" and monte_carlo:
        needed.append("mc_samples")
    bad = [
        f"{command}: required field {key!r} is missing"
        for key in needed
        if config[key] is None
    ]
    samples = config["mc_samples"]
    if monte_carlo and samples is not None and samples < 2:
        bad.append(
            f"{command}: mc_samples must be at least 2 for a Monte Carlo "
            f"estimate, got {samples}"
        )
    if bad:
        raise ValidationError(bad)


def _check_finite(results: dict, prefix: str = "") -> None:
    """Raise NumericError naming the first non-finite float in results."""
    for key, value in results.items():
        name = f"{prefix}{key}"
        if isinstance(value, (dict, list)):
            items = value if isinstance(value, dict) else dict(enumerate(value))
            _check_finite(items, f"{name}.")
        elif isinstance(value, float) and not math.isfinite(value):
            raise NumericError(f"result {name} is not finite ({value})")


def _spectral(config: ExperimentConfig, n_samples: int):
    """Monte Carlo edge-Laplacian spectra: the statistics, their results
    block and their provenance."""
    model = config.model
    stats = conditions.mc_spectral_stats(
        model.graph, model.omega, model.noise, n_samples=n_samples, stream=config.stream
    )
    results = asdict(stats)
    provenance = {
        "method": "deterministic" if model.noise.is_deterministic else "monte-carlo",
        "samples": stats.samples,
        "workers": results.pop("workers"),
    }
    return stats, results, provenance


def _run_bounds(config: ExperimentConfig):
    model = config.model
    gap = noise_mod.e_max_delta_omega(
        model.omega, model.noise, pairs=config["pair_set"], graph=model.graph
    )
    provenance = {"e_max_delta_omega": {"method": "analytic", "samples": 0}}
    results = {"e_max_delta_omega_pair": list(gap.pair)}
    if model.variant == "frequency_dependent":
        stats, results["spectral"], provenance["spectral"] = _spectral(
            config, config["mc_samples"] or 1
        )
    else:
        n = model.graph.n
        stats = conditions.mc_spectral_stats(model.graph, np.ones(n), NoiseSpec.none(n))
    bound = conditions.bounds(
        stats, gap.value, config["gamma"], tau=model.tau, kappa=model.kappa
    )
    results.update(asdict(bound), variant=model.variant)
    provenance["bounds"] = {"method": "analytic", "samples": 0}
    if np.all(model.omega > 0):
        results["continuous_reference_kappa"] = conditions.continuous_reference_kappa(
            model.omega, model.graph, config["gamma"]
        )
        provenance["continuous_reference_kappa"] = {
            "method": "analytic",
            "samples": 0,
        }
    return results, provenance, {}


def _run_spectral(config: ExperimentConfig):
    _, results, provenance = _spectral(config, config["mc_samples"])
    return results, {"spectral": provenance}, {}


def _numbered(prefix: str, block: np.ndarray) -> dict[str, np.ndarray]:
    """The columns of the 2-D ``block``, named ``prefix_0``, ``prefix_1``, ..."""
    return {f"{prefix}_{i}": column for i, column in enumerate(block.T)}


def _run_simulate(config: ExperimentConfig):
    model, gamma, stream = config.model, config["gamma"], config.stream
    graph, horizon, every = model.graph, config["horizon"], config["output.decimation"]
    theta0 = config.sampler(graph, stream.child(trial=0, purpose="init"))
    results = {"horizon": horizon, "gamma": gamma}

    def chunks():
        inside, peak, escape = 0, 0.0, None
        for k0, theta, realized, max_distance in analysis._trajectory(
            model, theta0, horizon, stream.child(trial=0)
        ):
            in_set = max_distance <= gamma
            inside += int(np.count_nonzero(in_set))
            peak = max(peak, float(max_distance.max()))
            escaped = np.flatnonzero(max_distance >= analysis.ESCAPE_LEVEL)
            if escape is None and escaped.size:
                escape = k0 + int(escaped[0])
            # the rows whose global step is a multiple of the decimation
            kept = slice(-k0 % every, None, every)
            written = theta[kept]
            yield {
                "step": np.arange(k0, k0 + len(theta))[kept],
                **_numbered("theta", written),
                **_numbered("edge_dist", edge_geodesics(graph, written)),
                "max_edge_distance": max_distance[kept],
                "drift_v": drift_values(graph, written, gamma),
                "in_set": in_set[kept],
                **_numbered("realized_freq", realized[kept]),
            }
        results.update(
            in_set_fraction=inside / (horizon + 1),
            max_edge_distance_overall=peak,
            escaped=escape is not None,
            first_escape_step=escape,
            final_drift_v=float(drift_values(graph, theta[-1], gamma)),
        )
        # before the table is renamed into place
        _check_finite(results)

    provenance = {"trajectory": {"method": "monte-carlo", "samples": 1}}
    return results, provenance, {"trajectory.csv": chunks()}


def _run_recurrence(config: ExperimentConfig):
    stats = analysis.recurrence_experiment(
        config.model,
        config.sampler,
        config["gamma"],
        config["trials"],
        config["horizon"],
        config.stream,
    )
    names = (
        "started_in_set", "returned", "return_time", "max_excursion", "escaped",
        "escape_time",
    )
    columns = {
        "trial": np.arange(stats.trials),
        **{name: getattr(stats, name) for name in names},
    }
    finite = stats.return_times
    results = {
        "trials": stats.trials,
        "horizon": stats.horizon,
        "gamma": stats.gamma,
        "max_excursion_overall": float(np.max(stats.max_excursion)),
        "return_time_median": float(np.median(finite)) if finite.size else None,
        "return_time_p90": analysis.percentile(finite, 90) if finite.size else None,
        "return_time_max": int(np.max(finite)) if finite.size else None,
    }
    for name, flags in (
        ("return", stats.returned),
        ("returned_before_escape", stats.returned_before_escape),
        ("escaped", stats.escaped),
    ):
        results[f"{name}_fraction"] = float(np.mean(flags))
        results[f"{name}_fraction_ci95"] = list(
            analysis.wilson_interval(int(flags.sum()), stats.trials)
        )
    provenance = {
        "recurrence": {
            "method": "monte-carlo",
            "samples": stats.trials,
            "workers": stats.workers,
        }
    }
    return results, provenance, {"trials.csv": [columns]}


def _run_drift(config: ExperimentConfig):
    estimates = analysis.drift_sweep(
        config.model,
        config["gamma"],
        config["drift.probes"],
        config["drift.noise_samples"],
        config.stream,
    )
    probes = len(estimates)
    thetas = [est.theta for est in estimates]
    columns = {
        "probe": np.arange(probes),
        **{
            name: np.array([getattr(est, name) for est in estimates])
            for name in ("estimate", "stderr", "samples")
        },
        **_numbered("theta", np.reshape(thetas, (probes, config.model.graph.n))),
    }
    values, errors = columns["estimate"], columns["stderr"]
    results = {
        "probes": probes,
        "noise_samples": config["drift.noise_samples"],
        "gamma": config["gamma"],
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
            "samples": config["drift.noise_samples"],
            "workers": estimates.workers,
        }
    }
    return results, provenance, {"probes.csv": [columns]}


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
    _require(config, command)
    started = time.perf_counter()
    # Every command detects its numeric failures itself (the integrator's
    # report, the eigensolver's check, _check_finite), so numpy's float
    # warnings would only add lines to the one error message. Forked
    # workers inherit this state, and simulate steps while its table is
    # written.
    with np.errstate(all="ignore"):
        results, provenance, files = _COMMANDS[command](config)
        # simulate's results are complete only once its table is written;
        # its chunks check them then
        _check_finite(results)
        out_dir = Path(config["output.directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, chunks in files.items():
            _write_csv(out_dir / name, chunks)

    report = {
        "version": __version__,
        "command": command,
        "config": config.resolved(),
        "results": results,
        "provenance": provenance,
        "data_files": list(files),
        "environment": _environment(),
        "wall_clock_s": time.perf_counter() - started,
    }

    # one string and one write: json.dump writes every token on its own
    text = json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
    _replace(out_dir / "summary.json", lambda handle: handle.write(text))
    return report


#: Signals that end a run as :class:`_Terminated`, with exit code 128 plus
#: the signal number, as a shell reports a process that the signal ended.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)
EXIT_INTERRUPTED = 128 + signal.SIGINT
EXIT_TERMINATED = 128 + signal.SIGTERM


class _Terminated(Exception):
    """SIGINT or SIGTERM arrived during :func:`main`. As an exception it
    removes temporary files and reaps worker processes on its way out.
    Its one argument is the signal, a :class:`signal.Signals`."""


def _raise_terminated(signum, frame):
    # ``timeout`` sends SIGTERM to the process and then to its group, and
    # Ctrl-C sends SIGINT to the whole group, so a second signal may
    # follow; it must not cut the cleanup short. Forked workers inherit
    # this handler and send the exception back instead.
    for stop in _STOP_SIGNALS:
        signal.signal(stop, signal.SIG_IGN)
    raise _Terminated(signal.Signals(signum))


def _epilog() -> str:
    """``--help``'s list of the config fields, one ``_FIELDS`` row a line."""
    lines = ['config fields, by the keys --set takes (see README "Config schema"):']
    for f in _FIELDS:
        notes = [f.message]
        if f.default is not None:
            notes.append("required" if f.default is ... else f"default {f.default}")
        if f.commands:
            notes.append(f"needed by {', '.join(f.commands)}")
        lines.append(f"  {f.key:<20} {'; '.join(notes)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treekuramoto",
        description="Stochastic Kuramoto oscillators on trees: bounds, "
        "spectral statistics, trajectories, recurrence and drift checks.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
    # What is alive now, the imported modules and the parser, lives until
    # the process ends. Frozen, it is left out of every later collection:
    # those during the run, those the interpreter runs at exit, and those
    # in forked workers, which then write less into the pages they share
    # with the parent. Importing the package freezes nothing, since the
    # heap is then the importing program's.
    gc.freeze()
    # a signal ignored at start stays ignored, as Python leaves SIGINT in
    # a job that a shell started in the background
    previous = {
        stop: signal.signal(stop, _raise_terminated)
        for stop in _STOP_SIGNALS
        if signal.getsignal(stop) is not signal.SIG_IGN
    }
    try:
        return _run(args)
    except _Terminated as stopped:
        (signum,) = stopped.args
        print(f"terminated: {signum.name}", file=sys.stderr)
        return 128 + signum
    finally:
        for stop, handler in previous.items():
            signal.signal(stop, handler)


def _run(args) -> int:
    """The run that :func:`main` parsed ``args`` for, and its exit code."""
    try:
        path = (
            bundled_config_path(args.bundled) if args.bundled else Path(args.config)
        )
        data = _read_raw(path)
        _apply_overrides(data, args.overrides)
        if args.out is not None:
            _set_field(data, "output.directory", args.out, "--out")

        config = _validate(data)
        results = run_subcommand(args.command, config)["results"]
        try:
            # flushed here, so that a closed or full stdout is this run's
            # I/O error
            lines = (f"{key}: {value}" for key, value in sorted(results.items()))
            print(*lines, sep="\n", flush=True)
        except OSError:
            # the files are written; the interpreter's own flush of stdout
            # at exit would fail again, so it writes to devnull instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
