import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from treekuramoto.cli import (
    BUNDLED_CONFIGS,
    ParseError,
    ValidationError,
    bundled_config_path,
    load_config,
    main,
    run_subcommand,
)
from treekuramoto.conditions import DEFAULT_GAMMA
from treekuramoto.dynamics import wrap_angle
from treekuramoto.noise import RandomStream
from treekuramoto import analysis, cli, conditions
from treekuramoto.analysis import wilson_interval

from conftest import (
    force_workers, no_children_left, package_env, random_tree, run_python,
)

PI = math.pi


def tiny_config(out_dir, **overrides):
    data = {
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "omega": [1.0, 2.0, 0.5],
        "noise": [
            {"family": "gaussian", "mean": 0.0, "variance": 0.5},
            {"family": "none"},
            {"family": "gaussian", "mean": 0.1, "variance": 1.0},
        ],
        "variant": "frequency_dependent",
        "kappa": 8.0,
        "tau": 0.01,
        "seed": 99,
        "horizon": 50,
        "trials": 4,
        "mc_samples": 500,
        "drift": {"probes": 3, "noise_samples": 100},
        "output": {"directory": str(out_dir), "decimation": 1},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def readme_section(title):
    """The text of README's section ``title``, up to the next one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    return readme.partition(f"\n{title}\n")[2].partition("\n## ")[0]


# --- loading and validation -----------------------------------------------------


def test_readme_bundled_table_names_packaged_configs():
    table = readme_section("### Bundled example configs").split("\n\n")[0]
    names = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert len(names) == 6
    assert set(names) <= set(BUNDLED_CONFIGS)


def test_readme_config_schema_covers_every_field():
    section = readme_section("## Config schema")
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    # each top-level key's lines, commented alternatives such as
    # ``#initial: {mode: explicit, ...}`` included
    lines = {}
    for key, rest in re.findall(r"^#?(\w+):(.*)$", block, re.M):
        lines[key] = lines.get(key, "") + rest
    example = yaml.safe_load(block)
    for field in cli._FIELDS:
        if field.section:
            assert re.search(rf"\b{field.leaf}:", lines[field.section]), field.key
        else:
            assert field.key in lines and field.key in example, field.key
        if field.default in (None, ...):
            continue
        value = (example[field.section] if field.section else example)[field.leaf]
        if isinstance(field.default, dict):
            assert field.default.items() <= value.items(), field.key
        else:
            # by value: README's gamma 1.5207963267948966 is DEFAULT_GAMMA
            assert value == field.default, field.key
    assert cli._validate(example)["gamma"] == DEFAULT_GAMMA


def test_help_lists_every_field(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    for field in cli._FIELDS:
        (line,) = re.findall(rf"^  {re.escape(field.key)} +(.*)$", text, re.M)
        assert line.startswith(field.message)
        if field.default not in (None, ...):
            assert f"default {field.default}" in line
        assert line.endswith(
            f"needed by {', '.join(field.commands)}" if field.commands else ""
        )
    assert list(tmp_path.iterdir()) == []


def test_bundled_configs_load():
    for name in BUNDLED_CONFIGS:
        config = load_config(bundled_config_path(name))
        assert config.model.graph.n >= 2
    path = bundled_config_path("line5_zero_mean")
    reference = load_config(path)
    assert reference.model.kappa == 30.0
    assert reference.model.tau == 0.002
    assert reference.model.variant == "frequency_dependent"
    phases = yaml.safe_load(path.read_text(encoding="utf-8"))["initial"]["phases"]
    for trial in (0, 7):
        start = reference.sampler(
            reference.model.graph, reference.stream.child(trial=trial, purpose="init")
        )
        assert np.array_equal(start, wrap_angle(phases))


def test_gamma_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, tiny_config(tmp_path / "o", gamma=2.0))
    with pytest.raises(ValidationError, match="gamma"):
        load_config(path)


def test_non_tree_rejected(tmp_path):
    data = tiny_config(tmp_path / "o")
    data["graph"] = {
        "n": 5,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
    }
    data["omega"] = [1.0] * 5
    data["noise"] = [{"family": "none"}] * 5
    with pytest.raises(ValidationError, match="cycle"):
        load_config(write_config(tmp_path, data))


def test_unknown_keys_rejected(tmp_path):
    data = tiny_config(tmp_path / "o")
    data["kappac"] = 3.0
    with pytest.raises(ValidationError, match="kappac"):
        load_config(write_config(tmp_path, data))


def test_all_violations_reported_at_once(tmp_path):
    data = tiny_config(tmp_path / "o", gamma=2.0, kappa=-1.0)
    data["extra"] = 1
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert len(err.value.violations) >= 3


def _drop(*keys):
    def mutate(data):
        for key in keys:
            del data[key]

    return mutate


def _put(**fields):
    def mutate(data):
        for key, value in fields.items():
            section, _, leaf = key.rpartition("__")
            (data[section] if section else data)[leaf] = value

    return mutate


COUNT_MESSAGES = [
    "horizon: must be an integer in [1, 2**53]",
    "trials: must be an integer in [1, 2**53]",
    "mc_samples: must be an integer in [1, 2**53]",
    "drift.probes: must be an integer in [0, 2**53]",
    "drift.noise_samples: must be an integer in [2, 2**53]",
    "output.decimation: must be an integer in [1, 2**53]",
]


@pytest.mark.parametrize(
    "mutate, violations",
    [
        (_drop("graph"), ["missing required key 'graph'"]),
        (
            _drop("kappa", "seed"),
            ["missing required key 'kappa'", "missing required key 'seed'"],
        ),
        (_put(graph={"edges": [[0, 1], [1, 2]]}), ["graph.n: must be an integer"]),
        (_put(kappac=3.0), ["unknown key 'kappac'"]),
        (
            _put(
                graph__colour="red",
                initial={"mode": "sample", "shape": "box"},
                drift__every=2,
                output__format="csv",
            ),
            [
                "graph: unknown key 'colour'",
                "initial: unknown key 'shape'",
                "drift: unknown key 'every'",
                "output: unknown key 'format'",
            ],
        ),
        (
            _put(graph=5, initial=[0.0], drift="fast", output=3),
            [
                "graph: must be a mapping with keys n, edges",
                "initial: must be a mapping",
                "drift: must be a mapping",
                "output: must be a mapping",
            ],
        ),
        (
            _put(initial={"mode": "explicit", "phases": [0.0] * 3, "low": 0.1}),
            ["initial: unknown key 'low'"],
        ),
        (
            _put(initial={"mode": "sample", "high": 1.0, "phases": [0.0] * 3}),
            ["initial: unknown key 'phases'"],
        ),
        (
            _put(
                noise=[
                    5,
                    {"family": "laplace", "variance": 1.0},
                    {"family": "gaussian", "mean": math.inf, "variance": 1.0},
                    {"family": "none", "sd": 0.0},
                ]
            ),
            [
                "noise: length 4 != graph.n 3",
                "noise[0]: must be a mapping",
                "noise[1]: unknown family 'laplace', expected one of "
                "('gaussian', 'uniform', 'none')",
                "noise[2]: mean and variance must be finite numbers",
                "noise[3]: unknown key 'sd'",
            ],
        ),
        (
            _put(
                horizon=0,
                trials=2**53 + 1,
                mc_samples=True,
                drift={"probes": -1, "noise_samples": 1},
                output__decimation=0,
            ),
            COUNT_MESSAGES,
        ),
        (
            _put(initial={"mode": "sample", "low": "zero"}),
            ["initial.low: must be a finite number"],
        ),
        (
            _put(initial={"mode": "explicit"}),
            ["initial.phases: must be a list of finite numbers"],
        ),
        (
            _put(graph={"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}),
            ["graph: edge (2, 0) closes a cycle"],
        ),
        (
            _put(initial={"mode": "explicit", "phases": [-(2.0**52), 0.0, 2**60]}),
            ["initial.phases: a phase of magnitude 2**52 or more cannot be wrapped"],
        ),
        (
            _put(omega=[1.0, 2.0], initial={"mode": "sample", "low": 1.0, "high": 0.5}),
            ["omega: length 2 != graph.n 3", "initial: need 0 <= low < high <= pi/2"],
        ),
        (
            _put(
                extra=1,
                variant="directed",
                kappa=-1.0,
                tau="fast",
                gamma=2.0,
                pair_set="none",
                initial={"mode": "explicit", "phases": [0.0, 3.0, 0.0]},
            ),
            [
                "unknown key 'extra'",
                "variant: must be frequency_dependent or undirected",
                "kappa: must be a positive finite number",
                "tau: must be a positive finite number",
                "gamma: must lie strictly in (0, pi/2)",
                "pair_set: must be all or edges",
                "initial.phases: an edge distance exceeds pi/2",
            ],
        ),
    ],
    ids=[
        "missing_graph",
        "missing_scalars",
        "missing_graph_n",
        "unknown_top_key",
        "unknown_section_keys",
        "sections_not_mappings",
        "initial_explicit_with_low",
        "initial_sample_with_phases",
        "noise_entries",
        "count_bounds",
        "initial_low_not_a_number",
        "initial_explicit_without_phases",
        "cycle",
        "initial_phase_unwrappable",
        "lengths_and_range",
        "several_at_once",
    ],
)
def test_violation_messages(tmp_path, mutate, violations):
    data = tiny_config(tmp_path / "o")
    mutate(data)
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.violations == violations


def test_null_value_counts_as_absent(tmp_path):
    data = tiny_config(tmp_path / "o", gamma=None, horizon=None, drift=None)
    config = load_config(write_config(tmp_path, data))
    assert (config["gamma"], config["horizon"], config["drift.probes"]) == (
        DEFAULT_GAMMA,
        None,
        100,
    )
    for key in ("graph", "omega", "noise", "variant", "kappa", "tau", "seed"):
        data = tiny_config(tmp_path / "o", **{key: None})
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, data))
        assert err.value.violations == [f"missing required key {key!r}"]


UNIFORM = [{"family": "uniform", "mean": 0.0, "variance": 1.0}] * 3
SILENT = [{"family": "none"}] * 3


@pytest.mark.parametrize(
    "command, overrides, missing",
    [
        ("simulate", {}, ["horizon"]),
        ("recurrence", {}, ["horizon", "trials"]),
        ("spectral", {}, ["mc_samples"]),
        # the gap is exact for every family, uniform too ...
        ("bounds", {"noise": UNIFORM, "variant": "undirected"}, []),
        # ... so bounds needs mc_samples only where the spectra are Monte Carlo
        ("bounds", {}, ["mc_samples"]),
        ("bounds", {"variant": "undirected"}, []),
        ("bounds", {"noise": SILENT}, []),
    ],
    ids=[
        "simulate-missing0",
        "recurrence-missing1",
        "spectral-missing2",
        "bounds-monte-carlo-gap",
        "bounds-monte-carlo-spectra",
        "bounds-gaussian-undirected",
        "bounds-noise-free",
    ],
)
def test_command_reports_its_missing_fields(tmp_path, command, overrides, missing):
    data = tiny_config(tmp_path / "o", **overrides)
    for key in ("horizon", "trials", "mc_samples"):
        del data[key]
    path = write_config(tmp_path, data)
    if not missing:
        assert main([command, "--config", str(path)]) == 0
        return
    with pytest.raises(ValidationError) as err:
        run_subcommand(command, load_config(path))
    assert err.value.violations == [
        f"{command}: required field {key!r} is missing" for key in missing
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, overrides, monte_carlo",
    [
        ("bounds", {"noise": UNIFORM, "variant": "undirected"}, False),
        ("bounds", {}, True),
        ("spectral", {}, True),
        ("bounds", {"noise": SILENT}, False),
        ("spectral", {"noise": SILENT}, False),
    ],
    ids=[
        "bounds-monte-carlo-gap",
        "bounds-monte-carlo-spectra",
        "spectral-noisy",
        "bounds-noise-free",
        "spectral-noise-free",
    ],
)
def test_one_sample_is_no_monte_carlo_estimate(
    tmp_path, capsys, command, overrides, monte_carlo
):
    data = tiny_config(tmp_path / "o", mc_samples=1, **overrides)
    code = main([command, "--config", str(write_config(tmp_path, data))])
    err = capsys.readouterr().err
    if not monte_carlo:
        assert (code, err) == (0, "")
        return
    assert code == 2
    assert err == (
        f"config error: invalid configuration: {command}: mc_samples must be "
        "at least 2 for a Monte Carlo estimate, got 1\n"
    )
    assert not (tmp_path / "o").exists()


def test_every_field_reads_back_by_its_key(tmp_path):
    required = ("graph", "omega", "noise", "variant", "kappa", "tau", "seed")
    data = {k: v for k, v in tiny_config(tmp_path).items() if k in required}
    config = load_config(write_config(tmp_path, data))
    # the given fields, and the mode of the default initial section
    given = {**data, "graph.n": 3, "graph.edges": data["graph"]["edges"]}
    given["initial.mode"] = "sample"
    for field in cli._FIELDS:
        assert config[field.key] == given.get(field.key, field.default), field.key
        # no second name, but for the two forwarding properties
        name = field.key.replace(".", "_")
        assert name in ("graph", "omega") or not hasattr(config, name), name
    assert set(config.values) == {field.key for field in cli._FIELDS}
    config = load_config(write_config(tmp_path, {**data, "gamma": 1}))
    assert repr(config["gamma"]) == "1.0"


@pytest.mark.parametrize("excess, admissible", [(5e-13, True), (2e-12, False)])
def test_config_and_recurrence_share_the_admissible_tolerance(
    tmp_path, excess, admissible
):
    # one edge, at distance pi/2 + excess
    phases = [0.0, PI / 2 + excess]
    data = tiny_config(
        tmp_path / "o",
        graph={"n": 2, "edges": [[0, 1]]},
        omega=[1.0, 2.0],
        noise=SILENT[:2],
        initial={"mode": "explicit", "phases": phases},
    )
    model = load_config(write_config(tmp_path, {**data, "initial": None})).model

    def recurrence():
        return analysis.recurrence_experiment(
            model,
            analysis.fixed_initial(phases),
            DEFAULT_GAMMA,
            trials=1,
            horizon=1,
            stream=RandomStream(seed=0),
        )

    if admissible:
        load_config(write_config(tmp_path, data))
        recurrence()
        return
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.violations == ["initial.phases: an edge distance exceeds pi/2"]
    with pytest.raises(analysis.InvalidInitSampler, match="admissible set"):
        recurrence()


@pytest.mark.parametrize("argv", [["--out", "o"], ["--set", "kappa=3"], []])
def test_non_mapping_top_level_is_config_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.yaml").write_text("- 1\n- 2\n", encoding="utf-8")
    assert main(["bounds", "--config", "list.yaml"] + argv) == 2
    assert capsys.readouterr().err == (
        "config error: invalid configuration: top level must be a mapping\n"
    )


def test_out_is_set_like_a_dotted_override(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config("unused", output=5)
    argv = ["bounds", "--config", "exp.yaml", "--out"]
    write_config(tmp_path, data)
    assert main(argv + ["d"]) == 2
    assert capsys.readouterr().err == "config error: --out: 'output' is not a mapping\n"
    data["output"] = None
    write_config(tmp_path, data)
    # an empty directory is refused as the config's own would be, not
    # replaced by the default out/
    for empty in (argv + [""], argv[:-1] + ["--set", "output.directory="]):
        assert main(empty) == 2
        assert capsys.readouterr().err == (
            "config error: invalid configuration: "
            "output.directory: must be a nonempty string without NUL\n"
        )
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]
    assert main(argv + ["123"]) == 0
    summary = json.loads((tmp_path / "123" / "summary.json").read_text())
    assert summary["config"]["output"] == {"directory": "123", "decimation": 1}


def test_nul_in_output_directory_is_config_error(tmp_path, capsys):
    data = tiny_config(tmp_path / "o")
    data["output"]["directory"] = "a\0b"
    assert main(["bounds", "--config", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid configuration: "
        "output.directory: must be a nonempty string without NUL\n"
    )


def test_graph_n_beyond_edge_count_is_config_error(tmp_path, capsys):
    argv = ["bounds", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    assert main(argv + ["--set", "graph.n=100000000000"]) == 2
    assert (
        "graph.n: 100000000000 nodes need 99999999999 edges, got 4"
        in capsys.readouterr().err
    )


def test_non_finite_result_is_numeric_error(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["bounds", "--bundled", "line5_zero_mean", "--out", str(out)]
    # the second gamma's sin(gamma)**2 underflows to zero, and no numpy
    # warning may reach stderr before the one message
    for override in ("tau=1e-320", "gamma=5e-324"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--set", override, "--set", "mc_samples=1000"]) == 3
        assert capsys.readouterr().err == (
            "numeric error: result kappa_min is not finite (inf)\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("name", ["line5_zero_mean", "line5_undirected"])
def test_overflowing_tau_max_is_numeric_error(tmp_path, capsys, name):
    # kappa * lambda_max overflows, which would report tau_max as 0.0
    out = tmp_path / "o"
    argv = ["bounds", "--bundled", name, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--set", "kappa=1e308", "--set", "mc_samples=1000"]) == 3
    assert capsys.readouterr().err == (
        "numeric error: tau_max's denominator kappa * lambda_max + gap is not "
        "finite (inf)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("omega0", [1e305, 1e300])
def test_monte_carlo_gap_near_the_largest_double_is_finite(tmp_path, capsys, omega0):
    # uniform noise once took a Monte Carlo gap, whose sums overflowed
    # near 1e305 and 1e300; the exact gap scales the mean gap by the
    # noise's width before it squares or cubes it, and a gap the noise
    # cannot reach comes back as it is
    data = yaml.safe_load(bundled_config_path("line5_undirected").read_text())
    data.update(
        omega=[omega0, 0.0, 0.0, 0.0, 0.0],
        noise=[{"family": "uniform", "mean": 0.0, "variance": 1.0}] * 5,
    )
    config, out = str(write_config(tmp_path, data)), tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["e_max_delta_omega"] == pytest.approx(omega0)
    for key in ("kappa_min", "tau_max"):
        assert math.isfinite(results[key]) and results[key] > 0, key


@pytest.mark.parametrize("variance, code", [(1e308, 3), (5e307, 0)])
def test_gap_of_an_overflowing_uniform_width_exits_numeric(
    tmp_path, capsys, variance, code
):
    # sqrt(3 * 1e308) is inf, so every pair with node 4 has a NaN gap,
    # which must not be passed over as smaller than the others; at 5e307
    # the half-width 1.2e154 is finite, and so is every figure
    data = yaml.safe_load(bundled_config_path("line5_undirected").read_text())
    data["noise"][4] = {"family": "uniform", "mean": 0.0, "variance": variance}
    config, out = str(write_config(tmp_path, data)), tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", "--config", config, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            "numeric error: the expected gap of nodes 0 and 4 is not finite (nan)\n"
        )
        assert not out.exists()
        return
    assert err == ""
    results = json.loads((out / "summary.json").read_text())["results"]
    assert all_finite(results)
    half_width = math.sqrt(3 * 5e307)
    assert results["e_max_delta_omega"] == pytest.approx(half_width / 2, rel=1e-6)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("graph: {n: 3\nomega: [1, 2]\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line"):
        load_config(path)


@pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)
def test_libyaml_and_python_loaders_agree():
    assert cli._YAML_LOADER is yaml.CSafeLoader
    for name in BUNDLED_CONFIGS:
        text = bundled_config_path(name).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(
            text, Loader=yaml.SafeLoader
        )
    marks = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError) as err:
            yaml.load("graph: {n: 3\nomega: [1, 2]\n", Loader=loader)
        mark = err.value.problem_mark
        marks.append((type(err.value), mark.line, mark.column))
    assert marks[0] == marks[1]


def test_initial_phases_outside_admissible_set_rejected(tmp_path):
    data = tiny_config(tmp_path / "o")
    data["initial"] = {"mode": "explicit", "phases": [0.0, 3.0, 0.0]}
    with pytest.raises(ValidationError, match="initial"):
        load_config(write_config(tmp_path, data))


# --- subcommands end to end --------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_simulate_writes_trajectory_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["simulate", "--config", str(path)]) == 0
    rows = read_csv(out / "trajectory.csv")
    n, m = 3, 2
    assert rows[0] == (
        ["step"]
        + [f"theta_{i}" for i in range(n)]
        + [f"edge_dist_{e}" for e in range(m)]
        + ["max_edge_distance", "drift_v", "in_set"]
        + [f"realized_freq_{i}" for i in range(n)]
    )
    assert len(rows) == 52  # header + horizon + 1
    float(rows[1][1])  # parses as numbers
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["results"]["horizon"] == 50
    assert summary["data_files"] == ["trajectory.csv"]
    assert "wall_clock_s" in summary
    assert capsys.readouterr().out  # results echoed to stdout


def test_decimation_thins_rows(tmp_path, monkeypatch):
    def run(decimation, name):
        out = tmp_path / name
        data = tiny_config(out)
        data["output"]["decimation"] = decimation
        assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
        summary = json.loads((out / "summary.json").read_text())
        return (out / "trajectory.csv").read_bytes(), summary["results"]

    default = {decimation: run(decimation, str(decimation)) for decimation in (1, 3, 10)}
    rows = {d: read_csv(tmp_path / str(d) / "trajectory.csv") for d in (1, 3, 10)}
    assert len(rows[10]) == 1 + 6  # header + steps 0,10,20,30,40,50
    # every 10th (3rd) row of the full table, header included
    assert rows[10] == rows[1][:1] + rows[1][1::10]
    assert rows[3] == rows[1][:1] + rows[1][1::3]

    # 7-step chunks (three nodes take 4 noise words a step, and a
    # trajectory chunk holds two buffers): at decimation 3 the first kept
    # row of most chunks is not the chunk's first row
    monkeypatch.setattr(analysis, "_MAX_BLOCK_WORDS", 2 * 4 * 7)
    monkeypatch.setattr(analysis, "_MIN_CHUNK_STEPS", 1)
    chunk_steps = []
    kernel = analysis._integrate

    def spy(model, theta, frequency, out, step_max=None):
        chunk_steps.append(len(frequency))
        return kernel(model, theta, frequency, out, step_max)

    monkeypatch.setattr(analysis, "_integrate", spy)
    for decimation in (1, 3):
        chunk_steps.clear()
        assert run(decimation, f"chunked_{decimation}") == default[decimation]
        assert chunk_steps == [7] * 7 + [1]


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # the chunks' buffers are the same at every horizon; the record of a
    # whole trajectory grew by about 7 MB from 20 000 to 100 000 steps
    def run(horizon):
        argv = ["simulate", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
        argv += ["--set", "output.decimation=1000", "--set", f"horizon={horizon}"]
        assert main(argv) == 0

    run(2000)  # imports and caches, outside the measurement
    peaks = []
    for horizon in (20_000, 100_000):
        tracemalloc.start()
        try:
            run(horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks


def test_simulate_failing_midway_leaves_the_earlier_table(
    tmp_path, capsys, monkeypatch
):
    argv = ["simulate", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    argv += ["--set", "horizon=20000"]
    assert main(argv) == 0
    earlier = (tmp_path / "trajectory.csv").read_bytes()
    (tmp_path / "summary.json").unlink()
    capsys.readouterr()
    kernel = analysis._integrate
    calls = []

    def failing_second_call(model, theta, frequency, out, step_max=None):
        calls.append(len(frequency))
        if len(calls) == 2:
            return 3, 0  # the state after the chunk's fourth step
        return kernel(model, theta, frequency, out, step_max)

    monkeypatch.setattr(analysis, "_integrate", failing_second_call)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"numeric error: phases became non-finite at step {calls[0] + 4}\n"
    assert (tmp_path / "trajectory.csv").read_bytes() == earlier
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trajectory.csv"]

    # a summary that is not finite is found before the table is renamed
    monkeypatch.setattr(analysis, "_integrate", kernel)
    drift_values = cli.drift_values
    monkeypatch.setattr(
        cli,
        "drift_values",
        lambda graph, theta, gamma: (
            np.inf if theta.ndim == 1 else drift_values(graph, theta, gamma)
        ),
    )
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "numeric error: result final_drift_v is not finite (inf)\n"
    assert (tmp_path / "trajectory.csv").read_bytes() == earlier
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trajectory.csv"]


def readme_columns(name, n):
    """The columns that README's "Data files" lists for ``name`` on ``n``
    nodes, ``theta_0..theta_{n-1}`` spelled out."""
    listed = re.search(
        rf"`{name}` \(.*?\):\n\n((?:    .*\n)+)", readme_section("## Data files")
    ).group(1)
    columns = []
    for item in map(str.strip, listed.split(",")):
        numbered = re.fullmatch(r"(\w+)_0\.\.\1_\{n-1\}", item)
        columns += [f"{numbered[1]}_{i}" for i in range(n)] if numbered else [item]
    return columns


def test_recurrence_and_drift_write_row_files(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["recurrence", "--config", str(path)]) == 0
    rows = read_csv(out / "trials.csv")
    assert rows[0] == readme_columns("trials.csv", 3)
    assert len(rows) == 5
    assert main(["drift", "--config", str(path)]) == 0
    rows = read_csv(out / "probes.csv")
    assert rows[0] == readme_columns("probes.csv", 3)
    assert len(rows) == 4


SPECTRAL_KEYS = ["e_lambda_max", "e_lambda_min", "samples", "stderr_max", "stderr_min"]
BOUNDS_KEYS = [
    "continuous_reference_kappa", "e_max_delta_omega", "e_max_delta_omega_pair",
    "gamma", "kappa", "kappa_min", "tau", "tau_max", "variant",
]


@pytest.mark.parametrize(
    "command, name, keys",
    [
        ("bounds", "line5_zero_mean", sorted(BOUNDS_KEYS + ["spectral"])),
        ("bounds", "line5_undirected", BOUNDS_KEYS),
        ("spectral", "line5_zero_mean", SPECTRAL_KEYS),
        (
            "simulate", "line5_zero_mean",
            [
                "escaped", "final_drift_v", "first_escape_step", "gamma", "horizon",
                "in_set_fraction", "max_edge_distance_overall",
            ],
        ),
        (
            "recurrence", "line5_zero_mean",
            [
                "escaped_fraction", "escaped_fraction_ci95", "gamma", "horizon",
                "max_excursion_overall", "return_fraction", "return_fraction_ci95",
                "return_time_max", "return_time_median", "return_time_p90",
                "returned_before_escape_fraction",
                "returned_before_escape_fraction_ci95", "trials",
            ],
        ),
        (
            "drift", "line5_zero_mean",
            [
                "all_negative_3se", "gamma", "max_estimate", "min_estimate",
                "noise_samples", "probes", "worst_stderr",
            ],
        ),
    ],
)
def test_summary_results_keys(tmp_path, command, name, keys):
    """The names each command reports; a figure added to a library result
    type shows up here."""
    small = [
        "horizon=20", "trials=3", "mc_samples=20", "drift.probes=2",
        "drift.noise_samples=20",
    ]
    argv = [command, "--bundled", name, "--out", str(tmp_path)]
    assert main(argv + [arg for pair in small for arg in ("--set", pair)]) == 0
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert sorted(results) == keys
    if "spectral" in results:
        assert sorted(results["spectral"]) == SPECTRAL_KEYS


def test_recurrence_summary_reports_uncertainty(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["recurrence", "--config", str(path)]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    rows = read_csv(out / "trials.csv")[1:]
    returned = sum(row[2] == "1" for row in rows)
    escaped = sum(row[5] == "1" for row in rows)
    assert results["return_fraction_ci95"] == list(wilson_interval(returned, 4))
    assert results["escaped_fraction_ci95"] == list(wilson_interval(escaped, 4))
    low, high = results["return_fraction_ci95"]
    assert low <= results["return_fraction"] <= high
    times = [int(row[3]) for row in rows if row[2] == "1"]
    assert results["return_time_p90"] == float(np.percentile(times, 90))
    for key in ("return_fraction", "escaped_fraction", "return_time_median"):
        assert key in results


@pytest.mark.parametrize("tau", [0.01, 0.2])
def test_recurrence_summary_counts_returns_before_any_escape(tmp_path, tau):
    # at tau = 0.2 trials slip past pi/2 and re-enter the set on the far
    # side: they count as returned, but not as returned before an escape
    out = tmp_path / "run"
    data = tiny_config(out, tau=tau, trials=40, horizon=400)
    assert main(["recurrence", "--config", str(write_config(tmp_path, data))]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    rows = read_csv(out / "trials.csv")[1:]
    before = sum(
        row[2] == "1" and (row[6] == "-1" or int(row[3]) < int(row[6]))
        for row in rows
    )
    assert results["returned_before_escape_fraction"] == before / 40
    assert results["returned_before_escape_fraction_ci95"] == list(
        wilson_interval(before, 40)
    )
    slipped = results["return_fraction"] - results["returned_before_escape_fraction"]
    assert (slipped > 0.5) == (tau == 0.2)


@pytest.mark.parametrize("command", ["recurrence", "simulate"])
def test_non_finite_state_exits_numeric(tmp_path, capsys, command):
    out = tmp_path / "run"
    code = main(
        [
            command,
            "--bundled",
            "line5_zero_mean",
            "--out",
            str(out),
            "--set",
            "kappa=1e308",
            "--set",
            "horizon=50",
            "--set",
            "trials=3",
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric error:" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_drift_numeric_error_names_probe(tmp_path, capsys):
    argv = ["drift", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    assert main(argv + ["--set", "kappa=1e308"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: probe 0: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "recurrence", "drift"])
def test_unresolvable_phase_exits_numeric(tmp_path, capsys, command):
    # increments near 1e297 rad: no float resolves the phase, and the wrap
    # used to leave theta_1 at 7.26e+280 in a run that exited 0
    out = tmp_path / "run"
    data = tiny_config(
        out,
        omega=[1.0e300, 3.0e299, -2.0e300],
        noise=[{"family": "none"} for _ in range(3)],
        kappa=30.0,
        tau=0.002,
        horizon=5,
        initial={"mode": "explicit", "phases": [0.1, 0.0, -0.1]},
    )
    assert main([command, "--config", str(write_config(tmp_path, data))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "non-finite" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "command", ["bounds", "spectral", "simulate", "recurrence", "drift"]
)
def test_overflowing_frequency_gives_one_line(tmp_path, capsys, command):
    # omega + noise overflows to inf on node 0; every command must report
    # that as its one error line, with no numpy warning before it
    out = tmp_path / "run"
    data = tiny_config(out, omega=[1.7e308, 2.0, 0.5])
    data["noise"][0]["mean"] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(write_config(tmp_path, data))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and len(err.splitlines()) == 1, err
    assert not (out / "summary.json").exists()


def test_unwrappable_initial_phase_is_config_error(tmp_path, capsys):
    # no float resolves 1e18 on the circle: simulate used to start every
    # node at 2.336 and exit 0
    data = tiny_config(
        tmp_path / "o", initial={"mode": "explicit", "phases": [1.0e18] * 3}
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid configuration: "
        "initial.phases: a phase of magnitude 2**52 or more cannot be wrapped\n"
    )
    # just below 2**52 the phase is still resolved and wraps
    data["initial"]["phases"] = [2.0**52 - 1.0] * 3
    config = load_config(write_config(tmp_path, data))
    start = config.sampler(config.model.graph, config.stream)
    assert np.all(np.isfinite(start)) and np.all(np.abs(start) <= PI)


def test_drift_without_probes_writes_header_only(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["drift", "--config", str(path), "--set", "drift.probes=0"]) == 0
    assert (out / "probes.csv").read_text(encoding="utf-8") == (
        "probe,estimate,stderr,samples,theta_0,theta_1,theta_2\n"
    )


#: Small forked runs of each command on line5_zero_mean: 31 trials of
#: recurrence (slices of 15 and 16 at 2 workers), 6 drift probes (3 and
#: 3) and 1 000 spectral samples (500 and 500).
FORKED_SIZES = {
    "recurrence": ["horizon=1000", "trials=31"],
    "drift": ["drift.probes=6", "drift.noise_samples=100"],
    "spectral": ["mc_samples=1000"],
}


def run_with_workers(monkeypatch, out, workers, command, sizes=None):
    force_workers(monkeypatch, workers)
    argv = [command, "--bundled", "line5_zero_mean", "--out", str(out)]
    for pair in FORKED_SIZES[command] if sizes is None else sizes:
        argv += ["--set", pair]
    return main(argv)


def test_recurrence_outputs_independent_of_worker_count(tmp_path, monkeypatch):
    summaries = {}
    for workers in (1, 3):
        out = tmp_path / str(workers)
        assert run_with_workers(monkeypatch, out, workers, "recurrence") == 0
        summaries[workers] = json.loads((out / "summary.json").read_text())
        assert summaries[workers]["provenance"]["recurrence"]["workers"] == workers
    assert (tmp_path / "1" / "trials.csv").read_bytes() == (
        tmp_path / "3" / "trials.csv"
    ).read_bytes()
    assert summaries[1]["results"] == summaries[3]["results"]


@pytest.mark.parametrize(
    "command, sizes",
    [
        ("drift", ["drift.probes=7"]),  # the bundled 10 000 draws a probe
        ("spectral", []),  # the bundled 100 000 samples
        ("bounds", []),
    ],
)
def test_drift_and_spectral_outputs_independent_of_worker_count(
    tmp_path, monkeypatch, command, sizes
):
    summaries = {}
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        assert run_with_workers(monkeypatch, out, workers, command, sizes) == 0
        summaries[workers] = json.loads((out / "summary.json").read_text())
        block = "drift" if command == "drift" else "spectral"
        assert summaries[workers]["provenance"][block]["workers"] == workers
        assert no_children_left()
    for workers in (2, 3):
        assert summaries[workers]["results"] == summaries[1]["results"]
        if command == "drift":
            assert (tmp_path / str(workers) / "probes.csv").read_bytes() == (
                tmp_path / "1" / "probes.csv"
            ).read_bytes()
    # the count is the only provenance that differs
    provenance = summaries[3]["provenance"]
    provenance[block]["workers"] = 1
    assert provenance == summaries[1]["provenance"]


@pytest.mark.parametrize(
    "failure, message",
    [
        ("killed", "the worker stepping trials 15..30 ended without a result"),
        ("memory", "no memory for the noise block"),
    ],
)
def test_failing_worker_exits_numeric(
    tmp_path, capsys, monkeypatch, failure, message
):
    check_failing_worker(
        tmp_path, capsys, monkeypatch, "recurrence", failure, message
    )


@pytest.mark.parametrize(
    "command, failure, message",
    [
        ("drift", "killed", "the worker stepping probes 3..5 ended without a result"),
        ("drift", "memory", "no memory for the noise block"),
        (
            "spectral",
            "killed",
            "the worker solving samples 500..999 ended without a result",
        ),
        ("spectral", "memory", "no memory for the noise block"),
    ],
)
def test_failing_drift_or_spectral_worker_exits_numeric(
    tmp_path, capsys, monkeypatch, command, failure, message
):
    check_failing_worker(tmp_path, capsys, monkeypatch, command, failure, message)


def check_failing_worker(tmp_path, capsys, monkeypatch, command, failure, message):
    """A forked worker of ``command`` that the kernel kills, or that
    runs out of memory, ends the run with exit code 3 and one line."""
    parent = os.getpid()
    module, name = {
        "recurrence": (analysis, "_step_trials"),
        "drift": (analysis, "drift_estimate"),
        "spectral": (conditions, "batch_eigenvalues"),
    }[command]
    work = getattr(module, name)

    def failing_in_workers(*args):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError("no memory for the noise block")
        return work(*args)

    monkeypatch.setattr(module, name, failing_in_workers)
    assert run_with_workers(monkeypatch, tmp_path, 2, command) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {message}")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "summary.json").exists()
    assert no_children_left()


def test_forked_recurrence_never_imports_multiprocessing(tmp_path):
    # the workers are os.fork, a pipe and pickle: multiprocessing's import
    # and its Process and Connection objects would cost every forked run
    # time and memory
    script = (
        "import sys\n"
        "from treekuramoto import _fork, cli\n"
        "_fork.worker_count = lambda items, work_bytes, min_items=1: 2\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = [m for m in sys.modules if m.startswith('multiprocessing')]\n"
        "print('multiprocessing modules:', loaded)\n"
        "sys.exit(code)\n"
    )
    out = tmp_path / "out"
    done = run_python(
        script, "recurrence", "--bundled", "line5_zero_mean",
        "--out", str(out), "--set", "horizon=1000", "--set", "trials=31",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "multiprocessing modules: []"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"]["recurrence"]["workers"] == 2


def test_cli_runs_never_import_the_scipy_special_package(tmp_path):
    # noise loads scipy's compiled ufuncs alone: the scipy.special package's
    # __init__ imports scipy's array-API layer, which loads numpy.f2py,
    # numpy.testing and numpy.ma, nearly half of the CLI's import time
    script = (
        "import sys\n"
        "from treekuramoto import _fork, cli\n"
        "_fork.worker_count = lambda items, work_bytes, min_items=1: 2\n"
        "out = sys.argv[1]\n"
        "for argv in (\n"
        "    ['spectral', '--set', 'mc_samples=200', '--out', out + '/spectral'],\n"
        "    ['recurrence', '--set', 'horizon=1000', '--set', 'trials=31',\n"
        "     '--out', out + '/recurrence'],\n"
        "):\n"
        "    code = cli.main([*argv, '--bundled', 'line5_zero_mean'])\n"
        "    if code:\n"
        "        sys.exit(code)\n"
        "heavy = ('scipy.special', 'scipy._lib._array_api', 'numpy.f2py')\n"
        "print('loaded:', [m for m in heavy if m in sys.modules])\n"
    )
    done = run_python(script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded: []"
    for command in ("spectral", "recurrence"):
        summary = json.loads((tmp_path / command / "summary.json").read_text())
        assert summary["provenance"][command]["workers"] == 2


def test_recurrence_runs_never_import_numpy_ma_or_numpys_generator(tmp_path):
    # return_time_p90 is taken without np.percentile, whose np.unique
    # imports numpy.ma, and noise scales Philox's raw words itself, without
    # numpy's Generator module: both cost every recurrence process memory
    script = (
        "import sys\n"
        "from treekuramoto import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "heavy = ('numpy.ma', 'numpy.random._generator')\n"
        "print('loaded:', [m for m in heavy if m in sys.modules])\n"
        "sys.exit(code)\n"
    )
    out = tmp_path / "out"
    done = run_python(
        script, "recurrence", "--bundled", "line5_zero_mean",
        "--out", str(out), "--set", "horizon=1000", "--set", "trials=31",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded: []"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["return_time_p90"] is not None


def cli_process(*args, stdout=subprocess.DEVNULL, **popen):
    """The CLI running ``args`` in a new Python process, its stderr piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "treekuramoto.cli", *args],
        env=package_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        **popen,
    )


def foreground_cli_process(*args):
    """``cli_process`` as a shell's foreground job, which Ctrl-C signals
    as a whole: in a process group of its own, and with SIGINT at its
    default even where this suite runs as a background job, which
    inherits SIGINT ignored."""
    return cli_process(
        *args,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )


def processes_with(marker: str) -> list[int]:
    """Pids of the running processes whose command line holds ``marker``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # the process ended while the list was read
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def terminate_when(process, ready, signum=signal.SIGTERM, group=False) -> str:
    """Send ``signum`` to ``process``, or to its whole process group, once
    ``ready()`` holds, and return its stderr; it, or its group, is killed
    if it outlives the test."""
    try:
        deadline = time.monotonic() + 60
        while not ready():
            assert process.poll() is None, process.communicate()
            assert time.monotonic() < deadline, "the run never got ready"
            time.sleep(0.02)
        if group:
            os.killpg(process.pid, signum)
        else:
            process.send_signal(signum)
        return process.communicate(timeout=60)[1]
    finally:
        if group:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
        process.kill()
        process.wait()


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_removes_the_partial_table(tmp_path):
    out = tmp_path / "out"
    process = cli_process(
        "simulate", "--bundled", "line5_zero_mean", "--out", str(out),
        "--set", "horizon=1000000000000000", "--set", "output.decimation=1000000",
    )
    err = terminate_when(process, lambda: any(out.glob(".trajectory.csv.*.tmp")))
    assert process.returncode == cli.EXIT_TERMINATED == 143
    assert err == "terminated: SIGTERM\n"
    assert list(out.iterdir()) == []
    assert processes_with(str(out)) == []


#: Forked runs of each command on line5_zero_mean that last minutes,
#: long past the signal that stops them.
LONG_FORKED_RUNS = {
    "recurrence": ["--set", "horizon=3000000"],
    "drift": ["--set", "drift.probes=1000000"],
    "spectral": ["--set", "mc_samples=50000000"],
}


def check_signal_reaps_the_workers(tmp_path, command, signum):
    """Stop a forked ``command`` run with ``signum`` once its workers run:
    SIGTERM reaches the parent alone, whose workers would outlive it, and
    SIGINT the parent and its workers alike, as Ctrl-C does; a worker
    sends its interruption back instead of printing a traceback. The run
    exits 128 plus the signal number with one line on stderr and leaves
    no process and no output behind."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip(f"on one CPU {command} forks no worker")
    out = tmp_path / "out"
    argv = [command, "--bundled", "line5_zero_mean", "--out", str(out)]
    argv += LONG_FORKED_RUNS[command]
    if signum == signal.SIGINT:
        process = foreground_cli_process(*argv)
    else:
        process = cli_process(*argv)
    err = terminate_when(
        process, lambda: len(processes_with(str(out))) >= 2,
        signum, group=signum == signal.SIGINT,
    )
    assert process.returncode == 128 + signum
    assert err == f"terminated: {signal.Signals(signum).name}\n"
    assert processes_with(str(out)) == []
    assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_reaps_the_recurrence_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "recurrence", signal.SIGTERM)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_reaps_the_drift_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "drift", signal.SIGTERM)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_reaps_the_spectral_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "spectral", signal.SIGTERM)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigint_removes_the_partial_table(tmp_path):
    out = tmp_path / "out"
    process = foreground_cli_process(
        "simulate", "--bundled", "line5_zero_mean", "--out", str(out),
        "--set", "horizon=1000000000000000", "--set", "output.decimation=1000000",
    )
    err = terminate_when(
        process, lambda: any(out.glob(".trajectory.csv.*.tmp")),
        signal.SIGINT, group=True,
    )
    assert process.returncode == cli.EXIT_INTERRUPTED == 130
    assert err == "terminated: SIGINT\n"
    assert list(out.iterdir()) == []
    assert processes_with(str(out)) == []


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigint_reaps_the_recurrence_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "recurrence", signal.SIGINT)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigint_reaps_the_drift_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "drift", signal.SIGINT)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigint_reaps_the_spectral_workers(tmp_path):
    check_signal_reaps_the_workers(tmp_path, "spectral", signal.SIGINT)


def test_main_leaves_an_ignored_signal_ignored(tmp_path, monkeypatch):
    argv = ["bounds", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    handlers = []

    def recording(command, config):
        handlers.append([signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)])
        return run_subcommand(command, config)

    monkeypatch.setattr(cli, "run_subcommand", recording)
    sigterm = signal.getsignal(signal.SIGTERM)
    sigint = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        assert main(argv) == 0
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, sigint)
    assert handlers == [[signal.SIG_IGN, cli._raise_terminated]]
    assert signal.getsignal(signal.SIGTERM) is sigterm


def test_main_freezes_the_heap_it_runs_in(tmp_path):
    before = gc.get_freeze_count()
    assert main(["bounds", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() > before


@pytest.mark.parametrize(
    "samples, code, message",
    [
        (10**23, 2, "mc_samples: must be an integer in [1, 2**53]"),
        # 7 PiB of float64: beyond any 64-bit user address space
        (10**15, 3, "numeric error: Unable to allocate"),
    ],
)
def test_huge_count_exit_codes(tmp_path, capsys, samples, code, message):
    argv = ["spectral", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    assert main(argv + ["--set", f"mc_samples={samples}"]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 2


@pytest.mark.parametrize("n", [5, 200])
@pytest.mark.parametrize(
    "command, family, overrides",
    [
        ("recurrence", "gaussian", ["trials=9007199254740992"]),
        (
            "drift",
            "gaussian",
            ["drift.noise_samples=9007199254740992", "drift.probes=1"],
        ),
        ("bounds", "uniform", ["mc_samples=9007199254740992"]),
    ],
)
def test_impossible_allocation_exits_numeric(
    tmp_path, capsys, n, command, family, overrides
):
    # on 200 nodes these arrays are too big for numpy to try, which it
    # reports by a ValueError; on 5 nodes it tries and fails
    out = tmp_path / "out"
    tree = random_tree(np.random.default_rng(n), n)
    data = tiny_config(
        out,
        graph={"n": n, "edges": [list(edge) for edge in tree.edges]},
        omega=[1.0] * n,
        noise=[{"family": family, "mean": 0.0, "variance": 1.0}] * n,
    )
    argv = [command, "--config", str(write_config(tmp_path, data))]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "key",
    ["horizon", "trials", "drift.probes", "drift.noise_samples", "output.decimation"],
)
def test_count_beyond_2_53_is_config_error(tmp_path, capsys, key):
    argv = ["bounds", "--bundled", "line5_zero_mean", "--out", str(tmp_path)]
    assert main(argv + ["--set", f"{key}={2**53 + 1}"]) == 2
    assert f"{key}: must be an integer in [" in capsys.readouterr().err


def test_spectral_and_bounds_reports(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["spectral", "--config", str(path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["samples"] == 500
    assert summary["provenance"]["spectral"]["method"] == "monte-carlo"
    assert main(["bounds", "--config", str(path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    results = summary["results"]
    assert results["kappa_min"] > 0
    assert results["tau_max"] > 0
    assert results["gamma"] == pytest.approx(PI / 2 - 0.05)
    assert summary["provenance"]["e_max_delta_omega"]["method"] == "analytic"
    assert results["continuous_reference_kappa"] > 0


@pytest.mark.parametrize(
    "name, variant",
    [
        ("line5_zero_mean", "frequency_dependent"),
        ("line5_undirected", "undirected"),
    ],
)
def test_bounds_report_the_models_variant(tmp_path, capsys, name, variant):
    # a bound depends on its spectrum alone, so the variant comes from
    # the config's model
    argv = ["bounds", "--bundled", name, "--out", str(tmp_path)]
    assert main(argv + ["--set", "mc_samples=20"]) == 0
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert results["variant"] == variant
    assert f"variant: {variant}" in capsys.readouterr().out.splitlines()


def test_spectral_on_bundled_reference_configs(tmp_path):
    # Expected extreme-eigenvalue expectations for the four line-5
    # disturbance choices; stochastic values frozen from converged
    # tensor quadrature, noise-free from the exact decomposition.
    expected = {
        "line5_noise_free": (1.3138, 24.4637),
        "line5_zero_mean": (1.21087, 24.58956),
        "line5_shifted_mean": (0.33258, 24.02031),
        "line5_strong_negative_mean": (-1.21363, 23.66011),
    }
    for name, (lo, hi) in expected.items():
        out = tmp_path / name
        assert (
            main(
                [
                    "spectral",
                    "--bundled",
                    name,
                    "--out",
                    str(out),
                    "--set",
                    "mc_samples=40000",
                ]
            )
            == 0
        )
        results = json.loads((out / "summary.json").read_text())["results"]
        tol_lo = max(4 * results["stderr_min"], 0.01)
        tol_hi = max(4 * results["stderr_max"], 0.01)
        assert abs(results["e_lambda_min"] - lo) <= tol_lo, name
        assert abs(results["e_lambda_max"] - hi) <= tol_hi, name
    summary = json.loads(
        (tmp_path / "line5_noise_free" / "summary.json").read_text()
    )
    assert summary["provenance"]["spectral"]["method"] == "deterministic"
    assert summary["results"]["stderr_min"] == 0.0


@pytest.mark.parametrize("command", ["spectral", "bounds"])
def test_noise_free_spectrum_reports_its_one_solve(tmp_path, command):
    # line5_noise_free asks for 1 000 samples, but its spectrum is that of
    # one Laplacian, solved once
    out = tmp_path / command
    assert main([command, "--bundled", "line5_noise_free", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    results = summary["results"]
    assert summary["config"]["mc_samples"] == 1000
    assert (results if command == "spectral" else results["spectral"])["samples"] == 1
    assert summary["provenance"]["spectral"] == {
        "method": "deterministic", "samples": 1, "workers": 1
    }


def test_simulate_escape_in_strong_negative_bundle(tmp_path):
    out = tmp_path / "run"
    assert (
        main(
            [
                "simulate",
                "--bundled",
                "line5_strong_negative_mean",
                "--out",
                str(out),
                "--set",
                "horizon=3000",
            ]
        )
        == 0
    )
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["escaped"] is True
    assert results["max_edge_distance_overall"] >= PI / 2 - 1e-9
    assert results["first_escape_step"] >= 1


def test_simulate_follows_recurrence_trial_0(tmp_path):
    # simulate samples its start where recurrence samples trial 0's and
    # steps it on trial 0's noise; on a trial that escapes, both report
    # the same excursion and the same escape step
    data = yaml.safe_load(bundled_config_path("line5_strong_negative_mean").read_text())
    data.update(initial={"mode": "sample"}, horizon=3000, trials=2)
    config = str(write_config(tmp_path, data))
    for command in ("simulate", "recurrence"):
        out = str(tmp_path / command)
        assert main([command, "--config", config, "--out", out]) == 0
    summary = (tmp_path / "simulate" / "summary.json").read_text()
    results = json.loads(summary)["results"]
    header, first, *_ = read_csv(tmp_path / "recurrence" / "trials.csv")
    trial = dict(zip(header, first))
    assert results["escaped"] is True
    assert results["max_edge_distance_overall"] == float(trial["max_excursion"])
    assert results["first_escape_step"] == int(trial["escape_time"])


def test_bounds_reproduce_published_values_with_gamma_override(tmp_path):
    out = tmp_path / "run"
    assert (
        main(
            [
                "bounds",
                "--bundled",
                "line5_zero_mean",
                "--out",
                str(out),
                "--set",
                "gamma=1.5267963267948966",
                "--set",
                "mc_samples=100000",
            ]
        )
        == 0
    )
    results = json.loads((out / "summary.json").read_text())["results"]
    assert 7.9 <= results["kappa_min"] <= 8.4
    assert 0.0038 <= results["tau_max"] <= 0.0042


def test_hypothesis_violation_maps_to_numeric_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "bounds",
            "--bundled",
            "line5_strong_negative_mean",
            "--out",
            str(out),
            "--set",
            "mc_samples=4000",
        ]
    )
    assert code == 3
    assert "strictly positive" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    data = tiny_config(tmp_path / "o", kappa=-2.0)
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "kappa" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, key",
    [("tau=inf", "tau"), ("kappa=1e400", "kappa"), ("gamma=nan", "gamma")],
)
def test_non_finite_override_is_config_error(tmp_path, capsys, override, key):
    path = write_config(tmp_path, tiny_config(tmp_path / "o"))
    assert main(["bounds", "--config", str(path), "--set", override]) == 2
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "before, after, key",
    [
        ("mean: 0.0", "mean: .inf", "noise[0]: mean"),
        ("kappa: 8.0", "kappa: 1" + "0" * 400, "kappa:"),  # int beyond float range
    ],
)
def test_non_finite_yaml_number_is_config_error(
    tmp_path, capsys, before, after, key
):
    text = yaml.safe_dump(tiny_config(tmp_path / "o"))
    assert before in text
    path = tmp_path / "exp.yaml"
    path.write_text(text.replace(before, after, 1), encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_summary_records_numeric_environment(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["spectral", "--config", str(path)]) == 0
    env = json.loads((out / "summary.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "lapack", "platform"}
    assert env["numpy"] == np.__version__
    assert all(env[key] for key in ("python", "scipy", "platform"))


def test_summary_is_written_in_one_call(tmp_path, monkeypatch):
    # json.dump wrote each token on its own, about 1 250 writes for a
    # spectral summary; the bytes are json.dumps of the report
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    writes = []
    replace = cli._replace

    def spy(target, write):
        class Handle:
            def write(self, text):
                writes.append(text)

        if target.name == "summary.json":
            write(Handle())
        replace(target, write)

    monkeypatch.setattr(cli, "_replace", spy)
    assert main(["spectral", "--config", str(path)]) == 0
    text = (out / "summary.json").read_text()
    assert writes == [text]
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    data = tiny_config(blocker / "sub")
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(path)]) == 4


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "sink, error",
    [
        ("pipe", "[Errno 32] Broken pipe"),
        ("/dev/full", "[Errno 28] No space left on device"),
    ],
)
def test_unwritable_stdout_is_io_error(tmp_path, monkeypatch, sink, error, unbuffered):
    """A stdout whose reader has gone, or that is full, fails the run with
    one line after its files are written, buffered or not; never with a
    traceback or the interpreter's "Exception ignored" at exit."""
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if sink == "pipe":
        read, stdout = os.pipe()
        os.close(read)
    elif Path(sink).exists():
        stdout = os.open(sink, os.O_WRONLY)
    else:
        pytest.skip(f"no {sink}")
    out = tmp_path / "out"
    try:
        process = cli_process(
            "bounds", "--bundled", "two_node_minimal", "--out", str(out), stdout=stdout
        )
    finally:
        os.close(stdout)
    err = process.communicate(timeout=120)[1]
    assert process.returncode == 4
    assert err == f"io error: {error}\n"
    assert (out / "summary.json").exists()


def disk_full():
    return OSError(28, "No space left on device")


@pytest.mark.parametrize("target", ["trajectory.csv", "summary.json"])
def test_failed_write_leaves_previous_file(tmp_path, capsys, monkeypatch, target):
    out = tmp_path / "run"
    argv = ["simulate", "--bundled", "line5_zero_mean", "--out", str(out)]
    assert main(argv + ["--set", "horizon=200"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    if target == "trajectory.csv":
        # chunks of 40 rows of 18 columns; fail in the fourth chunk, after
        # three have reached the temporary file
        monkeypatch.setattr(cli, "_CSV_CHUNK_CELLS", 40 * 18)
        calls = iter(range(10**6))
        fmt = cli._format

        def failing(values):
            if next(calls) == 3 * 18:
                (temporary,) = out.glob(".trajectory.csv.*.tmp")
                assert temporary.stat().st_size > 3 * 40 * 200
                raise disk_full()
            return fmt(values)

        monkeypatch.setattr(cli, "_format", failing)
    else:
        # the summary is written in one call; the disk fills during it
        real_open = open

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:20])
                self.handle.flush()
                raise disk_full()

        def failing_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if Path(path).name.startswith(".summary.json."):
                return FullDisk(handle)
            return handle

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
    # another seed and horizon: every output would differ
    assert main(argv + ["--set", "horizon=300", "--set", "seed=7"]) == 4
    assert capsys.readouterr().err.startswith("io error: [Errno 28]")
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    # the same files, no temporary one among them
    assert set(after) == set(before)
    assert after[target] == before[target]


def test_set_overrides_scalars(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_config(out))
    assert (
        main(
            [
                "simulate",
                "--config",
                str(path),
                "--set",
                "horizon=20",
                "--set",
                "output.decimation=5",
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["horizon"] == 20
    assert len(read_csv(out / "trajectory.csv")) == 1 + 5


def test_set_seed_overrides_the_config_seed(tmp_path):
    runs = {}
    for name, seed, argv in [
        ("config", 99, []), ("other", 5, []), ("set", 5, ["--set", "seed=99"])
    ]:
        data = tiny_config(tmp_path / name, seed=seed)
        path = write_config(tmp_path, data, f"{name}.yaml")
        assert main(["simulate", "--config", str(path)] + argv) == 0
        runs[name] = (tmp_path / name / "trajectory.csv").read_bytes()
    assert runs["other"] != runs["config"]
    assert runs["set"] == runs["config"]


def test_environment_does_not_change_a_run(tmp_path, monkeypatch):
    # a run's inputs are its argv and its config file: no variable in its
    # environment, such as one named for the seed, changes a byte
    argv = ["--bundled", "line5_zero_mean", "--set", "horizon=300", "--set", "trials=3"]
    csv_files = {"simulate": "trajectory.csv", "recurrence": "trials.csv"}
    monkeypatch.delenv("TREEKURAMOTO_SEED", raising=False)
    for command, csv_file in csv_files.items():
        plain, seeded = tmp_path / command / "plain", tmp_path / command / "seeded"
        assert main([command, *argv, "--out", str(plain)]) == 0
        with monkeypatch.context() as env:
            env.setenv("TREEKURAMOTO_SEED", "1234")
            assert main([command, *argv, "--out", str(seeded)]) == 0
        assert (plain / csv_file).read_bytes() == (seeded / csv_file).read_bytes()
        first, second = (
            json.loads((out / "summary.json").read_text()) for out in (plain, seeded)
        )
        for key in ("results", "provenance"):
            assert first[key] == second[key], (command, key)


def test_same_seed_reproduces_csv_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    data = tiny_config(out_a)
    path = write_config(tmp_path, data)
    assert main(["recurrence", "--config", str(path)]) == 0
    assert main(["recurrence", "--config", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()


def test_summary_echo_round_trips(tmp_path):
    # the config block of a summary is a complete record of its run: run
    # again from it, elsewhere, every command writes the same bytes and
    # results, on a line with a fixed start, on a tree with sampled
    # starts, mixed noise families and a nonzero mean, and on a config
    # that leaves out every field with a default. The echo holds every
    # field, defaults filled in, so a rerun does not depend on them.
    bare = tiny_config(
        "unused",
        noise=[
            {"family": "gaussian", "variance": 0.5},
            {"family": "none"},
            {"family": "uniform", "variance": 1.0},
        ],
    )
    del bare["drift"], bare["output"]
    n = 12
    tree = random_tree(np.random.default_rng(3), n)
    noise = [
        {"family": "gaussian", "mean": -0.5, "variance": 1.0},
        {"family": "uniform", "mean": 0.0, "variance": 2.0},
        {"family": "none"},
    ]
    tree_data = tiny_config(
        "unused",
        graph={"n": n, "edges": [list(edge) for edge in tree.edges]},
        omega=[float(i % 5) for i in range(n)],
        noise=[noise[i % 3] for i in range(n)],
        initial={"mode": "sample", "low": 0.1, "high": 1.2},
    )
    configs = {
        "line5": ["--bundled", "line5_zero_mean"],
        "tree": ["--config", str(write_config(tmp_path, tree_data, "tree.yaml"))],
        "bare": ["--config", str(write_config(tmp_path, bare, "bare.yaml"))],
    }
    sizes = ["horizon=300", "trials=3", "mc_samples=200", "drift.probes=3",
             "drift.noise_samples=100"]
    csv_files = {"simulate": "trajectory.csv", "recurrence": "trials.csv",
                 "drift": "probes.csv", "spectral": None}
    for name, source in configs.items():
        for command, csv_file in csv_files.items():
            first, second = (tmp_path / name / command / run for run in "ab")
            argv = [command, *source, "--out", str(first)]
            for size in sizes:
                argv += ["--set", size]
            assert main(argv) == 0
            echo = json.loads((first / "summary.json").read_text())["config"]
            for field in cli._FIELDS:
                section = echo[field.section] if field.section else echo
                assert field.leaf in section, (name, command, field.key)
            for node in echo["noise"]:
                assert set(node) == {"family", "mean", "variance"}
            if name == "bare":
                assert echo["gamma"] == DEFAULT_GAMMA and echo["pair_set"] == "all"
                assert echo["initial"] == {
                    "mode": "sample", "phases": None, "low": 0.0, "high": math.pi / 2
                }
                assert echo["output"]["decimation"] == 1
                assert echo["noise"][0]["mean"] == 0.0
            echo_path = write_config(first.parent, echo, "echo.yaml")
            assert main([command, "--config", str(echo_path), "--out", str(second)]) == 0
            if csv_file is not None:
                same = (first / csv_file).read_bytes() == (second / csv_file).read_bytes()
                assert same, (name, command)
            a, b = (json.loads((o / "summary.json").read_text()) for o in (first, second))
            assert a["results"] == b["results"], (name, command)


# --- CSV formatting -------------------------------------------------------------


def reference_cell(x):
    """The CSV cell of one Python or numpy scalar."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


csv_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=9e15, max_value=1.1e16),
    st.floats(min_value=-1.1e16, max_value=-9e15),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
         9007199254740993.0, math.inf, -math.inf, math.nan]
    ),
)
csv_ints = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(
    [-(2**63), 2**63 - 1, -1, 0, 1]
)


@settings(max_examples=300, deadline=None)
@given(
    floats=st.lists(csv_floats, max_size=40),
    ints=st.lists(csv_ints, max_size=40),
    bools=st.lists(st.booleans(), max_size=40),
)
def test_format_matches_reference_cells(floats, ints, bools):
    for values, dtype in ((floats, float), (ints, np.int64), (bools, bool)):
        column = np.array(values, dtype=dtype)
        assert cli._format(column) == [reference_cell(x) for x in values]


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
    )
)
def test_format_takes_2d_blocks_and_views_in_c_order(block):
    # the writer passes strided column views; a block is read row by row
    for view in (block, block.T, block[::2, ::-1]):
        assert cli._format(view) == [reference_cell(x) for x in view.ravel()]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(0, 30),
    dtypes=st.lists(
        st.sampled_from([np.float64, np.int64, np.bool_]), min_size=1, max_size=5
    ),
    chunk_cells=st.integers(1, 100),
    data=st.data(),
)
def test_write_csv_matches_csv_module(rows, dtypes, chunk_cells, data):
    columns = {
        f"c_{i}": data.draw(hnp.arrays(dtype, rows)) for i, dtype in enumerate(dtypes)
    }
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(list(columns))
    for row in zip(*columns.values()):
        writer.writerow([reference_cell(x) for x in row])
    # the table arrives in two chunks of rows, split anywhere
    split = data.draw(st.integers(0, rows))
    chunks = [{name: c[:split] for name, c in columns.items()}]
    chunks.append({name: c[split:] for name, c in columns.items()})
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        with unittest.mock.patch.object(cli, "_CSV_CHUNK_CELLS", chunk_cells):
            cli._write_csv(path, iter(chunks))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_write_csv_zero_rows_is_header_only(tmp_path):
    path = tmp_path / "table.csv"
    cli._write_csv(path, [{"step": np.arange(0), "theta_0": np.empty(0)}])
    assert path.read_bytes() == b"step,theta_0\n"


# --- fuzzing the CLI boundary ---------------------------------------------------

#: Count fields: fuzzed only with small values or values beyond 2**53,
#: so that an accepted value keeps a run short.
FUZZ_COUNTS = {
    "horizon",
    "trials",
    "mc_samples",
    "drift.probes",
    "drift.noise_samples",
}

FUZZ_KEYS = [
    "graph",
    "graph.n",
    "graph.edges",
    "omega",
    "noise",
    "noise.0",
    "noise.1.family",
    "noise.1.mean",
    "noise.1.variance",
    "variant",
    "kappa",
    "tau",
    "gamma",
    "seed",
    "pair_set",
    "initial",
    "initial.mode",
    "initial.phases",
    "initial.low",
    "initial.high",
    "drift",
    "output",
    "output.directory",
    "output.decimation",
    "colour",
    *sorted(FUZZ_COUNTS),
]

#: Relative directories only: every run works inside a temporary cwd.
FUZZ_DIRECTORIES = ["run", "a\0b", "", "sub/run"]

EXTREME_FLOATS = [5e-324, 1e-320, 1e-300, 1e308, -1e308, -0.0, math.inf, math.nan]

fuzz_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([2**53 + 1, 10**11, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EXTREME_FLOATS),
    st.sampled_from(
        ["a\0b", "", "none", "gaussian", "uniform", "explicit", "sample", "edges"]
    ),
)
fuzz_values = st.one_of(
    fuzz_scalars,
    st.lists(st.floats(-4.0, 4.0), max_size=6),
    st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6),
    st.dictionaries(
        st.sampled_from(["n", "mode", "family", "x"]), fuzz_scalars, max_size=2
    ),
)
count_values = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**53 + 1, 10**30, 2.0, "7", None, True]),
)


def fuzz_value(key):
    if key in FUZZ_COUNTS:
        return count_values
    if key == "output.directory":
        return st.sampled_from(FUZZ_DIRECTORIES)
    return fuzz_values


def fuzz_set_text(key):
    if key in FUZZ_COUNTS:
        values = st.integers(-3, 40).map(str) | st.just(str(2**53 + 1))
    elif key == "output.directory":
        values = st.sampled_from(FUZZ_DIRECTORIES)
    else:
        values = st.sampled_from(
            ["1e-320", "5e-324", "1e308", "1e400", "inf", "nan", "-0", "100000000000"]
        ) | st.integers(-3, 40).map(str) | st.text(max_size=4)
    return values.map(lambda value: f"{key}={value}")


mutations = st.lists(
    st.one_of(
        st.sampled_from(FUZZ_KEYS).map(lambda key: (key, "drop")),
        st.sampled_from(FUZZ_KEYS).flatmap(
            lambda key: fuzz_value(key).map(lambda value: (key, value))
        ),
    ),
    max_size=4,
)


def apply_mutation(data, key, value):
    *parents, leaf = [int(p) if p.isdigit() else p for p in key.split(".")]
    for part in parents:
        try:
            data = data[part]
        except (KeyError, IndexError, TypeError):
            return
    if value == "drop":
        if isinstance(data, dict):
            data.pop(leaf, None)
    elif isinstance(data, dict) or (
        isinstance(data, list) and isinstance(leaf, int) and leaf < len(data)
    ):
        data[leaf] = value


def all_finite(value):
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(["bounds", "spectral", "simulate", "recurrence", "drift"]),
    name=st.sampled_from(BUNDLED_CONFIGS),
    changes=mutations,
    top_level=st.sampled_from([None, [1, 2], "graph", 3]),
    overrides=st.lists(
        st.sampled_from(FUZZ_KEYS + ["graph.n.x"]).flatmap(fuzz_set_text),
        max_size=3,
    ),
    out=st.sampled_from([None] + FUZZ_DIRECTORIES[:2]),
)
def test_fuzzed_configs_exit_cleanly(command, name, changes, top_level, overrides, out):
    data = yaml.safe_load(bundled_config_path(name).read_text(encoding="utf-8"))
    data.update(horizon=30, trials=3, mc_samples=50)
    data["drift"] = {"probes": 2, "noise_samples": 20}
    for key, value in changes:
        apply_mutation(data, key, value)
    if top_level is not None and not changes:
        data = top_level
    argv = [command, "--config", "exp.yaml"] + [
        arg for pair in overrides for arg in ("--set", pair)
    ]
    if out is not None:
        argv += ["--out", out]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("exp.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
            stderr = io.StringIO()
            # pytest records numpy's warnings instead of printing them, so
            # a warning on the way to the one error line must fail here
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
                io.StringIO()
            ), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            summaries = list(Path(work).rglob("summary.json"))
            results = [json.loads(p.read_text())["results"] for p in summaries]
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert len(results) == 1 and all_finite(results[0])
    else:
        assert stderr.getvalue().count("error: ") == 1, stderr.getvalue()
