"""Benchmark workloads: seeded inputs, work counts and correctness checks.

Each workload is one ``treekuramoto`` CLI subcommand on one generated
config file. The four were chosen so that every package layer is
exercised by at least one workload and bypassed by another:

``recurrence_line5``
    The paper's five-node line (bundled ``line5_zero_mean``) with 200
    trials: a narrow batch stepped many times. Integrator and noise
    bookkeeping dominate; no linear algebra runs and the CSV is tiny.
``simulate_line5``
    The same network, one state stepped at a time at decimation 1. Bound
    by numpy dispatch per step and by CSV formatting; the only workload
    whose output and memory grow with the horizon.
``spectral_tree50``
    Monte Carlo spectrum of the random edge Laplacian on a random
    50-node tree. Bound by the eigensolver; never touches the dynamics.
``drift_tree50``
    One-step drift probes on the same tree: one step over a wide
    (noise_samples x 50) batch per probe plus the Python tree sampler.
    Uses the integrator and the noise wide-and-once where
    ``recurrence_line5`` uses them narrow-and-long.

``BENCHMARK.json`` gates the first and the third only: together they run
every module, and the host's slow speed drift needs long runs, which the
time limit for all runs allows for two workloads. The other two stay
runnable by name for claims about their layers.

Checks never compare output bytes with a stored copy, because a
reordered integrator legitimately changes the last bits; they compare
against independent recomputations and stated reference values instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

TREE_NODES = 50

#: Relative tolerance between the CLI's spectral means and the
#: eigvalsh oracle on the same draws.
SPECTRAL_RTOL = 1e-9

#: Absolute tolerance for quantities the checks recompute independently
#: from CSV values (one integrator step, drift estimates, geodesics).
RECOMPUTE_ATOL = 1e-9

#: Twice the largest initial edge distance of ``line5_zero_mean``
#: (phases -pi/5 and pi/5 on edge 3): the state never leaves the cohesive
#: set in this regime, so the largest excursion is the starting one.
LINE5_MAX_EXCURSION = 0.4 * math.pi

#: Mean of the drift function over the second half of a
#: ``simulate_line5`` trajectory, and the relative tolerance around it.
#: Measured over seeds 1-20 at horizon 20000: 0.0852 to 0.0859.
LINE5_STEADY_DRIFT_V = 0.0855
LINE5_STEADY_DRIFT_RTOL = 0.05


class CheckFailed(Exception):
    """A run's outputs are not what the program should have produced."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on one generated input.

    ``config(seed, root)`` builds the raw config mapping, ``work(config)``
    counts the units of work one run performs, and
    ``check(out_dir, results, config)`` raises :class:`CheckFailed` when a
    run's outputs are wrong. Checks run after the run, outside its timing.
    """

    name: str
    command: str
    why: str
    unit: str
    data_file: str | None
    sizes: dict
    make_config: Callable
    work: Callable
    check: Callable

    def config(self, seed: int, root: Path) -> dict:
        return self.make_config(seed, root, dict(self.sizes))


# ---------------------------------------------------------------- inputs


def line5_config(seed: int, root: Path, sizes: dict) -> dict:
    """The bundled ``line5_zero_mean`` config with the seed and sizes set."""
    path = root / "src" / "treekuramoto" / "configs" / "line5_zero_mean.yaml"
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["seed"] = int(seed)
    data.update(sizes)
    return data


def tree_config(seed: int, root: Path | None = None, sizes: dict | None = None) -> dict:
    """Random recursive tree on ``TREE_NODES`` nodes with positive
    frequencies and Gaussian disturbances, all drawn from ``seed``.

    Node ``i`` attaches to a uniformly chosen earlier node; each edge's
    orientation is a coin flip, since the model must not depend on it.
    """
    rng = np.random.default_rng([seed, TREE_NODES])
    edges = []
    for child in range(1, TREE_NODES):
        parent = int(rng.integers(child))
        edges.append([parent, child] if rng.random() < 0.5 else [child, parent])
    omega = rng.uniform(1.0, 10.0, TREE_NODES)
    variances = rng.uniform(0.5, 5.0, TREE_NODES)
    data = {
        "graph": {"n": TREE_NODES, "edges": edges},
        "omega": [float(x) for x in omega],
        "noise": [
            {"family": "gaussian", "mean": 0.0, "variance": float(v)}
            for v in variances
        ],
        "variant": "frequency_dependent",
        "kappa": 30.0,
        "tau": 0.002,
        "seed": int(seed),
    }
    data.update(sizes or {})
    return data


def write_config(data: dict, path: Path) -> None:
    path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")


# ------------------------------------------------------------- helpers


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV file the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(rows.shape[1] == len(header), f"{path.name}: ragged rows")
    require(np.all(np.isfinite(rows)), f"{path.name}: non-finite values")
    return header, rows


def columns(header: list[str], rows: np.ndarray, prefix: str) -> np.ndarray:
    idx = [i for i, name in enumerate(header) if name.startswith(prefix)]
    return rows[:, idx]


def endpoints(config: dict) -> tuple[np.ndarray, np.ndarray]:
    edges = np.array(config["graph"]["edges"], dtype=int)
    return edges[:, 0], edges[:, 1]


def geodesic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    delta = np.mod(np.abs(a - b), 2.0 * math.pi)
    return np.minimum(delta, 2.0 * math.pi - delta)


def wrapped_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * (a - b)))


def coupling_sums(config: dict, theta: np.ndarray) -> np.ndarray:
    """``S_i = sum over neighbours j of sin(theta_i - theta_j)``, from
    the edge list alone (no incidence matrix)."""
    tails, heads = endpoints(config)
    s = np.sin(theta[..., tails] - theta[..., heads])
    out = np.zeros_like(theta)
    for e in range(len(tails)):
        out[..., tails[e]] += s[..., e]
        out[..., heads[e]] -= s[..., e]
    return out


def next_theta(config: dict, theta: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """One step of the frequency-dependent model, unwrapped."""
    s = coupling_sums(config, theta)
    return theta + config["tau"] * realized * (1.0 - config["kappa"] * s)


def drift_v(config: dict, theta: np.ndarray, gamma: float) -> np.ndarray:
    tails, heads = endpoints(config)
    return math.sin(gamma) * geodesic(theta[..., tails], theta[..., heads]).sum(-1)


def noise_spec(config: dict):
    from treekuramoto.noise import NodeNoise, NoiseSpec

    return NoiseSpec(
        tuple(
            NodeNoise(e["family"], mean=float(e["mean"]), variance=float(e["variance"]))
            for e in config["noise"]
        )
    )


def draws(config: dict, stream, count: int) -> np.ndarray:
    """The program's own noise draws, so oracles see the same samples."""
    from treekuramoto.noise import sample_noise_block

    return sample_noise_block(noise_spec(config), stream, 0, count)


def digest(out_dir: Path, data_file: str | None, results: dict) -> str:
    """Hash of the data file plus the summary's results block."""
    h = hashlib.sha256(json.dumps(results, sort_keys=True).encode())
    if data_file is not None:
        h.update((out_dir / data_file).read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------ recurrence


def recurrence_check(out_dir: Path, results: dict, config: dict) -> None:
    trials = config["trials"]
    header, rows = read_csv(out_dir / "trials.csv")
    require(rows.shape[0] == trials, f"trials.csv: {rows.shape[0]} rows != {trials}")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    require(np.array_equal(col["trial"], np.arange(trials)), "trial column")
    returned = col["returned"] == 1
    require(np.array_equal(returned, col["return_time"] >= 1), "returned vs time")
    escaped = col["escaped"] == 1
    require(np.array_equal(escaped, col["escape_time"] >= 0), "escaped vs time")
    require(results["trials"] == trials, "summary trials")
    require(results["horizon"] == config["horizon"], "summary horizon")
    require(results["return_fraction"] == float(np.mean(returned)), "return_fraction")
    require(results["escaped_fraction"] == float(np.mean(escaped)), "escaped_fraction")
    # reference values of the cohesive regime, as acceptance test A05 asserts
    require(results["return_fraction"] == 1.0, "cohesive regime must return")
    require(results["escaped_fraction"] == 0.0, "cohesive regime must not escape")
    require(
        abs(results["max_excursion_overall"] - LINE5_MAX_EXCURSION) <= RECOMPUTE_ATOL,
        f"max_excursion_overall {results['max_excursion_overall']}",
    )


# -------------------------------------------------------------- simulate


def simulate_check(out_dir: Path, results: dict, config: dict) -> None:
    horizon = config["horizon"]
    header, rows = read_csv(out_dir / "trajectory.csv")
    require(rows.shape[0] == horizon + 1, f"trajectory.csv: {rows.shape[0]} rows")
    require(np.array_equal(rows[:, 0], np.arange(horizon + 1)), "step column")
    gamma = float(results["gamma"])
    theta = columns(header, rows, "theta_")
    dist = columns(header, rows, "edge_dist_")
    realized = columns(header, rows, "realized_freq_")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    tails, heads = endpoints(config)

    expect = geodesic(theta[:, tails], theta[:, heads])
    require(np.max(np.abs(dist - expect)) <= RECOMPUTE_ATOL, "edge distances")
    require(np.array_equal(col["max_edge_distance"], dist.max(1)), "max distance")
    require(
        np.max(np.abs(col["drift_v"] - drift_v(config, theta, gamma))) <= RECOMPUTE_ATOL,
        "drift_v",
    )
    require(np.array_equal(col["in_set"] == 1, dist.max(1) <= gamma), "in_set")
    step_error = wrapped_difference(
        theta[1:], next_theta(config, theta[:-1], realized[:-1])
    )
    require(np.max(np.abs(step_error)) <= RECOMPUTE_ATOL, "integrator step")

    # the disturbances have the configured means and variances
    omega = np.array(config["omega"])
    var = np.array([e["variance"] for e in config["noise"]])
    se = np.sqrt(var / len(realized))
    require(np.all(np.abs(realized.mean(0) - omega) <= 6.0 * se), "noise mean")
    require(np.all(np.abs(realized.var(0) / var - 1.0) <= 0.1), "noise variance")

    require(results["horizon"] == horizon, "summary horizon")
    require(results["in_set_fraction"] == 1.0, "cohesive regime stays in the set")
    require(results["escaped"] is False, "cohesive regime must not escape")
    require(
        abs(results["max_edge_distance_overall"] - LINE5_MAX_EXCURSION)
        <= RECOMPUTE_ATOL,
        "max_edge_distance_overall",
    )
    steady = float(col["drift_v"][horizon // 2 :].mean())
    require(
        abs(steady / LINE5_STEADY_DRIFT_V - 1.0) <= LINE5_STEADY_DRIFT_RTOL,
        f"steady-state drift_v {steady}",
    )


# -------------------------------------------------------------- spectral


def eigvalsh_means(config: dict) -> dict:
    """Extreme-eigenvalue means by ``np.linalg.eigvalsh`` on the draws the
    CLI uses, with the Laplacian built from the edge list."""
    from treekuramoto.noise import RandomStream

    n = config["graph"]["n"]
    tails, heads = endpoints(config)
    b = np.zeros((n, len(tails)))
    b[tails, np.arange(len(tails))] = 1.0
    b[heads, np.arange(len(tails))] = -1.0
    samples = config["mc_samples"]
    w = np.array(config["omega"]) + draws(
        config, RandomStream(seed=config["seed"]).child(purpose="spectral"), samples
    )
    ev = np.linalg.eigvalsh(np.einsum("ie,si,if->sef", b, w, b))
    return {
        "e_lambda_min": float(np.mean(ev[:, 0])),
        "e_lambda_max": float(np.mean(ev[:, -1])),
    }


def spectral_check(out_dir: Path, results: dict, config: dict) -> None:
    require(results["samples"] == config["mc_samples"], "summary samples")
    for key, expected in eigvalsh_means(config).items():
        got = results[key]
        require(
            abs(got - expected) <= SPECTRAL_RTOL * abs(expected),
            f"{key} {got!r} differs from eigvalsh {expected!r}",
        )
    for key in ("stderr_min", "stderr_max"):
        require(math.isfinite(results[key]) and results[key] > 0.0, key)


# ----------------------------------------------------------------- drift


def drift_check(out_dir: Path, results: dict, config: dict) -> None:
    from treekuramoto.noise import RandomStream

    probes = config["drift"]["probes"]
    samples = config["drift"]["noise_samples"]
    header, rows = read_csv(out_dir / "probes.csv")
    require(rows.shape[0] == probes, f"probes.csv: {rows.shape[0]} rows != {probes}")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    require(np.all(col["samples"] == samples), "samples column")
    gamma = float(results["gamma"])
    theta = columns(header, rows, "theta_")
    tails, heads = endpoints(config)
    dist = geodesic(theta[:, tails], theta[:, heads])
    require(
        np.all(dist >= gamma - RECOMPUTE_ATOL)
        and np.all(dist <= 0.5 * math.pi + RECOMPUTE_ATOL),
        "probe outside the gamma annulus",
    )
    omega = np.array(config["omega"])
    root = RandomStream(seed=config["seed"])
    for i in range(probes):
        noise = draws(config, root.child(trial=i).child(purpose="drift"), samples)
        v_next = drift_v(config, next_theta(config, theta[i], omega + noise), gamma)
        v_now = drift_v(config, theta[i], gamma)
        estimate = float(np.mean(v_next) - v_now)
        stderr = float(np.std(v_next, ddof=1) / math.sqrt(samples))
        require(abs(col["estimate"][i] - estimate) <= RECOMPUTE_ATOL, f"probe {i}")
        require(abs(col["stderr"][i] - stderr) <= RECOMPUTE_ATOL, f"probe {i} stderr")
    require(results["probes"] == probes, "summary probes")
    require(results["max_estimate"] == float(col["estimate"].max()), "max_estimate")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recurrence_line5",
            command="recurrence",
            why="paper's 5-node line, 200 trials: narrow batch stepped long; "
            "integrator and noise bookkeeping, no linalg, tiny CSV",
            unit="trial*steps/s",
            data_file="trials.csv",
            sizes={"horizon": 10_000, "trials": 200},
            make_config=line5_config,
            work=lambda c: c["trials"] * c["horizon"],
            check=recurrence_check,
        ),
        Workload(
            name="simulate_line5",
            command="simulate",
            why="one state stepped at a time at decimation 1: numpy dispatch "
            "per step, CSV formatting and memory that grow with the horizon",
            unit="steps/s",
            data_file="trajectory.csv",
            sizes={"horizon": 20_000},
            make_config=line5_config,
            work=lambda c: c["horizon"],
            check=simulate_check,
        ),
        Workload(
            name="spectral_tree50",
            command="spectral",
            why="random 50-node tree: edge-Laplacian eigensolves at the "
            "ROADMAP's target scale; bypasses the dynamics entirely",
            unit="samples/s",
            data_file=None,
            sizes={"mc_samples": 100},
            make_config=tree_config,
            work=lambda c: c["mc_samples"],
            check=spectral_check,
        ),
        Workload(
            name="drift_tree50",
            command="drift",
            why="same tree: one step over a wide 10000x50 batch per probe plus "
            "the Python tree sampler; dynamics and noise wide and once",
            unit="probe*draws/s",
            data_file="probes.csv",
            sizes={"drift": {"probes": 20, "noise_samples": 10_000}},
            make_config=tree_config,
            work=lambda c: c["drift"]["probes"] * c["drift"]["noise_samples"],
            check=drift_check,
        ),
    )
}
