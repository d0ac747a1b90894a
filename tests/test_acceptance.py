"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they are produced. Every tolerance is pinned here; two checks
document measured model behavior that deviates from the reference
values they are compared against (see the assertion messages) and fail
accordingly rather than being loosened.
"""

import math
import timeit

import numpy as np
import pytest
from scipy.integrate import quad

from treekuramoto import (
    NoiseSpec,
    RandomStream,
    SpectralStats,
    bounds,
    build_tree,
    drift_sweep,
    e_max_delta_omega,
    edge_box_sampler,
    fixed_initial,
    folded_normal_mean,
    mc_spectral_stats,
    recurrence_experiment,
    weighted_edge_laplacian,
    wrap_angle,
)
from treekuramoto.cli import main
from treekuramoto.dynamics import PhaseState, step
from treekuramoto.linalg import batch_eigenvalues

from conftest import LINE5_EDGES, OMEGA5, THETA0_5, VARIANCES5, make_line5_model

PI = math.pi
GAMMA_DEFAULT = PI / 2 - 0.05


def verdict(tag, description, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] {tag} {description}"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line)
    if failures:
        pytest.fail(f"{tag}: " + "; ".join(failures))


def line5_spec(n3_mean=0.0):
    means = np.array([0.0, 0.0, n3_mean, 0.0, 0.0])
    return NoiseSpec.gaussian(VARIANCES5, means)


def test_a01_noise_free_extreme_eigenvalues():
    failures = []
    g = build_tree(5, LINE5_EDGES)

    def compute():
        ev = batch_eigenvalues(weighted_edge_laplacian(g, OMEGA5))
        return ev[0], ev[-1]

    lo, hi = compute()
    if abs(lo - 1.31) > 0.01:
        failures.append(f"lambda_min {lo:.4f} not within 0.01 of 1.31")
    if abs(hi - 24.46) > 0.01:
        failures.append(f"lambda_max {hi:.4f} not within 0.01 of 24.46")
    if compute() != (lo, hi):
        failures.append("repeated evaluation is not bit-identical")
    # runtime qualifiers are reported, not asserted (load-dependent)
    best = min(timeit.timeit(compute, number=1) for _ in range(50))
    verdict(
        "A01",
        f"deterministic extremes ({lo:.4f}, {hi:.4f}) in {best * 1e3:.2f} ms",
        failures,
    )


def test_a02_stochastic_spectral_expectations():
    # Reference pairs for disturbance means 0, -1.6 and -3 on node 2.
    references = {0.0: (1.19, 25.35), -1.6: (0.34, 24.05), -3.0: (-1.17, 23.669)}
    g = build_tree(5, LINE5_EDGES)
    failures = []
    summaries = []
    for n3_mean, (ref_lo, ref_hi) in references.items():
        stats = mc_spectral_stats(
            g,
            OMEGA5,
            line5_spec(n3_mean),
            n_samples=100_000,
            stream=RandomStream(seed=716253),
        )
        tol_lo = max(4 * stats.stderr_min, 0.05)
        tol_hi = max(4 * stats.stderr_max, 0.05)
        summaries.append(
            f"mean3={n3_mean}: ({stats.e_lambda_min:.3f}, {stats.e_lambda_max:.3f})"
        )
        if abs(stats.e_lambda_min - ref_lo) > tol_lo:
            failures.append(
                f"mean3={n3_mean}: E[lambda_min]={stats.e_lambda_min:.4f} vs "
                f"reference {ref_lo} (tol {tol_lo:.4f})"
            )
        if abs(stats.e_lambda_max - ref_hi) > tol_hi:
            failures.append(
                f"mean3={n3_mean}: E[lambda_max]={stats.e_lambda_max:.4f} vs "
                f"reference {ref_hi} (tol {tol_hi:.4f})"
            )
    verdict("A02", "; ".join(summaries), failures)


def test_a03_coupling_and_sampling_bounds():
    failures = []
    gap = e_max_delta_omega(OMEGA5, line5_spec(0.0), pairs="all")
    stats = SpectralStats(1.197, 25.35, 0.0, 0.0, 100_000)
    bound = bounds(stats, gap.value, PI / 2 - 0.044, tau=0.002, kappa=30.0)
    if not 7.9 <= bound.kappa_min <= 8.4:
        failures.append(f"kappa_min {bound.kappa_min:.4f} outside [7.9, 8.4]")
    if not 0.0038 <= bound.tau_max <= 0.0042:
        failures.append(f"tau_max {bound.tau_max:.6f} outside [0.0038, 0.0042]")
    verdict(
        "A03",
        f"kappa_min={bound.kappa_min:.3f}, tau_max={bound.tau_max:.5f} "
        f"(gap {gap.value:.4f}, gamma=pi/2-0.044)",
        failures,
    )


def test_a04_two_node_bound_product():
    failures = []
    g = build_tree(2, [(0, 1)])
    unit = mc_spectral_stats(g, np.ones(2), NoiseSpec.none(2))
    bound = bounds(unit, 0.0, PI / 2 - 1e-6, tau=0.01)
    product = bound.kappa_min * bound.tau_max
    if abs(product - PI / 2) > 1e-4:
        failures.append(f"kappa_min*tau_max = {product:.8f}, pi/2 off by > 1e-4")
    verdict("A04", f"kappa_min*tau_max = {product:.8f} vs pi/2", failures)


def test_a05_cohesive_regime_recurrence():
    failures = []
    model = make_line5_model()
    stats = recurrence_experiment(
        model,
        edge_box_sampler(),
        GAMMA_DEFAULT,
        trials=200,
        horizon=100_000,
        stream=RandomStream(seed=502),
    )
    if stats.return_fraction != 1.0:
        failures.append(f"return_fraction {stats.return_fraction} != 1.0")
    if stats.escaped_fraction != 0.0:
        failures.append(f"escaped_fraction {stats.escaped_fraction} != 0.0")
    verdict(
        "A05",
        f"zero-mean: returns {stats.return_fraction:.3f}, escapes "
        f"{stats.escaped_fraction:.3f}, max excursion {stats.max_excursion.max():.4f}",
        failures,
    )


def test_a06_shifted_mean_recurrence():
    failures = []
    model = make_line5_model(means=np.array([0.0, 0.0, -1.6, 0.0, 0.0]))
    stats = recurrence_experiment(
        model,
        edge_box_sampler(),
        GAMMA_DEFAULT,
        trials=200,
        horizon=100_000,
        stream=RandomStream(seed=601),
    )
    if stats.return_fraction != 1.0:
        failures.append(f"return_fraction {stats.return_fraction} != 1.0")
    verdict(
        "A06",
        f"shifted mean -1.6: returns {stats.return_fraction:.3f}",
        failures,
    )


def test_a07_failure_regime_escapes():
    failures = []
    model = make_line5_model(means=np.array([0.0, 0.0, -3.0, 0.0, 0.0]))
    stats = recurrence_experiment(
        model,
        fixed_initial(THETA0_5),
        GAMMA_DEFAULT,
        trials=100,
        horizon=100_000,
        stream=RandomStream(seed=701),
    )
    if stats.escaped_fraction < 0.95:
        failures.append(f"escaped_fraction {stats.escaped_fraction} < 0.95")
    verdict(
        "A07",
        f"strong negative mean: escapes {stats.escaped_fraction:.2f} of runs",
        failures,
    )


def test_a08_drift_sign_probes():
    failures = []
    model = make_line5_model()
    sweep = drift_sweep(
        model, GAMMA_DEFAULT, 100, 10_000, RandomStream(seed=801)
    )
    upper = np.array([e.estimate + 3.0 * e.stderr for e in sweep])
    if not np.all(upper < 0.0):
        failures.append(
            f"zero-mean: {int(np.sum(upper >= 0))} probe(s) not confidently negative"
        )
    model_bad = make_line5_model(means=np.array([0.0, 0.0, -3.0, 0.0, 0.0]))
    sweep_bad = drift_sweep(
        model_bad, GAMMA_DEFAULT, 100, 10_000, RandomStream(seed=802)
    )
    upper_bad = np.array([e.estimate + 3.0 * e.stderr for e in sweep_bad])
    if not np.any(upper_bad >= 0.0):
        failures.append(
            "shifted mean -3: no probe with all edge distances in "
            f"[gamma, pi/2) is non-negative at 3-stderr (largest "
            f"estimate+3se = {upper_bad.max():.4f}; the measured drift on "
            "that region is strictly negative, positive drift appears only "
            "at states with a mix of small and large edge distances)"
        )
    verdict(
        "A08",
        f"drift probes: zero-mean worst {upper.max():.3f}, "
        f"shifted-mean best {upper_bad.max():.3f} (both estimate+3se)",
        failures,
    )


def test_a09_numerical_core_properties():
    failures = []

    # eigensolver invariants on 1000 random symmetric matrices
    rng = np.random.default_rng(910)
    for i in range(1000):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d))
        a = a + a.T
        ev = batch_eigenvalues(a)
        if abs(np.trace(a) - ev.sum()) > 1e-9 * d * np.max(np.abs(a)):
            failures.append(f"trace mismatch at matrix {i}")
            break
        det = np.linalg.det(a)
        if not math.isclose(float(np.prod(ev)), det, rel_tol=1e-6, abs_tol=1e-12):
            failures.append(f"determinant mismatch at matrix {i}")
            break
        radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        centers = np.diag(a)
        if not all(
            np.any(np.abs(lam - centers) <= radii + 1e-9) for lam in ev
        ):
            failures.append(f"Gershgorin violation at matrix {i}")
            break

    # folded-normal closed form against quadrature on a 50-point grid
    rng = np.random.default_rng(911)
    for _ in range(50):
        m = float(rng.uniform(-8.0, 8.0))
        s2 = float(rng.uniform(0.05, 9.0))
        s = math.sqrt(s2)
        target, _ = quad(
            lambda x: abs(x)
            * math.exp(-((x - m) ** 2) / (2 * s2))
            / (s * math.sqrt(2 * PI)),
            m - 12 * s,
            m + 12 * s,
            limit=200,
        )
        if abs(folded_normal_mean(m, s2) - target) > 1e-6:
            failures.append(f"folded normal off at (m={m:.3f}, s2={s2:.3f})")
            break

    # rotation and orientation invariance of one step
    rng = np.random.default_rng(912)
    model = make_line5_model()
    flipped = make_line5_model()
    flipped_graph = build_tree(5, [(1, 0), (1, 2), (3, 2), (3, 4)])
    from treekuramoto import NetworkModel

    flipped = NetworkModel(
        flipped_graph, OMEGA5, model.noise, model.kappa, model.tau, model.variant
    )
    for _ in range(50):
        theta = rng.uniform(-PI, PI, 5)
        draw = rng.normal(size=5)
        shift = float(rng.uniform(-3, 3))
        base = step(model, PhaseState(theta), draw).theta
        rotated = step(model, PhaseState(wrap_angle(theta + shift)), draw).theta
        tails, heads = model.graph.tails, model.graph.heads
        base_rel = wrap_angle(base[tails] - base[heads])
        rot_rel = wrap_angle(rotated[tails] - rotated[heads])
        if not np.allclose(base_rel, rot_rel, atol=1e-12):
            failures.append("rotation invariance broken")
            break
        if not np.allclose(
            step(model, PhaseState(theta), draw).theta,
            step(flipped, PhaseState(theta), draw).theta,
            atol=1e-12,
        ):
            failures.append("orientation invariance broken")
            break

    verdict(
        "A09",
        "eigensolver trace/det/Gershgorin, folded-normal quadrature, "
        "rotation/orientation invariance",
        failures,
    )


def test_a10_bundled_configs_reproduce_bytes(tmp_path):
    failures = []
    runs = [
        ("simulate", "two_node_minimal", "trajectory.csv"),
        ("recurrence", "two_node_minimal", "trials.csv"),
        ("simulate", "line5_zero_mean", "trajectory.csv"),
        ("drift", "line5_zero_mean", "probes.csv"),
    ]
    for command, bundle, data_file in runs:
        out_a = tmp_path / f"{command}_{bundle}_a"
        out_b = tmp_path / f"{command}_{bundle}_b"
        for out in (out_a, out_b):
            code = main([command, "--bundled", bundle, "--out", str(out)])
            if code != 0:
                failures.append(f"{command} on {bundle} exited {code}")
        if failures:
            break
        if (out_a / data_file).read_bytes() != (out_b / data_file).read_bytes():
            failures.append(f"{command} on {bundle}: {data_file} differs between runs")
    verdict("A10", "bundled configs rerun to byte-identical CSV output", failures)
