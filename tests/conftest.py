import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treekuramoto
from treekuramoto import NetworkModel, NoiseSpec, _fork, build_tree

LINE5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]
OMEGA5 = np.array([7.0, 10.0, 1.0, 6.0, 2.0])
VARIANCES5 = np.array([3.0, 5.0, 0.5, 2.0, 1.0])
THETA0_5 = np.array(
    [math.pi / 4, math.pi / 8, -math.pi / 8, -math.pi / 5, math.pi / 5]
)


@pytest.fixture(autouse=True)
def unfreeze_the_heap():
    """``cli.main`` freezes the heap it runs in; thaw it after each test,
    so this process collects garbage as it would without the CLI and no
    test depends on which ran before it."""
    yield
    gc.unfreeze()


@pytest.fixture
def line5():
    return build_tree(5, LINE5_EDGES)


def make_line5_model(
    means=None, variant="frequency_dependent", kappa=30.0, tau=0.002
):
    """Five-oscillator line network with the reference parameters."""
    graph = build_tree(5, LINE5_EDGES)
    if means is None:
        means = np.zeros(5)
    spec = NoiseSpec.gaussian(VARIANCES5, means)
    return NetworkModel(
        graph=graph,
        omega=OMEGA5.copy(),
        noise=spec,
        kappa=kappa,
        tau=tau,
        variant=variant,
    )


def random_tree(rng, n):
    """Uniform-ish random tree: each node attaches to an earlier one."""
    edges = []
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        if rng.integers(0, 2):
            edges.append((parent, node))
        else:
            edges.append((node, parent))
    return build_tree(n, edges)


def no_children_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


def force_workers(monkeypatch, workers):
    """Make every forked map of the package split its indices into
    ``workers`` ranges, whatever the run's size and the CPU count."""
    monkeypatch.setattr(
        _fork, "worker_count", lambda items, work_bytes, min_items=1: workers
    )


def package_env():
    """This process's environment with the package's source directory first
    on ``PYTHONPATH``, for a new Python process that imports it."""
    source = str(Path(treekuramoto.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(script, *args):
    """Run ``script`` with ``args`` in a new Python process; its output is
    captured as text."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
