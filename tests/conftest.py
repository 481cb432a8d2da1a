"""Shared fixtures and helpers."""

import os
from pathlib import Path

import numpy as np
import pytest

from semifl import data, experiment
from semifl.config import ExperimentConfig
from semifl.errors import DataError


def models_equal(a, b) -> bool:
    """Bit-exact parameter equality."""
    return (a.arch == b.arch and len(a.layers) == len(b.layers) and all(
        la.name == lb.name
        and np.array_equal(la.weights, lb.weights)
        and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)))


def max_param_diff(a, b) -> float:
    return max(
        max(np.abs(la.weights - lb.weights).max(), np.abs(la.bias - lb.bias).max())
        for la, lb in zip(a.layers, b.layers))


@pytest.fixture(scope="session")
def synth_10x12():
    """120 easy examples: 10 classes x 12, enough for 10 single-label clients."""
    return data.generate_synthetic(10, 12, seed=42)


@pytest.fixture(scope="session")
def clients_100():
    """100 single-label synthetic clients (10 per label), 12 examples each."""
    source = data.generate_synthetic(10, 120, seed=7)
    return data.partition_noniid_shards(source, num_clients=100, per_client=12)


def _mnist_dir() -> str | None:
    candidates = []
    env = os.environ.get("SEMIFL_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        if (root / "train-images-idx3-ubyte").exists() or \
                (root / "train-images-idx3-ubyte.gz").exists():
            return str(root)
    return None


@pytest.fixture(scope="session")
def mnist_sets():
    """(train, test) LabeledSets, or skip when the IDX files are not available."""
    root = _mnist_dir()
    if root is None:
        pytest.skip("MNIST IDX files not found; place them under ./data or "
                    "set SEMIFL_DATA_DIR")
    cfg = ExperimentConfig(data_dir=root)
    try:
        return experiment.load_mnist(cfg)
    except DataError as exc:
        pytest.skip(f"MNIST unreadable: {exc}")
