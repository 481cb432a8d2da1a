"""Shared fixtures and helpers."""

import gzip
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semifl import data, experiment, nn
from semifl.config import ExperimentConfig
from semifl.errors import DataError

ROOT = Path(__file__).resolve().parent.parent


def models_equal(a, b) -> bool:
    """Bit-exact parameter equality."""
    return (a.arch == b.arch and len(a.layers) == len(b.layers) and all(
        la.name == lb.name
        and np.array_equal(la.weights, lb.weights)
        and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)))


def _drawn(arch: str, seed: int, shapes: dict):
    """An ``arch`` model of ``shapes``' layers (name -> weight shape), drawn as
    ``nn.init_model`` draws."""
    blank = nn.pack(arch, [nn.LayerParams(name, np.zeros(shape, np.float32),
                                          np.zeros(shape[:1], np.float32))
                           for name, shape in shapes.items()])
    return nn._draw_weights(blank, np.random.default_rng(seed))


def small_mlp(seed: int, in_dim: int, hidden: int):
    """An mlp with ``in_dim`` inputs and ``hidden`` units, drawn as ``nn.init_model`` draws."""
    return _drawn("mlp", seed, {"fc1": (hidden, in_dim), "fc2": (data.NUM_CLASSES, hidden)})


def small_cnn(seed: int, conv1: int, conv2: int, hidden: int, image_size: int):
    """A cnn of ``conv1`` and ``conv2`` maps and ``hidden`` fc3 units for
    ``image_size`` x ``image_size`` images, drawn as ``nn.init_model`` draws."""
    side = ((image_size - 4) // 2 - 4) // 2  # two valid 5x5 convs, two 2x2 pools
    return _drawn("cnn", seed, {"conv1": (conv1, 1, 5, 5), "conv2": (conv2, conv1, 5, 5),
                                "fc3": (hidden, conv2 * side * side),
                                "fc4": (data.NUM_CLASSES, hidden)})


# exact only on OpenBLAS's SkylakeX kernel, where a GEMM element's bits do not
# depend on the operand shape; keyed on the kernel this process runs
_BLAS_CORE = experiment._environment()["blas_core"]
skylakex_only = pytest.mark.skipif(_BLAS_CORE != "SkylakeX",
                                   reason=f"SkylakeX bits; this process runs {_BLAS_CORE}")


# BLAS thread counts and a kernel other than the one picked for this CPU,
# each to be set in a child process through run_child
other_blas_settings = pytest.mark.parametrize("blas_env", [
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["threads1", "threads2", "haswell"])


def run_python(*args, env_vars=None, cwd=None) -> subprocess.CompletedProcess:
    """The finished ``python *args`` process, with ``src`` on its path and ``env_vars`` set.

    BLAS reads its thread and kernel variables when it loads, so only a new
    process shows their effect.
    """
    env = {**os.environ, **(env_vars or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def run_child(code: str, env_vars: dict) -> str:
    """stdout of ``python -c code``, run in the tests directory; it must exit 0."""
    proc = run_python("-c", code, env_vars=env_vars, cwd=ROOT / "tests")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def idx_images_bytes(pixels: np.ndarray) -> bytes:
    """An IDX image file of a uint8 (N, rows, cols) array."""
    return struct.pack(">IIII", 0x803, *pixels.shape) + pixels.tobytes()


def idx_labels_bytes(labels) -> bytes:
    return struct.pack(">II", 0x801, len(labels)) + bytes(labels)


def write_mnist_dir(root: Path, side: int = 28, n_train: int = 100, n_test: int = 20) -> Path:
    """Random ``side`` x ``side`` IDX files under both spellings of the MNIST
    names, gzipped or not, in a new directory ``root``."""
    root.mkdir()
    rng = np.random.default_rng(0)
    for images, labels, n in (("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte", n_train),
                              ("t10k-images.idx3-ubyte", "t10k-labels.idx1-ubyte.gz", n_test)):
        pixels = rng.integers(0, 256, (n, side, side), dtype=np.uint8)
        for name, blob in ((images, idx_images_bytes(pixels)),
                           (labels, idx_labels_bytes([i % 10 for i in range(n)]))):
            (root / name).write_bytes(gzip.compress(blob) if name.endswith(".gz") else blob)
    return root


def images_of(shard) -> np.ndarray:
    """A copy of a :class:`data.Shard`'s images, gathered from its source."""
    return shard.source.images[shard.rows]


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


@pytest.fixture(scope="session")
def mnist_dir():
    """The first MNIST IDX directory that loads, ``$SEMIFL_DATA_DIR`` before
    ``./data``; skip with each candidate's error when none does."""
    errors = []
    for root in filter(None, [os.environ.get("SEMIFL_DATA_DIR"),
                              str(ROOT / "data")]):
        try:
            for split in ("train", "test"):
                experiment.load_mnist(ExperimentConfig(data_dir=root), split)
        except DataError as exc:
            errors.append(str(exc))
        else:
            return root
    pytest.skip("MNIST not loaded; place the IDX files under ./data or set "
                "SEMIFL_DATA_DIR: " + "; ".join(errors))
