"""Fixed-shape kernel table: semifl's public functions called directly.

Inputs have fixed shapes and come from the workload seed.  FLOP counts are
computed from the layer shapes (GEMM multiply-adds only, 2 FLOP each), not
measured; GFLOP/s is that count over the measured time.  A single-thread
float32 ``np.matmul`` rate measured in the same process is the reference.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from semifl import checkpoint, federation, metrics, nn

ARCHS = ("cnn", "mlp")
STEP_BATCHES = (20, 200)
FORWARD_BATCHES = (20, 200, 512)
AGGREGATE_COUNTS = (10, 100)
EVAL_EXAMPLES = 1024  # >= the largest forward batch
IMAGE_SIDE = 28


def _median_ms(fn, reps: int) -> float:
    fn()  # warm-up: first call pays allocation and cold caches
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def layer_macs(model: nn.ModelParams) -> list[int]:
    """Multiply-adds per example of each layer's forward GEMM."""
    side = IMAGE_SIDE
    macs = []
    for lp in model.layers:
        w = lp.weights
        if w.ndim == 4:  # valid conv then 2x2 pool
            side -= w.shape[2] - 1
            macs.append(side * side * w.size)
            side //= 2
        else:
            macs.append(w.size)
    return macs


def step_flops(model: nn.ModelParams, batch: int) -> int:
    """Forward, weight-gradient and input-gradient GEMMs of one loss_and_grads
    call; the first layer computes no input gradient."""
    macs = layer_macs(model)
    return 2 * batch * (2 * sum(macs) + sum(macs[1:]))


def matmul_gflops(reps: int, n: int = 512) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    return 2 * n ** 3 / _median_ms(lambda: np.matmul(a, b), reps) / 1e6


def kernel_table(seed: int, work_dir: Path, reps: int) -> dict[str, tuple[float, str]]:
    """Time each public kernel: metric name -> (value, unit).  ``reps`` is the
    sample count of the costliest kernels; cheap ones get more."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, (EVAL_EXAMPLES, 1, IMAGE_SIDE, IMAGE_SIDE)
                         ).astype(np.float32)
    labels = rng.integers(0, 10, images.shape[0])
    out: dict[str, tuple[float, str]] = {}
    for arch in ARCHS:
        model = nn.init_model(arch, seed)
        cheap = reps * (10 if arch == "mlp" else 1)
        forward_ms = {}
        for b in FORWARD_BATCHES:
            forward_ms[b] = _median_ms(lambda: nn.forward(model, images[:b]),
                                       cheap * (4 if b == 20 else 1))
            out[f"nn.forward_ms.{arch}.b{b}"] = (forward_ms[b], "ms")
        for b in STEP_BATCHES:
            step = _median_ms(lambda: nn.loss_and_grads(model, images[:b], labels[:b]),
                              cheap * (4 if b == 20 else 1))
            flops = step_flops(model, b)
            out[f"nn.step_ms.{arch}.b{b}"] = (step, "ms")
            out[f"nn.backward_ms.{arch}.b{b}"] = (step - forward_ms[b], "ms")
            out[f"nn.step_mflop.{arch}.b{b}"] = (flops / 1e6, "MFLOP")
            out[f"nn.step_gflops.{arch}.b{b}"] = (flops / step / 1e6, "GFLOP/s")
        _, grads = nn.loss_and_grads(model, images[:20], labels[:20])
        out[f"nn.sgd_ms.{arch}"] = (
            _median_ms(lambda: nn.sgd_step(model, grads, 0.01), cheap * 4), "ms")
        for k in AGGREGATE_COUNTS:
            models = [nn.init_model(arch, seed + i) for i in range(k)]
            out[f"federation.aggregate_ms.{arch}.k{k}"] = (
                _median_ms(lambda: federation.aggregate_mean(models), reps), "ms")
        eval_ms = _median_ms(
            lambda: metrics.evaluate_accuracy(model, images, labels), reps)
        out[f"metrics.eval_examples_per_s.{arch}"] = (EVAL_EXAMPLES / eval_ms * 1e3,
                                                      "examples/s")

    cnn_a, cnn_b = nn.init_model("cnn", seed), nn.init_model("cnn", seed + 1)
    out["metrics.layer_divergence_ms.cnn"] = (
        _median_ms(lambda: metrics.layer_divergence(cnn_a, cnn_b), reps * 10), "ms")
    with tempfile.TemporaryDirectory(prefix="kernels-", dir=work_dir) as tmp:
        path = Path(tmp) / "cnn.sfl1"
        out["checkpoint.save_ms.cnn"] = (
            _median_ms(lambda: checkpoint.save_checkpoint(cnn_a, path), reps * 10), "ms")
        out["checkpoint.load_ms.cnn"] = (
            _median_ms(lambda: checkpoint.load_checkpoint(path), reps * 10), "ms")
    out["nn.matmul_ref_gflops"] = (matmul_gflops(reps * 4), "GFLOP/s")
    return out
