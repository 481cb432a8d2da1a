"""Golden digests of complete runs: any change to the computed bits shows here.

Each case is a 3-round ``run_experiment`` on ``synthetic:10x20`` with 10
single-label clients of 20 examples.  The pinned values are blake2b digests
of ``model_final.sfl1``, of ``metrics.csv`` without its wall-clock
``elapsed_ms`` column, and of ``ledger.csv``.

The runs reach CNN batches 10 and 50 only, so the kernels are also pinned at
the batch sizes perfbench runs, on fixed-seed images: the loss and every
gradient of one CNN ``loss_and_grads`` step at batch 1, 20 and 200, the
logits of one batch-512 CNN ``forward``, and one MLP step at batch 200, more
than ``nn.CONV_CHUNK`` images, which the MLP still takes in a single pass.

The runs happen in one child process with the BLAS thread variables set to 1
before numpy is imported: OpenBLAS splits a GEMM differently at another
thread count, and the rounding then differs (``cl-mlp`` changes with two
threads).  The digests were taken with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas) on its SkylakeX kernels, on CPython 3.11.  The build string
says "Haswell", but this ``DYNAMIC_ARCH`` build picks its kernels from the
CPU at run time (``blas_core`` in ``env.json``): on an AVX2-only CPU, or
under ``OPENBLAS_CORETYPE=Haswell``, the digests differ.  Another BLAS build
may round differently too, so every test here is marked ``pinned_bits``.  A
change that alters a digest on purpose must say why in CHANGES.md.

Print the digests of the current code:
``PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/test_golden.py``
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

pytestmark = pytest.mark.pinned_bits

BASE = dict(dataset="synthetic:10x20", partition="noniid", clients=10, per_client=20,
            rounds=3, local_epochs=1, local_batch=10, learning_rate=0.05, cl_batch=50,
            eval_every=2, master_seed=5)

CASES = {
    **{f"{mode}-{arch}": dict(mode=mode, arch=arch)
       for mode in ("semifl", "fl", "cl") for arch in ("mlp", "cnn")},
    "fl-mlp-sampled": dict(mode="fl", arch="mlp", client_fraction=0.3),
    "semifl-cnn-shuffled": dict(mode="semifl", arch="cnn", cluster_order="shuffled:3"),
}

# case -> (model_final.sfl1, metrics.csv minus elapsed_ms, ledger.csv)
GOLDEN = {
    "semifl-mlp": ("0a9b65615e8c5557043d49df89d1bbc7",
                   "d1177b413df6526b15a331a87f3c311e",
                   "778df4f13b518118887eea8a79a4020d"),
    "semifl-cnn": ("ece845721498b4b60f0a43661b796552",
                   "7dab0bb753e55278f7907552de4bf864",
                   "c1dc0bf0b2fa476a25939a133896e989"),
    "fl-mlp": ("b2fa6d8b436575bca4ad8a564cd88a6b",
               "4497cf9634ca4c6c6617435ddb23ed66",
               "23272d926c5a2ad1b6d10ae743056f76"),
    "fl-cnn": ("8c8b7f6cdc1b5e022c67ddbbc1a62c4a",
               "8cf904296256296fc67e791982658913",
               "6c08b36366f2a68445bf4419f72f193f"),
    "cl-mlp": ("f8191ed86df77de8fae561bb2a5c3203",
               "d0025f3edefb6dc8703437f34a538958",
               "dabdc06c5b8604418a212f6a6fdd84da"),
    "cl-cnn": ("c345ee389db7f4a4719fe00de01b03d0",
               "51544ea2fb9673c905f27654014957a1",
               "dabdc06c5b8604418a212f6a6fdd84da"),
    "fl-mlp-sampled": ("fd22c898f4f6b036f7b56fc028b4262d",
                       "6e9a411e7238d82c5e2e393d4060ee84",
                       "16d275becefa9e8d12088a77d22769f5"),
    "semifl-cnn-shuffled": ("21ad36f3212bdab722009a09d3bc96e2",
                            "6ec6be928e09fcbbae40554fb2d465ac",
                            "c1dc0bf0b2fa476a25939a133896e989"),
}

# kernel case "<arch>-<function>-b<batch>" -> digest of the loss and
# gradients, or of the logits
KERNEL_GOLDEN = {
    "cnn-loss_and_grads-b1": "0d1cb3a2825d3ef19c5678d187b91ddf",
    "cnn-loss_and_grads-b20": "9ccbfff52eee08faae93485113263452",
    "cnn-loss_and_grads-b200": "213a836bc554a65ebd7b7d6d449c0366",
    "cnn-forward-b512": "72d832c14d4643a88c3958aa9efc467e",
    "mlp-loss_and_grads-b200": "c8b934ec36e9265c571c154efea76655",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _metrics_digest(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([c for i, c in enumerate(r) if i != drop] for r in rows)
    return _digest(buf.getvalue().encode())


def run_digests(case: str, out: Path) -> list[str]:
    from semifl import experiment
    from semifl.config import ExperimentConfig
    experiment.run_experiment(ExperimentConfig(**BASE, **CASES[case]), out)
    return [_digest((out / "model_final.sfl1").read_bytes()),
            _metrics_digest(out / "metrics.csv"),
            _digest((out / "ledger.csv").read_bytes())]


def kernel_digest(case: str) -> str:
    import numpy as np
    from semifl import nn
    kind, batch = case.rsplit("-b", 1)
    arch, kind = kind.split("-", 1)
    rng = np.random.default_rng(int(batch))
    images = rng.random((int(batch), 1, 28, 28), dtype=np.float32)
    model = nn.init_model(arch, 3)
    if kind == "forward":
        return _digest(nn.forward(model, images).tobytes())
    loss, grads = nn.loss_and_grads(model, images, rng.integers(0, 10, int(batch)))
    return _digest(b"".join([np.float64(loss).tobytes()] + [
        a.tobytes() for lp in grads.layers for a in (lp.weights, lp.bias)]))


@pytest.fixture(scope="module")
def digests():
    env = {**os.environ, **{v: "1" for v in THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, digests):
    assert tuple(digests[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KERNEL_GOLDEN))
def test_kernel_digests(case, digests):
    assert digests[case] == KERNEL_GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({**{name: run_digests(name, Path(tmp) / name) for name in CASES},
                          **{case: kernel_digest(case) for case in KERNEL_GOLDEN}}))
