"""Golden digests of complete runs: any change to the computed bits shows here.

Each case is a 3-round ``run_experiment`` on ``synthetic:10x20`` with 10
single-label clients of 20 examples.  The pinned values are blake2b digests
of ``model_final.sfl1`` and of ``metrics.csv`` without its wall-clock
``elapsed_ms`` column.

The runs reach CNN batches 10 and 50 only, so the kernels are also pinned at
the batch sizes perfbench runs, on fixed-seed images: the loss and every
gradient of one CNN ``loss_and_grads`` step at batch 1, 20 and 200, the
logits of one batch-512 CNN ``forward``, and one MLP step at batch 200, more
than ``nn.CONV_CHUNK`` images, which the MLP still takes in a single pass.

The runs happen in one child process with the BLAS thread variables set to 1
and ``OPENBLAS_CORETYPE=Haswell`` before numpy is imported.  OpenBLAS splits
a GEMM differently at another thread count, and the rounding then differs
(``cl-mlp`` changes with two threads).  Each kernel rounds its own way too,
and a ``DYNAMIC_ARCH`` build picks its kernel from the CPU at run time
(``blas_core`` in ``env.json``), so the child forces the AVX2 (Haswell)
kernel, which any AVX2 x86-64 CPU runs, with AVX-512 or without.  The child
reports the kernel it ran, and the tests stop with its name unless it is
Haswell: a BLAS build that ignores ``OPENBLAS_CORETYPE``, or a host other
than x86-64, cannot check these digests.  They were taken with numpy 2.4.6
and OpenBLAS 0.3.31 (scipy-openblas) on CPython 3.11.  A change that alters
a digest on purpose must say why in CHANGES.md.

Print the digests of the current code:
``OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_golden.py``
"""

import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from semifl import experiment, nn
from semifl.config import ExperimentConfig
from conftest import run_child

BASE = dict(dataset="synthetic:10x20", partition="noniid", clients=10, per_client=20,
            rounds=3, local_epochs=1, local_batch=10, learning_rate=0.05, cl_batch=50,
            eval_every=2, master_seed=5)

CASES = {
    **{f"{mode}-{arch}": dict(mode=mode, arch=arch)
       for mode in ("semifl", "fl", "cl") for arch in ("mlp", "cnn")},
    "fl-mlp-sampled": dict(mode="fl", arch="mlp", client_fraction=0.3),
    "semifl-cnn-shuffled": dict(mode="semifl", arch="cnn", cluster_order="shuffled:3"),
}

# case -> (model_final.sfl1, metrics.csv minus elapsed_ms)
GOLDEN = {
    "semifl-mlp": ("04afc2f62b826a2588320e841d0d911e",
                   "59b1cbeb4ebd34947dfad910fe197172"),
    "semifl-cnn": ("02a529883d3ff8ed61b96bf96b115447",
                   "56d9a5a7b53085212328f484253fa0ec"),
    "fl-mlp": ("976aa88df98499273853b12054fb21d6",
               "7987afbd7fb4e775217091eb94b8be67"),
    "fl-cnn": ("36cfa749443c3d8d20c3c30a701c333c",
               "4d6133a4d1b5da134090fe05d8739bf7"),
    "cl-mlp": ("48873b51b76aa3940e5a3b048dbea57b",
               "814c68151b7712f1f76ed5026fd40963"),
    "cl-cnn": ("509ede5ebbd5be6cce322e692e9abc2f",
               "3c761171bfc0cab441dd31272cd69f08"),
    "fl-mlp-sampled": ("44d16abacf97e5e6b55983774c176779",
                       "44cdd74f8f6f7833257c8bb3dc320c6a"),
    "semifl-cnn-shuffled": ("60cc5ae44ba207e6a5ef2c56af824123",
                            "38f34b2c8f0052041447d36d4effd134"),
}

# kernel case "<arch>-<function>-b<batch>" -> digest of the loss and
# gradients, or of the logits
KERNEL_GOLDEN = {
    "cnn-loss_and_grads-b1": "8be410c0633125bb53c863f45071ac72",
    "cnn-loss_and_grads-b20": "15470ce181de7fde7232a064d06843bd",
    "cnn-loss_and_grads-b200": "790cc3dacbe7bf818c9189219efb8ee5",
    "cnn-forward-b512": "3051856bc94298cfd4e0a47237ebea56",
    "mlp-loss_and_grads-b200": "7f3c529c39b467a8f0bee0aa4f1a3882",
}

# the BLAS kernel and thread count the digests hold under, set in the child
CHILD_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


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
    experiment.run_experiment(ExperimentConfig(**BASE, **CASES[case]), out)
    return [_digest((out / "model_final.sfl1").read_bytes()),
            _metrics_digest(out / "metrics.csv")]


def kernel_digest(case: str) -> str:
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


def all_digests() -> dict:
    """Every run and kernel digest, and the BLAS kernel they were taken on."""
    with tempfile.TemporaryDirectory() as tmp:
        return {**{name: run_digests(name, Path(tmp) / name) for name in CASES},
                **{case: kernel_digest(case) for case in KERNEL_GOLDEN},
                "blas_core": experiment._environment()["blas_core"]}


@pytest.fixture(scope="module")
def digests():
    code = "import json, test_golden as t; print(json.dumps(t.all_digests()))"
    out = json.loads(run_child(code, CHILD_ENV))
    assert out["blas_core"] == "Haswell", \
        f"the digests hold on OpenBLAS's Haswell kernel; the child ran {out['blas_core']}"
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, digests):
    assert tuple(digests[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KERNEL_GOLDEN))
def test_kernel_digests(case, digests):
    assert digests[case] == KERNEL_GOLDEN[case]


if __name__ == "__main__":
    print(json.dumps(all_digests()))
