"""Benchmark workloads and the arithmetic their configurations imply.

Each workload is a set of ``ExperimentConfig`` fields; the workload seed
becomes ``master_seed`` and fills any ``{seed}`` in a string setting, so
the same seed always yields the same data, partition, initial model and
training streams.  This module imports nothing from semifl or numpy: the
parent process uses it before any measuring process starts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

SCALES = ("full", "smoke")

# Every key the arithmetic below reads is set here, so no semifl default is
# assumed.  All data is synthetic because MNIST is not part of the repository.
# Accuracy floors sit well above chance (0.1) and well below the lowest final
# accuracy seen (semifl_cnn_c3 0.80 over 20 seeds, fedavg_mlp_full 0.967 over
# 40, cl_cnn_eval 0.994 over 30): they catch training that broke, not a slow seed.
_BASE = {
    "partition": "noniid",
    "pattern": "c3",
    "cluster_order": "fixed",
    "local_epochs": 1,
    "local_batch": 20,
    "client_fraction": 1.0,
    "cl_batch": 200,
    "checkpoint_every": 0,
}


@dataclass(frozen=True)
class Workload:
    why: str
    settings: dict
    smoke: dict  # overrides for tiny sizes
    accuracy_floor: float


WORKLOADS = {
    # The paper's headline setup.  Shuffled in-cluster order lets the 10-head
    # average converge within 8 rounds on nearly every seed; with the fixed
    # label order every head ends on label 9 and accuracy stays far lower.
    "semifl_cnn_c3": Workload(
        why="paper headline: semifl c3 chains of batch-20 CNN steps over 100 "
            "clients; nn.loss_and_grads dominates, so CNN kernel work shows here",
        settings={"mode": "semifl", "arch": "cnn", "dataset": "synthetic:10x200",
                  "clients": 100, "per_client": 20, "local_epochs": 2,
                  "learning_rate": 0.1, "rounds": 8, "eval_every": 8,
                  "cluster_order": "shuffled:{seed}"},
        smoke={"dataset": "synthetic:10x20", "clients": 10, "rounds": 1,
               "eval_every": 1},
        accuracy_floor=0.3,
    ),
    # 100 uploads per round of a 50k-parameter MLP: per-step and per-round
    # Python overhead, aggregation and the evaluation cadence dominate.
    "fedavg_mlp_full": Workload(
        why="FedAvg MLP, all 100 clients per round, 2 steps each, eval every "
            "round: per-step and per-round overhead and aggregation dominate",
        settings={"mode": "fl", "arch": "mlp", "dataset": "synthetic:10x400",
                  "clients": 100, "per_client": 40, "learning_rate": 0.05,
                  "rounds": 30, "eval_every": 1},
        smoke={"dataset": "synthetic:10x20", "clients": 10, "per_client": 20,
               "rounds": 2},
        accuracy_floor=0.5,
    ),
    # A pool of 3000 against a test set of 800 keeps evaluation at >= 10% of
    # the run while batch-200 steps stay the largest share.
    "cl_cnn_eval": Workload(
        why="pooled SGD at batch 200 plus forward-only evaluation and a "
            "checkpoint every round: GEMM-heavy CNN steps and batch-512 forward",
        settings={"mode": "cl", "arch": "cnn", "dataset": "synthetic:10x320",
                  "clients": 30, "per_client": 100, "learning_rate": 0.3,
                  "rounds": 3, "eval_every": 1, "checkpoint_every": 1},
        smoke={"dataset": "synthetic:10x40", "clients": 10, "per_client": 20,
               "cl_batch": 100, "rounds": 2},
        accuracy_floor=0.5,
    ),
}


def config_fields(name: str, seed: int, scale: str = "full") -> dict:
    """The ExperimentConfig fields for one workload at one seed."""
    wl = WORKLOADS[name]
    fields = {**_BASE, **wl.settings}
    if scale == "smoke":
        fields.update(wl.smoke)
    fields = {k: v.format(seed=seed) if isinstance(v, str) else v for k, v in fields.items()}
    fields["master_seed"] = seed
    return fields


def accuracy_floor(name: str, scale: str) -> float:
    """Lowest acceptable final accuracy; tiny smoke runs are not expected to learn."""
    return WORKLOADS[name].accuracy_floor if scale == "full" else 0.0


def _synthetic_shape(fields: dict) -> tuple[int, int]:
    m = re.fullmatch(r"synthetic:(\d+)x(\d+)", fields["dataset"])
    if not m:
        raise ValueError(f"benchmark workloads use synthetic data, got {fields['dataset']!r}")
    return int(m.group(1)), int(m.group(2))


def _participants(fields: dict) -> int:
    if fields["mode"] == "fl":
        return max(1, round(fields["client_fraction"] * fields["clients"]))
    return fields["clients"]


def sgd_examples(fields: dict) -> int:
    """Examples processed by SGD in one run: rounds x participants x per_client x
    epochs, or rounds x pooled examples for cl."""
    if fields["mode"] == "cl":
        return fields["rounds"] * fields["clients"] * fields["per_client"]
    return (fields["rounds"] * _participants(fields) * fields["per_client"]
            * fields["local_epochs"])


def expected_calls(fields: dict) -> dict[str, int]:
    """Calls per traced span name (and aggregated model count) for one run."""
    rounds, clients, mode = fields["rounds"], fields["clients"], fields["mode"]
    classes, per_class = _synthetic_shape(fields)
    test_size = classes * max(10, per_class // 4)  # as experiment.load_datasets
    evals = sum(1 for t in range(1, rounds + 1)
                if t % fields["eval_every"] == 0 or t == rounds)
    every = fields["checkpoint_every"]
    calls = {
        "experiment.run_experiment": 1,
        "data.generate_synthetic": 2,
        "data.partition": 1,
        "clustering.build_pattern": 1 if mode == "semifl" else 0,
        "federation.pool_clients": 1 if mode == "cl" else 0,
        "nn.init_model": 1,
        "checkpoint.checkpoint_bytes": 1,
        "federation.round": rounds,
        "metrics.evaluate_accuracy": evals,
        "nn.forward": evals * math.ceil(test_size / 512),
        "checkpoint.save_checkpoint": (rounds // every if every else 0) + 1,
    }
    if mode == "cl":
        steps = rounds * math.ceil(clients * fields["per_client"] / fields["cl_batch"])
        calls.update({"nn.train_local": rounds, "federation.stream": rounds,
                      "federation.aggregate_mean": 0,
                      "federation.aggregate_mean.models": 0})
    else:
        part = _participants(fields)
        steps = (rounds * part * math.ceil(fields["per_client"] / fields["local_batch"])
                 * fields["local_epochs"])
        sampled = mode == "fl" and part < clients  # one sampler stream per round
        heads = clients // 10 if mode == "semifl" else part
        calls.update({"nn.train_local": rounds * part,
                      "federation.stream": rounds * (part + sampled),
                      "federation.aggregate_mean": rounds,
                      "federation.aggregate_mean.models": rounds * heads})
    calls["nn.loss_and_grads"] = steps
    calls["nn.sgd_step"] = steps
    return calls
