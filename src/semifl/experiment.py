"""End-to-end experiment orchestration.

``run_experiment`` takes a resolved :class:`ExperimentConfig` plus an output
directory and produces:

* ``config.resolved`` -- the full configuration echoed back (re-parseable)
* ``env.json``        -- Python, numpy and BLAS versions and the BLAS thread
  variables (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``)
* ``metrics.csv``     -- one row per evaluation round
* ``ledger.csv``      -- per-round communication accounting, appended per round
* ``model_final.sfl1`` (and optional periodic checkpoints)

Two runs with the same configuration produce identical outputs apart from
the ``elapsed_ms`` column, provided they use the same numpy and BLAS build at
the same BLAS thread count (all recorded in ``env.json``): BLAS splits a GEMM
differently at another thread count, and the rounding then differs.
"""

from __future__ import annotations

import csv
import os
import platform
from pathlib import Path

import numpy as np

from . import clustering, federation
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, render_config, resolve_data_dir, validate_config
from .data import LabeledSet, generate_synthetic, load_idx, partition
from .errors import DataError
from .federation import RoundRecord
from .metrics import DivergenceReport, evaluate_accuracy, layer_divergence
from .nn import init_model

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

METRICS_COLUMNS = ("round", "mode", "pattern", "test_accuracy", "train_loss",
                   "uplink_models", "uplink_bytes", "elapsed_ms")

_MNIST_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_idx_file(role: str, cfg: ExperimentConfig) -> str:
    explicit = getattr(cfg, role)
    if explicit:
        if not os.path.exists(explicit):
            raise DataError(f"{role}: file not found: {explicit}")
        return explicit
    root = resolve_data_dir(cfg)
    if not root:
        raise DataError(
            f"{role}: no path configured; set data_dir, the {role} key, or "
            f"the SEMIFL_DATA_DIR environment variable")
    candidates = []
    for name in _MNIST_NAMES[role]:
        candidates += [os.path.join(root, name), os.path.join(root, name + ".gz")]
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    raise DataError(f"{role}: none of {', '.join(candidates)} exist")


def load_mnist(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    """Locate and read the train/test IDX pairs for an mnist-mode run.

    Both models are sized for 28x28 images, so other sizes stop here.
    """
    def read(split: str) -> LabeledSet:
        images = _find_idx_file(f"{split}_images", cfg)
        ds = load_idx(images, _find_idx_file(f"{split}_labels", cfg))
        rows, cols = ds.images.shape[2:]
        if (rows, cols) != (28, 28):
            raise DataError(f"{images}: images are {rows}x{cols}, the models need 28x28")
        return ds

    return read("train"), read("test")


def load_datasets(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    """Train and test sets according to ``cfg.dataset``."""
    kind, synth = cfg.dataset_kind()
    if kind == "mnist":
        return load_mnist(cfg)
    classes, per_class = synth
    seed = cfg.effective_partition_seed
    train = generate_synthetic(classes, per_class, seed)
    test = generate_synthetic(classes, max(10, per_class // 4), seed + 1_000_003)
    return train, test


def build_clients(cfg: ExperimentConfig, train: LabeledSet):
    return partition(train, cfg.partition, cfg.clients, cfg.per_client,
                     cfg.effective_partition_seed)


def build_assignment(cfg: ExperimentConfig, clients) -> clustering.ClusterAssignment:
    """Cluster assignment for a semifl run (pattern or explicit file + ordering)."""
    if cfg.pattern == "explicit":
        assignment = clustering.load_assignment(cfg.assignment_file)
        problems = clustering.validate(assignment, len(clients))
        if problems:
            raise DataError(f"{cfg.assignment_file}: " + "; ".join(problems))
    else:
        assignment = clustering.build_pattern(cfg.pattern, clients)
    kind, seed = cfg.order_spec()
    if kind == "shuffled":
        assignment = clustering.shuffle_within_clusters(assignment, seed)
    return assignment


def _environment() -> dict:
    """The software a run's bits depend on: versions, BLAS build and thread variables."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def _format_row(rec: RoundRecord) -> dict:
    return {
        "round": rec.round,
        "mode": rec.mode,
        "pattern": rec.pattern,
        "test_accuracy": f"{rec.test_accuracy:.10g}",
        "train_loss": f"{rec.train_loss:.10g}",
        "uplink_models": rec.uplink_models,
        "uplink_bytes": rec.uplink_bytes,
        "elapsed_ms": rec.elapsed_ms,
    }


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[RoundRecord]:
    """Execute one full run and write its artifacts into ``out_dir``."""
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(render_config(cfg), encoding="utf-8")
    import json  # here, not at module level: the import costs ~3 ms of start-up
    (out / "env.json").write_text(json.dumps(_environment(), indent=2) + "\n",
                                  encoding="utf-8")

    train, test = load_datasets(cfg)
    clients = build_clients(cfg, train)
    assignment = build_assignment(cfg, clients) if cfg.mode == "semifl" else None
    model = init_model(cfg.arch, cfg.master_seed)
    plan = federation.plan_rounds(cfg, clients, assignment, len(checkpoint_bytes(model)))

    records: list[RoundRecord] = []
    # run_round's finiteness checks report a diverging run; numpy's overflow
    # warnings on the way there would only repeat it
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh, \
            open(out / "ledger.csv", "w", newline="", encoding="utf-8") as lfh, \
            np.errstate(over="ignore", invalid="ignore"):
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        ledger = csv.writer(lfh)
        ledger.writerow(["round", "uplink_models", "uplink_bytes", "downlink_models"])
        for t in range(1, cfg.rounds + 1):
            model, rec = federation.run_round(model, plan, t)
            # each uploaded head came from a chain that downloaded the snapshot;
            # cl has no server and moves no model
            ledger.writerow([t, rec.uplink_models, rec.uplink_bytes, rec.uplink_models])
            lfh.flush()
            if t % cfg.eval_every == 0 or t == cfg.rounds:
                rec.test_accuracy = evaluate_accuracy(model, test.images, test.labels)
                writer.writerow(_format_row(rec))
                fh.flush()
            if cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
                save_checkpoint(model, out / f"checkpoint_r{t:04d}.sfl1")
            records.append(rec)

    save_checkpoint(model, out / "model_final.sfl1")
    return records


def compare_checkpoints(subject_path, reference_path) -> DivergenceReport:
    """Per-layer ACS/RED of one checkpoint against another (the reference)."""
    subject = load_checkpoint(subject_path)
    reference = load_checkpoint(reference_path)
    return layer_divergence(subject, reference,
                            subject_id=str(subject_path),
                            reference_id=str(reference_path))


def summarize_run(run_dir) -> dict:
    """Digest of one run directory's metrics.csv/ledger.csv for reporting."""
    run = Path(run_dir)
    metrics_path = run / "metrics.csv" if run.is_dir() else run
    if not metrics_path.exists():
        raise DataError(f"no metrics.csv under {run_dir}")
    rows = []
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.append(row)
    if not rows:
        raise DataError(f"{metrics_path}: no evaluation rows")
    last = rows[-1]
    best = max(float(r["test_accuracy"]) for r in rows)
    summary = {
        "run": str(run_dir),
        "mode": last["mode"],
        "pattern": last["pattern"],
        "rounds": int(last["round"]),
        "final_accuracy": float(last["test_accuracy"]),
        "best_accuracy": best,
    }
    ledger_path = metrics_path.parent / "ledger.csv"
    if ledger_path.exists():
        with open(ledger_path, newline="", encoding="utf-8") as fh:
            entries = list(csv.DictReader(fh))
        summary["total_uplink_models"] = sum(int(e["uplink_models"]) for e in entries)
        summary["total_uplink_bytes"] = sum(int(e["uplink_bytes"]) for e in entries)
    return summary
