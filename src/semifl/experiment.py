"""End-to-end experiment orchestration.

``run_experiment`` takes a resolved :class:`ExperimentConfig` plus an output
directory and produces:

* ``config.resolved`` -- the full configuration echoed back (re-parseable)
* ``env.json``        -- Python, numpy and BLAS versions, the OpenBLAS kernel
  (``blas_core``) and ``OPENBLAS_CORETYPE``, and the BLAS thread variables
  (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``)
* ``metrics.csv``     -- one row per round, appended as the round ends: its
  training loss and uplink, and its test accuracy, left empty on a round
  without an evaluation
* ``model_final.sfl1`` (and optional periodic checkpoints)

A directory that already holds either of the last two, or a checkpoint, is
refused: the new run's files would sit beside the old run's.  So is an output
path that names a file.

Two runs with the same configuration produce identical outputs apart from
the ``elapsed_ms`` column, provided they use the same numpy and BLAS build,
the same BLAS kernel and the same BLAS thread count (all recorded in
``env.json``): BLAS splits a GEMM differently at another thread count, and
each kernel rounds its own way.  The pinned digests are taken under
``OPENBLAS_CORETYPE=Haswell``, which any AVX2 x86-64 CPU runs;
:mod:`semifl.nn`'s claim of the same bits as a row-major patch matrix holds
on the SkylakeX kernel.
"""

from __future__ import annotations

import csv
import os
import platform
from pathlib import Path

import numpy as np

from . import clustering, federation
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .config import VALUE_KINDS, ExperimentConfig, render_config, validate_config
from .data import LabeledSet, generate_synthetic, load_idx, partition
from .errors import ConfigError, DataError
from .federation import RoundRecord
from .metrics import evaluate_accuracy, layer_divergence
from .nn import init_model

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

METRICS_COLUMNS = ("round", "mode", "pattern", "test_accuracy", "train_loss",
                   "uplink_models", "uplink_bytes", "elapsed_ms")

_RUN_OUTPUTS = ("metrics.csv", "model_final.sfl1", "checkpoint_r*.sfl1")

_MNIST_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_idx_file(root: str, role: str) -> str:
    candidates = [os.path.join(root, name + gz) for name in _MNIST_NAMES[role]
                  for gz in ("", ".gz")]
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    raise DataError(f"{role}: none of {', '.join(candidates)} exist")


def load_mnist(cfg: ExperimentConfig, split: str) -> LabeledSet:
    """Read the ``split`` ("train" or "test") IDX pair from ``cfg.data_dir``,
    or from the ``SEMIFL_DATA_DIR`` environment variable when ``data_dir`` is
    empty.

    Both models are sized for 28x28 images, so other sizes stop here, and so
    does an empty split, which could neither train nor be evaluated.
    """
    root = cfg.data_dir or os.environ.get("SEMIFL_DATA_DIR", "")
    if not root:
        raise DataError("no MNIST directory: set data_dir or the SEMIFL_DATA_DIR "
                        "environment variable")
    images = _find_idx_file(root, f"{split}_images")
    ds = load_idx(images, _find_idx_file(root, f"{split}_labels"))
    if len(ds) == 0:
        raise DataError(f"{images}: no images")
    rows, cols = ds.images.shape[2:]
    if (rows, cols) != (28, 28):
        raise DataError(f"{images}: images are {rows}x{cols}, the models need 28x28")
    return ds


def load_split(cfg: ExperimentConfig, split: str) -> LabeledSet:
    """The ``split`` ("train" or "test") set of ``cfg.dataset``."""
    kind, synth = cfg.dataset_kind()
    if kind == "mnist":
        return load_mnist(cfg, split)
    classes, per_class = synth
    if split == "train":
        return generate_synthetic(classes, per_class, cfg.master_seed)
    return generate_synthetic(classes, max(10, per_class // 4), cfg.master_seed + 1_000_003)


def load_datasets(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    """Train and test sets according to ``cfg.dataset``.

    A run reads them one at a time (:func:`prepare`, then the test set); this
    pair is kept for perfbench's setup timing.
    """
    return load_split(cfg, "train"), load_split(cfg, "test")


def build_clients(cfg: ExperimentConfig, train: LabeledSet):
    return partition(train, cfg.partition, cfg.clients, cfg.per_client, cfg.master_seed)


def build_assignment(cfg: ExperimentConfig, clients) -> clustering.Clusters:
    """Clusters of a semifl run (pattern or explicit file + ordering)."""
    if cfg.pattern == "explicit":
        clusters = clustering.load_assignment(cfg.assignment_file)
        problems = clustering.validate(clusters, len(clients))
        if problems:
            raise DataError(f"{cfg.assignment_file}: " + "; ".join(problems))
    else:
        clusters = clustering.build_pattern(cfg.pattern, clients)
    kind, seed = cfg.order_spec()
    if kind == "shuffled":
        clusters = clustering.shuffle_within_clusters(clusters, seed)
    return clusters


def prepare(cfg: ExperimentConfig) -> tuple[list[LabeledSet], clustering.Clusters | None]:
    """The clients of a run and, in semifl, their clusters (None otherwise).

    Both ``semifl train`` and ``semifl partition`` start here.  Only the
    training set is read, and it dies as soon as ``build_clients`` has copied
    the shards out of it.  The test set is left out: read here, it would be
    held through ``build_clients`` beside the training set, and ``partition``
    never reads it.
    """
    clients = build_clients(cfg, load_split(cfg, "train"))
    return clients, build_assignment(cfg, clients) if cfg.mode == "semifl" else None


def _environment() -> dict:
    """The software a run's bits depend on: versions, BLAS build and kernel,
    and the BLAS thread variables.

    A ``DYNAMIC_ARCH`` OpenBLAS picks its kernel (``blas_core``) from the CPU
    at run time, so it can differ from the build string;
    ``OPENBLAS_CORETYPE`` overrides the choice.
    """
    import ctypes  # here, not at module level, as json is in run_experiment
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__) \
            .scipy_openblas_get_corename64_
    except (AttributeError, OSError):  # numpy < 2, or a BLAS other than scipy-openblas
        core = None
    else:
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def output_dir(path) -> Path:
    """``path`` as a directory to write into; naming a file is a ConfigError."""
    out = Path(path)
    if not out.is_dir() and out.exists():
        raise ConfigError(f"output directory {out} exists and is not a directory")
    return out


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[RoundRecord]:
    """Execute one full run and write its artifacts into ``out_dir``.

    Each dataset lives only while something reads it: the training set goes
    as soon as ``build_clients`` has copied the shards out of it, before the
    test set is read, so a run never holds both; the client list goes once
    ``plan_rounds`` has made the plan. The plan's clients
    are the shards in semifl and fl and only the pool in cl. Releasing the
    source before ``plan_rounds`` pools the shards keeps a cl run from ever
    holding source, shards and pool at once.
    """
    validate_config(cfg)
    out = output_dir(out_dir)
    used = [p.name for pattern in _RUN_OUTPUTS for p in sorted(out.glob(pattern))]
    if used:
        raise ConfigError(f"output directory {out} already holds a run: {', '.join(used)}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(render_config(cfg), encoding="utf-8")
    import json  # here, not at module level: the import costs ~3 ms of start-up
    (out / "env.json").write_text(json.dumps(_environment(), indent=2) + "\n",
                                  encoding="utf-8")

    clients, clusters = prepare(cfg)
    test = load_split(cfg, "test")
    model = init_model(cfg.arch, cfg.master_seed)
    model_bytes = len(checkpoint_bytes(model))
    plan = federation.plan_rounds(cfg, clients, clusters)
    del clients
    pattern = cfg.pattern if cfg.mode == "semifl" else "-"

    records: list[RoundRecord] = []
    # line-buffered: the header, and each row as its round ends, reach the file.
    # run_round's finiteness checks report a diverging run; numpy's overflow
    # warnings on the way there would only repeat it
    with open(out / "metrics.csv", "w", buffering=1, newline="", encoding="utf-8") as fh, \
            np.errstate(over="ignore", invalid="ignore"):
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        for t in range(1, cfg.rounds + 1):
            model, rec = federation.run_round(model, plan, t)
            accuracy = ""
            if t % cfg.eval_every == 0 or t == cfg.rounds:
                rec.test_accuracy = evaluate_accuracy(model, test.images, test.labels)
                accuracy = f"{rec.test_accuracy:.10g}"
            writer.writerow({
                "round": t, "mode": cfg.mode, "pattern": pattern,
                "test_accuracy": accuracy, "train_loss": f"{rec.train_loss:.10g}",
                "uplink_models": rec.uplink_models,
                "uplink_bytes": rec.uplink_models * model_bytes,
                "elapsed_ms": rec.elapsed_ms})
            if cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
                save_checkpoint(model, out / f"checkpoint_r{t:04d}.sfl1")
            records.append(rec)

    save_checkpoint(model, out / "model_final.sfl1")
    return records


def compare_checkpoints(subject_path, reference_path) -> dict[str, tuple[float, float]]:
    """Layer name -> (ACS, RED) of one checkpoint against another (the reference).

    Checkpoints that cannot be compared (other architectures or shapes, or a
    reference layer of zero norm) raise :class:`DataError`.
    """
    subject = load_checkpoint(subject_path)
    reference = load_checkpoint(reference_path)
    try:
        return layer_divergence(subject, reference)
    except ValueError as exc:
        raise DataError(f"cannot compare {subject_path} with {reference_path}: "
                        f"{exc}") from exc


def _read_columns(path: Path, columns: dict[str, type], optional=()) -> list[dict]:
    """The rows of a CSV file whose header must name every key of ``columns``.

    Each row holds those columns only, every value parsed by its column's type
    (``str``, ``int`` or ``float``), or None when it is empty and its column is
    in ``optional``.  A short row or a value that does not parse is a
    DataError naming the file and the line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            rows = []
            for row in reader:
                parsed = {}
                for column, kind in columns.items():
                    value = row[column]
                    if value is None:
                        raise DataError(f"{path}: line {reader.line_num}: no {column} value")
                    try:
                        parsed[column] = None if value == "" and column in optional else kind(value)
                    except ValueError:
                        raise DataError(f"{path}: line {reader.line_num}: {column} is not "
                                        f"{VALUE_KINDS[kind]}: {value!r}") from None
                rows.append(parsed)
            return rows
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def summarize_run(run_dir) -> dict:
    """Digest of one run directory's metrics.csv for reporting: the rounds run,
    the last and best evaluated accuracy, and the uplink over every round."""
    run = Path(run_dir)
    metrics_path = run / "metrics.csv" if run.is_dir() else run
    if not metrics_path.exists():
        raise DataError(f"no metrics.csv under {run_dir}")
    rows = _read_columns(metrics_path, {"round": int, "mode": str, "pattern": str,
                                        "test_accuracy": float, "uplink_models": int,
                                        "uplink_bytes": int}, optional=("test_accuracy",))
    evaluated = [r["test_accuracy"] for r in rows if r["test_accuracy"] is not None]
    if not evaluated:
        raise DataError(f"{metrics_path}: no evaluation rows")
    last = rows[-1]
    return {
        "run": str(run_dir),
        "mode": last["mode"],
        "pattern": last["pattern"],
        "rounds": last["round"],
        "final_accuracy": evaluated[-1],
        "best_accuracy": max(evaluated),
        "total_uplink_models": sum(r["uplink_models"] for r in rows),
        "total_uplink_bytes": sum(r["uplink_bytes"] for r in rows),
    }
