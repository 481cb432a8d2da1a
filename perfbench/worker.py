"""Measuring process for one benchmark run; started by ``run.py``.

It runs in a fresh interpreter, pins the BLAS thread variables to 1 before
numpy is imported, imports semifl from the checkout's ``src`` directory and
prints one JSON object as its last line of standard output.  It measures and
records; ``run.py`` judges.

    python3 perfbench/worker.py setup --workload W --seed N [--scale smoke]
    python3 perfbench/worker.py run   --workload W --seed N --seconds S
    python3 perfbench/worker.py trace --workload W --seed N --seconds S
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
KERNEL_REPS = {"full": 5, "smoke": 1}


def measure_setup(fields: dict) -> dict:
    """import semifl and build everything run_experiment builds before round 1."""
    t0 = time.perf_counter()
    from semifl import experiment, federation, nn
    from semifl.config import ExperimentConfig, validate_config
    cfg = validate_config(ExperimentConfig(**fields))
    train, _ = experiment.load_datasets(cfg)
    clients = experiment.build_clients(cfg, train)
    if cfg.mode == "semifl":
        experiment.build_assignment(cfg, clients)
    elif cfg.mode == "cl":
        federation.pool_clients(clients)
    nn.init_model(cfg.arch, cfg.master_seed)
    return {"setup_s": time.perf_counter() - t0}


def _file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _metrics_digest(path: Path) -> str:
    """Digest of metrics.csv with the wall-clock ``elapsed_ms`` column removed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([c for i, c in enumerate(r) if i != drop] for r in rows)
    return hashlib.blake2b(buf.getvalue().encode(), digest_size=16).hexdigest()


def run_once(cfg) -> dict:
    """One timed run_experiment call; outputs are digested, then deleted."""
    from semifl import experiment
    out = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        t0 = time.perf_counter()
        records = experiment.run_experiment(cfg, out)
        wall = time.perf_counter() - t0
        final = out / "model_final.sfl1"
        return {
            "wall_s": wall,
            "final_accuracy": records[-1].test_accuracy,
            "nonfinite_loss_rounds": [r.round for r in records
                                      if not math.isfinite(r.train_loss)],
            "model_digest": _file_digest(final),
            "metrics_digest": _metrics_digest(out / "metrics.csv"),
            "checkpoint_bytes": final.stat().st_size,
        }
    except Exception:  # a failed run is counted, not fatal
        return {"error": traceback.format_exc(limit=4)}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def closed_loop(cfg, seconds: float, min_runs: int) -> list[dict]:
    """Run back to back; start another run only if it should end within ``seconds``.

    A one-round run of the same config goes first and is discarded: without
    it, the first run in a fresh process on a 2-vCPU VM was 10-25% slower in
    every round, by an amount that varied from process to process.
    """
    run_once(dataclasses.replace(cfg, rounds=1))
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        runs.append(run_once(cfg))
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def measure_run(fields: dict, seconds: float) -> dict:
    from semifl.config import ExperimentConfig
    runs = closed_loop(ExperimentConfig(**fields), seconds, min_runs=2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": runs, "peak_rss_mb": peak_kb / 1024}


def measure_trace(fields: dict, seconds: float, seed: int, scale: str, span_file: Path) -> dict:
    """Untraced runs for the overhead baseline, one traced run, then the kernel table.

    Half the window goes to the untraced runs; the traced run and the kernel
    table take roughly the other half.
    """
    from semifl.config import ExperimentConfig
    import kernels
    from tracer import Tracer

    cfg = ExperimentConfig(**fields)
    runs = closed_loop(cfg, seconds / 2, min_runs=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_once(cfg)
    finally:
        tracer.uninstall()
    span_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return {
        "runs": runs,
        "traced": traced,
        "spans": tracer.summary(),
        "missing": tracer.missing,
        "kernels": kernels.kernel_table(seed, WORK_DIR, KERNEL_REPS[scale]),
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = ap.parse_args(argv)
    fields = workloads.config_fields(args.workload, args.seed, args.scale)

    if args.mode == "setup":
        result = measure_setup(fields)
    else:
        WORK_DIR.mkdir(exist_ok=True)
        if args.mode == "run":
            result = measure_run(fields, args.seconds)
        else:
            span_file = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            result = measure_trace(fields, args.seconds, args.seed, args.scale, span_file)
        result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
