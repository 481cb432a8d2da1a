"""semifl training benchmark.

    python3 perfbench/run.py --workload semifl_cnn_c3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One closed-loop caller: every measuring
process is a fresh, single-threaded Python interpreter (BLAS threads pinned
to 1) that runs one ``experiment.run_experiment`` at a time on the config the
workload builds from ``--seed``.

``--trace 0`` prints the end-to-end metrics: the median SGD throughput over
the runs that fit in ``--seconds`` after a one-round warm-up run, the median
set-up time of several fresh processes, peak RSS and final accuracy.  ``--trace 1`` prints the per-layer
metrics: self times and call counts of semifl's public functions from one
traced run, and a fixed-shape kernel table.

Every run is checked: finite train loss each round, final accuracy at or
above the workload's floor, and the same model and metrics digests on every
repeat of the seed; traced call counts must equal the config arithmetic.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, including the
environment block, go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROCESSES = 7  # measured, after one discarded warm-up process
TIME_LIMIT_S = 170  # from start; a worker still running then is killed

# span name -> metrics derived from its trace summary
TRACED = {
    "nn.loss_and_grads": ("calls", "self_s"),
    "nn.sgd_step": ("calls", "self_s"),
    "nn.forward": ("calls", "self_s"),
    "nn.train_local": ("calls", "self_s"),
    "metrics.evaluate_accuracy": ("calls", "self_s"),
    "federation.stream": ("calls", "self_s"),
    "federation.round": ("calls", "self_s"),
    "federation.aggregate_mean": ("calls", "self_s", "models"),
    "checkpoint.save_checkpoint": ("calls", "self_s"),
    "experiment.run_experiment": ("self_s",),
    "data.generate_synthetic": ("self_s",),
    "data.partition": ("self_s",),
    "clustering.build_pattern": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "models": "count"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def call_worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale]
    try:
        # the worker pins the BLAS threads itself, before it imports numpy
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
                              capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {mode} ran past the benchmark's deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


RUN_CHECKS = ("train_loss finite every round", "final_accuracy >= workload floor",
              "model_final.sfl1 and metrics.csv digests equal to the seed's first run")


def judge_runs(runs: list[dict], floor: float) -> list[str]:
    """One problem string per failed run (empty string for a good run)."""
    good = [r for r in runs if "error" not in r]
    ref = (good[0]["model_digest"], good[0]["metrics_digest"]) if good else None
    verdicts = []
    for r in runs:
        if "error" in r:
            verdicts.append("raised: " + r["error"].strip().splitlines()[-1])
        elif r["nonfinite_loss_rounds"]:
            verdicts.append(f"non-finite train_loss in rounds {r['nonfinite_loss_rounds']}")
        elif r["final_accuracy"] < floor:
            verdicts.append(f"final_accuracy {r['final_accuracy']} below floor {floor}")
        elif (r["model_digest"], r["metrics_digest"]) != ref:
            verdicts.append("digests differ from the first run of this seed")
        else:
            verdicts.append("")
    return verdicts


def end_to_end(args, fields, timed, worker, deadline) -> dict:
    """End-to-end metrics as name -> (value, unit)."""
    setups = [call_worker("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES + 1)][1:]
    examples = workloads.sgd_examples(fields)
    return {
        "train_examples_per_s": (statistics.median(examples / r["wall_s"] for r in timed),
                                 "examples/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "final_accuracy": (statistics.median(r["final_accuracy"] for r in timed),
                           "fraction"),
    }


def per_layer(fields, timed, worker) -> tuple[dict, dict]:
    """Per-layer metrics as name -> (value, unit), and the traced call counts
    checked against the config arithmetic."""
    spans, traced = worker["spans"], worker["traced"]
    wall = spans["experiment.run_experiment"]["total_s"]
    values = {f"{name}.{stat}": (spans[name]["items" if stat == "models" else stat],
                                 _STAT_UNITS[stat])
              for name, stats in TRACED.items() for stat in stats}
    covered = sum(s["self_s"] for n, s in spans.items() if n != "experiment.run_experiment")
    baseline = statistics.median(r["wall_s"] for r in timed)
    values.update({
        "checkpoint.bytes": (traced["checkpoint_bytes"], "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.coverage_pct": (100 * covered / wall, "%"),
        "trace.overhead_pct": (100 * (wall - baseline) / baseline, "%"),
    })
    values.update((name, tuple(vu)) for name, vu in worker["kernels"].items())

    counts = {}
    for name, want in sorted(workloads.expected_calls(fields).items()):
        span = spans[name.removesuffix(".models")]
        if span["installed"]:  # a removed function is listed in trace-missing instead
            got = span["items" if name.endswith(".models") else "calls"]
            counts[name] = "" if got == want else f"expected {want}, traced {got}"
    print("trace-missing", json.dumps(worker["missing"]))
    print(f"split of the traced run ({wall:.3f} s):")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} calls {s['calls']:7d}  self {s['self_s']:9.4f} s"
              f"  {100 * s['self_s'] / wall:6.2f} %")
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="smoke: tiny sizes, for checking the benchmark itself")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "semifl" / "__init__.py").is_file():
        print(f"error: no semifl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    fields = workloads.config_fields(args.workload, args.seed, args.scale)
    floor = workloads.accuracy_floor(args.workload, args.scale)
    try:
        worker = call_worker("trace" if args.trace else "run", args, deadline)
        runs = worker["runs"] + ([worker["traced"]] if args.trace else [])
        verdicts = judge_runs(runs, floor)
        timed = [r for r in worker["runs"] if "error" not in r]
        if not timed or (args.trace and "error" in worker["traced"]):
            raise BenchError("no run completed: " + "; ".join(filter(None, verdicts)))
        checks = {"per run": list(RUN_CHECKS), "runs checked": len(verdicts),
                  "failed runs": {str(i): v for i, v in enumerate(verdicts) if v}}
        if args.trace:
            metrics, counts = per_layer(fields, timed, worker)
            checks["call counts checked"] = len(counts)
            checks["call count mismatches"] = {k: v for k, v in counts.items() if v}
        else:
            metrics = end_to_end(args, fields, timed, worker, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ref = timed[0]
    print("env", json.dumps(worker["env"]))
    print(f"digests model_final.sfl1={ref['model_digest']} "
          f"metrics.csv-without-elapsed_ms={ref['metrics_digest']}")
    print("checks", json.dumps(checks))
    result = {
        "correct": not checks["failed runs"] and not checks.get("call count mismatches"),
        "attempted": len(verdicts),
        "failed": len(checks["failed runs"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), "config": fields, "env": worker["env"],
              "checks": checks, "runs": runs, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
