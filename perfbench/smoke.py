"""Smoke test of the benchmark itself, at tiny sizes and with no timing thresholds.

    python3 perfbench/smoke.py

For every workload, in both modes, it checks that the last output line is
the result object, that every metric BENCHMARK.json names is printed with
its unit, and that the correctness checks ran and passed.  It also checks
that in a directory holding only BENCHMARK.json and perfbench/ the benchmark
exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, sorted(set(got.items()) ^ set(wanted.items()))
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    checks = json.loads(next(ln for ln in lines if ln.startswith("checks "))[len("checks "):])
    assert checks["runs checked"] == result["attempted"] and checks["per run"], checks
    if trace:
        assert checks["call counts checked"] > 0 and not checks["call count mismatches"], checks


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "fedavg_mlp_full", 0)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [wl["name"] for wl in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(wl["why"] == workloads.WORKLOADS[wl["name"]].why for wl in spec["workloads"])
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, wl["name"], trace)
            print(f"ok {wl['name']} --trace {trace}")
    check_bare_directory()
    print("ok bare directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
