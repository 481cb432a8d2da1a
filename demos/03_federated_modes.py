"""The three training modes side by side, on the same synthetic federation.

100 single-label clients train the same MLP under (a) clustered sequential
training with one upload per cluster, (b) classic federated averaging with
full and 10% participation, and (c) a centralized pool.  Prints a per-round
accuracy table plus what each mode paid in uplink traffic.

Each mode is one ``run_experiment`` call (the driver behind ``semifl train``)
into a temporary run directory; the uplink totals come from its ledger.csv.

Run:  python3 demos/03_federated_modes.py
"""

import tempfile
from pathlib import Path

from semifl.config import ExperimentConfig
from semifl.experiment import run_experiment, summarize_run

ROUNDS = 6
SEED = 0

RUNS = {
    "semifl c3": dict(mode="semifl", pattern="c3"),
    "fl 100%": dict(mode="fl", client_fraction=1.0),
    "fl 10%": dict(mode="fl", client_fraction=0.1),
    "central": dict(mode="cl"),
}


def main():
    records, uplink = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, kw) in enumerate(RUNS.items()):
            cfg = ExperimentConfig(arch="mlp", dataset="synthetic:10x120", partition="noniid",
                                   clients=100, per_client=12, rounds=ROUNDS, eval_every=1,
                                   local_epochs=1, local_batch=12, learning_rate=0.05,
                                   cl_batch=120, master_seed=SEED, **kw)
            out = Path(tmp) / f"run{i}"
            records[name] = run_experiment(cfg, out)
            uplink[name] = summarize_run(out)

    print("round  " + "".join(f"{name:>12}" for name in RUNS))
    for t in range(ROUNDS):
        print(f"{t + 1:>5}  " + "".join(f"{records[name][t].test_accuracy:>12.3f}"
                                        for name in RUNS))

    print("\nuplink over the whole run:")
    for name, run in uplink.items():
        print(f"  {name:>10}: {run['total_uplink_models']:>4} model uploads, "
              f"{run['total_uplink_bytes'] / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
