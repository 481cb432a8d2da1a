"""The three training modes side by side, on the same synthetic federation.

100 single-label clients train the same MLP under (a) clustered sequential
training with one upload per cluster, (b) classic federated averaging with
full and 10% participation, and (c) a centralized pool.  Prints a per-round
accuracy table plus what each mode paid in uplink traffic.

``semifl train`` runs the same plan_rounds/run_round loop; see README.

Run:  python3 demos/03_federated_modes.py
"""

from semifl import checkpoint, clustering, data, federation, metrics, nn
from semifl.config import ExperimentConfig

ROUNDS = 6
SEED = 0


def main():
    source = data.generate_synthetic(classes=10, per_class=120, seed=SEED)
    test = data.generate_synthetic(classes=10, per_class=40, seed=SEED + 1)
    clients = data.partition(source, "noniid", num_clients=100, per_client=12, seed=SEED)
    clusters = clustering.build_pattern("c3", clients)
    model_bytes = len(checkpoint.checkpoint_bytes(nn.init_mlp(SEED)))

    runs = {
        "semifl c3": dict(mode="semifl"),
        "fl 100%": dict(mode="fl", client_fraction=1.0),
        "fl 10%": dict(mode="fl", client_fraction=0.1),
        "central": dict(mode="cl"),
    }
    # one plan per mode: which chains train each round and what the server does
    plans = {
        name: federation.plan_rounds(
            ExperimentConfig(arch="mlp", local_epochs=1, local_batch=12,
                             learning_rate=0.05, cl_batch=120, master_seed=SEED, **kw),
            clients, clusters)
        for name, kw in runs.items()
    }
    models = {name: nn.init_mlp(SEED) for name in runs}
    uploads = {name: [] for name in runs}

    print(f"round  " + "".join(f"{name:>12}" for name in runs))
    for t in range(1, ROUNDS + 1):
        row = []
        for name, plan in plans.items():
            models[name], rec = federation.run_round(models[name], plan, t)
            uploads[name].append(rec.uplink_models)
            acc = metrics.evaluate_accuracy(models[name], test.images, test.labels)
            row.append(f"{acc:>12.3f}")
        print(f"{t:>5}  " + "".join(row))

    print("\nuplink over the whole run:")
    for name, rounds in uploads.items():
        print(f"  {name:>10}: {sum(rounds):>4} model uploads, "
              f"{sum(rounds) * model_bytes / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
