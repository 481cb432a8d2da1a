"""How data reaches clients, and how clients become clusters.

Partitions a synthetic training set two ways (IID and single-label shards),
prints what each client ends up holding, then builds the four cluster
patterns and shows the label mix inside one cluster of each.  Finishes by
round-tripping an assignment through its text format.

Run:  python3 demos/02_partitions_and_clusters.py
"""

import os
import tempfile

import numpy as np

from semifl import clustering, data


def describe(clients, label):
    counts = {}
    for c in clients:
        counts[len(c.distinct_labels)] = counts.get(len(c.distinct_labels), 0) + 1
    mix = ", ".join(f"{n} clients with {k} label(s)"
                    for k, n in sorted(counts.items()))
    print(f"{label}: {len(clients)} clients; {mix}")
    first = clients[0]
    print(f"  client 0 holds {len(first)} examples, "
          f"labels {list(first.distinct_labels)}")


def main():
    source = data.generate_synthetic(classes=10, per_class=120, seed=0)
    print(f"source set: {len(source)} examples, "
          f"per label {np.bincount(source.labels).tolist()}")

    iid = data.partition(source, "iid", num_clients=100, per_client=12, seed=1)
    shards = data.partition(source, "noniid", num_clients=100, per_client=12, seed=1)
    describe(iid, "iid")
    describe(shards, "noniid")

    for pattern in clustering.PATTERNS:
        a = clustering.build_pattern(pattern, shards)
        problems = clustering.validate(a, len(shards))
        cluster0 = a[0]
        labels = sorted(shards[c].distinct_labels[0] for c in cluster0)
        print(f"{pattern}: {len(a)} clusters, first cluster labels {labels}, "
              f"validate -> {problems or 'ok'}")

    # assignments are plain text: one cluster per line
    a = clustering.build_pattern("c3", shards)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c3.txt")
        clustering.save_assignment(a, path)
        back = clustering.load_assignment(path)
        print(f"saved {path!r}; reload matches: {back == a}")
        with open(path) as fh:
            print("file starts:", fh.readline().strip(), "/", fh.readline().strip())


if __name__ == "__main__":
    main()
