"""Grouping clients into clusters.

Four built-in label patterns (all assume ten digit classes):

* ``c1`` -- one cluster per label; cluster n holds every label-n client.
* ``c2`` -- ten clusters; cluster n holds the first half of label n's
  clients followed by the second half of label (n+1) mod 10's clients.
* ``c3`` -- clusters of ten clients, one client per label, labels ascending.
* ``c4`` -- label-agnostic: consecutive groups of ten clients by id.

A client's id is its index in the partition's client list, and an
assignment is a tuple of clusters, each a tuple of client ids in training
order.  Explicit assignments can also be loaded from a text file with one
cluster per line (space-separated client ids).
"""

from __future__ import annotations

import numpy as np

from .data import NUM_CLASSES, LabeledSet
from .errors import DataError

PATTERNS = ("c1", "c2", "c3", "c4")

Clusters = tuple[tuple[int, ...], ...]  # client ids per cluster, in training order


def _clients_by_label(clients: list[LabeledSet]) -> dict[int, list[int]]:
    """Map label -> ascending client ids, for single-label clients only."""
    by_label: dict[int, list[int]] = {}
    for cid, c in enumerate(clients):
        distinct = c.distinct_labels
        if len(distinct) != 1:
            raise DataError(f"client {cid} holds labels {distinct}; "
                            f"label patterns require single-label clients")
        by_label.setdefault(distinct[0], []).append(cid)
    return by_label


def build_pattern(pattern: str, clients: list[LabeledSet]) -> Clusters:
    """Construct one of the built-in patterns over the given clients.

    Clients of equal label are consumed in ascending client-id order.  Raises
    :class:`DataError` when the client population cannot realise the pattern.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")

    if pattern == "c4":
        k = len(clients)
        if k % NUM_CLASSES:
            raise DataError(f"c4 needs a multiple of {NUM_CLASSES} clients, got {k}")
        return tuple(tuple(range(i, i + NUM_CLASSES)) for i in range(0, k, NUM_CLASSES))

    by_label = _clients_by_label(clients)
    missing = sorted(set(range(NUM_CLASSES)) - set(by_label))
    if missing:
        raise DataError(f"pattern {pattern} needs clients for every label 0..9; "
                        f"missing labels {missing}")
    counts = {l: len(v) for l, v in by_label.items()}
    if len(set(counts.values())) != 1:
        raise DataError(f"pattern {pattern} needs equally many clients per label, "
                        f"got {counts}")
    per_label = counts[0]

    if pattern == "c1":
        return tuple(tuple(by_label[l]) for l in range(NUM_CLASSES))

    if pattern == "c2":
        if per_label % 2:
            raise DataError(f"c2 splits each label's clients in half; "
                            f"{per_label} per label is odd")
        half = per_label // 2
        groups = []
        for n in range(NUM_CLASSES):
            own = by_label[n][:half]
            borrowed = by_label[(n + 1) % NUM_CLASSES][half:]
            groups.append(tuple(own + borrowed))
        return tuple(groups)

    # c3: the k-th client of each label forms cluster k
    return tuple(
        tuple(by_label[l][k] for l in range(NUM_CLASSES)) for k in range(per_label)
    )


def validate(clusters: Clusters, num_clients: int) -> list[str]:
    """Return human-readable violations (empty list when the assignment is sound).

    Checks the structure only: no cluster is empty, and the clusters cover the
    client ids 0..num_clients-1 exactly once.
    """
    problems: list[str] = []
    seen: dict[int, int] = {}
    for ci, cluster in enumerate(clusters):
        if not cluster:
            problems.append(f"cluster {ci} is empty")
        for cid in cluster:
            if cid in seen:
                problems.append(f"client {cid} appears in clusters {seen[cid]} and {ci}")
            seen[cid] = ci
            if not 0 <= cid < num_clients:
                problems.append(f"cluster {ci} references unknown client {cid}")
    uncovered = sorted(set(range(num_clients)) - set(seen))
    if uncovered:
        problems.append(f"clients not in any cluster: {uncovered}")
    return problems


def shuffle_within_clusters(clusters: Clusters, seed: int) -> Clusters:
    """Permute the training order inside each cluster (cluster list order kept)."""
    rng = np.random.default_rng(seed)
    return tuple(
        tuple(np.asarray(cluster)[rng.permutation(len(cluster))].tolist())
        for cluster in clusters
    )


def load_assignment(path) -> Clusters:
    """Read an explicit assignment file: one cluster per line, ids space-separated."""
    clusters = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    clusters.append(tuple(int(tok) for tok in line.split()))
                except ValueError as exc:
                    raise DataError(f"{path}:{ln}: not a client id list: {line!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read assignment file {path}: {exc}") from exc
    if not clusters:
        raise DataError(f"assignment file {path} defines no clusters")
    return tuple(clusters)


def save_assignment(clusters: Clusters, path) -> None:
    """Write the explicit one-line-per-cluster format that load_assignment reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for cluster in clusters:
            fh.write(" ".join(str(cid) for cid in cluster) + "\n")
