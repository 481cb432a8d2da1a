"""Dataset ingestion and client partitioning.

Images are kept as float32 arrays of shape (M, 1, H, W) scaled to [0, 1];
labels as int64 of shape (M,).  The IDX reader understands the classic
big-endian MNIST container (magic 0x803 for images, 0x801 for labels) and
transparently decompresses gzip files.
"""

from __future__ import annotations

import gzip
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IDX_IMAGES_MAGIC = 0x803
IDX_LABELS_MAGIC = 0x801
NUM_CLASSES = 10  # the models' output width
_SYNTH_CHUNK = 64  # synthetic examples generated per batch of draws


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """An array of images with aligned integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.images.shape[0]} images vs "
                            f"{self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def take(self, indices) -> "LabeledSet":
        idx = np.asarray(indices)
        return LabeledSet(self.images[idx], self.labels[idx])

    def label_counts(self) -> Counter:
        return Counter(int(v) for v in self.labels)

    @property
    def distinct_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.labels)))


def _read_maybe_gzip(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
            fh.seek(0)
            if head == b"\x1f\x8b":
                with gzip.open(fh) as gz:
                    return gz.read()
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (EOFError, gzip.BadGzipFile) as exc:
        raise DataError(f"corrupt gzip stream in {path}: {exc}") from exc


def load_idx(images_path, labels_path) -> LabeledSet:
    """Read an IDX image/label file pair into a :class:`LabeledSet`."""
    raw = _read_maybe_gzip(images_path)
    if len(raw) < 16:
        raise DataError(f"{images_path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{images_path}: bad magic 0x{magic:x}, "
                        f"expected 0x{IDX_IMAGES_MAGIC:x}")
    expect = count * rows * cols
    body = raw[16:]
    if len(body) != expect:
        raise DataError(f"{images_path}: expected {expect} pixels, got {len(body)}")
    images = np.frombuffer(body, dtype=np.uint8).reshape(count, 1, rows, cols)
    images = images.astype(np.float32) / 255.0

    raw = _read_maybe_gzip(labels_path)
    if len(raw) < 8:
        raise DataError(f"{labels_path}: truncated IDX header")
    magic, lcount = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{labels_path}: bad magic 0x{magic:x}, "
                        f"expected 0x{IDX_LABELS_MAGIC:x}")
    body = raw[8:]
    if len(body) != lcount:
        raise DataError(f"{labels_path}: expected {lcount} labels, got {len(body)}")
    if lcount != count:
        raise DataError(f"{images_path} has {count} images but "
                        f"{labels_path} has {lcount} labels")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    bad = np.flatnonzero(labels >= NUM_CLASSES)
    if bad.size:
        raise DataError(f"{labels_path}: label {labels[bad[0]]} at index {bad[0]} "
                        f"is outside 0..{NUM_CLASSES - 1}")
    return LabeledSet(images, labels)


def generate_synthetic(classes: int, per_class: int, seed: int) -> LabeledSet:
    """Class-separable 28x28 toy images: one Gaussian bump per class.

    Class c's bump sits at a fixed angle on a circle around the image centre,
    jittered per example, plus pixel noise.  Same (classes, per_class, seed)
    always yields the same set.  ``classes`` is in 1..10, one per anchor angle;
    ``ExperimentConfig.dataset_kind`` checks a run's.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float64)
    images = np.empty((classes * per_class, 1, 28, 28), dtype=np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    for c in range(classes):
        angle = 2.0 * np.pi * c / 10.0  # ten fixed anchor angles
        cy, cx = 14.0 + 8.0 * np.sin(angle), 14.0 + 8.0 * np.cos(angle)
        for k in range(c * per_class, (c + 1) * per_class, _SYNTH_CHUNK):
            n = min(_SYNTH_CHUNK, (c + 1) * per_class - k)
            # normal(0, s) is s times a standard normal draw, so row i holds example
            # i's 2 jitter and 784 noise draws in the stream order of one call each
            z = rng.normal(0.0, 1.0, size=(n, 2 + 28 * 28))
            jy, jx = (0.8 * z[:, :2]).T[:, :, None, None]
            d2 = (yy - cy - jy) ** 2 + (xx - cx - jx) ** 2
            img = 0.9 * np.exp(-d2 / (2.0 * 2.2 ** 2))
            img += 0.05 * z[:, 2:].reshape(n, 28, 28)
            images[k:k + n, 0] = np.clip(img, 0.0, 1.0)
    return LabeledSet(images, labels)


def partition_iid(source: LabeledSet, num_clients: int, per_client: int,
                  seed: int) -> list[LabeledSet]:
    """Shuffle the source once and deal equal consecutive slices to clients."""
    need = num_clients * per_client
    if len(source) < need:
        raise DataError(f"need {need} examples for {num_clients} clients x "
                        f"{per_client}, source has {len(source)}")
    order = np.random.default_rng(seed).permutation(len(source))
    return [source.take(order[cid * per_client:(cid + 1) * per_client])
            for cid in range(num_clients)]


def partition_noniid_shards(source: LabeledSet, num_clients: int,
                            per_client: int) -> list[LabeledSet]:
    """Give each client ``per_client`` examples of a single label.

    Examples are stably sorted by label, cut into single-label shards of
    ``per_client`` (per-label remainders are discarded), and shards are dealt
    to clients round-robin across labels in ascending label order, so client
    labels cycle 0,1,2,... as far as shard supply allows.  Raises
    :class:`DataError` listing the shortfall when the shards run out.
    """
    order = np.argsort(source.labels, kind="stable")
    sorted_labels = source.labels[order]
    shards: dict[int, list[np.ndarray]] = {}
    for label in np.unique(sorted_labels):
        run = order[sorted_labels == label]
        whole = len(run) // per_client
        shards[int(label)] = [run[s * per_client:(s + 1) * per_client]
                              for s in range(whole)]

    total = sum(len(v) for v in shards.values())
    if total < num_clients:
        supply = ", ".join(f"label {l}: {len(v)}" for l, v in sorted(shards.items()))
        raise DataError(
            f"cannot build {num_clients} single-label clients of "
            f"{per_client} examples: only {total} whole shards available "
            f"({supply})")

    labels_cycle = sorted(shards)
    clients: list[LabeledSet] = []
    while len(clients) < num_clients:
        for label in labels_cycle:
            if len(clients) == num_clients:
                break
            if shards[label]:
                clients.append(source.take(shards[label].pop(0)))
    return clients


def partition(source: LabeledSet, mode: str, num_clients: int, per_client: int,
              seed: int) -> list[LabeledSet]:
    """Split ``source`` by the config's ``partition`` mode, ``iid`` or ``noniid``.

    Client ``k`` holds the ``k``-th shard of the returned list: a client's id is
    its index.  ``seed`` drives the iid shuffle; the noniid shards are dealt in
    label order.
    """
    if mode == "iid":
        return partition_iid(source, num_clients, per_client, seed)
    return partition_noniid_shards(source, num_clients, per_client)
