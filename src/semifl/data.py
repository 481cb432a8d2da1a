"""Dataset ingestion and client partitioning.

Images are kept as float32 arrays of shape (M, 1, H, W) scaled to [0, 1];
labels as int64 of shape (M,).  The IDX reader understands the classic
big-endian MNIST container (magic 0x803 for images, 0x801 for labels) and
transparently decompresses gzip files.

A client is a :class:`Shard`: row indices into the one training set, with
their labels, so a run holds every image once however it is partitioned.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from itertools import islice, zip_longest

import numpy as np

from .errors import DataError

IDX_IMAGES_MAGIC = 0x803
IDX_LABELS_MAGIC = 0x801
NUM_CLASSES = 10  # digit classes: the label range and the models' output width
IMAGE_SIDE = 28  # image height and width: synthetic images, MNIST's, the models' input
_SYNTH_CHUNK = 64  # synthetic examples generated per batch of draws


class _Labeled:
    """Examples with integer ``labels``: their count and their distinct labels."""

    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def distinct_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.labels)))


@dataclass(frozen=True, eq=False)
class LabeledSet(_Labeled):
    """An array of images with aligned integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.images.shape[0]} images vs "
                            f"{self.labels.shape[0]} labels")

    def shard(self, rows) -> "Shard":
        """The examples at ``rows``, as indices into this set: no image is copied."""
        rows = np.asarray(rows)
        return Shard(self, rows, self.labels[rows])


@dataclass(frozen=True, eq=False)
class Shard(_Labeled):
    """A client's examples: rows of a shared :class:`LabeledSet`, not a copy of them.

    ``labels`` is ``source.labels[rows]``, gathered once when the shard is
    made; images are gathered a batch at a time, as
    ``source.images[rows[...]]``, by whoever reads them.
    """

    source: LabeledSet
    rows: np.ndarray
    labels: np.ndarray


def _read_maybe_gzip(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
            fh.seek(0)
            if head == b"\x1f\x8b":
                with gzip.open(fh) as gz:
                    return gz.read()
            return fh.read()
    except (OSError, EOFError, zlib.error) as exc:  # gzip.BadGzipFile is an OSError
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_idx(path, magic: int, dims: int) -> tuple[list[int], memoryview]:
    """The ``dims`` header sizes and the uint8 body of an IDX file, checked.

    The body is a view into the file's bytes, not a copy of them.
    """
    raw = _read_maybe_gzip(path)
    head = 4 * (1 + dims)
    if len(raw) < head:
        raise DataError(f"{path}: truncated IDX header")
    found, *sizes = struct.unpack(f">{1 + dims}I", raw[:head])
    if found != magic:
        raise DataError(f"{path}: bad magic 0x{found:x}, expected 0x{magic:x}")
    body = memoryview(raw)[head:]
    if len(body) != math.prod(sizes):
        raise DataError(f"{path}: expected {math.prod(sizes)} data bytes, got {len(body)}")
    return sizes, body


def load_idx(images_path, labels_path) -> LabeledSet:
    """Read an IDX image/label file pair into a :class:`LabeledSet`."""
    (count, rows, cols), body = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    images = np.frombuffer(body, dtype=np.uint8).reshape(count, 1, rows, cols)
    images = images.astype(np.float32)
    images /= 255.0  # in place: the load holds one float32 copy, not two
    (lcount,), body = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
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
    """Class-separable IMAGE_SIDE x IMAGE_SIDE toy images: one Gaussian bump per class.

    Class c's bump sits at a fixed angle on a circle around the image centre,
    jittered per example, plus pixel noise.  Same (classes, per_class, seed)
    always yields the same set.  ``classes`` is in 1..10, one per anchor angle;
    ``ExperimentConfig.dataset_kind`` checks a run's.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(IMAGE_SIDE, dtype=np.float64)  # pixel rows and columns alike
    images = np.empty((classes * per_class, 1, IMAGE_SIDE, IMAGE_SIDE), dtype=np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    for c in range(classes):
        angle = 2.0 * np.pi * c / 10.0  # ten fixed anchor angles
        cy, cx = IMAGE_SIDE / 2 + 8.0 * np.sin(angle), IMAGE_SIDE / 2 + 8.0 * np.cos(angle)
        for k in range(c * per_class, (c + 1) * per_class, _SYNTH_CHUNK):
            n = min(_SYNTH_CHUNK, (c + 1) * per_class - k)
            # standard_normal draws normal(0, 1)'s stream, and normal(0, s) is s times
            # such a draw, so row i holds example i's 2 jitter and IMAGE_SIDE ** 2
            # noise draws in the stream order of one call each
            z = rng.standard_normal((n, 2 + IMAGE_SIDE ** 2))
            jy, jx = (0.8 * z[:, :2]).T[:, :, None, None]
            # an (n, side, 1) row term plus an (n, 1, side) column term: each
            # pixel takes the same float operations as over full (side, side) grids
            d2 = (grid[:, None] - cy - jy) ** 2 + (grid - cx - jx) ** 2
            img = 0.9 * np.exp(-d2 / (2.0 * 2.2 ** 2))
            img += 0.05 * z[:, 2:].reshape(n, IMAGE_SIDE, IMAGE_SIDE)
            images[k:k + n, 0] = np.clip(img, 0.0, 1.0)
    return LabeledSet(images, labels)


def partition_iid(source: LabeledSet, num_clients: int, per_client: int,
                  seed: int) -> list[Shard]:
    """Shuffle the source once and deal equal consecutive slices to clients."""
    need = num_clients * per_client
    if len(source) < need:
        raise DataError(f"need {need} examples for {num_clients} clients x "
                        f"{per_client}, source has {len(source)}")
    order = np.random.default_rng(seed).permutation(len(source))
    return [source.shard(order[cid * per_client:(cid + 1) * per_client])
            for cid in range(num_clients)]


def partition_noniid_shards(source: LabeledSet, num_clients: int,
                            per_client: int) -> list[Shard]:
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

    # every label's shard r, labels ascending, before any label's shard r + 1
    dealt = (s for rank in zip_longest(*shards.values()) for s in rank if s is not None)
    return [source.shard(s) for s in islice(dealt, num_clients)]


def partition(source: LabeledSet, mode: str, num_clients: int, per_client: int,
              seed: int) -> list[Shard]:
    """Split ``source`` by the config's ``partition`` mode, ``iid`` or ``noniid``.

    Client ``k`` holds the ``k``-th shard of the returned list: a client's id is
    its index, and its shard is rows of ``source``: no image is copied.
    ``seed`` drives the iid shuffle; the noniid shards are dealt in label
    order.
    """
    if mode == "iid":
        return partition_iid(source, num_clients, per_client, seed)
    return partition_noniid_shards(source, num_clients, per_client)
