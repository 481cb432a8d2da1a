"""IDX ingestion, synthetic generation, and partitioning tests."""

import gzip
import struct

import numpy as np
import pytest

from semifl import data, nn
from semifl.errors import DataError
from semifl.metrics import evaluate_accuracy


def idx_images_bytes(arrays) -> bytes:
    """Hand-build an IDX image file from a list of uint8 2-d arrays."""
    arrays = [np.asarray(a, dtype=np.uint8) for a in arrays]
    rows, cols = arrays[0].shape
    blob = struct.pack(">IIII", 0x803, len(arrays), rows, cols)
    for a in arrays:
        blob += a.tobytes()
    return blob


def idx_labels_bytes(labels) -> bytes:
    return struct.pack(">II", 0x801, len(labels)) + bytes(labels)


@pytest.fixture
def idx_pair(tmp_path):
    imgs = [np.arange(12, dtype=np.uint8).reshape(3, 4),
            np.full((3, 4), 255, dtype=np.uint8)]
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(idx_images_bytes(imgs))
    lp.write_bytes(idx_labels_bytes([7, 2]))
    return ip, lp


class TestLoadIdx:
    def test_roundtrip(self, idx_pair):
        ds = data.load_idx(*idx_pair)
        assert ds.images.shape == (2, 1, 3, 4)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert list(ds.labels) == [7, 2]
        assert ds.images[0, 0, 0, 1] == pytest.approx(1 / 255)
        assert np.all(ds.images[1] == 1.0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_gzip_transparent(self, idx_pair, tmp_path):
        ip, lp = idx_pair
        gz_ip = tmp_path / "imgs.idx.gz"
        gz_lp = tmp_path / "labels.idx.gz"
        gz_ip.write_bytes(gzip.compress(ip.read_bytes()))
        gz_lp.write_bytes(gzip.compress(lp.read_bytes()))
        plain = data.load_idx(ip, lp)
        zipped = data.load_idx(gz_ip, gz_lp)
        assert np.array_equal(plain.images, zipped.images)
        assert np.array_equal(plain.labels, zipped.labels)

    def test_bad_magic_names_file(self, idx_pair, tmp_path):
        ip, lp = idx_pair
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x02" + ip.read_bytes()[4:])
        with pytest.raises(DataError, match="bad.idx.*magic"):
            data.load_idx(bad, lp)

    def test_truncated_rejected(self, idx_pair, tmp_path):
        ip, lp = idx_pair
        cut = tmp_path / "cut.idx"
        cut.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(DataError, match="cut.idx"):
            data.load_idx(cut, lp)
        tiny = tmp_path / "tiny.idx"
        tiny.write_bytes(b"\x00\x00")
        with pytest.raises(DataError, match="truncated"):
            data.load_idx(tiny, lp)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ip, _ = idx_pair
        lp3 = tmp_path / "three.idx"
        lp3.write_bytes(idx_labels_bytes([1, 2, 3]))
        with pytest.raises(DataError, match="2 images but.*3 labels"):
            data.load_idx(ip, lp3)

    def test_label_out_of_range(self, idx_pair, tmp_path):
        ip, _ = idx_pair
        lp = tmp_path / "bad_labels.idx"
        lp.write_bytes(idx_labels_bytes([9, 12]))
        with pytest.raises(DataError, match=r"bad_labels\.idx: label 12 at index 1 "
                                            r"is outside 0\.\.9"):
            data.load_idx(ip, lp)

    def test_missing_file(self, idx_pair):
        with pytest.raises(DataError, match="cannot read"):
            data.load_idx("/nonexistent/images.idx", idx_pair[1])


def reference_synthetic(classes, per_class, seed):
    """The generator as one loop per example: two jitter draws, then the noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float64)
    images = np.empty((classes * per_class, 1, 28, 28), dtype=np.float32)
    labels = np.empty(classes * per_class, dtype=np.int64)
    k = 0
    for c in range(classes):
        angle = 2.0 * np.pi * c / 10.0
        cy, cx = 14.0 + 8.0 * np.sin(angle), 14.0 + 8.0 * np.cos(angle)
        for _ in range(per_class):
            jy, jx = rng.normal(0.0, 0.8, size=2)
            d2 = (yy - cy - jy) ** 2 + (xx - cx - jx) ** 2
            img = 0.9 * np.exp(-d2 / (2.0 * 2.2 ** 2))
            img += rng.normal(0.0, 0.05, size=(28, 28))
            images[k, 0] = np.clip(img, 0.0, 1.0)
            labels[k] = c
            k += 1
    return images, labels


class TestSynthetic:
    # per_class 1, below, at and above the 64-example chunk, and 3 or 7 classes
    @pytest.mark.parametrize("classes, per_class, seed", [
        (10, 1, 0), (3, 63, 2), (10, 64, 3), (7, 65, 4), (4, 200, 5), (10, 130, 6)])
    def test_equals_the_per_example_loop_byte_for_byte(self, classes, per_class, seed):
        ds = data.generate_synthetic(classes, per_class, seed)
        images, labels = reference_synthetic(classes, per_class, seed)
        assert ds.images.dtype == images.dtype and ds.images.tobytes() == images.tobytes()
        assert ds.labels.dtype == labels.dtype and ds.labels.tobytes() == labels.tobytes()

    def test_deterministic(self):
        a = data.generate_synthetic(4, 6, seed=3)
        b = data.generate_synthetic(4, 6, seed=3)
        c = data.generate_synthetic(4, 6, seed=4)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_shapes_and_balance(self):
        ds = data.generate_synthetic(10, 10, seed=1)
        assert len(ds) == 100
        assert ds.images.shape == (100, 1, 28, 28)
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert all(ds.label_counts()[c] == 10 for c in range(10))

    def test_learnable_by_mlp(self):
        # regression bound: 5 epochs on 2 classes x 50 must clear 0.9 holdout accuracy
        train = data.generate_synthetic(2, 50, seed=7)
        test = data.generate_synthetic(2, 50, seed=8)
        model, _ = nn.train_local_with_loss(nn.init_mlp(0), train.images, train.labels,
                                            5, 20, 0.01, np.random.default_rng(1))
        assert evaluate_accuracy(model, test.images, test.labels) > 0.9


def _rows_key(ds):
    """Hashable identity per example (pixel bytes)."""
    return [ds.images[i].tobytes() for i in range(len(ds))]


class TestPartitionIid:
    def test_sizes_disjoint_and_sourced(self):
        src = data.generate_synthetic(5, 30, seed=2)  # 150 examples
        clients = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        assert len(clients) == 7
        assert all(len(c) == 20 for c in clients)
        src_keys = set(_rows_key(src))
        all_keys = [k for c in clients for k in _rows_key(c)]
        assert len(all_keys) == 140
        assert len(set(all_keys)) == 140  # disjoint
        assert set(all_keys) <= src_keys  # drawn from the source

    def test_deterministic_per_seed(self):
        src = data.generate_synthetic(5, 30, seed=2)
        a = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        b = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        assert all(np.array_equal(x.images, y.images)
                   for x, y in zip(a, b))
        other = data.partition_iid(src, 7, 20, seed=6)
        assert any(not np.array_equal(x.images, y.images)
                   for x, y in zip(a, other))

    def test_insufficient_examples(self):
        src = data.generate_synthetic(2, 10, seed=0)
        with pytest.raises(DataError, match="need 100 examples"):
            data.partition_iid(src, 10, 10, seed=0)


class TestPartitionNoniid:
    def test_purity_sizes_and_label_cycle(self):
        src = data.generate_synthetic(10, 120, seed=7)
        clients = data.partition_noniid_shards(src, num_clients=100, per_client=12)
        assert len(clients) == 100
        for cid, c in enumerate(clients):
            assert len(c) == 12
            assert len(c.distinct_labels) == 1  # single-label purity
            assert c.distinct_labels[0] == cid % 10  # round-robin labels
        counts = {}
        for c in clients:
            counts[c.distinct_labels[0]] = counts.get(c.distinct_labels[0], 0) + 1
        assert counts == {l: 10 for l in range(10)}

    def test_disjoint(self):
        src = data.generate_synthetic(10, 30, seed=9)
        clients = data.partition_noniid_shards(src, num_clients=20, per_client=10)
        keys = [k for c in clients for k in _rows_key(c)]
        assert len(keys) == len(set(keys)) == 200

    def test_remainders_discarded(self):
        # 25 per label / shard 10 -> 2 whole shards per label, 5 spare each
        src = data.generate_synthetic(10, 25, seed=4)
        clients = data.partition_noniid_shards(src, num_clients=20, per_client=10)
        assert len(clients) == 20
        assert all(len(c) == 10 for c in clients)

    def test_deficit_error_lists_supply(self):
        src = data.generate_synthetic(10, 25, seed=4)
        with pytest.raises(DataError, match=r"only 20 whole shards.*label 0: 2"):
            data.partition_noniid_shards(src, num_clients=21, per_client=10)

    def test_stable_order_within_label(self):
        # mark each example with a distinct leading pixel to track source order
        images = np.zeros((6, 1, 28, 28), dtype=np.float32)
        for i in range(6):
            images[i, 0, 0, 0] = (i + 1) / 10.0
        labels = np.array([1, 0, 1, 0, 1, 0], dtype=np.int64)
        src = data.LabeledSet(images, labels)
        c0, c1 = data.partition_noniid_shards(src, num_clients=2, per_client=3)
        # label 0 examples in source order: rows 1, 3, 5 ; label 1: rows 0, 2, 4
        assert list(c0.images[:, 0, 0, 0]) == pytest.approx([0.2, 0.4, 0.6])
        assert list(c1.images[:, 0, 0, 0]) == pytest.approx([0.1, 0.3, 0.5])

    def test_dispatch(self):
        src = data.generate_synthetic(10, 12, seed=1)
        a = data.partition(src, "noniid", num_clients=10, per_client=12, seed=0)
        assert all(len(c.distinct_labels) == 1 for c in a)
        b = data.partition(src, "iid", num_clients=6, per_client=20, seed=0)
        assert len(b) == 6
