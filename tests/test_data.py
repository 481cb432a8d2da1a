"""IDX ingestion, synthetic generation, and partitioning tests."""

import gzip
import re
import tracemalloc

import numpy as np
import pytest

from semifl import data, nn
from semifl.errors import DataError
from semifl.metrics import evaluate_accuracy
from conftest import idx_images_bytes, idx_labels_bytes, images_of


@pytest.fixture
def idx_pair(tmp_path):
    imgs = np.stack([np.arange(12, dtype=np.uint8).reshape(3, 4),
                     np.full((3, 4), 255, dtype=np.uint8)])
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

    def test_corrupt_gzip_names_file(self, idx_pair, tmp_path):
        ip, lp = idx_pair
        blob = bytearray(gzip.compress(ip.read_bytes()))
        blob[10] = 0xFF  # first deflate block header: invalid block type
        bad = tmp_path / "imgs.idx.gz"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"cannot read {bad}: ")):
            data.load_idx(bad, lp)

    def test_bad_magic_names_file(self, idx_pair, tmp_path):
        for which in range(2):  # the image file, then the label file
            pair = list(idx_pair)
            bad = tmp_path / "bad.idx"
            bad.write_bytes(b"\x00\x00\x08\x02" + pair[which].read_bytes()[4:])
            pair[which] = bad
            with pytest.raises(DataError, match=r"bad\.idx: bad magic 0x802, expected 0x80"):
                data.load_idx(*pair)

    def test_truncated_rejected(self, idx_pair, tmp_path):
        for which in range(2):  # the image file, then the label file
            pair = list(idx_pair)
            blob = pair[which].read_bytes()
            pair[which] = cut = tmp_path / "cut.idx"
            cut.write_bytes(blob[:-1])
            with pytest.raises(DataError, match=r"cut\.idx: expected \d+ data bytes, got"):
                data.load_idx(*pair)
            cut.write_bytes(blob[:6])  # inside the header of either file
            with pytest.raises(DataError, match=r"cut\.idx: truncated IDX header"):
                data.load_idx(*pair)

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

    def test_load_holds_the_images_once_as_float32(self, tmp_path):
        # the file's bytes plus one float32 array (1.25x); a sliced copy of the
        # body and a separate float32 quotient would make it 2.25x
        pixels = np.random.default_rng(0).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
        ip.write_bytes(idx_images_bytes(pixels))
        lp.write_bytes(idx_labels_bytes([k % 10 for k in range(len(pixels))]))
        tracemalloc.start()
        try:
            ds = data.load_idx(ip, lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.images.tobytes() == (pixels[:, None].astype(np.float32) / 255.0).tobytes()
        assert peak <= 1.5 * ds.images.nbytes


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


class TestLabeledSet:
    def test_fewer_labels_than_images_rejected(self):
        with pytest.raises(DataError, match="3 images vs 2 labels"):
            data.LabeledSet(np.zeros((3, 1, 2, 2), np.float32), np.zeros(2, np.int64))

    def test_shard_is_rows_with_their_labels(self):
        src = data.generate_synthetic(3, 4, seed=0)
        shard = src.shard([5, 0, 11])
        assert shard.source is src and shard.rows.tolist() == [5, 0, 11]
        assert shard.labels.tolist() == [1, 0, 2] and len(shard) == 3
        assert shard.distinct_labels == (0, 1, 2)
        assert not hasattr(shard, "images")  # images stay in the source


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
        assert np.bincount(ds.labels).tolist() == [10] * 10

    def test_learnable_by_mlp(self):
        # regression bound: 5 epochs on 2 classes x 50 must clear 0.9 holdout accuracy
        train = data.generate_synthetic(2, 50, seed=7)
        test = data.generate_synthetic(2, 50, seed=8)
        model, _ = nn.train_local_with_loss(nn.init_model("mlp", 0), train.images,
                                            np.arange(len(train)), train.labels, 5, 20, 0.01,
                                            np.random.default_rng(1))
        assert evaluate_accuracy(model, test.images, test.labels) > 0.9


def _rows_key(images):
    """Hashable identity per example (pixel bytes)."""
    return [img.tobytes() for img in images]


def _is_rows_of(client, src) -> bool:
    """Whether ``client`` is rows of ``src`` with their labels, holding no image."""
    return (isinstance(client, data.Shard) and client.source is src
            and np.array_equal(client.labels, src.labels[client.rows]))


class TestPartitionIid:
    def test_sizes_disjoint_and_sourced(self):
        src = data.generate_synthetic(5, 30, seed=2)  # 150 examples
        clients = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        assert len(clients) == 7
        assert all(len(c) == 20 for c in clients)
        assert all(_is_rows_of(c, src) for c in clients)
        src_keys = set(_rows_key(src.images))
        all_keys = [k for c in clients for k in _rows_key(images_of(c))]
        assert len(all_keys) == 140
        assert len(set(all_keys)) == 140  # disjoint
        assert set(all_keys) <= src_keys  # drawn from the source

    def test_deterministic_per_seed(self):
        src = data.generate_synthetic(5, 30, seed=2)
        a = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        b = data.partition_iid(src, num_clients=7, per_client=20, seed=5)
        assert all(np.array_equal(x.rows, y.rows) for x, y in zip(a, b))
        other = data.partition_iid(src, 7, 20, seed=6)
        assert any(not np.array_equal(x.rows, y.rows) for x, y in zip(a, other))

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
        assert all(_is_rows_of(c, src) for c in clients)
        keys = [k for c in clients for k in _rows_key(images_of(c))]
        assert len(keys) == len(set(keys)) == 200

    def test_remainders_discarded(self):
        # 25 per label / shard 10 -> 2 whole shards per label, 5 spare each
        src = data.generate_synthetic(10, 25, seed=4)
        clients = data.partition_noniid_shards(src, num_clients=20, per_client=10)
        assert len(clients) == 20
        assert all(len(c) == 10 for c in clients)

    def test_client_count_off_the_label_cycle(self):
        # 15 clients over 10 labels: the second pass deals labels 0-4, then stops
        src = data.generate_synthetic(10, 20, seed=4)
        clients = data.partition_noniid_shards(src, num_clients=15, per_client=10)
        assert [c.distinct_labels for c in clients] == [(l,) for l in [*range(10), *range(5)]]

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
        assert c0.rows.tolist() == [1, 3, 5] and c1.rows.tolist() == [0, 2, 4]
        assert list(images_of(c0)[:, 0, 0, 0]) == pytest.approx([0.2, 0.4, 0.6])
        assert list(images_of(c1)[:, 0, 0, 0]) == pytest.approx([0.1, 0.3, 0.5])

    def test_dispatch(self):
        src = data.generate_synthetic(10, 12, seed=1)
        a = data.partition(src, "noniid", num_clients=10, per_client=12, seed=0)
        assert all(len(c.distinct_labels) == 1 for c in a)
        b = data.partition(src, "iid", num_clients=6, per_client=20, seed=0)
        assert len(b) == 6
