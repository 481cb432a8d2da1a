"""Cluster pattern construction and validation tests."""

import numpy as np
import pytest

from semifl import clustering, data
from semifl.errors import DataError


def label_of(clients, cid):
    return clients[cid].distinct_labels[0]


class TestPatterns:
    def test_c1_one_label_per_cluster(self, clients_100):
        a = clustering.build_pattern("c1", clients_100)
        assert len(a) == 10
        for n, cluster in enumerate(a):
            assert len(cluster) == 10
            assert {label_of(clients_100, cid) for cid in cluster} == {n}
        assert clustering.validate(a, len(clients_100)) == []

    def test_c2_two_adjacent_labels_split_evenly(self, clients_100):
        a = clustering.build_pattern("c2", clients_100)
        assert len(a) == 10
        for n, cluster in enumerate(a):
            assert len(cluster) == 10
            labels = [label_of(clients_100, cid) for cid in cluster]
            assert labels[:5] == [n] * 5          # own label first
            assert labels[5:] == [(n + 1) % 10] * 5  # then the neighbour label
        assert clustering.validate(a, len(clients_100)) == []

    def test_c3_all_labels_once(self, clients_100):
        a = clustering.build_pattern("c3", clients_100)
        assert len(a) == 10
        for cluster in a:
            labels = [label_of(clients_100, cid) for cid in cluster]
            assert labels == list(range(10))  # ascending, one of each
        assert clustering.validate(a, len(clients_100)) == []

    def test_c4_consecutive_ids(self, clients_100):
        a = clustering.build_pattern("c4", clients_100)
        assert len(a) == 10
        flat = [cid for cl in a for cid in cl]
        assert flat == list(range(len(clients_100)))
        assert all(len(cl) == 10 for cl in a)
        assert clustering.validate(a, len(clients_100)) == []

    def test_patterns_cover_disjointly(self, clients_100):
        ids = set(range(len(clients_100)))
        for pat in clustering.PATTERNS:
            a = clustering.build_pattern(pat, clients_100)
            flat = [cid for cl in a for cid in cl]
            assert len(flat) == len(ids)
            assert set(flat) == ids

    def test_ascending_id_consumption(self, clients_100):
        # within each label, lower client ids come before higher ones (c1 clusters)
        a = clustering.build_pattern("c1", clients_100)
        for cluster in a:
            assert list(cluster) == sorted(cluster)

    def test_unknown_pattern(self, clients_100):
        with pytest.raises(ValueError, match="pattern"):
            clustering.build_pattern("c9", clients_100)


class TestPatternErrors:
    def test_missing_label(self, clients_100):
        partial = [c for c in clients_100 if c.distinct_labels[0] != 4]
        with pytest.raises(DataError, match=r"missing labels \[4\]"):
            clustering.build_pattern("c1", partial)

    def test_unequal_counts(self, clients_100):
        lopsided = clients_100[:3] + clients_100[4:]  # drops one label-3 client
        with pytest.raises(DataError, match="equally many"):
            clustering.build_pattern("c3", lopsided)

    def test_c2_needs_even_split(self):
        src = data.generate_synthetic(10, 12, seed=1)
        one_per_label = data.partition_noniid_shards(src, num_clients=10, per_client=12)
        with pytest.raises(DataError, match="odd"):
            clustering.build_pattern("c2", one_per_label)

    def test_c4_needs_multiple_of_ten(self, clients_100):
        with pytest.raises(DataError, match="multiple of 10"):
            clustering.build_pattern("c4", clients_100[:95])

    def test_multi_label_client_rejected(self):
        src = data.generate_synthetic(10, 12, seed=1)
        mixed = [src.take(range(i * 12, i * 12 + 12)) for i in range(10)]
        mixed.append(src.take([0, 13]))  # labels {0, 1}
        with pytest.raises(DataError, match="single-label"):
            clustering.build_pattern("c1", mixed)


class TestValidate:
    def test_duplicate_and_unknown_and_uncovered(self, clients_100):
        good = clustering.build_pattern("c4", clients_100)
        dup = ((0, 1), (1, 2))
        problems = clustering.validate(dup, 3)
        assert any("appears in clusters 0 and 1" in p for p in problems)
        unknown = ((0, 999),)
        assert any("unknown client 999" in p
                   for p in clustering.validate(unknown, 1))
        partial = ((0,),)
        assert any("not in any cluster" in p
                   for p in clustering.validate(partial, 2))
        assert clustering.validate(good, 100) == []

    def test_empty_cluster_flagged(self, clients_100):
        a = (tuple(range(100)), tuple())
        assert "cluster 1 is empty" in clustering.validate(a, 100)

    def test_negative_id_is_unknown(self):
        a = ((0, -1), (1,))
        assert clustering.validate(a, 2) == ["cluster 0 references unknown client -1"]

    def test_shuffled_c2_still_validates(self, clients_100):
        a = clustering.build_pattern("c2", clients_100)
        shuffled = clustering.shuffle_within_clusters(a, seed=3)
        assert clustering.validate(shuffled, len(clients_100)) == []


class TestShuffle:
    def test_preserves_membership_and_is_seeded(self, clients_100):
        a = clustering.build_pattern("c3", clients_100)
        s1 = clustering.shuffle_within_clusters(a, seed=5)
        s2 = clustering.shuffle_within_clusters(a, seed=5)
        s3 = clustering.shuffle_within_clusters(a, seed=6)
        assert s1 == s2
        assert s1 != s3
        for before, after in zip(a, s1):
            assert sorted(before) == sorted(after)
        assert any(before != after for before, after in zip(a, s1))


class TestAssignmentFiles:
    def test_roundtrip(self, tmp_path, clients_100):
        a = clustering.build_pattern("c2", clients_100)
        path = tmp_path / "clusters.txt"
        clustering.save_assignment(a, path)
        loaded = clustering.load_assignment(path)
        assert loaded == a

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# heads\n\n0 1 2\n3 4 5  # tail comment\n")
        loaded = clustering.load_assignment(path)
        assert loaded == ((0, 1, 2), (3, 4, 5))

    def test_utf8_bom_is_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("0 1 2\n3 4\n", encoding="utf-8")
        bom.write_text("\ufeff0 1 2\n3 4\n", encoding="utf-8")
        assert clustering.load_assignment(bom) == clustering.load_assignment(plain) \
            == ((0, 1, 2), (3, 4))

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1\ntwo 3\n")
        with pytest.raises(DataError, match=r"c.txt:2"):
            clustering.load_assignment(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DataError, match="no clusters"):
            clustering.load_assignment(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            clustering.load_assignment("/nonexistent/clusters.txt")
