"""Round-engine tests: aggregation, sequential chains, sampling, baselines."""

import csv
import tracemalloc

import numpy as np
import pytest

from semifl import clustering, data, experiment, federation, nn
from semifl.config import ExperimentConfig
from conftest import images_of, models_equal, small_mlp


@pytest.fixture(scope="module")
def ten_clients(synth_10x12):
    return data.partition_noniid_shards(synth_10x12, num_clients=10, per_client=12)


def fed_cfg(**kw):
    base = dict(mode="semifl", local_epochs=2, local_batch=6, learning_rate=0.05,
                master_seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


def plan(clients, clusters=None, **kw):
    return federation.plan_rounds(fed_cfg(**kw), clients, clusters)


PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
# ten one-client fl chains, or five two-client semifl clusters
LAYOUTS = {"fl": dict(mode="fl"), "semifl": dict(clusters=PAIRS)}


def chain_head(model, clients, chain, cfg, round_idx):
    """Oracle: train the clients of ``chain`` (ids) one after another from ``model``."""
    for cid in chain:
        model, _ = nn.train_local_with_loss(
            model, clients[cid].source.images, clients[cid].rows, clients[cid].labels,
            cfg.local_epochs, cfg.local_batch, cfg.learning_rate,
            federation.stream(cfg.master_seed, 0, round_idx, cid))
    return model


class TestStream:
    def test_reproducible(self):
        a = federation.stream(1, 0, 5, 7).random(4)
        b = federation.stream(1, 0, 5, 7).random(4)
        assert np.array_equal(a, b)

    def test_distinct_per_component(self):
        base = federation.stream(1, 0, 5, 7).random(4)
        for args in ((2, 0, 5, 7), (1, 1, 5, 7), (1, 0, 6, 7), (1, 0, 5, 8)):
            assert not np.array_equal(base, federation.stream(*args).random(4))


class TestAggregateMean:
    def test_identity_for_copies(self):
        m = nn.init_model("mlp", 0)
        for n in (2, 3, 7):
            assert models_equal(federation.aggregate_mean([m] * n), m)

    def test_hand_mean_of_constants(self):
        def const(v):
            return nn.pack("mlp", (
                nn.LayerParams("fc1", np.full((2, 3), v, np.float32),
                               np.full(2, v, np.float32)),))
        got = federation.aggregate_mean([const(1.0), const(2.0), const(6.0)])
        assert np.allclose(got.layers[0].weights, 3.0)
        assert np.allclose(got.layers[0].bias, 3.0)
        assert got.dtype == np.float32

    def test_matches_plain_mean(self):
        models = [nn.init_model("mlp", s) for s in range(4)]
        got = federation.aggregate_mean(models)
        want = np.mean([m.layers[0].weights.astype(np.float64) for m in models],
                       axis=0)
        assert np.allclose(got.layers[0].weights, want, atol=1e-7)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            federation.aggregate_mean([])
        with pytest.raises(ValueError, match="model mismatch: mlp/2 layers vs cnn/4"):
            federation.aggregate_mean([nn.init_model("mlp", 0), nn.init_model("cnn", 0)])
        with pytest.raises(ValueError, match="mismatch"):
            federation.aggregate_mean([nn.init_model("mlp", 0),
                                       small_mlp(0, in_dim=784, hidden=32)])

    def test_iterator_folds_to_the_same_bits(self):
        models = [nn.init_model("mlp", s) for s in range(5)]
        assert models_equal(federation.aggregate_mean(iter(models)),
                            federation.aggregate_mean(models))

    def test_empty_iterator(self):
        with pytest.raises(ValueError, match="cannot aggregate an empty model list"):
            federation.aggregate_mean(iter([]))


class TestPlan:
    def test_chains_are_clusters(self, ten_clients):
        semi = plan(ten_clients, PAIRS)
        assert semi.chains is PAIRS and semi.clients is ten_clients
        fl = plan(ten_clients, mode="fl")
        assert fl.chains == tuple((k,) for k in range(10))
        assert fl.clients is ten_clients
        cl = plan(ten_clients, PAIRS, mode="cl")  # cl ignores the clusters
        assert cl.chains == ((0,),)
        [pool] = cl.clients
        assert pool.source is ten_clients[0].source  # rows of the one training set
        assert np.array_equal(pool.rows, np.concatenate([c.rows for c in ten_clients]))
        assert np.array_equal(pool.labels, np.concatenate([c.labels for c in ten_clients]))


class TestClusterChain:
    def test_chain_equals_primitive_composition(self, ten_clients):
        # full-batch, one epoch: the head must equal composing plain GD steps
        m0 = nn.init_model("mlp", 4)
        head, _ = federation.run_round(
            m0, plan(ten_clients, ((0, 1, 2),), local_epochs=1, local_batch=12,
                     learning_rate=0.1), 1)
        ref = m0
        for c in ten_clients[:3]:
            _, g = nn.loss_and_grads(ref, images_of(c), c.labels)
            ref = nn.sgd_step(ref, g, 0.1)
        assert models_equal(head, ref)

    def test_order_matters(self, ten_clients):
        m0 = nn.init_model("mlp", 4)
        kw = dict(local_epochs=1, local_batch=12, learning_rate=0.1)
        fwd, _ = federation.run_round(m0, plan(ten_clients, ((0, 1, 2),), **kw), 1)
        rev, _ = federation.run_round(m0, plan(ten_clients, ((2, 1, 0),), **kw), 1)
        assert not models_equal(fwd, rev)


class TestSemiflRound:
    def test_snapshot_isolation(self, ten_clients):
        # every cluster must start from the same global model, so a round equals
        # aggregating independently computed heads
        clusters = ((0, 1, 2), (3, 4, 5), (6, 7, 8, 9))
        cfg = fed_cfg()
        m0 = nn.init_model("mlp", 1)
        new, rec = federation.run_round(m0, plan(ten_clients, clusters), 2)
        heads = [chain_head(m0, ten_clients, cl, cfg, 2) for cl in clusters]
        assert models_equal(new, federation.aggregate_mean(heads))
        assert rec.uplink_models == 3
        assert np.isfinite(rec.train_loss)

    def test_deterministic_across_calls(self, ten_clients):
        p = plan(ten_clients, ((0, 1), (2, 3)))
        m0 = nn.init_model("mlp", 2)
        a, _ = federation.run_round(m0, p, 1)
        b, _ = federation.run_round(m0, p, 1)
        assert models_equal(a, b)
        c, _ = federation.run_round(m0, p, 2)
        assert not models_equal(a, c)  # round index feeds the streams


class TestFedavgRound:
    def test_full_participation_equals_primitive_mean(self, ten_clients):
        cfg = fed_cfg(mode="fl")
        m0 = nn.init_model("mlp", 3)
        new, rec = federation.run_round(m0, plan(ten_clients, mode="fl"), 1)
        updates = [chain_head(m0, ten_clients, [cid], cfg, 1) for cid in range(10)]
        assert models_equal(new, federation.aggregate_mean(updates))
        assert rec.uplink_models == 10

    @pytest.mark.parametrize("layout, uploads", [("fl", 4), ("semifl", 2)], ids=LAYOUTS)
    def test_sampling_count_and_determinism(self, ten_clients, layout, uploads):
        p = plan(ten_clients, client_fraction=0.4, **LAYOUTS[layout])
        m0 = nn.init_model("mlp", 3)
        a, rec = federation.run_round(m0, p, 4)
        b, _ = federation.run_round(m0, p, 4)
        assert rec.uplink_models == uploads  # round(0.4 * chains)
        assert models_equal(a, b)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_sampling_varies_by_round(self, ten_clients, monkeypatch, layout):
        trained = []
        original = federation.train_local_with_loss

        def spy(model, images, rows, labels, *args):
            trained[-1].append(int(rows[0]))
            return original(model, images, rows, labels, *args)

        monkeypatch.setattr(federation, "train_local_with_loss", spy)
        # two of ten fl clients, or one of five semifl pairs: two clients either way
        p = plan(ten_clients, client_fraction=0.2, local_epochs=1, **LAYOUTS[layout])
        for t in range(1, 7):
            trained.append([])
            federation.run_round(nn.init_model("mlp", 0), p, t)
        assert all(len(picks) == 2 for picks in trained)
        assert len({tuple(picks) for picks in trained}) > 1

    def test_round_holds_one_head_at_a_time(self, clients_100):
        # the server folds each upload as it arrives: 100 MLP heads held at once
        # would be ~20 MB; one head at a time, the round peaks near 1.2 MB
        p = federation.plan_rounds(fed_cfg(mode="fl", local_epochs=1, local_batch=12),
                                   clients_100)
        m0 = nn.init_model("mlp", 0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, rec = federation.run_round(m0, p, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rec.uplink_models == 100
        assert peak < 4_000_000, f"round peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fraction_floor_one(self, ten_clients, layout):
        p = plan(ten_clients, client_fraction=0.01, **LAYOUTS[layout])
        _, rec = federation.run_round(nn.init_model("mlp", 0), p, 1)
        assert rec.uplink_models == 1  # max(1, round(0.01 * chains))

    @pytest.mark.parametrize("kw", [*LAYOUTS.values(), dict(mode="cl"),
                                    dict(mode="cl", client_fraction=0.3)],
                             ids=[*LAYOUTS, "cl", "cl-fraction"])
    def test_no_sample_stream_when_every_chain_trains(self, ten_clients, monkeypatch, kw):
        # what keeps the C = 1 bits: the sampling stream is drawn only to leave chains out
        kinds = []
        original = federation.stream

        def spy(seed, kind, *args):
            kinds.append(kind)
            return original(seed, kind, *args)

        monkeypatch.setattr(federation, "stream", spy)
        federation.run_round(nn.init_model("mlp", 0), plan(ten_clients, local_epochs=1, **kw), 1)
        assert kinds and federation._KIND_SAMPLE not in kinds


class TestCentralized:
    def test_single_batch_round_is_one_gd_step(self, ten_clients):
        pool = federation.pool_clients(ten_clients)
        m0 = nn.init_model("mlp", 5)
        new, rec = federation.run_round(m0, plan(ten_clients, mode="cl",
                                                 cl_batch=len(pool)), 1)
        _, g = nn.loss_and_grads(m0, images_of(pool), pool.labels)
        assert models_equal(new, nn.sgd_step(m0, g, 0.05))
        assert rec.uplink_models == 0

    def test_round_is_one_epoch(self, ten_clients, monkeypatch):
        calls = []
        original = nn.loss_and_grads

        def spy(model, inputs, labels):
            calls.append(labels.shape[0])
            return original(model, inputs, labels)

        monkeypatch.setattr(nn, "loss_and_grads", spy)
        p = plan(ten_clients, mode="cl", cl_batch=50)  # local_epochs=2 does not apply
        federation.run_round(nn.init_model("mlp", 0), p, 1)
        assert calls == [50, 50, 20]  # ceil(120/50) batches, trailing partial kept

    def test_run_cl_cadence(self, tmp_path):
        cfg = ExperimentConfig(mode="cl", arch="mlp", dataset="synthetic:10x12",
                               clients=10, per_client=12, rounds=5, eval_every=2,
                               cl_batch=60)
        records = experiment.run_experiment(cfg, tmp_path)
        assert len(records) == 5
        evaluated = [r.round for r in records if r.test_accuracy == r.test_accuracy]
        assert evaluated == [2, 4, 5]  # every other round plus the final round


class TestUplinkAccounting:
    def test_reference_counts(self, clients_100):
        # K=100, N=10: fl(C=0.1) trains 10 chains, fl(C=1) 100, semifl 10, cl its one
        c1 = clustering.build_pattern("c1", clients_100)
        semi = federation.plan_rounds(fed_cfg(), clients_100, c1)
        fl10 = federation.plan_rounds(fed_cfg(mode="fl", client_fraction=0.1), clients_100)
        fl100 = federation.plan_rounds(fed_cfg(mode="fl"), clients_100)
        cl = federation.plan_rounds(fed_cfg(mode="cl"), clients_100)
        assert (len(semi.chains), semi.sample, semi.server) == (10, 10, True)
        assert (len(fl10.chains), fl10.sample, fl10.server) == (100, 10, True)
        assert (len(fl100.chains), fl100.sample, fl100.server) == (100, 100, True)
        assert (len(cl.chains), cl.sample, cl.server) == (1, 1, False)

    def test_bytes_scale_with_model(self, tmp_path):
        # a run writes uplink_models x the checkpoint's size in every metrics.csv row
        base = dict(arch="mlp", dataset="synthetic:10x12", clients=10, per_client=12,
                    rounds=2, eval_every=1, local_epochs=1, cl_batch=60)
        for kw, models, pattern in ((dict(mode="fl", client_fraction=0.3), 3, "-"),
                                    (dict(mode="semifl", pattern="c1"), 10, "c1"),
                                    (dict(mode="cl"), 0, "-")):
            out = tmp_path / kw["mode"]
            experiment.run_experiment(ExperimentConfig(**base, **kw), out)
            size = (out / "model_final.sfl1").stat().st_size
            with open(out / "metrics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["round"] for r in rows] == ["1", "2"]
            for r in rows:
                assert (int(r["uplink_models"]), int(r["uplink_bytes"])) == \
                    (models, models * size)
                assert (r["mode"], r["pattern"]) == (kw["mode"], pattern)

    def test_semifl_fraction_samples_clusters(self, tmp_path, monkeypatch):
        # C = 0.3 over 10 clusters of 10 clients: 3 uploads a round, drawn by (seed, round)
        draws = []
        original = federation.stream

        def spy(seed, kind, *args):
            if kind == federation._KIND_SAMPLE:
                draws.append((seed, *args))
            return original(seed, kind, *args)

        monkeypatch.setattr(federation, "stream", spy)
        cfg = ExperimentConfig(mode="semifl", pattern="c1", arch="mlp",
                               dataset="synthetic:10x120", clients=100, per_client=12,
                               rounds=3, eval_every=3, local_epochs=1, local_batch=12,
                               client_fraction=0.3, master_seed=5)
        experiment.run_experiment(cfg, tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert [r["uplink_models"] for r in csv.DictReader(fh)] == ["3", "3", "3"]
        assert draws == [(5, 1), (5, 2), (5, 3)]


class TestDivergence:
    def test_nonfinite_loss_names_round_chain_client(self, ten_clients):
        # one full-batch step per client: each chain's first loss is still finite,
        # the second client of chain 1 starts from a blown-up model
        p = plan(ten_clients, ((4,), (2, 3)), local_epochs=1, local_batch=12,
                 learning_rate=1e30)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match=r"round 3, chain 1, client 3: "
                                                        r"training loss is nan"):
            federation.run_round(nn.init_model("mlp", 0), p, 3)

    def test_pooled_set_named_in_cl(self, ten_clients):
        p = plan(ten_clients, mode="cl", cl_batch=120, learning_rate=1e30)
        model, _ = federation.run_round(nn.init_model("mlp", 0), p, 1)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="round 2, chain 0, the pooled set"):
            federation.run_round(model, p, 2)

    def test_nonfinite_parameters_name_round_and_layer(self, ten_clients):
        # a single full-batch step per chain: every loss is finite, the weights are not
        p = plan(ten_clients, ((4,), (2,)), local_epochs=1, local_batch=12,
                 learning_rate=1e39)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError,
                              match="round 2: layer fc1 has non-finite parameters"):
            federation.run_round(nn.init_model("mlp", 0), p, 2)


class TestPool:
    def test_pool_concatenates_ascending(self, ten_clients):
        pool = federation.pool_clients(ten_clients)
        assert len(pool) == 120
        for cid in range(10):
            rows = slice(12 * cid, 12 * (cid + 1))
            assert np.array_equal(pool.rows[rows], ten_clients[cid].rows)
            assert np.array_equal(pool.labels[rows], ten_clients[cid].labels)
        assert pool.source is ten_clients[0].source

    def test_clients_of_two_training_sets_are_refused(self, ten_clients):
        other = data.generate_synthetic(10, 12, seed=42)  # equal values, another array
        with pytest.raises(ValueError, match="different training sets"):
            federation.pool_clients([*ten_clients, other.shard([0])])
