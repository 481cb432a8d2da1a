"""Acceptance gate: one test per top-level criterion, each printing a
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or ``-rA``).

Criteria 1, 2, and 6 run on synthetic data and always execute.  Criteria 3,
4, and 5 need the real MNIST IDX files and skip (with a reason) when the
files are not present; place them under ``./data`` or point SEMIFL_DATA_DIR
at them.  Criterion 4 is additionally marked ``slow`` (hours of compute):
``pytest -m slow --basetemp DIR tests/test_acceptance.py`` opts in, and
criterion 4 fails at once without ``--basetemp``.

Criteria 3, 4 and 5 train each run with ``run_experiment``, the driver behind
``semifl train``, into a run directory under pytest's temporary directory
(criterion 4 prints where).  The desk runs also go on a synthetic stand-in.
"""

import time

import numpy as np
import pytest

from semifl import checkpoint, clustering, data, federation, metrics, nn
from semifl.config import ExperimentConfig
from semifl.experiment import run_experiment, summarize_run
from conftest import images_of, max_param_diff, models_equal, small_cnn, small_mlp

DESK_SEEDS = (0, 1, 2)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: fast synthetic property suite


def test_criterion_1_property_suite(clients_100, tmp_path):
    t0 = time.time()

    # gradient checks <= 1e-3 relative
    m_mlp = small_mlp(5, in_dim=12, hidden=4)
    rng = np.random.default_rng(9)
    gc_mlp = nn.grad_check(m_mlp, rng.random((6, 12)).astype(np.float32),
                           rng.integers(0, 10, 6))
    m_cnn = small_cnn(11, conv1=2, conv2=3, hidden=4, image_size=16)
    gc_cnn = nn.grad_check(m_cnn, np.random.default_rng(99).random(
        (2, 1, 16, 16)).astype(np.float32), np.array([0, 7]), step=1e-4)
    assert gc_mlp <= 1e-3 and gc_cnn <= 1e-3

    # partition disjointness + single-label purity
    src = data.generate_synthetic(10, 30, seed=3)
    shards = data.partition_noniid_shards(src, 20, 10)
    assert all(c.source is src for c in shards)
    keys = [img.tobytes() for c in shards for img in images_of(c)]
    assert len(keys) == len(set(keys)) == 200
    assert all(len(c.distinct_labels) == 1 for c in shards)
    iid = data.partition_iid(src, 10, 25, seed=1)
    ikeys = [img.tobytes() for c in iid for img in images_of(c)]
    assert len(ikeys) == len(set(ikeys)) == 250

    # c1..c4 postconditions
    for pat in clustering.PATTERNS:
        a = clustering.build_pattern(pat, clients_100)
        assert clustering.validate(a, len(clients_100)) == []
        assert sorted(cid for cl in a for cid in cl) == list(range(100))
    c1 = clustering.build_pattern("c1", clients_100)
    assert all(len({clients_100[c].distinct_labels[0] for c in cl}) == 1
               for cl in c1)
    c3 = clustering.build_pattern("c3", clients_100)
    assert all(sorted(clients_100[c].distinct_labels[0] for c in cl) == list(range(10))
               for cl in c3)

    # acs / red identities
    w = np.random.default_rng(4).normal(size=(3, 2, 5, 5))
    assert metrics.acs(w, w) == pytest.approx(1.0, abs=1e-12)
    assert metrics.acs(-w, w) == pytest.approx(-1.0, abs=1e-12)
    assert metrics.red(w, w) == 0.0
    assert metrics.red(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(1.0)

    # checkpoint round-trip, bit exact
    for arch in ("mlp", "cnn"):
        model = nn.init_model(arch, 8)
        path = tmp_path / f"acceptance_{arch}.sfl1"
        checkpoint.save_checkpoint(model, path)
        assert models_equal(checkpoint.load_checkpoint(path), model)

    # aggregation identities
    m = nn.init_model("mlp", 1)
    assert models_equal(federation.aggregate_mean([m, m, m]), m)
    two = federation.aggregate_mean([nn.init_model("mlp", 1), nn.init_model("mlp", 2)])
    want = 0.5 * (nn.init_model("mlp", 1).layers[0].weights.astype(np.float64)
                  + nn.init_model("mlp", 2).layers[0].weights.astype(np.float64))
    assert np.allclose(two.layers[0].weights, want, atol=1e-7)

    report("criterion 1: synthetic property suite",
           True, f"grad mlp {gc_mlp:.1e}, cnn {gc_cnn:.1e}; {time.time() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: equivalence oracles


def test_criterion_2a_singleton_clusters_match_fedavg(clients_100):
    singletons = tuple((cid,) for cid in range(len(clients_100)))
    local = dict(local_epochs=2, local_batch=6, learning_rate=0.05, master_seed=13)
    semi = federation.plan_rounds(ExperimentConfig(mode="semifl", **local), clients_100,
                                  singletons)
    fl = federation.plan_rounds(ExperimentConfig(mode="fl", client_fraction=1.0, **local),
                                clients_100)
    a = b = c = nn.init_model("mlp", 13)
    for t in (1, 2, 3):
        a, rec_a = federation.run_round(a, semi, t)
        b, rec_b = federation.run_round(b, fl, t)
        # FedAvg from its primitives, outside the round engine: every client
        # trains from the global model on its own stream, then a plain mean
        c = federation.aggregate_mean([
            nn.train_local_with_loss(c, cl.source.images, cl.rows, cl.labels,
                                     local["local_epochs"], local["local_batch"],
                                     local["learning_rate"],
                                     federation.stream(local["master_seed"], 0, t, cid))[0]
            for cid, cl in enumerate(clients_100)])
        assert models_equal(a, b), f"diverged at round {t}"
        assert models_equal(a, c), f"diverged from the primitive FedAvg at round {t}"
        assert rec_a.uplink_models == rec_b.uplink_models == 100
    report("criterion 2a: 100 singleton clusters == FedAvg(C=1), 3 rounds",
           True, "bit-identical parameters each round, engine and primitive FedAvg")


def test_criterion_2b_full_batch_chain_is_gd(synth_10x12):
    k = 5
    shared = synth_10x12  # every client holds the identical dataset
    cluster = [shared.shard(np.arange(len(shared)))] * k
    cfg = ExperimentConfig(mode="semifl", local_epochs=1, local_batch=len(shared),
                           learning_rate=0.1, master_seed=21)
    chain = (tuple(range(k)),)
    model64 = nn.init_model("mlp", 21).astype(np.float64)
    x64 = shared.images.astype(np.float64)

    head, _ = federation.run_round(model64, federation.plan_rounds(cfg, cluster, chain), 1)
    ref = model64
    for _ in range(k):
        _, g = nn.loss_and_grads(ref, x64, shared.labels)
        ref = nn.sgd_step(ref, g, 0.1)
    diff = max_param_diff(head, ref)
    report("criterion 2b: identical-data full-batch chain == k GD steps (64-bit)",
           diff == 0.0, f"max abs diff {diff}")


# ---------------------------------------------------------------------------
# criterion 6: uplink counts


def test_criterion_6_uplink_counts(clients_100):
    # live rounds over 100 clients / 10 clusters
    local = dict(local_epochs=1, local_batch=12, learning_rate=0.01, master_seed=0)
    m0 = nn.init_model("mlp", 0)
    c1 = clustering.build_pattern("c1", clients_100)
    plans = {
        "fl 10%": federation.plan_rounds(
            ExperimentConfig(mode="fl", client_fraction=0.1, **local), clients_100),
        "fl 100%": federation.plan_rounds(
            ExperimentConfig(mode="fl", client_fraction=1.0, **local), clients_100),
        "semifl": federation.plan_rounds(ExperimentConfig(mode="semifl", **local),
                                         clients_100, c1),
    }
    counts = {name: federation.run_round(m0, p, 1)[1].uplink_models
              for name, p in plans.items()}
    assert counts == {"fl 10%": 10, "fl 100%": 100, "semifl": 10}
    report("criterion 6: per-round uplink models", True,
           "fl(10%)=10, fl(100%)=100, semifl=10")


# ---------------------------------------------------------------------------
# criteria 3 and 5: desk-scale MNIST runs (skipped when MNIST is absent)

LOCAL = dict(local_epochs=5, local_batch=20, learning_rate=0.01, cl_batch=200)
DESK_VARIANTS = {
    "c1": dict(mode="semifl", pattern="c1"),
    "c2": dict(mode="semifl", pattern="c2"),
    "c3": dict(mode="semifl", pattern="c3"),
    "fl100": dict(mode="fl", client_fraction=1.0),
    "fl10": dict(mode="fl", client_fraction=0.1),
    "cl": dict(mode="cl"),
}


def desk_runs(dataset, data_dir, clients, per_client, rounds, out_root):
    """{(seed, variant): (records, run dir)} of an MLP over the noniid partition,
    per desk seed and variant, each run into ``out_root/seed<s>_<variant>``."""
    results = {}
    for seed in DESK_SEEDS:
        for name, fields in DESK_VARIANTS.items():
            cfg = ExperimentConfig(arch="mlp", dataset=dataset, data_dir=data_dir,
                                   partition="noniid", clients=clients,
                                   per_client=per_client, rounds=rounds, eval_every=rounds,
                                   master_seed=seed, **LOCAL, **fields)
            out = out_root / f"seed{seed}_{name}"
            results[(seed, name)] = (run_experiment(cfg, out), out)
    return results


@pytest.fixture(scope="module")
def desk_results(mnist_dir, tmp_path_factory):
    return desk_runs("mnist", mnist_dir, 100, 100, 30, tmp_path_factory.mktemp("desk"))


def test_desk_runs_on_synthetic_stand_in(tmp_path):
    # structure only: the orderings of criteria 3 and 5 do not hold on this data
    results = desk_runs("synthetic:10x20", "", 20, 10, 2, tmp_path)
    assert sorted(results) == sorted((s, n) for s in DESK_SEEDS for n in DESK_VARIANTS)
    uplinks = {"c1": 10, "c2": 10, "c3": 2, "fl100": 20, "fl10": 2, "cl": 0}
    for (_, name), (records, out) in results.items():
        assert [r.uplink_models for r in records] == [uplinks[name]] * 2
        assert 0.0 <= summarize_run(out)["final_accuracy"] <= 1.0  # reads metrics.csv
        checkpoint.load_checkpoint(out / "model_final.sfl1")


def _majority(flags):
    return sum(flags) >= 2


def test_criterion_3_desk_scale_ordering(desk_results):
    margin = 0.02
    acc = {k: records[-1].test_accuracy for k, (records, _) in desk_results.items()}
    p1 = [acc[(s, "c3")] > acc[(s, "c2")] - margin for s in DESK_SEEDS]
    p2 = [acc[(s, "c2")] > acc[(s, "c1")] - margin for s in DESK_SEEDS]
    p3 = [acc[(s, "c3")] >= acc[(s, "fl100")] + 0.05 - margin for s in DESK_SEEDS]
    p4 = [acc[(s, "c3")] >= acc[(s, "cl")] - 0.03 - margin for s in DESK_SEEDS]
    detail = "; ".join(
        f"seed {s}: c1={acc[(s, 'c1')]:.3f} c2={acc[(s, 'c2')]:.3f} "
        f"c3={acc[(s, 'c3')]:.3f} fl100={acc[(s, 'fl100')]:.3f} cl={acc[(s, 'cl')]:.3f}"
        for s in DESK_SEEDS)
    ok = all(_majority(p) for p in (p1, p2, p3, p4))
    report("criterion 3: desk-scale accuracy ordering", ok, detail)


def test_criterion_5_divergence_ordering(desk_results):
    rank = ("fl10", "fl100", "c1", "c2", "c3")
    first = {k: checkpoint.load_checkpoint(out / "model_final.sfl1").layers[0].weights
             for k, (_, out) in desk_results.items()}
    red_flags, acs_flags, details = [], [], []
    for s in DESK_SEEDS:
        ref = first[(s, "cl")]
        reds = {n: metrics.red(first[(s, n)], ref) for n in rank}
        acss = {n: metrics.acs(first[(s, n)], ref) for n in rank}
        red_flags.append(all(reds[rank[i]] > reds[rank[i + 1]]
                             for i in range(len(rank) - 1)))
        acs_flags.append(all(acss[rank[i]] < acss[rank[i + 1]]
                             for i in range(len(rank) - 1)))
        details.append("seed %d reds: %s" % (
            s, " > ".join(f"{n}={reds[n]:.3f}" for n in rank)))
    ok = _majority(red_flags) and _majority(acs_flags)
    report("criterion 5: first-layer divergence rank order", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: full-scale reproduction (slow; opt in with -m slow)


@pytest.mark.slow
def test_criterion_4_full_scale(mnist_dir, tmp_path_factory, request):
    if request.config.getoption("basetemp") is None:
        pytest.fail("criterion 4's runs take hours and pytest deletes its temporary "
                    "roots after three sessions: run it with --basetemp DIR")
    out_root = tmp_path_factory.mktemp("criterion4")
    # 542/client is the largest single-label shard size that gives all ten
    # labels ten whole shards (the rarest label has 5421 training examples),
    # which the label patterns need; 600/client would leave only 94 shards.
    noniid = dict(partition="noniid", per_client=542)
    iid = dict(partition="iid", per_client=600)
    variants = {
        "c3": dict(mode="semifl", pattern="c3", **noniid),
        "fl100": dict(mode="fl", client_fraction=1.0, **noniid),
        "fl10": dict(mode="fl", client_fraction=0.1, **noniid),
        "iid_fl100": dict(mode="fl", client_fraction=1.0, **iid),
        "iid_semifl": dict(mode="semifl", pattern="c4", **iid),
    }
    acc = {}
    for name, fields in variants.items():
        cfg = ExperimentConfig(arch="cnn", dataset="mnist", data_dir=mnist_dir, clients=100,
                               rounds=200, master_seed=0, **LOCAL, **fields)
        acc[name] = run_experiment(cfg, out_root / name)[-1].test_accuracy
    bands = {"c3": (0.98, 0.01), "fl100": (0.88, 0.03), "fl10": (0.80, 0.05),
             "iid_fl100": (0.94, 0.02), "iid_semifl": (0.98, 0.01)}
    checks = {name: abs(acc[name] - mid) <= tol for name, (mid, tol) in bands.items()}
    detail = ", ".join(f"{n}={acc[n]:.3f} (want {m}±{t})"
                       for n, (m, t) in bands.items())
    report("criterion 4: full-scale accuracy bands", all(checks.values()),
           f"{detail}; runs in {out_root}")
