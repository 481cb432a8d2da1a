"""Acceptance gate: one test per top-level criterion, each printing a
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or ``-rA``).

Criteria 1, 2, and 6 run on synthetic data and always execute.  Criteria 3,
4, and 5 need the real MNIST IDX files and skip (with a reason) when the
files are not present; place them under ``./data`` or point SEMIFL_DATA_DIR
at them.  Criterion 4 is additionally marked ``slow`` (hours of compute):
``pytest -m slow tests/test_acceptance.py`` opts in.
"""

import time

import numpy as np
import pytest

from semifl import checkpoint, clustering, data, federation, metrics, nn
from semifl.config import ExperimentConfig
from conftest import models_equal, max_param_diff

EPOCHS_DESK = 5
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
    m_mlp = nn.init_mlp(5, in_dim=12, hidden=4, out_dim=10)
    rng = np.random.default_rng(9)
    gc_mlp = nn.grad_check(m_mlp, rng.random((6, 12)).astype(np.float32),
                           rng.integers(0, 10, 6))
    m_cnn = nn.init_cnn(11, conv1=2, conv2=3, hidden=4, image_size=16)
    gc_cnn = nn.grad_check(m_cnn, np.random.default_rng(99).random(
        (2, 1, 16, 16)).astype(np.float32), np.array([0, 7]), step=1e-4)
    assert gc_mlp <= 1e-3 and gc_cnn <= 1e-3

    # partition disjointness + single-label purity
    src = data.generate_synthetic(10, 30, seed=3)
    shards = data.partition_noniid_shards(src, 20, 10)
    keys = [img.tobytes() for c in shards for img in c.images]
    assert len(keys) == len(set(keys)) == 200
    assert all(len(c.distinct_labels) == 1 for c in shards)
    iid = data.partition_iid(src, 10, 25, seed=1)
    ikeys = [img.tobytes() for c in iid for img in c.images]
    assert len(ikeys) == len(set(ikeys)) == 250

    # c1..c4 postconditions
    for pat in clustering.PATTERNS:
        a = clustering.build_pattern(pat, clients_100)
        assert clustering.validate(a, len(clients_100)) == []
        assert sorted(cid for cl in a.clusters for cid in cl) == list(range(100))
    c1 = clustering.build_pattern("c1", clients_100)
    assert all(len({clients_100[c].distinct_labels[0] for c in cl}) == 1
               for cl in c1.clusters)
    c3 = clustering.build_pattern("c3", clients_100)
    assert all(sorted(clients_100[c].distinct_labels[0] for c in cl) == list(range(10))
               for cl in c3.clusters)

    # acs / red identities
    w = np.random.default_rng(4).normal(size=(3, 2, 25))
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
    m = nn.init_mlp(1)
    assert models_equal(federation.aggregate_mean([m, m, m]), m)
    two = federation.aggregate_mean([nn.init_mlp(1), nn.init_mlp(2)])
    want = 0.5 * (nn.init_mlp(1).layer("fc1").weights.astype(np.float64)
                  + nn.init_mlp(2).layer("fc1").weights.astype(np.float64))
    assert np.allclose(two.layer("fc1").weights, want, atol=1e-7)

    report("criterion 1: synthetic property suite",
           True, f"grad mlp {gc_mlp:.1e}, cnn {gc_cnn:.1e}; {time.time() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: equivalence oracles


def test_criterion_2a_singleton_clusters_match_fedavg(clients_100):
    singletons = clustering.ClusterAssignment(
        "explicit", tuple((cid,) for cid in range(len(clients_100))))
    local = dict(local_epochs=2, local_batch=6, learning_rate=0.05, master_seed=13)
    semi = federation.plan_rounds(ExperimentConfig(mode="semifl", **local), clients_100,
                                  singletons)
    fl = federation.plan_rounds(ExperimentConfig(mode="fl", client_fraction=1.0, **local),
                                clients_100)
    a = b = nn.init_mlp(13)
    for t in (1, 2, 3):
        a, rec_a = federation.run_round(a, semi, t)
        b, rec_b = federation.run_round(b, fl, t)
        assert models_equal(a, b), f"diverged at round {t}"
        assert rec_a.uplink_models == rec_b.uplink_models == 100
    report("criterion 2a: 100 singleton clusters == FedAvg(C=1), 3 rounds",
           True, "bit-identical parameters each round")


def test_criterion_2b_full_batch_chain_is_gd(synth_10x12):
    k = 5
    shared = synth_10x12  # every client holds the identical dataset
    cluster = [shared] * k
    cfg = ExperimentConfig(mode="semifl", local_epochs=1, local_batch=len(shared),
                           learning_rate=0.1, master_seed=21)
    chain = clustering.ClusterAssignment("explicit", (tuple(range(k)),))
    model64 = nn.init_mlp(21).astype(np.float64)
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
# criterion 6: communication ledger


def test_criterion_6_uplink_counts(clients_100):
    # live rounds over 100 clients / 10 clusters
    local = dict(local_epochs=1, local_batch=12, learning_rate=0.01, master_seed=0)
    m0 = nn.init_mlp(0)
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


def _train(arch, mode, seed, rounds, epochs, clients, assignment=None, fraction=1.0):
    cfg = ExperimentConfig(mode=mode, arch=arch, local_epochs=epochs, local_batch=20,
                           learning_rate=0.01, client_fraction=fraction, cl_batch=200,
                           master_seed=seed)
    plan = federation.plan_rounds(cfg, clients, assignment)
    model = nn.init_model(arch, seed)
    for t in range(1, rounds + 1):
        model, _ = federation.run_round(model, plan, t)
    return model


def _desk_train(mode, seed, test, clients, assignment=None, fraction=1.0, rounds=30):
    model = _train("mlp", mode, seed, rounds, EPOCHS_DESK, clients, assignment, fraction)
    return model, metrics.evaluate_accuracy(model, test.images, test.labels)


@pytest.fixture(scope="module")
def desk_results(mnist_sets):
    """Final model + accuracy for every desk-scale variant, per seed."""
    train, test = mnist_sets
    results = {}
    for seed in DESK_SEEDS:
        clients = data.partition_noniid_shards(train, 100, 100)
        variants = {
            "c1": ("semifl", dict(assignment=clustering.build_pattern("c1", clients))),
            "c2": ("semifl", dict(assignment=clustering.build_pattern("c2", clients))),
            "c3": ("semifl", dict(assignment=clustering.build_pattern("c3", clients))),
            "fl100": ("fl", dict(fraction=1.0)),
            "fl10": ("fl", dict(fraction=0.1)),
            "cl": ("cl", {}),
        }
        for name, (mode, kw) in variants.items():
            model, acc = _desk_train(mode, seed, test, clients, **kw)
            results[(seed, name)] = (model, acc)
    return results


def _majority(flags):
    return sum(flags) >= 2


def test_criterion_3_desk_scale_ordering(desk_results):
    margin = 0.02
    acc = {k: v[1] for k, v in desk_results.items()}
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
    red_flags, acs_flags, details = [], [], []
    for s in DESK_SEEDS:
        ref = desk_results[(s, "cl")][0].layer("fc1").weights
        reds = {n: metrics.red(desk_results[(s, n)][0].layer("fc1").weights, ref)
                for n in rank}
        acss = {n: metrics.acs(
                    metrics.fiber_view(desk_results[(s, n)][0].layer("fc1").weights),
                    metrics.fiber_view(ref))
                for n in rank}
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
def test_criterion_4_full_scale(mnist_sets):
    train, test = mnist_sets

    def run(mode, clients, assignment=None, fraction=1.0):
        model = _train("cnn", mode, 0, 200, 5, clients, assignment, fraction)
        return metrics.evaluate_accuracy(model, test.images, test.labels)

    # 542/client is the largest single-label shard size that gives all ten
    # labels ten whole shards (the rarest label has 5421 training examples),
    # which the label patterns need; 600/client would leave only 94 shards.
    noniid = data.partition_noniid_shards(train, 100, 542)
    iid = data.partition_iid(train, 100, 600, seed=0)

    acc = {
        "c3": run("semifl", noniid,
                  assignment=clustering.build_pattern("c3", noniid)),
        "fl100": run("fl", noniid, fraction=1.0),
        "fl10": run("fl", noniid, fraction=0.1),
        "iid_fl100": run("fl", iid, fraction=1.0),
        "iid_semifl": run("semifl", iid,
                          assignment=clustering.build_pattern("c4", iid)),
    }
    bands = {"c3": (0.98, 0.01), "fl100": (0.88, 0.03), "fl10": (0.80, 0.05),
             "iid_fl100": (0.94, 0.02), "iid_semifl": (0.98, 0.01)}
    checks = {name: abs(acc[name] - mid) <= tol for name, (mid, tol) in bands.items()}
    detail = ", ".join(f"{n}={acc[n]:.3f} (want {m}±{t})"
                       for n, (m, t) in bands.items())
    report("criterion 4: full-scale accuracy bands", all(checks.values()), detail)
