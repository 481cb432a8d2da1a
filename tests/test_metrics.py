"""Accuracy and divergence-metric tests."""

import math

import numpy as np
import pytest

from semifl import metrics, nn


def constant_predictor(cls: int) -> nn.ModelParams:
    """mlp whose logits are a constant bias vector favouring ``cls``."""
    w1 = np.zeros((4, 784), dtype=np.float32)
    b1 = np.zeros(4, dtype=np.float32)
    w2 = np.zeros((10, 4), dtype=np.float32)
    b2 = np.zeros(10, dtype=np.float32)
    b2[cls] = 1.0
    return nn.ModelParams("mlp", (nn.LayerParams("fc1", w1, b1),
                                  nn.LayerParams("fc2", w2, b2)))


class TestEvaluateAccuracy:
    def test_constant_predictor(self):
        rng = np.random.default_rng(0)
        images = rng.random((40, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, 40)
        model = constant_predictor(3)
        want = float((labels == 3).mean())
        assert metrics.evaluate_accuracy(model, images, labels) == pytest.approx(want)

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(1)
        images = rng.random((10, 1, 28, 28)).astype(np.float32)
        model = constant_predictor(0)
        model.layers[1].bias[:] = 0.0  # all logits equal -> argmax picks class 0
        assert metrics.evaluate_accuracy(model, images, np.zeros(10, np.int64)) == 1.0
        assert metrics.evaluate_accuracy(model, images, np.ones(10, np.int64)) == 0.0

    def test_batch_size_irrelevant(self):
        rng = np.random.default_rng(2)
        images = rng.random((33, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, 33)
        m = nn.init_mlp(3)
        a = metrics.evaluate_accuracy(m, images, labels, batch_size=7)
        b = metrics.evaluate_accuracy(m, images, labels, batch_size=512)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.evaluate_accuracy(nn.init_mlp(0),
                                      np.zeros((0, 1, 28, 28), np.float32),
                                      np.zeros(0, np.int64))


class TestCosine:
    def test_identity_is_one(self):
        w = np.random.default_rng(3).normal(size=(4, 3, 25))
        assert metrics.acs(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        w = np.random.default_rng(4).normal(size=(2, 5, 9))
        assert metrics.acs(2.5 * w, w) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_is_minus_one(self):
        w = np.random.default_rng(5).normal(size=(2, 2, 7))
        assert metrics.acs(-w, w) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        a = np.array([[[1.0, 0.0], [0.0, 2.0]]])
        b = np.array([[[2.0, 0.0], [0.0, -1.0]]])  # cosines: +1 and -1
        assert metrics.acs(a, b) == pytest.approx(0.0, abs=1e-12)
        cm = metrics.cosine_map(a, b)
        assert cm.shape == (1, 2)
        assert cm[0, 0] == pytest.approx(1.0)
        assert cm[0, 1] == pytest.approx(-1.0)

    def test_zero_fiber_clamped_to_zero(self):
        zero = np.zeros((1, 1, 2))
        unit = np.array([[[1.0, 0.0]]])
        assert metrics.acs(zero, unit) == 0.0
        assert metrics.acs(zero, zero) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 3, 4, 11))
        cm = metrics.cosine_map(a, b)
        assert np.all(cm <= 1.0 + 1e-12) and np.all(cm >= -1.0 - 1e-12)

    def test_input_errors(self):
        with pytest.raises(ValueError, match="shape"):
            metrics.cosine_map(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))
        with pytest.raises(ValueError, match="rank-3"):
            metrics.cosine_map(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_independent_recomputation(self):
        # brute-force float64 oracle over individual fibers
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 4, 25))
        b = rng.normal(size=(5, 4, 25))
        total = 0.0
        for i in range(5):
            for j in range(4):
                dot = sum(float(x) * float(y) for x, y in zip(a[i, j], b[i, j]))
                na = math.sqrt(sum(float(x) ** 2 for x in a[i, j]))
                nb = math.sqrt(sum(float(y) ** 2 for y in b[i, j]))
                total += dot / (max(na, 1e-8) * max(nb, 1e-8))
        assert metrics.acs(a, b) == pytest.approx(total / 20, abs=1e-12)


class TestRed:
    def test_identity_zero(self):
        w = np.random.default_rng(8).normal(size=(10, 10))
        assert metrics.red(w, w) == 0.0

    def test_hand_values(self):
        assert metrics.red(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(1.0)
        base = np.array([3.0, 4.0])
        assert metrics.red(1.5 * base, base) == pytest.approx(0.5)

    def test_independent_recomputation(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 7))
        b = rng.normal(size=(6, 7))
        num = math.sqrt(sum((float(x) - float(y)) ** 2
                            for x, y in zip(a.ravel(), b.ravel())))
        den = math.sqrt(sum(float(y) ** 2 for y in b.ravel()))
        assert metrics.red(a, b) == pytest.approx(num / den, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            metrics.red(np.ones(3), np.zeros(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.red(np.ones(3), np.ones(4))


class TestFiberView:
    def test_conv_view(self):
        w = np.arange(2 * 3 * 5 * 5).reshape(2, 3, 5, 5).astype(np.float64)
        v = metrics.fiber_view(w)
        assert v.shape == (2, 3, 25)
        assert np.array_equal(v[1, 2], w[1, 2].ravel())

    def test_fc_view(self):
        w = np.arange(12).reshape(3, 4).astype(np.float64)
        v = metrics.fiber_view(w)
        assert v.shape == (1, 3, 4)
        assert np.array_equal(v[0], w)

    def test_rank_errors(self):
        with pytest.raises(ValueError, match="fiber view"):
            metrics.fiber_view(np.zeros(5))


class TestLayerDivergence:
    def test_same_model_reports_identity(self):
        m = nn.init_cnn(1)
        report = metrics.layer_divergence(m, m)
        assert [e.layer for e in report.entries] == ["conv1", "conv2", "fc3", "fc4"]
        for e in report.entries:
            assert e.acs == pytest.approx(1.0, abs=1e-9)
            assert e.red == 0.0

    def test_entries_match_direct_computation(self):
        a, b = nn.init_cnn(2), nn.init_cnn(3)
        report = metrics.layer_divergence(a, b)
        want_acs = metrics.acs(metrics.fiber_view(a.layers[0].weights),
                               metrics.fiber_view(b.layers[0].weights))
        want_red = metrics.red(a.layers[0].weights, b.layers[0].weights)
        assert report.entry("conv1").acs == pytest.approx(want_acs)
        assert report.entry("conv1").red == pytest.approx(want_red)

    def test_arch_mismatch(self):
        with pytest.raises(ValueError, match="model mismatch: mlp/2 layers vs cnn/4"):
            metrics.layer_divergence(nn.init_mlp(0), nn.init_cnn(0))
        with pytest.raises(ValueError, match="layer fc1: shape mismatch"):
            metrics.layer_divergence(nn.init_mlp(0), nn.init_mlp(0, hidden=32))

    def test_csv_format(self):
        report = metrics.layer_divergence(nn.init_mlp(4), nn.init_mlp(5),
                                          subject_id="a.sfl1", reference_id="b.sfl1")
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "# subject=a.sfl1 reference=b.sfl1"
        assert lines[1] == "layer,acs,red"
        assert len(lines) == 4  # two weight layers
        name, a, r = lines[2].split(",")
        assert name == "fc1"
        float(a), float(r)  # parseable
