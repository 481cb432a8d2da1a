"""Accuracy and divergence-metric tests."""

import json
import math

import numpy as np
import pytest

from semifl import metrics, nn
from conftest import other_blas_settings, run_child, small_mlp


def constant_predictor(cls: int) -> nn.ModelParams:
    """mlp whose logits are a constant bias vector favouring ``cls``."""
    w1 = np.zeros((4, 784), dtype=np.float32)
    b1 = np.zeros(4, dtype=np.float32)
    w2 = np.zeros((10, 4), dtype=np.float32)
    b2 = np.zeros(10, dtype=np.float32)
    b2[cls] = 1.0
    return nn.pack("mlp", (nn.LayerParams("fc1", w1, b1), nn.LayerParams("fc2", w2, b2)))


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
        # 600 examples take two forward calls, 512 and 88; their hits add up
        rng = np.random.default_rng(2)
        images = rng.random((600, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, 600)
        m = nn.init_model("mlp", 3)
        cut = metrics.EVAL_BATCH
        assert cut == 512
        head = metrics.evaluate_accuracy(m, images[:cut], labels[:cut])
        tail = metrics.evaluate_accuracy(m, images[cut:], labels[cut:])
        assert metrics.evaluate_accuracy(m, images, labels) == \
            pytest.approx((cut * head + (600 - cut) * tail) / 600, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.evaluate_accuracy(nn.init_model("mlp", 0),
                                      np.zeros((0, 1, 28, 28), np.float32),
                                      np.zeros(0, np.int64))


# conv (out, in, kh, kw) and fc (out, in) weights, as stored
SHAPES = [(4, 3, 5, 5), (2, 5, 3, 3), (6, 11)]


class TestCosine:
    def test_identity_is_one(self):
        for shape in SHAPES:
            w = np.random.default_rng(3).normal(size=shape)
            assert metrics.acs(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        for shape in SHAPES:
            w = np.random.default_rng(4).normal(size=shape)
            assert metrics.acs(2.5 * w, w) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_is_minus_one(self):
        for shape in SHAPES:
            w = np.random.default_rng(5).normal(size=shape)
            assert metrics.acs(-w, w) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 0.0], [0.0, -1.0]])  # row cosines: +1 and -1
        assert metrics.acs(a, b) == pytest.approx(0.0, abs=1e-12)
        assert metrics.acs(a[:1], b[:1]) == pytest.approx(1.0)
        assert metrics.acs(a[1:], b[1:]) == pytest.approx(-1.0)
        # as a (1, 2, 1, 2) conv the same rows are its two kernels
        assert metrics.acs(a.reshape(1, 2, 1, 2),
                           b.reshape(1, 2, 1, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_fiber_clamped_to_zero(self):
        zero = np.zeros((1, 2))
        unit = np.array([[1.0, 0.0]])
        assert metrics.acs(zero, unit) == 0.0
        assert metrics.acs(zero, zero) == 0.0
        assert metrics.acs(zero.reshape(1, 1, 1, 2), unit.reshape(1, 1, 1, 2)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 24, 11))
        for i in range(24):  # one fiber at a time
            assert -1.0 - 1e-12 <= metrics.acs(a[i:i + 1], b[i:i + 1]) <= 1.0 + 1e-12

    def test_input_errors(self):
        with pytest.raises(ValueError, match="shape"):
            metrics.acs(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 3, 4)))
        with pytest.raises(ValueError, match="shape"):
            metrics.acs(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_independent_recomputation(self):
        # brute-force float64 oracle over individual fibers
        rng = np.random.default_rng(7)
        for shape in [(5, 4, 5, 5), (7, 9)]:
            a = rng.normal(size=shape)
            b = rng.normal(size=shape)
            fibers = list(np.ndindex(shape[:len(shape) // 2]))  # (out, in) or (out,)
            total = 0.0
            for idx in fibers:
                fa, fb = a[idx].ravel(), b[idx].ravel()
                dot = sum(float(x) * float(y) for x, y in zip(fa, fb))
                na = math.sqrt(sum(float(x) ** 2 for x in fa))
                nb = math.sqrt(sum(float(y) ** 2 for y in fb))
                total += dot / (max(na, 1e-8) * max(nb, 1e-8))
            assert metrics.acs(a, b) == pytest.approx(total / len(fibers), abs=1e-12)


class TestFiberView:
    """How ``acs`` cuts weights as stored into fibers."""

    def test_conv_view(self):
        # one flipped kernel out of six: five cosines of +1 and one of -1
        w = np.arange(1, 2 * 3 * 5 * 5 + 1).reshape(2, 3, 5, 5).astype(np.float64)
        v = w.copy()
        v[1, 2] *= -1
        assert metrics.acs(v, w) == pytest.approx(4 / 6, abs=1e-12)
        # whole output rows [1, 0, 0, 2] . [2, 0, 0, 2] would give 6/sqrt(40)
        a = np.array([1.0, 0.0, 0.0, 2.0]).reshape(1, 2, 1, 2)
        b = np.array([2.0, 0.0, 0.0, 2.0]).reshape(1, 2, 1, 2)
        assert metrics.acs(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_fc_view(self):
        # one flipped row out of three; columns as fibers would not give 1/3
        w = np.arange(1, 13).reshape(3, 4).astype(np.float64)
        v = w.copy()
        v[1] *= -1
        assert metrics.acs(v, w) == pytest.approx(1 / 3, abs=1e-12)

    def test_rank_errors(self):
        for rank in (1, 3, 5):
            w = np.zeros((2,) * rank)
            with pytest.raises(ValueError,
                               match=f"conv .rank-4. or fc .rank-2. weights, got rank {rank}"):
                metrics.acs(w, w)


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


class TestDivergence:
    def test_same_model_reports_identity(self):
        m = nn.init_model("cnn", 1)
        div = metrics.layer_divergence(m, m)
        assert list(div) == ["conv1", "conv2", "fc3", "fc4"]
        for acs, red in div.values():
            assert acs == pytest.approx(1.0, abs=1e-9)
            assert red == 0.0

    def test_entries_match_direct_computation(self):
        a, b = nn.init_model("cnn", 2), nn.init_model("cnn", 3)
        div = metrics.layer_divergence(a, b)
        for la, lb in zip(a.layers, b.layers):
            assert div[la.name] == (metrics.acs(la.weights, lb.weights),
                                    metrics.red(la.weights, lb.weights))

    def test_arch_mismatch(self):
        with pytest.raises(ValueError, match="model mismatch: mlp/2 layers vs cnn/4"):
            metrics.layer_divergence(nn.init_model("mlp", 0), nn.init_model("cnn", 0))
        with pytest.raises(ValueError, match="layer fc1: shape mismatch"):
            metrics.layer_divergence(nn.init_model("mlp", 0), small_mlp(0, in_dim=784, hidden=32))

    # float.hex() of (ACS, RED), seed 1 against seed 2.  Both metrics sum with
    # numpy, not BLAS, so these hold at any BLAS thread count and kernel.
    PINNED = {
        "cnn": {"conv1": ("-0x1.0ce42d9fd32bfp-4", "0x1.6c9a08b5162d5p+0"),
                "conv2": ("0x1.6637d34434b05p-8", "0x1.67c5011ed7b7bp+0"),
                "fc3": ("-0x1.1a92ac578060ap-9", "0x1.6a8625b329bbdp+0"),
                "fc4": ("0x1.24c0ffb67fd93p-4", "0x1.61044571a7fdep+0")},
        "mlp": {"fc1": ("0x1.d7fe5667b8d1ap-8", "0x1.687b9d1782ad3p+0"),
                "fc2": ("0x1.9af6860f5d0eep-4", "0x1.51d95bbd7176bp+0")},
    }

    @staticmethod
    def pinned_pairs(arch):
        div = metrics.layer_divergence(nn.init_model(arch, 1), nn.init_model(arch, 2))
        return {layer: (a.hex(), r.hex()) for layer, (a, r) in div.items()}

    @pytest.mark.parametrize("arch", ["cnn", "mlp"])
    def test_pinned_bits(self, arch):
        assert self.pinned_pairs(arch) == self.PINNED[arch]

    @other_blas_settings
    def test_pinned_bits_under_other_blas_settings(self, blas_env):
        # norm() of a whole vector is a BLAS dot, whose bits change with the
        # thread count: RED read fc3 ...bc2p+0 at one thread and ...bc1p+0 at two.
        code = ("import json, test_metrics as t; "
                "print(json.dumps({a: t.TestDivergence.pinned_pairs(a) for a in ('cnn', 'mlp')}))")
        got = {arch: {layer: tuple(p) for layer, p in pairs.items()}
               for arch, pairs in json.loads(run_child(code, blas_env)).items()}
        assert got == self.PINNED
