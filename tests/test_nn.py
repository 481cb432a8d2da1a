"""Engine tests: init, forward (against a naive reference), backprop, SGD."""

import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from semifl import nn
from conftest import models_equal, other_blas_settings, run_child


def naive_forward_cnn(model, x):
    """Loop-based reference forward, float64, independent of the engine's im2col."""
    x = np.asarray(x, dtype=np.float64)
    params = {l.name: (l.weights.astype(np.float64), l.bias.astype(np.float64))
              for l in model.layers}

    def conv(x, w, b):
        bsz, _, h, wid = x.shape
        cout, _, kh, kw = w.shape
        out = np.zeros((bsz, cout, h - kh + 1, wid - kw + 1))
        for bi in range(bsz):
            for co in range(cout):
                for i in range(h - kh + 1):
                    for j in range(wid - kw + 1):
                        out[bi, co, i, j] = (x[bi, :, i:i + kh, j:j + kw] * w[co]).sum() + b[co]
        return out

    def pool(x):
        bsz, ch, h, wid = x.shape
        out = np.zeros((bsz, ch, h // 2, wid // 2))
        for i in range(h // 2):
            for j in range(wid // 2):
                out[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
        return out

    h = pool(np.maximum(conv(x, *params["conv1"]), 0.0))
    h = pool(np.maximum(conv(h, *params["conv2"]), 0.0))
    h = h.reshape(h.shape[0], -1)
    h = np.maximum(h @ params["fc3"][0].T + params["fc3"][1], 0.0)
    return h @ params["fc4"][0].T + params["fc4"][1]


class TestInit:
    def test_same_seed_identical(self):
        assert models_equal(nn.init_mlp(3), nn.init_mlp(3))
        assert models_equal(nn.init_cnn(3), nn.init_cnn(3))

    def test_different_seed_differs(self):
        assert not models_equal(nn.init_mlp(3), nn.init_mlp(4))

    def test_param_counts(self):
        for arch, count in (("cnn", 21840), ("mlp", 50890)):
            m = nn.init_model(arch, 0)
            assert sum(lp.weights.size + lp.bias.size for lp in m.layers) == count

    def test_shapes_and_dtype(self):
        m = nn.init_cnn(0)
        shapes = {l.name: l.weights.shape for l in m.layers}
        assert shapes == {"conv1": (10, 1, 5, 5), "conv2": (20, 10, 5, 5),
                          "fc3": (50, 320), "fc4": (10, 50)}
        for l in m.layers:
            assert l.weights.dtype == np.float32
            assert l.bias.dtype == np.float32
            assert np.all(l.bias == 0)

    def test_fan_in_bounds(self):
        m = nn.init_mlp(1)
        w1 = m.layers[0].weights
        assert np.all(np.abs(w1) <= 1.0 / np.sqrt(784))
        w2 = m.layers[1].weights
        assert np.all(np.abs(w2) <= 1.0 / np.sqrt(64))

    def test_init_model_dispatch(self):
        assert nn.init_model("mlp", 5).arch == "mlp"
        assert nn.init_model("cnn", 5).arch == "cnn"
        with pytest.raises(ValueError, match="architecture"):
            nn.init_model("resnet", 5)

    def test_image_size_that_does_not_fit_the_stack_rejected(self):
        # 27 - 4 = 23 does not halve: the first 2x2 pool would drop a row
        with pytest.raises(ValueError, match="image_size 27 does not fit"):
            nn.init_cnn(0, image_size=27)


class TestForward:
    def test_cnn_matches_naive_reference_float64(self):
        m = nn.init_cnn(7, conv1=3, conv2=4, hidden=6, image_size=16)
        x = np.random.default_rng(0).random((3, 1, 16, 16))
        got = nn.forward(m.astype(np.float64), x)
        want = naive_forward_cnn(m, x)
        assert np.abs(got - want).max() < 1e-12

    def test_cnn_matches_naive_reference_28x28(self):
        m = nn.init_cnn(3)
        x = np.random.default_rng(1).random((2, 1, 28, 28)).astype(np.float32)
        got = nn.forward(m, x)
        want = naive_forward_cnn(m, x)
        assert np.abs(got - want).max() < 1e-5

    def test_mlp_matches_inline_formula(self):
        m = nn.init_mlp(9)
        x = np.random.default_rng(2).random((4, 784)).astype(np.float32)
        w1, b1 = m.layers[0].weights, m.layers[0].bias
        w2, b2 = m.layers[1].weights, m.layers[1].bias
        want = np.maximum(x @ w1.T + b1, 0) @ w2.T + b2
        assert np.allclose(nn.forward(m, x), want, atol=1e-6)

    def test_batch_rows_match_single_examples(self):
        m = nn.init_cnn(4)
        x = np.random.default_rng(3).random((5, 1, 28, 28)).astype(np.float32)
        batch = nn.forward(m, x)
        singles = np.vstack([nn.forward(m, x[i:i + 1]) for i in range(5)])
        assert np.allclose(batch, singles, atol=1e-6)

    def test_mlp_flattens_image_batches(self):
        m = nn.init_mlp(0)
        x = np.random.default_rng(4).random((3, 1, 28, 28)).astype(np.float32)
        assert np.array_equal(nn.forward(m, x), nn.forward(m, x.reshape(3, 784)))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="mlp expects"):
            nn.forward(nn.init_mlp(0), np.zeros((2, 100), dtype=np.float32))
        with pytest.raises(ValueError, match="cnn expects"):
            nn.forward(nn.init_cnn(0), np.zeros((2, 784), dtype=np.float32))

    def test_cnn_image_size_checked_at_the_head(self):
        with pytest.raises(ValueError,
                           match=r"cnn expects 320 features at fc3, got shape \(2, 500\)"):
            nn.forward(nn.init_cnn(0), np.zeros((2, 1, 32, 32), dtype=np.float32))


def step_case(bsz):
    """Fixed-seed float32 images and labels for one cnn step of ``bsz`` images."""
    rng = np.random.default_rng(bsz)
    return rng.random((bsz, 1, 28, 28), dtype=np.float32), rng.integers(0, 10, bsz)


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((4, 10), dtype=np.float32)
        loss, _ = nn._softmax_cross_entropy(logits, np.array([0, 3, 7, 9]))
        assert abs(loss - np.log(10)) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.random((6, 10)).astype(np.float32)
        labels = rng.integers(0, 10, 6)
        l1, d1 = nn._softmax_cross_entropy(logits, labels)
        l2, d2 = nn._softmax_cross_entropy(logits + 1000.0, labels)
        assert abs(l1 - l2) < 1e-5
        assert np.allclose(d1, d2, atol=1e-6)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 10))
        labels = rng.integers(0, 10, 5)
        _, dlogits = nn._softmax_cross_entropy(logits, labels)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = exp / exp.sum(axis=1, keepdims=True)
        p[np.arange(5), labels] -= 1
        assert np.allclose(dlogits, p / 5, atol=1e-12)
        assert np.allclose(dlogits.sum(axis=1), 0, atol=1e-12)

    def test_loss_and_grads_label_validation(self):
        m = nn.init_mlp(0)
        x = np.zeros((3, 784), dtype=np.float32)
        with pytest.raises(ValueError, match="labels"):
            nn.loss_and_grads(m, x, np.array([1, 2]))
        # -1 would otherwise index class 9 and 12 would raise a bare IndexError
        with pytest.raises(ValueError, match=r"label -1 at batch index 1 is outside 0\.\.9"):
            nn.loss_and_grads(m, x, np.array([3, -1, 12]))
        with pytest.raises(ValueError, match=r"label 12 at batch index 2 is outside 0\.\.9"):
            nn.loss_and_grads(m, x, np.array([3, 9, 12]))

    @pytest.mark.parametrize("arch, shape", [("cnn", (0, 1, 28, 28)), ("mlp", (0, 784)),
                                             ("mlp", (0, 1, 28, 28))],
                             ids=["cnn", "mlp", "mlp-images"])
    def test_empty_batch_rejected(self, arch, shape):
        # the cnn and the mlp on images failed to reshape, the mlp on rows
        # returned a nan loss
        with pytest.raises(ValueError, match="cannot compute a loss on an empty batch"):
            nn.loss_and_grads(nn.init_model(arch, 0), np.zeros(shape, dtype=np.float32),
                              np.zeros(0, dtype=np.int64))

    def test_label_error_indexes_the_whole_chunked_batch(self):
        # a 200-image step runs in chunks of 50: index 130 is the third chunk's 30th
        x, y = step_case(200)
        y[130] = 10
        with pytest.raises(ValueError, match=r"label 10 at batch index 130 is outside 0\.\.9"):
            nn.loss_and_grads(nn.init_cnn(0), x, y)

    @pytest.mark.parametrize("bsz", [nn.CONV_CHUNK + 1, 200])
    def test_chunked_step_is_the_batch_mean(self, bsz):
        # the float64 step chunks too, so the mean of one-image steps, each a
        # single pass, pins it first; float32 chunk sums then stay within
        # ~84 eps of it, relative to each array's largest value (8.3e-7 seen)
        m = nn.init_cnn(bsz)
        x, y = step_case(bsz)
        m64, x64 = m.astype(np.float64), x.astype(np.float64)
        singles = [nn.loss_and_grads(m64, x64[i:i + 1], y[i:i + 1]) for i in range(bsz)]
        loss64, g64 = nn.loss_and_grads(m64, x64, y)
        loss, g = nn.loss_and_grads(m, x, y)
        assert abs(sum(l for l, _ in singles) / bsz - loss64) <= 1e-12 * loss64
        assert abs(loss - loss64) <= 1e-5 * loss64
        for li, lp in enumerate(g64.layers):
            for field in ("weights", "bias"):
                want = getattr(lp, field)
                scale = np.abs(want).max()
                mean = sum(getattr(gs.layers[li], field) for _, gs in singles) / bsz
                assert np.abs(mean - want).max() <= 1e-12 * scale, (lp.name, field)
                assert np.abs(getattr(g.layers[li], field) - want).max() <= 1e-5 * scale, \
                    (lp.name, field)

    def test_grads_mirror_model_structure(self):
        m = nn.init_cnn(8)
        x = np.random.default_rng(7).random((2, 1, 28, 28)).astype(np.float32)
        _, g = nn.loss_and_grads(m, x, np.array([1, 2]))
        assert g.arch == m.arch
        for gl, ml in zip(g.layers, m.layers):
            assert gl.name == ml.name
            assert gl.weights.shape == ml.weights.shape
            assert gl.bias.shape == ml.bias.shape

    @pytest.mark.parametrize("bsz", [3, 200])
    def test_grads_and_stepped_model_are_c_contiguous(self, bsz):
        # grad_check perturbs parameters through reshape(-1) views, and the
        # forward GEMM reads w.reshape(cout, -1): both assume C order
        m = nn.init_cnn(8)
        _, g = nn.loss_and_grads(m, *step_case(bsz))
        stepped = nn.sgd_step(m, g, 0.1)
        for params in (g, stepped):
            for lp in params.layers:
                assert lp.weights.flags.c_contiguous and lp.bias.flags.c_contiguous, lp.name


class TestGradCheck:
    def test_mlp_one_hidden_unit_one_example(self):
        m = nn.init_mlp(3, in_dim=5, hidden=1)
        x = np.random.default_rng(8).random((1, 5)).astype(np.float32)
        assert nn.grad_check(m, x, np.array([4])) < 1e-3

    def test_mlp_small(self):
        m = nn.init_mlp(5, in_dim=12, hidden=4)
        rng = np.random.default_rng(9)
        x = rng.random((6, 12)).astype(np.float32)
        y = rng.integers(0, 10, 6)
        assert nn.grad_check(m, x, y) < 1e-3

    def test_cnn_tiny(self):
        # step 1e-4: a 1e-3 probe can cross max-pool ties under conv1 params
        m = nn.init_cnn(11, conv1=2, conv2=3, hidden=4, image_size=16)
        x = np.random.default_rng(99).random((2, 1, 16, 16)).astype(np.float32)
        assert nn.grad_check(m, x, np.array([0, 7]), step=1e-4) < 1e-3

    def test_cnn_non_square_batch_wide_conv2(self):
        # 4 conv2 channels over a 2x2 map (20x20 input) and 3 examples: a wrong
        # channels-last <-> (C,H,W) order at fc3 shows up as a gradient mismatch.
        # float64 analytic grads and a small step keep clear of max-pool kinks.
        m = nn.init_cnn(12, conv1=2, conv2=4, hidden=5, image_size=20).astype(np.float64)
        assert m.layers[2].weights.shape[1] == 4 * 2 * 2
        x = np.random.default_rng(98).random((3, 1, 20, 20))
        assert nn.grad_check(m, x, np.array([1, 4, 8]), step=1e-6) < 1e-4

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_cnn_float32_20x20(self, seed):
        # a float32 model is checked on its float64 shadow on both sides; at
        # step 1e-5 seeds 12-19 stay below 5e-6 (1e-4 crosses a max-pool kink)
        m = nn.init_cnn(seed, conv1=2, conv2=4, hidden=5, image_size=20)
        assert m.dtype == np.float32
        x = np.random.default_rng(seed + 100).random((3, 1, 20, 20)).astype(np.float32)
        assert nn.grad_check(m, x, np.array([1, 4, 8]), step=1e-5) < 1e-4

    def test_cnn_after_a_training_step(self):
        m = nn.init_cnn(12, conv1=2, conv2=4, hidden=5, image_size=20)
        x = np.random.default_rng(112).random((3, 1, 20, 20)).astype(np.float32)
        y = np.array([1, 4, 8])
        m, _ = nn.train_local_with_loss(m, x, y, epochs=1, batch_size=3,
                                        learning_rate=0.1, rng=np.random.default_rng(0))
        assert nn.grad_check(m, x, y, step=1e-5) < 1e-4

    def test_cnn_with_fortran_ordered_weights(self):
        # the float64 shadow is C-ordered whatever the layout of the model
        m = nn.init_cnn(13, conv1=2, conv2=4, hidden=5, image_size=20)
        m = nn.ModelParams(m.arch, tuple(
            nn.LayerParams(lp.name, np.asfortranarray(lp.weights), lp.bias) for lp in m.layers))
        x = np.random.default_rng(113).random((3, 1, 20, 20)).astype(np.float32)
        assert nn.grad_check(m, x, np.array([1, 4, 8]), step=1e-5) < 1e-4

    def test_identity_activation_hook(self, monkeypatch):
        # with ReLU swapped for identity the net is linear; grads must still match
        monkeypatch.setattr(nn, "_relu", lambda z: (z, np.ones(z.shape, dtype=bool)))
        m = nn.init_mlp(5, in_dim=12, hidden=4)
        rng = np.random.default_rng(10)
        x = rng.random((6, 12)).astype(np.float32)
        y = rng.integers(0, 10, 6)
        assert nn.grad_check(m, x, y) < 1e-4


def reference_im2col(x, kh, kw):
    """Row-major patch matrix of a channels-last batch, columns in (Cin,KH,KW) order."""
    bsz, h, wid, cin = x.shape
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (B,OH,OW,Cin,KH,KW)
    return windows.reshape(bsz * (h - kh + 1) * (wid - kw + 1), cin * kh * kw)


def reference_col2im_dx(dout, w, x_shape):
    """Input gradient via one (B*OH*OW, Cin*KH*KW) GEMM and a shifted add per tap."""
    bsz, oh, ow, cout = dout.shape
    _, cin, kh, kw = w.shape
    dcols = (dout.reshape(-1, cout) @ w.reshape(cout, -1)).reshape(bsz, oh, ow, cin, kh, kw)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + oh, j:j + ow] += dcols[..., i, j]
    return dx


def conv_case(bsz):
    """A conv2-shaped channels-last input, weights, bias and output gradient."""
    rng = np.random.default_rng(bsz)
    x = rng.standard_normal((bsz, 12, 12, 10)).astype(np.float32)
    w = rng.standard_normal((20, 10, 5, 5)).astype(np.float32)
    b = rng.standard_normal(20).astype(np.float32)
    dout = rng.standard_normal((bsz, 8, 8, 20)).astype(np.float32)
    return x, w, b, dout


class TestConvKernels:
    """The tap-major im2col, per-tap dx and row-major dw/db, bit for bit."""

    # on the AVX2 kernel a GEMM element's bits depend on the operand shape, so
    # out and dx round differently from their one-GEMM references
    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("bsz", [1, 3, 20, 200])
    def test_cols_and_dx_equal_the_reference(self, bsz):
        x, w, b, dout = conv_case(bsz)
        out, cols = nn._conv2d(x, w, b)
        ref_cols = reference_im2col(x, 5, 5)
        assert np.array_equal(cols, ref_cols)
        assert np.array_equal(out.reshape(-1, 20), ref_cols @ w.reshape(20, -1).T + b)
        dw, db, dx = nn._conv2d_backward(dout, cols, w, x.shape)
        assert np.array_equal(dx, reference_col2im_dx(dout, w, x.shape))
        # dw: the row-major (Cin*KH*KW, B*OH*OW) patch matrix times dmat;
        # db: a BLAS column sum.  Both sum in another order than dmat.T @ cols
        # and dmat.sum(axis=0), so these pins fail if either expression returns.
        dmat = dout.reshape(-1, 20)
        assert np.array_equal(dw.reshape(20, -1), (np.ascontiguousarray(ref_cols.T) @ dmat).T)
        assert np.array_equal(db, np.ones(len(dmat), dtype=np.float32) @ dmat)

    @pytest.mark.parametrize("bsz", [1, 3, 20, 200])
    def test_dw_and_db_near_a_float64_oracle(self, bsz):
        # each entry sums M = B*OH*OW float32 products; any summation order
        # stays within M * eps/2 of the exact sum, relative to the sum of the
        # absolute terms (the products themselves are exact in float64)
        x, w, b, dout = conv_case(bsz)
        dw, db, _ = nn._conv2d_backward(dout, nn._conv2d(x, w, b)[1], w)
        dmat, cols = dout.reshape(-1, 20).astype(np.float64), reference_im2col(x, 5, 5)
        gamma = len(dmat) * np.finfo(np.float32).eps / 2
        assert np.all(np.abs(dw.reshape(20, -1) - dmat.T @ cols)
                      <= gamma * (np.abs(dmat).T @ np.abs(cols)))
        assert np.all(np.abs(db - dmat.sum(axis=0)) <= gamma * np.abs(dmat).sum(axis=0))


def run_in_thread(fn):
    """fn() in a new thread, which starts with no conv buffers; returns its result."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and result, "worker thread did not finish"
    return result[0]


def traced_peak_mb(fn, warm_up=False):
    """Peak traced allocation of fn(), in MB, measured in a new thread.

    With ``warm_up`` fn runs once before tracing starts, so buffers it keeps
    between calls are not counted.
    """
    def measure():
        if warm_up:
            fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return run_in_thread(measure)


def chunked_and_one_pass(bsz):
    """forward's chunked logits and the logits of one conv-stack pass over the whole batch."""
    m = nn.init_cnn(bsz)
    x = np.random.default_rng(bsz).random((bsz, 1, 28, 28), dtype=np.float32)
    return nn.forward(m, x), nn._head(m, nn._conv_forward(m, x)[0])[0]


def one_pass_gap_eps(bsz) -> float:
    """max |chunked - one pass| logit, in float32 eps of the largest one-pass logit."""
    chunked, one_pass = chunked_and_one_pass(bsz)
    return float(np.abs(chunked - one_pass).max()
                 / (np.finfo(np.float32).eps * np.abs(one_pass).max()))


class TestConvMemory:
    """Chunked forward-only evaluation and reused im2col buffers, at the same bits."""

    # on the AVX2 kernel a conv GEMM row's bits depend on the row count
    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("bsz", [1, nn.CONV_CHUNK - 1, nn.CONV_CHUNK,
                                     nn.CONV_CHUNK + 1, 200, 512, 800])
    def test_chunked_forward_equals_one_pass(self, bsz):
        chunked, one_pass = chunked_and_one_pass(bsz)
        assert chunked.tobytes() == one_pass.tobytes()

    @other_blas_settings
    def test_chunked_forward_equals_one_pass_under_other_blas_settings(self, blas_env):
        # equal to float32 rounding: bit for bit on the SkylakeX kernel, while
        # on the AVX2 (Haswell) kernel a conv GEMM row's bits depend on the
        # row count, and the chunked logits were seen ~5 eps of the largest
        # logit away from one pass
        code = ("import test_nn as t; "
                "print(max(t.one_pass_gap_eps(b) for b in (65, 200, 512, 800)))")
        assert float(run_child(code, blas_env)) <= 32

    def test_forward_512_peak(self):
        # one pass over 512 images peaked at 82 MB; a new thread allocates its buffers
        m = nn.init_cnn(0)
        x = np.random.default_rng(0).random((512, 1, 28, 28), dtype=np.float32)
        assert traced_peak_mb(lambda: nn.forward(m, x)) < 16

    def test_batch_200_step_peak(self):
        # one pass over 200 images peaked at 40.9 MB; a new thread allocates
        # its buffers, sized for a 50-image chunk
        m = nn.init_cnn(1)
        x, y = step_case(200)
        assert traced_peak_mb(lambda: nn.loss_and_grads(m, x, y)) < 16

    def test_repeated_batch_200_step_peak(self):
        # fresh im2col buffers in every step peaked at 39.6 MB, and reused
        # batch-sized ones at 16.4 MB
        m = nn.init_cnn(1)
        x, y = step_case(200)
        assert traced_peak_mb(lambda: nn.loss_and_grads(m, x, y), warm_up=True) < 15

    def test_buffers_are_reused_per_thread(self):
        rng = np.random.default_rng(2)
        x1, x2 = rng.standard_normal((2, 3, 12, 12, 10)).astype(np.float32)
        w = rng.standard_normal((20, 10, 5, 5)).astype(np.float32)
        b = np.zeros(20, dtype=np.float32)

        def conv(x):  # the patch matrix and the layer's shift buffer
            return nn._conv2d(x, w, b)[1], nn._scratch.shift[w[0].size]

        cols1, shift1 = conv(x1)
        kept, kept_shift = cols1.copy(), shift1.copy()
        other, other_shift = run_in_thread(lambda: conv(x2))
        assert not np.shares_memory(cols1, other)
        assert not np.shares_memory(shift1, other_shift)
        # the other thread wrote its own buffers
        assert np.array_equal(cols1, kept) and np.array_equal(shift1, kept_shift)
        cols2, shift2 = conv(x2)
        assert np.shares_memory(cols1, cols2)  # this thread's buffers, refilled
        assert shift2 is shift1
        assert np.array_equal(cols2, other) and np.array_equal(shift2, other_shift)

    def test_replaced_buffer_is_freed_before_its_successor(self):
        # batch 200 then 199: the 12.2 MiB tap-major buffer is dropped before
        # the one for 199 is allocated, so the two never coexist (24.4 MiB if
        # they did)
        x, w, b, _ = conv_case(200)
        taps_mb = 250 * (200 * 8 * 8 + 16) * 4 / 2 ** 20

        def both():
            nn._conv2d(x, w, b)
            nn._conv2d(x[:199], w, b)
        assert traced_peak_mb(both) < 1.5 * taps_mb

    def test_kept_buffers_follow_the_last_batch_shape(self):
        # steps at 20 and 200, then a 500-image forward in chunks of 64 and 52:
        # the thread keeps one tap-major and one shift buffer per conv layer,
        # sized for the last (52-image) chunk.  Buffers kept per batch shape
        # would add ~1.9 MB, the batch-200 shift buffers alone 1.3 MB.
        m = nn.init_cnn(4)
        rng = np.random.default_rng(4)
        x = rng.random((500, 1, 28, 28), dtype=np.float32)
        y = rng.integers(0, 10, 500)

        def kept_bytes():
            tracemalloc.start()
            try:
                for bsz in (20, 200):
                    nn.loss_and_grads(m, x[:bsz], y[:bsz])
                nn.forward(m, x)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        tail = 500 % nn.CONV_CHUNK
        assert tail == 52
        taps = 25 * (tail * 24 * 24 + 16) + 250 * (tail * 8 * 8 + 16)  # (rows, M + 16)
        shift = tail * 28 * 24 + 10 * tail * 12 * 8  # (Cin, B, H, OW)
        assert run_in_thread(kept_bytes) < 4 * (taps + shift) + 2 ** 18


class TestMaxPool:
    def test_forward_takes_tile_maxima(self):
        x = np.random.default_rng(20).random((2, 4, 6, 3)).astype(np.float32)
        want = x.reshape(2, 2, 2, 3, 2, 3).max(axis=(2, 4))
        assert np.array_equal(nn._maxpool2(x), want)

    @pytest.mark.parametrize("tile, routed", [
        ([[3, 3], [3, 3]], [[5, 0], [0, 0]]),  # four-way tie: the top-left cell
        ([[1, 7], [7, 7]], [[0, 5], [0, 0]]),  # three-way tie: (0, 1) comes first
    ])
    def test_ties_go_to_first_cell_in_row_major_order(self, tile, routed):
        x = np.float32(tile)[None, :, :, None]  # one tile, one channel, channels-last
        out = nn._maxpool2(x)
        assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == np.max(tile)
        dx = nn._maxpool2_backward(np.full(out.shape, 5.0, dtype=np.float32), x, out)
        assert dx[0, :, :, 0].tolist() == routed

    def test_four_way_tie_through_loss_and_grads(self):
        # conv1 copies the centre pixel of its 5x5 window, so the 2x2 block of
        # ones at input rows/cols 2..3 makes the four cells of pool1's first tile
        # tie at 1; every other conv1 output is 0 and ReLU blocks its gradient
        m = nn.init_cnn(13, conv1=1, conv2=2, hidden=4, image_size=16)
        w1 = np.zeros((1, 1, 5, 5), dtype=np.float32)
        w1[0, 0, 2, 2] = 1.0
        layers = (nn.LayerParams("conv1", w1, np.zeros(1, dtype=np.float32)),) + m.layers[1:]
        m = nn.ModelParams("cnn", layers)
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        x[0, 0, 2:4, 2:4] = 1.0
        _, g = nn.loss_and_grads(m, x, np.array([3]))
        dw1, db1 = g.layers[0].weights[0, 0], g.layers[0].bias[0]
        assert db1 != 0
        # the whole tile gradient reached the top-left cell, whose window is x[0:5, 0:5];
        # any other cell's window would put the ones at another offset
        assert np.array_equal(dw1, db1 * x[0, 0, 0:5, 0:5])


class TestSgd:
    def test_zero_lr_is_identity(self):
        m = nn.init_mlp(0)
        x = np.random.default_rng(11).random((4, 784)).astype(np.float32)
        _, g = nn.loss_and_grads(m, x, np.array([0, 1, 2, 3]))
        assert models_equal(nn.sgd_step(m, g, 0.0), m)

    def test_two_steps_equal_one_summed_step_dyadic(self):
        # dyadic values make floating-point linearity exact
        def model(vals):
            return nn.ModelParams("mlp", (
                nn.LayerParams("fc1", np.float32([[vals[0]]]), np.float32([vals[1]])),
                nn.LayerParams("fc2", np.float32([[vals[2]]]), np.float32([vals[3]]))))
        w = model([1.0, 0.5, 2.0, 0.25])
        g1 = model([0.25, 0.5, 0.5, 1.0])
        g2 = model([0.125, 0.25, 0.75, 0.5])
        summed = nn.ModelParams("mlp", tuple(
            nn.LayerParams(a.name, a.weights + b.weights, a.bias + b.bias)
            for a, b in zip(g1.layers, g2.layers)))
        two = nn.sgd_step(nn.sgd_step(w, g1, 0.5), g2, 0.5)
        one = nn.sgd_step(w, summed, 0.5)
        assert models_equal(two, one)

    def test_step_reduces_loss_on_batch(self):
        m = nn.init_mlp(12)
        rng = np.random.default_rng(12)
        x = rng.random((16, 784)).astype(np.float32)
        y = rng.integers(0, 10, 16)
        before, g = nn.loss_and_grads(m, x, y)
        after, _ = nn.loss_and_grads(nn.sgd_step(m, g, 0.1), x, y)
        assert after < before

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            nn.sgd_step(nn.init_mlp(0), nn.init_mlp(0, hidden=32), 0.1)
        with pytest.raises(ValueError, match="mismatch"):
            nn.sgd_step(nn.init_mlp(0), nn.init_cnn(0), 0.1)


def train(model, images, labels, epochs, batch_size, learning_rate, rng):
    """The model that ``train_local_with_loss`` returns, without its loss."""
    return nn.train_local_with_loss(model, images, labels, epochs, batch_size,
                                    learning_rate, rng)[0]


class TestTrainLocal:
    def _toy(self, n=25):
        rng = np.random.default_rng(13)
        x = rng.random((n, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, n)
        return x, y

    def test_same_stream_same_result(self):
        x, y = self._toy()
        m = nn.init_mlp(1)
        a = train(m, x, y, 2, 10, 0.05, np.random.default_rng(77))
        b = train(m, x, y, 2, 10, 0.05, np.random.default_rng(77))
        assert models_equal(a, b)
        c = train(m, x, y, 2, 10, 0.05, np.random.default_rng(78))
        assert not models_equal(a, c)

    def test_full_batch_epochs_equal_gd_steps(self):
        x, y = self._toy(n=12)
        m = nn.init_mlp(2)
        trained = train(m, x, y, 3, 12, 0.1, np.random.default_rng(0))
        ref = m
        for _ in range(3):
            _, g = nn.loss_and_grads(ref, x, y)
            ref = nn.sgd_step(ref, g, 0.1)
        assert models_equal(trained, ref)

    def test_partial_trailing_batch_is_used(self, monkeypatch):
        x, y = self._toy(n=25)
        seen = []
        original = nn.loss_and_grads

        def spy(model, inputs, labels):
            seen.append(labels.shape[0])
            return original(model, inputs, labels)

        monkeypatch.setattr(nn, "loss_and_grads", spy)
        train(nn.init_mlp(3), x, y, 2, 20, 0.01, np.random.default_rng(5))
        assert seen == [20, 5, 20, 5]

    def test_mean_loss_reported(self):
        x, y = self._toy(n=20)
        _, loss = nn.train_local_with_loss(nn.init_mlp(4), x, y, 1, 20, 0.01,
                                           np.random.default_rng(0))
        want, _ = nn.loss_and_grads(nn.init_mlp(4), x, y)
        assert abs(loss - want) < 1e-6

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(nn.init_mlp(0), np.zeros((0, 784), dtype=np.float32),
                  np.zeros(0, dtype=np.int64), 5, 20, 0.01, np.random.default_rng(0))

    def test_outputs_stay_finite(self):
        x, y = self._toy(n=40)
        m = train(nn.init_cnn(5), x, y, 5, 8, 0.1, np.random.default_rng(6))
        for l in m.layers:
            assert np.all(np.isfinite(l.weights))
            assert np.all(np.isfinite(l.bias))
