"""Minimal neural-network engine in numpy.

Two fixed architectures are supported:

* ``cnn`` -- conv(5x5, 1->10) / ReLU / maxpool(2x2) / conv(5x5, 10->20) /
  ReLU / maxpool(2x2) / fc(320->50) / ReLU / fc(50->10)
* ``mlp`` -- fc(784->64) / ReLU / fc(64->10)

Parameters are float32; training is plain minibatch SGD on softmax
cross-entropy.  All randomness comes from generators passed in by the
caller, so every function here is a pure function of its inputs.

Both networks end in one shared fc / ReLU / fc head, which checks its input
width.  The mlp feeds it its input; the cnn feeds it the output of the conv
stack, which has its own forward and backward.  Layer names are set only in
:func:`init_mlp` and :func:`init_cnn`; gradients take theirs from the model.

Inside the cnn, activations are channels-last, (B, H, W, C), from the input
to the fc3 flatten: the im2col GEMM output is then already in that layout and
the 2x2 max-pool compares four strided views of it.  Only the 320-wide fc3
input is put back in (C, H, W) order, so parameter shapes and the checkpoint
layout stay channels-first.  Max-pool runs before ReLU, with which it
commutes.  When cells of a pooling tile tie, the first in row-major order
takes the whole gradient.

The im2col patch matrix ``cols`` is the transpose view of a tap-major buffer,
(Cin, KH, KW, B, OH, OW).  Its columns stay in ``w``'s (Cin, KH, KW) order: a
GEMM's rounding depends on the order in which it sums, and in this order, on
the SkylakeX kernel, the forward GEMM gives the same bits as over a row-major
patch matrix.

The backward reads the buffer along its rows: the weight gradient is the
GEMM ``cols.T @ dmat`` over the row-major tap-major buffer, copied to C
order in ``w``'s shape, and the bias gradient the BLAS column sum
``ones @ dmat``.  Their summation order sets the bits of the conv gradients,
and so of every trained CNN, that the golden digests pin.  The input
gradient needs no patch-sized matrix: it is one small GEMM per tap, added in
(i, j) order.

A training batch of more than :data:`CONV_CHUNK` images runs forward and
backward in equal chunks of at most that many, and its gradient is the sum
of the chunk gradients in chunk order, so the chunk split is part of the bits
of such a step.  Evaluation chunks only the conv stack.  On the SkylakeX
kernel its logits equal one pass bit for bit; on another BLAS kernel, such as
AVX2's, a GEMM row's bits can depend on the row count, so they agree only to
float32 rounding.

Every gradient, and so every parameter :func:`sgd_step` makes from it, is C
ordered: :func:`grad_check` perturbs parameters through flat views, and the
forward GEMM reads ``w`` in the layout of a freshly initialised model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .data import NUM_CLASSES

ARCHITECTURES = ("cnn", "mlp")
CONV_CHUNK = 64  # most images per conv-stack pass in forward and per training chunk


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One layer: a weight array and a bias vector."""

    name: str
    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable parameter set for one model, tagged with its architecture."""

    arch: str
    layers: tuple[LayerParams, ...]

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weights.dtype

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.arch,
            tuple(
                LayerParams(lp.name, lp.weights.astype(dtype, order="C"),
                            lp.bias.astype(dtype, order="C"))
                for lp in self.layers
            ),
        )


# ---------------------------------------------------------------------------
# initialisation


def _layer(name: str, rng: np.random.Generator, shape: tuple) -> LayerParams:
    """float32 weights drawn U[-1/sqrt(fan_in), 1/sqrt(fan_in)] over ``shape[1:]``, zero biases."""
    bound = 1.0 / math.sqrt(math.prod(shape[1:]))
    return LayerParams(name, rng.uniform(-bound, bound, size=shape).astype(np.float32),
                       np.zeros(shape[0], dtype=np.float32))


def init_mlp(seed: int, in_dim: int = 784, hidden: int = 64) -> ModelParams:
    """Fan-in uniform init of the mlp; small ``in_dim`` and ``hidden`` suit gradient checks."""
    rng = np.random.default_rng(seed)
    return ModelParams("mlp", (_layer("fc1", rng, (hidden, in_dim)),
                               _layer("fc2", rng, (NUM_CLASSES, hidden))))


def init_cnn(seed: int, conv1: int = 10, conv2: int = 20, hidden: int = 50,
             image_size: int = 28) -> ModelParams:
    """CNN init; ``image_size`` controls the fc3 input width (4x4 tiles at 28)."""
    side = ((image_size - 4) // 2 - 4) // 2  # two valid 5x5 convs, two 2x2 pools
    if side < 1 or (image_size - 4) % 2 or ((image_size - 4) // 2 - 4) % 2:
        raise ValueError(f"image_size {image_size} does not fit the conv/pool stack")
    rng = np.random.default_rng(seed)
    return ModelParams("cnn", (_layer("conv1", rng, (conv1, 1, 5, 5)),
                               _layer("conv2", rng, (conv2, conv1, 5, 5)),
                               _layer("fc3", rng, (hidden, conv2 * side * side)),
                               _layer("fc4", rng, (NUM_CLASSES, hidden))))


def init_model(arch: str, seed: int) -> ModelParams:
    """Build a freshly initialised model of the given architecture."""
    if arch == "mlp":
        return init_mlp(seed)
    if arch == "cnn":
        return init_cnn(seed)
    raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")


# ---------------------------------------------------------------------------
# primitive ops


def _relu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = z > 0
    return z * mask, mask


# Per-thread conv buffers: for each kind ("taps", "shift"), one per conv layer,
# keyed by its row count Cin*KH*KW.  Each thread gets its own, so concurrent
# callers never share one.
_scratch = threading.local()


def _thread_buffer(kind: str, rows: int, shape: tuple, dtype) -> np.ndarray:
    """This thread's ``kind`` buffer for one conv layer, reused while its shape and dtype hold.

    With a fresh MB-sized buffer per call, glibc can hand it back to the OS
    and fault it in again on every step.  A buffer of another shape is
    dropped before its successor is allocated: once the caller holds no view
    of it, the two never coexist and the successor can take its place in the
    heap instead of leaving a hole that later allocations grow the heap
    around.  The callers' slice copies write every element of a buffer
    before anything reads it, so no value carries over between calls.
    """
    slots = _scratch.__dict__.setdefault(kind, {})
    if rows in slots and (slots[rows].shape != shape or slots[rows].dtype != dtype):
        del slots[rows]
    if rows not in slots:
        slots[rows] = np.empty(shape, dtype=dtype)
    return slots[rows]


def _taps_buffer(rows: int, m: int, dtype) -> np.ndarray:
    """This thread's (rows, m) tap-major buffer, reused while its shape and dtype hold.

    Its rows are padded by 16 floats: when a row of m floats is a multiple of
    4 KiB, the GEMM's reads down the rows alias in cache.  Both conv layers
    hit that at any batch that is a multiple of 16 images, such as every
    64-image chunk of :func:`forward`.
    """
    return _thread_buffer("taps", rows, (rows, m + 16), dtype)[:, :m]


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Valid convolution via im2col on a channels-last batch.

    x: (B,H,W,Cin), w: (Cout,Cin,KH,KW).  Returns (out, cols): out is
    (B,OH,OW,Cout), and cols, the (B*OH*OW, Cin*KH*KW) patch matrix kept for
    the backward pass, is the transpose view of a tap-major (Cin,KH,KW,B,OH,OW)
    buffer.  Its columns keep ``w``'s (Cin,KH,KW) order, so the GEMM sums in
    the order of a row-major patch matrix.  The GEMM output rows are already
    channels-last, so nothing is transposed.  The buffer is this thread's
    :func:`_taps_buffer`: cols is valid until the next same-layer call.

    The fill runs in two stages.  For each kernel column j, the input columns
    j..j+OW-1 are copied once into a (Cin,B,H,OW) shift buffer, which is
    again one per layer and thread; each tap (i, j) then copies a contiguous
    OH*OW block of every (Cin, B) plane of it.  The copies move the same
    values as one slice copy per tap, so out and cols keep their bits.
    """
    bsz, h, wid, cin = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wid - kw + 1
    m = bsz * oh * ow
    rows = cin * kh * kw
    taps = _taps_buffer(rows, m, x.dtype)
    taps6 = taps.reshape(cin, kh, kw, bsz, oh, ow)
    shift = _thread_buffer("shift", rows, (cin, bsz, h, ow), x.dtype)
    x_cf = x.transpose(3, 0, 1, 2)  # (Cin,B,H,W) view
    for j in range(kw):
        shift[...] = x_cf[:, :, :, j:j + ow]
        for i in range(kh):
            taps6[:, i, j] = shift[:, :, i:i + oh]
    cols = taps.T
    out = cols @ w.reshape(cout, -1).T
    out += b
    return out.reshape(bsz, oh, ow, cout), cols


def _conv2d_backward(dout: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape=None):
    """Gradients (dw, db, dx) of :func:`_conv2d`; dout and dx are channels-last.

    dw is one GEMM over the row-major tap-major buffer, ``cols.T @ dmat``,
    copied to C order in ``w``'s shape (the transpose alone would leave it
    F-ordered, and SGD would carry that layout into the weights); db is the
    BLAS column sum ``ones @ dmat``.  Both read their operands along rows,
    and their summation order sets the pinned gradient bits.
    dx, the input gradient of shape ``x_shape``, is None without ``x_shape``.
    It is built from one (B*OH*OW, Cout) x (Cout, Cin) GEMM per kernel tap,
    ``dmat @ w[:, :, i, j]``, each added into its shifted window of dx in
    (i, j) order.
    """
    bsz, oh, ow, cout = dout.shape
    _, cin, kh, kw = w.shape
    dmat = dout.reshape(bsz * oh * ow, cout)
    dw = np.ascontiguousarray((cols.T @ dmat).T).reshape(w.shape)
    db = np.ones(dmat.shape[0], dtype=dmat.dtype) @ dmat
    dx = None
    if x_shape is not None:
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, i:i + oh, j:j + ow] += (dmat @ w[:, :, i, j]).reshape(bsz, oh, ow, cin)
    return dw, db, dx


def _tiles(x: np.ndarray) -> np.ndarray:
    """(B,H,W,C) viewed as (B,H/2,2,W/2,2,C): 2x2 tiles, cell (i, j) at [:, :, i, :, j]."""
    bsz, h, wid, ch = x.shape
    return x.reshape(bsz, h // 2, 2, wid // 2, 2, ch)


def _maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling, stride 2, of a channels-last batch (B,H,W,C)."""
    t = _tiles(x)
    return np.maximum(np.maximum(t[:, :, 0, :, 0], t[:, :, 0, :, 1]),
                      np.maximum(t[:, :, 1, :, 0], t[:, :, 1, :, 1]))


def _maxpool2_backward(dout: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Route each pooled gradient to the cell of its tile that holds the maximum.

    ``x`` is the pooling input and ``out`` its :func:`_maxpool2` result.  When
    several cells tie, the first in row-major order takes the whole gradient
    and the others get zero.
    """
    t = _tiles(x)
    dx = np.empty(t.shape, dtype=dout.dtype)
    free = np.ones(out.shape, dtype=bool)  # tiles whose maximum is still unclaimed
    for i, j in ((0, 0), (0, 1), (1, 0)):
        hit = (t[:, :, i, :, j] == out) & free
        np.multiply(dout, hit, out=dx[:, :, i, :, j])
        free ^= hit
    np.multiply(dout, free, out=dx[:, :, 1, :, 1])  # only the last cell is left
    return dx.reshape(x.shape)


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, total: int | None = None):
    """Cross-entropy summed over the batch and its gradient w.r.t. the logits,
    both divided by ``total`` (by default the batch size: the mean)."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    bsz = logits.shape[0]
    total = bsz if total is None else total
    rows = np.arange(bsz)
    loss = -logp[rows, labels].sum() / total
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1
    dlogits /= total
    return float(loss), dlogits


# ---------------------------------------------------------------------------
# forward / backward


def _as_model_input(model: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Adapt a batch for the model.  The mlp accepts (B, D) or image batches
    (B, 1, H, W), which it flattens; the cnn requires (B, 1, H, W).  The
    feature width is checked where the head reads it."""
    if model.arch == "mlp":
        if inputs.ndim == 4:  # the width is spelled out: -1 is ambiguous in an empty batch
            return inputs.reshape(len(inputs), math.prod(inputs.shape[1:]))
        return inputs
    if inputs.ndim != 4 or inputs.shape[1] != model.layers[0].weights.shape[1]:
        raise ValueError(f"cnn expects (B, 1, H, W) inputs, got shape {inputs.shape}")
    return inputs


def _conv_forward(model: ModelParams, x: np.ndarray):
    """The cnn's conv stack: images to the flat fc3 input, plus its cache."""
    (w1, b1), (w2, b2) = [(l.weights, l.bias) for l in model.layers[:2]]
    # C=1 at the input, so the channels-last transpose is a free view
    z1, cols1 = _conv2d(x.transpose(0, 2, 3, 1), w1, b1)
    q1 = _maxpool2(z1)
    a1, m1 = _relu(q1)
    z2, cols2 = _conv2d(a1, w2, b2)
    q2 = _maxpool2(z2)
    a2, m2 = _relu(q2)
    flat = a2.transpose(0, 3, 1, 2).reshape(a2.shape[0], -1)  # fc3 reads (C,H,W) order
    return flat, (cols1, z1, q1, m1, cols2, z2, q2, m2)


def _conv_backward(model: ModelParams, dflat: np.ndarray, cache) -> list:
    """Backward through the conv stack: the conv1 and conv2 (dw, db) pairs."""
    cols1, z1, q1, m1, cols2, z2, q2, m2 = cache
    w1, w2 = model.layers[0].weights, model.layers[1].weights
    bsz, side, _, ch = q2.shape
    dq2 = dflat.reshape(bsz, ch, side, side).transpose(0, 2, 3, 1) * m2
    dz2 = _maxpool2_backward(dq2, z2, q2)
    dw2, db2, da1 = _conv2d_backward(dz2, cols2, w2, q1.shape)
    dz1 = _maxpool2_backward(da1 * m1, z1, q1)
    dw1, db1, _ = _conv2d_backward(dz1, cols1, w1)
    return [(dw1, db1), (dw2, db2)]


def _head(model: ModelParams, x: np.ndarray):
    """The shared fc / ReLU / fc head on features x: (logits, hidden activations, ReLU mask)."""
    hidden, out = model.layers[-2:]
    if x.ndim != 2 or x.shape[1] != hidden.weights.shape[1]:
        raise ValueError(f"{model.arch} expects {hidden.weights.shape[1]} features at "
                         f"{hidden.name}, got shape {x.shape}")
    a, m = _relu(x @ hidden.weights.T + hidden.bias)
    return a @ out.weights.T + out.bias, a, m


def forward(model: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Compute class logits, shape (B, 10).

    With no backward to feed, the cnn's conv stack runs over chunks of
    :data:`CONV_CHUNK` images, dropping each chunk's cache, so a 512-image
    evaluation batch holds only chunk-sized patch buffers and activations.
    The head then runs once over all the features: an fc GEMM row's bits can
    depend on the row count.  On the SkylakeX kernel the logits equal one pass
    over the whole batch bit for bit; on a kernel whose conv GEMM rows also
    depend on the row count, such as AVX2's, they agree to float32 rounding.
    :func:`loss_and_grads` chunks the whole network instead, and changes the
    summation order of its gradients.
    """
    x = _as_model_input(model, inputs)
    if model.arch == "cnn":
        x = np.concatenate([_conv_forward(model, x[s:s + CONV_CHUNK])[0]
                            for s in range(0, x.shape[0], CONV_CHUNK)])
    return _head(model, x)[0]


def loss_and_grads(model: ModelParams, inputs: np.ndarray,
                   labels: np.ndarray) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy over the batch and its parameter gradients.

    Labels must lie in 0..n_classes-1, and the batch must not be empty.  The
    returned gradients mirror ``model``'s structure layer for layer.

    A cnn batch of more than :data:`CONV_CHUNK` images runs forward and
    backward over equal chunks of at most that many images (4 x 50 at 200),
    so its patch buffers and activations stay chunk-sized.  Each chunk's loss
    and logit gradient are divided by the whole batch size, and the chunk
    gradients are summed in chunk order into the first chunk's arrays: the
    result is the batch mean, with float32 sums in another order than one
    pass over the batch.  Smaller cnn batches and every mlp batch take one
    pass.
    """
    x = _as_model_input(model, inputs)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
    if not labels.size:
        raise ValueError("cannot compute a loss on an empty batch")
    n_classes = model.layers[-1].bias.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        i = int(np.flatnonzero((labels < 0) | (labels >= n_classes))[0])
        raise ValueError(f"label {labels[i]} at batch index {i} is outside 0..{n_classes - 1}")
    bsz = x.shape[0]
    # the cnn's even split keeps one buffer shape per step; the mlp takes one pass
    size = -(-bsz // -(-bsz // CONV_CHUNK)) if model.arch == "cnn" else bsz
    loss, grads = _loss_and_grads(model, x[:size], labels[:size], bsz)
    for s in range(size, bsz, size):
        part, more = _loss_and_grads(model, x[s:s + size], labels[s:s + size], bsz)
        loss += part
        for (dw, db), (mw, mb) in zip(grads, more):
            dw += mw
            db += mb
    return loss, ModelParams(model.arch, tuple(
        LayerParams(lp.name, dw, db) for lp, (dw, db) in zip(model.layers, grads)))


def _loss_and_grads(model: ModelParams, x: np.ndarray, labels: np.ndarray, total: int):
    """One pass of :func:`loss_and_grads` over checked inputs: the loss and
    the (dw, db) pairs of every layer, each summed over the batch and divided
    by ``total``."""
    feats, conv_cache = _conv_forward(model, x) if model.arch == "cnn" else (x, None)
    logits, a, m = _head(model, feats)
    loss, dlogits = _softmax_cross_entropy(logits, labels, total)

    hidden, out = model.layers[-2:]
    dz = (dlogits @ out.weights) * m
    grads = [(dz.T @ feats, dz.sum(axis=0)), (dlogits.T @ a, dlogits.sum(axis=0))]
    if conv_cache is not None:
        grads = _conv_backward(model, dz @ hidden.weights, conv_cache) + grads
    return loss, grads


# ---------------------------------------------------------------------------
# updates


def check_aligned(a: ModelParams, b: ModelParams):
    """Raise ValueError unless ``a`` and ``b`` share arch, layer count and shapes."""
    if a.arch != b.arch or len(a.layers) != len(b.layers):
        raise ValueError(f"model mismatch: {a.arch}/{len(a.layers)} layers vs "
                         f"{b.arch}/{len(b.layers)}")
    for la, lb in zip(a.layers, b.layers):
        if la.weights.shape != lb.weights.shape or la.bias.shape != lb.bias.shape:
            raise ValueError(f"layer {la.name}: shape mismatch "
                             f"{la.weights.shape} vs {lb.weights.shape}")


def sgd_step(model: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One vanilla SGD update, ``w - lr * g``.  lr == 0 returns the model unchanged."""
    check_aligned(model, grads)
    if lr == 0:
        return model

    def step(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        t = lr * g  # numpy's own order for w - lr * g, one temporary fewer
        return np.subtract(w, t, out=t)

    layers = tuple(
        LayerParams(lp.name, step(lp.weights, gp.weights), step(lp.bias, gp.bias))
        for lp, gp in zip(model.layers, grads.layers)
    )
    return ModelParams(model.arch, layers)


def train_local_with_loss(model: ModelParams, images: np.ndarray, labels: np.ndarray,
                          epochs: int, batch_size: int, learning_rate: float,
                          rng: np.random.Generator) -> tuple[ModelParams, float]:
    """Minibatch SGD for ``epochs`` epochs; returns the model and its mean per-step loss.

    Each epoch reshuffles the example order; a trailing partial batch is kept.
    When the whole set fits in one batch the source order is used as-is, so a
    full-batch epoch is exactly one plain gradient-descent step.  The
    hyperparameters are taken as given; ``validate_config`` checks a run's.
    """
    n = labels.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    x = _as_model_input(model, images)
    n_batches = -(-n // batch_size)  # ceil
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n) if n_batches > 1 else np.arange(n)
        for s in range(n_batches):
            take = order[s * batch_size:(s + 1) * batch_size]
            loss, grads = loss_and_grads(model, x[take], labels[take])
            model = sgd_step(model, grads, learning_rate)
            losses.append(loss)
    return model, float(np.mean(losses))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(model: ModelParams, inputs: np.ndarray, labels: np.ndarray,
               step: float = 1e-3) -> float:
    """Max relative error between analytic grads and a central-difference oracle.

    Both sides are evaluated on a float64 shadow copy of the model, so float32
    rounding does not swamp the comparison; relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    shadow = model.astype(np.float64)
    x64 = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    _, grads = loss_and_grads(shadow, x64, labels)

    def loss_at(m: ModelParams) -> float:
        return _softmax_cross_entropy(forward(m, x64), labels)[0]

    worst = 0.0
    for li, lp in enumerate(shadow.layers):
        for field in ("weights", "bias"):
            arr = getattr(lp, field)
            analytic = getattr(grads.layers[li], field)
            flat = arr.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up = loss_at(shadow)
                flat[i] = keep - step
                down = loss_at(shadow)
                flat[i] = keep
                numeric = (up - down) / (2 * step)
                a = float(analytic.reshape(-1)[i])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst
