"""Minimal neural-network engine in numpy.

Two fixed architectures are supported:

* ``cnn`` -- 5x5 conv / ReLU / 2x2 maxpool, twice, then fc / ReLU / fc
* ``mlp`` -- fc / ReLU / fc

Parameters are float32; training is plain minibatch SGD on softmax
cross-entropy.  All randomness comes from generators passed in by the
caller, so every function here is a pure function of its inputs.

Each architecture's layer names and weight shapes are written once, in the
table :data:`ARCHITECTURES`.  :func:`blank_model` lays the table over one
vector of zeros; :func:`init_model` draws its layers into such a model, and
``load_checkpoint`` copies a file's payload into one, so a checkpoint stores
no name or shape of its own.  The kernels read every shape from the weights
they are given, so a shrunken model built with :func:`pack` runs through them
too.

Both networks end in one shared fc / ReLU / fc head, which checks its input
width.  The mlp feeds it its input; the cnn feeds it the output of the conv
stack, which has its own forward and backward.  Gradients take their layer
names from the model.

Inside the cnn, activations are channels-last, (B, H, W, C), from the input
to the fc3 flatten: the im2col GEMM output is then already in that layout and
the 2x2 max-pool compares four strided views of it.  Only the flat fc3
input is put back in (C, H, W) order, so parameter shapes and the checkpoint
layout stay channels-first.  Max-pool runs before ReLU, with which it
commutes, so the pool's backward applies the ReLU mask as it routes.  When
cells of a pooling tile tie, the first in row-major order takes the whole
gradient.

The im2col patch matrix ``cols`` is the transpose view of a tap-major buffer,
(Cin, KH, KW, B, OH, OW).  Its columns stay in ``w``'s (Cin, KH, KW) order: a
GEMM's rounding depends on the order in which it sums, and in this order, on
the SkylakeX kernel, the forward GEMM gives the same bits as over a row-major
patch matrix.

The backward reads the buffer along its rows: the weight gradient is the
GEMM ``cols.T @ dmat`` over the row-major tap-major buffer, viewed in ``w``'s
shape, and the bias gradient the BLAS column sum
``ones @ dmat``.  Their summation order sets the bits of the conv gradients,
and so of every trained CNN, that the golden digests pin.  The input
gradient needs no patch-sized matrix: it is one small GEMM per tap, added in
(i, j) order.

A training batch of more than :data:`CONV_CHUNK` images runs forward and
backward in equal chunks of at most that many, and its gradient is the sum
of the chunk gradients in chunk order, so the chunk split is part of the bits
of such a step.  Evaluation chunks only the conv stack, by
:data:`FORWARD_CHUNK` images: the shape of a batch-20 training step, whose
conv buffers it then reuses instead of replacing them.  On the SkylakeX
kernel its logits equal one pass bit for bit; on another BLAS kernel, such as
AVX2's, a GEMM row's bits can depend on the row count, so they agree only to
float32 rounding.

A model's parameters live in one C-ordered vector, ``ModelParams.flat``:
each layer's weights then its bias, layer by layer, in the checkpoint's
payload order.  Each layer's arrays are C-ordered views into it, so every
whole-model operation (an SGD step, an average, a dtype cast, a checkpoint
payload, a gradient check) is one operation on one array, and the forward
GEMM reads ``w`` in the same layout whatever made the model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .data import IMAGE_SIDE, NUM_CLASSES

# Each architecture's layers in order, name -> weight shape; a bias has one entry
# per weight row.  fc3 reads 20 maps of the side left after two valid 5x5 convs
# and two 2x2 pools: 4 at 28.
ARCHITECTURES = {
    "cnn": {"conv1": (10, 1, 5, 5), "conv2": (20, 10, 5, 5),
            "fc3": (50, 20 * (((IMAGE_SIDE - 4) // 2 - 4) // 2) ** 2), "fc4": (NUM_CLASSES, 50)},
    "mlp": {"fc1": (64, IMAGE_SIDE ** 2), "fc2": (NUM_CLASSES, 64)},
}
CONV_CHUNK = 64  # most images per training chunk
FORWARD_CHUNK = 20  # images per conv-stack pass in forward: a batch-20 step's buffer shape


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One layer: a weight array and a bias vector."""

    name: str
    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable parameter set for one model, tagged with its architecture.

    ``flat`` holds every parameter, each layer's weights then its bias in
    layer order, and each of ``layers``' arrays is a C-ordered view into it.
    Build a model with :func:`pack` or :meth:`with_flat`.
    """

    arch: str
    layers: tuple[LayerParams, ...]
    flat: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """This model's layer names and shapes laid over ``flat``, a vector of its size."""
        return ModelParams(self.arch, _views(self.layers, flat), flat)

    def astype(self, dtype) -> "ModelParams":
        return self.with_flat(self.flat.astype(dtype))


def _views(layers, flat: np.ndarray) -> tuple[LayerParams, ...]:
    """``layers``' names and shapes as views into ``flat``, each weight then bias in turn."""
    views, end = [], 0
    for lp in layers:
        mid = end + lp.weights.size
        views.append(LayerParams(lp.name, flat[end:mid].reshape(lp.weights.shape),
                                 flat[mid:mid + lp.bias.size].reshape(lp.bias.shape)))
        end = mid + lp.bias.size
    return tuple(views)


def pack(arch: str, layers) -> ModelParams:
    """A model whose ``flat`` is a new C-ordered copy of ``layers``' arrays."""
    layers = tuple(layers)
    flat = np.concatenate([a for lp in layers for a in (lp.weights, lp.bias)], axis=None)
    return ModelParams(arch, _views(layers, flat), flat)


# ---------------------------------------------------------------------------
# initialisation


def blank_model(arch: str) -> ModelParams:
    """An ``arch`` model of float32 zeros, its layers as :data:`ARCHITECTURES` lists them."""
    return pack(arch, [LayerParams(name, np.zeros(shape, np.float32),
                                   np.zeros(shape[:1], np.float32))
                       for name, shape in ARCHITECTURES[arch].items()])


def init_model(arch: str, seed: int) -> ModelParams:
    """A fresh ``arch`` model: :func:`blank_model` with its weights drawn by
    :func:`_draw_weights` from one seeded stream."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {tuple(ARCHITECTURES)}")
    return _draw_weights(blank_model(arch), np.random.default_rng(seed))


def _draw_weights(model: ModelParams, rng: np.random.Generator) -> ModelParams:
    """``model`` with each layer's weights drawn in place, in layer order, from
    U[-1/sqrt(fan_in), 1/sqrt(fan_in)] over ``shape[1:]``; biases are kept."""
    for lp in model.layers:
        bound = 1.0 / math.sqrt(math.prod(lp.weights.shape[1:]))
        lp.weights[...] = rng.uniform(-bound, bound, size=lp.weights.shape)
    return model


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
    and fault it in again on every step.  That happens while glibc's mmap
    threshold is below the buffer's size.  glibc raises the threshold only
    when it frees an mmapped block of at most 32 MB, so the regime this cache
    exists for is a run that has freed no such block yet, as on a training
    set larger than that, which the run holds to its end: a fresh ``semifl
    train`` of one c3 CNN round on ``synthetic:10x6000`` ran 13-30% slower
    with per-call buffers, at 6-8x the minor page faults.  :func:`forward`
    runs every chunk in a batch-20 step's shape, so evaluating between such
    steps keeps the buffers as they are.

    A buffer of another shape is dropped before its successor is allocated:
    once the caller holds no view of it, the two never coexist and the
    successor can take its place in the heap instead of leaving a hole that
    later allocations grow the heap around.  The callers' slice copies write
    every element of a buffer before anything reads it, so no value carries
    over between calls.
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
    hit that at any batch that is a multiple of 16 images, such as a 64-image
    training chunk.
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
    out.reshape(bsz, -1)[...] += np.tile(b, oh * ow)  # over whole rows, not Cout-wide ones
    return out.reshape(bsz, oh, ow, cout), cols


def _conv2d_backward(dout: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape=None):
    """Gradients (dw, db, dx) of :func:`_conv2d`; dout and dx are channels-last.

    dw is one GEMM over the row-major tap-major buffer, ``cols.T @ dmat``,
    viewed F-ordered in ``w``'s shape (the gradient vector of
    :func:`loss_and_grads` copies it in C order); db is the BLAS column sum
    ``ones @ dmat``.  Both read their operands along rows,
    and their summation order sets the pinned gradient bits.
    dx, the input gradient of shape ``x_shape``, is None without ``x_shape``.
    It is built from one (B*OH*OW, Cout) x (Cout, Cin) GEMM per kernel tap,
    ``dmat @ w[:, :, i, j]``, each added into its shifted window of dx in
    (i, j) order.
    """
    bsz, oh, ow, cout = dout.shape
    _, cin, kh, kw = w.shape
    dmat = dout.reshape(bsz * oh * ow, cout)
    dw = (cols.T @ dmat).T.reshape(w.shape)
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


def _maxpool2_backward(dout: np.ndarray, x: np.ndarray, out: np.ndarray,
                       mask: np.ndarray) -> np.ndarray:
    """Route each pooled gradient to the cell of its tile that holds the maximum.

    ``x`` is the pooling input, ``out`` its :func:`_maxpool2` result and
    ``mask`` the ReLU mask on ``out``: a tile whose mask is False routes
    ``dout * False`` to every cell, the zeros that masking ``dout`` first would
    give.  When several cells tie, the first in row-major order takes the
    whole gradient and the others get zero.
    """
    t = _tiles(x)
    dx = np.empty(t.shape, dtype=dout.dtype)
    free = mask.copy()  # tiles whose gradient is still unrouted
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
    dq2 = dflat.reshape(bsz, ch, side, side).transpose(0, 2, 3, 1)
    dz2 = _maxpool2_backward(dq2, z2, q2, m2)
    dw2, db2, da1 = _conv2d_backward(dz2, cols2, w2, q1.shape)
    dz1 = _maxpool2_backward(da1, z1, q1, m1)
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
    :data:`FORWARD_CHUNK` images, dropping each chunk's cache, so a 512-image
    evaluation batch holds only chunk-sized patch buffers and activations.
    The last chunk ends at the last image and overlaps its predecessor, whose
    features for the shared images are kept, so every chunk of a batch of at
    least that many images has a batch-20 training step's shape: after such
    a step, evaluation allocates no conv buffer.  The head then runs once
    over all the features: an fc GEMM row's bits can depend on the row
    count.  On the SkylakeX kernel the logits equal one pass over the whole
    batch bit for bit; on a kernel whose conv GEMM rows also depend on the
    row count, such as AVX2's, they agree to float32 rounding.
    :func:`loss_and_grads` chunks the whole network instead, and changes the
    summation order of its gradients.
    """
    x = _as_model_input(model, inputs)
    if model.arch == "cnn":
        n, parts = x.shape[0], []
        for s in range(0, n, FORWARD_CHUNK):
            start = max(0, min(s, n - FORWARD_CHUNK))  # the last chunk ends at n
            parts.append(_conv_forward(model, x[start:start + FORWARD_CHUNK])[0][s - start:])
        x = np.concatenate(parts)
    return _head(model, x)[0]


def loss_and_grads(model: ModelParams, inputs: np.ndarray,
                   labels: np.ndarray) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy over the batch and its parameter gradients.

    Labels must lie in 0..n_classes-1, and the batch must not be empty.  The
    returned gradients are ``model``'s structure laid over one new vector.

    A cnn batch of more than :data:`CONV_CHUNK` images runs forward and
    backward over equal chunks of at most that many images (4 x 50 at 200),
    so its patch buffers and activations stay chunk-sized.  Each chunk's loss
    and logit gradient are divided by the whole batch size, and the chunk
    gradient vectors are summed in chunk order into the first chunk's: the
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
        grads += more
    return loss, model.with_flat(grads)


def _loss_and_grads(model: ModelParams, x: np.ndarray, labels: np.ndarray, total: int):
    """One pass of :func:`loss_and_grads` over checked inputs: the loss and
    the gradient vector, in ``model.flat``'s order, summed over the batch and
    divided by ``total``."""
    feats, conv_cache = _conv_forward(model, x) if model.arch == "cnn" else (x, None)
    logits, a, m = _head(model, feats)
    loss, dlogits = _softmax_cross_entropy(logits, labels, total)

    hidden, out = model.layers[-2:]
    dz = (dlogits @ out.weights) * m
    grads = [(dz.T @ feats, dz.sum(axis=0)), (dlogits.T @ a, dlogits.sum(axis=0))]
    if conv_cache is not None:
        grads = _conv_backward(model, dz @ hidden.weights, conv_cache) + grads
    return loss, np.concatenate([a for pair in grads for a in pair], axis=None)


# ---------------------------------------------------------------------------
# updates


def check_aligned(a: ModelParams, b: ModelParams):
    """Raise ValueError unless ``a`` and ``b`` share arch, layer count and shapes."""
    if a.arch != b.arch or len(a.layers) != len(b.layers):
        raise ValueError(f"model mismatch: {a.arch}/{len(a.layers)} layers vs "
                         f"{b.arch}/{len(b.layers)}")
    for la, lb in zip(a.layers, b.layers):
        if la.weights.shape != lb.weights.shape or la.bias.shape != lb.bias.shape:
            kind = "weights" if la.weights.shape != lb.weights.shape else "bias"
            raise ValueError(f"layer {la.name}: shape mismatch in {kind} "
                             f"{getattr(la, kind).shape} vs {getattr(lb, kind).shape}")


def sgd_step(model: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One vanilla SGD update, ``w - lr * g``."""
    check_aligned(model, grads)
    t = lr * grads.flat  # numpy's own order for w - lr * g, one temporary fewer
    return model.with_flat(np.subtract(model.flat, t, out=t))


def train_local_with_loss(model: ModelParams, images: np.ndarray, rows: np.ndarray,
                          labels: np.ndarray, epochs: int, batch_size: int,
                          learning_rate: float,
                          rng: np.random.Generator) -> tuple[ModelParams, float]:
    """Minibatch SGD on ``images[rows]`` with ``labels``, one per row, for
    ``epochs`` epochs; returns the model and its mean per-step loss.

    ``images`` may be a whole training set: each batch is gathered from it as
    ``images[rows[order[...]]]``, so the examples are never copied whole.
    Each epoch reshuffles the example order; a trailing partial batch is kept.
    When the whole set fits in one batch the source order is used as-is, so a
    full-batch epoch is exactly one plain gradient-descent step.  The
    hyperparameters are taken as given; ``validate_config`` checks a run's.
    """
    n = labels.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    n_batches = -(-n // batch_size)  # ceil
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n) if n_batches > 1 else np.arange(n)
        for s in range(n_batches):
            take = order[s * batch_size:(s + 1) * batch_size]
            loss, grads = loss_and_grads(model, images[rows[take]], labels[take])
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
    flat = shadow.flat  # the layers are views of it
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = loss_at(shadow)
        flat[i] = keep - step
        down = loss_at(shadow)
        flat[i] = keep
        numeric = (up - down) / (2 * step)
        a = float(grads.flat[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
