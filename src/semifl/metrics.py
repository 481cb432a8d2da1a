"""Evaluation and model-divergence metrics.

Divergence between two models is measured per weight layer with two numbers:

* ACS -- averaged cosine similarity.  A fiber is one row of a layer's weights:
  one conv kernel (``kh*kw`` values of ``(out, in, kh, kw)``) or the inputs of
  one fc unit (a row of ``(out, in)``).  The cosine similarity of each pair of
  fibers is averaged over the layer.
* RED -- relative Euclidean distance, ``norm(w1 - w2) / norm(w2)``, with the
  second argument as the reference.

Both are computed in float64 regardless of the model dtype, with numpy's own
pairwise sums rather than BLAS dot products, so their bits do not depend on
the BLAS kernel or its thread count.  Biases are not part of either metric.
"""

from __future__ import annotations

import numpy as np

from .nn import ModelParams, check_aligned, forward

EPS = 1e-8
EVAL_BATCH = 512  # images per forward call in evaluation


def evaluate_accuracy(model: ModelParams, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of examples whose argmax logit (lowest index wins ties) is correct."""
    n = labels.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty set")
    hits = 0
    for s in range(0, n, EVAL_BATCH):
        logits = forward(model, images[s:s + EVAL_BATCH])
        hits += int((np.argmax(logits, axis=1) == labels[s:s + EVAL_BATCH]).sum())
    return hits / n


def acs(w1: np.ndarray, w2: np.ndarray) -> float:
    """Averaged cosine similarity of two conv ``(out, in, kh, kw)`` or fc
    ``(out, in)`` weight arrays over their fibers (rows; see the module docstring).

    Fiber norms are clamped below at ``EPS`` so zero fibers compare as 0.
    """
    a = np.asarray(w1, dtype=np.float64)
    b = np.asarray(w2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 4):
        raise ValueError(f"expected conv (rank-4) or fc (rank-2) weights, got rank {a.ndim}")
    rows = a.shape[0] * a.shape[1] if a.ndim == 4 else a.shape[0]
    a, b = a.reshape(rows, -1), b.reshape(rows, -1)
    dots = (a * b).sum(axis=-1)
    na = np.maximum(np.linalg.norm(a, axis=-1), EPS)
    nb = np.maximum(np.linalg.norm(b, axis=-1), EPS)
    return float((dots / (na * nb)).mean())


def red(w1: np.ndarray, w2: np.ndarray) -> float:
    """Relative Euclidean distance ``norm(w1 - w2) / norm(w2)`` (w2 = reference)."""
    a = np.asarray(w1, dtype=np.float64).reshape(-1)
    b = np.asarray(w2, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    ref = np.sqrt(np.square(b).sum())
    if ref == 0.0:
        raise ValueError("reference weights have zero norm")
    return float(np.sqrt(np.square(a - b).sum()) / ref)


def layer_divergence(subject: ModelParams,
                     reference: ModelParams) -> dict[str, tuple[float, float]]:
    """Layer name -> (ACS, RED) of ``subject`` against ``reference``, in layer order."""
    check_aligned(subject, reference)
    return {ls.name: (acs(ls.weights, lr.weights), red(ls.weights, lr.weights))
            for ls, lr in zip(subject.layers, reference.layers)}
