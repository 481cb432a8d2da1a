"""Evaluation and model-divergence metrics.

Divergence between two models is measured per weight layer with two numbers:

* ACS -- averaged cosine similarity.  A layer's weights are viewed as a rank-3
  stack of fibers (conv kernels ``(out, in, kh*kw)``; fc matrices ``(1, out, in)``),
  cosine similarity is taken along the last axis and averaged over the rest.
* RED -- relative Euclidean distance, ``norm(w1 - w2) / norm(w2)``, with the
  second argument as the reference.

Both are computed in float64 regardless of the model dtype.  Biases are not
part of either metric.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .nn import ModelParams, check_aligned, forward

EPS = 1e-8


def evaluate_accuracy(model: ModelParams, images: np.ndarray, labels: np.ndarray,
                      batch_size: int = 512) -> float:
    """Fraction of examples whose argmax logit (lowest index wins ties) is correct."""
    n = labels.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty set")
    hits = 0
    for s in range(0, n, batch_size):
        logits = forward(model, images[s:s + batch_size])
        hits += int((np.argmax(logits, axis=1) == labels[s:s + batch_size]).sum())
    return hits / n


def cosine_map(w1: np.ndarray, w2: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Cosine similarity along the last axis of two equal-shape rank-3 arrays.

    Denominator norms are clamped below at ``eps`` so zero fibers compare as 0.
    """
    a = np.asarray(w1, dtype=np.float64)
    b = np.asarray(w2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ValueError(f"expected rank-3 arrays, got rank {a.ndim}")
    dots = (a * b).sum(axis=-1)
    na = np.maximum(np.linalg.norm(a, axis=-1), eps)
    nb = np.maximum(np.linalg.norm(b, axis=-1), eps)
    return dots / (na * nb)


def acs(w1: np.ndarray, w2: np.ndarray, eps: float = EPS) -> float:
    """Averaged cosine similarity: mean of :func:`cosine_map` over all fibers."""
    return float(cosine_map(w1, w2, eps).mean())


def red(w1: np.ndarray, w2: np.ndarray) -> float:
    """Relative Euclidean distance ``norm(w1 - w2) / norm(w2)`` (w2 = reference)."""
    a = np.asarray(w1, dtype=np.float64).reshape(-1)
    b = np.asarray(w2, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    ref = np.linalg.norm(b)
    if ref == 0.0:
        raise ValueError("reference weights have zero norm")
    return float(np.linalg.norm(a - b) / ref)


def fiber_view(weights: np.ndarray) -> np.ndarray:
    """Rank-3 view of a weight array for :func:`acs`.

    Conv weights (out, in, kh, kw) become (out, in, kh*kw); fc weights
    (out, in) become (1, out, in).
    """
    w = np.asarray(weights)
    if w.ndim == 4:
        return w.reshape(w.shape[0], w.shape[1], -1)
    if w.ndim == 2:
        return w.reshape(1, *w.shape)
    raise ValueError(f"no fiber view for rank-{w.ndim} weights")


@dataclass(frozen=True)
class LayerDivergence:
    layer: str
    acs: float
    red: float


@dataclass(frozen=True)
class DivergenceReport:
    """Per-layer ACS/RED of a subject model against a reference model."""

    subject_id: str
    reference_id: str
    entries: tuple[LayerDivergence, ...]

    def entry(self, layer: str) -> LayerDivergence:
        for e in self.entries:
            if e.layer == layer:
                return e
        raise KeyError(layer)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# subject={self.subject_id} reference={self.reference_id}\n")
        buf.write("layer,acs,red\n")
        for e in self.entries:
            buf.write(f"{e.layer},{e.acs:.10g},{e.red:.10g}\n")
        return buf.getvalue()


def layer_divergence(subject: ModelParams, reference: ModelParams,
                     subject_id: str = "subject",
                     reference_id: str = "reference") -> DivergenceReport:
    """ACS and RED for every weight layer of two same-architecture models."""
    check_aligned(subject, reference)
    entries = []
    for ls, lr in zip(subject.layers, reference.layers):
        entries.append(LayerDivergence(
            ls.name,
            acs(fiber_view(ls.weights), fiber_view(lr.weights)),
            red(ls.weights, lr.weights)))
    return DivergenceReport(subject_id, reference_id, tuple(entries))
