"""The round engine shared by the three training modes.

A round trains ordered chains of participants, every chain starting from the
same global snapshot; each participant continues from its predecessor's
weights and the chain's last model is its head.  The modes differ only in the
chains they train and in what happens to the heads:

* ``semifl`` -- one chain per cluster; the server averages the N heads.
* ``fl``     -- classic FedAvg: max(1, round(C*K)) sampled clients, each a
  one-client chain; the server averages their models.
* ``cl``     -- centralized pooled minibatch SGD: one chain holding the pooled
  set, trained for one epoch at ``cl_batch``; with no server, its head is the
  new model.

:func:`plan_rounds` holds that per-mode knowledge; :func:`run_round` is the
engine.  Every random draw is keyed by (master_seed, purpose, round, id)
through ``SeedSequence``, so a client's training stream depends only on who
it is and which round it is -- not on scheduling order.  The server folds
each upload into float64 layer sums as it arrives, in ascending chain order,
so a round holds one head at a time, and averaging N copies of the same model
reproduces it bit for bit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .clustering import Clusters
from .config import ExperimentConfig
from .data import LabeledSet
from .nn import ModelParams, LayerParams, check_aligned, train_local_with_loss

# stream purposes
_KIND_TRAIN = 0   # per-client local training (shuffles)
_KIND_SAMPLE = 1  # per-round FedAvg client sampling
_KIND_CL = 2      # per-round centralized epoch shuffle


def stream(master_seed: int, kind: int, round_idx: int, ident: int = 0) -> np.random.Generator:
    """Independent generator for one (purpose, round, id) slot."""
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, kind, round_idx, ident]))


@dataclass
class RoundRecord:
    """Per-round facts destined for the metrics CSV."""

    round: int
    test_accuracy: float = float("nan")
    train_loss: float = float("nan")
    uplink_models: int = 0
    elapsed_ms: int = 0


Chain = tuple[tuple[int, LabeledSet], ...]  # (stream id, examples) in training order


@dataclass(frozen=True)
class RoundPlan:
    """What one mode trains in every round of a run."""

    chains: tuple[Chain, ...]
    kind: int                # stream purpose of the chain links
    epochs: int
    batch_size: int
    learning_rate: float
    sample: int              # chains drawn per round; 0 trains them all
    server: bool             # average the heads; without a server the one head is the model
    seed: int


def plan_rounds(cfg: ExperimentConfig, clients: list[LabeledSet],
                clusters: Clusters | None = None) -> RoundPlan:
    """The chains, streams and hyperparameters of ``cfg.mode``.

    Client ``k`` is ``clients[k]`` and trains on stream id ``k``.
    ``clusters`` are the semifl clusters and are ignored by the other modes.
    They are taken as given: ``build_assignment`` checks an explicit
    assignment with ``clustering.validate``, and the patterns are built from
    the clients.
    """
    common = dict(learning_rate=cfg.learning_rate, seed=cfg.master_seed)
    if cfg.mode == "cl":
        return RoundPlan(chains=(((0, pool_clients(clients)),),), kind=_KIND_CL,
                         epochs=1, batch_size=cfg.cl_batch, sample=0, server=False, **common)
    common.update(epochs=cfg.local_epochs, batch_size=cfg.local_batch)
    if cfg.mode == "fl":
        m = max(1, round(cfg.client_fraction * len(clients)))
        singletons = tuple(((cid, c),) for cid, c in enumerate(clients))
        return RoundPlan(chains=singletons, kind=_KIND_TRAIN,
                         sample=m if m < len(clients) else 0, server=True, **common)
    chains = tuple(tuple((cid, clients[cid]) for cid in cluster) for cluster in clusters)
    return RoundPlan(chains=chains, kind=_KIND_TRAIN, sample=0, server=True, **common)


class _Uploads:
    """The heads of a round's chains in chain order, each trained only when
    iteration reaches it; iterating it again trains the chains again.
    ``aggregate_mean`` counts the uploads itself as it folds them; only
    perfbench's tracer reads the length (``_model_count``, the models per
    aggregation)."""

    def __init__(self, chains: Sequence[Chain], train: Callable[[int, Chain], ModelParams]):
        self.chains, self.train = chains, train

    def __len__(self) -> int:
        return len(self.chains)

    def __iter__(self) -> Iterator[ModelParams]:
        for ci, chain in enumerate(self.chains):
            yield self.train(ci, chain)


def run_round(model: ModelParams, plan: RoundPlan,
              round_idx: int) -> tuple[ModelParams, RoundRecord]:
    """Train every chain of the round from ``model`` and combine the heads.

    Raises :class:`FloatingPointError` naming the round, chain and client as
    soon as a client's training loss is not finite, and naming the round and
    layer when the new model holds a non-finite parameter.
    """
    t0 = time.perf_counter()
    chains = plan.chains
    if plan.sample:
        sampler = stream(plan.seed, _KIND_SAMPLE, round_idx)
        picks = np.sort(sampler.choice(len(chains), size=plan.sample, replace=False))
        chains = [chains[i] for i in picks]

    losses = []

    def train_chain(ci: int, chain: Chain) -> ModelParams:
        head = model
        for ident, examples in chain:
            head, loss = train_local_with_loss(
                head, examples.images, examples.labels,
                plan.epochs, plan.batch_size, plan.learning_rate,
                stream(plan.seed, plan.kind, round_idx, ident))
            if not math.isfinite(loss):
                who = f"client {ident}" if plan.server else "the pooled set"
                raise FloatingPointError(
                    f"round {round_idx}, chain {ci}, {who}: training loss is {loss}; "
                    f"training diverged (try a lower learning_rate)")
            losses.append(loss)
        return head

    # the server folds each head in as it is uploaded; cl's one head is the model
    new_model = (aggregate_mean(_Uploads(chains, train_chain)) if plan.server
                 else train_chain(0, chains[0]))
    for lp in new_model.layers:
        if not (np.isfinite(lp.weights).all() and np.isfinite(lp.bias).all()):
            raise FloatingPointError(
                f"round {round_idx}: layer {lp.name} has non-finite parameters; "
                f"training diverged (try a lower learning_rate)")
    rec = RoundRecord(
        round=round_idx, train_loss=float(np.mean(losses)),
        uplink_models=len(chains) if plan.server else 0,
        elapsed_ms=int((time.perf_counter() - t0) * 1000))
    return new_model, rec


def aggregate_mean(models: Iterable[ModelParams]) -> ModelParams:
    """Unweighted layer-wise mean, folding the models in iteration order.

    Each model is added into float64 layer sums as it is drawn, so a lazy
    iterable is never held whole.  The sums are cast back to the first
    model's dtype, so the mean of N identical models is bit-identical to the
    input.
    """
    sums, n = None, 0
    for m in models:
        if sums is None:
            out_dtype = m.dtype
            sums = ModelParams(m.arch, tuple(
                LayerParams(lp.name, np.zeros_like(lp.weights, dtype=np.float64),
                            np.zeros_like(lp.bias, dtype=np.float64))
                for lp in m.layers))
        check_aligned(sums, m)
        for s, lp in zip(sums.layers, m.layers):
            np.add(s.weights, lp.weights, out=s.weights)
            np.add(s.bias, lp.bias, out=s.bias)
        n += 1
    if sums is None:
        raise ValueError("cannot aggregate an empty model list")
    return ModelParams(sums.arch, tuple(
        LayerParams(s.name, (s.weights / n).astype(out_dtype), (s.bias / n).astype(out_dtype))
        for s in sums.layers))


def pool_clients(clients: list[LabeledSet]) -> LabeledSet:
    """Union of all client shards, concatenated in ascending client-id order."""
    images = np.concatenate([c.images for c in clients], axis=0)
    labels = np.concatenate([c.labels for c in clients], axis=0)
    return LabeledSet(images, labels)
