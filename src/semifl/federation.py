"""The round engine shared by the three training modes.

A round trains ordered chains of clients, every chain starting from the same
global snapshot; each client continues from its predecessor's weights and the
chain's last model is its head.  A chain is a cluster, the tuple of client ids
that :mod:`semifl.clustering` builds.  The modes differ only in the chains
they train and in what happens to the heads:

* ``semifl`` -- one chain per cluster; the server averages the heads.
* ``fl``     -- classic FedAvg, which is semifl over singleton clusters: every
  client is a one-client chain.
* ``cl``     -- centralized pooled minibatch SGD: the pool, every client's
  rows in one shard, is the one client of the one chain, trained for one
  epoch at ``cl_batch``; with no server, its head is the new model.

With a server, each round trains max(1, round(C*N)) of the N chains (FedAvg's
client fraction C, which in semifl picks clusters), drawn afresh every round;
at C = 1 all of them train and nothing is drawn.

:func:`plan_rounds` holds that per-mode knowledge; :func:`run_round` is the
engine.  Every random draw is keyed by (master_seed, purpose, round, id)
through ``SeedSequence``, so a client's training stream depends only on who
it is and which round it is -- not on scheduling order.  The server folds
each upload's parameter vector into one float64 sum as it arrives, in
ascending chain order, so a round holds one head at a time, and averaging N
copies of the same model reproduces it bit for bit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .clustering import Clusters
from .config import ExperimentConfig
from .data import Shard
from .nn import ModelParams, check_aligned, train_local_with_loss

# stream purposes
_KIND_TRAIN = 0   # per-client local training (shuffles)
_KIND_SAMPLE = 1  # per-round chain sampling (FedAvg's C)
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


@dataclass(frozen=True)
class RoundPlan:
    """What one mode trains in every round of a run."""

    clients: Sequence[Shard]  # client k trains on clients[k] and stream id k
    chains: Clusters                # client ids per chain, in training order
    epochs: int
    batch_size: int
    learning_rate: float
    sample: int              # chains trained per round, drawn when fewer than all
    server: bool             # average the heads; without a server the one head is the model
    seed: int


def plan_rounds(cfg: ExperimentConfig, clients: list[Shard],
                clusters: Clusters | None = None) -> RoundPlan:
    """The chains, streams and hyperparameters of ``cfg.mode``.

    Client ``k`` is ``clients[k]`` and trains on stream id ``k``.  With a
    server, the chains are ``clusters``, and ``None`` makes every client its
    own cluster: that is FedAvg.  ``cl`` pools the clients into client 0, the
    one chain ``((0,),)``, and ignores ``clusters``.  Clusters are taken as
    given: ``build_assignment`` checks an explicit assignment with
    ``clustering.validate``, and the patterns are built from the clients.
    """
    if cfg.mode == "cl":
        clients, chains, epochs, batch_size = [pool_clients(clients)], ((0,),), 1, cfg.cl_batch
    else:
        chains = tuple((cid,) for cid in range(len(clients))) if clusters is None else clusters
        epochs, batch_size = cfg.local_epochs, cfg.local_batch
    return RoundPlan(clients=clients, chains=chains, epochs=epochs, batch_size=batch_size,
                     learning_rate=cfg.learning_rate, server=cfg.mode != "cl",
                     sample=max(1, round(cfg.client_fraction * len(chains))), seed=cfg.master_seed)


class _Uploads:
    """The heads of a round's chains in chain order, each trained only when
    iteration reaches it; iterating it again trains the chains again.
    ``aggregate_mean`` counts the uploads itself as it folds them; only
    perfbench's tracer reads the length (``_model_count``, the models per
    aggregation)."""

    def __init__(self, chains: Clusters, train: Callable[[int, tuple[int, ...]], ModelParams]):
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
    kind = _KIND_TRAIN if plan.server else _KIND_CL
    if plan.sample < len(chains):
        sampler = stream(plan.seed, _KIND_SAMPLE, round_idx)
        picks = np.sort(sampler.choice(len(chains), size=plan.sample, replace=False))
        chains = tuple(chains[i] for i in picks)

    losses = []

    def train_chain(ci: int, chain: tuple[int, ...]) -> ModelParams:
        head = model
        for ident in chain:
            shard = plan.clients[ident]
            head, loss = train_local_with_loss(
                head, shard.source.images, shard.rows, shard.labels, plan.epochs,
                plan.batch_size, plan.learning_rate, stream(plan.seed, kind, round_idx, ident))
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
    """Unweighted elementwise mean, folding the models in iteration order.

    The first model's ``flat`` is cast to one float64 vector, and each later
    model is added into it as it is drawn, so a lazy iterable is never held
    whole.  The sum is divided and cast back to the first model's dtype, so
    the mean of N identical models is bit-identical to the input.
    """
    total, n = None, 0
    for m in models:
        if total is None:
            total, out_dtype = m.astype(np.float64), m.dtype
        else:
            check_aligned(total, m)
            np.add(total.flat, m.flat, out=total.flat)
        n += 1
    if total is None:
        raise ValueError("cannot aggregate an empty model list")
    return total.with_flat((total.flat / n).astype(out_dtype))


def pool_clients(clients: list[Shard]) -> Shard:
    """Every client's rows and labels, concatenated in ascending client-id order.

    The pool is one more shard of the clients' one training set: it copies
    rows, never images.
    """
    source = clients[0].source
    if any(c.source is not source for c in clients):
        raise ValueError("cannot pool clients of different training sets")
    return Shard(source, np.concatenate([c.rows for c in clients]),
                 np.concatenate([c.labels for c in clients]))
