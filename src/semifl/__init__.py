"""Deterministic simulator for clustered semi-federated learning.

Clients are grouped into clusters; within a cluster each client trains
sequentially from its predecessor's weights, cluster heads are averaged by
the server, and the result is compared against FedAvg and a centralized
baseline under identical seeds and budgets.
"""

from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .clustering import (ClusterAssignment, build_pattern, load_assignment,
                         save_assignment, shuffle_within_clusters, validate)
from .config import ExperimentConfig, parse_config, render_config, validate_config
from .data import (LabeledSet, generate_synthetic, load_idx, partition, partition_iid,
                   partition_noniid_shards)
from .errors import ConfigError, DataError, SemiFLError
from .experiment import compare_checkpoints, run_experiment, summarize_run
from .federation import (RoundRecord, aggregate_mean, plan_rounds, pool_clients,
                         run_round, stream)
from .metrics import (DivergenceReport, LayerDivergence, acs, cosine_map,
                      evaluate_accuracy, fiber_view, layer_divergence, red)
from .nn import (ARCHITECTURES, LayerParams, ModelParams, forward, grad_check,
                 init_cnn, init_mlp, init_model, loss_and_grads, sgd_step,
                 train_local_with_loss)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
