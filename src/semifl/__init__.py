"""Deterministic simulator for clustered semi-federated learning.

Clients are grouped into clusters; within a cluster each client trains
sequentially from its predecessor's weights, cluster heads are averaged by
the server, and the result is compared against FedAvg and a centralized
baseline under identical seeds and budgets.
"""

__version__ = "0.1.0"
