"""The benchmark's workloads: overrides on configs/benchmark-sbm.json.

Each workload stresses a different layer of the simulator (see README.md).
The config seed is the benchmark's --seed; everything else is fixed here.
"""

from __future__ import annotations

import json
from pathlib import Path

BASE_CONFIG = Path("configs") / "benchmark-sbm.json"

# group-ring links clients at cyclic distance <= (K - K0)/2, so K0 = 144 at
# K = 192 gives every client 48 neighbours.
RING_192 = {"topology_kind": "group-ring", "topology_k0": 144}

WORKLOADS = {
    # The paper's headline setting: exact cross-gradients on a full mask,
    # one-shot top-k pruning to 0.27 at round 10 (inherited from the base).
    "sbm-k48-cross": {"prior_kind": "sbm", "K": 48},
    # Largest K x K x M pair-membership E-step and ELBO; taylor-approx takes
    # K own gradients plus K^2 neighbour sums. Pruning to 0.27 would keep
    # ceil(0.27 * 191) = 52 >= 48 neighbours, a no-op, so it is off.
    "mmsbm-k192-taylor-ring": {
        "prior_kind": "mmsbm",
        "K": 192,
        "grad_mode": "taylor-approx",
        **RING_192,
        "sparsify_keep_fraction": 1.0,
        "rounds": 12,
    },
    # The only MLP gradient path, attention encoder, coupling term and phi
    # update; pruning at round 10 as in the base.
    "attention-k48-mlp": {
        "prior_kind": "attention",
        "K": 48,
        "arch": "mlp-1hidden",
        "rounds": 16,
    },
    # Gossip only: no loglik matrix, E-step, ELBO or cooperative steps, so a
    # faster cross-client kernel must leave it unchanged. Pruning is off
    # because dirac prunes by index on uniform weights (see CHANGES.md).
    "dirac-k192-ring": {
        "prior_kind": "dirac",
        "K": 192,
        **RING_192,
        "sparsify_keep_fraction": 1.0,
        "rounds": 90,
    },
}


def config_dict(root: Path, workload: str, seed: int) -> dict:
    """The full flat config of one workload at one seed."""
    base = json.loads((root / BASE_CONFIG).read_text())
    return {**base, **WORKLOADS[workload], "seed": seed}
