"""No-cooperation baseline: every client trains on its own data alone.

The cooperation graph is the identity, so there is no state, no loglik
matrix, E-step, lower bound or pruning, and nothing goes on the wire. The
local epochs are run_round's cooperative call on the identity: local SGD.
"""

from __future__ import annotations

import numpy as np

e_step = bound_terms = local_steps = coupling = update_prior = None


def init_state(config, mask, theta_dim: int) -> None:
    return None


def graph(state, K: int) -> np.ndarray:
    return np.eye(K)
