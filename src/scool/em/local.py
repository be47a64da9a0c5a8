"""No-cooperation baseline: every client trains on its own data alone.

The cooperation graph is the identity, so there is no state, no loglik
matrix, E-step, lower bound or pruning, and nothing goes on the wire.
"""

from __future__ import annotations

import numpy as np

from . import theta

e_step = None


def init_state(config, topology, theta_dim: int) -> None:
    return None


def m_step(state, models, mask, config) -> None:
    """Local SGD: the cooperative step with identity weights and the run's
    weight decay as the ridge. The kernel is looked up on its module at
    call time, where tracing may rebind it."""
    theta.cooperative_sgd_steps(
        models, models.train, np.eye(len(models)), config.weight_decay,
        config.eta1, config.local_steps, config.grad_mode, mask,
    )


def graph(state, K: int) -> np.ndarray:
    return np.eye(K)
