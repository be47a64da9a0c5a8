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


def m_step(
    state, models, train_sets, *, eta1, local_steps, grad_mode, mask,
    lam, optimizer, optimizer_weight_decay, attention_coupling,
) -> None:
    """Local SGD: the cooperative step with identity weights. The kernel is
    looked up on its module at call time, where tracing may rebind it."""
    theta.cooperative_sgd_steps(
        models, train_sets, np.eye(len(models)), lam, eta1, local_steps, grad_mode
    )


def graph(state, K: int) -> np.ndarray:
    return np.eye(K)
