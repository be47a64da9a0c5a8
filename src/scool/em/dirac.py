"""Degenerate (fixed-graph) prior: decentralized parallel SGD.

With the cooperation graph frozen at a symmetric row-stochastic w and the
model prior scale tied to the step size (lambda = 1/step), the generic
cooperative update collapses to gossip averaging followed by a local
gradient step. The test suite checks the collapsed form against the
pre-collapse manifold descent form; they agree to machine precision.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import ClientStore, DataStack, batch_value_and_grad
from ..topology import observed_pairs
from .state import DiracState

# the graph is fixed, not learned: no loglik matrix, E-step, lower bound or pruning
e_step = None


def init_state(config, mask, theta_dim: int) -> DiracState:
    return DiracState(metropolis_weights(mask))


def metropolis_weights(mask: np.ndarray) -> np.ndarray:
    """Symmetric row-stochastic mixing weights for an undirected mask:
    w_ij = 1/(1 + max(deg_i, deg_j)) on edges, remainder on the diagonal.
    On a fully-connected mask this is the uniform matrix."""
    if not np.array_equal(mask, mask.T):
        raise ConfigurationError("metropolis weights need a symmetric mask")
    K = len(mask)
    off = observed_pairs(mask)
    deg = off.sum(axis=1)
    w = np.zeros((K, K))
    w[off] = 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :])[off])
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def dpsgd_step(models: ClientStore, w: np.ndarray, train_sets: DataStack, eta1: float) -> None:
    """theta_i <- sum_j w_ij theta_j - eta1 * grad_i on models.theta in
    place, with the gradient evaluated at the pre-averaging parameters; the
    K gradients are one batched call, in the store's workspace. w is
    checked once, when its DiracState is built."""
    thetas, X, Y = models.theta, train_sets.features, train_sets.labels
    grads = batch_value_and_grad(thetas, X, Y, models.arch, value=False, workspace=models.workspace)[1]
    new = w @ thetas - eta1 * grads
    if not np.all(np.isfinite(new)):
        raise DivergenceError("gossip step produced non-finite parameters")
    thetas[...] = new


def m_step(state: DiracState, models, mask, config, grads) -> None:
    for _ in range(config.local_steps):
        dpsgd_step(models, state.w, models.train, config.eta1)


def graph(state: DiracState, K: int) -> np.ndarray:
    """The fixed weights as a read-only view: they never change, so no round copies them."""
    w = state.w.view()
    w.flags.writeable = False
    return w
