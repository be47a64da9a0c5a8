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
from ..models import ClientStore, DataStack
from ..topology import observed_pairs
from .state import DiracState, read_only_w as graph  # graph: the reporting hook local-only and attention share
from .theta import first_bad_row, own_gradients

# the graph is fixed, not learned: no loglik matrix, E-step, lower bound or pruning
e_step = bound_terms = update_prior = coupling = None


def init_state(config, mask) -> DiracState:
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


def dpsgd_step(models: ClientStore, w: np.ndarray, train_sets: DataStack, eta1: float, step: int = 0) -> None:
    """theta_i <- sum_j w_ij theta_j - eta1 * grad_i on models.theta in
    place, with the gradient evaluated at the pre-averaging parameters; the
    K gradients take one batched call per pair block (theta.own_gradients),
    in the store's workspace. w is
    checked once, when its DiracState is built. A step that leaves a
    parameter non-finite moves no model and, by the cooperative steps' rule,
    names the first client whose gradient, or else whose new parameters,
    are not finite, at local step ``step``."""
    thetas, X, Y, ws = models.theta, train_sets.features, train_sets.labels, models.workspace
    grads = own_gradients(thetas, X, Y, models.arch, ws.take("own", *thetas.shape), ws)
    new = w @ thetas - eta1 * grads
    if not np.all(np.isfinite(new)):
        bad = first_bad_row(grads)
        if bad is not None:
            raise DivergenceError(f"client {bad} produced a non-finite update at local step {step}")
        raise DivergenceError(f"client {first_bad_row(new)} parameters left the finite range at local step {step}")
    thetas[...] = new


def local_steps(state: DiracState, models, config) -> None:
    """The run's local steps as gossip steps, in place of the cooperative ones."""
    for step in range(config.local_steps):
        dpsgd_step(models, state.w, models.train, config.eta1, step)
