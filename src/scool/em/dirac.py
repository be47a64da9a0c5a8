"""Degenerate (fixed-graph) prior: decentralized parallel SGD.

With the cooperation graph frozen at a symmetric row-stochastic w and the
model prior scale tied to the step size (lambda = 1/step), the generic
cooperative update collapses to gossip averaging followed by a local
gradient step. The test suite checks the collapsed form against the
pre-collapse manifold descent form; they agree to machine precision.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import Dataset, LocalModel, batch_grad
from .theta import stack_clients


def metropolis_weights(mask: np.ndarray) -> np.ndarray:
    """Symmetric row-stochastic mixing weights for an undirected mask:
    w_ij = 1/(1 + max(deg_i, deg_j)) on edges, remainder on the diagonal.
    On a fully-connected mask this is the uniform matrix."""
    mask = np.asarray(mask, dtype=bool)
    if not np.array_equal(mask, mask.T):
        raise ConfigurationError("metropolis weights need a symmetric mask")
    K = len(mask)
    off = mask.copy()
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1)
    w = np.zeros((K, K))
    w[off] = 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :])[off])
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def _validate_w(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    K = len(w)
    if not np.allclose(w, w.T, atol=1e-12):
        raise ConfigurationError("gossip weights must be symmetric")
    if not np.allclose(w.sum(axis=1), np.ones(K), atol=1e-9):
        raise ConfigurationError("gossip weights must be row-stochastic")
    return w


def dpsgd_step(
    models: Sequence[LocalModel],
    w: np.ndarray,
    train_sets: Sequence[Dataset],
    eta1: float,
) -> None:
    """theta_i <- sum_j w_ij theta_j - eta1 * grad_i, with the gradient
    evaluated at the pre-averaging parameters; the K gradients are one
    batched call."""
    w = _validate_w(w)
    thetas, X, Y = stack_clients(models, train_sets)
    new = w @ thetas - eta1 * batch_grad(thetas, X, Y, models[0].arch)
    if not np.all(np.isfinite(new)):
        raise DivergenceError("gossip step produced non-finite parameters")
    for model, theta in zip(models, new):
        model.theta = theta

