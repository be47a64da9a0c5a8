"""Cooperative local-model updates shared by all structured priors.

Each local step descends on the client's own mean cross-entropy plus the
neighbor losses weighted by the cooperation graph plus the ridge prior.
All gradients of a step are taken on a snapshot of the models before any
parameter moves, so the sweep is order-independent and a run with the same
inputs is bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import Dataset, LocalModel, batch_grad
from ..topology import CROSS_GRADIENT, TAYLOR_APPROX

# Optional per-step extra descent terms (the attention coupling); called on
# the pre-step snapshot, returns one vector per client.
CouplingFn = Callable[[Sequence[LocalModel]], np.ndarray]


def stack_clients(
    models: Sequence[LocalModel], train_sets: Sequence[Dataset]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameters K x D, features K x n x d and labels K x n of all clients,
    the stacked layout the batched kernel reads."""
    if len(models) != len(train_sets):
        raise ConfigurationError("need one train set per model")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise ConfigurationError("all clients must share one architecture")
    if any(ds.features.shape != train_sets[0].features.shape for ds in train_sets):
        raise ConfigurationError("train sets must share their size and feature width")
    if train_sets[0].features.shape[1] != arch.d:
        raise ConfigurationError(f"train features are not {arch.d}-dimensional as the models need")
    return (
        np.stack([m.theta for m in models]),
        np.stack([ds.features for ds in train_sets]),
        np.stack([ds.labels for ds in train_sets]),
    )


def cooperative_sgd_steps(
    models: Sequence[LocalModel],
    train_sets: Sequence[Dataset],
    w: np.ndarray,
    lam: float,
    eta1: float,
    steps: int,
    grad_mode: str = CROSS_GRADIENT,
    mask: np.ndarray | None = None,
    coupling_fn: CouplingFn | None = None,
) -> None:
    """Run ``steps`` synchronous cooperative gradient steps in place.

    grad_mode selects the neighbor-gradient route: exact cross-gradients
    grad(theta_i; D_j), or the first-order surrogate grad(theta_j; D_j)
    which is exact when all models coincide and only needs each neighbor's
    own gradient on the wire. Each step takes the K own gradients in one
    batched call and, under cross-gradient, one more per client over the
    neighbors its row allows; masked and zero-weight pairs are skipped.
    """
    if eta1 <= 0:
        raise ConfigurationError("eta1 must be positive")
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    K = len(models)
    w = np.asarray(w, dtype=float)
    allowed = np.ones((K, K), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    edges = allowed & (w != 0.0)
    np.fill_diagonal(edges, False)
    neighbors = [np.flatnonzero(row) for row in edges]
    _, X, Y = stack_clients(models, train_sets)
    arch = models[0].arch

    for step in range(steps):
        thetas = np.stack([m.theta for m in models])
        own = batch_grad(thetas, X, Y, arch)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        updates = []
        for i, nbrs in enumerate(neighbors):
            if grad_mode == TAYLOR_APPROX:
                g = own[nbrs]
            else:
                shared = np.broadcast_to(thetas[i], (len(nbrs), arch.n_params))
                g = batch_grad(shared, X[nbrs], Y[nbrs], arch)
            # summing the stacked terms over axis 0 adds them left to right,
            # the same fold as delta = own_i + lam theta_i + w_ij1 g_ij1 + ...
            terms = np.concatenate([(own[i] + lam * thetas[i])[None], w[i, nbrs][:, None] * g])
            delta = terms.sum(axis=0)
            if coupling is not None:
                delta = delta + coupling[i]
            if not np.all(np.isfinite(delta)):
                raise DivergenceError(f"client {i} produced a non-finite update at local step {step}")
            updates.append(delta)
        for i in range(K):
            theta = models[i].theta - eta1 * updates[i]
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(f"client {i} parameters left the finite range at local step {step}")
            models[i].theta = theta
