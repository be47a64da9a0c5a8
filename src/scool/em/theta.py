"""Cooperative local-model updates shared by all structured priors.

Each local step descends on the client's own mean cross-entropy plus the
neighbor losses weighted by the cooperation graph, over the pairs the
topology's boolean mask allows, plus the ridge prior.
All gradients of a step are taken on a snapshot of the models before any
parameter moves, so the sweep is order-independent and a run with the same
inputs is bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import ArchSpec, ClientStore, DataStack, batch_grad, pairs_per_block
from ..topology import CROSS_GRADIENT, TAYLOR_APPROX, observed_pairs

# Activation elements (pairs x samples x max(h, C)) one batched cross-client
# call may hold: the loglik matrix and the cross-gradients are evaluated over
# the round's pair list in blocks of this size, so their memory stays flat
# in K while the number of calls falls to a few per pass.
PAIR_BLOCK_ELEMENTS = 8192

# Optional per-step extra descent terms (the attention coupling); called on
# the pre-step snapshot, returns one vector per client.
CouplingFn = Callable[[ClientStore], np.ndarray]


def pair_blocks(n_pairs: int, n: int, arch: ArchSpec) -> list[slice]:
    """Consecutive slices of a pair list, each within PAIR_BLOCK_ELEMENTS."""
    size = pairs_per_block(PAIR_BLOCK_ELEMENTS, n, arch)
    return [slice(a, min(a + size, n_pairs)) for a in range(0, n_pairs, size)]


def _fold(delta: np.ndarray, rows: np.ndarray, g: np.ndarray) -> None:
    """delta[rows[e]] += g[e] in place for ascending rows, each row adding
    its terms left to right after its current value: the terms sit on a
    leading axis padded with -0.0 (the exact additive identity) above the
    rows' values in slot 0, and one reduction adds the slots in order."""
    local = rows - rows[0]
    rank = np.arange(len(rows)) - np.searchsorted(local, local)
    span = delta[rows[0] : rows[-1] + 1]
    stack = np.full((rank.max() + 2, *span.shape), -0.0)
    stack[0] = span
    stack[rank + 1, local] = g
    # without initial=-0.0 numpy starts from +0.0 and turns a -0.0 row into +0.0
    np.add.reduce(stack, axis=0, out=span, initial=-0.0)


def _first_bad_row(values: np.ndarray) -> int | None:
    bad = ~np.isfinite(values).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def cooperative_sgd_steps(
    models: ClientStore,
    train_sets: DataStack,
    w: np.ndarray,
    lam: float,
    eta1: float,
    steps: int,
    grad_mode: str,
    mask: np.ndarray,
    coupling_fn: CouplingFn | None = None,
    grads: np.ndarray | None = None,
) -> None:
    """Run ``steps`` synchronous cooperative gradient steps on models.theta
    in place.

    grad_mode selects the neighbor-gradient route: exact cross-gradients
    grad(theta_i; D_j), or the first-order surrogate grad(theta_j; D_j)
    which is exact when all models coincide and only needs each neighbor's
    own gradient on the wire. Each step takes the K own gradients in one
    batched call. The weighted off-diagonal pairs the mask allows form one
    row-major pair list (np.nonzero order, as in rounds.loglik_matrix), cut
    into blocks of at most PAIR_BLOCK_ELEMENTS activations; under
    cross-gradient each block is one batched call, under taylor-approx it
    gathers the own gradients. Masked and zero-weight pairs are never
    evaluated. Starting from own_i + lam theta_i, each block folds its
    weighted gradients into its rows (_fold) in the order of
    own_i + lam theta_i + w_ij1 g_ij1 + w_ij2 g_ij2 + ...

    ``grads`` holds the loglik pass's gradients at the current models
    (rounds.loglik_matrix): row e is grad(theta_i; D_j) of the mask's e-th
    allowed pair (i, j) in np.nonzero order, so the mask's diagonal must be
    true. The weighted pairs are a subset of that list in the same order,
    so step 0 gathers the own gradients and each block's cross-gradients
    from it by position instead of taking them again; later steps, whose
    models have moved, take fresh ones.
    """
    if eta1 <= 0:
        raise ConfigurationError("eta1 must be positive")
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    w = np.asarray(w, dtype=float)
    edges = observed_pairs(mask) & (w != 0.0)
    rows, cols = np.nonzero(edges)
    weights = w[rows, cols][:, None]
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    blocks = pair_blocks(len(rows), X.shape[1], arch)
    if grads is not None:
        if grads.shape != (np.count_nonzero(mask), arch.n_params) or not np.diagonal(mask).all():
            raise ConfigurationError("stored pair gradients need one row per allowed pair, the diagonal included")
        own_index = np.flatnonzero(np.eye(len(thetas), dtype=bool)[mask])
        pair_index = np.flatnonzero(edges[mask])

    for step in range(steps):
        stored = step == 0 and grads is not None
        own = grads[own_index] if stored else batch_grad(thetas, X, Y, arch)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        delta = own + lam * thetas
        for blk in blocks:
            r, c = rows[blk], cols[blk]
            if grad_mode == TAYLOR_APPROX:
                g = own[c]
            elif stored:
                g = grads[pair_index[blk]]
            else:
                g = batch_grad(thetas[r], X[c], Y[c], arch)
            g *= weights[blk]
            _fold(delta, r, g)
        if coupling is not None:
            delta += coupling
        bad = _first_bad_row(delta)
        if bad is not None:
            raise DivergenceError(f"client {bad} produced a non-finite update at local step {step}")
        new = thetas - eta1 * delta
        bad = _first_bad_row(new)
        thetas[:bad] = new[:bad]
        if bad is not None:
            raise DivergenceError(f"client {bad} parameters left the finite range at local step {step}")
