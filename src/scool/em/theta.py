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


def _slot_major(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and slots of the edges, every row's first neighbour
    first, then every row's second neighbour, and so on; a slot holds each
    row at most once and each row's neighbours keep their column order."""
    rows, cols = np.nonzero(edges)
    degree = edges.sum(axis=1)
    slot = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]
    order = np.argsort(slot, kind="stable")
    return rows[order], cols[order], slot[order]


def _fold_plan(rows: np.ndarray, slot: np.ndarray, blocks: list[slice]):
    """For each block, the (start, stop, rows) of its slot segments relative
    to the block: a slot cut by a block boundary splits into two segments."""
    plan = []
    for blk in blocks:
        cuts = [0, *(np.flatnonzero(np.diff(slot[blk])) + 1).tolist(), blk.stop - blk.start]
        block_rows = rows[blk]
        plan.append([(a, b, block_rows[a:b]) for a, b in zip(cuts[:-1], cuts[1:])])
    return plan


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
    slot-major pair list (see _slot_major), cut into blocks of at most
    PAIR_BLOCK_ELEMENTS activations; under cross-gradient each block is one
    batched call, under taylor-approx it gathers the own gradients. Masked
    and zero-weight pairs are never evaluated. Starting from
    own_i + lam theta_i, the weighted gradients are added one slot segment
    at a time, so every row folds its neighbors left to right, the order of
    own_i + lam theta_i + w_ij1 g_ij1 + w_ij2 g_ij2 + ...

    ``grads`` holds the loglik pass's gradients at the current models
    (rounds.loglik_matrix): row e is grad(theta_i; D_j) of the mask's e-th
    allowed pair (i, j) in np.nonzero order, so the mask's diagonal must be
    true. Step 0 then gathers the own gradients and each block's
    cross-gradients from it through a K x K index map instead of taking
    them again; later steps, whose models have moved, take fresh ones.
    """
    if eta1 <= 0:
        raise ConfigurationError("eta1 must be positive")
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    w = np.asarray(w, dtype=float)
    edges = observed_pairs(mask) & (w != 0.0)
    rows, cols, slot = _slot_major(edges)
    weights = w[rows, cols][:, None]
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    blocks = pair_blocks(len(rows), X.shape[1], arch)
    plan = _fold_plan(rows, slot, blocks)
    if grads is not None:
        K = len(thetas)
        if grads.shape != (np.count_nonzero(mask), arch.n_params) or not np.diagonal(mask).all():
            raise ConfigurationError("stored pair gradients need one row per allowed pair, the diagonal included")
        index = np.zeros((K, K), dtype=np.intp)
        index[mask] = np.arange(len(grads))
        own_index, pair_index = np.diagonal(index), index[rows, cols]

    for step in range(steps):
        stored = step == 0 and grads is not None
        own = grads[own_index] if stored else batch_grad(thetas, X, Y, arch)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        delta = own + lam * thetas
        for blk, segments in zip(blocks, plan):
            r, c = rows[blk], cols[blk]
            if grad_mode == TAYLOR_APPROX:
                g = own[c]
            elif stored:
                g = grads[pair_index[blk]]
            else:
                g = batch_grad(thetas[r], X[c], Y[c], arch)
            g *= weights[blk]
            for a, b, seg_rows in segments:
                delta[seg_rows] += g[a:b]
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
