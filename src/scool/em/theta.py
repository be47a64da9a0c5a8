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
from ..models import ArchSpec, Dataset, LocalModel, batch_grad, pairs_per_block
from ..topology import CROSS_GRADIENT, TAYLOR_APPROX

# Activation elements (pairs x samples x max(h, C)) one batched cross-client
# call may hold: the loglik matrix and the cross-gradients are evaluated over
# the round's pair list in blocks of this size, so their memory stays flat
# in K while the number of calls falls to a few per pass.
PAIR_BLOCK_ELEMENTS = 8192

# Optional per-step extra descent terms (the attention coupling); called on
# the pre-step snapshot, returns one vector per client.
CouplingFn = Callable[[Sequence[LocalModel]], np.ndarray]


def pair_blocks(n_pairs: int, n: int, arch: ArchSpec) -> list[slice]:
    """Consecutive slices of a pair list, each within PAIR_BLOCK_ELEMENTS."""
    size = pairs_per_block(PAIR_BLOCK_ELEMENTS, n, arch)
    return [slice(a, min(a + size, n_pairs)) for a in range(0, n_pairs, size)]


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
    batched call. The weighted off-diagonal pairs the mask allows form one
    slot-major pair list (see _slot_major), cut into blocks of at most
    PAIR_BLOCK_ELEMENTS activations; under cross-gradient each block is one
    batched call, under taylor-approx it gathers the own gradients. Masked
    and zero-weight pairs are never evaluated. Starting from
    own_i + lam theta_i, the weighted gradients are added one slot segment
    at a time, so every row folds its neighbors left to right, the order of
    own_i + lam theta_i + w_ij1 g_ij1 + w_ij2 g_ij2 + ...
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
    rows, cols, slot = _slot_major(edges)
    weights = w[rows, cols][:, None]
    _, X, Y = stack_clients(models, train_sets)
    arch = models[0].arch
    blocks = pair_blocks(len(rows), X.shape[1], arch)
    plan = _fold_plan(rows, slot, blocks)

    for step in range(steps):
        thetas = np.stack([m.theta for m in models])
        own = batch_grad(thetas, X, Y, arch)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        delta = own + lam * thetas
        for blk, segments in zip(blocks, plan):
            r, c = rows[blk], cols[blk]
            g = own[c] if grad_mode == TAYLOR_APPROX else batch_grad(thetas[r], X[c], Y[c], arch)
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
        for i in range(K if bad is None else bad):
            models[i].theta = new[i]
        if bad is not None:
            raise DivergenceError(f"client {bad} parameters left the finite range at local step {step}")
