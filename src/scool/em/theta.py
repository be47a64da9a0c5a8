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
from ..models import ArchSpec, ClientStore, DataStack, batch_value_and_grad, pairs_per_block
from ..topology import CROSS_GRADIENT, TAYLOR_APPROX, observed_pairs

# Activation elements (pairs x samples x max(h, C)) of one batched
# cross-client call: the loglik matrix and the cross-gradients are evaluated
# over the round's pair list in blocks of this size, so their memory stays
# flat in K while the number of calls falls to a few per pass. Every block
# and local step of a pass reuses the store's models.PairWorkspace, so no
# block allocates. At 8 samples per pair this is 256 pairs of the h = 16
# MLP per call or 2 048 softmax pairs; with _fold's stack the workspace of
# attention-k48-mlp holds 2.2 MB, that of sbm-k48-cross 3.1 MB. In a sweep
# from 8 192 to 65 536 (CHANGES.md) the per-call cost was spread out from
# 16 384 on; 65 536 was a little faster on the MLP but took 1.5 MB more.
PAIR_BLOCK_BUDGET = 32768

# Optional per-step extra descent terms (the attention coupling); called on
# the pre-step snapshot, returns one vector per client.
CouplingFn = Callable[[ClientStore], np.ndarray]


def pair_blocks(n_pairs: int, n: int, arch: ArchSpec) -> list[slice]:
    """Consecutive slices of a pair list, each within PAIR_BLOCK_BUDGET."""
    size = pairs_per_block(PAIR_BLOCK_BUDGET, n, arch)
    return [slice(a, min(a + size, n_pairs)) for a in range(0, n_pairs, size)]


# what _fold_plan returns: the rows a block spans, each term's slot and row offset, the slot count
FoldPlan = tuple[slice, np.ndarray, np.ndarray, int]


def _fold_plan(rows: np.ndarray) -> FoldPlan:
    """Where _fold puts the terms of a non-empty block of ascending rows: the
    rows it spans, each term's slot on the stack's leading axis (1 + its
    rank within its row) and its row's offset from rows[0], and the number
    of slots. A pass plans each of its blocks once, for all its steps."""
    local = rows - rows[0]
    slot = np.arange(1, len(rows) + 1) - np.searchsorted(local, local)
    return slice(rows[0], rows[-1] + 1), slot, local, int(slot.max()) + 1


def fold_elements(plan: FoldPlan, D: int) -> int:
    """Elements of _fold's stack for a block of this plan and D parameters."""
    span, _, _, slots = plan
    return slots * (span.stop - span.start) * D


def _fold(delta: np.ndarray, plan: FoldPlan, g: np.ndarray, buffer: np.ndarray) -> None:
    """delta[rows[e]] += g[e] in place for the ascending rows of the block
    that _fold_plan planned, each row adding its terms left to right after
    its current value: the terms sit on a leading axis padded with -0.0
    (the exact additive identity) above the rows' values in slot 0, and one
    reduction adds the slots in order. The stack is the leading
    fold_elements(plan, D) elements of the flat ``buffer``."""
    rows, slot, local, slots = plan
    span = delta[rows]
    stack = buffer[: slots * span.size].reshape(slots, *span.shape)
    stack.fill(-0.0)
    stack[0] = span
    stack[slot, local] = g
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
    into blocks of at most PAIR_BLOCK_BUDGET activations; under
    cross-gradient each block is one batched call, under taylor-approx it
    gathers the own gradients. The pass's arrays, the kernel's temporaries
    and _fold's stack live in the store's PairWorkspace, which every block
    and step reuse. Masked and zero-weight pairs are never evaluated.
    Starting from own_i + lam theta_i, each block folds its weighted
    gradients into its rows (_fold) in the order of
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
    K, D = thetas.shape
    blocks = pair_blocks(len(rows), X.shape[1], arch)
    if grads is not None:
        if grads.shape != (np.count_nonzero(mask), D) or not np.diagonal(mask).all():
            raise ConfigurationError("stored pair gradients need one row per allowed pair, the diagonal included")
        own_index = np.flatnonzero(np.eye(K, dtype=bool)[mask])
        pair_index = np.flatnonzero(edges[mask])
    plans = [_fold_plan(rows[blk]) for blk in blocks]
    ws = models.workspace
    own, delta, new = (ws.take(name, K, D) for name in ("own", "delta", "new"))
    stack = ws.take("fold", max((fold_elements(plan, D) for plan in plans), default=0))

    for step in range(steps):
        stored = step == 0 and grads is not None
        if stored:
            np.take(grads, own_index, axis=0, out=own, mode="clip")
        else:
            batch_value_and_grad(thetas, X, Y, arch, own, value=False, workspace=ws)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        np.add(own, np.multiply(thetas, lam, out=delta), out=delta)  # own + lam * thetas
        for blk, plan in zip(blocks, plans):
            r, c = rows[blk], cols[blk]
            g = ws.take("grads", len(r), D)
            if grad_mode == TAYLOR_APPROX:
                np.take(own, c, axis=0, out=g, mode="clip")
            elif stored:
                np.take(grads, pair_index[blk], axis=0, out=g, mode="clip")
            else:
                batch_value_and_grad(*ws.gather(thetas, X, Y, r, c), arch, g, value=False, workspace=ws)
            g *= weights[blk]
            _fold(delta, plan, g, stack)
        if coupling is not None:
            delta += coupling
        bad = _first_bad_row(delta)
        if bad is not None:
            raise DivergenceError(f"client {bad} produced a non-finite update at local step {step}")
        np.subtract(thetas, np.multiply(delta, eta1, out=new), out=new)  # thetas - eta1 * delta
        bad = _first_bad_row(new)
        thetas[:bad] = new[:bad]
        if bad is not None:
            raise DivergenceError(f"client {bad} parameters left the finite range at local step {step}")
