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
from ..models import ArchSpec, ClientStore, DataStack, PairWorkspace, batch_value_and_grad, pairs_per_block
from ..topology import CROSS_GRADIENT, TAYLOR_APPROX

# Workspace elements of one batched cross-client call: each pair counts its
# gathered parameters (D), features (n x d) and labels (n) and its
# activations (n x max(h, C); models.pairs_per_block). The loglik matrix,
# the own gradients and the cross-gradients are evaluated over the round's
# pair list in blocks of this size, so their memory stays flat in K while
# the number of calls falls to a few per pass. Every block and local step of
# a pass reuses the store's models.PairWorkspace, so no block allocates. At
# the benchmark's shapes (8 samples, d = 8, C = 2) this is 256 pairs of the
# h = 16 MLP (D = 178) per call, the MLP block size that a sweep of the
# budget chose (CHANGES.md), or 912 softmax pairs (D = 18); with _fold's
# stack the workspace of attention-k48-mlp holds 2.2 MB, that of
# sbm-k48-cross 1.4 MB.
PAIR_BLOCK_BUDGET = 96768

# Elements of the loglik pass's gradient buffer, which local step 0 reads
# (gradient_buffer): it holds the gradients of the round's leading pairs, as
# many as fit, so its memory stays flat in K; step 0 takes the rest afresh.
# 4 MB of float64: the 2 304 x 178 of attention-k48-mlp's full mask fit.
PAIR_BUFFER_ELEMENTS = 1 << 19

# Optional per-step extra descent terms (the attention coupling); called on
# the pre-step snapshot, returns one vector per client.
CouplingFn = Callable[[ClientStore], np.ndarray]


def pair_blocks(n_pairs: int, n: int, arch: ArchSpec, start: int = 0) -> list[slice]:
    """Consecutive slices of a pair list from ``start`` on, each within PAIR_BLOCK_BUDGET."""
    size = pairs_per_block(PAIR_BLOCK_BUDGET, n, arch)
    return [slice(a, min(a + size, n_pairs)) for a in range(start, n_pairs, size)]


def gradient_buffer(n_pairs: int, D: int) -> np.ndarray:
    """The loglik pass's gradient buffer for a pair list of n_pairs pairs:
    one row of D for each of its leading pairs that fit in PAIR_BUFFER_ELEMENTS."""
    return np.empty((min(n_pairs, PAIR_BUFFER_ELEMENTS // D), D))


def own_gradients(thetas: np.ndarray, X: np.ndarray, Y: np.ndarray, arch: ArchSpec, out: np.ndarray,
                  workspace: PairWorkspace, start: int = 0) -> np.ndarray:
    """grad(theta_k; D_k) of every client k from ``start`` on into out[k],
    one batched call per pair block, in ``workspace``."""
    for blk in pair_blocks(len(thetas), X.shape[1], arch, start):
        batch_value_and_grad(thetas[blk], X[blk], Y[blk], arch, out[blk], value=False, workspace=workspace)
    return out


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


def first_bad_row(values: np.ndarray) -> int | None:
    """The first row of ``values`` with an entry that is not finite, or None."""
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
    pairs: np.ndarray,
    coupling_fn: CouplingFn | None = None,
    grads: np.ndarray | None = None,
) -> None:
    """Run ``steps`` synchronous cooperative gradient steps on models.theta
    in place.

    grad_mode selects the neighbor-gradient route: exact cross-gradients
    grad(theta_i; D_j), or the first-order surrogate grad(theta_j; D_j)
    which is exact when all models coincide and only needs each neighbor's
    own gradient on the wire. Each step takes the K own gradients in blocks
    of pairs (own_gradients). The weighted off-diagonal pairs are those of
    the round's row-major pair list ``pairs`` (topology.pair_list(mask), as
    in rounds.loglik_matrix) off the diagonal and with a nonzero weight, cut
    into blocks within PAIR_BLOCK_BUDGET; under cross-gradient each block is
    one batched call, under taylor-approx it gathers the own gradients. The
    pass's arrays, the kernel's temporaries and _fold's stack live in the
    store's PairWorkspace, which every block and step reuse. Masked and
    zero-weight pairs are never evaluated. Starting from own_i + lam theta_i,
    each block folds its weighted gradients into its rows (_fold) in the
    order of own_i + lam theta_i + w_ij1 g_ij1 + w_ij2 g_ij2 + ...
    ``mask`` is read only by the benchmark's round-1 cross-check, which
    recomputes the steps from it.

    ``grads`` holds the loglik pass's gradients at the current models
    (rounds.loglik_matrix) for a leading part of the list: row e is
    grad(theta_i; D_j) of the list's e-th pair (i, j), for e < len(grads),
    and the list must hold the diagonal. Step 0 gathers the own and the
    weighted pairs' gradients that the buffer holds by their positions in
    the list, and takes the rest afresh, as every later step, whose models
    have moved, takes all of them. The buffer's length is only where that
    cut falls: the steps are the same bits wherever it is.
    """
    if eta1 <= 0:
        raise ConfigurationError("eta1 must be positive")
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    K, D = thetas.shape
    w = np.asarray(w, dtype=float)
    diagonal = pairs % (K + 1) == 0
    weighted = ~diagonal & (np.take(w, pairs) != 0.0)
    rows, cols = np.divmod(pairs[weighted], K)
    weights = w[rows, cols][:, None]
    blocks = pair_blocks(len(rows), X.shape[1], arch)
    held_own = held = 0  # at step 0: how many own and weighted gradients the buffer holds
    if grads is not None:
        if grads.ndim != 2 or grads.shape[1] != D or len(grads) > len(pairs) or diagonal.sum() != K:
            raise ConfigurationError(
                f"stored pair gradients need at most one row per allowed pair, {D} wide, and the diagonal in the list")
        # their positions in the list: the first held_own clients' and the first held weighted pairs
        own_index, pair_index = (np.arange(len(grads))[chosen[: len(grads)]] for chosen in (diagonal, weighted))
        held_own, held = len(own_index), len(pair_index)
    plans = [_fold_plan(rows[blk]) for blk in blocks]
    ws = models.workspace
    own, delta, new = (ws.take(name, K, D) for name in ("own", "delta", "new"))
    stack = ws.take("fold", max((fold_elements(plan, D) for plan in plans), default=0))

    for step in range(steps):
        if step == 1:
            held_own = held = 0  # the models have moved
        if held_own:
            np.take(grads, own_index, axis=0, out=own[:held_own], mode="clip")
        own_gradients(thetas, X, Y, arch, own, ws, start=held_own)
        coupling = coupling_fn(models) if coupling_fn is not None else None

        np.add(own, np.multiply(thetas, lam, out=delta), out=delta)  # own + lam * thetas
        for blk, plan in zip(blocks, plans):
            r, c = rows[blk], cols[blk]
            g = ws.take("grads", len(r), D)
            if grad_mode == TAYLOR_APPROX:
                np.take(own, c, axis=0, out=g, mode="clip")
            else:
                cut = min(max(held - blk.start, 0), len(r))  # the block's pairs that the buffer holds
                if cut:
                    np.take(grads, pair_index[blk.start : blk.start + cut], axis=0, out=g[:cut], mode="clip")
                if cut < len(r):
                    fresh = ws.gather(thetas, X, Y, r[cut:], c[cut:])
                    batch_value_and_grad(*fresh, arch, g[cut:], value=False, workspace=ws)
            g *= weights[blk]
            _fold(delta, plan, g, stack)
        if coupling is not None:
            delta += coupling
        bad = first_bad_row(delta)
        if bad is not None:
            raise DivergenceError(f"client {bad} produced a non-finite update at local step {step}")
        np.subtract(thetas, np.multiply(delta, eta1, out=new), out=new)  # thetas - eta1 * delta
        bad = first_bad_row(new)
        thetas[:bad] = new[:bad]
        if bad is not None:
            raise DivergenceError(f"client {bad} parameters left the finite range at local step {step}")
