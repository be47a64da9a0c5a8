"""Mixed-membership block prior: per-pair sender/receiver memberships.

Every observed ordered pair (i, j), i != j and allowed by the topology's
boolean mask, carries two simplex vectors: the sender's membership drawn
from client i's mixture and the receiver's drawn from client j's. The state
holds them as E x M rows, one per entry of its row-major pair list, and
every update and the lower bound read that list. They mirror the
single-membership case with the pair memberships replacing the bilinear
omega products; all blocks are exact coordinate maximizers given the
others, and the sweep inside one E-step reads the pre-sweep memberships.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantError
from ..special import sigmoid_tempered, softmax_tempered
from ..topology import observed_pairs
# graph (the reporting hook) and update_alpha are shared with sbm
from .common import (
    block_logs, block_ratio, block_start, checked_gamma, expected_log_pi, graph, pair_bilinear, update_alpha,
)
from .state import MmsbmState, jittered_simplex
from .theta import cooperative_sgd_steps


def init_state(config, mask, theta_dim: int) -> MmsbmState:
    """Jittered sender then receiver memberships, drawn for every ordered
    pair and normalized at the observed ones only, on the block model's
    shared start."""
    K, M = config.K, config.num_memberships
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    pairs = np.flatnonzero(observed_pairs(mask))
    phi_send = jittered_simplex(rng.standard_normal((K * K, M))[pairs])
    phi_recv = jittered_simplex(rng.standard_normal((K * K, M))[pairs])
    return MmsbmState(pairs=pairs, phi_send=phi_send, phi_recv=phi_recv, **block_start(config))


def update_w(state: MmsbmState, loglik: np.ndarray) -> np.ndarray:
    """Edge posterior over the observed pairs; every other off-diagonal
    entry is 0. The diagonal is a reporting value as in the
    single-membership case, scored with uniform memberships on both sides,
    and never enters the model updates."""
    logB, log1mB = block_logs(state)
    K, M = state.n_clients, state.n_blocks
    odds = logB - log1mB
    uniform = np.full((1, M), 1.0 / M)
    w = np.zeros(K * K)
    w[state.pairs] = sigmoid_tempered(
        np.take(loglik, state.pairs) + pair_bilinear(state.phi_send, odds, state.phi_recv), state.tau_sigmoid
    )
    w[:: K + 1] = sigmoid_tempered(np.diagonal(loglik) + pair_bilinear(uniform, odds, uniform), state.tau_sigmoid)
    return w.reshape(K, K)


def update_gamma(state: MmsbmState) -> np.ndarray:
    """Dirichlet posterior: prior plus client i's sender memberships over
    observed pairs (i, .) plus its receiver memberships over (., i)."""
    K, M, pairs = state.n_clients, state.n_blocks, state.pairs
    send_sum = np.stack([np.bincount(pairs // K, state.phi_send[:, g], K) for g in range(M)], axis=1)
    recv_sum = np.stack([np.bincount(pairs % K, state.phi_recv[:, g], K) for g in range(M)], axis=1)
    return checked_gamma(state.alpha[None, :] + send_sum + recv_sum)


def update_phi(state: MmsbmState, elp: np.ndarray, side: str) -> np.ndarray:
    """Softmax of one side's ("send" or "recv") edge and non-edge evidence
    plus its client's expected log-mixture ``elp`` (expected_log_pi of
    state.gamma). The scores are laid out block-major (M x E) so the
    softmax reduces along the leading axis; the rows come back contiguous."""
    K, pairs = state.n_clients, state.pairs
    logB, log1mB = block_logs(state)
    if side == "send":
        counterpart, own = state.phi_recv.T, pairs // K
    else:
        counterpart, own = state.phi_send.T, pairs % K
        logB, log1mB = logB.T, log1mB.T
    w = np.take(state.w, pairs)
    scores = w * (logB @ counterpart) + (1.0 - w) * (log1mB @ counterpart)
    scores = scores + np.take(elp, own, axis=0).T
    return np.ascontiguousarray(softmax_tempered(scores, 1.0, axis=0).T)


def update_block_matrix(state: MmsbmState) -> np.ndarray:
    ps, pr = state.phi_send, state.phi_recv
    return block_ratio((np.take(state.w, state.pairs)[:, None] * ps).T @ pr, ps.T @ pr)


def e_step(state: MmsbmState, models, loglik: np.ndarray, mask: np.ndarray, observed: np.ndarray) -> MmsbmState:
    """Keep the rows of the pairs the mask still allows (pruning only removes
    pairs), which must leave the round's observed-pair list ``observed``,
    then the edge and Dirichlet posteriors, then one synchronous sweep of
    both pair-membership sides from the pre-sweep snapshot."""
    keep = np.take(mask, state.pairs)
    state.pairs, state.phi_send, state.phi_recv = (a[keep] for a in (state.pairs, state.phi_send, state.phi_recv))
    if not np.array_equal(state.pairs, observed):
        raise InvariantError("mmsbm pair list is not the mask's observed pairs")
    state.w = update_w(state, loglik)
    state.gamma = update_gamma(state)
    elp = expected_log_pi(state.gamma)
    state.phi_send, state.phi_recv = update_phi(state, elp, "send"), update_phi(state, elp, "recv")
    return state


def m_step(state: MmsbmState, models, mask, pairs, config, grads) -> None:
    cooperative_sgd_steps(
        models, models.train, state.w, config.weight_decay, config.eta1, config.local_steps,
        config.grad_mode, mask, pairs, grads=grads,
    )
    state.alpha = update_alpha(state, config)
    state.B = update_block_matrix(state)
