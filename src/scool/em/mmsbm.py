"""Mixed-membership block prior: per-pair sender/receiver memberships.

Every observed ordered pair (i, j), i != j and allowed by the topology's
boolean mask, carries two simplex vectors: the sender's membership
phi_send[i, j] drawn from client i's mixture and the receiver's
phi_recv[i, j] drawn from client j's; every other pair is parked at 1/M.
Every update takes the mask and reads only the observed pairs. They mirror
the single-membership case with the pair memberships replacing the bilinear
omega products; all blocks are exact coordinate maximizers given the
others, and the sweep inside one E-step reads the pre-sweep memberships.
"""

from __future__ import annotations

import numpy as np

from ..special import sigmoid_tempered, softmax_tempered
from ..topology import observed_pairs
# graph (the reporting hook) and update_alpha are shared with sbm
from .common import (
    at_pairs, block_logs, block_ratio, block_start, expected_log_pi, graph, pair_bilinear, update_alpha,
)
from .state import MmsbmState, jittered_simplex
from .theta import cooperative_sgd_steps


def init_state(config, mask, theta_dim: int) -> MmsbmState:
    """Jittered sender then receiver memberships on the block model's
    shared start."""
    K, M = config.K, config.num_memberships
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    phi_send = jittered_simplex(rng, (K, K, M))
    phi_recv = jittered_simplex(rng, (K, K, M))
    return MmsbmState(phi_send=phi_send, phi_recv=phi_recv, **block_start(config))


def _observed(mask: np.ndarray) -> np.ndarray:
    """Row-major list of the observed ordered pairs, as flat indices i*K + j."""
    return np.flatnonzero(observed_pairs(mask))


def update_w(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Edge posterior over the allowed pairs; masked entries are 0. The
    diagonal is a reporting value as in the single-membership case and
    never enters the model updates."""
    logB, log1mB = block_logs(state)
    K = state.n_clients
    pairs = np.flatnonzero(mask)
    ps, pr = at_pairs(state.phi_send, pairs), at_pairs(state.phi_recv, pairs)
    score = at_pairs(loglik, pairs) + pair_bilinear(ps, logB - log1mB, pr)
    w = np.zeros(K * K)
    w[pairs] = sigmoid_tempered(score, state.tau_sigmoid)
    return w.reshape(K, K)


def update_gamma(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    """Dirichlet posterior: prior plus client i's sender memberships over
    observed pairs (i, .) plus its receiver memberships over (., i)."""
    pairs = _observed(mask)
    K, M = state.n_clients, state.n_blocks
    ps, pr = at_pairs(state.phi_send, pairs), at_pairs(state.phi_recv, pairs)
    send_sum = np.stack([np.bincount(pairs // K, ps[:, g], K) for g in range(M)], axis=1)
    recv_sum = np.stack([np.bincount(pairs % K, pr[:, g], K) for g in range(M)], axis=1)
    return state.alpha[None, :] + send_sum + recv_sum


def _update_phi(state: MmsbmState, mask: np.ndarray, side: str) -> np.ndarray:
    """Softmax of one side's edge and non-edge evidence over the observed
    pairs. The scores are laid out block-major (M x E) so the softmax
    reduces along the leading axis; every other pair, the diagonal
    included, is parked at 1/M."""
    pairs = _observed(mask)
    K, M = state.n_clients, state.n_blocks
    logB, log1mB = block_logs(state)
    if side == "send":
        counterpart, own = at_pairs(state.phi_recv, pairs).T, pairs // K
    else:
        counterpart, own = at_pairs(state.phi_send, pairs).T, pairs % K
        logB, log1mB = logB.T, log1mB.T
    w = at_pairs(state.w, pairs)
    scores = w * (logB @ counterpart) + (1.0 - w) * (log1mB @ counterpart)
    scores = scores + np.take(expected_log_pi(state.gamma), own, axis=0).T
    phi = np.full((K * K, M), 1.0 / M)
    phi[pairs] = softmax_tempered(scores, 1.0, axis=0).T
    return phi.reshape(K, K, M)


def update_phi_send(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    return _update_phi(state, mask, "send")


def update_phi_recv(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    return _update_phi(state, mask, "recv")


def update_block_matrix(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    pairs = _observed(mask)
    ps, pr = at_pairs(state.phi_send, pairs), at_pairs(state.phi_recv, pairs)
    return block_ratio((at_pairs(state.w, pairs)[:, None] * ps).T @ pr, ps.T @ pr)


def e_step(state: MmsbmState, models, loglik: np.ndarray, mask: np.ndarray) -> MmsbmState:
    """Edge posterior and Dirichlet posterior, then one synchronous sweep of
    both pair-membership sides from the pre-sweep snapshot."""
    state.w = update_w(state, loglik, mask)
    state.gamma = update_gamma(state, mask)
    send = update_phi_send(state, mask)
    recv = update_phi_recv(state, mask)
    state.phi_send, state.phi_recv = send, recv
    return state


def m_step(state: MmsbmState, models, mask, config, grads) -> None:
    cooperative_sgd_steps(
        models, models.train, state.w, config.weight_decay, config.eta1, config.local_steps,
        config.grad_mode, mask, grads=grads,
    )
    state.alpha = update_alpha(state, config)
    state.B = update_block_matrix(state, mask)
