"""Mixed-membership block prior: per-pair sender/receiver memberships.

Every ordered pair (i, j), i != j, carries two simplex vectors: the
sender's membership phi_send[i, j] drawn from client i's mixture and the
receiver's phi_recv[i, j] drawn from client j's. The updates mirror the
single-membership case with the pair memberships replacing the bilinear
omega products; all blocks are exact coordinate maximizers given the
others, and the sweep inside one E-step reads the pre-sweep memberships.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InvariantError
from ..models import Dataset, LocalModel
from ..special import sigmoid_tempered, softmax_tempered
from ..topology import CROSS_GRADIENT
from .common import alpha_ascent, expected_log_pi, observed_pairs, pair_bilinear
from .state import MmsbmState, clamp_block_matrix
from .theta import cooperative_sgd_steps


def _uniform_diagonal(phi: np.ndarray) -> np.ndarray:
    """Self pairs carry no edge; park their memberships at uniform."""
    K, _, M = phi.shape
    phi[np.arange(K), np.arange(K), :] = 1.0 / M
    return phi


def update_w(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Edge posterior; the diagonal is a reporting value as in the
    single-membership case and never enters the model updates."""
    B = clamp_block_matrix(state.B)
    odds = np.log(B) - np.log1p(-B)
    score = loglik + pair_bilinear(state.phi_send, odds, state.phi_recv)
    w = sigmoid_tempered(score, state.tau_sigmoid)
    if mask is not None:
        w = np.where(np.asarray(mask, dtype=bool), w, 0.0)
    return w


def update_gamma(state: MmsbmState, mask: np.ndarray | None = None) -> np.ndarray:
    """Dirichlet posterior: prior plus client i's sender memberships over
    observed pairs (i, .) plus its receiver memberships over (., i)."""
    obs = observed_pairs(state.n_clients, mask)[:, :, None]
    send_sum = (state.phi_send * obs).sum(axis=1)
    recv_sum = (state.phi_recv * obs).sum(axis=0)
    return state.alpha[None, :] + send_sum + recv_sum


def _pair_scores(state: MmsbmState, counterpart: np.ndarray, transpose_B: bool) -> np.ndarray:
    """Edge and non-edge evidence for one side of every pair."""
    B = clamp_block_matrix(state.B)
    logB, log1mB = np.log(B), np.log1p(-B)
    if transpose_B:
        logB, log1mB = logB.T, log1mB.T
    pos = counterpart @ logB.T  # [i, j, k] = sum_h counterpart[i,j,h] logB[k,h]
    neg = counterpart @ log1mB.T
    w = state.w[:, :, None]
    return w * pos + (1.0 - w) * neg


def _park_unobserved(state: MmsbmState, phi: np.ndarray, mask) -> np.ndarray:
    if mask is not None:
        unobs = ~observed_pairs(state.n_clients, mask)
        phi[unobs] = 1.0 / state.n_blocks
    return _uniform_diagonal(phi)


def update_phi_send(state: MmsbmState, mask: np.ndarray | None = None) -> np.ndarray:
    scores = _pair_scores(state, state.phi_recv, transpose_B=False)
    scores = scores + expected_log_pi(state.gamma)[:, None, :]
    return _park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def update_phi_recv(state: MmsbmState, mask: np.ndarray | None = None) -> np.ndarray:
    scores = _pair_scores(state, state.phi_send, transpose_B=True)
    scores = scores + expected_log_pi(state.gamma)[None, :, :]
    return _park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def update_alpha(state: MmsbmState, optimizer: str = "plain", weight_decay: float = 0.0) -> np.ndarray:
    return alpha_ascent(
        state.gamma, state.alpha, state.eta2, optimizer, state.alpha_slot, weight_decay
    )


def update_block_matrix(state: MmsbmState, mask: np.ndarray | None = None) -> np.ndarray:
    off = observed_pairs(state.n_clients, mask).astype(float)
    num = np.einsum("ij,ijg,ijh->gh", state.w * off, state.phi_send, state.phi_recv)
    den = np.einsum("ij,ijg,ijh->gh", off, state.phi_send, state.phi_recv)
    if np.any(den < 1e-12):
        raise InvariantError("degenerate memberships: block denominator underflow")
    return clamp_block_matrix(num / den)


def e_step(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray | None = None) -> MmsbmState:
    """Edge posterior and Dirichlet posterior, then one synchronous sweep of
    both pair-membership sides from the pre-sweep snapshot."""
    state.w = update_w(state, loglik, mask)
    state.gamma = update_gamma(state, mask)
    send = update_phi_send(state, mask)
    recv = update_phi_recv(state, mask)
    state.phi_send, state.phi_recv = send, recv
    return state


def m_step(
    state: MmsbmState,
    models: Sequence[LocalModel],
    train_sets: Sequence[Dataset],
    eta1: float,
    local_steps: int,
    grad_mode: str = CROSS_GRADIENT,
    mask: np.ndarray | None = None,
    optimizer: str = "plain",
    optimizer_weight_decay: float = 0.0,
) -> MmsbmState:
    cooperative_sgd_steps(
        models, train_sets, state.w, state.lam, eta1, local_steps, grad_mode, mask
    )
    state.alpha = update_alpha(state, optimizer, optimizer_weight_decay)
    state.B = update_block_matrix(state, mask)
    return state
