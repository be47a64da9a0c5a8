"""Block-prior (single membership) closed-form E-steps and M-steps.

The edge model covers ordered pairs i != j; the own-data term always has
coefficient one, so no self-edge variable exists and the stored diagonal
of w stays pinned at 1 for reporting. Each update below solves its own
block's first-order condition exactly given the other blocks, which the
lower-bound oracle in :mod:`scool.em.elbo` certifies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..models import Dataset, LocalModel
from ..special import sigmoid_tempered, softmax_tempered
from ..topology import CROSS_GRADIENT
from .common import alpha_ascent, expected_log_pi, observed_pairs
from .state import SbmState, clamp_block_matrix
from .theta import cooperative_sgd_steps
from ..errors import InvariantError


def update_w(state: SbmState, loglik: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Tempered-sigmoid edge posterior: cross-client log-likelihood plus the
    membership-weighted block log-odds. Masked pairs are forced to zero.

    The diagonal is filled by the same formula; it never enters the model
    updates (the own-data term has coefficient one there) and only shapes
    the row-normalized reporting view of the graph.
    """
    B = clamp_block_matrix(state.B)
    odds = np.log(B) - np.log1p(-B)
    score = loglik + state.omega @ odds @ state.omega.T
    w = sigmoid_tempered(score, state.tau_sigmoid)
    if mask is not None:
        w = np.where(np.asarray(mask, dtype=bool), w, 0.0)
    return w


def update_gamma(state: SbmState) -> np.ndarray:
    """Dirichlet posterior: membership responsibility plus the prior."""
    return state.omega + state.alpha[None, :]


def _pair_weights(state: SbmState, mask: np.ndarray | None):
    """Edge and non-edge pair coefficients over observed ordered pairs.

    Masked pairs carry no communication, so their edges are missing data:
    they enter neither the edge nor the non-edge sums.
    """
    off = observed_pairs(state.n_clients, mask).astype(float)
    return state.w * off, (1.0 - state.w) * off


def omega_scores(state: SbmState, mask: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax logits of the membership update: edge and non-edge
    evidence from both link directions plus the expected log-mixture."""
    B = clamp_block_matrix(state.B)
    logB, log1mB = np.log(B), np.log1p(-B)
    w_pos, w_neg = _pair_weights(state, mask)
    out_pos = state.omega @ logB.T  # row j, col k: sum_h omega_jh log B(k, h)
    in_pos = state.omega @ logB  # row j, col k: sum_h omega_jh log B(h, k)
    out_neg = state.omega @ log1mB.T
    in_neg = state.omega @ log1mB
    return (
        w_pos @ out_pos
        + w_pos.T @ in_pos
        + w_neg @ out_neg
        + w_neg.T @ in_neg
        + expected_log_pi(state.gamma)
    )


def update_omega(state: SbmState, mask: np.ndarray | None = None) -> np.ndarray:
    """One synchronous membership sweep: every row is renormalized from the
    pre-sweep snapshot."""
    return softmax_tempered(omega_scores(state, mask), 1.0, axis=-1)


def update_omega_row(state: SbmState, i: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Membership update of a single client, all other rows held fixed."""
    return softmax_tempered(omega_scores(state, mask)[i], 1.0)


def update_alpha(state: SbmState, optimizer: str = "plain", weight_decay: float = 0.0) -> np.ndarray:
    return alpha_ascent(
        state.gamma, state.alpha, state.eta2, optimizer, state.alpha_slot, weight_decay
    )


def update_block_matrix(state: SbmState, mask: np.ndarray | None = None) -> np.ndarray:
    """Exact block-affinity maximizer: membership-weighted mean edge weight
    over the observed pairs, clamped away from the log singularities."""
    off = observed_pairs(state.n_clients, mask).astype(float)
    num = state.omega.T @ (state.w * off) @ state.omega
    den = state.omega.T @ off @ state.omega
    if np.any(den < 1e-12):
        raise InvariantError("degenerate memberships: block denominator underflow")
    return clamp_block_matrix(num / den)


def e_step(state: SbmState, loglik: np.ndarray, mask: np.ndarray | None = None) -> SbmState:
    """Edge posterior, Dirichlet posterior, then one membership sweep."""
    state.w = update_w(state, loglik, mask)
    state.gamma = update_gamma(state)
    state.omega = update_omega(state, mask)
    return state


def m_step(
    state: SbmState,
    models: Sequence[LocalModel],
    train_sets: Sequence[Dataset],
    eta1: float,
    local_steps: int,
    grad_mode: str = CROSS_GRADIENT,
    mask: np.ndarray | None = None,
    optimizer: str = "plain",
    optimizer_weight_decay: float = 0.0,
) -> SbmState:
    """Local cooperative SGD epochs, then the prior parameters."""
    cooperative_sgd_steps(
        models, train_sets, state.w, state.lam, eta1, local_steps, grad_mode, mask
    )
    state.alpha = update_alpha(state, optimizer, optimizer_weight_decay)
    state.B = update_block_matrix(state, mask)
    return state
