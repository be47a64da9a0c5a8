"""Block-prior (single membership) closed-form E-steps and M-steps.

The edge model covers the observed ordered pairs: i != j and allowed by
the topology's boolean mask, which every update below takes. The own-data
term always has coefficient one, so no self-edge variable exists and the
stored diagonal of w is a reporting value only. Each update solves its
own block's first-order condition exactly given the other blocks, which
the lower-bound oracle in :mod:`scool.em.elbo` certifies.
"""

from __future__ import annotations

import numpy as np

from ..special import sigmoid_tempered, softmax_tempered
from ..topology import observed_pairs
# graph (the reporting hook) and update_alpha are shared with mmsbm
from .common import block_logs, block_ratio, block_start, checked_gamma, expected_log_pi, graph, update_alpha
from .state import SbmState, jittered_simplex
from .theta import cooperative_sgd_steps


def init_state(config, mask, theta_dim: int) -> SbmState:
    """Jittered memberships on the block model's shared start."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    normals = rng.standard_normal((config.K, config.num_memberships))
    return SbmState(omega=jittered_simplex(normals), **block_start(config))


def update_w(state: SbmState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Tempered-sigmoid edge posterior: cross-client log-likelihood plus the
    membership-weighted block log-odds. Masked pairs are forced to zero.

    The diagonal is filled by the same formula; it never enters the model
    updates (the own-data term has coefficient one there) and only shapes
    the row-normalized reporting view of the graph.
    """
    logB, log1mB = block_logs(state)
    score = loglik + state.omega @ (logB - log1mB) @ state.omega.T
    return np.where(mask, sigmoid_tempered(score, state.tau_sigmoid), 0.0)


def update_gamma(state: SbmState) -> np.ndarray:
    """Dirichlet posterior: membership responsibility plus the prior."""
    return checked_gamma(state.omega + state.alpha[None, :])


def _pair_weights(state: SbmState, mask: np.ndarray):
    """Edge and non-edge pair coefficients over observed ordered pairs.

    Masked pairs carry no communication, so their edges are missing data:
    they enter neither the edge nor the non-edge sums.
    """
    off = observed_pairs(mask).astype(float)
    return state.w * off, (1.0 - state.w) * off


def omega_scores(state: SbmState, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax logits of the membership update: edge and non-edge
    evidence from both link directions plus the expected log-mixture."""
    logB, log1mB = block_logs(state)
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


def update_omega(state: SbmState, mask: np.ndarray) -> np.ndarray:
    """One synchronous membership sweep: every row is renormalized from the
    pre-sweep snapshot."""
    return softmax_tempered(omega_scores(state, mask), 1.0, axis=-1)


def update_block_matrix(state: SbmState, mask: np.ndarray) -> np.ndarray:
    """Exact block-affinity maximizer: membership-weighted mean edge weight
    over the observed pairs, clamped away from the log singularities."""
    off = observed_pairs(mask).astype(float)
    num = state.omega.T @ (state.w * off) @ state.omega
    den = state.omega.T @ off @ state.omega
    return block_ratio(num, den)


def e_step(state: SbmState, models, loglik: np.ndarray, mask: np.ndarray) -> SbmState:
    """Edge posterior, Dirichlet posterior, then one membership sweep."""
    state.w = update_w(state, loglik, mask)
    state.gamma = update_gamma(state)
    state.omega = update_omega(state, mask)
    return state


def m_step(state: SbmState, models, mask, config, grads) -> None:
    """Local cooperative SGD epochs, then the prior parameters."""
    cooperative_sgd_steps(
        models, models.train, state.w, config.weight_decay, config.eta1, config.local_steps,
        config.grad_mode, mask, grads=grads,
    )
    state.alpha = update_alpha(state, config)
    state.B = update_block_matrix(state, mask)
