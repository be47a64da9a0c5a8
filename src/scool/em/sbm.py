"""Block-prior (single membership) closed-form E-steps and M-steps.

The edge model covers the observed ordered pairs ``state.pairs``. A pair's
memberships are its clients' rows of omega, so the prior's membership
contraction is omega @ X @ omega.T gathered at the pairs; the membership
and block updates lay the pair weights out by topology.pair_matrix. Each
update solves its own block's first-order condition exactly given the
other blocks, which the lower-bound oracle in :mod:`scool.em.elbo` certifies.
"""

from __future__ import annotations

import numpy as np

from ..special import softmax_tempered, xlogx
from ..topology import pair_matrix
from .common import block_logs, block_ratio, block_start, checked_gamma, edge_posterior
# graph (the reporting hook) and update_alpha are shared with mmsbm
from .common import graph, update_alpha
from .elbo import block_terms
from .state import SbmState, jittered_simplex
from .theta import cooperative_sgd_steps  # unused: the benchmark's probe rebinds it here until ROADMAP item 1(b)

coupling = local_steps = None


def init_state(config, mask, theta_dim: int) -> SbmState:
    """Jittered memberships on the block model's shared start."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    normals = rng.standard_normal((config.K, config.num_memberships))
    return SbmState(omega=jittered_simplex(normals), **block_start(config, mask))


def update_w(state: SbmState, own: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Edge posterior from the own log-likelihoods and the cross-client ones
    at state.pairs, with each pair's block log-odds under its two clients'
    memberships; the diagonal is scored with client i's own."""
    logB, log1mB = block_logs(state)
    odds = state.omega @ (logB - log1mB) @ state.omega.T
    pair_odds, self_odds = np.take(odds, state.pairs), np.diagonal(odds).copy()
    del odds  # freed before edge_posterior lays out the new w
    return edge_posterior(state, own, cross, pair_odds, self_odds)


def update_gamma(state: SbmState) -> np.ndarray:
    """Dirichlet posterior: membership responsibility plus the prior."""
    return checked_gamma(state.omega + state.alpha[None, :])


def omega_scores(state: SbmState) -> np.ndarray:
    """Row-wise softmax logits of the membership update: edge and non-edge
    evidence from both link directions plus the expected log-mixture
    state.elp."""
    logB, log1mB = block_logs(state)
    K, pairs, w = state.n_clients, state.pairs, np.take(state.w, state.pairs)
    out_pos = state.omega @ logB.T  # row j, col k: sum_h omega_jh log B(k, h)
    in_pos = state.omega @ logB  # row j, col k: sum_h omega_jh log B(h, k)
    w_pos = pair_matrix(K, pairs, w)
    edge = w_pos @ out_pos + w_pos.T @ in_pos
    del w_pos  # one K x K layout alive at a time
    w_neg = pair_matrix(K, pairs, 1.0 - w)
    return edge + w_neg @ (state.omega @ log1mB.T) + w_neg.T @ (state.omega @ log1mB) + state.elp


def update_omega(state: SbmState) -> np.ndarray:
    """One synchronous membership sweep: every row is renormalized from the
    pre-sweep snapshot."""
    return softmax_tempered(omega_scores(state), 1.0, axis=-1)


def update_block_matrix(state: SbmState) -> np.ndarray:
    """Exact block-affinity maximizer: membership-weighted mean edge weight
    over the observed pairs, clamped away from the log singularities."""
    K, pairs = state.n_clients, state.pairs
    num = state.omega.T @ pair_matrix(K, pairs, np.take(state.w, pairs)) @ state.omega
    den = state.omega.T @ pair_matrix(K, pairs, 1.0) @ state.omega
    return block_ratio(num, den)


def bound_terms(state: SbmState) -> dict[str, float]:
    """The block model's lower-bound terms under the memberships omega."""
    logB, log1mB = block_logs(state)
    omega = state.omega
    return block_terms(
        state,
        pos=np.take(omega @ logB @ omega.T, state.pairs),
        neg=np.take(omega @ log1mB @ omega.T, state.pairs),
        membership=float((omega * state.elp).sum()),
        entropy_membership=-float(xlogx(omega).sum()),
    )


def e_step(state: SbmState, models, loglik: np.ndarray, pairs: np.ndarray, diagonal: np.ndarray) -> SbmState:
    """The round's pair list off its diagonal, the edge and Dirichlet posteriors, then one membership sweep."""
    state.pairs = pairs[~diagonal]
    state.w = update_w(state, loglik[diagonal], loglik[~diagonal])
    state.gamma = update_gamma(state)
    state.omega = update_omega(state)
    return state


def update_prior(state: SbmState, models, config) -> None:
    """The Dirichlet prior alpha, then the block affinities."""
    state.alpha = update_alpha(state, config)
    state.B = update_block_matrix(state)
