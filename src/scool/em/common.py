"""Helpers shared by the block-structured priors."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, InvariantError
from ..special import digamma, sigmoid_tempered
from ..topology import pair_list, pair_matrix
from .state import ALPHA_MIN, AdamSlot, ascent_step, clamp_block_matrix


def block_start(config, mask) -> dict:
    """The block priors' shared initial fields: the mask's observed pairs, every
    edge the mask allows at 1/2 and every other at 0, a flat Dirichlet prior
    with every posterior at it, every block at config.block_init, the run's
    temperature, and a fresh Adam slot for alpha. The first E-step sets w and
    gamma before anything reads them."""
    K, M = config.K, config.num_memberships
    alpha, pairs = np.ones(M), pair_list(mask)
    return dict(
        pairs=pairs[pairs % (K + 1) != 0],
        w=pair_matrix(K, pairs, 0.5),
        gamma=np.ones((K, M)),
        alpha=alpha,
        B=np.full((M, M), config.block_init),
        tau_sigmoid=config.tau_sigmoid,
        alpha_slot=AdamSlot.like(alpha),
    )


def block_logs(state) -> tuple[np.ndarray, np.ndarray]:
    """(log B, log(1 - B)) of a block prior's state; B is already clamped
    where it is written."""
    return np.log(state.B), np.log1p(-state.B)


def checked_gamma(gamma: np.ndarray) -> np.ndarray:
    """A block prior's new Dirichlet posterior; a non-finite one is a divergence."""
    # a non-finite entry, or a row sum that overflows, makes its row sum non-finite
    if not np.all(np.isfinite(gamma.sum(axis=1))):
        raise DivergenceError("Dirichlet posterior gamma is non-finite")
    return gamma


def alpha_gradient(elp: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Ascent gradient of the shared Dirichlet parameter: the K clients'
    expected log-mixtures ``elp`` (expected_log_pi of their posteriors)
    against the prior's normalizer, from one digamma call on alpha and its
    sum."""
    K = len(elp)
    psi = digamma(np.append(alpha, alpha.sum()))
    return elp.sum(axis=0) - K * psi[:-1] + K * psi[-1]


def update_alpha(state, config) -> np.ndarray:
    """One projected ascent step on the shared Dirichlet parameter alpha of a
    block prior, under the run's prior step size, optimizer and decay,
    floored at ALPHA_MIN."""
    new = ascent_step(state.alpha, alpha_gradient(state.elp, state.alpha), state.alpha_slot, config)
    new = np.maximum(new, ALPHA_MIN)
    # a non-finite entry makes the sum non-finite too; so do entries whose sum overflows
    if not np.isfinite(new.sum()):
        raise DivergenceError("Dirichlet prior alpha is non-finite")
    return new


def block_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Exact block-affinity maximizer from its membership-weighted edge and
    pair totals over the observed pairs, clamped away from the log
    singularities."""
    if np.any(den < 1e-12):
        raise InvariantError("degenerate memberships: block denominator underflow")
    return clamp_block_matrix(num / den)


def edge_posterior(state, own: np.ndarray, cross: np.ndarray, pair_odds: np.ndarray, self_odds) -> np.ndarray:
    """The block model's tempered-sigmoid edge posterior: each pair of state.pairs
    scores its cross-client log-likelihood in ``cross`` plus ``pair_odds``, its
    block log-odds under its memberships; other off-diagonal entries are 0. The
    diagonal (the clients' own log-likelihoods ``own`` plus ``self_odds``) is for
    reporting only."""
    w = pair_matrix(state.n_clients, state.pairs, sigmoid_tempered(cross + pair_odds, state.tau_sigmoid))
    np.fill_diagonal(w, sigmoid_tempered(own + self_odds, state.tau_sigmoid))
    return w


def graph(state) -> np.ndarray:
    """Row-stochastic view of the learned graph used by metrics/snapshots.

    Block-prior edge weights are Bernoulli parameters, not mixing weights;
    they are row-normalized here only, never inside an update. A row whose
    weights all underflowed to zero is left as zeros (the distance metric
    scores it at its maximum).
    """
    sums = state.w.sum(axis=1, keepdims=True)
    return np.divide(state.w, sums, out=np.zeros_like(state.w), where=sums > 0)


def pair_bilinear(phi_send: np.ndarray, X: np.ndarray, phi_recv: np.ndarray) -> np.ndarray:
    """sum_gh phi_send[e, g] X[g, h] phi_recv[e, h] for every row e of an
    E x M pair list, accumulated with g outer and h inner from zero: the
    terms and order of np.einsum("eg,gh,eh->e", ...), bit for bit, in about
    half its time."""
    M = X.shape[0]
    acc, term = np.zeros(len(phi_send)), np.empty(len(phi_send))
    for g in range(M):
        for h in range(M):
            np.multiply(phi_send[:, g], X[g, h], out=term)
            term *= phi_recv[:, h]
            acc += term
    return acc
