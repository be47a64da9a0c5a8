"""Helpers shared by the block-structured priors."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, InvariantError
from ..special import digamma
from .state import ALPHA_MIN, AdamSlot, ascent_step, clamp_block_matrix


def block_start(config) -> dict:
    """The block priors' shared initial fields: every edge at 1/2, a flat
    Dirichlet prior with every posterior at it, every block at
    config.block_init, the run's ridge and temperature, and a fresh Adam
    slot for alpha. The first E-step sets gamma before anything reads it."""
    K, M = config.K, config.num_memberships
    alpha = np.ones(M)
    return dict(
        w=np.full((K, K), 0.5),
        gamma=np.ones((K, M)),
        alpha=alpha,
        B=np.full((M, M), config.block_init),
        lam=config.weight_decay,
        tau_sigmoid=config.tau_sigmoid,
        alpha_slot=AdamSlot.like(alpha),
    )


def block_logs(state) -> tuple[np.ndarray, np.ndarray]:
    """(log B, log(1 - B)) of a block prior's state; B is already clamped
    where it is written."""
    return np.log(state.B), np.log1p(-state.B)


def expected_log_pi(gamma: np.ndarray) -> np.ndarray:
    """E[log pi] under a Dirichlet posterior: psi(gamma) - psi(sum gamma),
    row-wise."""
    g = np.asarray(gamma, dtype=float)
    return digamma(g) - digamma(g.sum(axis=1))[:, None]


def alpha_gradient(gamma: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Ascent gradient of the shared Dirichlet parameter: the K clients'
    expected log-mixtures against the prior's normalizer."""
    K = len(gamma)
    elp = expected_log_pi(gamma)
    return elp.sum(axis=0) - K * digamma(alpha) + K * digamma(float(alpha.sum()))


def update_alpha(state, config) -> np.ndarray:
    """One projected ascent step on the shared Dirichlet parameter alpha of a
    block prior, under the run's prior step size, optimizer and decay,
    floored at ALPHA_MIN."""
    new = ascent_step(state.alpha, alpha_gradient(state.gamma, state.alpha), state.alpha_slot, config)
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


def graph(state, K: int) -> np.ndarray:
    """Row-stochastic view of the learned graph used by metrics/snapshots.

    Block-prior edge weights are Bernoulli parameters, not mixing weights;
    they are row-normalized here only, never inside an update. A row whose
    weights all underflowed to zero is left as zeros (the distance metric
    scores it at its maximum).
    """
    w = np.array(state.w, dtype=float)
    sums = w.sum(axis=1, keepdims=True)
    return np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)


def observed_pairs(mask: np.ndarray) -> np.ndarray:
    """Observed ordered pairs: off-diagonal and unmasked. Masked pairs carry
    no communication, so their edge and membership variables are missing."""
    return ~np.eye(len(mask), dtype=bool) & mask


def at_pairs(a: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The entries of a K x K array, or the membership rows of a K x K x M
    one, at the flat pair indices i*K + j."""
    return np.take(a.reshape(-1, *a.shape[2:]), pairs, axis=0)


def pair_bilinear(phi_send: np.ndarray, X: np.ndarray, phi_recv: np.ndarray) -> np.ndarray:
    """sum_gh phi_send[..., g] X[g, h] phi_recv[..., h] for every pair, on
    K x K x M memberships or an E x M pair list, accumulated with g outer
    and h inner from zero: the terms and order of
    np.einsum("...g,gh,...h->...", ...), bit for bit, in about half its time."""
    M = X.shape[0]
    acc = np.zeros(phi_send.shape[:-1])
    for g in range(M):
        for h in range(M):
            acc += phi_send[..., g] * X[g, h] * phi_recv[..., h]
    return acc
