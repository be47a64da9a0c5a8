"""Helpers shared by the block-structured priors."""

from __future__ import annotations

import numpy as np

from ..special import digamma
from .state import ALPHA_MIN, AdamSlot, ascent_step


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


def alpha_ascent(
    gamma: np.ndarray,
    alpha: np.ndarray,
    eta2: float,
    optimizer: str = "plain",
    slot: AdamSlot | None = None,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """One projected ascent step on alpha, floored at ALPHA_MIN."""
    new = ascent_step(
        alpha, alpha_gradient(gamma, alpha), eta2, optimizer, slot, weight_decay
    )
    return np.maximum(new, ALPHA_MIN)


def observed_pairs(K: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Observed ordered pairs: off-diagonal and unmasked. Masked pairs carry
    no communication, so their edge and membership variables are missing."""
    off = ~np.eye(K, dtype=bool)
    if mask is not None:
        off = off & np.asarray(mask, dtype=bool)
    return off


def pair_bilinear(phi_send: np.ndarray, X: np.ndarray, phi_recv: np.ndarray) -> np.ndarray:
    """sum_gh phi_send[i, j, g] X[g, h] phi_recv[i, j, h] for every pair,
    accumulated with g outer and h inner from zero: the terms and order of
    np.einsum("ijg,gh,ijh->ij", ...), bit for bit, in about half its time."""
    M = X.shape[0]
    acc = np.zeros(phi_send.shape[:2])
    for g in range(M):
        for h in range(M):
            acc += phi_send[:, :, g] * X[g, h] * phi_recv[:, :, h]
    return acc
