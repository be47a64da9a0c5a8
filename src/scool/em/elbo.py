"""Closed-form evidence lower bound for each structured prior.

This is the testing oracle: every closed-form E-step block must be a
stationary point of the value computed here, and no block update may
decrease it. The terms are evaluated exactly (0 log 0 := 0 in entropies;
attention probabilities inside logs share the update's floor) and the
breakdown's total is the plain sum of its named terms.

Term naming: ``edge`` is the graph-likelihood part (block edge evidence,
or the attention agreement sum); ``membership`` the expected membership
log-probability under the Dirichlet mixtures; ``dirichlet`` bundles the
Dirichlet prior cross-entropy with the Dirichlet posterior entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..models import LocalModel
from ..special import xlogx
from .common import expected_log_pi, observed_pairs, pair_bilinear
from .state import PROB_FLOOR, AttentionState, MmsbmState, SbmState, clamp_block_matrix
from ..special import log_gamma


@dataclass(frozen=True)
class ElboBreakdown:
    likelihood: float
    model_prior: float
    edge: float
    membership: float
    dirichlet: float
    entropy_membership: float
    entropy_w: float

    @property
    def total(self) -> float:
        return (
            self.likelihood
            + self.model_prior
            + self.edge
            + self.membership
            + self.dirichlet
            + self.entropy_membership
            + self.entropy_w
        )

    def terms(self) -> dict[str, float]:
        return {
            "likelihood": self.likelihood,
            "model_prior": self.model_prior,
            "edge": self.edge,
            "membership": self.membership,
            "dirichlet": self.dirichlet,
            "entropy_membership": self.entropy_membership,
            "entropy_w": self.entropy_w,
        }


def _likelihood_term(w: np.ndarray, loglik: np.ndarray, obs: np.ndarray) -> float:
    return float(np.trace(loglik) + (w * loglik)[obs].sum())


def _model_prior_term(models: Sequence[LocalModel] | None, lam: float) -> float:
    if models is None or lam == 0.0:
        return 0.0
    return -0.5 * lam * sum(float(m.theta @ m.theta) for m in models)


def _dirichlet_term(gamma: np.ndarray, alpha: np.ndarray) -> float:
    K = len(gamma)
    elp = expected_log_pi(gamma)
    prior = (
        float(((alpha - 1.0)[None, :] * elp).sum())
        - K * float(log_gamma(alpha).sum())
        + K * float(log_gamma(alpha.sum()))
    )
    post_entropy = (
        -float(((gamma - 1.0) * elp).sum())
        + float(log_gamma(gamma).sum())
        - float(log_gamma(gamma.sum(axis=1)).sum())
    )
    return prior + post_entropy


def _bernoulli_entropy(w: np.ndarray, obs: np.ndarray) -> float:
    vals = -(xlogx(w) + xlogx(1.0 - w))
    return float(vals[obs].sum())


def elbo_sbm(state: SbmState, loglik: np.ndarray, models=None, mask=None) -> ElboBreakdown:
    obs = observed_pairs(state.n_clients, mask)
    B = clamp_block_matrix(state.B)
    pos = state.omega @ np.log(B) @ state.omega.T
    neg = state.omega @ np.log1p(-B) @ state.omega.T
    edge = float((state.w * pos + (1.0 - state.w) * neg)[obs].sum())
    elp = expected_log_pi(state.gamma)
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, obs),
        model_prior=_model_prior_term(models, state.lam),
        edge=edge,
        membership=float((state.omega * elp).sum()),
        dirichlet=_dirichlet_term(state.gamma, state.alpha),
        entropy_membership=-float(xlogx(state.omega).sum()),
        entropy_w=_bernoulli_entropy(state.w, obs),
    )


def elbo_attention(state: AttentionState, loglik: np.ndarray, models=None, mask=None) -> ElboBreakdown:
    obs = observed_pairs(state.n_clients, mask)
    logp = np.log(np.maximum(state.p, PROB_FLOOR))
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, obs),
        model_prior=_model_prior_term(models, state.lam),
        edge=float((state.w * logp).sum()),
        membership=0.0,
        dirichlet=0.0,
        entropy_membership=0.0,
        entropy_w=-float(xlogx(state.w).sum()),
    )


def elbo_mmsbm(state: MmsbmState, loglik: np.ndarray, models=None, mask=None) -> ElboBreakdown:
    obs = observed_pairs(state.n_clients, mask)
    B = clamp_block_matrix(state.B)
    pos = pair_bilinear(state.phi_send, np.log(B), state.phi_recv)
    neg = pair_bilinear(state.phi_send, np.log1p(-B), state.phi_recv)
    edge = float((state.w * pos + (1.0 - state.w) * neg)[obs].sum())
    elp = expected_log_pi(state.gamma)
    send_scores = np.einsum("ijg,ig->ij", state.phi_send, elp)
    recv_scores = np.einsum("ijg,jg->ij", state.phi_recv, elp)
    membership = float(send_scores[obs].sum() + recv_scores[obs].sum())
    entropy_membership = -float(xlogx(state.phi_send)[obs].sum() + xlogx(state.phi_recv)[obs].sum())
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, obs),
        model_prior=_model_prior_term(models, state.lam),
        edge=edge,
        membership=membership,
        dirichlet=_dirichlet_term(state.gamma, state.alpha),
        entropy_membership=entropy_membership,
        entropy_w=_bernoulli_entropy(state.w, obs),
    )


def elbo(
    state,
    loglik: np.ndarray,
    models: Sequence[LocalModel] | None = None,
    mask: np.ndarray | None = None,
) -> ElboBreakdown:
    """Dispatch on the prior's state type."""
    if isinstance(state, SbmState):
        return elbo_sbm(state, loglik, models, mask)
    if isinstance(state, AttentionState):
        return elbo_attention(state, loglik, models, mask)
    if isinstance(state, MmsbmState):
        return elbo_mmsbm(state, loglik, models, mask)
    raise TypeError(f"no lower bound for state type {type(state).__name__}")
