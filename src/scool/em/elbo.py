"""Closed-form evidence lower bound for each structured prior.

This is the testing oracle: every closed-form E-step block must be a
stationary point of the value computed here, and no block update may
decrease it. The terms are evaluated exactly (0 log 0 := 0 in entropies;
attention probabilities inside logs share the update's floor) and the
breakdown's total is the plain sum of its named terms. Every bound takes
the topology's boolean mask: the cross-client likelihood, and the block
priors' edge and edge-entropy terms, run over the observed pairs only.

Term naming: ``edge`` is the graph-likelihood part (block edge evidence,
or the attention agreement sum); ``membership`` the expected membership
log-probability under the Dirichlet mixtures; ``dirichlet`` bundles the
Dirichlet prior cross-entropy with the Dirichlet posterior entropy.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from ..models import ClientStore
from ..special import log_gamma, xlogx
from .common import at_pairs, block_logs, expected_log_pi, observed_pairs, pair_bilinear
from .state import PROB_FLOOR, AttentionState, BlockState, MmsbmState, SbmState


@dataclass(frozen=True, kw_only=True)
class ElboBreakdown:
    likelihood: float
    model_prior: float
    edge: float
    membership: float = 0.0
    dirichlet: float = 0.0
    entropy_membership: float = 0.0
    entropy_w: float

    @property
    def total(self) -> float:
        """The terms summed left to right in their declared order (sum()
        compensates from Python 3.12 on)."""
        return reduce(operator.add, self.terms().values())

    def terms(self) -> dict[str, float]:
        return asdict(self)


def _likelihood_term(w: np.ndarray, loglik: np.ndarray, obs: np.ndarray) -> float:
    return float(np.trace(loglik) + (w * loglik)[obs].sum())


def _model_prior_term(models: ClientStore | None, lam: float) -> float:
    if models is None or lam == 0.0:
        return 0.0
    # folded left to right in Python: sum() compensates from Python 3.12 on
    total = 0.0
    for theta in models.theta:
        total += float(theta @ theta)
    return -0.5 * lam * total


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


def _block_bound(
    state: BlockState, loglik: np.ndarray, obs: np.ndarray, models: ClientStore | None,
    *, edge: float, membership: float, entropy_membership: float,
) -> ElboBreakdown:
    """A block prior's bound from its ``edge``, ``membership`` and
    ``entropy_membership`` terms: the likelihood, model-prior, Dirichlet and
    edge-entropy terms are the same for both ways of holding memberships."""
    w = state.w[obs]
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, obs),
        model_prior=_model_prior_term(models, state.lam),
        edge=edge,
        membership=membership,
        dirichlet=_dirichlet_term(state.gamma, state.alpha),
        entropy_membership=entropy_membership,
        entropy_w=float((-(xlogx(w) + xlogx(1.0 - w))).sum()),
    )


def elbo_sbm(
    state: SbmState, loglik: np.ndarray, mask: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    obs = observed_pairs(mask)
    logB, log1mB = block_logs(state)
    pos = state.omega @ logB @ state.omega.T
    neg = state.omega @ log1mB @ state.omega.T
    return _block_bound(
        state, loglik, obs, models,
        edge=float((state.w * pos + (1.0 - state.w) * neg)[obs].sum()),
        membership=float((state.omega * expected_log_pi(state.gamma)).sum()),
        entropy_membership=-float(xlogx(state.omega).sum()),
    )


def elbo_attention(
    state: AttentionState, loglik: np.ndarray, mask: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    obs = observed_pairs(mask)
    logp = np.log(np.maximum(state.p, PROB_FLOOR))
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, obs),
        model_prior=_model_prior_term(models, state.lam),
        edge=float((state.w * logp).sum()),
        entropy_w=-float(xlogx(state.w).sum()),
    )


def elbo_mmsbm(
    state: MmsbmState, loglik: np.ndarray, mask: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    K = state.n_clients
    obs = observed_pairs(mask)
    pairs = np.flatnonzero(obs)
    ps, pr, w = (at_pairs(a, pairs) for a in (state.phi_send, state.phi_recv, state.w))
    logB, log1mB = block_logs(state)
    pos = pair_bilinear(ps, logB, pr)
    neg = pair_bilinear(ps, log1mB, pr)
    elp = expected_log_pi(state.gamma)
    elp_send, elp_recv = (np.take(elp, own, axis=0) for own in (pairs // K, pairs % K))
    return _block_bound(
        state, loglik, obs, models,
        edge=float((w * pos + (1.0 - w) * neg).sum()),
        membership=float((ps * elp_send).sum() + (pr * elp_recv).sum()),
        entropy_membership=-float(xlogx(ps).sum() + xlogx(pr).sum()),
    )


def elbo(
    state,
    loglik: np.ndarray,
    mask: np.ndarray,
    models: ClientStore | None = None,
) -> ElboBreakdown:
    """Dispatch on the prior's state type."""
    if isinstance(state, SbmState):
        return elbo_sbm(state, loglik, mask, models)
    if isinstance(state, AttentionState):
        return elbo_attention(state, loglik, mask, models)
    if isinstance(state, MmsbmState):
        return elbo_mmsbm(state, loglik, mask, models)
    raise TypeError(f"no lower bound for state type {type(state).__name__}")
