"""Closed-form evidence lower bound for each structured prior.

This is the testing oracle: every closed-form E-step block must be a
stationary point of the value computed here, and no block update may
decrease it. The terms are evaluated exactly (0 log 0 := 0 in entropies;
attention probabilities inside logs share the update's floor) and the
breakdown's total is the plain sum of its named terms. Every bound takes
the round's observed pairs, the flat row-major indices of the mask's
off-diagonal true entries (topology.pair_list without the diagonal): the
cross-client likelihood, and the block priors' edge and edge-entropy
terms, run over those pairs only.

Term naming: ``edge`` is the graph-likelihood part (block edge evidence,
or the attention agreement sum); ``membership`` the expected membership
log-probability under the Dirichlet mixtures; ``dirichlet`` bundles the
Dirichlet prior cross-entropy with the Dirichlet posterior entropy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..models import ClientStore
from ..special import fold_sum, log_gamma, xlogx
from .common import block_logs, expected_log_pi, pair_bilinear
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
        """The terms folded left to right in their declared order, from the
        first term itself: a 0.0 start would turn a lone -0.0 into +0.0."""
        first, *rest = self.terms().values()
        return fold_sum(rest, first)

    def terms(self) -> dict[str, float]:
        return asdict(self)


def _likelihood_term(w: np.ndarray, loglik: np.ndarray, pairs: np.ndarray) -> float:
    return float(np.trace(loglik) + np.take(w * loglik, pairs).sum())


def _model_prior_term(models: ClientStore | None, lam: float) -> float:
    if models is None or lam == 0.0:
        return 0.0
    return -0.5 * lam * fold_sum((float(theta @ theta) for theta in models.theta), 0.0)


def _dirichlet_term(gamma: np.ndarray, alpha: np.ndarray, elp: np.ndarray) -> float:
    K = len(gamma)
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
    state: BlockState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None, elp: np.ndarray,
    *, edge: float, membership: float, entropy_membership: float,
) -> ElboBreakdown:
    """A block prior's bound over the flat observed-pair indices ``pairs``
    from its ``edge``, ``membership``, ``entropy_membership`` terms and its
    elp = expected_log_pi(state.gamma): the other terms are shared."""
    w = np.take(state.w, pairs)
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, pairs),
        model_prior=_model_prior_term(models, state.lam),
        edge=edge,
        membership=membership,
        dirichlet=_dirichlet_term(state.gamma, state.alpha, elp),
        entropy_membership=entropy_membership,
        entropy_w=float((-(xlogx(w) + xlogx(1.0 - w))).sum()),
    )


def elbo_sbm(
    state: SbmState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    logB, log1mB = block_logs(state)
    pos = state.omega @ logB @ state.omega.T
    neg = state.omega @ log1mB @ state.omega.T
    elp = expected_log_pi(state.gamma)
    return _block_bound(
        state, loglik, pairs, models, elp,
        edge=float(np.take(state.w * pos + (1.0 - state.w) * neg, pairs).sum()),
        membership=float((state.omega * elp).sum()),
        entropy_membership=-float(xlogx(state.omega).sum()),
    )


def elbo_attention(
    state: AttentionState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    logp = np.log(np.maximum(state.p, PROB_FLOOR))
    return ElboBreakdown(
        likelihood=_likelihood_term(state.w, loglik, pairs),
        model_prior=_model_prior_term(models, state.lam),
        edge=float((state.w * logp).sum()),
        entropy_w=-float(xlogx(state.w).sum()),
    )


def elbo_mmsbm(state: MmsbmState, loglik: np.ndarray, models: ClientStore | None = None) -> ElboBreakdown:
    K, pairs = state.n_clients, state.pairs
    ps, pr, w = state.phi_send, state.phi_recv, np.take(state.w, pairs)
    logB, log1mB = block_logs(state)
    pos = pair_bilinear(ps, logB, pr)
    neg = pair_bilinear(ps, log1mB, pr)
    elp = expected_log_pi(state.gamma)
    elp_send, elp_recv = (np.take(elp, own, axis=0) for own in (pairs // K, pairs % K))
    return _block_bound(
        state, loglik, pairs, models, elp,
        edge=float((w * pos + (1.0 - w) * neg).sum()),
        membership=float((ps * elp_send).sum() + (pr * elp_recv).sum()),
        entropy_membership=-float(xlogx(ps).sum() + xlogx(pr).sum()),
    )


def elbo(state, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None) -> ElboBreakdown:
    """Dispatch on the prior's state type; ``pairs`` are the observed pairs."""
    if isinstance(state, SbmState):
        return elbo_sbm(state, loglik, pairs, models)
    if isinstance(state, AttentionState):
        return elbo_attention(state, loglik, pairs, models)
    if isinstance(state, MmsbmState):
        return elbo_mmsbm(state, loglik, models)
    raise TypeError(f"no lower bound for state type {type(state).__name__}")
