"""Closed-form evidence lower bound of the learned priors.

This is the testing oracle: every closed-form E-step block must be a
stationary point of the value computed here, and no block update may
decrease it. ``elbo`` takes the terms every prior shares, the likelihood
and the ridge on theta, and adds the prior module's own
``bound_terms(state)`` (rounds.PRIORS; the block priors build theirs with
``block_terms``). The terms are evaluated exactly (0 log 0 := 0 in
entropies; attention probabilities inside logs share the update's floor)
and the breakdown's total is the plain sum of its named terms. The
cross-client likelihood runs over the round's pair list (topology.pair_list)
with one log-likelihood per pair, and the block priors' edge and
edge-entropy terms over the state's own, which are that list without its
diagonal.

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
from .state import BlockState


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


def _model_prior_term(models: ClientStore | None, lam: float) -> float:
    """The ridge on theta: each client's theta @ theta, as one stacked
    (K, 1, D) @ (K, D, 1) product, folded in row order."""
    if models is None or lam == 0.0:
        return 0.0
    thetas = models.theta
    squares = thetas[:, None, :] @ thetas[:, :, None]
    return -0.5 * lam * fold_sum(squares.ravel().tolist(), 0.0)


def _dirichlet_term(gamma: np.ndarray, alpha: np.ndarray, elp: np.ndarray) -> float:
    """The Dirichlet prior's cross-entropy and the posterior's entropy, from
    one log_gamma call on alpha, its sum, gamma and gamma's row sums."""
    K, M = gamma.shape
    lg = log_gamma(np.concatenate((alpha, [alpha.sum()], gamma.ravel(), gamma.sum(axis=1))))
    end = M + 1 + K * M  # lg holds alpha's M values, its sum's, gamma's K * M, then its K row sums'
    prior = (
        float(((alpha - 1.0)[None, :] * elp).sum())
        - K * float(lg[:M].sum())
        + K * float(lg[M])
    )
    post_entropy = (
        -float(((gamma - 1.0) * elp).sum())
        + float(lg[M + 1 : end].reshape(K, M).sum())
        - float(lg[end:].sum())
    )
    return prior + post_entropy


def block_terms(
    state: BlockState, *, pos: np.ndarray, neg: np.ndarray, membership: float, entropy_membership: float
) -> dict[str, float]:
    """A block prior's own terms over its observed pairs ``state.pairs``
    from each pair's expected log B and log(1 - B), ``pos`` and ``neg`` (its
    membership contraction), its ``membership`` and ``entropy_membership``:
    the edge, Dirichlet and edge-entropy terms are the block model's."""
    w = np.take(state.w, state.pairs)
    return dict(
        edge=float((w * pos + (1.0 - w) * neg).sum()),
        membership=membership,
        dirichlet=_dirichlet_term(state.gamma, state.alpha, state.elp),
        entropy_membership=entropy_membership,
        entropy_w=float((-(xlogx(w) + xlogx(1.0 - w))).sum()),
    )


def elbo(prior, state, loglik, pairs, diagonal, models: ClientStore | None = None, lam: float = 0.0) -> ElboBreakdown:
    """The lower bound of a learned prior's state: the own log-likelihoods at
    the ``diagonal`` of the round's ``pairs`` (np.trace's sum, bit for bit)
    plus w times the cross-client ones off it, the ridge ``lam`` on the
    models (the run's config.weight_decay), and the prior module's own
    ``bound_terms``."""
    return ElboBreakdown(
        likelihood=float(loglik[diagonal].sum() + (np.take(state.w, pairs[~diagonal]) * loglik[~diagonal]).sum()),
        model_prior=_model_prior_term(models, lam),
        **prior.bound_terms(state),
    )
