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
from .common import block_logs, pair_bilinear
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
    """The own log-likelihoods plus w times the cross-client ones at the
    observed pairs; ``w`` holds the E weights at ``pairs``."""
    return float(np.trace(loglik) + (w * np.take(loglik, pairs)).sum())


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


def _block_bound(
    state: BlockState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None,
    *, pos: np.ndarray, neg: np.ndarray, membership: float, entropy_membership: float,
) -> ElboBreakdown:
    """A block prior's bound over the flat observed-pair indices ``pairs``
    from each pair's expected log B and log(1 - B), ``pos`` and ``neg`` (its
    membership contraction), its ``membership`` and ``entropy_membership``:
    the other terms are shared."""
    w = np.take(state.w, pairs)
    return ElboBreakdown(
        likelihood=_likelihood_term(w, loglik, pairs),
        model_prior=_model_prior_term(models, state.lam),
        edge=float((w * pos + (1.0 - w) * neg).sum()),
        membership=membership,
        dirichlet=_dirichlet_term(state.gamma, state.alpha, state.elp),
        entropy_membership=entropy_membership,
        entropy_w=float((-(xlogx(w) + xlogx(1.0 - w))).sum()),
    )


def elbo_sbm(
    state: SbmState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    logB, log1mB = block_logs(state)
    omega = state.omega
    return _block_bound(
        state, loglik, pairs, models,
        pos=np.take(omega @ logB @ omega.T, state.pairs),
        neg=np.take(omega @ log1mB @ omega.T, state.pairs),
        membership=float((omega * state.elp).sum()),
        entropy_membership=-float(xlogx(omega).sum()),
    )


def elbo_attention(
    state: AttentionState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    logp = np.log(np.maximum(state.p, PROB_FLOOR))
    return ElboBreakdown(
        likelihood=_likelihood_term(np.take(state.w, pairs), loglik, pairs),
        model_prior=_model_prior_term(models, state.lam),
        edge=float((state.w * logp).sum()),
        entropy_w=-float(xlogx(state.w).sum()),
    )


def elbo_mmsbm(
    state: MmsbmState, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None
) -> ElboBreakdown:
    ps, pr = state.phi_send, state.phi_recv
    logB, log1mB = block_logs(state)
    elp_send, elp_recv = (np.take(state.elp, own, axis=0) for own in np.divmod(state.pairs, state.n_clients))
    return _block_bound(
        state, loglik, pairs, models,
        pos=pair_bilinear(ps, logB, pr),
        neg=pair_bilinear(ps, log1mB, pr),
        membership=float((ps * elp_send).sum() + (pr * elp_recv).sum()),
        entropy_membership=-float(xlogx(ps).sum() + xlogx(pr).sum()),
    )


def elbo(state, loglik: np.ndarray, pairs: np.ndarray, models: ClientStore | None = None) -> ElboBreakdown:
    """Dispatch on the prior's state type; ``pairs`` are the observed pairs."""
    for kind, bound in ((SbmState, elbo_sbm), (AttentionState, elbo_attention), (MmsbmState, elbo_mmsbm)):
        if isinstance(state, kind):
            return bound(state, loglik, pairs, models)
    raise TypeError(f"no lower bound for state type {type(state).__name__}")
