"""Round-synchronous orchestration: evaluate, E-step, local epochs, prior
updates, one barrier at a time. A round hands back plain values: its
reporting graph, its lower bound and its traffic record."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError, ScoolError
from ..models import ClientStore, DataStack, batch_value_and_grad
from ..topology import CROSS_GRADIENT, RoundTraffic, account_exchange, account_gossip, sparsify_topk
from . import attention, dirac, local, mmsbm, sbm
from .elbo import elbo
from .theta import pair_blocks

# Every prior is a module with the same four hooks, looked up at call time:
#   init_state(config, mask, theta_dim) -> the prior's state
#   e_step(state, models, loglik, mask), or None for a fixed graph
#   m_step(state, models, mask, config, grads): the local epochs on
#       models.train and the prior-parameter updates, under the run's
#       settings; grads is the loglik pass's E x D pair gradients under
#       cross-gradient (see loglik_matrix), which local step 0 reads instead
#       of taking them again, or None (taylor-approx, or no E-step)
#   graph(state, K) -> the row-stochastic reporting view of the graph
PRIORS = {
    "local-only": local,
    "dirac": dirac,
    "sbm": sbm,
    "attention": attention,
    "mmsbm": mmsbm,
}


def loglik_matrix(
    models: ClientStore, train_sets: DataStack, mask: np.ndarray, grads: np.ndarray | None = None
) -> np.ndarray:
    """Cross-client evaluation: entry (i, j) is the mean log-probability of
    client j's training labels under client i's model. The pairs the mask
    allows form one row-major pair list, evaluated in blocks of at most
    theta.PAIR_BLOCK_ELEMENTS activations, one batched call per block;
    masked pairs stay exactly zero and are never evaluated.

    With ``grads`` (E x D, E = mask.sum()), the same forward pass also
    writes grad(theta_i; D_j) of the pair list's e-th pair (i, j), in
    np.nonzero(mask) order, into row e."""
    K = len(models)
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    rows, cols = np.nonzero(mask)
    out = np.zeros((K, K))
    for blk in pair_blocks(len(rows), X.shape[1], arch):
        r, c = rows[blk], cols[blk]
        block_grads = None if grads is None else grads[blk]
        out[r, c] = batch_value_and_grad(thetas[r], X[c], Y[c], arch, block_grads, grad=grads is not None)[0]
    return out


def run_round(
    state, models: ClientStore, mask: np.ndarray, round_index: int, config
) -> tuple[np.ndarray, float | None, RoundTraffic | None]:
    """One full round of the prior named by ``config.prior_kind`` (a key of
    PRIORS), on the store's train stack and the run's settings.

    A prior with an E-step learns its graph: the caller's mask is pruned in
    place if scheduled, then the cross-client log-likelihoods feed the
    E-step and the lower bound. Under cross-gradient that pass also takes
    the pair gradients local step 0 needs; the E-step and the lower bound
    never move a model, so they are still current when the M-step reads
    them. Every prior then runs its M-step (the local epochs and its
    prior-parameter updates), and the round's traffic is counted: the
    evaluation pass plus the gradient exchange for a learned graph, one
    gossip round per local step for a fixed one. A lower bound that is not
    finite is a divergence.

    Returns ``(graph, elbo_total, traffic)``: the row-stochastic reporting
    view of the graph, the lower bound (None for a fixed graph) and the
    round's RoundTraffic (None for local-only, which keeps no state and
    sends nothing).
    """
    if config.prior_kind not in PRIORS:
        raise ConfigurationError(f"unknown prior {config.prior_kind!r}")
    prior = PRIORS[config.prior_kind]
    ll = grads = elbo_total = traffic = None
    try:
        if prior.e_step is not None:
            if config.sparsify_keep_fraction < 1.0 and config.sparsify_round == round_index:
                mask[...] = sparsify_topk(state.w, mask, config.sparsify_keep_fraction)
            if config.grad_mode == CROSS_GRADIENT:
                grads = np.empty((np.count_nonzero(mask), models.arch.n_params))
            ll = loglik_matrix(models, models.train, mask, grads)
            if not np.all(np.isfinite(ll[mask])):
                raise DivergenceError("cross-client log-likelihoods are non-finite")
            prior.e_step(state, models, ll, mask)
            elbo_total = elbo(state, ll, mask, models).total
        prior.m_step(state, models, mask, config, grads)
        # checked after the M-step, so a fault that the M-step finds in the
        # same round is reported under its own cause
        if elbo_total is not None and not np.isfinite(elbo_total):
            raise DivergenceError("lower bound is non-finite")
        if ll is not None:
            traffic = account_exchange(mask, config.grad_mode, config.local_steps, models.arch.n_params)
        elif state is not None:
            traffic = account_gossip(mask, config.local_steps)
    except ScoolError as err:
        raise type(err)(f"round {round_index}: {err}") from err
    return prior.graph(state, len(models)), elbo_total, traffic
