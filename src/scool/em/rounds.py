"""Round-synchronous orchestration: evaluate, E-step, local epochs, prior
updates, one barrier at a time. A round hands back plain values: its
reporting graph, its lower bound and its traffic record."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError, ScoolError
from ..models import ClientStore, DataStack, batch_log_likelihood
from ..topology import RoundTraffic, account_exchange, account_gossip, sparsify_topk
from . import attention, dirac, local, mmsbm, sbm
from .elbo import elbo
from .theta import pair_blocks

# Every prior is a module with the same four hooks, looked up at call time:
#   init_state(config, mask, theta_dim) -> the prior's state
#   e_step(state, models, loglik, mask), or None for a fixed graph
#   m_step(state, models, mask, config): the local epochs on models.train
#       and the prior-parameter updates, under the run's settings
#   graph(state, K) -> the row-stochastic reporting view of the graph
PRIORS = {
    "local-only": local,
    "dirac": dirac,
    "sbm": sbm,
    "attention": attention,
    "mmsbm": mmsbm,
}


def loglik_matrix(models: ClientStore, train_sets: DataStack, mask: np.ndarray) -> np.ndarray:
    """Cross-client evaluation: entry (i, j) is the mean log-probability of
    client j's training labels under client i's model. The pairs the mask
    allows form one row-major pair list, evaluated in blocks of at most
    theta.PAIR_BLOCK_ELEMENTS activations, one batched call per block;
    masked pairs stay exactly zero and are never evaluated."""
    K = len(models)
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    rows, cols = np.nonzero(mask)
    out = np.zeros((K, K))
    for blk in pair_blocks(len(rows), X.shape[1], arch):
        r, c = rows[blk], cols[blk]
        out[r, c] = batch_log_likelihood(thetas[r], X[c], Y[c], arch)
    return out


def run_round(
    state, models: ClientStore, mask: np.ndarray, round_index: int, config
) -> tuple[np.ndarray, float | None, RoundTraffic | None]:
    """One full round of the prior named by ``config.prior_kind`` (a key of
    PRIORS), on the store's train stack and the run's settings.

    A prior with an E-step learns its graph: the caller's mask is pruned in
    place if scheduled, then the cross-client log-likelihoods feed the
    E-step and the lower bound. Every prior then runs its M-step (the local
    epochs and its prior-parameter updates), and the round's traffic is
    counted: the evaluation pass plus the gradient exchange for a learned
    graph, one gossip round per local step for a fixed one. A lower bound
    that is not finite is a divergence.

    Returns ``(graph, elbo_total, traffic)``: the row-stochastic reporting
    view of the graph, the lower bound (None for a fixed graph) and the
    round's RoundTraffic (None for local-only, which keeps no state and
    sends nothing).
    """
    if config.prior_kind not in PRIORS:
        raise ConfigurationError(f"unknown prior {config.prior_kind!r}")
    prior = PRIORS[config.prior_kind]
    ll = elbo_total = traffic = None
    try:
        if prior.e_step is not None:
            if config.sparsify_keep_fraction < 1.0 and config.sparsify_round == round_index:
                mask[...] = sparsify_topk(state.w, mask, config.sparsify_keep_fraction)
            ll = loglik_matrix(models, models.train, mask)
            if not np.all(np.isfinite(ll[mask])):
                raise DivergenceError("cross-client log-likelihoods are non-finite")
            prior.e_step(state, models, ll, mask)
            elbo_total = elbo(state, ll, mask, models).total
        prior.m_step(state, models, mask, config)
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
