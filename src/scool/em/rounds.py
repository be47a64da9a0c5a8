"""Round-synchronous orchestration: evaluate, E-step, local epochs, prior
updates, one barrier at a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DivergenceError, ScoolError
from ..models import ClientStore, DataStack, batch_log_likelihood
from ..topology import (
    CommLedger,
    Topology,
    account_exchange,
    account_gossip,
    sparsify_topk,
)
from . import attention, dirac, local, mmsbm, sbm
from .elbo import elbo
from .theta import pair_blocks

# Every prior is a module with the same four hooks, looked up at call time:
#   init_state(config, topology, theta_dim) -> the prior's state
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


@dataclass
class RoundResult:
    round_index: int
    loglik: np.ndarray | None
    elbo_total: float | None
    graph: np.ndarray  # row-stochastic reporting view of the cooperation graph


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
    state, models: ClientStore, topology: Topology, ledger: CommLedger, round_index: int, config
) -> RoundResult:
    """One full round of the prior named by ``config.prior_kind`` (a key of
    PRIORS), on the store's train stack and the run's settings.

    A prior with an E-step learns its graph: the topology is pruned if
    scheduled, then the cross-client log-likelihoods feed the E-step and
    the lower bound. Every prior then runs its M-step (the local epochs and
    its prior-parameter updates), and the round's traffic is charged: the
    evaluation pass plus the gradient exchange for a learned graph, one
    gossip round per local step for a fixed one; local-only keeps no state
    and sends nothing.
    """
    if config.prior_kind not in PRIORS:
        raise ConfigurationError(f"unknown prior {config.prior_kind!r}")
    prior = PRIORS[config.prior_kind]
    ll = elbo_total = None
    try:
        if prior.e_step is not None:
            if config.sparsify_keep_fraction < 1.0 and round_index == config.sparsify_round:
                topology.mask = sparsify_topk(state.w, topology.mask, config.sparsify_keep_fraction)
            ll = loglik_matrix(models, models.train, topology.mask)
            if not np.all(np.isfinite(ll[topology.mask])):
                raise DivergenceError("cross-client log-likelihoods are non-finite")
            prior.e_step(state, models, ll, topology.mask)
            elbo_total = elbo(state, ll, topology.mask, models).total
        prior.m_step(state, models, topology.mask, config)
        if ll is not None:
            account_exchange(ledger, topology.mask, config.grad_mode, round_index, config.local_steps)
        elif state is not None:
            account_gossip(ledger, topology.mask, round_index, config.local_steps)
    except ScoolError as err:
        raise type(err)(f"round {round_index}: {err}") from err

    return RoundResult(
        round_index=round_index,
        loglik=ll,
        elbo_total=elbo_total,
        graph=prior.graph(state, len(models)),
    )
