"""Round-synchronous orchestration: evaluate, E-step, local epochs, prior
updates, one barrier at a time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, DivergenceError, ScoolError
from ..models import Dataset, LocalModel, batch_log_likelihood
from ..topology import (
    CROSS_GRADIENT,
    CommLedger,
    Topology,
    account_exchange,
    account_gossip,
    sparsify_topk,
)
from . import attention, dirac, mmsbm, sbm
from .elbo import elbo
from .theta import pair_blocks, stack_clients

LOCAL_ONLY = "local-only"
DIRAC = "dirac"
SBM = "sbm"
ATTENTION = "attention"
MMSBM = "mmsbm"
PRIOR_KINDS = (LOCAL_ONLY, DIRAC, SBM, ATTENTION, MMSBM)


@dataclass
class RoundResult:
    round_index: int
    loglik: np.ndarray | None
    elbo_total: float | None
    graph: np.ndarray  # row-stochastic reporting view of the cooperation graph


def loglik_matrix(
    models: Sequence[LocalModel],
    train_sets: Sequence[Dataset],
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-client evaluation: entry (i, j) is the mean log-probability of
    client j's training labels under client i's model. The pairs the mask
    allows form one row-major pair list, evaluated in blocks of at most
    theta.PAIR_BLOCK_ELEMENTS activations, one batched call per block;
    masked pairs stay exactly zero and are never evaluated."""
    K = len(models)
    allowed = np.ones((K, K), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    thetas, X, Y = stack_clients(models, train_sets)
    arch = models[0].arch
    rows, cols = np.nonzero(allowed)
    out = np.zeros((K, K))
    for blk in pair_blocks(len(rows), X.shape[1], arch):
        r, c = rows[blk], cols[blk]
        out[r, c] = batch_log_likelihood(thetas[r], X[c], Y[c], arch)
    return out


def reporting_graph(prior_kind: str, state, K: int) -> np.ndarray:
    """Row-stochastic view of the learned graph used by metrics/snapshots.

    Block-prior edge weights are Bernoulli parameters, not mixing weights;
    they are row-normalized here only, never inside an update. A row whose
    weights all underflowed to zero is left as zeros (the distance metric
    scores it at its maximum).
    """
    if prior_kind == LOCAL_ONLY:
        return np.eye(K)
    if prior_kind in (SBM, MMSBM):
        w = np.array(state.w, dtype=float)
        sums = w.sum(axis=1, keepdims=True)
        return np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)
    return np.array(state.w, dtype=float)


def run_round(
    prior_kind: str,
    state,
    models: Sequence[LocalModel],
    train_sets: Sequence[Dataset],
    topology: Topology,
    ledger: CommLedger | None,
    round_index: int,
    *,
    eta1: float,
    local_steps: int = 1,
    grad_mode: str = CROSS_GRADIENT,
    lam: float = 0.0,
    optimizer: str = "plain",
    optimizer_weight_decay: float = 0.0,
    attention_coupling: bool = True,
    sparsify_keep_fraction: float = 1.0,
    sparsify_round: int = 10,
) -> RoundResult:
    """One full round: prune the topology if scheduled, evaluate the
    cross-client log-likelihoods, run the prior's E-step, the local
    cooperative epochs, and the remaining prior-parameter updates."""
    if prior_kind not in PRIOR_KINDS:
        raise ConfigurationError(f"unknown prior {prior_kind!r}")
    K = len(models)
    try:
        if (
            sparsify_keep_fraction < 1.0
            and round_index == sparsify_round
            and prior_kind != LOCAL_ONLY
        ):
            topology.mask = sparsify_topk(
                state.w, topology.mask, sparsify_keep_fraction, round_index, sparsify_round
            )
            if prior_kind == DIRAC:
                # gossip averaging needs an undirected graph
                topology.mask = topology.mask | topology.mask.T
                state.w = dirac.metropolis_weights(topology.mask)

        mask = topology.mask
        ll = None
        elbo_total = None

        if prior_kind == LOCAL_ONLY:
            from .theta import cooperative_sgd_steps

            cooperative_sgd_steps(
                models, train_sets, np.eye(K), lam, eta1, local_steps, grad_mode
            )
        elif prior_kind == DIRAC:
            for _ in range(local_steps):
                dirac.dpsgd_step(models, state.w, train_sets, eta1)
            if ledger is not None:
                account_gossip(ledger, mask, round_index, local_steps)
        else:
            ll = loglik_matrix(models, train_sets, mask)
            if not np.all(np.isfinite(ll[mask])):
                raise DivergenceError("cross-client log-likelihoods are non-finite")
            if prior_kind == SBM:
                sbm.e_step(state, ll, mask)
                elbo_total = elbo(state, ll, models, mask).total
                sbm.m_step(
                    state, models, train_sets, eta1, local_steps, grad_mode, mask,
                    optimizer, optimizer_weight_decay,
                )
            elif prior_kind == ATTENTION:
                attention.e_step(state, models, ll, mask)
                elbo_total = elbo(state, ll, models, mask).total
                attention.m_step(
                    state, models, train_sets, eta1, local_steps, grad_mode, mask,
                    attention_coupling, optimizer, optimizer_weight_decay,
                )
            else:
                mmsbm.e_step(state, ll, mask)
                elbo_total = elbo(state, ll, models, mask).total
                mmsbm.m_step(
                    state, models, train_sets, eta1, local_steps, grad_mode, mask,
                    optimizer, optimizer_weight_decay,
                )
            if ledger is not None:
                account_exchange(ledger, mask, grad_mode, round_index, local_steps)
    except ScoolError as err:
        if isinstance(err, DivergenceError):
            raise DivergenceError(f"round {round_index}: {err}") from err
        raise type(err)(f"round {round_index}: {err}") from err

    return RoundResult(
        round_index=round_index,
        loglik=ll,
        elbo_total=elbo_total,
        graph=reporting_graph(prior_kind, state, K),
    )
