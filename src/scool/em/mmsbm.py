"""Mixed-membership block prior: per-pair sender/receiver memberships.

Every observed ordered pair (i, j), i != j and allowed by the topology's
boolean mask, carries two simplex vectors: the sender's membership drawn
from client i's mixture and the receiver's drawn from client j's. The state
holds them as E x M rows, one per entry of its pair list ``state.pairs``,
and every update and the lower bound read that list. The edge posterior and
the bound's edge term are the block model's own (common.edge_posterior,
elbo.block_terms); the prior's membership contraction is pair_bilinear on
its rows. All blocks are exact coordinate maximizers given the others, and
the sweep inside one E-step reads the pre-sweep memberships.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantError
from ..special import softmax_tempered, xlogx
from .common import block_logs, block_ratio, block_start, checked_gamma, edge_posterior
# graph (the reporting hook) and update_alpha are shared with sbm
from .common import graph, pair_bilinear, update_alpha
from .elbo import block_terms
from .state import MmsbmState, jittered_simplex
from .theta import cooperative_sgd_steps  # unused: the benchmark's probe rebinds it here until ROADMAP item 1(b)

coupling = local_steps = None


def init_state(config, mask, theta_dim: int) -> MmsbmState:
    """Jittered sender then receiver memberships, drawn for every ordered
    pair and normalized at the observed ones only, on the block model's
    shared start."""
    K, M = config.K, config.num_memberships
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    start = block_start(config, mask)
    phi_send = jittered_simplex(rng.standard_normal((K * K, M))[start["pairs"]])
    phi_recv = jittered_simplex(rng.standard_normal((K * K, M))[start["pairs"]])
    return MmsbmState(phi_send=phi_send, phi_recv=phi_recv, **start)


def update_w(state: MmsbmState, loglik: np.ndarray) -> np.ndarray:
    """Edge posterior with each pair's block log-odds under its sender and
    receiver memberships; the diagonal is scored with uniform memberships
    on both sides."""
    logB, log1mB = block_logs(state)
    odds = logB - log1mB
    uniform = np.full((1, state.n_blocks), 1.0 / state.n_blocks)
    pair_odds = pair_bilinear(state.phi_send, odds, state.phi_recv)
    return edge_posterior(state, loglik, pair_odds, pair_bilinear(uniform, odds, uniform))


def _client_sums(own: np.ndarray, phi: np.ndarray, K: int) -> np.ndarray:
    """K x M: row i sums the rows of the E x M ``phi`` whose pair has client
    ``own[e]`` == i, in pair order from 0.0, by one bincount over the bins
    own * M + g."""
    M = phi.shape[1]
    bins = (own[:, None] * M + np.arange(M)).ravel()
    return np.bincount(bins, phi.ravel(), K * M).reshape(K, M)


def update_gamma(state: MmsbmState) -> np.ndarray:
    """Dirichlet posterior: prior plus client i's sender memberships over
    observed pairs (i, .) plus its receiver memberships over (., i)."""
    K, pairs = state.n_clients, state.pairs
    send_sum = _client_sums(pairs // K, state.phi_send, K)
    recv_sum = _client_sums(pairs % K, state.phi_recv, K)
    return checked_gamma(state.alpha[None, :] + send_sum + recv_sum)


def update_phi(state: MmsbmState, side: str) -> np.ndarray:
    """Softmax of one side's ("send" or "recv") edge and non-edge evidence
    plus its client's expected log-mixture, state.elp. The scores are laid
    out block-major (M x E) so the softmax reduces along the leading axis;
    the rows come back contiguous."""
    K, pairs = state.n_clients, state.pairs
    logB, log1mB = block_logs(state)
    if side == "send":
        counterpart, own = state.phi_recv.T, pairs // K
    else:
        counterpart, own = state.phi_send.T, pairs % K
        logB, log1mB = logB.T, log1mB.T
    w = np.take(state.w, pairs)
    scores = w * (logB @ counterpart) + (1.0 - w) * (log1mB @ counterpart)
    scores = scores + np.take(state.elp, own, axis=0).T
    return np.ascontiguousarray(softmax_tempered(scores, 1.0, axis=0).T)


def update_block_matrix(state: MmsbmState) -> np.ndarray:
    ps, pr = state.phi_send, state.phi_recv
    return block_ratio((np.take(state.w, state.pairs)[:, None] * ps).T @ pr, ps.T @ pr)


def bound_terms(state: MmsbmState) -> dict[str, float]:
    """The block model's lower-bound terms under the pair memberships, each
    side scored against its own client's expected log-mixture."""
    ps, pr = state.phi_send, state.phi_recv
    logB, log1mB = block_logs(state)
    elp_send, elp_recv = (np.take(state.elp, own, axis=0) for own in np.divmod(state.pairs, state.n_clients))
    return block_terms(
        state,
        pos=pair_bilinear(ps, logB, pr),
        neg=pair_bilinear(ps, log1mB, pr),
        membership=float((ps * elp_send).sum() + (pr * elp_recv).sum()),
        entropy_membership=-float(xlogx(ps).sum() + xlogx(pr).sum()),
    )


def e_step(state: MmsbmState, models, loglik: np.ndarray, pairs: np.ndarray, observed: np.ndarray) -> MmsbmState:
    """When the round's observed-pair list ``observed`` lost pairs (pruning
    only removes pairs), keep the rows of the pairs it still lists; the
    state's list must then be ``observed``. Then the edge and Dirichlet
    posteriors, then one synchronous sweep of both pair-membership sides
    from the pre-sweep snapshot."""
    if len(state.pairs) != len(observed):
        keep = np.isin(state.pairs, observed, assume_unique=True)  # no np.unique, which loads numpy.ma
        state.pairs, state.phi_send, state.phi_recv = (a[keep] for a in (state.pairs, state.phi_send, state.phi_recv))
    if not np.array_equal(state.pairs, observed):
        raise InvariantError("mmsbm pair list is not the round's observed pairs")
    state.w = update_w(state, loglik)
    state.gamma = update_gamma(state)
    state.phi_send, state.phi_recv = update_phi(state, "send"), update_phi(state, "recv")
    return state


def update_prior(state: MmsbmState, models, config) -> None:
    """The Dirichlet prior alpha, then the block affinities."""
    state.alpha = update_alpha(state, config)
    state.B = update_block_matrix(state)
