"""Communication topology, top-k sparsification and traffic accounting.

Masks are K x K booleans with an always-true diagonal: a client talks to
itself for free. ``account_exchange`` and ``account_gossip`` are pure: they
return one round's ``RoundTraffic`` and the caller keeps the records in a
``CommLedger``. Traffic is counted in model-parameter-vector units so
budgets compare across architectures; log-likelihood scalars are counted
separately. Whether the evaluation payload rides on the gradient exchange
is a deployment choice, so each record carries both readings (folded vs.
separate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import ceil

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .special import fold_sum

FULLY_CONNECTED = "fully-connected"
GROUP_RING = "group-ring"
GENERALIZED_BIPARTITE = "generalized-bipartite"

CROSS_GRADIENT = "cross-gradient"
TAYLOR_APPROX = "taylor-approx"


def check_topology(kind: str, K: int, k0: int = 0, degree: int = 0) -> None:
    """The rules build_topology builds under, checked without building a
    mask. group-ring's reach (K - K0)/2 must be at least 1, so that every
    client has a neighbour."""
    if K < 2:
        raise ConfigurationError("topologies need at least two clients")
    if kind == GROUP_RING:
        if not 0 <= k0 <= K - 2:
            raise ConfigurationError("group-ring needs 0 <= K0 <= K-2")
    elif kind == GENERALIZED_BIPARTITE:
        if not 1 <= degree <= K // 2:
            raise ConfigurationError("bipartite degree must be in [1, K/2]")
    elif kind != FULLY_CONNECTED:
        raise ConfigurationError(f"unknown topology kind {kind!r}")


def build_topology(kind: str, K: int, *, k0: int = 0, degree: int = 0, seed: int = 0) -> np.ndarray:
    """The topology's K x K mask: symmetric, diagonal true, at least one
    neighbour per client. group-ring links clients at cyclic index distance
    <= (K - K0)/2; generalized-bipartite randomly splits the clients in two
    halves and wires each client to ``degree`` partners on the other side
    (then symmetrizes)."""
    check_topology(kind, K, k0, degree)
    if kind == FULLY_CONNECTED:
        return np.ones((K, K), dtype=bool)
    if kind == GROUP_RING:
        reach = (K - k0) / 2.0
        idx = np.arange(K)
        dist = np.abs(idx[:, None] - idx[None, :])
        cyc = np.minimum(dist, K - dist)
        m = cyc <= reach
        np.fill_diagonal(m, True)
        return m
    rng = np.random.default_rng(seed)
    perm = rng.permutation(K)
    half = K // 2
    side_a, side_b = perm[:half], perm[half:]
    m = np.zeros((K, K), dtype=bool)
    for own, other in ((side_a, side_b), (side_b, side_a)):
        for i in own:
            partners = rng.choice(other, size=degree, replace=False)
            m[i, partners] = True
    m |= m.T
    np.fill_diagonal(m, True)
    return m


def observed_pairs(mask: np.ndarray) -> np.ndarray:
    """The mask's edges: its off-diagonal true entries, the ordered pairs of
    distinct clients that may communicate. Masked pairs carry no
    communication, so a prior's edge and membership variables are missing
    there."""
    return ~np.eye(len(mask), dtype=bool) & mask


def pair_list(mask: np.ndarray) -> np.ndarray:
    """The row-major flat indices i*K + j of a K x K mask's true entries,
    the diagonal included (pairs % (K + 1) == 0 there): the one place that
    turns a mask into pairs. A round takes its list here once, after
    pruning, and every layer of the round reads it."""
    return np.flatnonzero(mask)


def pair_matrix(K: int, pairs: np.ndarray, values) -> np.ndarray:
    """pair_list's inverse, the one place that lays a list out as a matrix:
    the K x K matrix with ``values`` at the flat indices ``pairs``, 0 elsewhere."""
    out = np.zeros(K * K)
    out[pairs] = values
    return out.reshape(K, K)


def sparsify_topk(w: np.ndarray, mask: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Prune each client's neighborhood to its ceil(keep_fraction*(K-1))
    strongest weights; the caller schedules when.

    Candidates are the currently unmasked off-diagonal entries, ties break
    toward the lower index, and re-application is a no-op, so the pruning
    is one-shot and then frozen. A row whose candidate weights have all
    underflowed to zero is a numerical event of the run, so it raises
    DivergenceError.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ConfigurationError("keep_fraction must lie in (0, 1]")
    mask = np.asarray(mask, dtype=bool)
    w = np.asarray(w, dtype=float)
    K = len(mask)
    keep = ceil(keep_fraction * (K - 1))
    cand = observed_pairs(mask)
    dead = cand.any(axis=1) & ~(cand & (w > 0)).any(axis=1)
    if dead.any():
        raise DivergenceError(f"sparsify: row {int(np.argmax(dead))} has no positive weight")
    # a stable sort of the negated weights ranks ties by index; non-candidates last
    order = np.argsort(-np.where(cand, w, -np.inf), axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[np.arange(K)[:, None], order] = np.arange(K)
    out = cand & (rank < keep)
    np.fill_diagonal(out, True)
    return out


@dataclass
class RoundTraffic:
    """Traffic of one round, in counts (models/gradients are whole vectors)
    and in vector units. The field names are the run's traffic columns and
    the keys of its totals; the zero defaults are a round that sends
    nothing."""

    models_sent: int = 0
    gradients_sent: int = 0
    scalars_sent: int = 0
    vector_units_folded: float = 0.0
    vector_units_separate: float = 0.0


@dataclass
class CommLedger:
    """Communication account for one run, one record per charged round."""

    rounds: list[RoundTraffic] = field(default_factory=list)

    def totals(self) -> dict:
        # an int start keeps the integer counts int
        return {f.name: fold_sum((getattr(r, f.name) for r in self.rounds), 0) for f in fields(RoundTraffic)}


def directed_edges(mask: np.ndarray) -> int:
    """Number of directed off-diagonal edges in a mask."""
    mask = np.asarray(mask, dtype=bool)
    return int(mask.sum() - np.trace(mask))


def account_exchange(mask: np.ndarray, grad_mode: str, sweeps: int, n_params: int) -> RoundTraffic:
    """The traffic of one EM round: ``sweeps`` gradient exchanges plus one
    log-likelihood evaluation pass over the masked directed edges, with the
    evaluation scalars counted in vectors of ``n_params`` parameters.

    cross-gradient ships the model out and the gradient back (2 vectors per
    edge per sweep); taylor-approx ships only the neighbor's own gradient
    (1 vector). The evaluation pass needs the model on the neighbor: under
    cross-gradient that payload is already in flight (folded total), under
    taylor-approx it is always an extra shipment.
    """
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    E = directed_edges(mask)
    scalars = E / n_params  # the evaluation pass's log-likelihoods, in vectors
    if grad_mode == CROSS_GRADIENT:
        exchange = 2 * sweeps * E
        return RoundTraffic(sweeps * E, sweeps * E, E, exchange + scalars, exchange + E + scalars)
    # the evaluation shipment is the only model sent, so both readings agree
    units = sweeps * E + E + scalars
    return RoundTraffic(E, sweeps * E, E, units, units)


def account_gossip(mask: np.ndarray, sweeps: int) -> RoundTraffic:
    """The traffic of a gossip-averaging round: one model per directed edge
    per sweep."""
    models = sweeps * directed_edges(mask)
    return RoundTraffic(models, 0, 0, float(models), float(models))
