"""Communication topology, top-k sparsification and traffic accounting.

Masks are K x K booleans with an always-true diagonal: a client talks to
itself for free. The ledger counts traffic in model-parameter-vector
units so budgets compare across architectures; log-likelihood scalars are
counted separately. Whether the evaluation payload rides on the gradient
exchange is a deployment choice, so the ledger reports both readings
(folded vs. separate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .errors import ConfigurationError, DivergenceError

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
    cand = mask & ~np.eye(K, dtype=bool)
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
    """Traffic of one round, in counts (models/gradients are whole vectors)."""

    round_index: int
    models_sent: int
    gradients_sent: int
    scalars_sent: int
    vector_units_folded: float
    vector_units_separate: float


@dataclass
class CommLedger:
    """Communication account for one run, one record per charged round."""

    model_dim: int
    rounds: list[RoundTraffic] = field(default_factory=list)

    def totals(self) -> dict:
        # folded left to right in Python: sum() compensates float sums from
        # Python 3.12 on, which would move the last bits of the vector units
        out = {}
        for name in ("models_sent", "gradients_sent", "scalars_sent",
                     "vector_units_folded", "vector_units_separate"):
            total = 0
            for r in self.rounds:
                total += getattr(r, name)
            out[name] = total
        return out


def directed_edges(mask: np.ndarray) -> int:
    """Number of directed off-diagonal edges in a mask."""
    mask = np.asarray(mask, dtype=bool)
    return int(mask.sum() - np.trace(mask))


def account_exchange(
    ledger: CommLedger,
    mask: np.ndarray,
    grad_mode: str,
    round_index: int,
    sweeps: int = 1,
) -> RoundTraffic:
    """Charge one EM round: ``sweeps`` gradient exchanges plus one
    log-likelihood evaluation pass over the masked directed edges.

    cross-gradient ships the model out and the gradient back (2 vectors per
    edge per sweep); taylor-approx ships only the neighbor's own gradient
    (1 vector). The evaluation pass needs the model on the neighbor: under
    cross-gradient that payload is already in flight (folded total), under
    taylor-approx it is always an extra shipment.
    """
    if grad_mode not in (CROSS_GRADIENT, TAYLOR_APPROX):
        raise ConfigurationError(f"unknown grad_mode {grad_mode!r}")
    E = directed_edges(mask)
    if grad_mode == CROSS_GRADIENT:
        models = sweeps * E
        gradients = sweeps * E
        folded = float(2 * sweeps * E)
        separate = float(2 * sweeps * E + E)
    else:
        models = E  # evaluation shipment only
        gradients = sweeps * E
        folded = float(sweeps * E + E)
        separate = folded
    scalars = E
    separate += 0.0 if ledger.model_dim == 0 else scalars / ledger.model_dim
    folded += 0.0 if ledger.model_dim == 0 else scalars / ledger.model_dim
    rec = RoundTraffic(round_index, models, gradients, scalars, folded, separate)
    ledger.rounds.append(rec)
    return rec


def account_gossip(
    ledger: CommLedger, mask: np.ndarray, round_index: int, sweeps: int = 1
) -> RoundTraffic:
    """Charge a gossip-averaging round: one model per directed edge per sweep."""
    models = sweeps * directed_edges(mask)
    rec = RoundTraffic(round_index, models, 0, 0, float(models), float(models))
    ledger.rounds.append(rec)
    return rec
