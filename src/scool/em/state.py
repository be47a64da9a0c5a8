"""Per-prior variational and model-parameter state.

The SBM and MMSBM priors are one block model, ``BlockState``; their states
add only how memberships are held. Its edge model covers the observed
ordered client pairs, (i, j) with i != j that the topology's boolean mask
allows, which ``BlockState.pairs`` holds in the row-major order that
``scool.topology.pair_list`` alone sets: ``common.block_start`` takes them
from the mask, each E-step from the round's list (``AttentionState.pairs``
is that list with its diagonal, set the same two ways). Masked pairs are
missing data, with w at 0. A client always cooperates with itself (its
own-data gradient carries coefficient one in every update), so the diagonal
of w never enters an update and only matters for row-normalized reporting.
B is clamped to [B_EPS, 1 - B_EPS] where it is written (at construction and
by ``common.block_ratio``) and Dirichlet parameters are floored at
ALPHA_MIN, because the closed-form updates can otherwise push them onto log
singularities.

A learned prior's state holds its variational and prior parameters plus the
two settings its E-step and lower bound read: the ridge lam on theta and the
temperature. Each prior's ``init_state`` copies those from the run's config
(the block priors through ``common.block_start``); the M-step reads every
other setting from the config itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InvariantError
from ..models import layout_size
from ..special import digamma, fold_last

B_EPS = 1e-4
ALPHA_MIN = 1e-3
PROB_FLOOR = 1e-12

PLAIN = "plain"
ADAM = "adam"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass
class AdamSlot:
    """First/second-moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamSlot":
        return cls(np.zeros_like(x, dtype=float), np.zeros_like(x, dtype=float))


def ascent_step(param: np.ndarray, gradient: np.ndarray, slot: AdamSlot | None, config) -> np.ndarray:
    """One ascent step of size ``config.eta2`` on ``param`` along
    ``gradient`` under ``config.optimizer``; ``config.optimizer_weight_decay``
    pulls toward zero. Adam follows the usual bias-corrected moments."""
    g = gradient - config.optimizer_weight_decay * param
    if config.optimizer == PLAIN:
        return param + config.eta2 * g
    if config.optimizer != ADAM:
        raise ConfigurationError(f"unknown optimizer {config.optimizer!r}")
    if slot is None:
        raise ConfigurationError("adam needs a moment slot")
    slot.t += 1
    slot.m = BETA1 * slot.m + (1.0 - BETA1) * g
    slot.v = BETA2 * slot.v + (1.0 - BETA2) * g * g
    mhat = slot.m / (1.0 - BETA1**slot.t)
    vhat = slot.v / (1.0 - BETA2**slot.t)
    return param + config.eta2 * mhat / (np.sqrt(vhat) + EPS)


def clamp_block_matrix(B: np.ndarray) -> np.ndarray:
    """B clamped to [B_EPS, 1 - B_EPS]; np.clip passes a NaN through, so a
    non-finite entry is a broken invariant."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise InvariantError("block matrix has a non-finite entry")
    return np.clip(B, B_EPS, 1.0 - B_EPS)


def jittered_simplex(normals: np.ndarray) -> np.ndarray:
    """Near-uniform simplex rows from seeded standard normals, a softmax over
    the last axis with its maximum and sum folded by special.fold_last.
    Exact uniformity is a fixed point of the membership updates, so symmetry
    must be broken at init for any block structure to emerge."""
    e = np.exp(normals - fold_last(np.maximum, normals)[..., None])
    e /= fold_last(np.add, e)[..., None]
    return e


@dataclass
class DiracState:
    """Fixed mixing weights: the degenerate prior that recovers plain
    decentralized SGD. Requires a symmetric row-stochastic w."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        K = len(self.w)
        if not np.allclose(self.w, self.w.T, atol=1e-12):
            raise ConfigurationError("dirac mixing weights must be symmetric")
        if not np.allclose(self.w.sum(axis=1), np.ones(K), atol=1e-9):
            raise ConfigurationError("dirac mixing weights must be row-stochastic")
        if np.any(self.w < -1e-12):
            raise ConfigurationError("dirac mixing weights must be nonnegative")


def expected_log_pi(gamma: np.ndarray) -> np.ndarray:
    """E[log pi] under a Dirichlet posterior: psi(gamma) - psi(sum gamma),
    row-wise, from one digamma call on gamma's entries and row sums."""
    g = np.asarray(gamma, dtype=float)
    psi = digamma(np.concatenate((g.ravel(), g.sum(axis=1))))
    return psi[: g.size].reshape(g.shape) - psi[g.size :, None]


@dataclass(kw_only=True)
class BlockState:
    """The block model both block priors share: the observed pairs, the
    edge posterior w, per-client Dirichlet posteriors gamma under the shared
    prior alpha, and the block affinity matrix B. The subclasses add only
    how memberships are held.

    ``elp``, E[log pi] = expected_log_pi(gamma), is derived from gamma here
    and nowhere else: the membership update, the lower bound and the alpha
    step all read it, so a round takes it once. Assigning gamma stores a
    read-only copy and drops elp, which the next read takes anew; elp is
    read-only too, so the two cannot disagree."""

    pairs: np.ndarray  # E flat indices i*K + j of the observed pairs, in topology.pair_list's order
    w: np.ndarray  # K x K in [0, 1], 0 on masked pairs
    gamma: np.ndarray  # K x M positive, read-only
    alpha: np.ndarray  # M positive (shared across clients)
    B: np.ndarray  # M x M in [B_EPS, 1 - B_EPS]
    lam: float  # config.weight_decay, the lower bound's ridge on theta
    tau_sigmoid: float  # the edge posterior's temperature
    alpha_slot: AdamSlot | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.B = clamp_block_matrix(self.B)
        if np.any(self.gamma <= 0) or np.any(self.alpha <= 0):
            raise InvariantError("gamma and alpha must stay positive")

    def __setattr__(self, name, value):
        if name == "gamma":
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, "_elp", None)
        object.__setattr__(self, name, value)

    def __setstate__(self, fields):
        # copy.deepcopy and pickle restore a state here: its gamma goes
        # through __setattr__, so the copy's is read-only and elp is taken anew
        for name, value in fields.items():
            if name != "_elp":
                setattr(self, name, value)

    @property
    def elp(self) -> np.ndarray:
        if self._elp is None:
            elp = expected_log_pi(self.gamma)
            elp.flags.writeable = False
            self._elp = elp
        return self._elp

    @property
    def n_clients(self) -> int:
        return len(self.w)

    @property
    def n_blocks(self) -> int:
        return len(self.alpha)


@dataclass(kw_only=True)
class SbmState(BlockState):
    """Single-membership block prior: one membership posterior per client."""

    omega: np.ndarray  # K x M simplex rows

    def __post_init__(self):
        super().__post_init__()
        self.omega = np.asarray(self.omega, dtype=float)
        if not np.allclose(self.omega.sum(axis=1), 1.0, atol=1e-9):
            raise InvariantError("omega rows must lie on the simplex")


@dataclass
class AttentionState:
    """Attention prior: a two-layer encoder maps each client's model delta
    (theta - theta_0) to an embedding; inner products of embeddings define
    the row-stochastic attention p over ``pairs``, and w is the posterior
    cooperation. phi holds the encoder in the models' flat layout for the
    layer widths ``enc_dims``, so its length is ``models.layout_size(enc_dims)``."""

    phi: np.ndarray  # flat encoder parameters
    enc_dims: tuple[int, int, int]  # (input, hidden, out)
    w: np.ndarray  # K x K row-stochastic, 0 off pairs
    p: np.ndarray  # K x K row-stochastic, 0 off pairs
    pairs: np.ndarray  # flat indices i*K + j of topology.pair_list, the diagonal included
    lam: float  # config.weight_decay, the lower bound's ridge on theta
    tau_softmax: float  # temperature of the attention and of w
    phi_slot: AdamSlot | None = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        want = layout_size(self.enc_dims)
        if self.phi.shape != (want,):
            raise ConfigurationError(f"encoder wants {want} parameters for dims {self.enc_dims}")
        self.w = np.asarray(self.w, dtype=float)
        self.p = np.asarray(self.p, dtype=float)


@dataclass(kw_only=True)
class MmsbmState(BlockState):
    """Mixed-membership block prior: every observed ordered pair (i, j)
    carries a sender membership (drawn from client i's mixture) and a
    receiver membership (from client j's), one row per entry of ``pairs``."""

    phi_send: np.ndarray  # E x M simplex rows
    phi_recv: np.ndarray  # E x M simplex rows

    def __post_init__(self):
        super().__post_init__()
        self.phi_send = np.asarray(self.phi_send, dtype=float)
        self.phi_recv = np.asarray(self.phi_recv, dtype=float)
        for name, arr in (("phi_send", self.phi_send), ("phi_recv", self.phi_recv)):
            if arr.shape != (len(self.pairs), self.n_blocks):
                raise InvariantError(f"{name} must hold one row of {self.n_blocks} per observed pair")
            # np.allclose(sums, 1.0, atol=1e-9): a NaN or infinite sum fails
            if not np.all(np.abs(fold_last(np.add, arr) - 1.0) <= 1e-9 + 1e-5):
                raise InvariantError(f"{name} rows must lie on the simplex")
