"""Per-prior variational and model-parameter state.

Conventions shared by the SBM and MMSBM priors: the edge model covers
ordered client pairs (i, j) with i != j. A client always cooperates with
itself (its own-data gradient carries coefficient one in every update), so
the stored w keeps a fixed diagonal of 1 which never enters an update and
only matters for row-normalized reporting. Block matrices are clamped to
[B_EPS, 1 - B_EPS] and Dirichlet parameters floored at ALPHA_MIN because
the closed-form updates can otherwise push them onto log singularities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InvariantError

B_EPS = 1e-4
ALPHA_MIN = 1e-3
PROB_FLOOR = 1e-12

PLAIN = "plain"
ADAM = "adam"


@dataclass
class AdamSlot:
    """First/second-moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamSlot":
        return cls(np.zeros_like(x, dtype=float), np.zeros_like(x, dtype=float))


def ascent_step(
    param: np.ndarray,
    gradient: np.ndarray,
    lr: float,
    optimizer: str = PLAIN,
    slot: AdamSlot | None = None,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One ascent step on ``param`` along ``gradient``; weight decay pulls
    toward zero. Adam follows the usual bias-corrected moments."""
    g = gradient - weight_decay * param
    if optimizer == PLAIN:
        return param + lr * g
    if optimizer != ADAM:
        raise ConfigurationError(f"unknown optimizer {optimizer!r}")
    if slot is None:
        raise ConfigurationError("adam needs a moment slot")
    slot.t += 1
    slot.m = beta1 * slot.m + (1.0 - beta1) * g
    slot.v = beta2 * slot.v + (1.0 - beta2) * g * g
    mhat = slot.m / (1.0 - beta1**slot.t)
    vhat = slot.v / (1.0 - beta2**slot.t)
    return param + lr * mhat / (np.sqrt(vhat) + eps)


def clamp_block_matrix(B: np.ndarray) -> np.ndarray:
    out = np.clip(np.asarray(B, dtype=float), B_EPS, 1.0 - B_EPS)
    if np.any(out <= 0.0) or np.any(out >= 1.0):
        raise InvariantError("block matrix left (0, 1) after clamping")
    return out


def _neutral_w(K: int) -> np.ndarray:
    return np.full((K, K), 0.5)


def _jittered_simplex(rng: np.random.Generator, shape, jitter: float = 1.0) -> np.ndarray:
    """Near-uniform simplex rows with a small seeded perturbation. Exact
    uniformity is a fixed point of the membership updates, so symmetry must
    be broken at init for any block structure to emerge."""
    logits = jitter * rng.standard_normal(shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


@dataclass
class SbmState:
    """Single-membership block prior: per-client membership posteriors
    (omega rows on the simplex), Dirichlet posteriors gamma, shared
    Dirichlet prior alpha and the block affinity matrix B."""

    w: np.ndarray  # K x K in [0,1], diag fixed at 1
    gamma: np.ndarray  # K x M positive
    omega: np.ndarray  # K x M simplex rows
    alpha: np.ndarray  # M positive (shared across clients)
    B: np.ndarray  # M x M in (0,1)
    lam: float = 0.0
    tau_sigmoid: float = 1.0
    eta2: float = 0.1
    alpha_slot: AdamSlot | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.B = clamp_block_matrix(self.B)
        if np.any(self.gamma <= 0) or np.any(self.alpha <= 0):
            raise InvariantError("gamma and alpha must stay positive")
        if not np.allclose(self.omega.sum(axis=1), 1.0, atol=1e-9):
            raise InvariantError("omega rows must lie on the simplex")

    @property
    def n_clients(self) -> int:
        return len(self.w)

    @property
    def n_blocks(self) -> int:
        return len(self.alpha)


def init_sbm_state(
    K: int,
    M: int,
    seed: int | np.random.SeedSequence,
    lam: float = 0.0,
    tau_sigmoid: float = 1.0,
    eta2: float = 0.1,
    block_init: float = 0.5,
) -> SbmState:
    rng = np.random.default_rng(seed)
    omega = _jittered_simplex(rng, (K, M))
    alpha = np.ones(M)
    return SbmState(
        w=_neutral_w(K),
        gamma=omega + alpha,
        omega=omega,
        alpha=alpha,
        B=np.full((M, M), block_init),
        lam=lam,
        tau_sigmoid=tau_sigmoid,
        eta2=eta2,
        alpha_slot=AdamSlot.like(alpha),
    )


@dataclass
class AttentionState:
    """Attention prior: a two-layer encoder maps each client's model delta
    (theta - theta_0) to an embedding; inner products of embeddings define
    the row-stochastic attention p, and w is the posterior cooperation."""

    phi: np.ndarray  # flat encoder parameters
    enc_dims: tuple[int, int, int]  # (input, hidden, out), default hidden/out = (10, 5)
    w: np.ndarray  # K x K row-stochastic
    p: np.ndarray  # K x K row-stochastic
    lam: float = 0.0
    tau_softmax: float = 1.0
    eta2: float = 0.1
    phi_slot: AdamSlot | None = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        d, h, out = self.enc_dims
        want = h * d + h + out * h + out
        if self.phi.shape != (want,):
            raise ConfigurationError(
                f"encoder wants {want} parameters for dims {self.enc_dims}"
            )
        self.w = np.asarray(self.w, dtype=float)
        self.p = np.asarray(self.p, dtype=float)

    @property
    def n_clients(self) -> int:
        return len(self.w)


def init_attention_state(
    K: int,
    theta_dim: int,
    seed: int | np.random.SeedSequence,
    lam: float = 0.0,
    tau_softmax: float = 1.0,
    eta2: float = 0.1,
    enc_hidden: int = 10,
    enc_out: int = 5,
) -> AttentionState:
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((enc_hidden, theta_dim)) / np.sqrt(theta_dim)
    # modest output scale: raw embedding norms start well below 1 so the
    # self-similarity score cannot drown the likelihood evidence at small K
    W2 = 0.3 * rng.standard_normal((enc_out, enc_hidden)) / np.sqrt(enc_hidden)
    phi = np.concatenate([W1.ravel(), np.zeros(enc_hidden), W2.ravel(), np.zeros(enc_out)])
    uniform = np.full((K, K), 1.0 / K)
    return AttentionState(
        phi=phi,
        enc_dims=(theta_dim, enc_hidden, enc_out),
        w=uniform.copy(),
        p=uniform.copy(),
        lam=lam,
        tau_softmax=tau_softmax,
        eta2=eta2,
        phi_slot=AdamSlot.like(phi),
    )


@dataclass
class MmsbmState:
    """Mixed-membership block prior: every ordered pair (i, j) carries a
    sender membership phi_send[i, j] (drawn from client i's mixture) and a
    receiver membership phi_recv[i, j] (from client j's)."""

    w: np.ndarray  # K x K in [0,1], diag fixed at 1
    phi_send: np.ndarray  # K x K x M simplex rows
    phi_recv: np.ndarray  # K x K x M simplex rows
    gamma: np.ndarray  # K x M positive
    alpha: np.ndarray  # M positive
    B: np.ndarray  # M x M in (0,1)
    lam: float = 0.0
    tau_sigmoid: float = 1.0
    eta2: float = 0.1
    alpha_slot: AdamSlot | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.phi_send = np.asarray(self.phi_send, dtype=float)
        self.phi_recv = np.asarray(self.phi_recv, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.B = clamp_block_matrix(self.B)
        if np.any(self.gamma <= 0) or np.any(self.alpha <= 0):
            raise InvariantError("gamma and alpha must stay positive")
        for name, arr in (("phi_send", self.phi_send), ("phi_recv", self.phi_recv)):
            if not np.allclose(arr.sum(axis=-1), 1.0, atol=1e-9):
                raise InvariantError(f"{name} rows must lie on the simplex")

    @property
    def n_clients(self) -> int:
        return len(self.w)

    @property
    def n_blocks(self) -> int:
        return len(self.alpha)


def init_mmsbm_state(
    K: int,
    M: int,
    seed: int | np.random.SeedSequence,
    lam: float = 0.0,
    tau_sigmoid: float = 1.0,
    eta2: float = 0.1,
    block_init: float = 0.5,
) -> MmsbmState:
    rng = np.random.default_rng(seed)
    phi_send = _jittered_simplex(rng, (K, K, M))
    phi_recv = _jittered_simplex(rng, (K, K, M))
    alpha = np.ones(M)
    off = ~np.eye(K, dtype=bool)
    gamma = (
        alpha[None, :]
        + (phi_send * off[:, :, None]).sum(axis=1)
        + (phi_recv * off[:, :, None]).sum(axis=0)
    )
    return MmsbmState(
        w=_neutral_w(K),
        phi_send=phi_send,
        phi_recv=phi_recv,
        gamma=gamma,
        alpha=alpha,
        B=np.full((M, M), block_init),
        lam=lam,
        tau_sigmoid=tau_sigmoid,
        eta2=eta2,
        alpha_slot=AdamSlot.like(alpha),
    )
