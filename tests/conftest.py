"""Shared fixtures: random-state factories, finite-difference helpers, the
plain per-pair oracle of the batched kernel, the loop oracles of the gamma
lift and the snapshot writer, the old forms of the special functions, the
call-per-argument oracles of the block priors' bookkeeping, the dense sbm,
mmsbm and attention oracles, the whole-round oracle and the calibrated
recovery benchmark used by the slower end-to-end tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scool import special
from scool.config import ExperimentConfig
from scool.em import sbm
from scool.em.common import block_ratio, update_alpha
from scool.em.elbo import _dirichlet_term
from scool.em.state import (
    PROB_FLOOR,
    AdamSlot,
    AttentionState,
    MmsbmState,
    SbmState,
    ascent_step,
    clamp_block_matrix,
    expected_log_pi,
)
from scool.errors import ConfigurationError, DivergenceError
from scool.models import SOFTMAX_REGRESSION, ArchSpec, ClientStore, DataStack
from scool.special import sigmoid_tempered, softmax_tempered, xlogx
from scool.tasks import TaskUniverse, check_assignment
from scool.topology import TAYLOR_APPROX, account_exchange, account_gossip, observed_pairs, pair_list, sparsify_topk


# ---------------------------------------------------------------- numerics


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def simplex_kkt_spread(grads) -> float:
    """KKT residual of a simplex-constrained block: the Lagrangian gradient
    components must be equal across coordinates."""
    g = np.asarray(grads, dtype=float)
    return float(np.max(np.abs(g - g.mean())))


def full_mask(K: int) -> np.ndarray:
    """The mask of a fully-connected topology: every pair may communicate."""
    return np.ones((K, K), dtype=bool)


def observed_list(mask: np.ndarray) -> np.ndarray:
    """The mask's observed pairs as a round hands them to the E-step and the
    lower bound: its pair list (topology.pair_list) without the diagonal."""
    pairs = pair_list(mask)
    return pairs[pairs % (len(mask) + 1) != 0]


def round_lists(mask: np.ndarray, loglik: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What run_round hands the E-step and the lower bound for a K x K
    ``loglik``: its values at the mask's pair list, the list, and the list's
    diagonal mask."""
    pairs = pair_list(mask)
    return np.take(loglik, pairs), pairs, pairs % (len(mask) + 1) == 0


def own_and_cross(state, loglik: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block prior's update_w arguments for a K x K ``loglik``: the clients'
    own log-likelihoods and the cross-client ones at state.pairs."""
    return np.diagonal(loglik), np.take(loglik, state.pairs)


def attention_lists(state, loglik: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """attention.update_w's arguments for a K x K ``loglik``: its values at
    state.pairs and that list's diagonal mask."""
    return np.take(loglik, state.pairs), state.pairs % (len(state.w) + 1) == 0


def random_symmetric_mask(rng, K, keep=0.6):
    """A mask whose off-diagonal pairs are kept with probability ``keep``,
    both directions of a pair together, redrawn until every client has a
    neighbour as in a topology."""
    while True:
        upper = np.triu(rng.random((K, K)) < keep, 1)
        mask = upper | upper.T
        if mask.any(axis=1).all():
            return mask | np.eye(K, dtype=bool)


# ------------------------------------------------------- random VI states
# Entries are kept comfortably inside the open domains so that central
# differences of the lower bound stay well-conditioned.


def interior_simplex(rng: np.random.Generator, shape) -> np.ndarray:
    raw = 0.9 * rng.dirichlet(2.0 * np.ones(shape[-1]), size=shape[:-1]) + 0.1 / shape[-1]
    return raw


def random_loglik(rng: np.random.Generator, K: int) -> np.ndarray:
    return rng.uniform(-1.5, 0.0, (K, K))


def random_sbm_state(rng: np.random.Generator, K: int, M: int, mask: np.ndarray | None = None) -> SbmState:
    """A state on the observed pairs of ``mask`` (the full mask by default)."""
    return SbmState(
        pairs=observed_list(full_mask(K) if mask is None else mask),
        w=rng.uniform(0.05, 0.95, (K, K)),
        gamma=rng.uniform(0.5, 3.0, (K, M)),
        omega=interior_simplex(rng, (K, M)),
        alpha=rng.uniform(0.5, 2.0, M),
        B=rng.uniform(0.25, 0.75, (M, M)),
        lam=0.0,
        tau_sigmoid=1.0,
        alpha_slot=AdamSlot.like(np.zeros(M)),
    )


def clone_sbm(state: SbmState, **overrides) -> SbmState:
    base = dict(
        pairs=state.pairs, w=state.w, gamma=state.gamma, omega=state.omega, alpha=state.alpha,
        B=state.B, lam=state.lam, tau_sigmoid=state.tau_sigmoid,
    )
    base.update(overrides)
    return SbmState(**base)


def update_omega_row(state: SbmState, i: int) -> np.ndarray:
    """Coordinate-ascent oracle: the membership update of a single client,
    all other rows held fixed."""
    return softmax_tempered(sbm.omega_scores(state)[i], 1.0)


def random_mmsbm_state(rng: np.random.Generator, K: int, M: int, mask: np.ndarray | None = None) -> MmsbmState:
    """A state on the observed pairs of ``mask`` (the full mask by default):
    memberships drawn for all K x K pairs, as init_state draws them, and
    kept at the observed ones."""
    pairs = np.flatnonzero(observed_pairs(full_mask(K) if mask is None else mask))
    return MmsbmState(
        w=rng.uniform(0.05, 0.95, (K, K)),
        pairs=pairs,
        phi_send=interior_simplex(rng, (K, K, M)).reshape(K * K, M)[pairs],
        phi_recv=interior_simplex(rng, (K, K, M)).reshape(K * K, M)[pairs],
        gamma=rng.uniform(0.5, 3.0, (K, M)),
        alpha=rng.uniform(0.5, 2.0, M),
        B=rng.uniform(0.25, 0.75, (M, M)),
        lam=0.0,
        tau_sigmoid=1.0,
        alpha_slot=AdamSlot.like(np.zeros(M)),
    )


def clone_mmsbm(state: MmsbmState, **overrides) -> MmsbmState:
    base = dict(
        w=state.w, pairs=state.pairs, phi_send=state.phi_send, phi_recv=state.phi_recv,
        gamma=state.gamma, alpha=state.alpha, B=state.B, lam=state.lam,
        tau_sigmoid=state.tau_sigmoid,
    )
    base.update(overrides)
    return MmsbmState(**base)


# ------------------------------------------------------ per-pair oracle
# One model on one dataset, written plainly: the reference that every row of
# the batched kernel in scool.models is checked against (tests/test_kernel.py)
# and that the finite-difference and Monte Carlo tests check in turn
# (tests/test_models.py). A run never holds a LocalModel or a Dataset; it
# holds the K x D stack of a ClientStore and the K x n x d DataStacks. The
# oracle reads the flat parameters through its own unpack_linear and
# unpack_mlp, not the kernel's unpack_layers, so a slip in the layout cannot
# hide in both. It reads a dataset's features and labels only, so a row of a
# DataStack serves as well as a Dataset.


@dataclass
class Dataset:
    """Labeled feature matrix for one client.

    Labels are local indices into ``class_set`` (sorted global class ids),
    so clients with identical class sets share a label space.
    """

    features: np.ndarray
    labels: np.ndarray
    class_set: tuple[int, ...]
    split: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be N x d with one label per row")
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one sample")
        self.class_set = tuple(sorted(int(c) for c in self.class_set))
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_set):
            raise ValueError("labels must index into class_set")


@dataclass
class LocalModel:
    """One client's flat parameters plus the frozen snapshot of the
    parameters it started from."""

    theta: np.ndarray
    arch: ArchSpec
    init_theta: np.ndarray = field(default=None)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.init_theta is None:
            self.init_theta = self.theta.copy()
        else:
            self.init_theta = np.asarray(self.init_theta, dtype=float).copy()
        self.init_theta.setflags(write=False)


def _arch(models) -> ArchSpec:
    """The architecture of a store's models, or of a list of models."""
    return models.arch if isinstance(models, ClientStore) else models[0].arch


def model_list(models) -> list[LocalModel]:
    """Separate copies of the clients of a store (or of a list of models),
    for a per-pair reference to update one at a time."""
    return [LocalModel(m.theta.copy(), _arch(models), m.init_theta) for m in models]


def unpack_linear(theta: np.ndarray, arch: ArchSpec):
    """The oracle's own layout of softmax regression, written out apart from
    the kernel's unpack_layers: views of W (C x d) and b."""
    W = theta[..., : arch.C * arch.d].reshape(theta.shape[:-1] + (arch.C, arch.d))
    return W, theta[..., arch.C * arch.d :]


def unpack_mlp(theta: np.ndarray, d: int, h: int, out: int):
    """The oracle's own layout of a two-layer network (the MLP models and
    the attention encoder): views of W1 (h x d), b1, W2 (out x h) and b2,
    flattened in that order."""
    lead = theta.shape[:-1]
    o = 0
    W1 = theta[..., o : o + h * d].reshape(lead + (h, d))
    o += h * d
    b1 = theta[..., o : o + h]
    o += h
    W2 = theta[..., o : o + out * h].reshape(lead + (out, h))
    o += out * h
    b2 = theta[..., o : o + out]
    return W1, b1, W2, b2


def _check_data(model: LocalModel, data: Dataset) -> None:
    if data.features.shape[1] != model.arch.d:
        raise ValueError(
            f"feature dim {data.features.shape[1]} does not match arch d={model.arch.d}"
        )


def logits(model: LocalModel, X: np.ndarray) -> np.ndarray:
    """Raw class scores, N x C."""
    arch = model.arch
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = unpack_linear(model.theta, arch)
        return X @ W.T + b
    W1, b1, W2, b2 = unpack_mlp(model.theta, arch.d, arch.h, arch.C)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def loss(model: LocalModel, data: Dataset, weight_decay: float = 0.0) -> float:
    """Mean cross-entropy over the samples; ``weight_decay`` > 0 adds the
    ridge term wd/2 * ||theta||^2."""
    _check_data(model, data)
    lsm = _log_softmax(logits(model, data.features))
    ce = -float(np.mean(lsm[np.arange(len(data.labels)), data.labels]))
    if weight_decay > 0.0:
        ce += 0.5 * weight_decay * float(model.theta @ model.theta)
    return ce


def grad(model: LocalModel, data: Dataset) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy w.r.t. the flat theta."""
    _check_data(model, data)
    arch = model.arch
    X = data.features
    n = len(data.labels)
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = unpack_linear(model.theta, arch)
        Z = X @ W.T + b
        P = np.exp(_log_softmax(Z))
        P[np.arange(n), data.labels] -= 1.0
        P /= n
        return np.concatenate([(P.T @ X).ravel(), P.sum(axis=0)])
    W1, b1, W2, b2 = unpack_mlp(model.theta, arch.d, arch.h, arch.C)
    A = np.tanh(X @ W1.T + b1)
    Z = A @ W2.T + b2
    P = np.exp(_log_softmax(Z))
    P[np.arange(n), data.labels] -= 1.0
    P /= n
    dA = P @ W2
    dZ1 = dA * (1.0 - A * A)
    return np.concatenate(
        [(dZ1.T @ X).ravel(), dZ1.sum(axis=0), (P.T @ A).ravel(), P.sum(axis=0)]
    )


def log_likelihood(model: LocalModel, data: Dataset) -> float:
    """Mean log-probability of the labels under the model: -loss(model, data)."""
    return -loss(model, data, 0.0)


def accuracy(model: LocalModel, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    _check_data(model, data)
    preds = np.argmax(logits(model, data.features), axis=1)
    return float(np.mean(preds == data.labels))


def stack_datasets(datasets) -> DataStack:
    """Stack K datasets of one size and feature width."""
    if any(ds.features.shape != datasets[0].features.shape for ds in datasets):
        raise ConfigurationError("datasets must share their size and feature width")
    return DataStack(np.stack([ds.features for ds in datasets]), np.stack([ds.labels for ds in datasets]),
                     datasets[0].split)


def client_store(models, train_sets=None) -> ClientStore:
    """The store the kernels run on, built from a list of models (or another
    store) and a list of train sets: it starts at the models' init_theta and
    holds their current theta. The lists themselves are left as they are."""
    if train_sets is not None and not isinstance(train_sets, DataStack):
        train_sets = stack_datasets(train_sets)
    store = ClientStore(np.stack([m.init_theta for m in models]), _arch(models), train_sets)
    store.theta[:] = np.stack([m.theta for m in models])
    return store


def fold_loop(delta, rows, g) -> np.ndarray:
    """delta[rows[e]] += g[e] one pair at a time, left to right, on a copy:
    the oracle of theta._fold's bits."""
    out = np.array(delta, dtype=float)
    for i, term in zip(rows, g):
        out[i] += term
    return out


def pair_index_map(mask) -> np.ndarray:
    """The K x K map from an allowed pair (i, j) to its row in the loglik
    pass's gradient buffer, whose order topology.pair_list(mask) alone sets
    (row-major, as np.nonzero(mask)); 0 off the mask."""
    index = np.zeros(mask.shape, dtype=np.intp)
    index[mask] = np.arange(np.count_nonzero(mask))
    return index


# ------------------------------------------------------------ gamma lift


def lift_loop(x, name: str, step):
    """special._lift as a loop of whole-array passes, each doing acc -= step
    and z += 1 on the entries still below _SHIFT: the oracle of the shift
    axis's bits."""
    arr = np.array(x, dtype=float)
    special._validate_positive(arr, name)
    z = np.atleast_1d(arr).copy()
    acc = np.zeros_like(z)
    for _ in range(int(special._SHIFT)):
        low = z < special._SHIFT
        if not low.any():
            break
        acc -= step(z, low)
        z += low
    return z, acc, arr.ndim == 0


# ------------------------------------------------- special-function forms
# sigmoid_tempered, digamma and log_gamma as they were written before the
# sigmoid dropped its boolean gathers and the series their fresh arrays:
# the oracles of the rewritten forms' bits.


def sigmoid_tempered_gather(x, tau: float):
    z = np.asarray(x, dtype=float) / tau
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def digamma_alloc(x):
    z, acc, scalar = special._lift(x, "digamma", lambda z, low: np.where(low, 1.0 / z, 0.0))
    inv = 1.0 / z
    inv2 = inv * inv
    tail = np.zeros_like(z)
    for c in reversed(special._PSI_COEFFS):
        tail = tail * inv2 + c
    tail *= inv2
    out = np.log(z) - 0.5 * inv - tail + acc
    return float(out[0]) if scalar else out


def log_gamma_alloc(x):
    z, acc, scalar = special._lift(x, "log_gamma", lambda z, low: np.log(np.where(low, z, 1.0)))
    inv = 1.0 / z
    inv2 = inv * inv
    tail = np.zeros_like(z)
    for c in reversed(special._LGAMMA_COEFFS):
        tail = tail * inv2 + c
    tail *= inv
    out = (z - 0.5) * np.log(z) - z + special._HALF_LOG_2PI + tail + acc
    return float(out[0]) if scalar else out


# ------------------------------------------------ bookkeeping reductions
# The block priors' Dirichlet and bound bookkeeping as it was written before
# each update made one whole-array call: one special-function call per
# argument, the ridge as a loop of per-row dots, the likelihood term through
# the K x K product, xlogx by a boolean gather and scatter, and one bincount
# per membership column. The oracles of the rewritten forms' bits.


def expected_log_pi_calls(gamma: np.ndarray) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    return special.digamma(g) - special.digamma(g.sum(axis=1))[:, None]


def alpha_gradient_calls(gamma: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    K = len(gamma)
    elp = expected_log_pi_calls(gamma)
    return elp.sum(axis=0) - K * special.digamma(alpha) + K * special.digamma(float(alpha.sum()))


def dirichlet_term_calls(gamma: np.ndarray, alpha: np.ndarray, elp: np.ndarray) -> float:
    log_gamma, K = special.log_gamma, len(gamma)
    prior = (
        float(((alpha - 1.0)[None, :] * elp).sum())
        - K * float(log_gamma(alpha).sum())
        + K * float(log_gamma(alpha.sum()))
    )
    post_entropy = (
        -float(((gamma - 1.0) * elp).sum())
        + float(log_gamma(gamma).sum())
        - float(log_gamma(gamma.sum(axis=1)).sum())
    )
    return prior + post_entropy


def model_prior_rows(models, lam: float) -> float:
    if models is None or lam == 0.0:
        return 0.0
    return -0.5 * lam * special.fold_sum((float(theta @ theta) for theta in models.theta), 0.0)


def likelihood_term_dense(w: np.ndarray, loglik: np.ndarray, pairs: np.ndarray) -> float:
    """The likelihood term from the full K x K w."""
    return float(np.trace(loglik) + np.take(w * loglik, pairs).sum())


def xlogx_gather(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    nz = p > 0.0
    out[nz] = p[nz] * np.log(p[nz])
    return out


def mmsbm_update_gamma_columns(state: MmsbmState) -> np.ndarray:
    K, M, pairs = state.n_clients, state.n_blocks, state.pairs
    send_sum = np.stack([np.bincount(pairs // K, state.phi_send[:, g], K) for g in range(M)], axis=1)
    recv_sum = np.stack([np.bincount(pairs % K, state.phi_recv[:, g], K) for g in range(M)], axis=1)
    return state.alpha[None, :] + send_sum + recv_sum


# ------------------------------------------------------ snapshot text oracle


def write_matrix_oracle(path, matrix) -> None:
    """The snapshot writer before it took each distinct value's repr once:
    repr of every entry, a row of Python floats at a time. The oracle of
    runner._write_matrix's bytes."""
    lines = [",".join(map(repr, row.tolist())) for row in np.asarray(matrix, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------- dense sbm oracle
# The single-membership blocks and lower bound written densely over all
# K x K pairs from the mask, the edge posterior's sigmoid run on every entry:
# the plain reference that the pair-list code in scool.em.sbm and elbo_sbm
# must equal bit for bit (tests/test_sbm.py).


def _dense_sbm_logs(state: SbmState) -> tuple[np.ndarray, np.ndarray]:
    return np.log(state.B), np.log1p(-state.B)


def dense_sbm_update_w(state: SbmState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    logB, log1mB = _dense_sbm_logs(state)
    score = loglik + state.omega @ (logB - log1mB) @ state.omega.T
    return np.where(mask, sigmoid_tempered(score, state.tau_sigmoid), 0.0)


def dense_sbm_omega_scores(state: SbmState, mask: np.ndarray) -> np.ndarray:
    logB, log1mB = _dense_sbm_logs(state)
    off = observed_pairs(mask).astype(float)
    w_pos, w_neg = state.w * off, (1.0 - state.w) * off
    return (
        w_pos @ (state.omega @ logB.T)
        + w_pos.T @ (state.omega @ logB)
        + w_neg @ (state.omega @ log1mB.T)
        + w_neg.T @ (state.omega @ log1mB)
        + expected_log_pi(state.gamma)
    )


def dense_sbm_update_omega(state: SbmState, mask: np.ndarray) -> np.ndarray:
    return softmax_tempered(dense_sbm_omega_scores(state, mask), 1.0, axis=-1)


def dense_sbm_update_block_matrix(state: SbmState, mask: np.ndarray) -> np.ndarray:
    off = observed_pairs(mask).astype(float)
    return block_ratio(state.omega.T @ (state.w * off) @ state.omega, state.omega.T @ off @ state.omega)


def dense_elbo_sbm(state: SbmState, loglik: np.ndarray, mask: np.ndarray) -> dict[str, float]:
    """The per-term lower bound (without the model prior) as ElboBreakdown.terms()."""
    obs, w = observed_pairs(mask), state.w
    logB, log1mB = _dense_sbm_logs(state)
    pos = state.omega @ logB @ state.omega.T
    neg = state.omega @ log1mB @ state.omega.T
    elp = expected_log_pi(state.gamma)
    return {
        "likelihood": float(np.trace(loglik) + (w * loglik)[obs].sum()),
        "model_prior": 0.0,
        "edge": float((w * pos + (1.0 - w) * neg)[obs].sum()),
        "membership": float((state.omega * elp).sum()),
        "dirichlet": _dirichlet_term(state.gamma, state.alpha, elp),
        "entropy_membership": -float(xlogx(state.omega).sum()),
        "entropy_w": -float((xlogx(w) + xlogx(1.0 - w))[obs].sum()),
    }


# ------------------------------------------------------ dense mmsbm oracle
# The mixed-membership blocks and lower bound written densely over all K x K
# pairs, with every pair off the state's list held at 1/M: the plain
# reference that the observed-pair-list code in scool.em.mmsbm and
# elbo_mmsbm is checked against (tests/test_mmsbm.py).


def dense_pairs(state: MmsbmState, phi: np.ndarray) -> np.ndarray:
    """E x M pair memberships scattered to K x K x M, 1/M at every pair
    off the state's list (the diagonal included)."""
    K, M = state.n_clients, state.n_blocks
    dense = np.full((K * K, M), 1.0 / M)
    dense[state.pairs] = phi
    return dense.reshape(K, K, M)


def _dense_memberships(state: MmsbmState) -> tuple[np.ndarray, np.ndarray]:
    return dense_pairs(state, state.phi_send), dense_pairs(state, state.phi_recv)


def _dense_park_unobserved(state: MmsbmState, phi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    phi[~observed_pairs(mask)] = 1.0 / state.n_blocks
    return phi


def dense_update_w(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    B = clamp_block_matrix(state.B)
    odds = np.log(B) - np.log1p(-B)
    send, recv = _dense_memberships(state)
    score = loglik + np.einsum("ijg,gh,ijh->ij", send, odds, recv)
    return np.where(mask, sigmoid_tempered(score, state.tau_sigmoid), 0.0)


def dense_update_gamma(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    obs = observed_pairs(mask)[:, :, None]
    send, recv = _dense_memberships(state)
    send_sum = (send * obs).sum(axis=1)
    recv_sum = (recv * obs).sum(axis=0)
    return state.alpha[None, :] + send_sum + recv_sum


def _dense_pair_scores(state: MmsbmState, counterpart: np.ndarray, transpose_B: bool) -> np.ndarray:
    B = clamp_block_matrix(state.B)
    logB, log1mB = np.log(B), np.log1p(-B)
    if transpose_B:
        logB, log1mB = logB.T, log1mB.T
    pos = counterpart @ logB.T  # [i, j, k] = sum_h counterpart[i,j,h] logB[k,h]
    neg = counterpart @ log1mB.T
    w = state.w[:, :, None]
    return w * pos + (1.0 - w) * neg


def dense_update_phi_send(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    scores = _dense_pair_scores(state, _dense_memberships(state)[1], transpose_B=False)
    scores = scores + expected_log_pi(state.gamma)[:, None, :]
    return _dense_park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def dense_update_phi_recv(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    scores = _dense_pair_scores(state, _dense_memberships(state)[0], transpose_B=True)
    scores = scores + expected_log_pi(state.gamma)[None, :, :]
    return _dense_park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def dense_update_block_matrix(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    off = observed_pairs(mask).astype(float)
    send, recv = _dense_memberships(state)
    num = np.einsum("ij,ijg,ijh->gh", state.w * off, send, recv)
    den = np.einsum("ij,ijg,ijh->gh", off, send, recv)
    return block_ratio(num, den)


def dense_elbo_mmsbm(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray) -> dict[str, float]:
    """The per-term lower bound (without the model prior) as ElboBreakdown.terms()."""
    obs = observed_pairs(mask)
    B = clamp_block_matrix(state.B)
    send, recv = _dense_memberships(state)
    pos = np.einsum("ijg,gh,ijh->ij", send, np.log(B), recv)
    neg = np.einsum("ijg,gh,ijh->ij", send, np.log1p(-B), recv)
    elp = expected_log_pi(state.gamma)
    send_scores = np.einsum("ijg,ig->ij", send, elp)
    recv_scores = np.einsum("ijg,jg->ij", recv, elp)
    w = state.w
    return {
        "likelihood": float(np.trace(loglik) + (w * loglik)[obs].sum()),
        "model_prior": 0.0,
        "edge": float((w * pos + (1.0 - w) * neg)[obs].sum()),
        "membership": float(send_scores[obs].sum() + recv_scores[obs].sum()),
        "dirichlet": _dirichlet_term(state.gamma, state.alpha, elp),
        "entropy_membership": -float(xlogx(send)[obs].sum() + xlogx(recv)[obs].sum()),
        "entropy_w": -float((xlogx(w) + xlogx(1.0 - w))[obs].sum()),
    }


# --------------------------------------------------- dense attention oracle
# The attention prior written densely over the K x K mask, a row or a client
# at a time, through the oracle's own unpack_mlp: the model deltas' encoder,
# p, w, the coupling terms, the encoder gradient and the lower bound. The
# whole-round oracle reads only these, never scool.em.attention.


def _dense_attention_encode(state: AttentionState, deltas: np.ndarray):
    """The encoder's hidden layer H and the embeddings E of the K x D model deltas."""
    W1, b1, W2, b2 = unpack_mlp(state.phi, *state.enc_dims)
    H = np.tanh(deltas @ W1.T + b1)
    return H, H @ W2.T + b2


def model_deltas(models) -> np.ndarray:
    """theta - init_theta of every client of a list of models, K x D."""
    return np.stack([m.theta - m.init_theta for m in models])


def dense_attention_masked_row_softmax(scores: np.ndarray, tau: float, mask: np.ndarray) -> np.ndarray:
    """Each row's softmax of scores / tau over its allowed entries, zero elsewhere."""
    out = np.zeros_like(scores)
    for i, allowed in enumerate(mask):
        z = scores[i, allowed] / tau
        e = np.exp(z - z.max())
        out[i, allowed] = e / e.sum()
    return out


def dense_attention_compute_p(state: AttentionState, deltas: np.ndarray, mask: np.ndarray) -> np.ndarray:
    E = _dense_attention_encode(state, deltas)[1]
    return dense_attention_masked_row_softmax(E @ E.T, state.tau_softmax, mask)


def dense_attention_p(state: AttentionState) -> np.ndarray:
    """state.p, one value per entry of state.pairs, laid out as K x K by
    hand, 0 off the list."""
    p = np.zeros(state.w.size)
    p[state.pairs] = state.p
    return p.reshape(state.w.shape)


def dense_attention_update_w(state: AttentionState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of the cross-client log-likelihood (0 on the diagonal) plus log p."""
    logits = np.array(loglik, dtype=float)
    np.fill_diagonal(logits, 0.0)
    return dense_attention_masked_row_softmax(
        logits + np.log(np.maximum(dense_attention_p(state), PROB_FLOOR)), state.tau_softmax, mask
    )


def _dense_attention_residual(state: AttentionState, deltas: np.ndarray, mask: np.ndarray):
    """H, E and C, the derivative of sum_j w_ij log p_ij in the score
    <e_i, e_j>: (w_ij - p_ij) / tau at each allowed pair, p taken at these
    deltas, 0 elsewhere."""
    H, E = _dense_attention_encode(state, deltas)
    p = dense_attention_masked_row_softmax(E @ E.T, state.tau_softmax, mask)
    C = np.zeros_like(p)
    for i, j in zip(*np.nonzero(mask)):
        C[i, j] = (state.w[i, j] - p[i, j]) / state.tau_softmax
    return H, E, C


def dense_attention_coupling_terms(state: AttentionState, deltas: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row i: -grad over theta_i of sum_j w_ij log p_ij through client i's
    own embedding only, which enters the self score <e_i, e_i> twice."""
    W1, _, W2, _ = unpack_mlp(state.phi, *state.enc_dims)
    H, E, C = _dense_attention_residual(state, deltas, mask)
    out = np.zeros_like(deltas)
    for i in range(len(deltas)):
        dE = C[i] @ E + C[i, i] * E[i]
        out[i] = -(W1.T @ ((W2.T @ dE) * (1.0 - H[i] * H[i])))
    return out


def dense_attention_phi_gradient(state: AttentionState, deltas: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij w_ij log p_ij over the encoder, summed client by
    client: e_k enters row k's scores and column k's."""
    W1, b1, W2, b2 = unpack_mlp(state.phi, *state.enc_dims)
    H, E, C = _dense_attention_residual(state, deltas, mask)
    dW1, db1, dW2, db2 = (np.zeros_like(a) for a in (W1, b1, W2, b2))
    for k in range(len(deltas)):
        dE = C[k] @ E + C[:, k] @ E
        dZ = (W2.T @ dE) * (1.0 - H[k] * H[k])
        dW2 += np.outer(dE, H[k])
        db2 += dE
        dW1 += np.outer(dZ, deltas[k])
        db1 += dZ
    return np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def dense_attention_update_phi(state: AttentionState, deltas: np.ndarray, mask: np.ndarray, config) -> np.ndarray:
    g = dense_attention_phi_gradient(state, deltas, mask)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("encoder gradient is non-finite")
    return ascent_step(state.phi, g, state.phi_slot, config)


def dense_elbo_attention(state: AttentionState, loglik: np.ndarray, mask: np.ndarray) -> dict[str, float]:
    """The per-term lower bound (without the model prior) as ElboBreakdown.terms()."""
    obs, w = observed_pairs(mask), state.w
    return {
        "likelihood": float(np.trace(loglik) + (w * loglik)[obs].sum()),
        "model_prior": 0.0,
        "edge": float((w * np.log(np.maximum(dense_attention_p(state), PROB_FLOOR))).sum()),
        "membership": 0.0,
        "dirichlet": 0.0,
        "entropy_membership": 0.0,
        "entropy_w": -float(xlogx(w).sum()),
    }


# --------------------------------------------------- whole-round oracle
# The per-pair bodies of rounds.loglik_matrix, theta.cooperative_sgd_steps
# and dirac.dpsgd_step (tests/test_kernel.py checks each against its kernel)
# and one whole rounds.run_round written plainly from them: the per-pair
# oracle for the likelihoods and every gradient (step 0 included, so no
# stored gradient), row folds left to right, gossip as a dense product, the
# dense sbm, mmsbm and attention oracles above, the lower bound written
# densely over the mask, and the mask's observed pairs taken anew wherever
# a step reads them.


def reference_loglik_matrix(models, train_sets, mask):
    K = len(models)
    out = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            if mask[i, j]:
                out[i, j] = log_likelihood(models[i], train_sets[j])
    return out


def reference_cooperative_sgd_steps(
    models, train_sets, w, lam, eta1, steps, grad_mode, mask, coupling_fn=None
):
    K = len(models)
    w = np.asarray(w, dtype=float)
    for step in range(steps):
        own = [grad(models[i], train_sets[i]) for i in range(K)]
        coupling = coupling_fn(models) if coupling_fn is not None else None
        updates = []
        for i in range(K):
            delta = own[i] + lam * models[i].theta
            for j in range(K):
                if j == i or not mask[i, j] or w[i, j] == 0.0:
                    continue
                g = own[j] if grad_mode == TAYLOR_APPROX else grad(models[i], train_sets[j])
                delta = delta + w[i, j] * g
            if coupling is not None:
                delta = delta + coupling[i]
            if not np.all(np.isfinite(delta)):
                raise DivergenceError(f"client {i} produced a non-finite update at local step {step}")
            updates.append(delta)
        for i in range(K):
            new = models[i].theta - eta1 * updates[i]
            if not np.all(np.isfinite(new)):
                raise DivergenceError(f"client {i} parameters left the finite range at local step {step}")
            models[i].theta = new


def reference_dpsgd_step(models, w, train_sets, eta1, step=0):
    K = len(models)
    thetas = np.stack([m.theta for m in models])
    grads = np.stack([grad(models[i], train_sets[i]) for i in range(K)])
    new = w @ thetas - eta1 * grads
    for i in range(K):
        if not np.all(np.isfinite(grads[i])):
            raise DivergenceError(f"client {i} produced a non-finite update at local step {step}")
    for i in range(K):
        if not np.all(np.isfinite(new[i])):
            raise DivergenceError(f"client {i} parameters left the finite range at local step {step}")
    for i in range(K):
        models[i].theta = new[i]


def _mmsbm_e_step(state: MmsbmState, loglik, mask) -> None:
    """The dense updates, the memberships kept at the mask's observed pairs."""
    K, M = state.n_clients, state.n_blocks
    pairs = np.flatnonzero(observed_pairs(mask))
    send, recv = dense_pairs(state, state.phi_send), dense_pairs(state, state.phi_recv)
    state.pairs, state.phi_send, state.phi_recv = pairs, send.reshape(K * K, M)[pairs], recv.reshape(K * K, M)[pairs]
    state.w = dense_update_w(state, loglik, mask)
    state.gamma = dense_update_gamma(state, mask)
    send, recv = dense_update_phi_send(state, mask), dense_update_phi_recv(state, mask)
    state.phi_send, state.phi_recv = send.reshape(K * K, M)[pairs], recv.reshape(K * K, M)[pairs]


def reference_elbo(state, loglik: np.ndarray, mask: np.ndarray, thetas: np.ndarray, kind: str) -> float:
    """The lower bound's total, each term summed densely over the mask's observed pairs."""
    dense_elbo = {"sbm": dense_elbo_sbm, "mmsbm": dense_elbo_mmsbm, "attention": dense_elbo_attention}[kind]
    model_prior = -0.5 * state.lam * float(np.sum(thetas * thetas))
    return sum({**dense_elbo(state, loglik, mask), "model_prior": model_prior}.values())


def reference_graph(state, K: int, kind: str) -> np.ndarray:
    """The reporting view: the block priors' w row-normalized (a zero row stays zero), the others' w as it is."""
    if state is None:
        return np.eye(K)
    if kind not in ("sbm", "mmsbm"):
        return np.array(state.w)
    sums = state.w.sum(axis=1, keepdims=True)
    return np.divide(state.w, sums, out=np.zeros_like(state.w), where=sums > 0)


def reference_round(state, models, train_sets, mask, round_index, config):
    """One rounds.run_round of config.prior_kind on a list of LocalModels, a
    list of Datasets and the prior's state, each updated in place as
    run_round updates its own, the mask pruned in place when scheduled.
    Returns (graph, elbo_total, traffic) as run_round does."""
    kind, K = config.prior_kind, len(models)
    n_params = len(models[0].theta)
    if kind == "local-only":
        reference_cooperative_sgd_steps(
            models, train_sets, np.eye(K), config.weight_decay, config.eta1, config.local_steps,
            config.grad_mode, mask,
        )
        return np.eye(K), None, None
    if kind == "dirac":
        for step in range(config.local_steps):
            reference_dpsgd_step(models, state.w, train_sets, config.eta1, step)
        return np.array(state.w), None, account_gossip(mask, config.local_steps)
    if config.sparsify_keep_fraction < 1.0 and config.sparsify_round == round_index:
        mask[...] = sparsify_topk(state.w, mask, config.sparsify_keep_fraction)
    loglik = reference_loglik_matrix(models, train_sets, mask)
    if kind == "sbm":
        state.w = dense_sbm_update_w(state, loglik, mask)
        state.gamma = state.omega + state.alpha[None, :]
        state.omega = dense_sbm_update_omega(state, mask)
    elif kind == "mmsbm":
        _mmsbm_e_step(state, loglik, mask)
    else:
        state.pairs = pair_list(mask)  # the attention is held listed, as the prior holds it
        state.p = np.take(dense_attention_compute_p(state, model_deltas(models), mask), state.pairs)
        state.w = dense_attention_update_w(state, loglik, mask)
    elbo_total = reference_elbo(state, loglik, mask, np.stack([m.theta for m in models]), kind)
    coupling = None
    if kind == "attention":
        coupling = lambda ms: dense_attention_coupling_terms(state, model_deltas(ms), mask)
    reference_cooperative_sgd_steps(
        models, train_sets, state.w, config.weight_decay, config.eta1, config.local_steps,
        config.grad_mode, mask, coupling,
    )
    if kind == "attention":
        state.phi = dense_attention_update_phi(state, model_deltas(models), mask, config)
    else:
        state.alpha = update_alpha(state, config)
        dense_block_matrix = dense_sbm_update_block_matrix if kind == "sbm" else dense_update_block_matrix
        state.B = dense_block_matrix(state, mask)
    traffic = account_exchange(mask, config.grad_mode, config.local_steps, n_params)
    return reference_graph(state, K, kind), elbo_total, traffic


def random_attention_setup(rng: np.random.Generator, K: int, d: int = 3):
    """A store of models with distinct accumulated updates plus a small
    random encoder, its pair list the full mask's."""
    arch = ArchSpec("softmax-regression", d=d, C=2)
    base = 0.01 * rng.standard_normal(arch.n_params)
    models = []
    for _ in range(K):
        m = LocalModel(base.copy(), arch)
        m.theta = m.theta + 0.4 * rng.standard_normal(arch.n_params)
        models.append(m)
    hidden, out = 6, 4
    W1 = rng.standard_normal((hidden, arch.n_params)) / np.sqrt(arch.n_params)
    W2 = 0.5 * rng.standard_normal((out, hidden)) / np.sqrt(hidden)
    phi = np.concatenate([W1.ravel(), np.zeros(hidden), W2.ravel(), np.zeros(out)])
    state = AttentionState(
        phi=phi,
        enc_dims=(arch.n_params, hidden, out),
        w=np.full((K, K), 1.0 / K),
        p=np.full(K * K, 1.0 / K),
        pairs=pair_list(full_mask(K)),
        lam=0.0,
        tau_softmax=1.0,
        phi_slot=AdamSlot.like(phi),
    )
    return client_store(models), state


def clone_attention(state: AttentionState, **overrides) -> AttentionState:
    base = dict(
        phi=state.phi, enc_dims=state.enc_dims, w=state.w, p=state.p, pairs=state.pairs,
        lam=state.lam, tau_softmax=state.tau_softmax,
    )
    base.update(overrides)
    return AttentionState(**base)


def tiny_dataset(rng: np.random.Generator, n: int, d: int, C: int) -> Dataset:
    X = rng.standard_normal((n, d))
    y = rng.integers(0, C, n)
    return Dataset(X, y, tuple(range(C)))


def sample_class_data(
    universe: TaskUniverse, class_set, n_train: int, n_test: int, seed
) -> tuple[Dataset, Dataset]:
    """One client's train and test sets, drawn as gen_tasks draws a row of
    its stacks but written out on their own, as the oracle of those rows.
    One generator from ``seed`` draws the train set, then the test set. A
    set is balanced over the sorted class set, the remainder going to the
    first classes, labelled by local index and then shuffled."""
    class_set = tuple(sorted(int(c) for c in class_set))
    check_assignment(1, len(universe.means), len(class_set), n_train, n_test)
    rng = np.random.default_rng(seed)
    out = []
    for n, split in ((n_train, "train"), (n_test, "test")):
        counts = [n // len(class_set) + (local < n % len(class_set)) for local in range(len(class_set))]
        X = np.concatenate([
            universe.means[cls] + universe.sigma * rng.standard_normal((count, universe.dim))
            for cls, count in zip(class_set, counts)
        ])
        y = np.repeat(np.arange(len(class_set)), counts)
        order = rng.permutation(n)
        out.append(Dataset(X[order], y[order], class_set, split=split))
    return tuple(out)


# ------------------------------------------------------------- benchmark
# Desk-scale recovery benchmark: 3 groups of 4 clients over 6 classes whose
# label axes conflict across groups, 30 rounds of 2 local steps, and the
# top-3 neighborhood pruning after round 10.


def benchmark_config(prior_kind: str, seed: int, grad_mode: str = "cross-gradient") -> ExperimentConfig:
    kw = dict(
        prior_kind=prior_kind,
        seed=seed,
        rounds=30,
        local_steps=2,
        task_setting="noniid-sbm",
        K=12,
        M=6,
        N=2,
        num_groups=3,
        samples_per_client=8,
        test_samples_per_client=400,
        feature_dim=8,
        noise_sigma=0.7,
        class_separation=2.2,
        mean_placement="antipodal-pairs",
        eta1=0.25,
        eta2=0.1,
        weight_decay=1e-4,
        grad_mode=grad_mode,
        num_memberships=3,
        sparsify_keep_fraction=0.27,
        sparsify_round=10,
        snapshot_every=0,
    )
    if prior_kind == "sbm":
        kw.update(tau_sigmoid=1.4, block_init=0.1)
    elif prior_kind == "attention":
        kw.update(tau_softmax=1.0, eta2=0.02)
    elif prior_kind == "dirac":
        kw.update(sparsify_keep_fraction=1.0)  # uniform fully-connected baseline
    return ExperimentConfig(**kw).validate()


BENCHMARK_SEEDS = (0, 1, 2)
