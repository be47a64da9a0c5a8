"""Shared fixtures: random-state factories, finite-difference helpers, the
plain per-pair oracle of the batched kernel, the loop oracles of the gamma
lift and the snapshot writer, the dense mmsbm oracle and the calibrated
recovery benchmark used by the slower end-to-end tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scool import special
from scool.config import ExperimentConfig
from scool.em import sbm
from scool.em.common import block_ratio, expected_log_pi
from scool.em.elbo import _dirichlet_term
from scool.em.state import (
    AdamSlot,
    AttentionState,
    MmsbmState,
    SbmState,
    clamp_block_matrix,
)
from scool.errors import ConfigurationError
from scool.models import (
    SOFTMAX_REGRESSION,
    ArchSpec,
    ClientStore,
    Dataset,
    DataStack,
    _unpack_linear,
    _unpack_mlp,
)
from scool.special import sigmoid_tempered, softmax_tempered, xlogx
from scool.tasks import TaskUniverse, check_assignment
from scool.topology import observed_pairs


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


def random_sbm_state(rng: np.random.Generator, K: int, M: int) -> SbmState:
    return SbmState(
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
        w=state.w, gamma=state.gamma, omega=state.omega, alpha=state.alpha,
        B=state.B, lam=state.lam, tau_sigmoid=state.tau_sigmoid,
    )
    base.update(overrides)
    return SbmState(**base)


def update_omega_row(state: SbmState, i: int, mask: np.ndarray) -> np.ndarray:
    """Coordinate-ascent oracle: the membership update of a single client,
    all other rows held fixed."""
    return softmax_tempered(sbm.omega_scores(state, mask)[i], 1.0)


def random_mmsbm_state(rng: np.random.Generator, K: int, M: int) -> MmsbmState:
    return MmsbmState(
        w=rng.uniform(0.05, 0.95, (K, K)),
        phi_send=interior_simplex(rng, (K, K, M)),
        phi_recv=interior_simplex(rng, (K, K, M)),
        gamma=rng.uniform(0.5, 3.0, (K, M)),
        alpha=rng.uniform(0.5, 2.0, M),
        B=rng.uniform(0.25, 0.75, (M, M)),
        lam=0.0,
        tau_sigmoid=1.0,
        alpha_slot=AdamSlot.like(np.zeros(M)),
    )


def clone_mmsbm(state: MmsbmState, **overrides) -> MmsbmState:
    base = dict(
        w=state.w, phi_send=state.phi_send, phi_recv=state.phi_recv,
        gamma=state.gamma, alpha=state.alpha, B=state.B, lam=state.lam,
        tau_sigmoid=state.tau_sigmoid,
    )
    base.update(overrides)
    return MmsbmState(**base)


# ------------------------------------------------------ per-pair oracle
# One model on one dataset, written plainly: the reference that every row of
# the batched kernel in scool.models is checked against (tests/test_kernel.py)
# and that the finite-difference and Monte Carlo tests check in turn
# (tests/test_models.py). A run never holds a LocalModel; it holds the K x D
# stack of a ClientStore.


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


def model_list(models) -> list[LocalModel]:
    """Separate copies of the clients of a store (or of a list of models),
    for a per-pair reference to update one at a time."""
    return [LocalModel(m.theta.copy(), m.arch, m.init_theta) for m in models]


def _check_data(model: LocalModel, data: Dataset) -> None:
    if data.features.shape[1] != model.arch.d:
        raise ValueError(
            f"feature dim {data.features.shape[1]} does not match arch d={model.arch.d}"
        )


def logits(model: LocalModel, X: np.ndarray) -> np.ndarray:
    """Raw class scores, N x C."""
    arch = model.arch
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = _unpack_linear(model.theta, arch)
        return X @ W.T + b
    W1, b1, W2, b2 = _unpack_mlp(model.theta, arch)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def loss(model: LocalModel, data: Dataset, weight_decay: float = 0.0) -> float:
    """Mean cross-entropy over the samples; ``weight_decay`` > 0 adds the
    ridge term wd/2 * ||theta||^2."""
    _check_data(model, data)
    lsm = _log_softmax(logits(model, data.features))
    ce = -float(np.mean(lsm[np.arange(data.n), data.labels]))
    if weight_decay > 0.0:
        ce += 0.5 * weight_decay * float(model.theta @ model.theta)
    return ce


def grad(model: LocalModel, data: Dataset) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy w.r.t. the flat theta."""
    _check_data(model, data)
    arch = model.arch
    X = data.features
    n = data.n
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = _unpack_linear(model.theta, arch)
        Z = X @ W.T + b
        P = np.exp(_log_softmax(Z))
        P[np.arange(n), data.labels] -= 1.0
        P /= n
        return np.concatenate([(P.T @ X).ravel(), P.sum(axis=0)])
    W1, b1, W2, b2 = _unpack_mlp(model.theta, arch)
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
                     [ds.class_set for ds in datasets], datasets[0].split)


def client_store(models, train_sets=None) -> ClientStore:
    """The store the kernels run on, built from a list of models (or another
    store) and a list of train sets: it starts at the models' init_theta and
    holds their current theta. The lists themselves are left as they are."""
    store = ClientStore(np.stack([m.init_theta for m in models]), models[0].arch,
                        None if train_sets is None else stack_datasets(train_sets))
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
    pass's gradient buffer (np.nonzero(mask) order); 0 off the mask."""
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


# ------------------------------------------------------ snapshot text oracle


def write_matrix_oracle(path, matrix) -> None:
    """The snapshot writer before it took each distinct value's repr once:
    repr of every entry, a row of Python floats at a time. The oracle of
    runner._write_matrix's bytes."""
    lines = [",".join(map(repr, row.tolist())) for row in np.asarray(matrix, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------ dense mmsbm oracle
# The mixed-membership blocks and lower bound written densely over all K x K
# pairs: the plain reference that the observed-pair-list code in
# scool.em.mmsbm and elbo_mmsbm is checked against (tests/test_mmsbm.py).


def _dense_park_unobserved(state: MmsbmState, phi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    phi[~observed_pairs(mask)] = 1.0 / state.n_blocks
    return phi


def dense_update_w(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    B = clamp_block_matrix(state.B)
    odds = np.log(B) - np.log1p(-B)
    score = loglik + np.einsum("ijg,gh,ijh->ij", state.phi_send, odds, state.phi_recv)
    return np.where(mask, sigmoid_tempered(score, state.tau_sigmoid), 0.0)


def dense_update_gamma(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    obs = observed_pairs(mask)[:, :, None]
    send_sum = (state.phi_send * obs).sum(axis=1)
    recv_sum = (state.phi_recv * obs).sum(axis=0)
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
    scores = _dense_pair_scores(state, state.phi_recv, transpose_B=False)
    scores = scores + expected_log_pi(state.gamma)[:, None, :]
    return _dense_park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def dense_update_phi_recv(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    scores = _dense_pair_scores(state, state.phi_send, transpose_B=True)
    scores = scores + expected_log_pi(state.gamma)[None, :, :]
    return _dense_park_unobserved(state, softmax_tempered(scores, 1.0, axis=-1), mask)


def dense_update_block_matrix(state: MmsbmState, mask: np.ndarray) -> np.ndarray:
    off = observed_pairs(mask).astype(float)
    num = np.einsum("ij,ijg,ijh->gh", state.w * off, state.phi_send, state.phi_recv)
    den = np.einsum("ij,ijg,ijh->gh", off, state.phi_send, state.phi_recv)
    return block_ratio(num, den)


def dense_elbo_mmsbm(state: MmsbmState, loglik: np.ndarray, mask: np.ndarray) -> dict[str, float]:
    """The per-term lower bound (without the model prior) as ElboBreakdown.terms()."""
    obs = observed_pairs(mask)
    B = clamp_block_matrix(state.B)
    pos = np.einsum("ijg,gh,ijh->ij", state.phi_send, np.log(B), state.phi_recv)
    neg = np.einsum("ijg,gh,ijh->ij", state.phi_send, np.log1p(-B), state.phi_recv)
    elp = expected_log_pi(state.gamma)
    send_scores = np.einsum("ijg,ig->ij", state.phi_send, elp)
    recv_scores = np.einsum("ijg,jg->ij", state.phi_recv, elp)
    w = state.w
    return {
        "likelihood": float(np.trace(loglik) + (w * loglik)[obs].sum()),
        "model_prior": 0.0,
        "edge": float((w * pos + (1.0 - w) * neg)[obs].sum()),
        "membership": float(send_scores[obs].sum() + recv_scores[obs].sum()),
        "dirichlet": _dirichlet_term(state.gamma, state.alpha),
        "entropy_membership": -float(xlogx(state.phi_send)[obs].sum() + xlogx(state.phi_recv)[obs].sum()),
        "entropy_w": -float((xlogx(w) + xlogx(1.0 - w))[obs].sum()),
    }


def random_attention_setup(rng: np.random.Generator, K: int, d: int = 3):
    """A store of models with distinct accumulated updates plus a small
    random encoder."""
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
        p=np.full((K, K), 1.0 / K),
        lam=0.0,
        tau_softmax=1.0,
        phi_slot=AdamSlot.like(phi),
    )
    return client_store(models), state


def clone_attention(state: AttentionState, **overrides) -> AttentionState:
    base = dict(
        phi=state.phi, enc_dims=state.enc_dims, w=state.w, p=state.p,
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
