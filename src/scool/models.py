"""Per-client models: flat-parameter classifiers with analytic gradients.

Two desk-scale architectures are supported, softmax regression and a
one-hidden-layer tanh MLP. Both keep their parameters in a single flat
vector so mixing, averaging and finite-difference checks stay trivial.
The cross-entropy here is always the per-sample mean; the ridge prior on
the parameters is applied by the EM updates, not inside the data loss.
A run keeps all clients in one ClientStore, the stacked layout the batched
kernel reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

SOFTMAX_REGRESSION = "softmax-regression"
MLP_1HIDDEN = "mlp-1hidden"


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor: input dim, class count, optional hidden width."""

    kind: str
    d: int
    C: int
    h: int = 0

    def __post_init__(self):
        if self.kind not in (SOFTMAX_REGRESSION, MLP_1HIDDEN):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.d < 1 or self.C < 2:
            raise ValueError("architecture needs d >= 1 and C >= 2")
        if self.kind == MLP_1HIDDEN and self.h < 1:
            raise ValueError("mlp-1hidden needs a positive hidden width")

    @property
    def n_params(self) -> int:
        if self.kind == SOFTMAX_REGRESSION:
            return self.C * self.d + self.C
        return self.h * self.d + self.h + self.C * self.h + self.C


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

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class LocalModel:
    """One client's personalized model: flat parameters plus the frozen
    snapshot of the parameters it started from."""

    theta: np.ndarray
    arch: ArchSpec
    init_theta: np.ndarray = field(default=None)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.arch.n_params,):
            raise ValueError(
                f"theta has {self.theta.size} entries, arch wants {self.arch.n_params}"
            )
        if self.init_theta is None:
            self.init_theta = self.theta.copy()
        else:
            self.init_theta = np.asarray(self.init_theta, dtype=float).copy()
        self.init_theta.setflags(write=False)

    def copy(self) -> "LocalModel":
        return LocalModel(self.theta.copy(), self.arch, self.init_theta)


class DataStack(Sequence):
    """The datasets of K clients as one stack: features K x n x d and labels
    K x n, so all share n and d. Item k is client k's Dataset, a view of
    row k."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, class_sets, split: str = "train"):
        self.features, self.labels = features, labels
        self.class_sets, self.split = list(class_sets), split

    @classmethod
    def of(cls, datasets: Sequence[Dataset]) -> "DataStack":
        """Stack K datasets of one size and feature width."""
        if any(ds.features.shape != datasets[0].features.shape for ds in datasets):
            raise ConfigurationError("datasets must share their size and feature width")
        return cls(np.stack([ds.features for ds in datasets]), np.stack([ds.labels for ds in datasets]),
                   [ds.class_set for ds in datasets], datasets[0].split)

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, k: int) -> Dataset:
        return Dataset(self.features[k], self.labels[k], self.class_sets[k], self.split)


class ClientStore(Sequence):
    """All K clients of a run, stacked once. ``theta`` (K x D) is the one
    copy of the parameters: the kernels read it and update it in place.
    ``init_theta`` (K x D) is read-only; ``train`` and ``test`` are
    DataStacks of K datasets, or None. Item i is client i's LocalModel: its
    theta and init_theta are views of row i, and assigning its theta writes
    into that row."""

    def __init__(self, models: Sequence[LocalModel], train: DataStack | None = None, test: DataStack | None = None):
        self.arch = models[0].arch
        if any(m.arch != self.arch for m in models):
            raise ConfigurationError("all clients must share one architecture")
        for data in (train, test):
            if data is not None and len(data) != len(models):
                raise ConfigurationError(f"need one {data.split} set per model")
            if data is not None and data.features.shape[2] != self.arch.d:
                raise ConfigurationError(f"{data.split} features are not {self.arch.d}-dimensional as the models need")
        self.theta = np.stack([m.theta for m in models])
        self.init_theta = np.stack([m.init_theta for m in models])
        self.init_theta.setflags(write=False)
        self.train, self.test = train, test
        self._models = [_StoredModel(self, i) for i in range(len(models))]

    def __len__(self) -> int:
        return len(self._models)

    def __getitem__(self, i: int) -> LocalModel:
        return self._models[i]


class _StoredModel(LocalModel):
    """Client i of a ClientStore, reading and writing row i of its arrays."""

    def __init__(self, store: ClientStore, i: int):
        self.arch, self.init_theta, self._store, self._i = store.arch, store.init_theta[i], store, i

    @property
    def theta(self) -> np.ndarray:
        return self._store.theta[self._i]

    @theta.setter
    def theta(self, value) -> None:
        self._store.theta[self._i] = value


def _check_data(model: LocalModel, data: Dataset) -> None:
    if data.features.shape[1] != model.arch.d:
        raise ValueError(
            f"feature dim {data.features.shape[1]} does not match arch d={model.arch.d}"
        )


def _unpack_linear(theta: np.ndarray, arch: ArchSpec):
    """Views of W and b; a leading pair axis of a stacked theta is kept."""
    lead = theta.shape[:-1]
    W = theta[..., : arch.C * arch.d].reshape(lead + (arch.C, arch.d))
    b = theta[..., arch.C * arch.d :]
    return W, b


def _unpack_mlp(theta: np.ndarray, arch: ArchSpec):
    h, d, C = arch.h, arch.d, arch.C
    lead = theta.shape[:-1]
    o = 0
    W1 = theta[..., o : o + h * d].reshape(lead + (h, d))
    o += h * d
    b1 = theta[..., o : o + h]
    o += h
    W2 = theta[..., o : o + C * h].reshape(lead + (C, h))
    o += C * h
    b2 = theta[..., o : o + C]
    return W1, b1, W2, b2


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
    """Mean cross-entropy over the samples.

    ``weight_decay`` > 0 adds the ridge term wd/2 * ||theta||^2 for callers
    that want the regularized objective; the EM loop never passes it (the
    prior enters its gradient updates directly).
    """
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
    """Mean log-probability of the labels under the model: -loss(model, data).

    Per-sample averaging keeps this comparable across clients with
    different dataset sizes; magnitude is the temperature's job.
    """
    return -loss(model, data, 0.0)


# Batched kernel. Pair e evaluates parameters thetas[e] (E x D) on the
# features[e] (E x n x d) and labels[e] (E x n) of one dataset. Every slice
# keeps the matmul shapes, transposes and reduction order of grad,
# log_likelihood and accuracy, so each output row equals the per-pair
# function bit for bit; those stay as the reference the kernel is tested
# against.


def _batch_forward(thetas: np.ndarray, features: np.ndarray, arch: ArchSpec):
    """Logits E x n x C, plus the hidden activations for the MLP."""
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = _unpack_linear(thetas, arch)
        return _affine(features, W, b), None
    W1, b1, W2, b2 = _unpack_mlp(thetas, arch)
    A = np.tanh(_affine(features, W1, b1))
    return _affine(A, W2, b2), A


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W^T + b per pair with the bias added in place. W^T stays a view, as
    in the per-pair functions: a contiguous copy changes the last bits."""
    out = X @ W.swapaxes(1, 2)
    out += b[:, None, :]
    return out


def pairs_per_block(budget: int, n: int, arch: ArchSpec) -> int:
    """How many pairs of n samples one batched call may hold within
    ``budget`` activation elements (pairs x n x max(h, C)); at least one."""
    return max(1, budget // (n * max(arch.h, arch.C)))


def _label_index(labels: np.ndarray):
    E, n = labels.shape
    return np.arange(E)[:, None], np.arange(n)[None, :], labels


def batch_log_likelihood(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """log_likelihood of every pair: E mean label log-probabilities."""
    lsm = _log_softmax(_batch_forward(thetas, features, arch)[0])
    return np.mean(lsm[_label_index(labels)], axis=1)


def batch_grad(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """grad of every pair: E x D mean cross-entropy gradients."""
    E, n = labels.shape
    Z, A = _batch_forward(thetas, features, arch)
    P = np.exp(_log_softmax(Z))
    P[_label_index(labels)] -= 1.0
    P /= n
    if A is None:
        gW = P.swapaxes(1, 2) @ features
        return np.concatenate([gW.reshape(E, arch.C * arch.d), P.sum(axis=1)], axis=1)
    _, _, W2, _ = _unpack_mlp(thetas, arch)
    dA = P @ W2
    dZ1 = dA * (1.0 - A * A)
    gW1 = dZ1.swapaxes(1, 2) @ features
    gW2 = P.swapaxes(1, 2) @ A
    return np.concatenate(
        [
            gW1.reshape(E, arch.h * arch.d),
            dZ1.sum(axis=1),
            gW2.reshape(E, arch.C * arch.h),
            P.sum(axis=1),
        ],
        axis=1,
    )


def batch_accuracy(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """accuracy of every pair: E fractions of argmax-correct predictions."""
    preds = np.argmax(_batch_forward(thetas, features, arch)[0], axis=2)
    return np.mean(preds == labels, axis=1)


def accuracy(model: LocalModel, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    _check_data(model, data)
    preds = np.argmax(logits(model, data.features), axis=1)
    return float(np.mean(preds == data.labels))
