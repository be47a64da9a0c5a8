"""Per-client models: flat-parameter classifiers with analytic gradients.

Two desk-scale architectures are supported, softmax regression and a
one-hidden-layer tanh MLP. Both keep their parameters in a single flat
vector so mixing, averaging and finite-difference checks stay trivial.
The cross-entropy here is always the per-sample mean; the ridge prior on
the parameters is applied by the EM updates, not inside the data loss.
A run holds its models in one way only: the K x D parameter stack of a
ClientStore, which the batched kernel below reads and updates. The plain
per-pair functions (one model on one dataset) that the kernel is checked
against live in tests/conftest.py as its oracle; the store's per-client row
views remain only for the benchmark's round-1 cross-check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
            raise ConfigurationError(f"unknown architecture kind {self.kind!r}")
        if self.d < 1 or self.C < 2:
            raise ConfigurationError("architecture needs d >= 1 and C >= 2")
        if self.kind == MLP_1HIDDEN and self.h < 1:
            raise ConfigurationError("mlp-1hidden needs a positive hidden width")

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


class DataStack(Sequence):
    """The datasets of K clients as one stack: features K x n x d and labels
    K x n, so all share n and d. Item k is client k's Dataset, a view of
    row k."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, class_sets, split: str = "train"):
        self.features, self.labels = features, labels
        self.class_sets, self.split = list(class_sets), split

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, k: int) -> Dataset:
        return Dataset(self.features[k], self.labels[k], self.class_sets[k], self.split)


class ClientStore(Sequence):
    """All K clients of a run, stacked once. ``theta`` (K x D, C-ordered) is
    the one copy of the parameters: the kernels read it and update it in
    place. ``init_theta`` is a read-only copy of the stack the run started
    from; ``train`` and ``test`` are DataStacks of K datasets, or None."""

    def __init__(self, theta: np.ndarray, arch: ArchSpec, train: DataStack | None = None, test: DataStack | None = None):
        # C order: an F-ordered stack moves the last bits of dirac's w @ theta
        self.theta = np.array(theta, dtype=float, order="C")
        if self.theta.ndim != 2 or self.theta.shape[1] != arch.n_params:
            raise ValueError(f"theta is {self.theta.shape}, arch wants K x {arch.n_params}")
        for data in (train, test):
            if data is not None and len(data) != len(self.theta):
                raise ConfigurationError(f"need one {data.split} set per model")
            if data is not None and data.features.shape[2] != arch.d:
                raise ConfigurationError(f"{data.split} features are not {arch.d}-dimensional as the models need")
        self.arch, self.train, self.test = arch, train, test
        self.init_theta = self.theta.copy()
        self.init_theta.setflags(write=False)

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, i: int) -> "_StoredModel":
        return _StoredModel(self, i)  # init_theta[i] raises the IndexError that ends iteration


class _StoredModel:
    """Client i of a ClientStore: ``theta`` and ``init_theta`` are views of
    row i, and assigning ``theta`` writes into the row. Only the benchmark's
    round-1 cross-check still reads clients one at a time."""

    def __init__(self, store: ClientStore, i: int):
        self.arch, self.init_theta, self._store, self._i = store.arch, store.init_theta[i], store, i

    @property
    def theta(self) -> np.ndarray:
        return self._store.theta[self._i]

    @theta.setter
    def theta(self, value) -> None:
        self._store.theta[self._i] = value


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


# Batched kernel. Pair e evaluates parameters thetas[e] (E x D) on the
# features[e] (E x n x d) and labels[e] (E x n) of one dataset. Every slice
# keeps the dot products and reduction order of the per-pair grad,
# log_likelihood and accuracy, so each output row equals what those return
# on one model and one dataset; tests/conftest.py keeps them as the kernel's
# oracle.
#
# The class axis C is short (2 in every benchmark workload), and numpy runs
# an operation along a short innermost axis as a C-element loop per (pair,
# sample). So no operation here runs along it: the output bias, the
# log-softmax, the label pick and the argmax fold over the C class slices
# left to right, each slice a whole E x n operation, and batch_grad keeps
# its probabilities sample-major. The hidden layer's bias (width h) stays
# one broadcast add. numpy's add-reduce of fewer than 8 elements is the same
# left-to-right fold, so the rows are bit for bit the per-pair ones for
# C <= 7; from C = 8 numpy sums the log-softmax's exponentials pairwise and
# the two differ in the last bits.
#
# The output layer's gemm is one BLAS call per pair. Sample-major, X @ W^T
# (n x d by d x C) is a tall product with a narrow output; class-major,
# W @ X^T (C x d by d x n) gives the same dot products as C contiguous rows
# of n, which BLAS fills faster and the class folds read whole. Both keep
# the per-pair bits as long as W^T or X^T stays a strided view: a contiguous
# copy of W^T (an NN gemm) is faster still but moves the last bits at some
# widths (h = 16, n = 1). Only batch_accuracy is class-major, as the
# reporting pass over every client's 400 test samples; at the 8 train
# samples per pair of batch_log_likelihood and batch_grad, class-major
# measured slower, so they stay sample-major.
#
# batch_value_and_grad is the one forward pass behind batch_log_likelihood
# and batch_grad. The loglik matrix under cross-gradient takes both halves
# at once: local step 0 needs grad(theta_i; D_j) on the same pairs at the
# same parameters, so it reads them from that pass instead of a second one.


def _batch_forward(thetas: np.ndarray, features: np.ndarray, arch: ArchSpec):
    """Logits E x n x C, plus the hidden activations for the MLP."""
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = _unpack_linear(thetas, arch)
        return _output_affine(features, W, b), None
    W1, b1, W2, b2 = _unpack_mlp(thetas, arch)
    A = np.tanh(_affine(features, W1, b1))
    return _output_affine(A, W2, b2), A


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W^T + b per pair with the bias added in place. W^T stays a view, as
    in the per-pair functions: a contiguous copy changes the last bits."""
    out = X @ W.swapaxes(1, 2)
    out += b[:, None, :]
    return out


def _output_affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_affine for the output layer, its bias added one class slice at a time."""
    out = X @ W.swapaxes(1, 2)
    for c in range(out.shape[-1]):
        out[..., c] += b[:, c, None]
    return out


def _shift_log_normalize(Z: np.ndarray) -> np.ndarray:
    """The per-pair log-softmax's steps folded over the classes: shifts the
    logits Z (E x n x C) in place by their maximum and returns the log of the
    summed exponentials, E x n. Z - log norm is then the log-softmax."""
    top = np.maximum(Z[..., 0], Z[..., 1])
    for c in range(2, Z.shape[-1]):
        np.maximum(top, Z[..., c], out=top)
    for c in range(Z.shape[-1]):
        Z[..., c] -= top
    ez = np.exp(Z)
    total = ez[..., 0] + ez[..., 1]
    for c in range(2, Z.shape[-1]):
        total += ez[..., c]
    return np.log(total, out=total)


def pairs_per_block(budget: int, n: int, arch: ArchSpec) -> int:
    """How many pairs of n samples one batched call may hold within
    ``budget`` activation elements (pairs x n x max(h, C)); at least one."""
    return max(1, budget // (n * max(arch.h, arch.C)))


def batch_value_and_grad(
    thetas: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    arch: ArchSpec,
    out: np.ndarray | None = None,
    *,
    value: bool = True,
    grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """log_likelihood and grad of every pair from one forward pass: E mean
    label log-probabilities and E x D mean cross-entropy gradients, the
    gradients written into ``out`` when it is given. ``value=False`` or
    ``grad=False`` skips that half and returns None in its place;
    batch_log_likelihood and batch_grad are the two halves."""
    E, n = labels.shape
    Z, A = _batch_forward(thetas, features, arch)
    log_norm = _shift_log_normalize(Z)
    values = grads = None
    if value:
        picked = Z[..., 0]
        for c in range(1, arch.C):
            picked = np.where(labels == c, Z[..., c], picked)
        values = np.mean(picked - log_norm, axis=1)
    if not grad:
        return values, None
    # Sample-major (n x E x C in memory), so the bias gradient P.sum(axis=1)
    # adds whole contiguous E x C rows sample after sample, the per-pair order.
    P = np.empty((n, E, arch.C)).transpose(1, 0, 2)
    for c in range(arch.C):
        np.exp(Z[..., c] - log_norm, out=P[..., c])
        P[..., c] -= labels == c
    P /= n
    if A is None:
        gW = P.swapaxes(1, 2) @ features
        parts = [gW.reshape(E, arch.C * arch.d), P.sum(axis=1)]
    else:
        _, _, W2, _ = _unpack_mlp(thetas, arch)
        dA = P @ W2
        dZ1 = dA * (1.0 - A * A)
        gW1 = dZ1.swapaxes(1, 2) @ features
        gW2 = P.swapaxes(1, 2) @ A
        parts = [gW1.reshape(E, arch.h * arch.d), dZ1.sum(axis=1), gW2.reshape(E, arch.C * arch.h), P.sum(axis=1)]
    return values, np.concatenate(parts, axis=1, out=out)


def batch_log_likelihood(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """log_likelihood of every pair: E mean label log-probabilities."""
    return batch_value_and_grad(thetas, features, labels, arch, grad=False)[0]


def batch_grad(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """grad of every pair: E x D mean cross-entropy gradients."""
    return batch_value_and_grad(thetas, features, labels, arch, value=False)[1]


def batch_accuracy(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """accuracy of every pair: E fractions of argmax-correct predictions.

    The logits are class-major, E x C x n. The argmax is a fold over the
    class rows with np.argmax's rule: a class takes the lead with a strictly
    larger score (ties go to the lower class) or a NaN, and a NaN that leads
    keeps the lead."""
    if arch.kind == SOFTMAX_REGRESSION:
        W, b = _unpack_linear(thetas, arch)
        X = features
    else:
        W1, b1, W, b = _unpack_mlp(thetas, arch)
        X = np.tanh(_affine(features, W1, b1))
    Z = W @ X.swapaxes(1, 2)
    Z += b[:, :, None]
    best, hit = Z[:, 0], labels == 0
    for c in range(1, arch.C):
        takes = ~(Z[:, c] <= best) & (best == best)  # larger or NaN, unless a NaN leads
        hit ^= takes & (hit ^ (labels == c))  # hit = (labels == c) where c takes the lead
        if c + 1 < arch.C:  # the running maximum, kept in Z's first row
            np.maximum(best, Z[:, c], out=best)
    return np.mean(hit, axis=1)
