"""Per-client models: flat-parameter classifiers with analytic gradients.

Two desk-scale architectures are supported, softmax regression and a
one-hidden-layer tanh MLP: dense tanh networks whose layer widths
(ArchSpec.widths; softmax regression has no hidden layer) decide their one
flat parameter layout W1, b1, W2, b2, ..., which the attention encoder
shares, so mixing, averaging and finite-difference checks stay trivial.
The cross-entropy here is always the per-sample mean; the ridge prior on
the parameters is applied by the EM updates, not inside the data loss.
A run holds its models in one way only: the K x D parameter stack of a
ClientStore, which the batched kernel below reads and updates. The plain
per-pair functions (one model on one dataset) that the kernel is checked
against, and the per-client Dataset they read, live in tests/conftest.py as
its oracle; the stores' per-client row records remain only for the
benchmark's round-1 cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .special import fold_last, fold_sum

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
    def widths(self) -> tuple[int, ...]:
        """Layer widths from input to output, (d, C) or (d, h, C)."""
        return (self.d, self.C) if self.kind == SOFTMAX_REGRESSION else (self.d, self.h, self.C)

    @property
    def n_params(self) -> int:
        return layout_size(self.widths)


class DataRow(NamedTuple):
    """Client k of a DataStack: views of its rows of features and labels."""

    features: np.ndarray
    labels: np.ndarray


class DataStack(Sequence):
    """The datasets of K clients as one stack: features K x n x d and labels
    K x n, so all share n and d. The features' memory may be sample-major (C
    order; the train stack, which the pair kernel gathers by client) or
    class-major (each client's d x n transpose contiguous; the test stack,
    which batch_accuracy reads transposed). It is a Sequence of DataRows
    only because the benchmark's round-1 cross-check iterates it."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, split: str = "train"):
        self.features, self.labels, self.split = features, labels, split

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, k: int) -> DataRow:
        return DataRow(self.features[k], self.labels[k])


class ClientRow(NamedTuple):
    """Client i of a ClientStore: views of its rows of theta (read-only) and init_theta."""

    theta: np.ndarray
    init_theta: np.ndarray


class ClientStore(Sequence):
    """All K clients of a run, stacked once. ``theta`` (K x D, C-ordered) is
    the one copy of the parameters: the kernels read it and update it in
    place, and every write goes through it. ``init_theta`` is a read-only
    copy of the stack the run started from; ``train`` and ``test`` are
    DataStacks of K datasets, or None. ``workspace`` is the one
    PairWorkspace of every batched pass over the store's models, the loglik
    passes, local steps, gossip and train losses of all rounds: it keeps its
    memory from pass to pass, so after the first round no pass allocates
    and the allocator has nothing to trim and fault back in. Any pass may
    overwrite what an earlier one left there. The store is a Sequence of
    ClientRows only because the benchmark's round-1 cross-check iterates
    it."""

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
        self.workspace = PairWorkspace()

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, i: int) -> ClientRow:
        theta = self.theta[i]  # a view of its own, so the stack stays writable
        theta.flags.writeable = False
        return ClientRow(theta, self.init_theta[i])


def layout_size(widths: Sequence[int]) -> int:
    """Parameter count of the dense network with these layer widths."""
    return fold_sum((n_out * n_in + n_out for n_in, n_out in zip(widths, widths[1:])), 0)


def unpack_layers(theta: np.ndarray, widths: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) of each layer (W out x in) of the flat layout W1, b1, W2,
    b2, ...; a leading pair axis of a stacked theta is kept."""
    lead, o, layers = theta.shape[:-1], 0, []
    for n_in, n_out in zip(widths, widths[1:]):
        W = theta[..., o : o + n_out * n_in].reshape(lead + (n_out, n_in))
        o += n_out * n_in + n_out
        layers.append((W, theta[..., o - n_out : o]))
    return layers


def pack_layers(layers, out: np.ndarray | None = None) -> np.ndarray:
    """The flat parameters of per-layer (W, b) parts, unpack_layers' inverse,
    written into ``out`` when it is given; a leading pair axis is kept."""
    parts = [p for W, b in layers for p in (W.reshape(W.shape[:-2] + (W.shape[-2] * W.shape[-1],)), b)]
    return np.concatenate(parts, axis=-1, out=out)


# Batched kernel. Pair e evaluates parameters thetas[e] (E x D) on the
# features[e] (E x n x d) and labels[e] (E x n) of one dataset, through one
# path for both architectures: the hidden layers in order, the output layer,
# then the gradients back down. Every slice keeps the dot products and
# reduction order of the per-pair grad, log_likelihood and accuracy, so each
# output row equals what those return on one model and one dataset;
# tests/conftest.py keeps them as the kernel's oracle.
#
# The class axis C is short (2 in every benchmark workload), and numpy runs
# an operation along a short innermost axis as a C-element loop per (pair,
# sample). So no operation here runs along it: the output bias, the
# log-softmax (its maximum and sum through special.fold_last), the label
# pick and the argmax fold over the C class slices left to right, each slice
# a whole E x n operation, and the gradient half keeps its probabilities
# sample-major. A hidden layer's bias (width h) stays one broadcast add
# (_affine; _output_affine adds the output bias by class). The per-pair
# functions sum with numpy's add-reduce, the same left-to-right fold for
# fewer than 8 elements, so the rows are bit for bit the per-pair ones for
# C <= 7; from C = 8 numpy sums the per-pair exponentials pairwise and the
# two differ in the last bits.
#
# Each layer's gemm is one BLAS call per pair. Sample-major, X @ W^T
# (n x d by d x C) is a tall product with a narrow output; class-major,
# W @ X^T (C x d by d x n) gives the same dot products as C contiguous rows
# of n, which BLAS fills faster and the class folds read whole.
# batch_accuracy, the reporting pass over every client's 400 test samples,
# runs every layer class-major, on the transposed features and then on the
# hidden activations as they come out (h x n); the test stack is class-major
# in memory (tasks._build_datasets), so its transpose is contiguous and the
# first gemm is a plain NN product. A sample-major stack gives the same
# bits through a strided X^T view, only slower. What moves the last bits is
# a contiguous copy of W^T under a sample-major product, which is faster but
# differs at some widths (h = 16, n = 1). At the 8 train samples per pair of
# batch_value_and_grad, class-major measured slower, so they
# stay sample-major, and the train stack with them.
#
# batch_value_and_grad is the one forward pass of every pair's value and
# gradient; batch_log_likelihood is its value-only half. The loglik matrix
# under cross-gradient takes both halves at once for the pairs its buffer
# holds (theta.gradient_buffer): local step 0 needs grad(theta_i; D_j) on
# the same pairs at the same parameters, so it reads them from that pass
# instead of a second one.
#
# Every array a call produces lives in a PairWorkspace and is written with
# out=: the logits, the log-norm, P, each hidden layer's activations and
# deltas, and the gradients, whose weight parts go straight into their
# views of the flat rows (the bias parts are summed contiguously, then
# copied in). Like P, the hidden activations and deltas are sample-major
# (n x E x h in memory), so the hidden bias gradient also adds whole
# contiguous E x h rows, and 1 - H * H and its product with the delta run
# over one layout. BLAS sees the same products at a different leading
# dimension, which changes no bit. A pass (rounds.loglik_matrix,
# theta.cooperative_sgd_steps) gathers each block's parameters, features
# and labels into the store's workspace (ClientStore.workspace), as dirac's
# gossip takes its gradients there, so a run allocates its buffers once:
# fresh arrays per block are trimmed by glibc and faulted back in once
# blocks grow past about 100 MLP pairs, and so are fresh buffers per pass.
# Every call names its workspace; the runner's train losses use the store's.


class PairWorkspace:
    """Memory that batched kernel calls and the passes around them reuse: one
    flat array per buffer name, grown to the largest request and then kept.
    take() hands out a buffer's leading elements as a C-ordered array of the
    shape a call asks for, so every block of a pass, a shorter last one
    included, and every local step reuse the same memory, each view laid
    out as a fresh array of its shape. A view is valid until the next take()
    of its name; a kernel call's results are such views when it is given no
    ``out``, so a caller copies what it keeps past its next call."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int, dtype=float) -> np.ndarray:
        """The leading elements of buffer ``name`` as a C-ordered array of this shape."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            self._buffers.pop(name, None)  # the dict lets go of the old buffer before the new one comes
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)

    def gather(self, thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """thetas[rows], features[cols] and labels[cols] in this workspace: the
        inputs of one block of pairs (rows[e], cols[e])."""
        # mode="clip" takes straight into out; "raise" would take into a copy first
        taken = (("thetas", thetas, rows), ("features", features, cols), ("labels", labels, cols))
        return tuple(
            np.take(source, index, axis=0, mode="clip",
                    out=self.take(name, len(index), *source.shape[1:], dtype=source.dtype))
            for name, source, index in taken
        )


def _batch_forward(thetas: np.ndarray, features: np.ndarray, arch: ArchSpec, ws: PairWorkspace):
    """The layers' (W, b) views and their inputs: the features, then the hidden activations."""
    layers, inputs = unpack_layers(thetas, arch.widths), [features]
    E, n = features.shape[:2]
    for layer, (W, b) in enumerate(layers[:-1]):
        H = _affine(inputs[-1], W, b, ws.take(f"hidden{layer}", n, E, b.shape[1]).transpose(1, 0, 2))
        inputs.append(np.tanh(H, out=H))
    return layers, inputs


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X @ W^T + b per pair into out, the bias added in place. W^T stays a
    view, as in the per-pair functions: a contiguous copy changes the last bits."""
    np.matmul(X, W.swapaxes(1, 2), out=out)
    out += b[:, None, :]
    return out


def _output_affine(X: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_affine for the output layer, its bias added one class slice at a time."""
    np.matmul(X, W.swapaxes(1, 2), out=out)
    for c in range(out.shape[-1]):
        out[..., c] += b[:, c, None]
    return out


def _shift_log_normalize(Z: np.ndarray, ws: PairWorkspace) -> np.ndarray:
    """The per-pair log-softmax's steps folded over the classes: shifts the
    logits Z (E x n x C) in place by their maximum and returns the log of the
    summed exponentials, E x n. Z - log norm is then the log-softmax."""
    top = fold_last(np.maximum, Z, out=ws.take("norm", *Z.shape[:2]))
    for c in range(Z.shape[-1]):
        Z[..., c] -= top
    # the sum takes the maximum's buffer, which the shift has consumed
    total = fold_last(np.add, np.exp(Z, out=ws.take("exps", *Z.shape)), out=top)
    return np.log(total, out=total)


def pairs_per_block(budget: int, n: int, arch: ArchSpec, gathered: bool = True) -> int:
    """How many pairs of n samples one batched call may hold within
    ``budget`` elements, at least one. A pair counts its activations
    (n x max(h, C)) and, when ``gathered`` into a workspace
    (PairWorkspace.gather), its parameters (D), features (n x d) and labels (n)."""
    per_pair = n * max(arch.h, arch.C)
    if gathered:
        per_pair += arch.n_params + n * (arch.d + 1)
    return max(1, budget // per_pair)


def batch_value_and_grad(
    thetas: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    arch: ArchSpec,
    out: np.ndarray | None = None,
    *,
    value: bool = True,
    grad: bool = True,
    workspace: PairWorkspace,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """log_likelihood and grad of every pair from one forward pass: E mean
    label log-probabilities and E x D mean cross-entropy gradients, the
    gradients written into ``out`` when it is given. ``value=False`` or
    ``grad=False`` skips that half and returns None in its place;
    batch_log_likelihood is the value-only half. Every
    temporary, the values and the gradients without ``out`` live in
    ``workspace``."""
    E, n = labels.shape
    layers, inputs = _batch_forward(thetas, features, arch, workspace)
    Z = _output_affine(inputs[-1], *layers[-1], workspace.take("logits", E, n, arch.C))
    log_norm = _shift_log_normalize(Z, workspace)
    scratch, is_label = workspace.take("scratch", E, n), workspace.take("is_label", E, n, dtype=bool)
    values = None
    if value:
        np.copyto(scratch, Z[..., 0])  # the label's logit, picked class by class
        for c in range(1, arch.C):
            np.copyto(scratch, Z[..., c], where=np.equal(labels, c, out=is_label))
        # np.mean's sum and division, without its Python-level wrapper
        values = np.add.reduce(np.subtract(scratch, log_norm, out=scratch), axis=1, out=workspace.take("values", E))
        values /= n
    if not grad:
        return values, None
    # Sample-major (n x E x C in memory), so the bias gradient P.sum(axis=1)
    # adds whole contiguous E x C rows sample after sample, the per-pair order.
    P = workspace.take("P", n, E, arch.C).transpose(1, 0, 2)
    for c in range(arch.C):
        np.exp(np.subtract(Z[..., c], log_norm, out=scratch), out=P[..., c])
        np.subtract(P[..., c], np.equal(labels, c, out=is_label), out=P[..., c])
    P /= n
    grads = workspace.take("grads", E, arch.n_params) if out is None else out
    # backpropagate from the output layer down: delta is dLoss/d(pre-activation);
    # each weight gradient goes straight into its view of the flat rows, each
    # bias gradient is summed contiguously first, as delta.sum(axis=1) would
    parts, delta = unpack_layers(grads, arch.widths), P
    for layer in range(len(layers) - 1, -1, -1):
        X, (W_grad, b_grad) = inputs[layer], parts[layer]
        np.matmul(delta.swapaxes(1, 2), X, out=W_grad)
        b_grad[...] = np.add.reduce(delta, axis=1, out=workspace.take("bias", *b_grad.shape))
        if layer:
            hidden = workspace.take(f"delta{layer - 1}", n, E, X.shape[2]).transpose(1, 0, 2)
            np.matmul(delta, layers[layer][0], out=hidden)
            # 1 - X * X, tanh's derivative, over the activations: nothing reads them after this
            np.subtract(1.0, np.multiply(X, X, out=X), out=X)
            delta = np.multiply(hidden, X, out=hidden)
    return values, grads


def batch_log_likelihood(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec, *, workspace: PairWorkspace
) -> np.ndarray:
    """log_likelihood of every pair: E mean label log-probabilities, a view in ``workspace``."""
    return batch_value_and_grad(thetas, features, labels, arch, grad=False, workspace=workspace)[0]


def batch_accuracy(
    thetas: np.ndarray, features: np.ndarray, labels: np.ndarray, arch: ArchSpec
) -> np.ndarray:
    """accuracy of every pair: E fractions of argmax-correct predictions.

    Every layer runs class-major, W @ Z on Z = features^T (E x d x n), so
    the logits are E x C x n; a class-major stack makes Z contiguous. The
    argmax is a fold over the class rows with np.argmax's rule: a class
    takes the lead with a strictly larger score (ties go to the lower
    class) or a NaN, and a NaN that leads keeps the lead."""
    layers = unpack_layers(thetas, arch.widths)
    Z = features.swapaxes(1, 2)
    for layer, (W, b) in enumerate(layers, 1):
        Z = W @ Z
        Z += b[:, :, None]
        if layer < len(layers):
            np.tanh(Z, out=Z)
    best, hit, takes = Z[:, 0], labels == 0, np.empty(labels.shape, dtype=bool)
    for c in range(1, arch.C):
        # c takes the lead where ~(Z_c <= best) & (best == best); as Z_c <= NaN
        # is false, that is (Z_c <= best) ^ (best == best)
        np.less_equal(Z[:, c], best, out=takes)
        takes ^= best == best
        hit ^= takes & (hit ^ (labels == c))  # hit = (labels == c) where c takes the lead
        if c + 1 < arch.C:  # the running maximum, kept in Z's first row
            np.maximum(best, Z[:, c], out=best)
    return np.count_nonzero(hit, axis=1) / labels.shape[1]  # np.mean(hit, axis=1), bit for bit
