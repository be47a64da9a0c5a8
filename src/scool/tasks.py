"""Synthetic non-IID task construction with a known cooperation ground truth.

Classes live in a shared Gaussian universe (one mean per class, isotropic
noise). Clients receive class subsets either group-wise (disjoint sets
shared within a group) or independently at random; two clients share a
positive ground-truth cooperation weight exactly when their class sets
coincide. All randomness flows through one seed so a run can be repeated
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import DataStack

# Pairwise Bayes accuracy for two classes at orthonormal means scaled by s
# with unit noise is Phi(s / sqrt(2)); this scaling hits ~0.9, keeping the
# tasks learnable but not trivial.
DEFAULT_SEPARATION = 1.8123876048736465

ORTHONORMAL = "orthonormal"
ANTIPODAL_PAIRS = "antipodal-pairs"


@dataclass(frozen=True)
class TaskUniverse:
    """Shared class-conditional generators: one Gaussian mean per class."""

    means: np.ndarray  # M x d
    sigma: float

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class TaskAssignment:
    """Per-client class sets plus the row-stochastic cooperation ground truth."""

    class_sets: list[tuple[int, ...]]
    w_star: np.ndarray  # K x K, rows sum to 1
    group_labels: np.ndarray | None = None


def check_universe(M: int, d: int, sigma: float, placement: str) -> None:
    """The rules make_universe places the class means under, checked
    without drawing them."""
    if M < 2:
        raise ConfigurationError("universe needs at least two classes")
    if sigma < 0:
        raise ConfigurationError("sigma must be nonnegative")
    if placement == ORTHONORMAL:
        if d < M:
            raise ConfigurationError(f"feature dim {d} must be >= class count {M}")
    elif placement == ANTIPODAL_PAIRS:
        if M % 2 != 0:
            raise ConfigurationError("antipodal-pairs placement needs an even class count")
        if d < M // 2 + 2:
            raise ConfigurationError(
                f"antipodal-pairs placement needs feature dim >= {M // 2 + 2}, got {d}"
            )
    else:
        raise ConfigurationError(f"unknown mean placement {placement!r}")


def make_universe(
    M: int,
    d: int,
    sigma: float = 1.0,
    separation: float = DEFAULT_SEPARATION,
    seed: int | np.random.SeedSequence = 0,
    placement: str = ORTHONORMAL,
) -> TaskUniverse:
    """Place M class means, scaled by ``separation``.

    ``orthonormal`` puts each mean on its own random orthonormal direction.
    ``antipodal-pairs`` arranges consecutive class pairs (2t, 2t+1) around
    well-separated pair centers, with the within-pair axes drawn from one
    shared 2-plane so that the axes of all pairs sum to zero. No single
    classifier can then fit every pair's discrimination simultaneously,
    which keeps cross-group tasks in genuine conflict regardless of how
    well individual models train. Requires an even M (and d >= M/2 + 2).
    """
    check_universe(M, d, sigma, placement)
    rng = np.random.default_rng(seed)
    if placement == ORTHONORMAL:
        Q, _ = np.linalg.qr(rng.standard_normal((d, M)))
        return TaskUniverse(means=separation * Q.T.copy(), sigma=sigma)
    pairs = M // 2
    Q, _ = np.linalg.qr(rng.standard_normal((d, pairs + 2)))
    centers = Q[:, :pairs].T  # one center direction per pair
    plane = Q[:, pairs:].T  # shared 2-plane carrying the label axes
    means = np.empty((M, d))
    for t in range(pairs):
        ang = 2.0 * np.pi * t / pairs
        axis = np.cos(ang) * plane[0] + np.sin(ang) * plane[1]
        center = 1.25 * separation * centers[t]
        means[2 * t] = center + 0.5 * separation * axis
        means[2 * t + 1] = center - 0.5 * separation * axis
    return TaskUniverse(means=means, sigma=sigma)


def ground_truth_graph(class_sets: list[tuple[int, ...]]) -> np.ndarray:
    """w*_ij = 1 iff class sets i and j are identical (diagonal included),
    then rows normalized to the simplex; every row holds its diagonal, so
    no row sums to zero."""
    ids = {}
    set_id = np.array([ids.setdefault(cs, len(ids)) for cs in class_sets])
    same = (set_id[:, None] == set_id[None, :]).astype(float)
    return same / same.sum(axis=1, keepdims=True)


def check_assignment(
    K: int, M: int, N: int, n_train: int, n_test: int, num_groups: int | None = None
) -> None:
    """The rules the task generators assign classes under, checked without
    drawing: K clients each get N of the M classes, at least one training
    sample per class and at least one test sample; with ``num_groups``, the
    groups own disjoint class sets and split the clients evenly."""
    if not 1 <= N <= M:
        raise ConfigurationError(f"cannot assign {N} distinct classes out of {M}")
    if n_train < N:
        raise ConfigurationError("need at least one training sample per class")
    if n_test < 1:
        raise ConfigurationError("need at least one test sample per client")
    if num_groups is None:
        return
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    if num_groups * N > M:
        raise ConfigurationError(f"{num_groups} groups of {N} classes do not fit in {M} classes")
    if K % num_groups != 0:
        raise ConfigurationError(f"K={K} must be divisible by num_groups={num_groups}")


def _draw(universe: TaskUniverse, class_set: tuple[int, ...], rng: np.random.Generator,
          features: np.ndarray, labels: np.ndarray) -> None:
    """Fill features (n x d, either memory layout) and labels (n) with n
    balanced samples of the class set, shuffled; the remainder goes to the
    first classes. The samples are drawn into a sample-major buffer."""
    total = len(labels)
    counts = np.full(len(class_set), total // len(class_set), dtype=int)
    counts[: total % len(class_set)] += 1
    X, y = np.empty(features.shape), np.empty_like(labels)
    start = 0
    for local, cls in enumerate(class_set):
        stop = start + counts[local]
        X[start:stop] = universe.means[cls] + universe.sigma * rng.standard_normal((counts[local], universe.dim))
        y[start:stop] = local
        start = stop
    order = rng.permutation(total)
    np.take(X, order, axis=0, out=features)
    np.take(y, order, out=labels)


def _build_datasets(universe, class_sets, n_train, n_test, seeds) -> tuple[DataStack, DataStack]:
    """The train and the test sets of all clients, each client's draws
    written straight into its rows of the two stacks: one generator per
    client, seeded from its own seed, draws its train set and then its test
    set. Both stacks are K x n x d; the train stack is sample-major, as the
    pair kernel gathers it by client, and the test stack is class-major in
    memory (each client's d x n feature rows contiguous), as the reporting
    pass reads it."""
    K, d = len(class_sets), universe.dim
    stacks = (
        DataStack(np.empty((K, n_train, d)), np.empty((K, n_train), dtype=int), "train"),
        DataStack(np.empty((K, d, n_test)).swapaxes(1, 2), np.empty((K, n_test), dtype=int), "test"),
    )
    for k, (cs, s) in enumerate(zip(class_sets, seeds)):
        rng = np.random.default_rng(s)
        for stack in stacks:
            _draw(universe, cs, rng, stack.features[k], stack.labels[k])
    return stacks


def gen_tasks(
    K: int,
    M: int,
    N: int,
    samples_per_client: int,
    seed: int,
    *,
    num_groups: int | None = None,
    test_samples_per_client: int = 100,
    d: int | None = None,
    sigma: float = 1.0,
    separation: float = DEFAULT_SEPARATION,
    placement: str = ORTHONORMAL,
) -> tuple[TaskAssignment, DataStack, DataStack]:
    """Non-IID tasks for K clients, N of the M classes each. With
    ``num_groups``, each group owns a disjoint N-class subset and every
    client in a group gets the identical class set; with None, every client
    draws a uniform random N-subset. Identical class sets define the
    ground-truth cooperation. Returns the assignment and the clients' train
    and test stacks."""
    check_assignment(K, M, N, samples_per_client, test_samples_per_client, num_groups)
    assign_seed, uni_seed, *data_seeds = np.random.SeedSequence(seed).spawn(2 + K)
    universe = make_universe(M, d if d is not None else M, sigma, separation, uni_seed, placement)
    rng = np.random.default_rng(assign_seed)
    group_labels = None
    if num_groups is None:
        class_sets = [
            tuple(sorted(int(c) for c in rng.choice(M, size=N, replace=False)))
            for _ in range(K)
        ]
    else:
        if placement == ANTIPODAL_PAIRS and N == 2 and M % 2 == 0:
            # keep groups aligned with the antipodal class pairs
            pair_order = rng.permutation(M // 2)
            group_sets = [
                tuple(sorted((int(2 * pair_order[g]), int(2 * pair_order[g] + 1))))
                for g in range(num_groups)
            ]
        else:
            perm = rng.permutation(M)
            group_sets = [
                tuple(sorted(int(c) for c in perm[g * N : (g + 1) * N])) for g in range(num_groups)
            ]
        group_labels = np.repeat(np.arange(num_groups), K // num_groups)
        class_sets = [group_sets[g] for g in group_labels]
    assignment = TaskAssignment(class_sets, ground_truth_graph(class_sets), group_labels)
    return assignment, *_build_datasets(universe, class_sets, samples_per_client, test_samples_per_client, data_seeds)
