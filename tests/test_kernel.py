"""Batched kernel: bit-for-bit equal to the per-pair loops.

The reference functions (tests/conftest.py) are the per-pair bodies that
``rounds.loglik_matrix``, ``theta.cooperative_sgd_steps`` and
``dirac.dpsgd_step`` had before the kernel. They call the oracle's ``grad``
and ``log_likelihood`` (tests/conftest.py, one model on one dataset) once
per (model, dataset) pair and fold each row's update left to right. The
per-round reporting is checked against the oracle's ``accuracy`` and
``loss`` the same way. A run holds its models only as a ClientStore's K x D
stack; the store's per-client row views, which remain for the benchmark's
round-1 cross-check, are tested in TestClientStore. A cross-gradient round
takes its first step's gradients from the loglik pass; TestFusedFirstStep
checks that step against the fresh path, which takes every gradient itself,
and TestCappedGradientBuffer whole rounds wherever the buffer's cap cuts
the pair list.
TestLayout pins the flat parameter layout index by index, for the kernel's
unpack_layers and the oracle's own unpackers alike.
"""

import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import scool.models
from scool import runner
from scool.config import ExperimentConfig
from scool.em import attention, dirac, rounds, theta
from scool.em.theta import cooperative_sgd_steps
from scool.errors import ConfigurationError, DivergenceError
from scool.models import (
    MLP_1HIDDEN,
    SOFTMAX_REGRESSION,
    ArchSpec,
    ClientStore,
    DataStack,
    PairWorkspace,
    batch_accuracy,
    batch_log_likelihood,
    batch_value_and_grad,
    layout_size,
    pack_layers,
    pairs_per_block,
    unpack_layers,
)
from scool.tasks import gen_tasks, make_universe
from scool.topology import CROSS_GRADIENT, TAYLOR_APPROX, build_topology, observed_pairs, pair_list

from conftest import (
    Dataset,
    LocalModel,
    accuracy,
    client_store,
    fold_loop,
    full_mask,
    grad,
    log_likelihood,
    loss,
    model_list,
    pair_index_map,
    random_attention_setup,
    reference_cooperative_sgd_steps,
    reference_dpsgd_step,
    reference_loglik_matrix,
    sample_class_data,
    stack_datasets,
    tiny_dataset,
    unpack_linear,
    unpack_mlp,
)

ARCHS = {
    SOFTMAX_REGRESSION: ArchSpec(SOFTMAX_REGRESSION, d=5, C=3),
    MLP_1HIDDEN: ArchSpec(MLP_1HIDDEN, d=5, C=3, h=4),
}
# an attention encoder of the d = 5, C = 3 softmax models: 18 inputs
ENCODER_WIDTHS = (18, 6, 4)
# the benchmark workloads' models: d = 8 features, C = 2 classes, h = 16
BENCH_ARCHS = {
    SOFTMAX_REGRESSION: ArchSpec(SOFTMAX_REGRESSION, d=8, C=2),
    MLP_1HIDDEN: ArchSpec(MLP_1HIDDEN, d=8, C=2, h=16),
}


def _clients(rng, arch, K=7, n=8, spread=0.5):
    base = 0.01 * rng.standard_normal(arch.n_params)
    models = [LocalModel(base + spread * rng.standard_normal(arch.n_params), arch) for _ in range(K)]
    train = [tiny_dataset(rng, n, arch.d, arch.C) for _ in range(K)]
    return models, train


def _random_graph(rng, K, keep=0.6, zeros=0.2):
    mask = rng.random((K, K)) < keep
    np.fill_diagonal(mask, True)
    w = rng.uniform(0.05, 1.0, (K, K))
    w[rng.random((K, K)) < zeros] = 0.0
    return w, mask


def _both(models, train):
    """A store of the clients for the kernel, and a copy of the models for
    the per-pair reference."""
    return client_store(models, train), model_list(models)


def _assert_same_thetas(a, b):
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma.theta, mb.theta)


# the two memory layouts of an E x n x d feature stack: the train stack's
# C order, and the test stack's, whose d x n transposes are contiguous
LAYOUTS = ["sample-major", "class-major"]


def in_layout(features: np.ndarray, layout: str) -> np.ndarray:
    """A copy of the E x n x d features in the given memory layout."""
    if layout == "sample-major":
        return np.ascontiguousarray(features)
    return np.ascontiguousarray(features.swapaxes(1, 2)).swapaxes(1, 2)


class TestBatchKernel:
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 8, 13])
    def test_rows_equal_per_pair_functions(self, kind, n):
        arch = ARCHS[kind]
        rng = np.random.default_rng(n)
        thetas = rng.standard_normal((6, arch.n_params))
        X = rng.standard_normal((6, n, arch.d))
        Y = rng.integers(0, arch.C, (6, n))
        L, G = batch_value_and_grad(thetas, X, Y, arch, workspace=PairWorkspace())
        for e in range(6):
            model = LocalModel(thetas[e], arch)
            data = Dataset(X[e], Y[e], tuple(range(arch.C)))
            np.testing.assert_array_equal(G[e], grad(model, data))
            assert L[e] == log_likelihood(model, data)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 8, 13])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_one_byte_labels_move_no_bit(self, kind, n, layout):
        # the kernels read labels only through ==, so the label type is free;
        # a workspace gathers the labels in their own type
        arch = ARCHS[kind]
        rng = np.random.default_rng(70 + n)
        thetas = rng.standard_normal((6, arch.n_params))
        X = in_layout(rng.standard_normal((6, n, arch.d)), layout)
        Y = rng.integers(0, arch.C, (6, n), dtype=np.int64)
        ws = PairWorkspace()
        rows = np.arange(6)
        gathered = ws.gather(thetas, X, Y.astype(np.uint8), rows, rows)[2]
        assert gathered.dtype == np.uint8
        want = [np.copy(part) for part in batch_value_and_grad(thetas, X, Y, arch, workspace=PairWorkspace())]
        got = batch_value_and_grad(thetas, X, gathered, arch, workspace=ws)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)
        _assert_same_bits(batch_accuracy(thetas, X, Y.astype(np.uint8), arch), batch_accuracy(thetas, X, Y, arch))

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    def test_no_pairs(self, kind):
        arch = ARCHS[kind]
        thetas = np.zeros((0, arch.n_params))
        X = np.zeros((0, 8, arch.d))
        Y = np.zeros((0, 8), dtype=int)
        assert batch_value_and_grad(thetas, X, Y, arch, value=False, workspace=PairWorkspace())[1].shape == (
            0, arch.n_params)
        assert batch_log_likelihood(thetas, X, Y, arch, workspace=PairWorkspace()).shape == (0,)


class TestClassFold:
    """The kernel folds the log-softmax, the label pick and the argmax over
    the class slices; the per-pair functions reduce along the class axis.
    numpy's add-reduce of fewer than 8 elements is the same left-to-right
    fold, so up to C = 7 the rows match bit for bit; from C = 8 numpy sums
    pairwise and the rows match to 1e-12."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        C=hst.one_of(hst.integers(2, 7), hst.sampled_from([8, 9, 16])),
        kind=hst.sampled_from(sorted(ARCHS)),
        scale=hst.floats(1e-3, 700.0),
        tied=hst.integers(0, 2**16 - 1),
        tie_level=hst.floats(-1.0, 1.0),
        n=hst.integers(1, 12),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_rows_equal_per_pair_functions(self, C, kind, scale, tied, tie_level, n, seed):
        arch = ArchSpec(kind, d=3, C=C, h=4 if kind == MLP_1HIDDEN else 0)
        rng = np.random.default_rng(seed)
        E = 5
        thetas = rng.standard_normal((E, arch.n_params))
        X = rng.uniform(-1.0, 1.0, (E, n, arch.d))
        Y = rng.integers(0, C, (E, n))
        # output weights and bias within scale / (inputs + 1), so every logit
        # lies within +-scale; the classes set in ``tied`` get zero weights and
        # one shared bias, so their logits tie exactly
        inputs = arch.h or arch.d
        out_layer = thetas[:, arch.n_params - C * (inputs + 1) :]
        out_layer[:] = rng.uniform(-1.0, 1.0, out_layer.shape) * scale / (inputs + 1)
        W, b = out_layer[:, : C * inputs].reshape(E, C, inputs), out_layer[:, C * inputs :]
        ties = [c for c in range(C) if tied >> c & 1]
        if len(ties) > 1:
            W[:, ties] = 0.0
            b[:, ties] = tie_level * scale
        L, G = batch_value_and_grad(thetas, X, Y, arch, workspace=PairWorkspace())
        acc = batch_accuracy(thetas, X, Y, arch)
        for e in range(E):
            model = LocalModel(thetas[e], arch)
            data = Dataset(X[e], Y[e], tuple(range(C)))
            assert acc[e] == accuracy(model, data)
            if C <= 7:
                np.testing.assert_array_equal(G[e], grad(model, data))
                assert L[e] == log_likelihood(model, data)
            else:
                np.testing.assert_allclose(G[e], grad(model, data), rtol=0, atol=1e-12)
                np.testing.assert_allclose(L[e], log_likelihood(model, data), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_ties_and_nan_rank_as_in_argmax(self, layout):
        # zero weights on zero features: pair e's logits are its bias row Z[e]
        Z = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 2.0], [np.nan, 3.0, 1.0], [1.0, np.nan, np.nan],
                      [np.inf, np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [1.0, -np.inf, np.inf]])
        arch = ArchSpec(SOFTMAX_REGRESSION, d=2, C=3)
        thetas = np.concatenate([np.zeros((len(Z), 6)), Z], axis=1)
        X = in_layout(np.zeros((len(Z), 3, 2)), layout)
        for label in range(3):
            got = batch_accuracy(thetas, X, np.full((len(Z), 3), label), arch)
            np.testing.assert_array_equal(got, np.argmax(Z, axis=1) == label)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 400])
    def test_ties_and_nan_reach_the_class_rows(self, kind, n, layout):
        # the rows of test_ties_and_nan_rank_as_in_argmax as the output bias
        # of either architecture on n random samples: zero output weights
        # make every sample's logits its pair's bias row
        Z = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 2.0], [np.nan, 3.0, 1.0], [1.0, np.nan, np.nan],
                      [np.inf, np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [1.0, -np.inf, np.inf]])
        arch = ArchSpec(kind, d=2, C=3, h=4 if kind == MLP_1HIDDEN else 0)
        rng = np.random.default_rng(n)
        thetas = rng.standard_normal((len(Z), arch.n_params))
        out_layer = thetas[:, arch.n_params - 3 * ((arch.h or arch.d) + 1) :]
        out_layer[:, :-3] = 0.0
        out_layer[:, -3:] = Z
        X = in_layout(rng.standard_normal((len(Z), n, arch.d)), layout)
        for label in range(3):
            got = batch_accuracy(thetas, X, np.full((len(Z), n), label), arch)
            np.testing.assert_array_equal(got, np.argmax(Z, axis=1) == label)


class TestLoglikMatrixEquivalence:
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_masks(self, kind, seed):
        rng = np.random.default_rng(seed)
        models, train = _clients(rng, ARCHS[kind])
        _, mask = _random_graph(rng, len(models))
        mask[3] = False  # a client that may evaluate nobody, itself included
        store = client_store(models, train)
        np.testing.assert_array_equal(
            rounds.loglik_matrix(store, store.train, mask, pair_list(mask)), reference_loglik_matrix(models, train, mask)
        )

    def test_no_mask(self):
        rng = np.random.default_rng(3)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN])
        store = client_store(models, train)
        mask = full_mask(len(models))
        np.testing.assert_array_equal(
            rounds.loglik_matrix(store, store.train, mask, pair_list(mask)), reference_loglik_matrix(models, train, mask)
        )

    def test_evaluates_only_allowed_pairs(self, monkeypatch):
        # every allowed pair goes through one forward pass: in the loglik
        # pass alone, which takes no gradient without a buffer (taylor-
        # approx), and in the loglik pass plus local step 0 of a
        # cross-gradient round, which reads its gradients from that pass
        rng = np.random.default_rng(4)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION])
        store = client_store(models, train)
        w, mask = _random_graph(rng, len(models))
        allowed = Counter(zip(*map(list, np.nonzero(mask))))
        seen, halves = [], []
        forward, kernel = scool.models._batch_forward, rounds.batch_value_and_grad

        def counting_forward(thetas, X, arch, ws):
            seen.extend(_pair_ids(thetas, X, store, train))
            return forward(thetas, X, arch, ws)

        def counting_kernel(*args, **kwargs):
            halves.append(kwargs["grad"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(scool.models, "_batch_forward", counting_forward)
        monkeypatch.setattr(rounds, "batch_value_and_grad", counting_kernel)
        for per_block in (1, 3, None):
            with monkeypatch.context() as patch:
                _cap_pairs_per_block(patch, per_block, ARCHS[SOFTMAX_REGRESSION])
                seen.clear()
                halves.clear()
                rounds.loglik_matrix(store, store.train, mask, pair_list(mask))
                assert Counter(seen) == allowed and halves and not any(halves)
                seen.clear()
                halves.clear()
                grads = np.empty((np.count_nonzero(mask), store.arch.n_params))
                rounds.loglik_matrix(store, store.train, mask, pair_list(mask), grads)
                cooperative_sgd_steps(
                    store, store.train, w, 0.0, 0.1, 1, CROSS_GRADIENT, mask, pair_list(mask), grads=grads
                )
                assert Counter(seen) == allowed and halves and all(halves)


class TestCooperativeEquivalence:
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_graphs_several_steps(self, kind, grad_mode, seed):
        rng = np.random.default_rng(10 + seed)
        models, train = _clients(rng, ARCHS[kind])
        w, mask = _random_graph(rng, len(models))
        w[2] = 0.0  # a client with no weighted neighbour
        mask[:, 4] = False  # and one nobody may read
        mask[4, 4] = True
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, w, 0.03, 0.2, 3, grad_mode, mask, pair_list(mask))
        reference_cooperative_sgd_steps(b, train, w, 0.03, 0.2, 3, grad_mode, mask)
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_dense_weights_without_mask(self, grad_mode):
        rng = np.random.default_rng(5)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN], K=9)
        w = rng.uniform(0.0, 1.0, (9, 9))
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, w, 1e-4, 0.25, 2, grad_mode, full_mask(9), pair_list(full_mask(9)))
        reference_cooperative_sgd_steps(b, train, w, 1e-4, 0.25, 2, grad_mode, full_mask(9))
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_identity_weights_as_local_only(self, grad_mode):
        rng = np.random.default_rng(6)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=5)
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, np.eye(5), 0.0, 0.1, 3, grad_mode, full_mask(5), pair_list(full_mask(5)))
        reference_cooperative_sgd_steps(b, train, np.eye(5), 0.0, 0.1, 3, grad_mode, full_mask(5))
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_attention_coupling(self, grad_mode):
        rng = np.random.default_rng(7)
        models, state = random_attention_setup(rng, K=6)
        arch = models.arch
        train = [tiny_dataset(rng, 8, arch.d, arch.C) for _ in range(6)]
        state.w, mask = _random_graph(rng, 6, zeros=0.1)
        state.pairs = pair_list(mask)
        coupling = lambda ms: attention.coupling_descent_terms(ms, state, mask)
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, state.w, 0.01, 0.2, 3, grad_mode, mask, pair_list(mask), coupling)
        reference_cooperative_sgd_steps(
            b, train, state.w, 0.01, 0.2, 3, grad_mode, mask, lambda ms: coupling(client_store(ms))
        )
        _assert_same_thetas(a, b)

    def test_cross_gradients_only_on_weighted_edges(self, monkeypatch):
        rng = np.random.default_rng(8)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION])
        models = client_store(models, train)
        w, mask = _random_graph(rng, len(models))
        edges = mask & (w != 0.0)
        np.fill_diagonal(edges, False)
        # each fresh step: the K own gradients, then every weighted edge once
        want = Counter(zip(*map(list, np.nonzero(edges | np.eye(len(models), dtype=bool)))))
        seen, sizes = [], []

        def counting(thetas, X, Y, arch, *args, **kwargs):
            seen.extend(_pair_ids(thetas, X, models, train))
            sizes.append(len(thetas))
            return batch_value_and_grad(thetas, X, Y, arch, *args, **kwargs)

        monkeypatch.setattr(theta, "batch_value_and_grad", counting)
        for per_block in (1, 3, None):
            with monkeypatch.context() as patch:
                _cap_pairs_per_block(patch, per_block, ARCHS[SOFTMAX_REGRESSION])
                seen.clear()
                cooperative_sgd_steps(models, models.train, w, 0.0, 0.1, 2, CROSS_GRADIENT, mask, pair_list(mask))
                assert Counter(seen) == Counter({pair: 2 for pair in want})
                # handed the loglik pass's gradients, step 0 takes none and
                # step 1 takes the same pairs as a fresh step
                grads = np.empty((np.count_nonzero(mask), models.arch.n_params))
                rounds.loglik_matrix(models, models.train, mask, pair_list(mask), grads)
                seen.clear()
                cooperative_sgd_steps(
                    models, models.train, w, 0.0, 0.1, 2, CROSS_GRADIENT, mask, pair_list(mask), grads=grads
                )
                assert Counter(seen) == want

        sizes.clear()
        cooperative_sgd_steps(models, models.train, w, 0.0, 0.1, 2, TAYLOR_APPROX, mask, pair_list(mask))
        assert sizes == [len(models)] * 2


def _cap_pairs_per_block(monkeypatch, per_block, arch, n=8):
    """Blocks of per_block pairs of n samples; None keeps the default."""
    if per_block is not None:
        monkeypatch.setattr(theta, "PAIR_BLOCK_BUDGET", per_block * _per_pair_elements(n, arch))


def _pair_ids(thetas, X, models, train):
    """(model, dataset) index of every pair in a batched call, matched
    exactly against the current parameters and the train features."""
    current = np.stack([m.theta for m in models])
    feats = np.stack([ds.features for ds in train])
    ids = []
    for t, x in zip(thetas, X):
        (i,) = np.flatnonzero((current == t).all(axis=1))
        (j,) = np.flatnonzero((feats == x).all(axis=(1, 2)))
        ids.append((int(i), int(j)))
    return ids


class TestPairBlocks:
    """Blocks of one and three pairs cut the row-major pair list mid-row."""

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("per_block", [1, 3])
    def test_loglik_matrix(self, monkeypatch, kind, per_block):
        rng = np.random.default_rng(40)
        models, train = _clients(rng, ARCHS[kind])
        _, mask = _random_graph(rng, len(models))
        mask[5] = False  # a client that evaluates nobody
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        store = client_store(models, train)
        np.testing.assert_array_equal(
            rounds.loglik_matrix(store, store.train, mask, pair_list(mask)), reference_loglik_matrix(models, train, mask)
        )

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("per_block", [1, 3])
    def test_unequal_degrees_and_an_isolated_client(self, monkeypatch, kind, grad_mode, per_block):
        rng = np.random.default_rng(41)
        models, train = _clients(rng, ARCHS[kind])
        K = len(models)
        w = rng.uniform(0.05, 1.0, (K, K))
        mask = np.tril(np.ones((K, K), dtype=bool))  # degrees 0, 1, ..., K - 1
        mask[K - 1, 2] = False
        w[4, 1] = 0.0
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, w, 0.02, 0.2, 3, grad_mode, mask, pair_list(mask))
        reference_cooperative_sgd_steps(b, train, w, 0.02, 0.2, 3, grad_mode, mask)
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("per_block", [1, 3])
    def test_empty_edge_list(self, monkeypatch, kind, grad_mode, per_block):
        rng = np.random.default_rng(42)
        models, train = _clients(rng, ARCHS[kind], K=5)
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, np.eye(5), 0.01, 0.1, 2, grad_mode, full_mask(5), pair_list(full_mask(5)))
        reference_cooperative_sgd_steps(b, train, np.eye(5), 0.01, 0.1, 2, grad_mode, full_mask(5))
        _assert_same_thetas(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("per_block", [1, 3])
    def test_non_finite_update_moves_no_model(self, monkeypatch, grad_mode, per_block):
        rng = np.random.default_rng(44)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=6)
        models[4].theta[0] = 1e308  # its ridge term overflows
        w, mask = _random_graph(rng, 6, zeros=0.0)
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[SOFTMAX_REGRESSION])
        a, b = _both(models, train)
        with pytest.raises(DivergenceError) as got:
            cooperative_sgd_steps(a, a.train, w, 10.0, 0.1, 2, grad_mode, mask, pair_list(mask))
        with pytest.raises(DivergenceError) as want:
            reference_cooperative_sgd_steps(b, train, w, 10.0, 0.1, 2, grad_mode, mask)
        assert str(got.value) == str(want.value)
        assert "produced a non-finite update at local step 0" in str(got.value)
        _assert_same_thetas(a, models)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("per_block", [1, 3])
    def test_divergence_updates_the_rows_before_it(self, monkeypatch, kind, grad_mode, per_block):
        rng = np.random.default_rng(43)
        models, train = _clients(rng, ARCHS[kind], K=6)
        models[3].theta[0] = 1e300  # a finite update that eta1 pushes past the range
        w, mask = _random_graph(rng, 6)
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        a, b = _both(models, train)
        with pytest.raises(DivergenceError) as got:
            cooperative_sgd_steps(a, a.train, w, 10.0, 1e8, 2, grad_mode, mask, pair_list(mask))
        with pytest.raises(DivergenceError) as want:
            reference_cooperative_sgd_steps(b, train, w, 10.0, 1e8, 2, grad_mode, mask)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "client 3 parameters left the finite range at local step 0"
        _assert_same_thetas(a, b)
        for before, after in zip(models[:3], list(a)[:3]):
            assert not np.array_equal(before.theta, after.theta)
        np.testing.assert_array_equal(a[3].theta, models[3].theta)


def _assert_same_bits(a, b):
    """Equal to the bit: -0.0 differs from 0.0, and NaNs must match too."""
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestFold:
    """theta._fold adds a block's terms into their rows exactly as the
    left-to-right loop conftest.fold_loop does, to the bit."""

    @staticmethod
    def _pairs(rng, K, D, degrees):
        """A row-major pair list with the given degree per row and terms
        whose sums depend on the order they are added in."""
        rows = np.repeat(np.arange(K), degrees)
        scale = 10.0 ** rng.integers(-12, 12, (len(rows), D))
        g = rng.standard_normal((len(rows), D)) * scale
        return rows, g, rng.standard_normal((K, D)) * 1e6

    @staticmethod
    def _folded(delta, rows, g, sizes):
        # one stack buffer for every block, holding what the last block left
        out, start = delta.copy(), 0
        buffer = np.full(theta.fold_elements(theta._fold_plan(rows), g.shape[1]), np.nan)
        for size in sizes:
            theta._fold(out, theta._fold_plan(rows[start : start + size]), g[start : start + size], buffer)
            start += size
        assert start == len(rows)
        return out

    @pytest.mark.parametrize("D", [1, 2, 18])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 1000])
    def test_blocks_of_one_size(self, D, size):
        rng = np.random.default_rng(70 + size)
        rows, g, delta = self._pairs(rng, 9, D, [3, 0, 12, 1, 0, 0, 5, 9, 2])
        sizes = [size] * (len(rows) // size) + ([len(rows) % size] if len(rows) % size else [])
        _assert_same_bits(self._folded(delta, rows, g, sizes), fold_loop(delta, rows, g))

    def test_a_row_split_by_a_block_boundary(self):
        rng = np.random.default_rng(71)
        rows, g, delta = self._pairs(rng, 3, 4, [2, 20, 2])
        for cut in range(1, len(rows)):
            _assert_same_bits(self._folded(delta, rows, g, [cut, len(rows) - cut]), fold_loop(delta, rows, g))

    def test_rows_without_an_edge_in_the_span_are_untouched(self):
        rng = np.random.default_rng(72)
        rows, g, delta = self._pairs(rng, 6, 3, [2, 0, 0, 3, 0, 1])
        delta[1] = [-0.0, np.nan, np.inf]
        delta[2] = [-np.inf, -0.0, 0.0]
        delta[4] = -0.0
        out = self._folded(delta, rows, g, [len(rows)])
        _assert_same_bits(out[[1, 2, 4]], delta[[1, 2, 4]])
        _assert_same_bits(out, fold_loop(delta, rows, g))

    def test_signed_zeros(self):
        rows = np.array([0, 0, 1, 1, 2, 3, 3, 3])
        g = np.array([[-0.0, 0.0, -0.0, 0.0]] * 8)
        g[5:] = -0.0
        delta = np.array([[-0.0, -0.0, 0.0, 0.0]] * 4)
        for sizes in ([8], [1] * 8, [3, 5], [5, 3]):
            out = self._folded(delta, rows, g, sizes)
            _assert_same_bits(out, fold_loop(delta, rows, g))
            # -0.0 plus -0.0 terms stays -0.0, a reduction from +0.0 would not
            assert np.signbit(out[3, :2]).all() and np.signbit(out[0, 0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_and_nan_terms(self):
        rng = np.random.default_rng(73)
        rows, g, delta = self._pairs(rng, 5, 3, [4, 3, 0, 2, 5])
        g[0, 0] = g[5, 1] = np.inf
        g[1, 0] = -np.inf  # inf - inf on row 0
        g[2, 2] = g[9, 0] = np.nan
        g[12, 1] = -np.nan
        delta[3, 2] = np.nan
        for sizes in ([len(rows)], [1] * len(rows), [4, 5, 5]):
            _assert_same_bits(self._folded(delta, rows, g, sizes), fold_loop(delta, rows, g))


class TestFusedFirstStep:
    """Local step 0 of a cross-gradient round reads the gradients that the
    loglik pass wrote into its buffer (rounds.loglik_matrix with ``grads``)
    instead of taking them again; the models move exactly as on the fresh
    path, whose steps take every gradient themselves."""

    GRAPHS = ["unequal-degrees", "zero-weights", "no-weighted-neighbour", "identity"]

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 8, 13])
    def test_kernel_halves(self, kind, n):
        arch = ARCHS[kind]
        rng = np.random.default_rng(60 + n)
        thetas = rng.standard_normal((6, arch.n_params))
        X = rng.standard_normal((6, n, arch.d))
        Y = rng.integers(0, arch.C, (6, n))
        L = batch_log_likelihood(thetas, X, Y, arch, workspace=PairWorkspace())
        G = batch_value_and_grad(thetas, X, Y, arch, value=False, workspace=PairWorkspace())[1]
        ws = PairWorkspace()
        values, grads = batch_value_and_grad(thetas, X, Y, arch, workspace=ws)
        np.testing.assert_array_equal(values, L)
        np.testing.assert_array_equal(grads, G)
        out = np.full((6, arch.n_params), np.nan)
        values, grads = batch_value_and_grad(thetas, X, Y, arch, out, workspace=ws)
        assert grads is out
        np.testing.assert_array_equal(values, L)
        np.testing.assert_array_equal(out, G)
        assert batch_value_and_grad(thetas, X, Y, arch, grad=False, workspace=ws)[1] is None
        assert batch_value_and_grad(thetas, X, Y, arch, value=False, workspace=ws)[0] is None

    @staticmethod
    def _graph(rng, graph, K):
        w, mask = _random_graph(rng, K, zeros=0.0 if graph == "unequal-degrees" else 0.3)
        if graph == "no-weighted-neighbour":
            w[2] = 0.0
        if graph == "identity":
            w = np.eye(K)
        return w, mask

    @staticmethod
    def _fused(store, w, lam, eta1, steps, mask, coupling_fn=None):
        grads = np.empty((np.count_nonzero(mask), store.arch.n_params))
        ll = rounds.loglik_matrix(store, store.train, mask, pair_list(mask), grads)
        cooperative_sgd_steps(
            store, store.train, w, lam, eta1, steps, CROSS_GRADIENT, mask, pair_list(mask), coupling_fn, grads
        )
        return ll

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("per_block", [1, 3, None])
    def test_equals_the_fresh_path(self, monkeypatch, kind, graph, per_block):
        rng = np.random.default_rng(61)
        models, train = _clients(rng, ARCHS[kind])
        w, mask = self._graph(rng, graph, len(models))
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        a, b = client_store(models, train), client_store(models, train)
        ll = self._fused(a, w, 0.02, 0.2, 3, mask)
        np.testing.assert_array_equal(ll, rounds.loglik_matrix(b, b.train, mask, pair_list(mask)))
        cooperative_sgd_steps(b, b.train, w, 0.02, 0.2, 3, CROSS_GRADIENT, mask, pair_list(mask))
        np.testing.assert_array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("per_block", [1, 3, None])
    def test_step_zero_reads_the_buffer_as_the_index_map(self, monkeypatch, kind, graph, per_block):
        # one step with a buffer takes no gradient: it reads the buffer's rows
        # at the pairs that the K x K map of the mask names
        rng = np.random.default_rng(65)
        models, train = _clients(rng, ARCHS[kind])
        w, mask = self._graph(rng, graph, len(models))
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        store = client_store(models, train)
        grads = rng.standard_normal((np.count_nonzero(mask), store.arch.n_params))
        index = pair_index_map(mask)
        rows, cols = np.nonzero(observed_pairs(mask) & (w != 0.0))
        delta = grads[np.diagonal(index)] + 0.02 * store.theta
        delta = fold_loop(delta, rows, w[rows, cols][:, None] * grads[index[rows, cols]])
        want = store.theta - 0.2 * delta
        cooperative_sgd_steps(store, store.train, w, 0.02, 0.2, 1, CROSS_GRADIENT, mask, pair_list(mask), grads=grads)
        _assert_same_bits(store.theta, want)

    @pytest.mark.parametrize("per_block", [1, 3, None])
    def test_attention_coupling(self, monkeypatch, per_block):
        rng = np.random.default_rng(62)
        models, state = random_attention_setup(rng, K=6)
        arch = models.arch
        train = [tiny_dataset(rng, 8, arch.d, arch.C) for _ in range(6)]
        state.w, mask = _random_graph(rng, 6, zeros=0.1)
        state.pairs = pair_list(mask)
        coupling = lambda ms: attention.coupling_descent_terms(ms, state, mask)
        _cap_pairs_per_block(monkeypatch, per_block, arch)
        a, b = client_store(models, train), client_store(models, train)
        self._fused(a, state.w, 0.01, 0.2, 3, mask, coupling)
        cooperative_sgd_steps(b, b.train, state.w, 0.01, 0.2, 3, CROSS_GRADIENT, mask, pair_list(mask), coupling)
        np.testing.assert_array_equal(a.theta, b.theta)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("per_block", [1, 3, None])
    @pytest.mark.parametrize("start, eta1, message", [
        (1e308, 0.1, "client 3 produced a non-finite update at local step 0"),  # its ridge term overflows
        (1e300, 1e8, "client 3 parameters left the finite range at local step 0"),
    ])
    def test_divergence_as_on_the_fresh_path(self, monkeypatch, kind, per_block, start, eta1, message):
        rng = np.random.default_rng(63)
        models, train = _clients(rng, ARCHS[kind], K=6)
        models[3].theta[0] = start
        w, mask = _random_graph(rng, 6, zeros=0.0)
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[kind])
        a, b = client_store(models, train), client_store(models, train)
        with pytest.raises(DivergenceError) as got:
            self._fused(a, w, 10.0, eta1, 2, mask)
        with pytest.raises(DivergenceError) as want:
            cooperative_sgd_steps(b, b.train, w, 10.0, eta1, 2, CROSS_GRADIENT, mask, pair_list(mask))
        assert str(got.value) == str(want.value) == message
        np.testing.assert_array_equal(a.theta, b.theta)  # the rows before client 3 moved alike

    def test_buffer_must_match_the_mask(self):
        rng = np.random.default_rng(64)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=5)
        store = client_store(models, train)
        w, mask = _random_graph(rng, 5)
        E, D = np.count_nonzero(mask), store.arch.n_params
        no_self = mask.copy()
        no_self[1, 1] = False
        for grads, m in ((np.zeros((E + 1, D)), mask), (np.zeros((E, D + 1)), mask),
                         (np.zeros((E - 1, D)), no_self)):
            with pytest.raises(ConfigurationError, match="one row per allowed pair"):
                cooperative_sgd_steps(store, store.train, w, 0.0, 0.1, 1, CROSS_GRADIENT, m, pair_list(m), grads=grads)
        np.testing.assert_array_equal(store.theta, np.stack([m.theta for m in models]))


def _round_setup(prior, kind, K, pruned):
    """A cross-gradient run's config, store, mask and state from the
    runner's own builders, every client from its own start; ``pruned``
    prunes the mask to half its neighbours in round 1."""
    config = ExperimentConfig(
        prior_kind=prior, arch=kind, K=K, seed=5, grad_mode=CROSS_GRADIENT, shared_init=False, init_scale=0.3,
        sparsify_keep_fraction=0.5 if pruned else 1.0, sparsify_round=1,
    ).validate()
    _, train, test = runner.build_tasks(config)
    store = runner.build_models(config, train, test)
    mask = build_topology(config.topology_kind, K, seed=config.seed)
    return config, store, mask, runner.build_state(config, mask)


class TestCappedGradientBuffer:
    """The loglik pass stores the gradients of the round's leading pairs
    that fit in theta.PAIR_BUFFER_ELEMENTS, and local step 0 takes the rest
    afresh: a round is the same bits wherever the cap cuts the pair list,
    and no gradient at the round's parameters is taken twice."""

    K = 9  # three task groups of three clients
    # pairs the buffer holds: none, one, a cut inside client 1's row of a
    # full mask, and every pair of the full mask
    HELD = {"none": 0, "one": 1, "mid-row": K + 3, "all": K * K}

    @pytest.mark.parametrize("prior", ["sbm", "attention"])
    @pytest.mark.parametrize("kind", [SOFTMAX_REGRESSION, MLP_1HIDDEN])
    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize("held", sorted(HELD))
    @pytest.mark.parametrize("per_block", [3, None])
    def test_rounds_equal_the_uncapped_path(self, monkeypatch, prior, kind, pruned, held, per_block):
        runs, buffer = [], rounds.gradient_buffer
        for cap in (held, "all"):
            config, store, mask, state = _round_setup(prior, kind, self.K, pruned)
            D = store.arch.n_params
            _cap_pairs_per_block(monkeypatch, per_block, store.arch, n=config.samples_per_client)
            # half a row more, which holds no further pair
            monkeypatch.setattr(theta, "PAIR_BUFFER_ELEMENTS", self.HELD[cap] * D + D // 2)
            lengths = []

            def recording(n_pairs, D):
                lengths.append((n_pairs, len(grads := buffer(n_pairs, D))))
                return grads

            monkeypatch.setattr(rounds, "gradient_buffer", recording)
            outputs = []
            for r in range(3):
                graph, total, traffic = rounds.run_round(state, store, mask, r, config)
                outputs.append((np.array(graph), total, traffic))
            assert all(stored == min(n_pairs, self.HELD[cap]) for n_pairs, stored in lengths) and len(lengths) == 3
            runs.append((outputs, store.theta.copy(), mask.copy()))
        (got, theta_got, mask_got), (want, theta_want, mask_want) = runs
        for (graph_a, total_a, traffic_a), (graph_b, total_b, traffic_b) in zip(got, want):
            _assert_same_bits(graph_a, graph_b)
            assert total_a == total_b and traffic_a == traffic_b
        _assert_same_bits(theta_got, theta_want)
        np.testing.assert_array_equal(mask_got, mask_want)
        assert pruned == (np.count_nonzero(mask_got) < self.K * self.K)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("held", ["none", "one", "mid-row", "all"])
    def test_each_value_and_gradient_is_taken_once(self, monkeypatch, kind, held):
        # blocks of 3 pairs, so blocks straddle the cut; some allowed pairs
        # carry no weight, and past the cut step 0 takes no gradient for them
        arch = ARCHS[kind]
        rng = np.random.default_rng(71)
        models, train = _clients(rng, arch, K=self.K)
        w, mask = _random_graph(rng, self.K)
        store = client_store(models, train)
        pairs = pair_list(mask)
        ids = [(int(e // self.K), int(e % self.K)) for e in pairs]
        cut = {"none": 0, "one": 1, "mid-row": np.count_nonzero(mask[0]) + 2, "all": len(pairs)}[held]
        assert ids[cut - 1][0] == ids[cut][0] if held == "mid-row" else True
        _cap_pairs_per_block(monkeypatch, 3, arch)
        monkeypatch.setattr(theta, "PAIR_BUFFER_ELEMENTS", cut * arch.n_params)
        values, gradients = Counter(), {"loglik": Counter(), "step 0": Counter()}
        phase = ["loglik"]

        def counting(real):
            def kernel(thetas, X, Y, arch, out=None, *, value=True, grad=True, workspace):
                taken = _pair_ids(thetas, X, store, train)
                values.update(taken if value else ())
                gradients[phase[0]].update(taken if grad else ())
                return real(thetas, X, Y, arch, out, value=value, grad=grad, workspace=workspace)
            return kernel

        for module in (rounds, theta):
            monkeypatch.setattr(module, "batch_value_and_grad", counting(module.batch_value_and_grad))
        grads = rounds.gradient_buffer(len(pairs), arch.n_params)
        assert len(grads) == cut
        rounds.loglik_matrix(store, store.train, mask, pairs, grads)
        phase[0] = "step 0"
        cooperative_sgd_steps(store, store.train, w, 0.02, 0.2, 1, CROSS_GRADIENT, mask, pairs, grads=grads)
        needed = [pair for pair in ids[cut:] if pair[0] == pair[1] or w[pair] != 0.0]
        assert values == Counter(ids)
        assert gradients == {"loglik": Counter(ids[:cut]), "step 0": Counter(needed)}
        assert len(needed) < len(ids) - cut or held == "all"  # a zero-weight pair past the cut

    def test_a_k96_round_stays_below_the_uncapped_buffer(self):
        # the full-mask attention MLP round at K = 96: 9 216 pairs of D = 178,
        # whose whole buffer alone would hold 13.1 MB
        config, store, mask, state = _round_setup("attention", MLP_1HIDDEN, 96, pruned=False)
        uncapped = 96 * 96 * store.arch.n_params * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rounds.run_round(state, store, mask, 0, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < uncapped, (peak, uncapped)


def _poison_between_blocks_and_steps(monkeypatch, store):
    """NaN-fill the store's PairWorkspace wherever a block or a local step
    must not read what an earlier one left: before every batched call, all
    of it but the call's gathered inputs and the pass's running own
    gradients and update; after every fold, all but those two; and before
    each block of a step's own gradients, all of it but the rows of the own
    gradients that the step has taken so far. Floats read NaN, labels -1."""
    taken = []  # every (name, view) the store's passes have asked for

    def recording_take(ws, name, *shape, **kwargs):
        view = take(ws, name, *shape, **kwargs)
        if ws is store.workspace:
            taken.append((name, view))
        return view

    def poison(keep=()):
        for name, view in taken:
            if name not in keep:
                view.reshape(-1).view(np.uint8).fill(0xFF)

    def poisoned_kernel(real):
        def kernel(thetas, features, labels, arch, out=None, **kwargs):
            if np.shares_memory(thetas, store.theta):  # a block of own gradients, not gathered
                poison(("own",))
                out.reshape(-1).view(np.uint8).fill(0xFF)  # the block's own rows
            else:
                poison(("thetas", "features", "labels", "own", "delta"))
            return real(thetas, features, labels, arch, out, **kwargs)
        return kernel

    def poisoned_fold(*args):
        fold(*args)
        poison(("own", "delta"))

    take, fold = PairWorkspace.take, theta._fold
    monkeypatch.setattr(PairWorkspace, "take", recording_take)
    monkeypatch.setattr(theta, "_fold", poisoned_fold)
    for module in (rounds, theta):
        monkeypatch.setattr(module, "batch_value_and_grad", poisoned_kernel(module.batch_value_and_grad))


def _nbytes(ws):
    return sum(buffer.nbytes for buffer in ws._buffers.values())


class TestWorkspace:
    """A pass reuses one PairWorkspace for all its blocks and local steps.
    A shorter last block takes the leading part of each buffer, and nothing
    a block or a step reads may be left over from an earlier one: with the
    workspace NaN-filled between them the round still equals the per-pair
    oracle bit for bit. The loglik pass runs as in a round, so under
    cross-gradient local step 0 reads its stored gradients."""

    ROUTES = ["cross-stored", "cross-fresh", TAYLOR_APPROX]

    @staticmethod
    def _pairs_per_block(per_block, mask):
        """1 or 3 pairs, one past client 0's pairs (a cut inside client 1's
        row), or None for the default budget, which holds the whole pass."""
        return np.count_nonzero(mask[0]) + 1 if per_block == "mid-row" else per_block

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("per_block", [1, 3, "mid-row", None])
    @pytest.mark.parametrize("poisoned", [False, True], ids=["reused", "nan-filled"])
    def test_round_equals_the_per_pair_oracle(self, monkeypatch, kind, route, per_block, poisoned):
        arch = ARCHS[kind]
        rng = np.random.default_rng(90)
        models, train = _clients(rng, arch, K=8)
        w, mask = _random_graph(rng, 8)
        size = self._pairs_per_block(per_block, mask)
        _cap_pairs_per_block(monkeypatch, size, arch)
        rows = np.nonzero(mask)[0]
        edges = np.count_nonzero(observed_pairs(mask) & (w != 0.0))
        if size == 3:  # neither pair list fills its last block
            assert len(rows) % 3 and edges % 3
        if per_block == "mid-row":
            assert rows[size - 1] != rows[size - 2] and rows[size - 1] == rows[size] and len(rows) % size
        store, reference = _both(models, train)
        if poisoned:
            _poison_between_blocks_and_steps(monkeypatch, store)
        grad_mode = TAYLOR_APPROX if route == TAYLOR_APPROX else CROSS_GRADIENT
        grads = np.empty((len(rows), arch.n_params)) if route == "cross-stored" else None
        ll = rounds.loglik_matrix(store, store.train, mask, pair_list(mask), grads)
        np.testing.assert_array_equal(ll, reference_loglik_matrix(models, train, mask))
        cooperative_sgd_steps(store, store.train, w, 0.02, 0.2, 3, grad_mode, mask, pair_list(mask), grads=grads)
        reference_cooperative_sgd_steps(reference, train, w, 0.02, 0.2, 3, grad_mode, mask)
        _assert_same_thetas(store, reference)

    def test_buffers_grow_to_the_largest_call_and_are_kept(self):
        arch = ARCHS[MLP_1HIDDEN]
        rng = np.random.default_rng(92)
        thetas, X = rng.standard_normal((6, arch.n_params)), rng.standard_normal((6, 8, arch.d))
        Y = rng.integers(0, arch.C, (6, 8))
        ws = PairWorkspace()
        small = ws.take("P", 5, 8, arch.C)
        grown = ws.take("P", 6, 8, arch.C)
        assert not np.shares_memory(small, grown) and grown.flags.c_contiguous
        assert np.shares_memory(ws.take("P", 2, 8, arch.C), grown)  # a smaller request reuses the larger buffer
        assert ws.take("is_label", 3, dtype=bool).dtype == bool
        values, grads = batch_value_and_grad(thetas, X, Y, arch, workspace=ws)
        np.testing.assert_array_equal(values, batch_log_likelihood(thetas, X, Y, arch, workspace=PairWorkspace()))
        np.testing.assert_array_equal(
            grads, batch_value_and_grad(thetas, X, Y, arch, value=False, workspace=PairWorkspace())[1])
        assert np.shares_memory(grads, ws.take("grads", 6, arch.n_params))  # results are the workspace's views

    def test_the_store_keeps_its_workspace(self):
        # a round's passes, and the next round's, allocate no buffer anew
        rng = np.random.default_rng(93)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN], K=8)
        w, mask = _random_graph(rng, 8)
        store = client_store(models, train)
        ws = store.workspace

        def round_():
            grads = np.empty((np.count_nonzero(mask), store.arch.n_params))
            rounds.loglik_matrix(store, store.train, mask, pair_list(mask), grads)
            cooperative_sgd_steps(
                store, store.train, w, 0.02, 0.2, 2, CROSS_GRADIENT, mask, pair_list(mask), grads=grads
            )
            dirac.dpsgd_step(store, w, store.train, 0.1)

        round_()
        buffers = dict(ws._buffers)
        round_()
        assert store.workspace is ws and ws._buffers.keys() == buffers.keys()
        assert all(ws._buffers[name] is buffer for name, buffer in buffers.items())

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("route", ROUTES)
    def test_memory_does_not_grow_with_the_block_size(self, monkeypatch, kind, route):
        # the same 6 400 pairs (6 320 weighted ones for the cooperative
        # pass) cut into 2 blocks or 20. A pass on a new store fills its
        # workspace and, beyond it, peaks at the same level whatever the
        # block count, as no block allocates; a second pass finds the
        # store's workspace filled and allocates none. numpy's ufuncs may
        # still buffer up to np.getbufsize() elements per operand in a call.
        arch, K = BENCH_ARCHS[kind], 80
        ufunc_buffers = 4 * np.getbufsize() * 8
        rng = np.random.default_rng(91)
        models, train = _clients(rng, arch, K=K)
        mask, w = full_mask(K), rng.uniform(0.05, 1.0, (K, K))
        pairs = pair_list(mask)  # a round takes its list once, before its passes
        grad_mode = TAYLOR_APPROX if route == TAYLOR_APPROX else CROSS_GRADIENT

        def new_store():
            """A store with an empty workspace; under stored gradients, its
            loglik pass's gradients, taken on a copy of it."""
            grads = None
            if route == "cross-stored":
                grads = np.empty((K * K, arch.n_params))
                copy = client_store(models, train)
                rounds.loglik_matrix(copy, copy.train, mask, pairs, grads)
            return client_store(models, train), grads

        def peak_of(run, store, grads):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(store, grads)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        passes = {
            "loglik": lambda store, grads: rounds.loglik_matrix(store, store.train, mask, pairs, grads),
            "coop": lambda store, grads: cooperative_sgd_steps(
                store, store.train, w, 0.02, 0.2, 2, grad_mode, mask, pairs, grads=grads),
        }
        for name, run in passes.items():
            first, again, size = {}, {}, {}
            for blocks in (2, 20):
                _cap_pairs_per_block(monkeypatch, K * K // blocks, arch)
                run(*new_store())  # numpy's own first-call allocations
                store, grads = new_store()
                first[blocks] = peak_of(run, store, grads)
                size[blocks] = _nbytes(store.workspace)
                again[blocks] = peak_of(run, store, grads)
                assert _nbytes(store.workspace) == size[blocks]
                first[blocks] -= size[blocks]
            # a block's own copy of its inputs or temporaries would show
            assert size[2] - size[20] > 2 * ufunc_buffers
            assert abs(first[2] - first[20]) <= ufunc_buffers, (name, first)
            assert abs(again[2] - again[20]) <= ufunc_buffers, (name, again)
            assert max(again.values()) <= ufunc_buffers + K * K * 64, (name, again)


class TestLayout:
    # The flat layout W1, b1, W2, b2, ... (each W out x in, row-major), index
    # by index, for the kernel's unpack_layers and the oracle's own unpackers.
    @pytest.mark.parametrize("widths, blocks", [
        ((5, 3), [(0, (3, 5)), (15, (3,))]),
        ((5, 4, 3), [(0, (4, 5)), (20, (4,)), (24, (3, 4)), (36, (3,))]),
        (ENCODER_WIDTHS, [(0, (6, 18)), (108, (6,)), (114, (4, 6)), (138, (4,))]),
    ])
    def test_blocks_hold_their_exact_index_ranges(self, widths, blocks):
        size = blocks[-1][0] + blocks[-1][1][0]
        assert layout_size(widths) == size
        theta = np.arange(size, dtype=float)
        kernel = [part for layer in unpack_layers(theta, widths) for part in layer]
        if len(widths) == 2:
            oracle = unpack_linear(theta, ArchSpec(SOFTMAX_REGRESSION, *widths))
        else:
            oracle = unpack_mlp(theta, *widths)
        for views in (kernel, oracle):
            assert len(views) == len(blocks)
            for view, (start, shape) in zip(views, blocks):
                assert view.shape == shape
                np.testing.assert_array_equal(view.ravel(), np.arange(start, start + view.size))

    @pytest.mark.parametrize("lead", [(), (0,), (1,), (5,)])
    @pytest.mark.parametrize("widths", [arch.widths for arch in ARCHS.values()] + [ENCODER_WIDTHS])
    def test_pack_inverts_unpack(self, widths, lead):
        x = np.random.default_rng(52).standard_normal(lead + (layout_size(widths),))
        layers = unpack_layers(x, widths)
        assert [(W.shape, b.shape) for W, b in layers] == [
            (lead + (n_out, n_in), lead + (n_out,)) for n_in, n_out in zip(widths, widths[1:])
        ]
        np.testing.assert_array_equal(pack_layers(layers), x)

    @pytest.mark.parametrize("kind, widths", [(SOFTMAX_REGRESSION, (5, 3)), (MLP_1HIDDEN, (5, 4, 3))])
    def test_n_params_is_the_layout_size(self, kind, widths):
        arch = ARCHS[kind]
        assert arch.widths == widths
        assert layout_size(arch.widths) == arch.n_params


class TestClientStore:
    def test_items_are_views_of_the_rows(self):
        rng = np.random.default_rng(50)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=4)
        before = [m.theta.copy() for m in models]
        store = client_store(models, train)
        assert len(store) == len(store.train) == 4 and store.test is None
        for i, m in enumerate(store):
            assert np.shares_memory(m.theta, store.theta[i]) and np.shares_memory(m.init_theta, store.init_theta[i])
            np.testing.assert_array_equal(m.theta, before[i])
            np.testing.assert_array_equal(store.train[i].features, train[i].features)
            np.testing.assert_array_equal(store.train[i].labels, train[i].labels)
        # every write goes through the stack, and the items show it; they are read-only
        store.theta[2] = 7.0
        np.testing.assert_array_equal(store[2].theta, 7.0)
        with pytest.raises(AttributeError):
            store[2].theta = np.zeros(store.arch.n_params)
        with pytest.raises(ValueError):
            store[2].theta[0] = 1.0
        np.testing.assert_array_equal(store.theta[2], 7.0)
        with pytest.raises(ValueError):
            store.init_theta[0, 0] = 1.0
        cooperative_sgd_steps(
            store, store.train, np.eye(4), 0.0, 0.1, 1, CROSS_GRADIENT, full_mask(4), pair_list(full_mask(4))
        )
        assert not np.array_equal(store.theta[0], before[0])
        for m, theta in zip(models, before):  # the lists it was stacked from are left alone
            np.testing.assert_array_equal(m.theta, theta)

    @pytest.mark.parametrize("shared_init", [True, False])
    @pytest.mark.parametrize("arch", ["softmax-regression", "mlp-1hidden"])
    def test_build_models_draws_the_per_client_stack(self, shared_init, arch):
        cfg = ExperimentConfig(K=6, M=4, N=2, num_groups=2, feature_dim=5, arch=arch, hidden_units=4, seed=17,
                               init_scale=0.3, shared_init=shared_init).validate()
        _, train, test = runner.build_tasks(cfg)
        store = runner.build_models(cfg, train, test)
        assert store.train is train and store.test is test
        # the draws of one model per client, as the run made them before it
        # held its models as one stack
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        D = store.arch.n_params
        if shared_init:
            theta0 = cfg.init_scale * rng.standard_normal(D)
            want = [theta0.copy() for _ in range(cfg.K)]
        else:
            want = [cfg.init_scale * rng.standard_normal(D) for _ in range(cfg.K)]
        assert store.theta.shape == (cfg.K, D) and len(store) == cfg.K
        for k in range(cfg.K):
            np.testing.assert_array_equal(store.theta[k], want[k])
            np.testing.assert_array_equal(store.init_theta[k], want[k])
        # dirac's w @ theta reads the stack; an F-ordered one moves its last bits
        assert store.theta.flags.c_contiguous

    def test_the_stack_is_copied_into_c_order(self):
        arch = ARCHS[SOFTMAX_REGRESSION]
        row = np.arange(arch.n_params, dtype=float)
        for theta in (np.broadcast_to(row, (4, arch.n_params)), np.asfortranarray(np.tile(row, (4, 1)))):
            store = ClientStore(theta, arch)
            assert store.theta.flags.c_contiguous and store.init_theta.flags.c_contiguous
            assert not np.shares_memory(store.theta, theta)
            np.testing.assert_array_equal(store.theta, theta)

    def test_init_theta_is_a_read_only_copy(self):
        arch = ARCHS[MLP_1HIDDEN]
        theta = np.random.default_rng(51).standard_normal((3, arch.n_params))
        store = ClientStore(theta, arch)
        assert not np.shares_memory(store.init_theta, store.theta)
        with pytest.raises(ValueError):
            store.init_theta[1, 0] = 5.0
        store.theta *= 3.0
        store.theta[2] = 0.0
        np.testing.assert_array_equal(store.init_theta, theta)
        np.testing.assert_array_equal(store[1].init_theta, theta[1])

    def test_theta_width_checked(self):
        arch = ARCHS[MLP_1HIDDEN]
        for theta in (np.zeros((3, arch.n_params + 1)), np.zeros((3, arch.n_params - 1)), np.zeros(arch.n_params)):
            with pytest.raises(ValueError, match=f"arch wants K x {arch.n_params}"):
                ClientStore(theta, arch)


class TestContracts:
    # the shapes are checked once, when the store is built
    @pytest.mark.parametrize("n, d", [(9, 5), (8, 4)])
    def test_unequal_train_sets_are_configuration_errors(self, n, d):
        rng = np.random.default_rng(9)
        arch = ARCHS[SOFTMAX_REGRESSION]
        models, train = _clients(rng, arch, K=4)
        train[2] = tiny_dataset(rng, n, d, arch.C)
        with pytest.raises(ConfigurationError, match="share their size and feature width"):
            client_store(models, train)

    def test_feature_width_must_match_the_models(self):
        rng = np.random.default_rng(10)
        arch = ARCHS[SOFTMAX_REGRESSION]
        models, _ = _clients(rng, arch, K=3)
        train = [tiny_dataset(rng, 8, arch.d + 1, arch.C) for _ in range(3)]
        with pytest.raises(ConfigurationError, match="not 5-dimensional"):
            client_store(models, train)
        with pytest.raises(ConfigurationError, match="not 5-dimensional"):
            ClientStore(np.stack([m.theta for m in models]), arch,
                        stack_datasets(_clients(rng, arch, K=3)[1]), stack_datasets(train))

    def test_one_train_set_per_client(self):
        rng = np.random.default_rng(13)
        arch = ARCHS[SOFTMAX_REGRESSION]
        models, train = _clients(rng, arch, K=4)
        with pytest.raises(ConfigurationError, match="one train set per model"):
            client_store(models, train[:3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    @pytest.mark.parametrize("eta1", [1e100, 1e160])
    def test_divergence_names_the_same_client_and_step(self, grad_mode, eta1):
        rng = np.random.default_rng(11)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN], K=5)
        w = rng.uniform(0.1, 1.0, (5, 5))
        a, b = _both(models, train)
        with pytest.raises(DivergenceError) as got:
            cooperative_sgd_steps(a, a.train, w, 10.0, eta1, 6, grad_mode, full_mask(5), pair_list(full_mask(5)))
        with pytest.raises(DivergenceError) as want:
            reference_cooperative_sgd_steps(b, train, w, 10.0, eta1, 6, grad_mode, full_mask(5))
        assert str(got.value) == str(want.value)
        _assert_same_thetas(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_non_finite_update_names_the_same_client(self, grad_mode):
        rng = np.random.default_rng(12)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=5)
        models[3].theta[0] = 1e308  # its ridge term overflows, and its own gradient
        w = rng.uniform(0.1, 1.0, (5, 5))
        a, b = _both(models, train)
        with pytest.raises(DivergenceError) as got:
            cooperative_sgd_steps(a, a.train, w, 10.0, 0.1, 2, grad_mode, full_mask(5), pair_list(full_mask(5)))
        with pytest.raises(DivergenceError) as want:
            reference_cooperative_sgd_steps(b, train, w, 10.0, 0.1, 2, grad_mode, full_mask(5))
        assert str(got.value) == str(want.value)
        # cross-gradients keep the overflow in client 3's row; the surrogate
        # hands client 3's own gradient to client 0 first
        first = 3 if grad_mode == CROSS_GRADIENT else 0
        assert str(got.value) == f"client {first} produced a non-finite update at local step 0"


class TestGossipEquivalence:
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_metropolis_graphs_several_steps(self, kind, seed):
        rng = np.random.default_rng(20 + seed)
        models, train = _clients(rng, ARCHS[kind], K=8)
        mask = build_topology("generalized-bipartite", 8, degree=2, seed=seed)
        w = dirac.metropolis_weights(mask)
        a, b = _both(models, train)
        for _ in range(3):
            dirac.dpsgd_step(a, w, a.train, 0.2)
            reference_dpsgd_step(b, w, train, 0.2)
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("per_block, sizes", [(1, [1] * 6), (4, [4, 2]), (None, [6])])
    def test_one_batched_gradient_call_per_pair_block(self, monkeypatch, per_block, sizes):
        rng = np.random.default_rng(23)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=6)
        seen = []

        def counting(thetas, X, Y, arch, *args, **kwargs):
            seen.append(len(thetas))
            return batch_value_and_grad(thetas, X, Y, arch, *args, **kwargs)

        monkeypatch.setattr(theta, "batch_value_and_grad", counting)
        _cap_pairs_per_block(monkeypatch, per_block, ARCHS[SOFTMAX_REGRESSION])
        (a, b), w = _both(models, train), np.full((6, 6), 1.0 / 6.0)
        dirac.dpsgd_step(a, w, a.train, 0.1)
        reference_dpsgd_step(b, w, train, 0.1)
        assert seen == sizes
        _assert_same_thetas(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_leaves_the_same_models(self):
        rng = np.random.default_rng(24)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN], K=4)
        models[2].theta[0] = np.inf
        w = np.full((4, 4), 0.25)
        a, b = _both(models, train)
        with pytest.raises(DivergenceError) as got:
            dirac.dpsgd_step(a, w, a.train, 0.1)
        with pytest.raises(DivergenceError) as want:
            reference_dpsgd_step(b, w, train, 0.1)
        assert str(got.value) == str(want.value)
        _assert_same_thetas(a, b)


def _per_sample_elements(n, arch):
    """What a client of n samples counts in a reporting block: its activations."""
    return n * max(arch.h, arch.C)


def _per_pair_elements(n, arch):
    """What a pair of n samples counts in a kernel block: its gathered
    parameters, features and labels, and its activations."""
    return arch.n_params + n * (arch.d + 1) + _per_sample_elements(n, arch)


class TestReportingEquivalence:
    # blocks of one client, of three clients (K = 7 is not a multiple), and
    # the default budget, which holds all seven in one block
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("n", [1, 13, 40, 400])
    def test_accuracy_and_loss_equal_per_pair(self, monkeypatch, kind, block, n, layout):
        arch = ARCHS[kind]
        if block is not None:
            monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", block * _per_sample_elements(n, arch))
        rng = np.random.default_rng(n)
        models, _ = _clients(rng, arch, K=7, spread=1.0)
        data = [tiny_dataset(rng, n, arch.d, arch.C) for _ in range(7)]
        test = stack_datasets(data)
        test.features = in_layout(test.features, layout)
        store = ClientStore(np.stack([m.theta for m in models]), arch, test=test)
        accs = runner.per_client(batch_accuracy, store.theta, store.test, arch)
        train_loglik = functools.partial(batch_log_likelihood, workspace=PairWorkspace())
        losses = -runner.per_client(train_loglik, store.theta, store.test, arch)
        np.testing.assert_array_equal(accs, [accuracy(m, ds) for m, ds in zip(models, data)])
        np.testing.assert_array_equal(losses, [loss(m, ds) for m, ds in zip(models, data)])

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("budget, sizes", [(1, [1] * 7), (3, [3, 3, 1]), (10**9, [7])])
    def test_blocks_stay_within_the_budget(self, monkeypatch, kind, budget, sizes):
        arch = ARCHS[kind]
        per_client = _per_sample_elements(10, arch)
        monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", budget * per_client)
        rng = np.random.default_rng(30)
        seen = []

        def counting(thetas, X, Y, arch):
            seen.append(len(thetas))
            return batch_accuracy(thetas, X, Y, arch)

        thetas = rng.standard_normal((7, arch.n_params))
        data = DataStack(rng.standard_normal((7, 10, arch.d)), rng.integers(0, arch.C, (7, 10)))
        runner.per_client(counting, thetas, data, arch)
        assert seen == sizes

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    def test_losses_in_one_workspace(self, monkeypatch, kind):
        # as the runner's train loss: every block's values are a view of the
        # same workspace buffer, copied out before the next block overwrites it
        arch = ARCHS[kind]
        monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", 3 * _per_sample_elements(10, arch))
        rng = np.random.default_rng(31)
        models, _ = _clients(rng, arch, K=7, spread=1.0)
        data = [tiny_dataset(rng, 10, arch.d, arch.C) for _ in range(7)]
        thetas = np.stack([m.theta for m in models])
        kernel = functools.partial(batch_log_likelihood, workspace=PairWorkspace())
        losses = -runner.per_client(kernel, thetas, stack_datasets(data), arch)
        np.testing.assert_array_equal(losses, [loss(m, ds) for m, ds in zip(models, data)])

    @pytest.mark.parametrize("kind", sorted(BENCH_ARCHS))
    def test_benchmark_shapes_in_the_runners_blocks(self, monkeypatch, kind):
        # K = 192 clients of 400 test samples, cut as the runner cuts the
        # softmax-regression workloads: blocks of 81, 81 and 30 clients
        arch = BENCH_ARCHS[kind]
        block = pairs_per_block(runner.REPORT_BLOCK_ELEMENTS, 400, BENCH_ARCHS[SOFTMAX_REGRESSION], gathered=False)
        assert block == 81
        monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", block * _per_sample_elements(400, arch))
        rng = np.random.default_rng(192)
        thetas = rng.standard_normal((192, arch.n_params))
        data = DataStack(rng.standard_normal((192, 400, arch.d)), rng.integers(0, arch.C, (192, 400)))
        seen = []

        def counting(thetas, X, Y, arch):
            seen.append(len(thetas))
            return batch_accuracy(thetas, X, Y, arch)

        accs = runner.per_client(counting, thetas, data, arch)
        losses = -runner.per_client(
            functools.partial(batch_log_likelihood, workspace=PairWorkspace()), thetas, data, arch
        )
        assert seen == [81, 81, 30]
        sets = [Dataset(data.features[k], data.labels[k], tuple(range(arch.C))) for k in range(192)]
        models = [LocalModel(thetas[k], arch) for k in range(192)]
        np.testing.assert_array_equal(accs, [accuracy(m, ds) for m, ds in zip(models, sets)])
        np.testing.assert_array_equal(losses, [loss(m, ds) for m, ds in zip(models, sets)])

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_ties_go_to_the_lowest_class(self, layout):
        arch = ARCHS[SOFTMAX_REGRESSION]
        thetas = np.zeros((2, arch.n_params))
        X = in_layout(np.ones((2, 4, arch.d)), layout)
        Y = np.array([[0, 0, 0, 0], [1, 2, 0, 1]])
        np.testing.assert_array_equal(batch_accuracy(thetas, X, Y, arch), [1.0, 0.25])


class TestStackedTestSets:
    @pytest.mark.parametrize("setting", ["sbm", "random"])
    def test_views_of_one_array_with_the_sampled_values(self, setting):
        K, M, N, seed = 6, 6, 2, 11
        num_groups = 3 if setting == "sbm" else None
        assignment, train, test = gen_tasks(
            K, M, N, 8, seed, num_groups=num_groups, test_samples_per_client=30, d=8, sigma=0.7, separation=2.0
        )
        assert train.features.shape == (K, 8, 8) and train.labels.shape == (K, 8)
        assert test.features.shape == (K, 30, 8) and test.labels.shape == (K, 30)
        # the train stack is sample-major, as the pair kernel gathers it; the
        # test stack is class-major, as batch_accuracy reads it
        assert train.features.flags.c_contiguous
        assert test.features.swapaxes(1, 2).flags.c_contiguous
        # gen_tasks' seed spawns the assignment's, the universe's and then each client's seed
        _, universe_seed, *seeds = np.random.SeedSequence(seed).spawn(2 + K)
        universe = make_universe(M, 8, 0.7, 2.0, universe_seed)
        for k in range(K):
            want = sample_class_data(universe, assignment.class_sets[k], 8, 30, seeds[k])
            for stack, ds, split in zip((train, test), want, ("train", "test")):
                row = stack[k]
                assert np.shares_memory(row.features, stack.features) and np.shares_memory(row.labels, stack.labels)
                np.testing.assert_array_equal(row.features, ds.features)
                np.testing.assert_array_equal(row.labels, ds.labels)
                assert assignment.class_sets[k] == ds.class_set and stack.split == split

    @pytest.mark.parametrize("N, want", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_labels_take_the_smallest_unsigned_type(self, N, want):
        # one byte per sample up to 256 classes a client; at N = 257 (one
        # training sample of each class) the last local label is 256
        _, train, test = gen_tasks(3, N, N, N, 4, test_samples_per_client=2, d=N)
        assert train.labels.dtype == want and test.labels.dtype == want
        np.testing.assert_array_equal(np.sort(train.labels, axis=1), np.broadcast_to(np.arange(N), (3, N)))

    def test_datasets_that_are_not_rows_are_rejected(self):
        # datasets of unequal size or feature width cannot be rows of one stack
        rng = np.random.default_rng(0)
        same = [tiny_dataset(rng, 6, 3, 2) for _ in range(3)]
        assert stack_datasets(same).features.shape == (3, 6, 3)
        for odd in (tiny_dataset(rng, 5, 3, 2), tiny_dataset(rng, 6, 4, 2)):
            with pytest.raises(ConfigurationError):
                stack_datasets([*same, odd])
