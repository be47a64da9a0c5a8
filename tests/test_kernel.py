"""Batched kernel: bit-for-bit equal to the per-pair loops.

The reference functions below are the per-pair bodies that
``rounds.loglik_matrix``, ``theta.cooperative_sgd_steps`` and
``dirac.dpsgd_step`` had before the kernel. They call the oracle's ``grad``
and ``log_likelihood`` (tests/conftest.py, one model on one dataset) once
per (model, dataset) pair and fold each row's update left to right. The
per-round reporting is checked against the oracle's ``accuracy`` and
``loss`` the same way. A run holds its models only as a ClientStore's K x D
stack; the store's per-client row views, which remain for the benchmark's
round-1 cross-check, are tested in TestClientStore.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
    Dataset,
    DataStack,
    batch_accuracy,
    batch_grad,
    batch_log_likelihood,
    pairs_per_block,
)
from scool.tasks import gen_tasks, make_universe
from scool.topology import CROSS_GRADIENT, TAYLOR_APPROX, build_topology

from conftest import (
    LocalModel,
    accuracy,
    client_store,
    full_mask,
    grad,
    log_likelihood,
    loss,
    model_list,
    random_attention_setup,
    sample_class_data,
    stack_datasets,
    tiny_dataset,
)

ARCHS = {
    SOFTMAX_REGRESSION: ArchSpec(SOFTMAX_REGRESSION, d=5, C=3),
    MLP_1HIDDEN: ArchSpec(MLP_1HIDDEN, d=5, C=3, h=4),
}
# the benchmark workloads' models: d = 8 features, C = 2 classes, h = 16
BENCH_ARCHS = {
    SOFTMAX_REGRESSION: ArchSpec(SOFTMAX_REGRESSION, d=8, C=2),
    MLP_1HIDDEN: ArchSpec(MLP_1HIDDEN, d=8, C=2, h=16),
}


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


def reference_dpsgd_step(models, w, train_sets, eta1):
    K = len(models)
    thetas = np.stack([m.theta for m in models])
    grads = np.stack([grad(models[i], train_sets[i]) for i in range(K)])
    new = w @ thetas - eta1 * grads
    if not np.all(np.isfinite(new)):
        raise DivergenceError("gossip step produced non-finite parameters")
    for i in range(K):
        models[i].theta = new[i]


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


class TestBatchKernel:
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 8, 13])
    def test_rows_equal_per_pair_functions(self, kind, n):
        arch = ARCHS[kind]
        rng = np.random.default_rng(n)
        thetas = rng.standard_normal((6, arch.n_params))
        X = rng.standard_normal((6, n, arch.d))
        Y = rng.integers(0, arch.C, (6, n))
        G = batch_grad(thetas, X, Y, arch)
        L = batch_log_likelihood(thetas, X, Y, arch)
        for e in range(6):
            model = LocalModel(thetas[e], arch)
            data = Dataset(X[e], Y[e], tuple(range(arch.C)))
            np.testing.assert_array_equal(G[e], grad(model, data))
            assert L[e] == log_likelihood(model, data)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    def test_no_pairs(self, kind):
        arch = ARCHS[kind]
        thetas = np.zeros((0, arch.n_params))
        X = np.zeros((0, 8, arch.d))
        Y = np.zeros((0, 8), dtype=int)
        assert batch_grad(thetas, X, Y, arch).shape == (0, arch.n_params)
        assert batch_log_likelihood(thetas, X, Y, arch).shape == (0,)


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
        G = batch_grad(thetas, X, Y, arch)
        L = batch_log_likelihood(thetas, X, Y, arch)
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

    def test_ties_and_nan_rank_as_in_argmax(self):
        # zero weights on a zero feature: pair e's logits are its bias row Z[e]
        Z = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 2.0], [np.nan, 3.0, 1.0], [1.0, np.nan, np.nan],
                      [np.inf, np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [1.0, -np.inf, np.inf]])
        arch = ArchSpec(SOFTMAX_REGRESSION, d=1, C=3)
        thetas = np.concatenate([np.zeros((len(Z), 3)), Z], axis=1)
        X = np.zeros((len(Z), 1, 1))
        for label in range(3):
            got = batch_accuracy(thetas, X, np.full((len(Z), 1), label), arch)
            np.testing.assert_array_equal(got, np.argmax(Z, axis=1) == label)

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("n", [1, 400])
    def test_ties_and_nan_reach_the_class_rows(self, kind, n):
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
        X = rng.standard_normal((len(Z), n, arch.d))
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
            rounds.loglik_matrix(store, store.train, mask), reference_loglik_matrix(models, train, mask)
        )

    def test_no_mask(self):
        rng = np.random.default_rng(3)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN])
        store = client_store(models, train)
        mask = full_mask(len(models))
        np.testing.assert_array_equal(
            rounds.loglik_matrix(store, store.train, mask), reference_loglik_matrix(models, train, mask)
        )

    def test_evaluates_only_allowed_pairs(self, monkeypatch):
        rng = np.random.default_rng(4)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION])
        store = client_store(models, train)
        _, mask = _random_graph(rng, len(models))
        seen = []

        def counting(thetas, X, Y, arch):
            seen.extend(_pair_ids(thetas, X, models, train))
            return batch_log_likelihood(thetas, X, Y, arch)

        monkeypatch.setattr(rounds, "batch_log_likelihood", counting)
        for per_block in (1, 3, None):
            with monkeypatch.context() as patch:
                _cap_pairs_per_block(patch, per_block, ARCHS[SOFTMAX_REGRESSION])
                seen.clear()
                rounds.loglik_matrix(store, store.train, mask)
            # every allowed pair exactly once, and no other pair
            assert Counter(seen) == Counter(zip(*map(list, np.nonzero(mask))))


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
        cooperative_sgd_steps(a, a.train, w, 0.03, 0.2, 3, grad_mode, mask)
        reference_cooperative_sgd_steps(b, train, w, 0.03, 0.2, 3, grad_mode, mask)
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_dense_weights_without_mask(self, grad_mode):
        rng = np.random.default_rng(5)
        models, train = _clients(rng, ARCHS[MLP_1HIDDEN], K=9)
        w = rng.uniform(0.0, 1.0, (9, 9))
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, w, 1e-4, 0.25, 2, grad_mode, full_mask(9))
        reference_cooperative_sgd_steps(b, train, w, 1e-4, 0.25, 2, grad_mode, full_mask(9))
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_identity_weights_as_local_only(self, grad_mode):
        rng = np.random.default_rng(6)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=5)
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, np.eye(5), 0.0, 0.1, 3, grad_mode, full_mask(5))
        reference_cooperative_sgd_steps(b, train, np.eye(5), 0.0, 0.1, 3, grad_mode, full_mask(5))
        _assert_same_thetas(a, b)

    @pytest.mark.parametrize("grad_mode", [CROSS_GRADIENT, TAYLOR_APPROX])
    def test_attention_coupling(self, grad_mode):
        rng = np.random.default_rng(7)
        models, state = random_attention_setup(rng, K=6)
        arch = models[0].arch
        train = [tiny_dataset(rng, 8, arch.d, arch.C) for _ in range(6)]
        state.w, mask = _random_graph(rng, 6, zeros=0.1)
        coupling = lambda ms: attention.coupling_descent_terms(ms, state, mask)
        a, b = _both(models, train)
        cooperative_sgd_steps(a, a.train, state.w, 0.01, 0.2, 3, grad_mode, mask, coupling)
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
        # each step: the K own gradients, then every weighted edge once
        want = Counter(zip(*map(list, np.nonzero(edges | np.eye(len(models), dtype=bool)))))
        seen, sizes = [], []

        def counting(thetas, X, Y, arch):
            seen.extend(_pair_ids(thetas, X, models, train))
            sizes.append(len(thetas))
            return batch_grad(thetas, X, Y, arch)

        monkeypatch.setattr(theta, "batch_grad", counting)
        for per_block in (1, 3, None):
            with monkeypatch.context() as patch:
                _cap_pairs_per_block(patch, per_block, ARCHS[SOFTMAX_REGRESSION])
                seen.clear()
                cooperative_sgd_steps(models, models.train, w, 0.0, 0.1, 2, CROSS_GRADIENT, mask)
            assert Counter(seen) == Counter({pair: 2 for pair in want})

        sizes.clear()
        cooperative_sgd_steps(models, models.train, w, 0.0, 0.1, 2, TAYLOR_APPROX, mask)
        assert sizes == [len(models)] * 2


def _cap_pairs_per_block(monkeypatch, per_block, arch, n=8):
    """Blocks of per_block pairs of n samples; None keeps the default."""
    if per_block is not None:
        monkeypatch.setattr(theta, "PAIR_BLOCK_ELEMENTS", per_block * _per_sample_elements(n, arch))


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
    """Blocks of one and three pairs cut rows and slot segments mid-way."""

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
            rounds.loglik_matrix(store, store.train, mask), reference_loglik_matrix(models, train, mask)
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
        cooperative_sgd_steps(a, a.train, w, 0.02, 0.2, 3, grad_mode, mask)
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
        cooperative_sgd_steps(a, a.train, np.eye(5), 0.01, 0.1, 2, grad_mode, full_mask(5))
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
            cooperative_sgd_steps(a, a.train, w, 10.0, 0.1, 2, grad_mode, mask)
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
            cooperative_sgd_steps(a, a.train, w, 10.0, 1e8, 2, grad_mode, mask)
        with pytest.raises(DivergenceError) as want:
            reference_cooperative_sgd_steps(b, train, w, 10.0, 1e8, 2, grad_mode, mask)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "client 3 parameters left the finite range at local step 0"
        _assert_same_thetas(a, b)
        for before, after in zip(models[:3], list(a)[:3]):
            assert not np.array_equal(before.theta, after.theta)
        np.testing.assert_array_equal(a[3].theta, models[3].theta)


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
        store[2].theta = np.full(store.arch.n_params, 7.0)  # assigning writes into the row
        np.testing.assert_array_equal(store.theta[2], 7.0)
        with pytest.raises(ValueError):
            store.init_theta[0, 0] = 1.0
        cooperative_sgd_steps(store, store.train, np.eye(4), 0.0, 0.1, 1, CROSS_GRADIENT, full_mask(4))
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
        store[2].theta = np.zeros(arch.n_params)
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
            cooperative_sgd_steps(a, a.train, w, 10.0, eta1, 6, grad_mode, full_mask(5))
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
            cooperative_sgd_steps(a, a.train, w, 10.0, 0.1, 2, grad_mode, full_mask(5))
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

    def test_one_batched_gradient_call_per_step(self, monkeypatch):
        rng = np.random.default_rng(23)
        models, train = _clients(rng, ARCHS[SOFTMAX_REGRESSION], K=6)
        sizes = []

        def counting(thetas, X, Y, arch):
            sizes.append(len(thetas))
            return batch_grad(thetas, X, Y, arch)

        monkeypatch.setattr(dirac, "batch_grad", counting)
        store = client_store(models, train)
        dirac.dpsgd_step(store, np.full((6, 6), 1.0 / 6.0), store.train, 0.1)
        assert sizes == [6]

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
    return n * max(arch.h, arch.C)


class TestReportingEquivalence:
    # blocks of one client, of three clients (K = 7 is not a multiple), and
    # the default budget, which holds all seven in one block
    @pytest.mark.parametrize("kind", sorted(ARCHS))
    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("n", [1, 13, 40, 400])
    def test_accuracy_and_loss_equal_per_pair(self, monkeypatch, kind, block, n):
        arch = ARCHS[kind]
        if block is not None:
            monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", block * _per_sample_elements(n, arch))
        rng = np.random.default_rng(n)
        models, _ = _clients(rng, arch, K=7, spread=1.0)
        data = [tiny_dataset(rng, n, arch.d, arch.C) for _ in range(7)]
        store = ClientStore(np.stack([m.theta for m in models]), arch, test=stack_datasets(data))
        accs = runner.per_client(batch_accuracy, store.theta, store.test, arch)
        losses = -runner.per_client(batch_log_likelihood, store.theta, store.test, arch)
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
        data = DataStack(rng.standard_normal((7, 10, arch.d)), rng.integers(0, arch.C, (7, 10)), [()] * 7)
        runner.per_client(counting, thetas, data, arch)
        assert seen == sizes

    @pytest.mark.parametrize("kind", sorted(BENCH_ARCHS))
    def test_benchmark_shapes_in_the_runners_blocks(self, monkeypatch, kind):
        # K = 192 clients of 400 test samples, cut as the runner cuts the
        # softmax-regression workloads: blocks of 81, 81 and 30 clients
        arch = BENCH_ARCHS[kind]
        block = pairs_per_block(runner.REPORT_BLOCK_ELEMENTS, 400, BENCH_ARCHS[SOFTMAX_REGRESSION])
        assert block == 81
        monkeypatch.setattr(runner, "REPORT_BLOCK_ELEMENTS", block * _per_sample_elements(400, arch))
        rng = np.random.default_rng(192)
        thetas = rng.standard_normal((192, arch.n_params))
        data = DataStack(rng.standard_normal((192, 400, arch.d)), rng.integers(0, arch.C, (192, 400)), [()] * 192)
        seen = []

        def counting(thetas, X, Y, arch):
            seen.append(len(thetas))
            return batch_accuracy(thetas, X, Y, arch)

        accs = runner.per_client(counting, thetas, data, arch)
        losses = -runner.per_client(batch_log_likelihood, thetas, data, arch)
        assert seen == [81, 81, 30]
        sets = [Dataset(data.features[k], data.labels[k], tuple(range(arch.C))) for k in range(192)]
        models = [LocalModel(thetas[k], arch) for k in range(192)]
        np.testing.assert_array_equal(accs, [accuracy(m, ds) for m, ds in zip(models, sets)])
        np.testing.assert_array_equal(losses, [loss(m, ds) for m, ds in zip(models, sets)])

    def test_ties_go_to_the_lowest_class(self):
        arch = ARCHS[SOFTMAX_REGRESSION]
        thetas = np.zeros((2, arch.n_params))
        X = np.ones((2, 4, arch.d))
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
                assert row.class_set == ds.class_set and row.split == split

    def test_datasets_that_are_not_rows_are_rejected(self):
        # datasets of unequal size or feature width cannot be rows of one stack
        rng = np.random.default_rng(0)
        same = [tiny_dataset(rng, 6, 3, 2) for _ in range(3)]
        assert stack_datasets(same).features.shape == (3, 6, 3)
        for odd in (tiny_dataset(rng, 5, 3, 2), tiny_dataset(rng, 6, 4, 2)):
            with pytest.raises(ConfigurationError):
                stack_datasets([*same, odd])
