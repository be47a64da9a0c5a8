"""Fixed-graph gossip: reductions, fixed points and the two derivations."""

import numpy as np
import pytest

from scool.em import dirac
from scool.em.state import DiracState
from scool.errors import ConfigurationError, DivergenceError
from scool.models import ArchSpec
from scool.topology import build_topology

from conftest import LocalModel, client_store, grad, model_list, tiny_dataset


def manifold_descent_step(models, w, train_sets, eta1):
    """The pre-collapse form of dpsgd_step: descend on the own loss plus the
    pairwise distance penalty (lambda/2) sum_j (w_ij + w_ji) ||theta_i - theta_j||^2
    with lambda = 1/eta1. Algebraically identical to ``dpsgd_step``."""
    w = DiracState(w).w
    lam = 1.0 / eta1
    K = len(models)
    thetas = np.stack([m.theta for m in models])
    grads = np.stack([grad(models[i], train_sets[i]) for i in range(K)])
    new = np.empty_like(thetas)
    for i in range(K):
        pull = np.zeros_like(thetas[i])
        for j in range(K):
            pull += 0.5 * (w[i, j] + w[j, i]) * (thetas[i] - thetas[j])
        new[i] = thetas[i] - eta1 * (grads[i] + lam * pull)
    if not np.all(np.isfinite(new)):
        raise DivergenceError("manifold step produced non-finite parameters")
    for i in range(K):
        models[i].theta = new[i]


def _instances(rng, K=4, d=3, C=2, n=6):
    """A store of K clients and its train stack."""
    arch = ArchSpec("softmax-regression", d, C)
    models = [LocalModel(rng.standard_normal(arch.n_params), arch) for _ in range(K)]
    store = client_store(models, [tiny_dataset(rng, n, d, C) for _ in range(K)])
    return store, store.train


def reference_metropolis_weights(mask):
    """The per-pair loop metropolis_weights ran before it was vectorised."""
    K = len(mask)
    off = np.asarray(mask, dtype=bool).copy()
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1)
    w = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            if i != j and off[i, j]:
                w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


class TestMetropolisWeights:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_per_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 40))
        mask = rng.random((K, K)) < rng.uniform(0.05, 0.9)
        mask |= mask.T
        lonely = int(rng.integers(K))
        mask[lonely] = mask[:, lonely] = False  # a client with no neighbour
        np.testing.assert_array_equal(dirac.metropolis_weights(mask), reference_metropolis_weights(mask))

    def test_fully_connected_is_uniform(self):
        w = dirac.metropolis_weights(np.ones((5, 5), dtype=bool))
        np.testing.assert_allclose(w, 0.2)

    def test_valid_on_irregular_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mask = build_topology("generalized-bipartite", 8, degree=2, seed=int(rng.integers(100)))
            w = dirac.metropolis_weights(mask)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(w, w.T, atol=1e-12)
            assert np.all(w >= 0)
            assert np.all((w > 0)[mask] | np.eye(8, dtype=bool)[mask])


    def test_refuses_an_asymmetric_mask(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = False
        with pytest.raises(ConfigurationError, match="^metropolis weights need a symmetric mask$"):
            dirac.metropolis_weights(mask)


class TestGraph:
    def test_a_read_only_view_of_the_weights(self):
        mask = build_topology("group-ring", 12, k0=6)
        state = dirac.init_state(None, mask, 3)
        graph = dirac.graph(state, 12)
        assert not graph.flags.writeable and np.shares_memory(graph, state.w)
        np.testing.assert_array_equal(graph, dirac.metropolis_weights(mask))
        with pytest.raises(ValueError):
            graph[0, 0] = 1.0
        assert state.w.flags.writeable  # the state's own array is left as it was


class TestDpsgdStep:
    def test_identity_graph_is_local_sgd(self):
        rng = np.random.default_rng(1)
        models, train = _instances(rng)
        ref = model_list(models)
        dirac.dpsgd_step(models, np.eye(4), train, 0.2)
        for i in range(4):
            expect = ref[i].theta - 0.2 * grad(ref[i], train[i])
            np.testing.assert_array_equal(models[i].theta, expect)

    def test_uniform_averaging_fixed_point_with_zero_gradients(self):
        # the zero-gradient (converged) limit is emulated exactly by a zero
        # step size: the update degenerates to gossip averaging
        rng = np.random.default_rng(2)
        models, train = _instances(rng, K=3)
        w = np.full((3, 3), 1.0 / 3.0)
        avg = np.mean([m.theta for m in models], axis=0)
        dirac.dpsgd_step(models, w, train, 0.0)
        for m in models:
            np.testing.assert_allclose(m.theta, avg, atol=1e-14)
        dirac.dpsgd_step(models, w, train, 0.0)
        for m in models:
            np.testing.assert_allclose(m.theta, avg, atol=1e-14)

    def test_matches_manifold_derivation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            models_a, train = _instances(rng, K=5)
            models_b = model_list(models_a)  # the reference runs on a list
            w = dirac.metropolis_weights(np.ones((5, 5), dtype=bool))
            for _ in range(3):
                dirac.dpsgd_step(models_a, w, train, 0.15)
                manifold_descent_step(models_b, w, train, 0.15)
            for a, b in zip(models_a, models_b):
                np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)

    def test_gradient_at_pre_averaging_parameters(self):
        # the update must evaluate gradients before mixing, not after
        rng = np.random.default_rng(4)
        models, train = _instances(rng, K=3)
        thetas = np.stack([m.theta for m in models])
        grads = np.stack([grad(m, train[i]) for i, m in enumerate(model_list(models))])
        w = np.full((3, 3), 1.0 / 3.0)
        expect = w @ thetas - 0.3 * grads
        dirac.dpsgd_step(models, w, train, 0.3)
        for i in range(3):
            np.testing.assert_array_equal(models[i].theta, expect[i])

    def test_invalid_weights_rejected(self):
        # gossip weights are checked once, when the dirac state is built
        asym = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ConfigurationError, match="symmetric"):
            DiracState(asym)
        not_stochastic = np.full((3, 3), 0.5)
        with pytest.raises(ConfigurationError, match="row-stochastic"):
            DiracState(not_stochastic)
        negative = np.array([[1.5, -0.5], [-0.5, 1.5]])  # symmetric, rows sum to 1
        with pytest.raises(ConfigurationError, match="^dirac mixing weights must be nonnegative$"):
            DiracState(negative)


class TestDivergence:
    def test_names_the_client_and_step_and_moves_no_model(self, tmp_path, monkeypatch, capsys):
        # eta1 = 1e308 overflows a gradient at local step 1 of round 0: the
        # run exits 3 with one stderr line naming the client and the step,
        # as the cooperative steps do, and the failing step moved no model
        import json

        from scool.cli import EXIT_DIVERGED, main

        calls, real = [], dirac.dpsgd_step

        def spy(models, w, train_sets, eta1, step=0):
            calls.append((models, models.theta.copy(), step))
            real(models, w, train_sets, eta1, step)

        monkeypatch.setattr(dirac, "dpsgd_step", spy)
        path = tmp_path / "dirac.json"
        path.write_text(json.dumps({"prior_kind": "dirac", "eta1": 1e308, "rounds": 4}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_DIVERGED
        message = "round 0: client 0 produced a non-finite update at local step 1"
        assert capsys.readouterr().err == f"diverged: {message}\n"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diverged"] is True and report["divergence_message"] == message
        models, before, step = calls[-1]
        assert step == 1 and len(calls) == 2
        assert models.theta.tobytes() == before.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_gradients_whose_step_overflows_name_the_parameters(self):
        # client 1's biases at 1e308 leave its softmax, so its gradient,
        # finite, but doubling them overflows: the first client whose new
        # parameters are not finite is named, and no model moves
        rng = np.random.default_rng(5)
        models, train = _instances(rng, K=3)
        models.theta[1, -models.arch.C:] = 1e308
        before = models.theta.copy()
        with pytest.raises(DivergenceError, match="^client 1 parameters left the finite range at local step 4$"):
            dirac.dpsgd_step(models, 2.0 * np.eye(3), train, 0.1, 4)
        np.testing.assert_array_equal(models.theta, before)
