"""The per-pair oracle in conftest (loss, gradient, likelihood, accuracy of
one model on one dataset) against independent oracles: scalar arithmetic,
finite differences, Monte Carlo. tests/test_kernel.py checks the batched
kernel against this oracle."""

import math

import numpy as np
import pytest

from scool.errors import ConfigurationError
from scool.models import ArchSpec

from conftest import Dataset, LocalModel, accuracy, grad, log_likelihood, logits, loss, sample_class_data, tiny_dataset


def _rand_instance(rng, arch_kind="softmax-regression", n=12, d=4, C=3, h=5):
    arch = ArchSpec(arch_kind, d=d, C=C, h=h if arch_kind == "mlp-1hidden" else 0)
    model = LocalModel(0.7 * rng.standard_normal(arch.n_params), arch)
    data = tiny_dataset(rng, n, d, C)
    return model, data


class TestLoss:
    def test_uniform_prediction_is_log_C(self):
        rng = np.random.default_rng(0)
        for C in (2, 3, 5):
            arch = ArchSpec("softmax-regression", d=4, C=C)
            model = LocalModel(np.zeros(arch.n_params), arch)
            data = tiny_dataset(rng, 20, 4, C)
            assert loss(model, data) == pytest.approx(math.log(C), abs=1e-12)

    def test_perfect_margin_limit_monotone(self):
        # correctly separating parameters scaled up drive the loss to zero
        arch = ArchSpec("softmax-regression", d=2, C=2)
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        data = Dataset(X, y, (0, 1))
        theta = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])  # W rows +/- e1
        values = []
        for s in (1.0, 2.0, 4.0, 8.0):
            values.append(loss(LocalModel(s * theta, arch), data))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_two_sample_hand_case(self):
        # logits (1,0) on sample one and (0,1) on sample two, both correct:
        # mean cross-entropy is -ln(e/(e+1))
        arch = ArchSpec("softmax-regression", d=1, C=2)
        theta = np.array([0.5, -0.5, 0.5, 0.5])  # W=(0.5,-0.5), b=(0.5,0.5)
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), (0, 1))
        model = LocalModel(theta, arch)
        np.testing.assert_allclose(
            logits(model, data.features), [[1.0, 0.0], [0.0, 1.0]], atol=1e-12
        )
        assert loss(model, data) == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_weight_decay_term(self):
        rng = np.random.default_rng(1)
        model, data = _rand_instance(rng)
        base = loss(model, data)
        ridge = loss(model, data, weight_decay=0.2)
        assert ridge == pytest.approx(base + 0.1 * float(model.theta @ model.theta))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        model, data = _rand_instance(rng, n=30)
        perm = rng.permutation(30)
        shuffled = Dataset(data.features[perm], data.labels[perm], data.class_set)
        assert abs(loss(model, data) - loss(model, shuffled)) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        model, _ = _rand_instance(rng, d=4)
        bad = tiny_dataset(rng, 5, 3, 3)
        with pytest.raises(ValueError):
            loss(model, bad)


class TestGrad:
    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            model, data = _rand_instance(rng, kind)
            g = grad(model, data)
            idx = rng.choice(len(g), size=min(10, len(g)), replace=False)
            for t in idx:
                def f(v, t=t):
                    th = model.theta.copy()
                    th[t] = v
                    return loss(LocalModel(th, model.arch, model.init_theta), data)
                num = (f(model.theta[t] + 1e-5) - f(model.theta[t] - 1e-5)) / 2e-5
                rel = abs(num - g[t]) / max(1e-8, abs(num))
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_zero_theta_bias_gradient_on_balanced_data(self):
        # class-balanced labels with mean-zero features: the bias block of
        # the gradient vanishes by symmetry
        arch = ArchSpec("softmax-regression", d=3, C=2)
        X = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]])
        data = Dataset(X, np.array([0, 1]), (0, 1))
        g = grad(LocalModel(np.zeros(arch.n_params), arch), data)
        np.testing.assert_allclose(g[arch.C * arch.d :], 0.0, atol=1e-14)

    def test_gradient_small_at_converged_minimizer(self):
        # 10k full-batch steps on a tiny separable set
        rng = np.random.default_rng(5)
        arch = ArchSpec("softmax-regression", d=2, C=2)
        X = np.array([[1.0, 0.3], [0.8, -0.2], [-1.0, 0.1], [-0.7, -0.4]])
        data = Dataset(X, np.array([0, 0, 1, 1]), (0, 1))
        model = LocalModel(0.01 * rng.standard_normal(arch.n_params), arch)
        for _ in range(10000):
            model.theta -= 1.0 * grad(model, data)
        assert np.linalg.norm(grad(model, data)) < 1e-3


class TestLogLikelihood:
    def test_uniform_prediction(self):
        arch = ArchSpec("softmax-regression", d=3, C=4)
        model = LocalModel(np.zeros(arch.n_params), arch)
        data = tiny_dataset(np.random.default_rng(6), 8, 3, 4)
        assert log_likelihood(model, data) == pytest.approx(-math.log(4))

    def test_equals_negative_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, data = _rand_instance(rng)
            assert log_likelihood(model, data) == -loss(model, data)

    def test_never_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            model, data = _rand_instance(rng)
            assert log_likelihood(model, data) <= 0.0

    def test_trained_model_prefers_own_distribution(self):
        from scool.tasks import make_universe

        hits = 0
        for seed in range(10):
            uni = make_universe(4, 6, sigma=0.6, seed=seed)
            own_tr, _ = sample_class_data(uni, (0, 1), 20, 10, seed=100 + seed)
            other_tr, _ = sample_class_data(uni, (2, 3), 20, 10, seed=200 + seed)
            arch = ArchSpec("softmax-regression", d=6, C=2)
            model = LocalModel(np.zeros(arch.n_params), arch)
            for _ in range(300):
                model.theta -= 0.5 * grad(model, own_tr)
            if log_likelihood(model, own_tr) > log_likelihood(model, other_tr):
                hits += 1
        assert hits == 10


class TestAccuracy:
    def test_perfect_on_trained_set(self):
        rng = np.random.default_rng(9)
        arch = ArchSpec("softmax-regression", d=2, C=2)
        X = np.array([[1.5, 0.0], [1.2, 0.4], [-1.3, 0.2], [-1.0, -0.5]])
        data = Dataset(X, np.array([0, 0, 1, 1]), (0, 1))
        model = LocalModel(0.01 * rng.standard_normal(arch.n_params), arch)
        for _ in range(2000):
            model.theta -= 1.0 * grad(model, data)
        assert loss(model, data) < 1e-3
        assert accuracy(model, data) == 1.0

    def test_tie_breaks_to_lowest_class(self):
        arch = ArchSpec("softmax-regression", d=2, C=3)
        model = LocalModel(np.zeros(arch.n_params), arch)
        data = Dataset(np.array([[0.4, -0.2]]), np.array([0]), (0, 1, 2))
        assert accuracy(model, data) == 1.0

    def test_random_models_near_chance(self):
        rng = np.random.default_rng(10)
        C = 4
        accs = []
        for _ in range(100):
            arch = ArchSpec("softmax-regression", d=5, C=C)
            model = LocalModel(rng.standard_normal(arch.n_params), arch)
            X = rng.standard_normal((40, 5))
            y = np.tile(np.arange(C), 10)
            accs.append(accuracy(model, Dataset(X, y, tuple(range(C)))))
        assert abs(np.mean(accs) - 1.0 / C) < 0.05


class TestLocalModelInvariants:
    def test_init_theta_frozen(self):
        arch = ArchSpec("softmax-regression", d=2, C=2)
        model = LocalModel(np.ones(arch.n_params), arch)
        model.theta = model.theta * 3.0
        np.testing.assert_array_equal(model.init_theta, np.ones(arch.n_params))
        with pytest.raises(ValueError):
            model.init_theta[0] = 5.0


class TestArchSpec:
    # the architecture's rules are configuration errors, which exit 2
    @pytest.mark.parametrize("kind, d, C, h", [
        ("convnet", 4, 2, 0), ("softmax-regression", 0, 2, 0),
        ("softmax-regression", 4, 1, 0), ("mlp-1hidden", 4, 2, 0),
    ])
    def test_rules_are_configuration_errors(self, kind, d, C, h):
        with pytest.raises(ConfigurationError):
            ArchSpec(kind, d=d, C=C, h=h)
