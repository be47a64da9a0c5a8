"""Attention prior: attention matrix, posterior rows, and the hand-written
encoder gradients against finite differences."""

import numpy as np
import pytest

from scool.config import ExperimentConfig
from scool.em import attention
from scool.em.elbo import elbo
from scool.em.state import PROB_FLOOR
from scool.errors import ConfigurationError, DivergenceError
from scool.special import softmax_tempered
from scool.topology import build_topology, pair_list, pair_matrix

from conftest import (
    LocalModel,
    attention_lists,
    central_diff,
    client_store,
    clone_attention,
    dense_attention_compute_p,
    dense_attention_coupling_terms,
    dense_attention_masked_row_softmax,
    dense_attention_phi_gradient,
    dense_attention_update_w,
    dense_elbo_attention,
    full_mask,
    model_deltas,
    random_attention_setup,
    random_loglik,
    random_symmetric_mask,
    round_lists,
    simplex_kkt_spread,
)


class TestComputeP:
    def test_equal_deltas_give_uniform_rows(self):
        rng = np.random.default_rng(0)
        models, state = random_attention_setup(rng, 4)
        models.theta[:] = models.init_theta + (models.theta[0] - models.init_theta[0])
        p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        np.testing.assert_allclose(p, 0.25, atol=1e-9)

    def test_identity_like_encoder_scalar_case(self):
        # two clients, orthogonal deltas, near-identity encoding: the first
        # row's logits are (||e1||^2, e1.e2) = (||e1||^2, 0)
        from scool.em.state import AttentionState
        from scool.models import ArchSpec

        arch = ArchSpec("softmax-regression", 1, 2)  # 4 parameters
        m1 = LocalModel(np.zeros(4), arch)
        m2 = LocalModel(np.zeros(4), arch)
        m1.theta = np.array([2.0, 0.0, 0.0, 0.0])
        m2.theta = np.array([0.0, 3.0, 0.0, 0.0])
        # one huge tanh layer approximating identity on the first two coords
        eps = 1e-4
        W1 = np.zeros((4, 4))
        W1[:2, :2] = np.eye(2) * eps
        W2 = np.zeros((2, 4))
        W2[:, :2] = np.eye(2) / eps
        phi = np.concatenate([W1.ravel(), np.zeros(4), W2.ravel(), np.zeros(2)])
        state = AttentionState(
            phi=phi, enc_dims=(4, 4, 2), w=np.full((2, 2), 0.5), p=np.full(4, 0.5),
            pairs=pair_list(full_mask(2)), tau_softmax=1.0,
        )
        E = attention.encode(phi, (4, 4, 2), attention.model_deltas(client_store([m1, m2])))
        np.testing.assert_allclose(E, [[2.0, 0.0], [0.0, 3.0]], atol=1e-3)
        p = pair_matrix(2, state.pairs, attention.compute_p(client_store([m1, m2]), phi, (4, 4, 2), 1.0, state.pairs))
        np.testing.assert_allclose(
            p[0], softmax_tempered([E[0] @ E[0], E[0] @ E[1]], 1.0), atol=1e-12
        )

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(1)
        models, state = random_attention_setup(rng, 6)
        p = attention.compute_p(models, state.phi, state.enc_dims, 0.7, state.pairs)
        assert p.shape == state.pairs.shape and np.all(p >= 0)
        p = pair_matrix(6, state.pairs, p)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestUpdateW:
    def test_zero_loglik_recovers_attention(self):
        rng = np.random.default_rng(2)
        models, state = random_attention_setup(rng, 5)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        w = attention.update_w(state, *attention_lists(state, np.zeros((5, 5))))
        np.testing.assert_allclose(w, pair_matrix(5, state.pairs, state.p), atol=1e-9)

    def test_uniform_attention_reduces_to_loglik_softmax(self):
        rng = np.random.default_rng(3)
        models, state = random_attention_setup(rng, 5)
        state.p = np.full(len(state.pairs), 0.2)
        ll = random_loglik(rng, 5)
        w = attention.update_w(state, *attention_lists(state, ll))
        logits = ll.copy()
        np.fill_diagonal(logits, 0.0)
        np.testing.assert_allclose(w, softmax_tempered(logits, 1.0, axis=-1), atol=1e-9)

    def test_row_kkt_stationarity(self):
        rng = np.random.default_rng(4)
        models, state = random_attention_setup(rng, 4)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        state.w = attention.update_w(state, *attention_lists(state, ll))
        for i in range(4):
            grads = []
            for j in range(4):
                def f(v, i=i, j=j):
                    w2 = state.w.copy()
                    w2[i, j] = v
                    return elbo(attention, clone_attention(state, w=w2), *round_lists(mask, ll)).total
                grads.append(central_diff(f, state.w[i, j], h=1e-7))
            assert simplex_kkt_spread(grads) < 1e-4

    def test_masked_row_excluded(self):
        rng = np.random.default_rng(5)
        models, state = random_attention_setup(rng, 4)
        mask = full_mask(4)
        mask[1, 2] = False
        state.pairs = pair_list(mask)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        w = attention.update_w(state, *attention_lists(state, random_loglik(rng, 4)))
        assert w[1, 2] == 0.0
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_loglik_off_the_list_and_on_the_diagonal_is_never_read(self):
        # update_w reads the log-likelihoods listed at its pairs and zeroes
        # the diagonal's: poison off the list and on the diagonal changes no bit
        rng = np.random.default_rng(3)
        models, state = random_attention_setup(rng, 6)
        mask = random_symmetric_mask(rng, 6)
        state.pairs = pair_list(mask)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        ll = random_loglik(rng, 6)
        poisoned = np.where(mask, ll, np.inf)
        poisoned[~mask & (rng.random((6, 6)) < 0.5)] = np.nan
        np.fill_diagonal(poisoned, np.nan)
        assert not mask.all()
        np.testing.assert_array_equal(
            attention.update_w(state, *attention_lists(state, poisoned)),
            attention.update_w(state, *attention_lists(state, ll)),
        )

    def test_random_symmetric_mask_confines_p_and_w(self):
        # under a pruned-topology-like mask the attention and the posterior
        # put exactly no mass off the mask and stay row-stochastic on it
        rng = np.random.default_rng(11)
        for _ in range(20):
            K = int(rng.integers(3, 9))
            models, state = random_attention_setup(rng, K)
            mask = random_symmetric_mask(rng, K)
            state.pairs = pair_list(mask)
            state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
            state.w = attention.update_w(state, *attention_lists(state, random_loglik(rng, K)))
            for name, rows in (("p", pair_matrix(K, state.pairs, state.p)), ("w", state.w)):
                assert np.all(rows[~mask] == 0.0), name
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12, err_msg=name)


class TestCouplingGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        models, state = random_attention_setup(rng, 4)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        state.w = attention.update_w(state, *attention_lists(state, ll))
        terms = attention.coupling_descent_terms(models, state, mask)
        i = 2

        def row_objective(theta_i):
            ms = client_store(models)
            ms.theta[i] = theta_i
            p = attention.compute_p(ms, state.phi, state.enc_dims, state.tau_softmax, state.pairs)
            p = pair_matrix(4, state.pairs, p)
            return float((state.w[i] * np.log(np.maximum(p[i], PROB_FLOOR))).sum())

        worst = 0.0
        for t in range(len(models[i].theta)):
            def f(v, t=t):
                th = models[i].theta.copy()
                th[t] = v
                return row_objective(th)
            num = central_diff(f, models[i].theta[t])
            worst = max(worst, abs(num - (-terms[i][t])) / max(1e-8, abs(num)))
        assert worst < 1e-4

    def test_argmax_of_rows_invariant_to_temperature(self):
        rng = np.random.default_rng(7)
        models, state = random_attention_setup(rng, 5)
        p1, p2 = (
            pair_matrix(5, state.pairs, attention.compute_p(models, state.phi, state.enc_dims, tau, state.pairs))
            for tau in (1.0, 0.25)
        )
        np.testing.assert_array_equal(p1.argmax(axis=1), p2.argmax(axis=1))


class TestPhiUpdate:
    def test_zero_gradient_when_matching(self):
        rng = np.random.default_rng(8)
        models, state = random_attention_setup(rng, 4)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        state.w = pair_matrix(4, state.pairs, state.p)
        g = attention.phi_gradient(state, models)
        assert np.max(np.abs(g)) < 1e-10

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(20):
            models, state = random_attention_setup(rng, 4)
            ll = random_loglik(rng, 4)
            state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
            state.w = attention.update_w(state, *attention_lists(state, ll))
            g = attention.phi_gradient(state, models)

            def objective(phi):
                p = attention.compute_p(models, phi, state.enc_dims, state.tau_softmax, state.pairs)
                return float((np.take(state.w, state.pairs) * np.log(np.maximum(p, PROB_FLOOR))).sum())

            idx = rng.choice(len(g), size=8, replace=False)
            for t in idx:
                def f(v, t=t):
                    p2 = state.phi.copy()
                    p2[t] = v
                    return objective(p2)
                num = central_diff(f, state.phi[t])
                worst = max(worst, abs(num - g[t]) / max(1e-8, abs(num)))
        assert worst < 1e-4

    def test_non_finite_gradient_is_a_divergence(self):
        # the prior update refuses an encoder step it cannot take, and keeps phi
        models, state = random_attention_setup(np.random.default_rng(11), 4)
        state.w = state.w.copy()
        state.w[1, 2] = np.nan
        phi = state.phi.copy()
        with pytest.raises(DivergenceError, match="^encoder gradient is non-finite$"):
            attention.update_prior(state, models, ExperimentConfig())
        np.testing.assert_array_equal(state.phi, phi)

    def test_repeated_steps_reduce_divergence(self):
        # 200 ascent steps with frozen w strictly shrink row-wise KL(w || p)
        rng = np.random.default_rng(10)
        models, state = random_attention_setup(rng, 5)
        ll = random_loglik(rng, 5)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        state.w = attention.update_w(state, *attention_lists(state, ll))

        def kl():
            p = pair_matrix(5, state.pairs, attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs))
            return float(np.sum(state.w * (np.log(np.maximum(state.w, PROB_FLOOR)) - np.log(np.maximum(p, PROB_FLOOR)))))

        start = kl()
        for _ in range(200):
            state.phi = attention.update_phi(state, models, ExperimentConfig(eta2=0.05))
        assert kl() < start


class TestPairRowSoftmax:
    # the oracle's row loop over the mask, which the list's rows of equal
    # degree share in one softmax
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_per_row_loop(self, seed, tau):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(7, 80))
        scores = 3.0 * rng.standard_normal((K, K))
        gap = np.abs(np.subtract.outer(np.arange(K), np.arange(K)))
        ring = np.minimum(gap, K - gap) <= K // 4
        bipartite = build_topology("generalized-bipartite", K, degree=2, seed=seed)
        lonely = rng.random((K, K)) < 0.5
        lonely[K // 2] = False  # this row holds only its diagonal
        masks = (np.ones((K, K), dtype=bool), ring, rng.random((K, K)) < rng.uniform(0.1, 0.9), bipartite, lonely)
        assert len(set(bipartite.sum(axis=1))) > 1  # unequal degrees
        for mask in masks:
            mask = mask | np.eye(K, dtype=bool)
            pairs = pair_list(mask)
            np.testing.assert_array_equal(
                attention._pair_row_softmax(np.take(scores, pairs), tau, pairs, K),
                np.take(dense_attention_masked_row_softmax(scores, tau, mask), pairs),
            )

    def test_a_non_finite_listed_score_is_a_divergence(self):
        scores = np.zeros((5, 5))
        scores[2, 4] = np.inf
        pairs = pair_list(full_mask(5))
        with pytest.raises(DivergenceError, match="attention scores over the temperature are non-finite"):
            attention._pair_row_softmax(np.take(scores, pairs), 1.0, pairs, 5)

    def test_fully_masked_row_names_the_first_client(self):
        mask = full_mask(5)
        mask[3] = mask[1] = False
        pairs = pair_list(mask)
        with pytest.raises(ConfigurationError, match="^client 1 has a fully masked row$"):
            attention._pair_row_softmax(np.zeros(len(pairs)), 1.0, pairs, 5)


class TestDenseOracle:
    """Every attention block and its lower bound against the dense oracle
    of tests/conftest.py, which works row by row and client by client."""

    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_match_the_dense_forms(self, seed, tau):
        rng = np.random.default_rng(200 + seed)
        K = int(rng.integers(3, 9))
        models, state = random_attention_setup(rng, K)
        state = clone_attention(state, tau_softmax=tau)
        mask = random_symmetric_mask(rng, K)
        ll = np.where(mask, random_loglik(rng, K), 0.0)
        deltas = model_deltas(models)
        state.pairs = pair_list(mask)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, tau, state.pairs)
        dense_p = dense_attention_compute_p(state, deltas, mask)
        np.testing.assert_allclose(state.p, np.take(dense_p, state.pairs), rtol=0, atol=1e-12)
        state.w = attention.update_w(state, *attention_lists(state, ll))
        np.testing.assert_allclose(state.w, dense_attention_update_w(state, ll, mask), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            attention.coupling_descent_terms(models, state, mask),
            dense_attention_coupling_terms(state, deltas, mask), rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            attention.phi_gradient(state, models),
            dense_attention_phi_gradient(state, deltas, mask), rtol=0, atol=1e-12,
        )
        assert elbo(attention, state, *round_lists(mask, ll)).terms() == dense_elbo_attention(state, ll, mask)
