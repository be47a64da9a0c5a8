"""Block-prior updates: scalar hand cases, lower-bound stationarity,
coordinate-ascent monotonicity and the dense mask oracle."""

import math

import numpy as np
import pytest

from scool.config import ExperimentConfig
from scool.em import sbm
from scool.em.elbo import elbo, elbo_sbm
from scool.em.state import ALPHA_MIN, B_EPS
from scool.errors import InvariantError
from scool.models import ArchSpec
from scool.special import sigmoid_tempered
from scool.topology import build_topology, observed_pairs, pair_list, sparsify_topk

from conftest import (
    LocalModel,
    central_diff,
    client_store,
    clone_sbm,
    dense_elbo_sbm,
    dense_sbm_omega_scores,
    dense_sbm_update_block_matrix,
    dense_sbm_update_omega,
    dense_sbm_update_w,
    full_mask,
    grad,
    observed_list,
    random_loglik,
    random_sbm_state,
    random_symmetric_mask,
    simplex_kkt_spread,
    tiny_dataset,
    update_omega_row,
)


class TestUpdateW:
    def test_sigmoid_of_zero(self):
        rng = np.random.default_rng(0)
        st = random_sbm_state(rng, 4, 2)
        st.B = np.full((2, 2), 0.5)
        w = sbm.update_w(st, np.zeros((4, 4)))
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(w[off], 0.5, atol=1e-12)

    def test_single_block_scalar_case(self):
        # M=1: score reduces to loglik + log(b/(1-b)); b=0.73, ll=-1.1
        rng = np.random.default_rng(1)
        st = random_sbm_state(rng, 2, 1)
        st.B = np.array([[0.73]])
        ll = np.full((2, 2), -1.1)
        w = sbm.update_w(st, ll)
        expect = 1.0 / (1.0 + math.exp(-(-1.1 + math.log(0.73 / 0.27))))
        assert w[0, 1] == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.47367999493863484, abs=1e-12)

    def test_masked_pairs_forced_zero(self):
        rng = np.random.default_rng(2)
        mask = full_mask(4)
        mask[0, 3] = mask[3, 0] = False
        st = random_sbm_state(rng, 4, 2, mask)
        w = sbm.update_w(st, random_loglik(rng, 4))
        assert w[0, 3] == 0.0 and w[3, 0] == 0.0

    def test_stationary_point_of_lower_bound(self):
        rng = np.random.default_rng(3)
        st = random_sbm_state(rng, 5, 3)
        ll = random_loglik(rng, 5)
        mask = full_mask(5)
        st.w = sbm.update_w(st, ll)
        worst = 0.0
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                def f(v, i=i, j=j):
                    w2 = st.w.copy()
                    w2[i, j] = v
                    return elbo(clone_sbm(st, w=w2), ll, observed_list(mask)).total
                worst = max(worst, abs(central_diff(f, st.w[i, j])))
        assert worst < 1e-5

    def test_temperature_applies(self):
        rng = np.random.default_rng(4)
        st = random_sbm_state(rng, 3, 2)
        ll = random_loglik(rng, 3)
        st.tau_sigmoid = 2.5
        w_hot = sbm.update_w(st, ll)
        st.tau_sigmoid = 1.0
        score = ll + st.omega @ (np.log(st.B) - np.log1p(-st.B)) @ st.omega.T
        np.testing.assert_allclose(w_hot, sigmoid_tempered(score, 2.5), atol=1e-12)


class TestUpdateGamma:
    def test_direct_formula(self):
        rng = np.random.default_rng(5)
        st = random_sbm_state(rng, 3, 2)
        st.omega[0, 0], st.alpha[0] = 0.3, 1.0
        g = sbm.update_gamma(st)
        assert g[0, 0] == pytest.approx(1.3)

    def test_uniform_row(self):
        rng = np.random.default_rng(6)
        st = random_sbm_state(rng, 3, 4)
        st.omega = np.full((3, 4), 0.25)
        st.alpha = np.full(4, 0.7)
        np.testing.assert_allclose(sbm.update_gamma(st), 0.95)

    def test_stationarity(self):
        rng = np.random.default_rng(7)
        st = random_sbm_state(rng, 4, 3)
        ll = random_loglik(rng, 4)
        st.gamma = sbm.update_gamma(st)
        worst = 0.0
        for i in range(4):
            for g in range(3):
                def f(v, i=i, g=g):
                    g2 = st.gamma.copy()
                    g2[i, g] = v
                    return elbo(clone_sbm(st, gamma=g2), ll, observed_list(full_mask(4))).total
                worst = max(worst, abs(central_diff(f, st.gamma[i, g])))
        assert worst < 1e-5


class TestUpdateOmega:
    def test_single_membership_is_trivial(self):
        rng = np.random.default_rng(8)
        st = random_sbm_state(rng, 4, 1)
        np.testing.assert_allclose(sbm.update_omega(st), 1.0)

    def test_two_block_concentration(self):
        # block-indicator w with assortative B concentrates memberships
        rng = np.random.default_rng(9)
        K, M = 8, 2
        groups = np.repeat([0, 1], 4)
        st = random_sbm_state(rng, K, M)
        st.w = np.where(groups[:, None] == groups[None, :], 0.95, 0.05)
        st.B = np.array([[0.9, 0.1], [0.1, 0.9]])
        for _ in range(5):
            st.gamma = sbm.update_gamma(st)
            st.omega = sbm.update_omega(st)
        # each group concentrates on one block, and the blocks differ
        lead = st.omega.argmax(axis=1)
        assert len(set(lead[:4])) == 1 and len(set(lead[4:])) == 1
        assert lead[0] != lead[4]
        assert st.omega.max(axis=1).min() > 0.95

    def test_row_update_satisfies_kkt(self):
        rng = np.random.default_rng(10)
        st = random_sbm_state(rng, 5, 3)
        ll = random_loglik(rng, 5)
        mask = full_mask(5)
        for i in range(5):
            om = st.omega.copy()
            om[i] = update_omega_row(st, i)
            st.omega = om
            grads = []
            for k in range(3):
                def f(v, i=i, k=k):
                    o2 = st.omega.copy()
                    o2[i, k] = v
                    return elbo(clone_sbm(st, omega=o2), ll, observed_list(mask)).total
                grads.append(central_diff(f, st.omega[i, k], h=1e-7))
            assert simplex_kkt_spread(grads) < 1e-4


class TestUpdateAlpha:
    def test_fixed_point_unchanged(self):
        rng = np.random.default_rng(11)
        st = random_sbm_state(rng, 4, 2)
        # construct gamma so the alpha gradient vanishes: make all rows equal
        # and alpha match the implied stationarity condition numerically
        from scool.em.common import alpha_gradient
        from scipy.optimize import brentq

        st.gamma = np.tile(st.gamma[0], (4, 1))
        # solve for a symmetric alpha = (a, a) zeroing the gradient
        def g(a):
            return alpha_gradient(st.elp, np.array([a, a]))[0]
        # symmetric gamma rows are required for a symmetric solution
        st.gamma = np.full((4, 2), 1.7)
        a_star = brentq(g, 1e-3, 50.0)
        st.alpha = np.array([a_star, a_star])
        new = sbm.update_alpha(st, ExperimentConfig(eta2=0.05))
        np.testing.assert_allclose(new, st.alpha, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        from scool.em.common import alpha_gradient

        for _ in range(10):
            st = random_sbm_state(rng, 4, 3)
            ll = random_loglik(rng, 4)
            g = alpha_gradient(st.elp, st.alpha)
            for k in range(3):
                def f(v, k=k):
                    a2 = st.alpha.copy()
                    a2[k] = v
                    return elbo(clone_sbm(st, alpha=a2), ll, observed_list(full_mask(4))).total
                num = central_diff(f, st.alpha[k], h=1e-6)
                assert abs(num - g[k]) / max(1e-8, abs(num)) < 1e-5

    def test_floor_projection(self):
        rng = np.random.default_rng(13)
        st = random_sbm_state(rng, 3, 2)
        st.gamma = np.full((3, 2), 0.6)
        st.alpha = np.array([ALPHA_MIN, 5.0])
        # a giant step so the floor binds
        new = sbm.update_alpha(st, ExperimentConfig(eta2=100.0))
        assert new.min() == ALPHA_MIN


class TestUpdateBlockMatrix:
    def test_uniform_membership_gives_mean_weight(self):
        # brute-force oracle over the 4x4 case with uniform memberships
        rng = np.random.default_rng(14)
        st = random_sbm_state(rng, 4, 2)
        st.omega = np.full((4, 2), 0.5)
        B = sbm.update_block_matrix(st)
        off = ~np.eye(4, dtype=bool)
        brute = 0.0
        count = 0
        for i in range(4):
            for j in range(4):
                if i != j:
                    brute += st.w[i, j]
                    count += 1
        np.testing.assert_allclose(B, brute / count, atol=1e-12)

    def test_all_ones_clamps(self):
        rng = np.random.default_rng(15)
        st = random_sbm_state(rng, 4, 2)
        st.w = np.ones((4, 4))
        B = sbm.update_block_matrix(st)
        np.testing.assert_allclose(B, 1.0 - B_EPS)

    def test_hard_memberships_recover_block_values(self):
        rng = np.random.default_rng(16)
        K, M = 6, 2
        groups = np.repeat([0, 1], 3)
        st = random_sbm_state(rng, K, M)
        st.omega = np.eye(M)[groups]
        blocks = np.array([[0.8, 0.2], [0.3, 0.6]])
        st.w = blocks[np.ix_(groups, groups)]
        B = sbm.update_block_matrix(st)
        np.testing.assert_allclose(B, blocks, atol=1e-12)

    def test_degenerate_membership_raises(self):
        rng = np.random.default_rng(17)
        st = random_sbm_state(rng, 4, 2)
        st.omega = np.tile(np.array([1.0, 0.0]), (4, 1))
        with pytest.raises(InvariantError):
            sbm.update_block_matrix(st)


class TestThetaStep:
    def test_zero_graph_reduces_to_local_sgd(self):
        rng = np.random.default_rng(18)
        arch = ArchSpec("softmax-regression", 3, 2)
        K = 3
        ref = [LocalModel(rng.standard_normal(arch.n_params), arch) for _ in range(K)]
        train = [tiny_dataset(rng, 6, 3, 2) for _ in range(K)]
        models = client_store(ref, train)
        from scool.em.theta import cooperative_sgd_steps

        cooperative_sgd_steps(
            models, models.train, np.eye(K), 0.0, 0.2, 4, "cross-gradient", full_mask(K), pair_list(full_mask(K))
        )
        for i in range(K):
            m = ref[i]
            for _ in range(4):
                m.theta = m.theta - 0.2 * grad(m, train[i])
            np.testing.assert_array_equal(models[i].theta, m.theta)

    def test_grad_modes_identical_at_equality(self):
        rng = np.random.default_rng(19)
        arch = ArchSpec("softmax-regression", 3, 2)
        theta = rng.standard_normal(arch.n_params)
        train = [tiny_dataset(rng, 6, 3, 2) for _ in range(4)]
        w = rng.uniform(0.1, 0.9, (4, 4))
        from scool.em.theta import cooperative_sgd_steps

        mc = client_store([LocalModel(theta.copy(), arch) for _ in range(4)], train)
        mt = client_store([LocalModel(theta.copy(), arch) for _ in range(4)], train)
        cooperative_sgd_steps(mc, mc.train, w, 0.01, 0.1, 1, "cross-gradient", full_mask(4), pair_list(full_mask(4)))
        cooperative_sgd_steps(mt, mt.train, w, 0.01, 0.1, 1, "taylor-approx", full_mask(4), pair_list(full_mask(4)))
        for a, b in zip(mc, mt):
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)

    def test_single_step_hand_arithmetic(self):
        rng = np.random.default_rng(20)
        arch = ArchSpec("softmax-regression", 2, 2)
        models = client_store(
            [LocalModel(rng.standard_normal(arch.n_params), arch) for _ in range(2)],
            [tiny_dataset(rng, 4, 2, 2) for _ in range(2)],
        )
        train = models.train
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        lam, eta = 0.1, 0.3
        g1 = grad(models[0], train[0])
        g12 = grad(models[0], train[1])
        expect = models[0].theta - eta * (g1 + 0.5 * g12 + lam * models[0].theta)
        from scool.em.theta import cooperative_sgd_steps

        cooperative_sgd_steps(models, train, w, lam, eta, 1, "cross-gradient", full_mask(2), pair_list(full_mask(2)))
        np.testing.assert_allclose(models[0].theta, expect, atol=1e-12)


class TestEStepSymmetry:
    def test_client_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        K, M = 6, 3
        st = random_sbm_state(rng, K, M)
        ll = random_loglik(rng, K)
        perm = rng.permutation(K)
        st_p = clone_sbm(
            st,
            w=st.w[np.ix_(perm, perm)],
            gamma=st.gamma[perm],
            omega=st.omega[perm],
        )
        sbm.e_step(st, None, ll, full_mask(K), observed_list(full_mask(K)))
        sbm.e_step(st_p, None, ll[np.ix_(perm, perm)], full_mask(K), observed_list(full_mask(K)))
        np.testing.assert_allclose(st_p.w, st.w[np.ix_(perm, perm)], atol=1e-12)
        np.testing.assert_allclose(st_p.gamma, st.gamma[perm], atol=1e-12)
        np.testing.assert_allclose(st_p.omega, st.omega[perm], atol=1e-12)


def _oracle_mask(kind: str, K: int, rng) -> np.ndarray:
    if kind == "full":
        return full_mask(K)
    if kind == "group-ring":
        return build_topology("group-ring", K, k0=K - 4)  # two neighbours on each side
    if kind == "bipartite":
        return build_topology("generalized-bipartite", K, degree=2, seed=int(rng.integers(2**16)))
    if kind == "random":
        return random_symmetric_mask(rng, K, keep=0.5)
    # pruned as a run prunes, down to each row's one strongest weight
    return sparsify_topk(rng.uniform(0.1, 1.0, (K, K)), full_mask(K), 1.0 / (K - 1))


class TestPairListEqualsDenseOracle:
    """The pair-list updates and lower bound equal the dense mask formulas
    of tests/conftest.py bit for bit, over two E- and M-step sweeps from a
    w that is not zero off the mask."""

    @pytest.mark.parametrize("kind", ["full", "group-ring", "bipartite", "random", "pruned"])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_block_and_the_bound(self, kind, seed):
        rng = np.random.default_rng(seed)
        K, M = 9, 3
        mask = _oracle_mask(kind, K, rng)
        if kind == "pruned":
            assert np.all(observed_pairs(mask).sum(axis=1) == 1)
        st = random_sbm_state(rng, K, M, mask)
        ll = random_loglik(rng, K) * mask
        for _ in range(2):
            assert elbo_sbm(st, ll, observed_list(mask)).terms() == dense_elbo_sbm(st, ll, mask)
            w = sbm.update_w(st, ll)
            np.testing.assert_array_equal(w, dense_sbm_update_w(st, ll, mask))
            st.w = w
            st.gamma = sbm.update_gamma(st)
            np.testing.assert_array_equal(sbm.omega_scores(st), dense_sbm_omega_scores(st, mask))
            omega = sbm.update_omega(st)
            np.testing.assert_array_equal(omega, dense_sbm_update_omega(st, mask))
            st.omega = omega
            B = sbm.update_block_matrix(st)
            np.testing.assert_array_equal(B, dense_sbm_update_block_matrix(st, mask))
            st.B = B
        assert elbo_sbm(st, ll, observed_list(mask)).terms() == dense_elbo_sbm(st, ll, mask)
