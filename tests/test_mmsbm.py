"""Mixed-membership prior: degenerate cases, hand formulas, stationarity."""

import math

import numpy as np
import pytest

from scool.em import mmsbm
from scool.em.common import observed_pairs, pair_bilinear
from scool.em.elbo import elbo
from scool.errors import InvariantError

from conftest import (
    central_diff,
    clone_mmsbm,
    random_loglik,
    random_mmsbm_state,
    simplex_kkt_spread,
)


class TestDegenerateSingleBlock:
    def test_w_reduces_to_scalar_odds(self):
        rng = np.random.default_rng(0)
        st = random_mmsbm_state(rng, 3, 1)
        b = float(st.B[0, 0])
        ll = random_loglik(rng, 3)
        w = mmsbm.update_w(st, ll)
        off = ~np.eye(3, dtype=bool)
        expect = 1.0 / (1.0 + np.exp(-(ll + math.log(b / (1 - b)))))
        np.testing.assert_allclose(w[off], expect[off], atol=1e-12)

    def test_phis_trivially_one(self):
        rng = np.random.default_rng(1)
        st = random_mmsbm_state(rng, 3, 1)
        np.testing.assert_allclose(mmsbm.update_phi_send(st), 1.0)
        np.testing.assert_allclose(mmsbm.update_phi_recv(st), 1.0)


class TestGamma:
    def test_hand_values(self):
        # alpha=(1,1), sum_j send=(2.5,1.5), sum_j recv=(0.5,3.5) -> (4, 6)
        rng = np.random.default_rng(2)
        st = random_mmsbm_state(rng, 3, 2)
        send = np.zeros((3, 3, 2))
        recv = np.zeros((3, 3, 2))
        # client 0's pairs (0,1), (0,2) as sender; (1,0), (2,0) as receiver
        send[0, 1] = [1.0, 0.0]
        send[0, 2] = [1.5, 1.5]
        recv[1, 0] = [0.25, 1.75]
        recv[2, 0] = [0.25, 1.75]
        # direct surgery: the formula only reads the per-client sums
        st.phi_send = send
        st.phi_recv = recv
        st.alpha = np.array([1.0, 1.0])
        gamma = mmsbm.update_gamma(st)
        np.testing.assert_allclose(gamma[0], [4.0, 6.0])

    def test_stationarity(self):
        rng = np.random.default_rng(3)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        st.gamma = mmsbm.update_gamma(st)
        worst = 0.0
        for i in range(4):
            for g in range(2):
                def f(v, i=i, g=g):
                    g2 = st.gamma.copy()
                    g2[i, g] = v
                    return elbo(clone_mmsbm(st, gamma=g2), ll).total
                worst = max(worst, abs(central_diff(f, st.gamma[i, g])))
        assert worst < 1e-5


class TestWStationarity:
    def test_offdiagonal_coordinates(self):
        rng = np.random.default_rng(4)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        st.w = mmsbm.update_w(st, ll)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                def f(v, i=i, j=j):
                    w2 = st.w.copy()
                    w2[i, j] = v
                    return elbo(clone_mmsbm(st, w=w2), ll).total
                worst = max(worst, abs(central_diff(f, st.w[i, j])))
        assert worst < 1e-5


class TestPhiStationarity:
    def test_send_then_recv_blocks(self):
        rng = np.random.default_rng(5)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        st.phi_send = mmsbm.update_phi_send(st)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                grads = []
                for k in range(2):
                    def f(v, i=i, j=j, k=k):
                        p2 = st.phi_send.copy()
                        p2[i, j, k] = v
                        return elbo(clone_mmsbm(st, phi_send=p2), ll).total
                    grads.append(central_diff(f, st.phi_send[i, j, k], h=1e-7))
                worst = max(worst, simplex_kkt_spread(grads))
        assert worst < 1e-4
        st.phi_recv = mmsbm.update_phi_recv(st)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                grads = []
                for k in range(2):
                    def f(v, i=i, j=j, k=k):
                        p2 = st.phi_recv.copy()
                        p2[i, j, k] = v
                        return elbo(clone_mmsbm(st, phi_recv=p2), ll).total
                    grads.append(central_diff(f, st.phi_recv[i, j, k], h=1e-7))
                worst = max(worst, simplex_kkt_spread(grads))
        assert worst < 1e-4


class TestBlockMatrix:
    def test_uniform_phis_give_mean_weight(self):
        rng = np.random.default_rng(6)
        st = random_mmsbm_state(rng, 4, 2)
        st.phi_send = np.full((4, 4, 2), 0.5)
        st.phi_recv = np.full((4, 4, 2), 0.5)
        off = ~np.eye(4, dtype=bool)
        brute = float(st.w[off].mean())
        np.testing.assert_allclose(mmsbm.update_block_matrix(st), brute, atol=1e-12)

    def test_one_hot_pairs_recover_conditional_means(self):
        rng = np.random.default_rng(7)
        K, M = 5, 2
        st = random_mmsbm_state(rng, K, M)
        send_lab = rng.integers(0, M, (K, K))
        recv_lab = rng.integers(0, M, (K, K))
        st.phi_send = np.eye(M)[send_lab]
        st.phi_recv = np.eye(M)[recv_lab]
        B = mmsbm.update_block_matrix(st)
        off = ~np.eye(K, dtype=bool)
        for g in range(M):
            for h in range(M):
                sel = off & (send_lab == g) & (recv_lab == h)
                if sel.any():
                    np.testing.assert_allclose(B[g, h], st.w[sel].mean(), atol=1e-12)

    def test_alpha_matches_sbm_oracle_on_matched_sums(self):
        # when the pairwise membership sums mimic a single-membership omega,
        # the shared alpha ascent is identical because it only reads gamma
        rng = np.random.default_rng(8)
        from scool.em import sbm
        from conftest import random_sbm_state

        st_m = random_mmsbm_state(rng, 4, 2)
        st_s = random_sbm_state(rng, 4, 2)
        st_s.gamma = st_m.gamma.copy()
        st_s.alpha = st_m.alpha.copy()
        st_s.eta2 = st_m.eta2
        np.testing.assert_allclose(
            mmsbm.update_alpha(st_m), sbm.update_alpha(st_s), atol=1e-12
        )

    def test_degenerate_raises(self):
        rng = np.random.default_rng(9)
        st = random_mmsbm_state(rng, 4, 2)
        st.phi_send = np.tile(np.array([1.0, 0.0]), (4, 4, 1))
        st.phi_recv = np.tile(np.array([1.0, 0.0]), (4, 4, 1))
        with pytest.raises(InvariantError):
            mmsbm.update_block_matrix(st)


class TestPairHelpers:
    @pytest.mark.parametrize("K, M", [(1, 1), (5, 2), (9, 3), (48, 4)])
    def test_pair_bilinear_equals_the_einsum(self, K, M):
        rng = np.random.default_rng(K + M)
        st = random_mmsbm_state(rng, K, M)
        X = 3.0 * rng.standard_normal((M, M))
        np.testing.assert_array_equal(
            pair_bilinear(st.phi_send, X, st.phi_recv),
            np.einsum("ijg,gh,ijh->ij", st.phi_send, X, st.phi_recv),
        )

    def test_observed_pairs(self):
        mask = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(observed_pairs(3), ~np.eye(3, dtype=bool))
        np.testing.assert_array_equal(
            observed_pairs(3, mask), [[False, True, False], [False, False, True], [True, True, False]]
        )
