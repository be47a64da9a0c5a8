"""Mixed-membership prior: degenerate cases, hand formulas, stationarity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scool.config import ExperimentConfig
from scool.em import mmsbm
from scool.em.common import at_pairs, pair_bilinear
from scool.em.elbo import elbo, elbo_mmsbm
from scool.errors import InvariantError
from scool.topology import observed_pairs

from conftest import (
    central_diff,
    clone_mmsbm,
    dense_elbo_mmsbm,
    dense_update_block_matrix,
    dense_update_gamma,
    dense_update_phi_recv,
    dense_update_phi_send,
    dense_update_w,
    full_mask,
    random_loglik,
    random_mmsbm_state,
    simplex_kkt_spread,
)

PAIR_TOL = 1e-12


class TestDegenerateSingleBlock:
    def test_w_reduces_to_scalar_odds(self):
        rng = np.random.default_rng(0)
        st = random_mmsbm_state(rng, 3, 1)
        b = float(st.B[0, 0])
        ll = random_loglik(rng, 3)
        w = mmsbm.update_w(st, ll, full_mask(3))
        off = ~np.eye(3, dtype=bool)
        expect = 1.0 / (1.0 + np.exp(-(ll + math.log(b / (1 - b)))))
        np.testing.assert_allclose(w[off], expect[off], atol=1e-12)

    def test_phis_trivially_one(self):
        rng = np.random.default_rng(1)
        st = random_mmsbm_state(rng, 3, 1)
        np.testing.assert_allclose(mmsbm.update_phi_send(st, full_mask(3)), 1.0)
        np.testing.assert_allclose(mmsbm.update_phi_recv(st, full_mask(3)), 1.0)


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
        gamma = mmsbm.update_gamma(st, full_mask(3))
        np.testing.assert_allclose(gamma[0], [4.0, 6.0])

    def test_stationarity(self):
        rng = np.random.default_rng(3)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        st.gamma = mmsbm.update_gamma(st, mask)
        worst = 0.0
        for i in range(4):
            for g in range(2):
                def f(v, i=i, g=g):
                    g2 = st.gamma.copy()
                    g2[i, g] = v
                    return elbo(clone_mmsbm(st, gamma=g2), ll, mask).total
                worst = max(worst, abs(central_diff(f, st.gamma[i, g])))
        assert worst < 1e-5


class TestWStationarity:
    def test_offdiagonal_coordinates(self):
        rng = np.random.default_rng(4)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        st.w = mmsbm.update_w(st, ll, mask)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                def f(v, i=i, j=j):
                    w2 = st.w.copy()
                    w2[i, j] = v
                    return elbo(clone_mmsbm(st, w=w2), ll, mask).total
                worst = max(worst, abs(central_diff(f, st.w[i, j])))
        assert worst < 1e-5


class TestPhiStationarity:
    def test_send_then_recv_blocks(self):
        rng = np.random.default_rng(5)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        st.phi_send = mmsbm.update_phi_send(st, mask)
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
                        return elbo(clone_mmsbm(st, phi_send=p2), ll, mask).total
                    grads.append(central_diff(f, st.phi_send[i, j, k], h=1e-7))
                worst = max(worst, simplex_kkt_spread(grads))
        assert worst < 1e-4
        st.phi_recv = mmsbm.update_phi_recv(st, mask)
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
                        return elbo(clone_mmsbm(st, phi_recv=p2), ll, mask).total
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
        np.testing.assert_allclose(mmsbm.update_block_matrix(st, full_mask(4)), brute, atol=1e-12)

    def test_one_hot_pairs_recover_conditional_means(self):
        rng = np.random.default_rng(7)
        K, M = 5, 2
        st = random_mmsbm_state(rng, K, M)
        send_lab = rng.integers(0, M, (K, K))
        recv_lab = rng.integers(0, M, (K, K))
        st.phi_send = np.eye(M)[send_lab]
        st.phi_recv = np.eye(M)[recv_lab]
        B = mmsbm.update_block_matrix(st, full_mask(K))
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
        cfg = ExperimentConfig(eta2=0.05)
        np.testing.assert_allclose(
            mmsbm.update_alpha(st_m, cfg), sbm.update_alpha(st_s, cfg), atol=1e-12
        )

    def test_degenerate_raises(self):
        rng = np.random.default_rng(9)
        st = random_mmsbm_state(rng, 4, 2)
        st.phi_send = np.tile(np.array([1.0, 0.0]), (4, 4, 1))
        st.phi_recv = np.tile(np.array([1.0, 0.0]), (4, 4, 1))
        with pytest.raises(InvariantError):
            mmsbm.update_block_matrix(st, full_mask(4))


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

    def test_pair_bilinear_on_a_pair_list(self):
        rng = np.random.default_rng(11)
        st = random_mmsbm_state(rng, 7, 3)
        X = 3.0 * rng.standard_normal((3, 3))
        pairs = np.flatnonzero(rng.random((7, 7)) < 0.4)
        np.testing.assert_array_equal(
            pair_bilinear(at_pairs(st.phi_send, pairs), X, at_pairs(st.phi_recv, pairs)),
            pair_bilinear(st.phi_send, X, st.phi_recv).ravel()[pairs],
        )

    def test_observed_pairs(self):
        mask = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(observed_pairs(full_mask(3)), ~np.eye(3, dtype=bool))
        np.testing.assert_array_equal(
            observed_pairs(mask), [[False, True, False], [False, False, True], [True, True, False]]
        )


def random_symmetric_mask(rng: np.random.Generator, K: int, keep: float) -> np.ndarray:
    upper = np.triu(rng.random((K, K)) < keep, 1)
    mask = upper | upper.T
    np.fill_diagonal(mask, True)
    return mask


def assert_pairs_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=PAIR_TOL, atol=PAIR_TOL)


def assert_parked_simplex(phi, obs, M):
    assert np.all(phi[~obs] == 1.0 / M)  # unobserved pairs stay exactly uniform
    assert np.all(phi >= 0.0)
    np.testing.assert_allclose(phi.sum(axis=-1), 1.0, rtol=0, atol=PAIR_TOL)


class TestPairListEqualsDenseOracle:
    """Every block runs over the observed-pair list; the dense K x K x M
    oracle in conftest must agree on random masks and interior states."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=hst.integers(1, 12),
        M=hst.integers(1, 4),
        keep=hst.floats(0.0, 1.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_every_block(self, K, M, keep, seed):
        rng = np.random.default_rng(seed)
        st = random_mmsbm_state(rng, K, M)
        ll = random_loglik(rng, K)
        mask = random_symmetric_mask(rng, K, keep)
        obs = observed_pairs(mask)

        w = mmsbm.update_w(st, ll, mask)
        assert_pairs_close(w, dense_update_w(st, ll, mask))
        assert np.all(w[~mask] == 0.0) and np.all((w >= 0.0) & (w <= 1.0))
        st.w = w

        st.gamma = mmsbm.update_gamma(st, mask)
        assert_pairs_close(st.gamma, dense_update_gamma(st, mask))

        send, recv = mmsbm.update_phi_send(st, mask), mmsbm.update_phi_recv(st, mask)
        assert_pairs_close(send, dense_update_phi_send(st, mask))
        assert_pairs_close(recv, dense_update_phi_recv(st, mask))
        assert_parked_simplex(send, obs, M)
        assert_parked_simplex(recv, obs, M)
        st.phi_send, st.phi_recv = send, recv

        terms = elbo_mmsbm(st, ll, mask).terms()
        for name, expected in dense_elbo_mmsbm(st, ll, mask).items():
            assert terms[name] == pytest.approx(expected, rel=PAIR_TOL, abs=PAIR_TOL), name

        if not obs.any():  # no observed pair: both block updates have nothing to average
            for update in (mmsbm.update_block_matrix, dense_update_block_matrix):
                with pytest.raises(InvariantError):
                    update(st, mask)
            return
        assert_pairs_close(mmsbm.update_block_matrix(st, mask), dense_update_block_matrix(st, mask))
