"""Mixed-membership prior: degenerate cases, hand formulas, stationarity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scool.config import ExperimentConfig
from scool.em import mmsbm
from scool.em.common import pair_bilinear
from scool.em.elbo import elbo
from scool.errors import InvariantError
from scool.topology import build_topology, observed_pairs, sparsify_topk

from conftest import (
    central_diff,
    clone_mmsbm,
    dense_elbo_mmsbm,
    dense_pairs,
    dense_update_block_matrix,
    dense_update_gamma,
    dense_update_phi_recv,
    dense_update_phi_send,
    dense_update_w,
    full_mask,
    own_and_cross,
    random_loglik,
    random_mmsbm_state,
    round_lists,
    simplex_kkt_spread,
)

PAIR_TOL = 1e-12


class TestDegenerateSingleBlock:
    def test_w_reduces_to_scalar_odds(self):
        rng = np.random.default_rng(0)
        st = random_mmsbm_state(rng, 3, 1)
        b = float(st.B[0, 0])
        ll = random_loglik(rng, 3)
        w = mmsbm.update_w(st, *own_and_cross(st, ll))
        off = ~np.eye(3, dtype=bool)
        expect = 1.0 / (1.0 + np.exp(-(ll + math.log(b / (1 - b)))))
        np.testing.assert_allclose(w[off], expect[off], atol=1e-12)

    def test_phis_trivially_one(self):
        rng = np.random.default_rng(1)
        st = random_mmsbm_state(rng, 3, 1)
        np.testing.assert_allclose(mmsbm.update_phi(st, "send"), 1.0)
        np.testing.assert_allclose(mmsbm.update_phi(st, "recv"), 1.0)


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
        st.phi_send = send.reshape(9, 2)[st.pairs]
        st.phi_recv = recv.reshape(9, 2)[st.pairs]
        st.alpha = np.array([1.0, 1.0])
        gamma = mmsbm.update_gamma(st)
        np.testing.assert_allclose(gamma[0], [4.0, 6.0])

    def test_stationarity(self):
        rng = np.random.default_rng(3)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        st.gamma = mmsbm.update_gamma(st)
        worst = 0.0
        for i in range(4):
            for g in range(2):
                def f(v, i=i, g=g):
                    g2 = st.gamma.copy()
                    g2[i, g] = v
                    return elbo(mmsbm, clone_mmsbm(st, gamma=g2), *round_lists(mask, ll)).total
                worst = max(worst, abs(central_diff(f, st.gamma[i, g])))
        assert worst < 1e-5


class TestWStationarity:
    def test_offdiagonal_coordinates(self):
        rng = np.random.default_rng(4)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        st.w = mmsbm.update_w(st, *own_and_cross(st, ll))
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                def f(v, i=i, j=j):
                    w2 = st.w.copy()
                    w2[i, j] = v
                    return elbo(mmsbm, clone_mmsbm(st, w=w2), *round_lists(mask, ll)).total
                worst = max(worst, abs(central_diff(f, st.w[i, j])))
        assert worst < 1e-5


class TestPhiStationarity:
    def test_send_then_recv_blocks(self):
        rng = np.random.default_rng(5)
        st = random_mmsbm_state(rng, 4, 2)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        assert len(st.pairs) == 12  # the off-diagonal pairs of the full mask
        for side in ("send", "recv"):
            name = f"phi_{side}"
            setattr(st, name, mmsbm.update_phi(st, side))
            phi = getattr(st, name)
            worst = 0.0
            for e in range(len(st.pairs)):
                grads = []
                for k in range(2):
                    def f(v, e=e, k=k):
                        p2 = phi.copy()
                        p2[e, k] = v
                        return elbo(mmsbm, clone_mmsbm(st, **{name: p2}), *round_lists(mask, ll)).total
                    grads.append(central_diff(f, phi[e, k], h=1e-7))
                worst = max(worst, simplex_kkt_spread(grads))
            assert worst < 1e-4, side


class TestBlockMatrix:
    def test_uniform_phis_give_mean_weight(self):
        rng = np.random.default_rng(6)
        st = random_mmsbm_state(rng, 4, 2)
        st.phi_send = np.full((12, 2), 0.5)
        st.phi_recv = np.full((12, 2), 0.5)
        off = ~np.eye(4, dtype=bool)
        brute = float(st.w[off].mean())
        np.testing.assert_allclose(mmsbm.update_block_matrix(st), brute, atol=1e-12)

    def test_one_hot_pairs_recover_conditional_means(self):
        rng = np.random.default_rng(7)
        K, M = 5, 2
        st = random_mmsbm_state(rng, K, M)
        send_lab = rng.integers(0, M, (K, K))
        recv_lab = rng.integers(0, M, (K, K))
        st.phi_send = np.eye(M)[send_lab].reshape(K * K, M)[st.pairs]
        st.phi_recv = np.eye(M)[recv_lab].reshape(K * K, M)[st.pairs]
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
        cfg = ExperimentConfig(eta2=0.05)
        np.testing.assert_allclose(
            mmsbm.update_alpha(st_m, cfg), sbm.update_alpha(st_s, cfg), atol=1e-12
        )

    def test_degenerate_raises(self):
        rng = np.random.default_rng(9)
        st = random_mmsbm_state(rng, 4, 2)
        st.phi_send = np.tile(np.array([1.0, 0.0]), (12, 1))
        st.phi_recv = np.tile(np.array([1.0, 0.0]), (12, 1))
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
            np.einsum("eg,gh,eh->e", st.phi_send, X, st.phi_recv),
        )

    def test_pair_bilinear_on_a_pair_list(self):
        # each row's value is the same whatever rows share its call: the
        # diagonal of w, scored on one uniform row, keeps its bits
        rng = np.random.default_rng(11)
        st = random_mmsbm_state(rng, 7, 3)
        X = 3.0 * rng.standard_normal((3, 3))
        rows = np.flatnonzero(rng.random(len(st.pairs)) < 0.4)
        np.testing.assert_array_equal(
            pair_bilinear(st.phi_send[rows], X, st.phi_recv[rows]),
            pair_bilinear(st.phi_send, X, st.phi_recv)[rows],
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
        mask = random_symmetric_mask(rng, K, keep)
        st = random_mmsbm_state(rng, K, M, mask)
        ll = random_loglik(rng, K)
        obs = observed_pairs(mask)

        w = mmsbm.update_w(st, *own_and_cross(st, ll))
        assert_pairs_close(w, dense_update_w(st, ll, mask))
        assert np.all(w[~mask] == 0.0) and np.all((w >= 0.0) & (w <= 1.0))
        st.w = w

        st.gamma = mmsbm.update_gamma(st)
        assert_pairs_close(st.gamma, dense_update_gamma(st, mask))

        send, recv = mmsbm.update_phi(st, "send"), mmsbm.update_phi(st, "recv")
        assert_pairs_close(dense_pairs(st, send), dense_update_phi_send(st, mask))
        assert_pairs_close(dense_pairs(st, recv), dense_update_phi_recv(st, mask))
        assert_parked_simplex(dense_pairs(st, send), obs, M)
        assert_parked_simplex(dense_pairs(st, recv), obs, M)
        st.phi_send, st.phi_recv = send, recv

        terms = elbo(mmsbm, st, *round_lists(mask, ll)).terms()
        for name, expected in dense_elbo_mmsbm(st, ll, mask).items():
            assert terms[name] == pytest.approx(expected, rel=PAIR_TOL, abs=PAIR_TOL), name

        if not obs.any():  # no observed pair: both block updates have nothing to average
            for update in (lambda: mmsbm.update_block_matrix(st), lambda: dense_update_block_matrix(st, mask)):
                with pytest.raises(InvariantError):
                    update()
            return
        assert_pairs_close(mmsbm.update_block_matrix(st), dense_update_block_matrix(st, mask))


class TestPairList:
    """The state holds one membership row per observed pair, in the mask's
    row-major order, and follows the mask when pruning removes pairs."""

    def _ring_state(self, K=12, M=3, seed=0):
        cfg = ExperimentConfig(prior_kind="mmsbm", K=K, num_memberships=M, seed=seed).validate()
        mask = build_topology("group-ring", K, k0=K - 6)
        return cfg, mask, mmsbm.init_state(cfg, mask)

    def test_init_keeps_the_dense_draw_at_the_observed_pairs(self):
        from scool.em.state import jittered_simplex

        cfg, mask, st = self._ring_state()
        K, M = cfg.K, cfg.num_memberships
        np.testing.assert_array_equal(st.pairs, np.flatnonzero(observed_pairs(mask)))
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
        for phi in (st.phi_send, st.phi_recv):
            # oracle: normalize every ordered pair's row, then gather
            dense = jittered_simplex(rng.standard_normal((K, K, M)))
            np.testing.assert_array_equal(phi, dense.reshape(K * K, M)[st.pairs])
            assert phi.flags.c_contiguous

    def test_pruning_keeps_the_surviving_rows_in_row_major_order(self, monkeypatch):
        cfg, mask, st = self._ring_state()
        rng = np.random.default_rng(1)
        before = {name: getattr(st, name).copy() for name in ("pairs", "phi_send", "phi_recv")}
        pruned = sparsify_topk(rng.uniform(0.1, 1.0, mask.shape), mask, 0.3)
        seen = {}
        real = mmsbm.update_w

        def spy(state, own, cross):  # the first update after the gather
            seen.update({name: getattr(state, name).copy() for name in before})
            return real(state, own, cross)

        monkeypatch.setattr(mmsbm, "update_w", spy)
        mmsbm.e_step(st, None, *round_lists(pruned, random_loglik(rng, cfg.K) * pruned))
        kept = np.isin(before["pairs"], seen["pairs"])
        assert 0 < kept.sum() < len(kept)
        np.testing.assert_array_equal(seen["pairs"], np.flatnonzero(observed_pairs(pruned)))
        for name in ("phi_send", "phi_recv"):
            np.testing.assert_array_equal(seen[name], before[name][kept])
        assert len(st.phi_send) == len(st.phi_recv) == len(seen["pairs"])
        # the updated rows stay contiguous, as drawn: the bits of the products
        # and sums over them depend on the layout
        assert st.phi_send.flags.c_contiguous and st.phi_recv.flags.c_contiguous

    def test_a_list_that_is_not_the_masks_is_refused(self):
        cfg, mask, st = self._ring_state()
        grown = mask.copy()
        grown[0, 5] = grown[5, 0] = True  # a pair the state holds no row for
        with pytest.raises(InvariantError, match="^mmsbm pair list is not the round's observed pairs$"):
            mmsbm.e_step(st, None, *round_lists(grown, np.zeros(mask.shape)))

    def test_rows_must_match_the_list(self):
        rng = np.random.default_rng(3)
        st = random_mmsbm_state(rng, 4, 2)
        for phi in (st.phi_send[:-1], dense_pairs(st, st.phi_send)):
            with pytest.raises(InvariantError, match="one row of 2 per observed pair"):
                clone_mmsbm(st, phi_send=phi)
