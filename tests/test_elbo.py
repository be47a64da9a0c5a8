"""The lower-bound oracle itself: hand computations and its contracts."""

import math

import numpy as np
import pytest
import scipy.special as sc

from scool.em import attention, mmsbm, sbm
from scool.em.elbo import elbo
from scool.em.state import SbmState
from scool.topology import pair_list

from conftest import (
    attention_lists,
    client_store,
    clone_mmsbm,
    full_mask,
    observed_list,
    own_and_cross,
    random_attention_setup,
    random_loglik,
    random_mmsbm_state,
    random_sbm_state,
    random_symmetric_mask,
    round_lists,
    update_omega_row,
)


def hand_sbm_k2_m1(w12, w21, ll, gamma, alpha, b):
    """Independent scalar computation of the two-client single-block bound.

    With one block the membership is deterministic, so only the edge and
    edge-entropy pieces survive beside the likelihood and the Dirichlet
    normalizers (which cancel between prior and posterior only when
    gamma == alpha; both are kept explicitly here).
    """
    lik = ll[0, 0] + ll[1, 1] + w12 * ll[0, 1] + w21 * ll[1, 0]
    edge = (w12 + w21) * math.log(b) + (2 - w12 - w21) * math.log(1 - b)
    # M=1: E[log pi] = psi(gamma) - psi(gamma) = 0
    dirichlet = 0.0
    for g_i in gamma:
        dirichlet += (alpha - 1.0) * 0.0 - sc.gammaln(alpha) + sc.gammaln(alpha)
        dirichlet += -(g_i - 1.0) * 0.0 + sc.gammaln(g_i) - sc.gammaln(g_i)
    def h(p):
        out = 0.0
        for q in (p, 1.0 - p):
            if q > 0:
                out -= q * math.log(q)
        return out
    return lik + edge + dirichlet + h(w12) + h(w21)


class TestSbmHandCase:
    def test_two_client_single_block(self):
        rng = np.random.default_rng(0)
        ll = random_loglik(rng, 2)
        w = np.array([[0.4, 0.3], [0.8, 0.9]])
        st = SbmState(
            pairs=observed_list(full_mask(2)),
            w=w,
            gamma=np.array([[1.4], [2.2]]),
            omega=np.ones((2, 1)),
            alpha=np.array([0.9]),
            B=np.array([[0.37]]),
            lam=0.0,
            tau_sigmoid=1.0,
        )
        got = elbo(sbm, st, *round_lists(full_mask(2), ll)).total
        want = hand_sbm_k2_m1(0.3, 0.8, ll, (1.4, 2.2), 0.9, 0.37)
        assert got == pytest.approx(want, abs=1e-10)


class TestBreakdownContracts:
    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(1)
        for prior, maker, K, M in [
            (sbm, random_sbm_state, 4, 2),
            (mmsbm, random_mmsbm_state, 3, 2),
        ]:
            st = maker(rng, K, M)
            out = elbo(prior, st, *round_lists(full_mask(K), random_loglik(rng, K)))
            assert out.total == pytest.approx(sum(out.terms().values()), abs=1e-10)

    def test_deterministic_w_has_zero_entropy(self):
        rng = np.random.default_rng(2)
        st = random_sbm_state(rng, 4, 2)
        st.w = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        out = elbo(sbm, st, *round_lists(full_mask(4), random_loglik(rng, 4)))
        assert out.entropy_w == 0.0

    def test_model_prior_term(self):
        rng = np.random.default_rng(3)
        from scool.models import ArchSpec

        from conftest import LocalModel

        st = random_sbm_state(rng, 3, 2)
        st.lam = 0.4
        arch = ArchSpec("softmax-regression", 2, 2)
        models = [LocalModel(rng.standard_normal(arch.n_params), arch) for _ in range(3)]
        out = elbo(sbm, st, *round_lists(full_mask(3), random_loglik(rng, 3)), client_store(models))
        want = -0.2 * sum(float(m.theta @ m.theta) for m in models)
        assert out.model_prior == pytest.approx(want, abs=1e-12)

    def test_attention_edge_is_agreement_sum(self):
        rng = np.random.default_rng(4)
        models, state = random_attention_setup(rng, 4)
        ll = random_loglik(rng, 4)
        mask = full_mask(4)
        state.p = attention.compute_p(models, state.phi, state.enc_dims, 1.0, state.pairs)
        state.w = attention.update_w(state, *attention_lists(state, ll))
        out = elbo(attention, state, *round_lists(mask, ll))
        want = float((np.take(state.w, state.pairs) * np.log(np.maximum(state.p, 1e-12))).sum())
        assert out.edge == pytest.approx(want, abs=1e-12)
        assert out.membership == 0.0 and out.dirichlet == 0.0

    def test_the_prior_module_picks_the_terms(self):
        # the bound reads its prior's own terms from the module it is handed,
        # whatever the state's type; only the shared terms come from elbo
        rng = np.random.default_rng(8)
        st, lists = random_sbm_state(rng, 3, 2), round_lists(full_mask(3), random_loglik(rng, 3))

        class Stub:
            bound_terms = staticmethod(lambda state: {"edge": 1.5, "entropy_w": -0.25})

        shared = elbo(sbm, st, *lists)
        assert elbo(Stub, st, *lists).terms() == {
            "likelihood": shared.likelihood, "model_prior": shared.model_prior, "edge": 1.5,
            "membership": 0.0, "dirichlet": 0.0, "entropy_membership": 0.0, "entropy_w": -0.25,
        }


# the full mask, and masks whose pairs are kept at random (both directions together)
MASKS = {"full": lambda rng, K: full_mask(K), "random": random_symmetric_mask}


class TestCoordinateAscentMonotonicity:
    @pytest.mark.parametrize("mask_kind", sorted(MASKS))
    def test_sbm_sequential_blocks_never_decrease(self, mask_kind):
        rng = np.random.default_rng(5)
        for _ in range(30):
            K = int(rng.integers(3, 7))
            M = int(rng.integers(1, 4))
            st = random_sbm_state(rng, K, M)
            ll = random_loglik(rng, K)
            mask = MASKS[mask_kind](rng, K)
            st.pairs = observed_list(mask)  # the draw held on the mask's observed pairs
            value = elbo(sbm, st, *round_lists(mask, ll)).total
            st.w = sbm.update_w(st, *own_and_cross(st, ll))
            for v2 in [elbo(sbm, st, *round_lists(mask, ll)).total]:
                assert v2 >= value - 1e-8
                value = v2
            st.gamma = sbm.update_gamma(st)
            v2 = elbo(sbm, st, *round_lists(mask, ll)).total
            assert v2 >= value - 1e-8
            value = v2
            for i in range(K):
                om = st.omega.copy()
                om[i] = update_omega_row(st, i)
                st.omega = om
                v2 = elbo(sbm, st, *round_lists(mask, ll)).total
                assert v2 >= value - 1e-8
                value = v2
            st.B = sbm.update_block_matrix(st)
            assert elbo(sbm, st, *round_lists(mask, ll)).total >= value - 1e-8

    @pytest.mark.parametrize("mask_kind", sorted(MASKS))
    def test_mmsbm_sequential_blocks_never_decrease(self, mask_kind):
        rng = np.random.default_rng(6)
        for _ in range(20):
            K = int(rng.integers(3, 6))
            M = int(rng.integers(1, 4))
            dense = random_mmsbm_state(rng, K, M)
            ll = random_loglik(rng, K)
            mask = MASKS[mask_kind](rng, K)
            # the same draw, held on the mask's observed pairs
            kept = np.take(mask, dense.pairs)
            st = clone_mmsbm(dense, pairs=dense.pairs[kept], phi_send=dense.phi_send[kept],
                             phi_recv=dense.phi_recv[kept])
            value = elbo(mmsbm, st, *round_lists(mask, ll)).total
            for step in (
                lambda: setattr(st, "w", mmsbm.update_w(st, *own_and_cross(st, ll))),
                lambda: setattr(st, "gamma", mmsbm.update_gamma(st)),
                lambda: setattr(st, "phi_send", mmsbm.update_phi(st, "send")),
                lambda: setattr(st, "phi_recv", mmsbm.update_phi(st, "recv")),
                lambda: setattr(st, "B", mmsbm.update_block_matrix(st)),
            ):
                step()
                v2 = elbo(mmsbm, st, *round_lists(mask, ll)).total
                assert v2 >= value - 1e-8
                value = v2

    @pytest.mark.parametrize("mask_kind", sorted(MASKS))
    def test_attention_w_update_never_decreases(self, mask_kind):
        rng = np.random.default_rng(7)
        for _ in range(30):
            K = int(rng.integers(3, 7))
            models, st = random_attention_setup(rng, K)
            ll = random_loglik(rng, K)
            mask = MASKS[mask_kind](rng, K)
            st.pairs = pair_list(mask)
            st.p = attention.compute_p(models, st.phi, st.enc_dims, 1.0, st.pairs)
            st.w = np.zeros((K, K))
            for i in range(K):  # each row on the simplex of its allowed entries
                st.w[i, mask[i]] = rng.dirichlet(np.ones(np.count_nonzero(mask[i])))
            before = elbo(attention, st, *round_lists(mask, ll)).total
            st.w = attention.update_w(st, *attention_lists(st, ll))
            assert elbo(attention, st, *round_lists(mask, ll)).total >= before - 1e-8
