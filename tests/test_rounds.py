"""Round orchestration: reductions, masking guarantees, determinism."""

import numpy as np
import pytest

from scool.em import dirac, rounds
from scool.em.state import DiracState, init_attention_state, init_sbm_state
from scool.errors import ConfigurationError, DivergenceError
from scool.models import ArchSpec, LocalModel, grad
from scool.topology import CommLedger, build_topology

from conftest import tiny_dataset


def _setup(rng, K=5, d=3, C=2, n=6):
    arch = ArchSpec("softmax-regression", d, C)
    base = 0.01 * rng.standard_normal(arch.n_params)
    models = [LocalModel(base.copy(), arch) for _ in range(K)]
    for m in models:
        m.theta = m.theta + 0.3 * rng.standard_normal(arch.n_params)
    train = [tiny_dataset(rng, n, d, C) for _ in range(K)]
    return models, train


class TestDiracReduction:
    def test_run_round_reproduces_plain_dpsgd(self):
        rng = np.random.default_rng(0)
        models, train = _setup(rng)
        ref = [m.copy() for m in models]
        K = len(models)
        w = dirac.metropolis_weights(np.ones((K, K), dtype=bool))
        topo = build_topology("fully-connected", K)
        state = DiracState(w, alpha_lr=0.1)
        for r in range(10):
            rounds.run_round(
                "dirac", state, models, train, topo, None, r, eta1=0.1, local_steps=1
            )
        thetas = np.stack([m.theta for m in ref])
        for _ in range(10):
            grads = np.stack(
                [grad(LocalModel(thetas[i], ref[i].arch), train[i]) for i in range(K)]
            )
            thetas = w @ thetas - 0.1 * grads
        for i in range(K):
            assert np.max(np.abs(models[i].theta - thetas[i])) < 1e-12

    def test_local_steps_multiply_gossip(self):
        rng = np.random.default_rng(1)
        models, train = _setup(rng)
        K = len(models)
        topo = build_topology("fully-connected", K)
        state = DiracState(dirac.metropolis_weights(topo.mask), alpha_lr=0.1)
        ledger = CommLedger(K, models[0].arch.n_params)
        rounds.run_round(
            "dirac", state, models, train, topo, ledger, 0, eta1=0.1, local_steps=3
        )
        assert ledger.rounds[-1].models_sent == 3 * topo.directed_edges()


class TestMaskingGuarantees:
    @pytest.mark.parametrize("prior", ["sbm", "attention"])
    def test_poisoned_masked_loglik_changes_nothing(self, prior):
        # zeroing (or poisoning) masked entries of the loglik leaves every
        # output unchanged: masked pairs are never read
        rng = np.random.default_rng(2)
        models, train = _setup(rng, K=5)
        K = 5
        mask = np.ones((K, K), dtype=bool)
        mask[0, 2] = mask[2, 0] = mask[1, 4] = False
        ll = rounds.loglik_matrix(models, train, mask)
        assert ll[0, 2] == 0.0 and ll[1, 4] == 0.0
        poisoned = ll.copy()
        poisoned[0, 2] = poisoned[2, 0] = poisoned[1, 4] = np.nan

        from scool.em import attention, sbm

        if prior == "sbm":
            st_a = init_sbm_state(K, 2, seed=3)
            st_b = init_sbm_state(K, 2, seed=3)
            sbm.e_step(st_a, ll, mask)
            sbm.e_step(st_b, poisoned, mask)
            np.testing.assert_array_equal(st_a.w, st_b.w)
            np.testing.assert_array_equal(st_a.omega, st_b.omega)
        else:
            st_a = init_attention_state(K, models[0].arch.n_params, seed=3)
            st_b = init_attention_state(K, models[0].arch.n_params, seed=3)
            attention.e_step(st_a, models, ll, mask)
            attention.e_step(st_b, models, poisoned, mask)
            np.testing.assert_array_equal(st_a.w, st_b.w)

    def test_masked_pairs_never_touch_theta(self):
        rng = np.random.default_rng(4)
        models_a, train = _setup(rng, K=4)
        models_b = [m.copy() for m in models_a]
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 3] = False
        w = rng.uniform(0.2, 0.8, (4, 4))
        w_masked = np.where(mask, w, 0.0)
        from scool.em.theta import cooperative_sgd_steps

        cooperative_sgd_steps(models_a, train, w_masked, 0.0, 0.1, 2, mask=mask)
        # replacing the masked weight by garbage must not matter
        w_garbage = w_masked.copy()
        w_garbage[0, 3] = 1e9
        cooperative_sgd_steps(models_b, train, w_garbage, 0.0, 0.1, 2, mask=mask)
        for a, b in zip(models_a, models_b):
            np.testing.assert_array_equal(a.theta, b.theta)


class TestLoglikMatrix:
    def test_entries_are_cross_likelihoods(self):
        from scool.models import log_likelihood

        rng = np.random.default_rng(6)
        models, train = _setup(rng, K=3)
        ll = rounds.loglik_matrix(models, train)
        for i in range(3):
            for j in range(3):
                assert ll[i, j] == log_likelihood(models[i], train[j])


class TestRunRoundContracts:
    def test_unknown_prior(self):
        rng = np.random.default_rng(7)
        models, train = _setup(rng, K=3)
        topo = build_topology("fully-connected", 3)
        with pytest.raises(ConfigurationError):
            rounds.run_round("bogus", None, models, train, topo, None, 0, eta1=0.1)

    def test_full_round_deterministic(self):
        rng = np.random.default_rng(8)
        models_a, train = _setup(rng, K=4)
        models_b = [m.copy() for m in models_a]
        topo_a = build_topology("fully-connected", 4)
        topo_b = build_topology("fully-connected", 4)
        st_a = init_sbm_state(4, 2, seed=9)
        st_b = init_sbm_state(4, 2, seed=9)
        for r in range(3):
            ra = rounds.run_round(
                "sbm", st_a, models_a, train, topo_a, None, r, eta1=0.1, local_steps=2
            )
            rb = rounds.run_round(
                "sbm", st_b, models_b, train, topo_b, None, r, eta1=0.1, local_steps=2
            )
            np.testing.assert_array_equal(ra.graph, rb.graph)
            assert ra.elbo_total == rb.elbo_total
        for a, b in zip(models_a, models_b):
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_local_only_keeps_identity_graph(self):
        rng = np.random.default_rng(10)
        models, train = _setup(rng, K=3)
        topo = build_topology("fully-connected", 3)
        out = rounds.run_round(
            "local-only", None, models, train, topo, None, 0, eta1=0.1
        )
        np.testing.assert_array_equal(out.graph, np.eye(3))
        assert out.elbo_total is None and out.loglik is None

    def test_sparsification_fires_once_at_round(self):
        rng = np.random.default_rng(11)
        models, train = _setup(rng, K=6)
        topo = build_topology("fully-connected", 6)
        st = init_sbm_state(6, 2, seed=12)
        for r in range(4):
            rounds.run_round(
                "sbm", st, models, train, topo, None, r,
                eta1=0.1, local_steps=1,
                sparsify_keep_fraction=0.2, sparsify_round=2,
            )
            off = topo.mask.copy()
            np.fill_diagonal(off, False)
            if r < 2:
                assert off.sum() == 30
            else:
                assert np.all(off.sum(axis=1) == 1)  # ceil(0.2 * 5) = 1

    def test_underflowed_row_at_pruning_is_a_divergence(self):
        # a row of w that underflowed to zero during the run is a numerical
        # event: run_round reports it as a divergence, not a config error
        rng = np.random.default_rng(13)
        models, train = _setup(rng, K=5)
        topo = build_topology("fully-connected", 5)
        st = init_sbm_state(5, 2, seed=14)
        rounds.run_round("sbm", st, models, train, topo, None, 0, eta1=0.1)
        st.w[3] = 0.0
        before = [m.theta.copy() for m in models]
        with pytest.raises(DivergenceError, match=r"^round 1: sparsify: row 3 has no positive weight$"):
            rounds.run_round(
                "sbm", st, models, train, topo, None, 1,
                eta1=0.1, sparsify_keep_fraction=0.5, sparsify_round=1,
            )
        assert topo.mask.all()
        for m, theta in zip(models, before):
            np.testing.assert_array_equal(m.theta, theta)
