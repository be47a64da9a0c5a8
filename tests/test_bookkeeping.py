"""The block priors' Dirichlet and bound bookkeeping: each whole-array form
against the call-per-argument form it replaced, bit for bit; the state's
shared E[log pi], which must never go stale; and the special-function calls
one round makes."""

import copy
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from scool import special
from scool.config import ExperimentConfig
from scool.em import common, mmsbm, rounds, sbm
from scool.em.elbo import _dirichlet_term, _model_prior_term, elbo
from scool.em.state import expected_log_pi
from scool.models import MLP_1HIDDEN, SOFTMAX_REGRESSION, ArchSpec, ClientStore
from scool.runner import build_models, build_state, build_tasks
from scool.topology import build_topology

from conftest import (
    alpha_gradient_calls,
    clone_mmsbm,
    clone_sbm,
    dirichlet_term_calls,
    expected_log_pi_calls,
    full_mask,
    likelihood_term_dense,
    mmsbm_update_gamma_columns,
    model_prior_rows,
    observed_list,
    random_loglik,
    random_mmsbm_state,
    random_sbm_state,
    random_symmetric_mask,
    round_lists,
    xlogx_gather,
)


def _bits(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


def _gamma(rng, K: int, M: int) -> np.ndarray:
    """Posteriors from 1e-3 to 1e3, log-uniform: both sides of the gamma
    functions' shift and its every step count."""
    return np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (K, M)))


class TestAgainstTheCallPerArgumentForms:
    class NoTerms:  # a prior without terms of its own: the bound is its shared terms
        bound_terms = staticmethod(lambda state: {"edge": 0.0, "entropy_w": 0.0})

    @pytest.mark.parametrize("K", [1, 48, 192])
    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_expected_log_pi_and_alpha_gradient(self, K, M):
        rng = np.random.default_rng(K * 10 + M)
        for _ in range(5):
            gamma, alpha = _gamma(rng, K, M), _gamma(rng, 1, M)[0]
            elp = expected_log_pi(gamma)
            np.testing.assert_array_equal(_bits(elp), _bits(expected_log_pi_calls(gamma)))
            np.testing.assert_array_equal(
                _bits(common.alpha_gradient(elp, alpha)), _bits(alpha_gradient_calls(gamma, alpha))
            )

    @pytest.mark.parametrize("K", [1, 48, 192])
    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_dirichlet_term(self, K, M):
        rng = np.random.default_rng(K * 10 + M)
        for _ in range(5):
            gamma, alpha = _gamma(rng, K, M), _gamma(rng, 1, M)[0]
            elp = expected_log_pi(gamma)
            got = _dirichlet_term(gamma, alpha, elp)
            assert _bits(got) == _bits(dirichlet_term_calls(gamma, alpha, elp))

    @pytest.mark.parametrize("K", [1, 48, 192])
    @pytest.mark.parametrize("arch", [
        ArchSpec(SOFTMAX_REGRESSION, 8, 2), ArchSpec(MLP_1HIDDEN, 8, 2, 16), ArchSpec(MLP_1HIDDEN, 5, 3, 7),
    ])
    def test_model_prior_term(self, K, arch):
        rng = np.random.default_rng(K)
        for scale in (1e-3, 1.0, 1e3):
            models = ClientStore(scale * rng.standard_normal((K, arch.n_params)), arch)
            for lam in (1e-4, 0.37):
                got = _model_prior_term(models, lam)
                assert _bits(got) == _bits(model_prior_rows(models, lam))
        assert _model_prior_term(models, 0.0) == 0.0 and _model_prior_term(None, 0.5) == 0.0

    @pytest.mark.parametrize("K", [1, 2, 7, 48])
    def test_likelihood_term(self, K):
        rng = np.random.default_rng(K)
        for keep in (0.3, 1.0):
            mask = random_symmetric_mask(rng, K, keep) if K > 1 else full_mask(1)
            w, ll = rng.uniform(0.0, 1.0, (K, K)), random_loglik(rng, K)
            got = elbo(self.NoTerms, SimpleNamespace(w=w, lam=0.0), *round_lists(mask, ll)).likelihood
            assert _bits(got) == _bits(likelihood_term_dense(w, ll, observed_list(mask)))

    def test_xlogx(self):
        rng = np.random.default_rng(0)
        tiny = np.finfo(float).smallest_subnormal
        edge = np.array([0.0, -0.0, tiny, 3 * tiny, 1e-310, np.finfo(float).tiny, 1.0, 0.5, -0.25, np.nan, 1e300])
        p = rng.uniform(0.0, 1.0, (9, 12))
        p.flat[rng.choice(p.size, 30, replace=False)] = rng.choice(edge, 30)
        for x in (edge, p, p[:, ::3], p[::2, 1::2], p.T, np.float64(0.3), 0.0):
            np.testing.assert_array_equal(_bits(special.xlogx(x)), _bits(xlogx_gather(x)))
            assert np.shape(special.xlogx(x)) == np.shape(x)

    @pytest.mark.parametrize("K", [2, 7, 24])
    @pytest.mark.parametrize("M", [1, 3, 4])
    def test_mmsbm_update_gamma(self, K, M):
        rng = np.random.default_rng(K * 10 + M)
        for keep in (0.4, 1.0):
            st = random_mmsbm_state(rng, K, M, random_symmetric_mask(rng, K, keep))
            np.testing.assert_array_equal(_bits(mmsbm.update_gamma(st)), _bits(mmsbm_update_gamma_columns(st)))


def _fresh(gamma) -> np.ndarray:
    return expected_log_pi(np.array(gamma))


def assert_elp_current(st) -> None:
    np.testing.assert_array_equal(_bits(st.elp), _bits(_fresh(st.gamma)))


class TestSharedExpectedLogPi:
    def test_random_states(self):
        rng = np.random.default_rng(1)
        assert_elp_current(random_sbm_state(rng, 6, 3))
        assert_elp_current(random_mmsbm_state(rng, 6, 3))

    @pytest.mark.parametrize("prior", [sbm, mmsbm])
    def test_every_e_step_assignment(self, monkeypatch, prior):
        # the membership update reads elp right after the E-step assigns gamma
        rng = np.random.default_rng(2)
        K, M = 7, 3
        mask = random_symmetric_mask(rng, K, 0.7)
        st = (random_sbm_state if prior is sbm else random_mmsbm_state)(rng, K, M, mask)
        reader = "omega_scores" if prior is sbm else "update_phi"
        real, reads = getattr(prior, reader), []

        def checking(state, *args):
            assert_elp_current(state)
            reads.append(state.elp)
            return real(state, *args)

        monkeypatch.setattr(prior, reader, checking)
        for _ in range(4):
            before = st.gamma
            prior.e_step(st, None, *round_lists(mask, random_loglik(rng, K)))
            assert_elp_current(st)
            assert not np.array_equal(st.gamma, before)
        assert len(reads) == 4 * (1 if prior is sbm else 2)

    def test_clones_with_a_perturbed_gamma(self):
        rng = np.random.default_rng(3)
        for st, clone in ((random_sbm_state(rng, 5, 3), clone_sbm), (random_mmsbm_state(rng, 5, 3), clone_mmsbm)):
            elp = st.elp
            for i, g in ((0, 0), (4, 2)):
                g2 = st.gamma.copy()
                g2[i, g] += 1e-6
                other = clone(st, gamma=g2)
                assert_elp_current(other)
                np.testing.assert_array_equal(_bits(other.gamma), _bits(g2))
                g2[i, g] = 50.0  # the clone holds its own copy
                assert_elp_current(other)
                assert other.gamma[i, g] != 50.0
            assert st.elp is elp
            assert_elp_current(st)

    def test_writes_in_place_raise(self):
        st = random_sbm_state(np.random.default_rng(4), 4, 2)
        with pytest.raises(ValueError, match="read-only"):
            st.gamma[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            st.gamma += 1.0
        with pytest.raises(ValueError, match="read-only"):
            st.elp[0, 0] = 1.0
        with pytest.raises(AttributeError):
            st.elp = np.zeros((4, 2))
        assert_elp_current(st)

    def test_copies_keep_gamma_read_only(self):
        for st in (random_sbm_state(np.random.default_rng(6), 4, 2), random_mmsbm_state(np.random.default_rng(6), 4, 2)):
            st.elp
            for other in (copy.deepcopy(st), pickle.loads(pickle.dumps(st))):
                with pytest.raises(ValueError, match="read-only"):
                    other.gamma[0, 0] = 1.0
                assert_elp_current(other)
                for name in ("gamma", "w", "pairs"):
                    np.testing.assert_array_equal(getattr(other, name), getattr(st, name))

    def test_assigning_gamma_takes_it_anew(self):
        st = random_sbm_state(np.random.default_rng(5), 4, 2)
        old = st.elp
        st.gamma = st.gamma * 2.0
        assert st.elp is not old
        assert_elp_current(st)
        assert st.elp is st.elp  # once per gamma


# ---------------------------------------------------------------- rounds


def _run(prior: str, seed: int, optimizer: str = "plain"):
    """A K = 6 run pruned at round 1: its config, store, mask and state."""
    cfg = ExperimentConfig(
        prior_kind=prior, seed=seed, rounds=3, local_steps=1, K=6, M=4, N=2, num_groups=2,
        samples_per_client=4, test_samples_per_client=4, feature_dim=4, num_memberships=3,
        sparsify_keep_fraction=0.5, sparsify_round=1, optimizer=optimizer,
    ).validate()
    _, train, test = build_tasks(cfg)
    models = build_models(cfg, train, test)
    mask = build_topology(cfg.topology_kind, cfg.K)
    return cfg, models, mask, build_state(cfg, mask, models.arch.n_params)


def _round(run, r: int) -> list[np.ndarray]:
    """One run_round of ``run``; the bits it leaves behind."""
    cfg, models, mask, st = run
    graph, total, _ = rounds.run_round(st, models, mask, r, cfg)
    return [_bits(np.array(a, dtype=float)) for a in (graph, total, models.theta, st.w, st.gamma, st.elp, st.alpha, st.B, mask)]


class TestPerRound:
    @pytest.mark.parametrize("prior", ["sbm", "mmsbm"])
    def test_special_function_calls(self, monkeypatch, prior):
        # each block-prior round takes E[log pi] once, through one digamma
        # call; the alpha step makes the other and the bound the one log_gamma
        counted = {"digamma": special.digamma, "log_gamma": special.log_gamma, "expected_log_pi": expected_log_pi}
        calls = dict.fromkeys(counted, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("scool"):
                continue
            for name, fn in counted.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        run = _run(prior, 3)
        for r in range(3):
            calls.update(dict.fromkeys(counted, 0))
            _round(run, r)
            assert calls == {"digamma": 2, "log_gamma": 1, "expected_log_pi": 1}, r

    @pytest.mark.parametrize("pair", [("sbm", "sbm"), ("sbm", "mmsbm"), ("mmsbm", "mmsbm")])
    def test_interleaved_runs_give_each_runs_bytes(self, pair):
        alone = []
        for seed, prior in enumerate(pair, start=3):
            run = _run(prior, seed, "adam")
            alone.append([_round(run, r) for r in range(3)])
        runs = [_run(prior, seed, "adam") for seed, prior in enumerate(pair, start=3)]
        for r in range(3):
            for run, want in zip(runs, alone):
                for got, expected in zip(_round(run, r), want[r]):
                    np.testing.assert_array_equal(got, expected)
