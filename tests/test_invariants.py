"""State invariants hold after every round of every structured prior."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import observed_list, random_symmetric_mask
from scool.config import ExperimentConfig
from scool.em import rounds
from scool.em.state import ALPHA_MIN, B_EPS
from scool.runner import build_models, build_state, build_tasks
from scool.topology import build_topology, pair_list


def _check_simplex(rows, name):
    assert np.all(rows >= 0), name
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("prior", ["sbm", "attention", "mmsbm"])
def test_invariants_after_every_round(prior):
    cfg = ExperimentConfig(
        prior_kind=prior, seed=2, rounds=6, local_steps=1, K=6, M=6, N=2,
        num_groups=3, samples_per_client=6, test_samples_per_client=10,
        feature_dim=8, eta1=0.3, sparsify_keep_fraction=0.4, sparsify_round=3,
    ).validate()
    _, train, test = build_tasks(cfg)
    models = build_models(cfg, train, test)
    mask = build_topology("fully-connected", cfg.K)
    state = build_state(cfg, mask, models.arch.n_params)
    for r in range(cfg.rounds):
        rounds.run_round(state, models, mask, r, cfg)
        if prior == "attention":
            _check_simplex(state.w, "attention w rows")
            _check_simplex(state.p, "attention p rows")
        else:
            assert np.all((state.w >= 0) & (state.w <= 1)), "edge weights in [0,1]"
            assert np.all((state.B >= B_EPS) & (state.B <= 1 - B_EPS)), "B clamped"
            assert np.all(state.gamma > 0), "gamma positive"
            assert np.all(state.alpha >= ALPHA_MIN), "alpha floored"
            if prior == "sbm":
                _check_simplex(state.omega, "omega rows")
            else:
                _check_simplex(state.phi_send, "sender memberships")
                _check_simplex(state.phi_recv, "receiver memberships")


MEMBERSHIPS = {"sbm": ("omega",), "mmsbm": ("phi_send", "phi_recv")}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    hst.sampled_from(sorted(MEMBERSHIPS)),
    hst.integers(0, 2**16),
    hst.integers(3, 7),
    hst.integers(1, 3),
    hst.sampled_from([1e-5, 0.1, 0.5, 1 - 1e-5]),  # beyond B_EPS at either end
    hst.sampled_from(["plain", "adam"]),
)
def test_block_matrix_stays_clamped_and_gamma_starts_unread(kind, seed, K, M, block_init, optimizer):
    # the block priors read log B without clamping it again, so B must
    # stay finite and inside [B_EPS, 1 - B_EPS] from init_state through
    # every round's E-step and prior update; and the starting gamma is
    # overwritten by the first E-step before anything reads it
    cfg = ExperimentConfig(
        prior_kind=kind, seed=seed, K=K, M=2, N=2, num_groups=1, samples_per_client=4,
        test_samples_per_client=1, local_steps=1, num_memberships=M, block_init=block_init,
        optimizer=optimizer, eta2=0.5,
    ).validate()
    prior = rounds.PRIORS[kind]
    _, train, test = build_tasks(cfg)
    models = build_models(cfg, train, test)
    rng = np.random.default_rng(seed)
    mask = random_symmetric_mask(rng, K, keep=0.5)
    state = prior.init_state(cfg, mask, models.arch.n_params)
    ll = rounds.loglik_matrix(models, models.train, mask, pair_list(mask))
    first = [
        prior.e_step(dataclasses.replace(state, gamma=gamma), models, ll, pair_list(mask), observed_list(mask))
        for gamma in (state.gamma, rng.uniform(0.1, 5.0, (K, M)))
    ]
    for name in ("w", "gamma", *MEMBERSHIPS[kind]):
        np.testing.assert_array_equal(getattr(first[0], name), getattr(first[1], name), err_msg=name)

    def clamped(B):
        return np.all(np.isfinite(B)) and np.all((B >= B_EPS) & (B <= 1 - B_EPS))

    assert clamped(state.B)
    for r in range(3):
        rounds.run_round(state, models, mask, r, cfg)  # an E-step, the local epochs, then update_prior
        assert clamped(state.B)
