"""State invariants hold after every round of every structured prior."""

import numpy as np
import pytest

from scool.config import ExperimentConfig
from scool.em import rounds
from scool.em.state import ALPHA_MIN, B_EPS
from scool.runner import build_models, build_state, build_tasks
from scool.topology import build_topology


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
