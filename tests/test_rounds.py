"""Round orchestration: reductions, masking guarantees, determinism, and
whole rounds against the plain per-pair reference."""

import ast
import copy
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import scool.em
from scool import config, topology
from scool.config import ExperimentConfig
from scool.em import attention, dirac, rounds, sbm, theta
from scool.em.state import DiracState
from scool.errors import ConfigurationError, DivergenceError
from scool.models import ArchSpec
from scool.runner import build_models, build_state, build_tasks
from scool.topology import (
    CROSS_GRADIENT,
    RoundTraffic,
    account_exchange,
    account_gossip,
    build_topology,
    directed_edges,
    pair_list,
)

from conftest import (
    Dataset,
    LocalModel,
    client_store,
    full_mask,
    grad,
    log_likelihood,
    model_list,
    observed_list,
    random_symmetric_mask,
    reference_round,
    tiny_dataset,
)


def _setup(rng, K=5, d=3, C=2, n=6):
    """A store of K clients and its train stack."""
    arch = ArchSpec("softmax-regression", d, C)
    base = 0.01 * rng.standard_normal(arch.n_params)
    models = [LocalModel(base.copy(), arch) for _ in range(K)]
    for m in models:
        m.theta = m.theta + 0.3 * rng.standard_normal(arch.n_params)
    store = client_store(models, [tiny_dataset(rng, n, d, C) for _ in range(K)])
    return store, store.train


class TestDiracReduction:
    def test_run_round_reproduces_plain_dpsgd(self):
        rng = np.random.default_rng(0)
        models, train = _setup(rng)
        ref = model_list(models)
        K = len(models)
        w = dirac.metropolis_weights(full_mask(K))
        mask = build_topology("fully-connected", K)
        state = DiracState(w)
        cfg = ExperimentConfig(prior_kind="dirac", eta1=0.1, local_steps=1)
        for r in range(10):
            rounds.run_round(state, models, mask, r, cfg)
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
        models, _ = _setup(rng)
        K = len(models)
        mask = build_topology("fully-connected", K)
        state = DiracState(dirac.metropolis_weights(mask))
        cfg = ExperimentConfig(prior_kind="dirac", eta1=0.1, local_steps=3)
        _, _, traffic = rounds.run_round(state, models, mask, 0, cfg)
        assert traffic.models_sent == 3 * directed_edges(mask)


class TestMaskingGuarantees:
    @pytest.mark.parametrize("prior", ["sbm", "attention"])
    def test_poisoned_masked_loglik_changes_nothing(self, prior):
        # zeroing (or poisoning) masked entries of the loglik leaves every
        # output unchanged: masked pairs are never read
        rng = np.random.default_rng(2)
        models, train = _setup(rng, K=5)
        K = 5
        mask = full_mask(K)
        mask[0, 2] = mask[2, 0] = mask[1, 4] = False
        ll = rounds.loglik_matrix(models, train, mask, pair_list(mask))
        assert ll[0, 2] == 0.0 and ll[1, 4] == 0.0
        poisoned = ll.copy()
        poisoned[0, 2] = poisoned[2, 0] = poisoned[1, 4] = np.nan

        if prior == "sbm":
            cfg = ExperimentConfig(K=K, num_memberships=2, seed=3)
            st_a = sbm.init_state(cfg, mask, 0)
            st_b = sbm.init_state(cfg, mask, 0)
            sbm.e_step(st_a, models, ll, pair_list(mask), observed_list(mask))
            sbm.e_step(st_b, models, poisoned, pair_list(mask), observed_list(mask))
            np.testing.assert_array_equal(st_a.w, st_b.w)
            np.testing.assert_array_equal(st_a.omega, st_b.omega)
        else:
            cfg = ExperimentConfig(K=K, seed=3)
            st_a = attention.init_state(cfg, None, models.arch.n_params)
            st_b = attention.init_state(cfg, None, models.arch.n_params)
            attention.e_step(st_a, models, ll, pair_list(mask), observed_list(mask))
            attention.e_step(st_b, models, poisoned, pair_list(mask), observed_list(mask))
            np.testing.assert_array_equal(st_a.w, st_b.w)

    def test_masked_pairs_never_touch_theta(self):
        rng = np.random.default_rng(4)
        models_a, train = _setup(rng, K=4)
        models_b = client_store(models_a)
        mask = full_mask(4)
        mask[0, 3] = False
        w = rng.uniform(0.2, 0.8, (4, 4))
        w_masked = np.where(mask, w, 0.0)
        from scool.em.theta import cooperative_sgd_steps

        cooperative_sgd_steps(models_a, train, w_masked, 0.0, 0.1, 2, CROSS_GRADIENT, mask, pair_list(mask))
        # replacing the masked weight by garbage must not matter
        w_garbage = w_masked.copy()
        w_garbage[0, 3] = 1e9
        cooperative_sgd_steps(models_b, train, w_garbage, 0.0, 0.1, 2, CROSS_GRADIENT, mask, pair_list(mask))
        for a, b in zip(models_a, models_b):
            np.testing.assert_array_equal(a.theta, b.theta)


class TestLoglikMatrix:
    def test_entries_are_cross_likelihoods(self):
        rng = np.random.default_rng(6)
        models, train = _setup(rng, K=3)
        ll = rounds.loglik_matrix(models, train, full_mask(3), pair_list(full_mask(3)))
        ref = model_list(models)
        for i in range(3):
            for j in range(3):
                assert ll[i, j] == log_likelihood(ref[i], train[j])


class TestRunRoundContracts:
    def test_unknown_prior(self):
        rng = np.random.default_rng(7)
        models, _ = _setup(rng, K=3)
        mask = build_topology("fully-connected", 3)
        with pytest.raises(ConfigurationError):
            rounds.run_round(None, models, mask, 0, ExperimentConfig(prior_kind="bogus", eta1=0.1))

    def test_full_round_deterministic(self):
        rng = np.random.default_rng(8)
        models_a, train = _setup(rng, K=4)
        models_b = client_store(models_a, train)
        mask_a = build_topology("fully-connected", 4)
        mask_b = build_topology("fully-connected", 4)
        cfg = ExperimentConfig(prior_kind="sbm", eta1=0.1, local_steps=2, K=4, num_memberships=2, seed=9)
        st_a = sbm.init_state(cfg, mask_a, 0)
        st_b = sbm.init_state(cfg, mask_b, 0)
        for r in range(3):
            graph_a, elbo_a, traffic_a = rounds.run_round(st_a, models_a, mask_a, r, cfg)
            graph_b, elbo_b, traffic_b = rounds.run_round(st_b, models_b, mask_b, r, cfg)
            np.testing.assert_array_equal(graph_a, graph_b)
            assert elbo_a == elbo_b
            assert traffic_a == traffic_b
        for a, b in zip(models_a, models_b):
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_local_only_keeps_identity_graph(self):
        rng = np.random.default_rng(10)
        models, _ = _setup(rng, K=3)
        mask = build_topology("fully-connected", 3)
        cfg = ExperimentConfig(prior_kind="local-only", eta1=0.1, local_steps=1, weight_decay=0.0)
        graph, elbo_total, traffic = rounds.run_round(None, models, mask, 0, cfg)
        np.testing.assert_array_equal(graph, np.eye(3))
        assert elbo_total is None and traffic is None

    def test_sparsification_fires_once_at_round(self):
        rng = np.random.default_rng(11)
        models, _ = _setup(rng, K=6)
        mask = build_topology("fully-connected", 6)
        cfg = ExperimentConfig(
            prior_kind="sbm", eta1=0.1, local_steps=1, sparsify_keep_fraction=0.2, sparsify_round=2,
            K=6, num_memberships=2, seed=12,
        )
        st = sbm.init_state(cfg, mask, 0)
        for r in range(4):
            _, _, traffic = rounds.run_round(st, models, mask, r, cfg)
            # pruned in place: the caller's own array is the mask the round
            # charged, and from round 2 on it keeps one neighbour per row
            assert traffic.models_sent == directed_edges(mask)
            off = mask.copy()
            np.fill_diagonal(off, False)
            if r < 2:
                assert off.sum() == 30
            else:
                assert np.all(off.sum(axis=1) == 1)  # ceil(0.2 * 5) = 1

    def test_underflowed_row_at_pruning_is_a_divergence(self):
        # a row of w that underflowed to zero during the run is a numerical
        # event: run_round reports it as a divergence, not a config error
        rng = np.random.default_rng(13)
        models, _ = _setup(rng, K=5)
        mask = build_topology("fully-connected", 5)
        cfg = ExperimentConfig(prior_kind="sbm", eta1=0.1, local_steps=1, K=5, num_memberships=2, seed=14)
        st = sbm.init_state(cfg, mask, 0)
        rounds.run_round(st, models, mask, 0, cfg)
        st.w[3] = 0.0
        before = [m.theta.copy() for m in models]
        cfg = cfg.replace(sparsify_keep_fraction=0.5, sparsify_round=1)
        with pytest.raises(DivergenceError, match=r"^round 1: sparsify: row 3 has no positive weight$"):
            rounds.run_round(st, models, mask, 1, cfg)
        assert mask.all()
        for m, theta in zip(models, before):
            np.testing.assert_array_equal(m.theta, theta)


class TestPriorTable:
    HOOKS = ("init_state", "e_step", "bound_terms", "local_steps", "coupling", "update_prior", "graph")
    # per-pair functions the batched kernel no longer calls through these names
    STALE_BINDINGS = {
        "scool.em.dirac.grad",
        "scool.em.rounds.log_likelihood",
        "scool.em.theta.grad",
        "scool.runner.accuracy",
        "scool.runner.loss",
    }

    @staticmethod
    def _k4(prior):
        cfg = ExperimentConfig(
            prior_kind=prior, seed=3, rounds=2, local_steps=1, K=4, M=4, N=2,
            num_groups=2, samples_per_client=4, test_samples_per_client=4, feature_dim=4,
        ).validate()
        _, train, test = build_tasks(cfg)
        models = build_models(cfg, train, test)
        mask = build_topology(cfg.topology_kind, cfg.K)
        state = build_state(cfg, mask, models.arch.n_params)
        return cfg, models, mask, state

    def test_one_list_of_names_and_seven_hooks(self):
        assert config.PRIORS == tuple(rounds.PRIORS)
        for name, prior in rounds.PRIORS.items():
            for hook in self.HOOKS:
                assert getattr(prior, hook) is None or callable(getattr(prior, hook)), (name, hook)
            assert callable(prior.init_state) and callable(prior.graph)
            # a learned graph has a lower bound and prior parameters, a fixed one neither
            assert (prior.bound_terms is None) == (prior.e_step is None), name
            assert (prior.update_prior is None) == (prior.e_step is None), name

        def having(hook):
            return [name for name, prior in rounds.PRIORS.items() if getattr(prior, hook) is not None]

        assert having("e_step") == ["sbm", "attention", "mmsbm"]
        assert having("coupling") == ["attention"]
        assert having("local_steps") == ["dirac"]

    @pytest.mark.parametrize("prior", list(rounds.PRIORS))
    def test_every_prior_runs_two_rounds(self, prior):
        cfg, models, mask, state = self._k4(prior)
        records = []
        for r in range(2):
            graph, elbo_total, traffic = rounds.run_round(state, models, mask, r, cfg)
            assert graph.shape == (4, 4)
            np.testing.assert_allclose(graph.sum(axis=1), 1.0, atol=1e-12)
            assert (elbo_total is None) == (rounds.PRIORS[prior].e_step is None)
            records.append(traffic)
        if prior == "local-only":
            assert state is None and records == [None, None]
            np.testing.assert_array_equal(graph, np.eye(4))
        else:
            assert all(isinstance(rec, RoundTraffic) for rec in records)

    @pytest.mark.parametrize("grad_mode", config.GRAD_MODES)
    @pytest.mark.parametrize("prior", list(rounds.PRIORS))
    def test_round_returns_its_traffic_record(self, prior, grad_mode):
        # the record account_exchange (learned graph) or account_gossip
        # (fixed graph) gives for the round's own mask; None for local-only
        cfg, models, _, state = self._k4(prior)
        cfg = cfg.replace(grad_mode=grad_mode, local_steps=2)
        mask = build_topology("group-ring", 4, k0=2)  # one neighbour each side
        if state is not None:
            state = build_state(cfg, mask, models.arch.n_params)
        _, _, traffic = rounds.run_round(state, models, mask, 0, cfg)
        if prior == "local-only":
            assert traffic is None
        elif rounds.PRIORS[prior].e_step is None:
            assert traffic == account_gossip(mask, 2) == RoundTraffic(16, 0, 0, 16.0, 16.0)
        else:
            assert traffic == account_exchange(mask, grad_mode, 2, models.arch.n_params)
            assert traffic.scalars_sent == directed_edges(mask) == 8

    @pytest.mark.parametrize("prior", list(rounds.PRIORS))
    def test_models_stay_views_of_the_store(self, prior):
        # the kernels update the store's one K x D array in place: every
        # client's theta is still its row, and the rows moved
        cfg, models, mask, state = self._k4(prior)
        theta, before = models.theta, models.theta.copy()
        rounds.run_round(state, models, mask, 0, cfg)
        assert models.theta is theta
        for i, m in enumerate(models):
            assert np.shares_memory(m.theta, theta[i]) and np.array_equal(m.theta, theta[i])
            assert np.shares_memory(m.init_theta, models.init_theta[i])
        assert not np.array_equal(theta, before)
        np.testing.assert_array_equal(models.init_theta, before)  # round 0 starts at init

    @pytest.mark.parametrize("prior", ["sbm", "mmsbm", "attention"])
    def test_e_step_and_elbo_leave_the_models_alone(self, prior):
        # local step 0 reads the gradients the loglik pass took before the
        # E-step and the lower bound ran; they stay current only as long as
        # neither writes a model
        cfg, models, mask, state = self._k4(prior)
        rounds.run_round(state, models, mask, 0, cfg)  # moved off the shared start
        theta, before = models.theta, models.theta.tobytes()
        ll = rounds.loglik_matrix(models, models.train, mask, pair_list(mask))
        rounds.PRIORS[prior].e_step(state, models, ll, pair_list(mask), observed_list(mask))
        rounds.elbo(rounds.PRIORS[prior], state, ll, observed_list(mask), models)
        assert models.theta is theta and models.theta.tobytes() == before

    @pytest.mark.parametrize("grad_mode", config.GRAD_MODES)
    @pytest.mark.parametrize("prior", list(rounds.PRIORS))
    def test_loglik_gradients_reach_the_local_steps(self, monkeypatch, prior, grad_mode):
        # under cross-gradient the loglik pass fills one row per allowed pair
        # and the cooperative steps get that buffer; otherwise they get None,
        # and dirac's own local steps take no buffer
        cfg, models, mask, state = self._k4(prior)
        cfg = cfg.replace(grad_mode=grad_mode)
        mask = build_topology("group-ring", 4, k0=2)
        if state is not None:
            state = build_state(cfg, mask, models.arch.n_params)
        hook = rounds.PRIORS[prior]
        passed, real, real_gossip = [], theta.cooperative_sgd_steps, dirac.local_steps

        def spy(*args, **kwargs):
            grads = inspect.signature(real).bind(*args, **kwargs).arguments.get("grads")
            passed.append(None if grads is None else grads.copy())
            real(*args, **kwargs)

        def gossip(state, models, config):
            passed.append(None)
            real_gossip(state, models, config)

        monkeypatch.setattr(theta, "cooperative_sgd_steps", spy)
        monkeypatch.setattr(dirac, "local_steps", gossip)
        thetas = models.theta.copy()
        rounds.run_round(state, models, mask, 0, cfg)
        (grads,) = passed
        if grad_mode != CROSS_GRADIENT or hook.e_step is None:
            assert grads is None
        else:
            rows, cols = np.nonzero(mask)
            assert grads.shape == (len(rows), models.arch.n_params) == (12, models.arch.n_params)
            for e, (i, j) in enumerate(zip(rows, cols)):
                want = grad(LocalModel(thetas[i], models.arch), models.train[j])
                np.testing.assert_array_equal(grads[e], want)

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("prior", list(rounds.PRIORS))
    def test_one_pair_list_per_round(self, monkeypatch, prior, prune):
        # run_round takes the round's list from topology.pair_list once,
        # after pruning, whichever module would call it
        cfg, models, mask, state = self._k4(prior)
        learned = rounds.PRIORS[prior].e_step is not None
        cfg = cfg.replace(sparsify_keep_fraction=0.5 if prune else 1.0, sparsify_round=1)
        real, taken = topology.pair_list, []

        def counting(mask):
            taken.append(mask.copy())
            return real(mask)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("scool") and getattr(module, "pair_list", None) is real:
                monkeypatch.setattr(module, "pair_list", counting)
        for r in range(3):
            rounds.run_round(state, models, mask, r, cfg)
            assert len(taken) == r + 1
            np.testing.assert_array_equal(taken[-1], mask)
        assert np.count_nonzero(taken[0]) - np.count_nonzero(taken[-1]) == (4 if prune and learned else 0)

    def test_hooks_are_looked_up_at_call_time(self, monkeypatch):
        cfg, models, mask, state = self._k4("attention")
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        real = attention.e_step
        monkeypatch.setattr(attention, "e_step", spy)
        monkeypatch.setattr(attention, "graph", lambda st, K: np.full((K, K), 1.0 / K))
        graph, _, _ = rounds.run_round(state, models, mask, 0, cfg)
        assert calls == [state]
        np.testing.assert_array_equal(graph, np.full((4, 4), 0.25))

    def test_benchmark_bindings_resolve(self, monkeypatch):
        # the benchmark times layers by rebinding these module-level names
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        probe = importlib.import_module("probe")
        crosscheck = importlib.import_module("crosscheck")
        bindings = [b for layer in probe.LAYERS.values() for b in layer]
        bindings += [probe.ROUND, probe.LOOP_END, *crosscheck.COOP_BINDINGS]
        missing = set()
        for module, attr in bindings:
            try:
                probe._resolve(module, attr)
            except (ImportError, AttributeError):
                missing.add(f"{module}.{attr}")
        assert missing <= self.STALE_BINDINGS



# The one function of scool.em that may still turn a mask into pairs itself:
# dirac's set-up. Every other layer reads the round's list, or the pairs a
# prior's state holds, which topology.pair_list makes.
PAIR_RULES = {"nonzero", "flatnonzero", "count_nonzero", "observed_pairs"}
MASK_TO_PAIRS_ALLOWED = {("dirac.py", "metropolis_weights")}


def test_only_the_allowlist_turns_a_mask_into_pairs():
    """No code in scool.em outside MASK_TO_PAIRS_ALLOWED names np.nonzero,
    np.flatnonzero, np.count_nonzero or observed_pairs, and every allowed
    function still does (an entry that no longer needs its place goes)."""
    found = set()
    for path in sorted(Path(scool.em.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))  # a nested function counts as its top-level one
            for node in ast.walk(top):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in PAIR_RULES and isinstance(node, (ast.Attribute, ast.Name)):
                    found.add(where)
    assert found == MASK_TO_PAIRS_ALLOWED


def test_no_e_step_takes_a_mask():
    """Every E-step reads the round's pair list; none has a mask parameter."""
    for name, prior in rounds.PRIORS.items():
        if prior.e_step is not None:
            assert "mask" not in inspect.signature(prior.e_step).parameters, name


def test_run_round_makes_the_one_cooperative_call():
    """No function of scool other than rounds.run_round calls
    cooperative_sgd_steps, and no module of scool.em defines m_step: the
    local epochs belong to the round, not to a prior."""
    callers, m_steps = set(), set()
    for path in sorted(Path(scool.em.__file__).parent.parent.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.parent.name == "em" and getattr(top, "name", None) == "m_step":
                m_steps.add(path.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    if name == "cooperative_sgd_steps":
                        callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("rounds.py", "run_round")}
    assert not m_steps
    assert not any(hasattr(prior, "m_step") for prior in rounds.PRIORS.values())


MASK_KINDS = ("full", "group-ring", "bipartite", "random")


def _oracle_mask(kind: str, K: int, rng) -> np.ndarray:
    if kind == "full":
        return full_mask(K)
    if kind == "group-ring":
        return build_topology("group-ring", K, k0=K - 2)  # one neighbour on each side
    if kind == "bipartite":
        return build_topology("generalized-bipartite", K, degree=1, seed=int(rng.integers(2**16)))
    return random_symmetric_mask(rng, K, keep=0.5)


class TestWholeRoundOracle:
    """Three rounds of run_round against reference_round (tests/conftest.py),
    which takes every likelihood and gradient per pair, folds rows left to
    right and works out the observed pairs from the mask wherever it reads
    them: the stored step-0 gradients, the pair order after pruning, the
    zero-weight pairs, the coupling and the prior steps after an E-step
    must all agree."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        hst.sampled_from(list(rounds.PRIORS)),
        hst.sampled_from(config.ARCHS),
        hst.sampled_from(config.GRAD_MODES),
        hst.sampled_from(MASK_KINDS),
        hst.sampled_from([False, True]),
        hst.sampled_from([1, 2]),
        hst.sampled_from(config.OPTIMIZERS),
        hst.sampled_from(range(3, 9)),
        hst.integers(0, 2**16),
    )
    def test_three_rounds_match_the_reference(
        self, prior, arch, grad_mode, mask_kind, prune, local_steps, optimizer, K, seed
    ):
        cfg = ExperimentConfig(
            prior_kind=prior, seed=seed, K=K, M=2, N=2, num_groups=1, samples_per_client=4,
            test_samples_per_client=1, feature_dim=3, arch=arch, hidden_units=4, shared_init=False,
            init_scale=0.3, eta1=0.2, eta2=0.1, weight_decay=0.01, grad_mode=grad_mode, optimizer=optimizer,
            local_steps=local_steps, num_memberships=2, enc_hidden=4, enc_out=3,
            # dirac has no learned weights to prune by
            sparsify_keep_fraction=0.5 if prune and prior != "dirac" else 1.0, sparsify_round=1,
        ).validate()
        assignment, train, test = build_tasks(cfg)
        models = build_models(cfg, train, test)
        mask = _oracle_mask(mask_kind, K, np.random.default_rng(seed))
        state = build_state(cfg, mask, models.arch.n_params)
        ref_models = [LocalModel(t.copy(), models.arch, t0) for t, t0 in zip(models.theta, models.init_theta)]
        ref_train = [Dataset(X, Y, c) for X, Y, c in zip(train.features, train.labels, assignment.class_sets)]
        ref_state, ref_mask = copy.deepcopy(state), mask.copy()
        for r in range(3):
            graph, elbo_total, traffic = rounds.run_round(state, models, mask, r, cfg)
            ref_graph, ref_elbo, ref_traffic = reference_round(ref_state, ref_models, ref_train, ref_mask, r, cfg)
            np.testing.assert_array_equal(mask, ref_mask)
            np.testing.assert_allclose(models.theta, np.stack([m.theta for m in ref_models]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(graph, ref_graph, rtol=0, atol=1e-12)
            if state is not None:
                np.testing.assert_allclose(state.w, ref_state.w, rtol=0, atol=1e-12)
            assert (elbo_total is None) == (ref_elbo is None)
            if elbo_total is not None:
                assert abs(elbo_total - ref_elbo) <= 1e-12 * max(1.0, abs(ref_elbo))
            assert traffic == ref_traffic
