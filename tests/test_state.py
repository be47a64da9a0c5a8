"""Prior state set-up and the prior-parameter ascent step."""

import numpy as np
import pytest

from scool.config import ExperimentConfig
from scool.em import attention, mmsbm, rounds, sbm
from scool.em.common import alpha_gradient, block_ratio
from scool.em.state import ALPHA_MIN, AdamSlot, AttentionState, ascent_step, clamp_block_matrix
from scool.errors import ConfigurationError, InvariantError
from scool.topology import build_topology, observed_pairs

from conftest import clone_mmsbm, clone_sbm, random_attention_setup, random_mmsbm_state, random_sbm_state


class TestAscentStep:
    def test_plain_step(self):
        p, g = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -4.0])
        np.testing.assert_array_equal(ascent_step(p, g, None, ExperimentConfig(eta2=0.1)), p + 0.1 * g)

    def test_adam_bias_corrected_moments(self):
        # three steps against the moments written out by hand, with
        # beta1 = 0.9, beta2 = 0.999, eps = 1e-8
        p = np.array([0.5, -1.0])
        gs = [np.array([1.0, -2.0]), np.array([0.5, 4.0]), np.array([-3.0, 1.0])]
        m1 = 0.1 * gs[0]
        v1 = 0.001 * gs[0] ** 2
        m2 = 0.9 * m1 + 0.1 * gs[1]
        v2 = 0.999 * v1 + 0.001 * gs[1] ** 2
        m3 = 0.9 * m2 + 0.1 * gs[2]
        v3 = 0.999 * v2 + 0.001 * gs[2] ** 2
        want = p.copy()
        for t, (m, v) in enumerate([(m1, v1), (m2, v2), (m3, v3)], start=1):
            mhat = m / (1.0 - 0.9**t)
            vhat = v / (1.0 - 0.999**t)
            want = want + 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        slot, cfg = AdamSlot.like(p), ExperimentConfig(eta2=0.05, optimizer="adam")
        got = p
        for t, g in enumerate(gs, start=1):
            got = ascent_step(got, g, slot, cfg)
            assert slot.t == t
        np.testing.assert_allclose(slot.m, m3, rtol=1e-15)
        np.testing.assert_allclose(slot.v, v3, rtol=1e-15)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_first_adam_step_is_a_signed_step(self):
        # bias correction makes the first step lr * g / (|g| + eps)
        p, g = np.zeros(3), np.array([2.0, -0.5, 7.0])
        got = ascent_step(p, g, AdamSlot.like(p), ExperimentConfig(eta2=0.01, optimizer="adam"))
        np.testing.assert_allclose(got, 0.01 * np.sign(g), rtol=1e-7)

    @pytest.mark.parametrize("optimizer", ["plain", "adam"])
    def test_decay_pulls_toward_zero(self, optimizer):
        p = np.array([0.8, -1.5, 3.0])
        cfg = ExperimentConfig(eta2=0.1, optimizer=optimizer, optimizer_weight_decay=0.01)
        new = ascent_step(p, np.zeros(3), AdamSlot.like(p), cfg)
        assert np.all(np.abs(new) < np.abs(p)) and np.all(np.sign(new) == np.sign(p))
        if optimizer == "plain":
            np.testing.assert_array_equal(new, p + 0.1 * (-0.01 * p))
        # no decay and no gradient: nothing moves
        cfg = cfg.replace(optimizer_weight_decay=0.0)
        np.testing.assert_array_equal(ascent_step(p, np.zeros(3), AdamSlot.like(p), cfg), p)

    def test_adam_needs_a_moment_slot(self):
        with pytest.raises(ConfigurationError, match="adam needs a moment slot"):
            ascent_step(np.ones(2), np.ones(2), None, ExperimentConfig(optimizer="adam"))

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigurationError, match="unknown optimizer"):
            ascent_step(np.ones(2), np.ones(2), AdamSlot.like(np.ones(2)), ExperimentConfig(optimizer="sgd"))


class TestStepSizeFromConfig:
    def test_update_alpha(self):
        rng = np.random.default_rng(21)
        st = random_sbm_state(rng, 4, 3)
        want = np.maximum(st.alpha + 0.037 * alpha_gradient(st.elp, st.alpha), ALPHA_MIN)
        np.testing.assert_array_equal(sbm.update_alpha(st, ExperimentConfig(eta2=0.037)), want)

    def test_update_phi(self):
        rng = np.random.default_rng(22)
        models, st = random_attention_setup(rng, 5)
        want = st.phi + 0.037 * attention.phi_gradient(st, models)
        np.testing.assert_array_equal(attention.update_phi(st, models, ExperimentConfig(eta2=0.037)), want)


# every setting the learned states read, off its default
OFF_DEFAULT = dict(
    K=6, M=4, N=2, num_groups=2, feature_dim=4, seed=5,
    weight_decay=0.02, tau_sigmoid=1.7, tau_softmax=0.6, block_init=0.3,
    num_memberships=4, enc_hidden=7, enc_out=3,
)


def _state(prior: str):
    cfg = ExperimentConfig(prior_kind=prior, **OFF_DEFAULT).validate()
    return rounds.PRIORS[prior].init_state(cfg, build_topology(cfg.topology_kind, cfg.K))


class TestInitStateReadsConfig:
    @pytest.mark.parametrize("prior", ["sbm", "mmsbm"])
    def test_block_priors(self, prior):
        st = _state(prior)
        assert st.tau_sigmoid == 1.7
        assert st.n_clients == 6 and st.n_blocks == 4
        np.testing.assert_array_equal(st.B, np.full((4, 4), 0.3))
        np.testing.assert_array_equal(st.alpha, np.ones(4))
        np.testing.assert_array_equal(st.w, np.full((6, 6), 0.5))
        assert st.alpha_slot.t == 0 and st.alpha_slot.m.shape == (4,)

    @pytest.mark.parametrize("kind, kw", [
        ("fully-connected", {}),
        ("group-ring", {"k0": 4}),
        ("generalized-bipartite", {"degree": 2, "seed": 3}),
    ])
    def test_block_priors_hold_the_same_pairs(self, kind, kw):
        # the block model's shared start: the mask's off-diagonal true
        # entries, row-major, whichever prior holds them
        cfg = ExperimentConfig(**OFF_DEFAULT).validate()
        mask = build_topology(kind, cfg.K, **kw)
        pairs = sbm.init_state(cfg, mask).pairs
        np.testing.assert_array_equal(pairs, mmsbm.init_state(cfg, mask).pairs)
        np.testing.assert_array_equal(pairs, np.flatnonzero(observed_pairs(mask)))

    def test_attention(self):
        st = _state("attention")
        assert st.tau_softmax == 0.6
        assert st.enc_dims == (10, 7, 3)
        assert st.phi.shape == (7 * 10 + 7 + 3 * 7 + 3,)
        np.testing.assert_array_equal(st.w, np.full((6, 6), 1.0 / 6))
        np.testing.assert_array_equal(st.p, np.full(len(st.pairs), 1.0 / 6))  # listed, one per pair
        assert st.phi_slot.t == 0 and st.phi_slot.m.shape == st.phi.shape

    @pytest.mark.parametrize("length", [0, 114, 116])
    def test_attention_refuses_an_encoder_of_the_wrong_length(self, length):
        dims = (10, 8, 3)  # 8 * 10 + 8 + 3 * 8 + 3 = 115 parameters
        with pytest.raises(ConfigurationError, match=r"encoder wants 115 parameters for dims \(10, 8, 3\)"):
            AttentionState(
                phi=np.zeros(length), enc_dims=dims, w=np.eye(2), p=np.eye(2), pairs=np.array([0, 3]),
                tau_softmax=1.0,
            )


class TestBlockMatrixInvariant:
    # np.clip passes a NaN through unchanged, so the clamp must refuse it
    def _nan_B(self, M=3):
        B = np.full((M, M), 0.4)
        B[1, 2] = np.nan
        return B

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_clamp_refuses_non_finite_entries(self, bad):
        B = np.full((2, 2), 0.4)
        B[0, 1] = bad
        with pytest.raises(InvariantError, match="non-finite"):
            clamp_block_matrix(B)

    def test_sbm_state(self):
        state = random_sbm_state(np.random.default_rng(61), 5, 3)
        with pytest.raises(InvariantError, match="non-finite"):
            clone_sbm(state, B=self._nan_B())

    def test_mmsbm_state(self):
        state = random_mmsbm_state(np.random.default_rng(62), 5, 3)
        with pytest.raises(InvariantError, match="non-finite"):
            clone_mmsbm(state, B=self._nan_B())

    def test_block_ratio(self):
        num, den = np.full((3, 3), 0.5), np.ones((3, 3))
        np.testing.assert_array_equal(block_ratio(num, den), num)
        with pytest.raises(InvariantError, match="non-finite"):
            block_ratio(self._nan_B(), den)


class TestBlockStateChecks:
    @pytest.mark.parametrize("field", ["gamma", "alpha"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_gamma_and_alpha_stay_positive(self, field, bad):
        for state, clone in ((random_sbm_state(np.random.default_rng(63), 5, 3), clone_sbm),
                             (random_mmsbm_state(np.random.default_rng(64), 5, 3), clone_mmsbm)):
            value = getattr(state, field).copy()
            value[..., 1] = bad
            with pytest.raises(InvariantError, match="^gamma and alpha must stay positive$"):
                clone(state, **{field: value})

    def test_sbm_omega_on_the_simplex(self):
        state = random_sbm_state(np.random.default_rng(65), 5, 3)
        omega = state.omega.copy()
        omega[2] *= 1.5
        with pytest.raises(InvariantError, match="^omega rows must lie on the simplex$"):
            clone_sbm(state, omega=omega)


class TestMmsbmSimplexCheck:
    """MmsbmState checks its E x M pair memberships with the verdict of
    np.allclose(phi.sum(axis=-1), 1.0, atol=1e-9): |sum - 1| <= 1e-9 + 1e-5,
    and a NaN or infinite sum is off the simplex."""

    @pytest.mark.parametrize("field", ["phi_send", "phi_recv"])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_same_verdict_as_allclose(self, field, M):
        state = random_mmsbm_state(np.random.default_rng(70 + M), 5, M)
        bumps = [0.0, 5e-6, -5e-6, 1e-5, 1e-5 + 1e-9, -1e-5 - 1e-9, 1.1e-5, 2e-5, -2e-5, 0.5, np.nan, np.inf, -np.inf]
        verdicts = []
        for bump in bumps:
            phi = getattr(state, field).copy()
            phi[13, M - 1] += bump
            on_simplex = np.allclose(phi.sum(axis=-1), 1.0, atol=1e-9)
            verdicts.append(on_simplex)
            if on_simplex:
                clone_mmsbm(state, **{field: phi})
            else:
                with pytest.raises(InvariantError, match=f"{field} rows must lie on the simplex"):
                    clone_mmsbm(state, **{field: phi})
        assert verdicts[:3] == [True] * 3 and verdicts[-6:] == [False] * 6
