"""Shared fixtures: random-state factories, finite-difference helpers and
the calibrated recovery benchmark used by the slower end-to-end tests."""

from __future__ import annotations

import numpy as np

from scool.config import ExperimentConfig
from scool.em import sbm
from scool.em.state import (
    AdamSlot,
    AttentionState,
    MmsbmState,
    SbmState,
)
from scool.models import ArchSpec, Dataset, LocalModel
from scool.special import softmax_tempered


# ---------------------------------------------------------------- numerics


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def simplex_kkt_spread(grads) -> float:
    """KKT residual of a simplex-constrained block: the Lagrangian gradient
    components must be equal across coordinates."""
    g = np.asarray(grads, dtype=float)
    return float(np.max(np.abs(g - g.mean())))


# ------------------------------------------------------- random VI states
# Entries are kept comfortably inside the open domains so that central
# differences of the lower bound stay well-conditioned.


def interior_simplex(rng: np.random.Generator, shape) -> np.ndarray:
    raw = 0.9 * rng.dirichlet(2.0 * np.ones(shape[-1]), size=shape[:-1]) + 0.1 / shape[-1]
    return raw


def random_loglik(rng: np.random.Generator, K: int) -> np.ndarray:
    return rng.uniform(-1.5, 0.0, (K, K))


def random_sbm_state(rng: np.random.Generator, K: int, M: int) -> SbmState:
    return SbmState(
        w=rng.uniform(0.05, 0.95, (K, K)),
        gamma=rng.uniform(0.5, 3.0, (K, M)),
        omega=interior_simplex(rng, (K, M)),
        alpha=rng.uniform(0.5, 2.0, M),
        B=rng.uniform(0.25, 0.75, (M, M)),
        lam=0.0,
        tau_sigmoid=1.0,
        eta2=0.05,
        alpha_slot=AdamSlot.like(np.zeros(M)),
    )


def clone_sbm(state: SbmState, **overrides) -> SbmState:
    base = dict(
        w=state.w, gamma=state.gamma, omega=state.omega, alpha=state.alpha,
        B=state.B, lam=state.lam, tau_sigmoid=state.tau_sigmoid, eta2=state.eta2,
    )
    base.update(overrides)
    return SbmState(**base)


def update_omega_row(state: SbmState, i: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-ascent oracle: the membership update of a single client,
    all other rows held fixed."""
    return softmax_tempered(sbm.omega_scores(state, mask)[i], 1.0)


def random_mmsbm_state(rng: np.random.Generator, K: int, M: int) -> MmsbmState:
    return MmsbmState(
        w=rng.uniform(0.05, 0.95, (K, K)),
        phi_send=interior_simplex(rng, (K, K, M)),
        phi_recv=interior_simplex(rng, (K, K, M)),
        gamma=rng.uniform(0.5, 3.0, (K, M)),
        alpha=rng.uniform(0.5, 2.0, M),
        B=rng.uniform(0.25, 0.75, (M, M)),
        lam=0.0,
        tau_sigmoid=1.0,
        eta2=0.05,
        alpha_slot=AdamSlot.like(np.zeros(M)),
    )


def clone_mmsbm(state: MmsbmState, **overrides) -> MmsbmState:
    base = dict(
        w=state.w, phi_send=state.phi_send, phi_recv=state.phi_recv,
        gamma=state.gamma, alpha=state.alpha, B=state.B, lam=state.lam,
        tau_sigmoid=state.tau_sigmoid, eta2=state.eta2,
    )
    base.update(overrides)
    return MmsbmState(**base)


def random_attention_setup(rng: np.random.Generator, K: int, d: int = 3):
    """Models with distinct accumulated updates plus a small random encoder."""
    arch = ArchSpec("softmax-regression", d=d, C=2)
    base = 0.01 * rng.standard_normal(arch.n_params)
    models = []
    for _ in range(K):
        m = LocalModel(base.copy(), arch)
        m.theta = m.theta + 0.4 * rng.standard_normal(arch.n_params)
        models.append(m)
    hidden, out = 6, 4
    W1 = rng.standard_normal((hidden, arch.n_params)) / np.sqrt(arch.n_params)
    W2 = 0.5 * rng.standard_normal((out, hidden)) / np.sqrt(hidden)
    phi = np.concatenate([W1.ravel(), np.zeros(hidden), W2.ravel(), np.zeros(out)])
    state = AttentionState(
        phi=phi,
        enc_dims=(arch.n_params, hidden, out),
        w=np.full((K, K), 1.0 / K),
        p=np.full((K, K), 1.0 / K),
        lam=0.0,
        tau_softmax=1.0,
        eta2=0.05,
        phi_slot=AdamSlot.like(phi),
    )
    return models, state


def clone_attention(state: AttentionState, **overrides) -> AttentionState:
    base = dict(
        phi=state.phi, enc_dims=state.enc_dims, w=state.w, p=state.p,
        lam=state.lam, tau_softmax=state.tau_softmax, eta2=state.eta2,
    )
    base.update(overrides)
    return AttentionState(**base)


def tiny_dataset(rng: np.random.Generator, n: int, d: int, C: int) -> Dataset:
    X = rng.standard_normal((n, d))
    y = rng.integers(0, C, n)
    return Dataset(X, y, tuple(range(C)))


# ------------------------------------------------------------- benchmark
# Desk-scale recovery benchmark: 3 groups of 4 clients over 6 classes whose
# label axes conflict across groups, 30 rounds of 2 local steps, and the
# top-3 neighborhood pruning after round 10.


def benchmark_config(prior_kind: str, seed: int, grad_mode: str = "cross-gradient") -> ExperimentConfig:
    kw = dict(
        prior_kind=prior_kind,
        seed=seed,
        rounds=30,
        local_steps=2,
        task_setting="noniid-sbm",
        K=12,
        M=6,
        N=2,
        num_groups=3,
        samples_per_client=8,
        test_samples_per_client=400,
        feature_dim=8,
        noise_sigma=0.7,
        class_separation=2.2,
        mean_placement="antipodal-pairs",
        eta1=0.25,
        eta2=0.1,
        weight_decay=1e-4,
        grad_mode=grad_mode,
        num_memberships=3,
        sparsify_keep_fraction=0.27,
        sparsify_round=10,
        snapshot_every=0,
    )
    if prior_kind == "sbm":
        kw.update(tau_sigmoid=1.4, block_init=0.1)
    elif prior_kind == "attention":
        kw.update(tau_softmax=1.0, eta2=0.02)
    elif prior_kind == "dirac":
        kw.update(sparsify_keep_fraction=1.0)  # uniform fully-connected baseline
    return ExperimentConfig(**kw).validate()


BENCHMARK_SEEDS = (0, 1, 2)
