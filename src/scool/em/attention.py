"""Attention prior: cooperation weights from encoded model-update similarity.

A small two-layer encoder, a dense tanh network of widths ``enc_dims`` in
the models' flat layout (``models.unpack_layers``), maps each client's
accumulated model update (theta minus its shared starting point) to an
embedding; dot products of embeddings, softmaxed over each row's entries
that the topology's boolean mask allows, define a row-stochastic attention
matrix p, the E-step folds p together with the cross-client
log-likelihoods into w (zero off the mask), and the M-step trains the
encoder to pull p toward w (row-wise cross-entropy descent).

Gradients here are written out by hand: the encoder is three matmuls and a
tanh, and keeping the whole package autograd-free makes the finite-
difference oracles in the tests genuinely independent.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import ClientStore, pack_layers, unpack_layers
from ..special import softmax_tempered
from .state import PROB_FLOOR, AdamSlot, AttentionState, ascent_step
from .theta import cooperative_sgd_steps


def init_state(config, mask, theta_dim: int) -> AttentionState:
    """A random encoder with zero biases; uniform attention and w."""
    K, h, out = config.K, config.enc_hidden, config.enc_out
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    W1 = rng.standard_normal((h, theta_dim)) / np.sqrt(theta_dim)
    # modest output scale: raw embedding norms start well below 1 so the
    # self-similarity score cannot drown the likelihood evidence at small K
    W2 = 0.3 * rng.standard_normal((out, h)) / np.sqrt(h)
    phi = pack_layers([(W1, np.zeros(h)), (W2, np.zeros(out))])
    uniform = np.full((K, K), 1.0 / K)
    return AttentionState(
        phi=phi,
        enc_dims=(theta_dim, h, out),
        w=uniform.copy(),
        p=uniform.copy(),
        lam=config.weight_decay,
        tau_softmax=config.tau_softmax,
        phi_slot=AdamSlot.like(phi),
    )


def model_deltas(models: ClientStore) -> np.ndarray:
    """Accumulated updates theta - theta_init, K x D."""
    return models.theta - models.init_theta


def encode(phi: np.ndarray, dims: tuple[int, int, int], X: np.ndarray) -> np.ndarray:
    return _encoder_forward(phi, dims, X)[-1]


def _encoder_forward(phi, dims, X):
    (W1, b1), (W2, b2) = unpack_layers(phi, dims)
    H = np.tanh(X @ W1.T + b1)
    E = H @ W2.T + b2
    return W1, W2, H, E


def _masked_row_softmax(scores: np.ndarray, tau: float, mask: np.ndarray) -> np.ndarray:
    """Row softmax over the allowed entries, zero elsewhere. Rows of equal
    mask degree share one 2-D softmax over their compacted allowed entries.
    Allowed scores that are not finite over tau are a divergence."""
    degree = mask.sum(axis=1)
    if not degree.all():
        raise ConfigurationError(f"client {int(np.argmin(degree))} has a fully masked row")
    if not np.all(np.isfinite(scores[mask] / tau)):
        raise DivergenceError("attention scores over the temperature are non-finite")
    out = np.zeros_like(scores)
    for k in np.flatnonzero(np.bincount(degree)):  # np.unique loads numpy.ma (about 1 MB)
        rows = np.flatnonzero(degree == k)[:, None]
        cols = np.nonzero(mask[rows[:, 0]])[1].reshape(len(rows), k)
        out[rows, cols] = softmax_tempered(scores[rows, cols], tau)
    return out


def compute_p(
    models: ClientStore,
    phi: np.ndarray,
    dims: tuple[int, int, int],
    tau: float,
    mask: np.ndarray,
) -> np.ndarray:
    """Row-stochastic attention from embedding dot products; masked pairs
    are excluded from the normalization."""
    return _attention(encode(phi, dims, model_deltas(models)), tau, mask)


def _attention(E: np.ndarray, tau: float, mask: np.ndarray) -> np.ndarray:
    return _masked_row_softmax(E @ E.T, tau, mask)


def update_w(state: AttentionState, loglik: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise tempered softmax of log-likelihood plus log-attention.

    The self column carries only its attention score: the client's own-data
    term sits outside the graph posterior, so the stationary weight for
    j = i has no likelihood contribution.
    """
    logits = np.array(loglik, dtype=float)
    np.fill_diagonal(logits, 0.0)
    logits = logits + np.log(np.maximum(state.p, PROB_FLOOR))
    return _masked_row_softmax(logits, state.tau_softmax, mask)


def _residual_pass(state: AttentionState, models: ClientStore, mask: np.ndarray):
    """One encoder pass on the model deltas X: the encoder's weights W1 and
    W2, its hidden layer H, the embeddings E, and the residual
    C = d/dF of sum_j w_ij log p_ij, which for rows of w on the simplex is
    (w - p)/tau on the allowed pairs."""
    X = model_deltas(models)
    W1, W2, H, E = _encoder_forward(state.phi, state.enc_dims, X)
    p = _attention(E, state.tau_softmax, mask)
    C = np.where(mask, (state.w - p) / state.tau_softmax, 0.0)
    return X, W1, W2, H, E, C


def coupling_descent_terms(
    models: ClientStore,
    state: AttentionState,
    mask: np.ndarray,
) -> np.ndarray:
    """Per-client descent contribution -grad_theta_i sum_j w_ij log p_ij.

    Only client i's own embedding is differentiated (the update is local);
    within row i the self score <e_i, e_i> contributes through both slots,
    so the analytic value matches a finite difference of the row objective.
    """
    _, W1, W2, H, E, C = _residual_pass(state, models, mask)
    dE = C @ E  # row i: sum_j C_ij e_j
    dE += (np.diag(C)[:, None]) * E  # second slot of the self score
    dH = dE @ W2
    dZ = dH * (1.0 - H * H)
    dX = dZ @ W1  # ascent direction on theta_i
    return -dX


def phi_gradient(
    state: AttentionState,
    models: ClientStore,
    mask: np.ndarray,
) -> np.ndarray:
    """Ascent gradient of sum_ij w_ij log p_ij w.r.t. the encoder, flowing
    through every embedding."""
    X, W1, W2, H, E, C = _residual_pass(state, models, mask)
    dE = (C + C.T) @ E
    dH = dE @ W2
    dZ = dH * (1.0 - H * H)
    dW2 = dE.T @ H
    db2 = dE.sum(axis=0)
    dW1 = dZ.T @ X
    db1 = dZ.sum(axis=0)
    return pack_layers([(dW1, db1), (dW2, db2)])


def update_phi(state: AttentionState, models: ClientStore, mask: np.ndarray, config) -> np.ndarray:
    """One encoder ascent step on the attention agreement objective, under
    the run's prior step size, optimizer and decay."""
    g = phi_gradient(state, models, mask)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("encoder gradient is non-finite")
    return ascent_step(state.phi, g, state.phi_slot, config)


def e_step(
    state: AttentionState,
    models: ClientStore,
    loglik: np.ndarray,
    mask: np.ndarray,
) -> AttentionState:
    state.p = compute_p(models, state.phi, state.enc_dims, state.tau_softmax, mask)
    state.w = update_w(state, loglik, mask)
    return state


def m_step(state: AttentionState, models, mask, config, grads) -> None:
    cooperative_sgd_steps(
        models, models.train, state.w, config.weight_decay, config.eta1, config.local_steps,
        config.grad_mode, mask, lambda ms: coupling_descent_terms(ms, state, mask), grads,
    )
    state.phi = update_phi(state, models, mask, config)


def graph(state: AttentionState, K: int) -> np.ndarray:
    """The posterior cooperation w; its rows are already on the simplex."""
    return np.array(state.w, dtype=float)
