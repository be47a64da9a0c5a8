"""Attention prior: cooperation weights from encoded model-update similarity.

A small two-layer encoder, a dense tanh network of widths ``enc_dims`` in
the models' flat layout (``models.unpack_layers``), maps each client's
accumulated model update (theta minus its shared starting point) to an
embedding; dot products of embeddings, softmaxed over each row's entries
in the round's pair list (topology.pair_list, kept as state.pairs), define a
row-stochastic attention p, one value per listed pair; the E-step folds p and
the listed cross-client log-likelihoods into w (K x K, zero off the list), and
the M-step trains the encoder to pull p toward w (row-wise cross-entropy descent).

Gradients here are written out by hand: the encoder is three matmuls and a
tanh, and keeping the whole package autograd-free makes the finite-
difference oracles in the tests genuinely independent.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..models import ClientStore, pack_layers, unpack_layers
from ..special import softmax_tempered, xlogx
from ..topology import pair_list, pair_matrix
from .state import PROB_FLOOR, AdamSlot, AttentionState, ascent_step
from .state import read_only_w as graph  # the reporting hook local-only and dirac share
from .theta import cooperative_sgd_steps  # unused: the benchmark's probe rebinds it here until ROADMAP item 1(b)

local_steps = None


def init_state(config, mask) -> AttentionState:
    """A random encoder, its input the models' width, with zero biases;
    uniform attention and w over each row's run of the mask's pair list."""
    K, h, out = config.K, config.enc_hidden, config.enc_out
    theta_dim = config.arch_spec().n_params
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    W1 = rng.standard_normal((h, theta_dim)) / np.sqrt(theta_dim)
    # modest output scale: raw embedding norms start well below 1 so the
    # self-similarity score cannot drown the likelihood evidence at small K
    W2 = 0.3 * rng.standard_normal((out, h)) / np.sqrt(h)
    phi = pack_layers([(W1, np.zeros(h)), (W2, np.zeros(out))])
    pairs = pair_list(mask)
    p = 1.0 / np.bincount(pairs // K)[pairs // K]
    return AttentionState(
        phi=phi,
        enc_dims=(theta_dim, h, out),
        w=pair_matrix(K, pairs, p),
        p=p,
        pairs=pairs,
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


def _pair_row_softmax(values: np.ndarray, tau: float, pairs: np.ndarray, K: int) -> np.ndarray:
    """Softmax of the listed ``values`` over each row's run of the row-major
    pair list ``pairs``; rows of equal degree share one 2-D softmax over their
    runs. Listed values that are not finite over tau are a divergence."""
    degree = np.bincount(pairs // K, minlength=K)
    if not degree.all():
        raise ConfigurationError(f"client {int(np.argmin(degree))} has a fully masked row")
    if not np.all(np.isfinite(values / tau)):
        raise DivergenceError("attention scores over the temperature are non-finite")
    first = np.cumsum(degree) - degree  # where each row's run starts
    out = np.empty_like(values)
    for k in set(degree.tolist()):  # np.unique loads numpy.ma (about 1 MB)
        at = first[degree == k, None] + np.arange(k)
        out[at] = softmax_tempered(values[at], tau)
    return out


def compute_p(
    models: ClientStore, phi: np.ndarray, dims: tuple[int, int, int], tau: float, pairs: np.ndarray
) -> np.ndarray:
    """Row-stochastic attention from embedding dot products, normalized
    over the pair list ``pairs`` only: one value per listed pair."""
    return _attention(encode(phi, dims, model_deltas(models)), tau, pairs)


def _attention(E: np.ndarray, tau: float, pairs: np.ndarray) -> np.ndarray:
    return _pair_row_softmax(np.take(E @ E.T, pairs), tau, pairs, len(E))


def update_w(state: AttentionState, loglik: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Tempered softmax of log-likelihood plus log-attention over each row's
    listed pairs (``loglik`` lists one per entry of state.pairs), as K x K.

    The self column carries only its attention score: the client's own-data
    term sits outside the graph posterior, so the stationary weight for
    j = i has no likelihood contribution.
    """
    K, pairs = len(state.w), state.pairs
    logits = np.where(diagonal, 0.0, loglik)
    logits += np.log(np.maximum(state.p, PROB_FLOOR))
    return pair_matrix(K, pairs, _pair_row_softmax(logits, state.tau_softmax, pairs, K))


def _residual_pass(state: AttentionState, models: ClientStore):
    """One encoder pass on the model deltas X: the encoder's weights W1 and
    W2, its hidden layer H, the embeddings E, and the residual
    C = d/dF of sum_j w_ij log p_ij, which for rows of w on the simplex is
    (w - p)/tau on the state's pairs and 0 elsewhere."""
    X = model_deltas(models)
    W1, W2, H, E = _encoder_forward(state.phi, state.enc_dims, X)
    pairs = state.pairs
    p = _attention(E, state.tau_softmax, pairs)
    C = pair_matrix(len(E), pairs, (np.take(state.w, pairs) - p) / state.tau_softmax)
    return X, W1, W2, H, E, C


def coupling_descent_terms(models: ClientStore, state: AttentionState, mask: np.ndarray) -> np.ndarray:
    """Per-client descent contribution -grad_theta_i sum_j w_ij log p_ij.

    Only client i's own embedding is differentiated (the update is local);
    within row i the self score <e_i, e_i> contributes through both slots,
    so the analytic value matches a finite difference of the row objective.
    The terms read the state's pair list. ``mask`` is read only by the
    benchmark's last-call coupling cross-check, which recomputes them from it.
    """
    _, W1, W2, H, E, C = _residual_pass(state, models)
    dE = C @ E  # row i: sum_j C_ij e_j
    dE += (np.diag(C)[:, None]) * E  # second slot of the self score
    dH = dE @ W2
    dZ = dH * (1.0 - H * H)
    dX = dZ @ W1  # ascent direction on theta_i
    return -dX


def phi_gradient(state: AttentionState, models: ClientStore) -> np.ndarray:
    """Ascent gradient of sum_ij w_ij log p_ij w.r.t. the encoder, flowing
    through every embedding."""
    X, W1, W2, H, E, C = _residual_pass(state, models)
    dE = (C + C.T) @ E
    dH = dE @ W2
    dZ = dH * (1.0 - H * H)
    dW2 = dE.T @ H
    db2 = dE.sum(axis=0)
    dW1 = dZ.T @ X
    db1 = dZ.sum(axis=0)
    return pack_layers([(dW1, db1), (dW2, db2)])


def update_phi(state: AttentionState, models: ClientStore, config) -> np.ndarray:
    """One encoder ascent step on the attention agreement objective, under
    the run's prior step size, optimizer and decay."""
    g = phi_gradient(state, models)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("encoder gradient is non-finite")
    return ascent_step(state.phi, g, state.phi_slot, config)


def bound_terms(state: AttentionState) -> dict[str, float]:
    """The agreement sum_ij w_ij log p_ij, p floored as in update_w, and the entropy of w."""
    entropy_w = -float(xlogx(state.w).sum())  # its temporary is freed before logp is laid out
    logp = pair_matrix(len(state.w), state.pairs, np.log(np.maximum(state.p, PROB_FLOOR)))
    return dict(edge=float(np.multiply(state.w, logp, out=logp).sum()), entropy_w=entropy_w)


def e_step(state: AttentionState, models, loglik: np.ndarray, pairs: np.ndarray, diagonal: np.ndarray) -> None:
    """The round's pair list, then the attention and the posterior over it."""
    state.pairs = pairs
    state.p = compute_p(models, state.phi, state.enc_dims, state.tau_softmax, pairs)
    state.w = update_w(state, loglik, diagonal)


def coupling(state: AttentionState, mask):
    """The theta.CouplingFn of every cooperative step: the agreement term's descent."""
    return lambda ms: coupling_descent_terms(ms, state, mask)


def update_prior(state: AttentionState, models, config) -> None:
    state.phi = update_phi(state, models, config)
