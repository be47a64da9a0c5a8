"""The benchmark's own numpy recomputation of what the simulator computes.

Nothing here imports scool: the output checks and the round-1 cross-checks
compare the program against these independent closed forms and batched
einsum kernels. Flat parameter layouts follow the simulator's documented
convention: softmax regression is [W (C x d), b (C)], the one-hidden-layer
MLP is [W1 (h x d), b1 (h), W2 (C x h), b2 (C)], all row-major.
"""

from __future__ import annotations

from math import ceil

import numpy as np


def arch_of(cfg: dict) -> tuple[str, int, int, int]:
    """(kind, d, C, h) of the local models a config builds."""
    h = cfg["hidden_units"] if cfg["arch"] == "mlp-1hidden" else 0
    return cfg["arch"], cfg["feature_dim"], cfg["N"], h


def n_params(arch) -> int:
    _, d, C, h = arch
    return C * d + C if h == 0 else h * d + h + C * h + C


def _unpack(thetas: np.ndarray, arch):
    _, d, C, h = arch
    K = len(thetas)
    if h == 0:
        return thetas[:, : C * d].reshape(K, C, d), thetas[:, C * d :]
    o = [h * d, h * d + h, h * d + h + C * h]
    return (
        thetas[:, : o[0]].reshape(K, h, d),
        thetas[:, o[0] : o[1]],
        thetas[:, o[1] : o[2]].reshape(K, C, h),
        thetas[:, o[2] :],
    )


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=-1, keepdims=True)
    return Z - np.log(np.exp(Z).sum(axis=-1, keepdims=True))


def _pair_forward(thetas, X, arch):
    """Logits of every model i on every client j's data: K x K x n x C,
    plus the hidden activations for the MLP."""
    parts = _unpack(thetas, arch)
    if arch[3] == 0:
        W, b = parts
        return np.einsum("jnd,icd->ijnc", X, W) + b[:, None, None, :], None
    W1, b1, W2, b2 = parts
    A = np.tanh(np.einsum("jnd,ihd->ijnh", X, W1) + b1[:, None, None, :])
    return np.einsum("ijnh,ich->ijnc", A, W2) + b2[:, None, None, :], A


def loglik_matrix(thetas, X, Y, arch, mask) -> np.ndarray:
    """Entry (i, j): mean log-softmax probability of client j's labels under
    model i; pairs outside the mask are exactly zero."""
    Z, _ = _pair_forward(thetas, X, arch)
    lsm = _log_softmax(Z)
    K, n = Y.shape
    picked = np.take_along_axis(lsm, np.broadcast_to(Y[None, :, :, None], (K, K, n, 1)), -1)
    return np.where(mask, picked[..., 0].mean(axis=-1), 0.0)


def pair_grads(thetas, X, Y, arch) -> np.ndarray:
    """Gradient of the mean cross-entropy of model i on client j's data,
    K x K x D, by batched backpropagation."""
    Z, A = _pair_forward(thetas, X, arch)
    K, n = Y.shape
    C = arch[2]
    P = np.exp(_log_softmax(Z)) - np.eye(C)[Y][None, :, :, :]
    P /= n
    if A is None:
        gW = np.einsum("ijnc,jnd->ijcd", P, X)
        return np.concatenate([gW.reshape(K, K, -1), P.sum(axis=2)], axis=-1)
    _, _, W2, _ = _unpack(thetas, arch)
    dZ1 = np.einsum("ijnc,ich->ijnh", P, W2) * (1.0 - A * A)
    gW1 = np.einsum("ijnh,jnd->ijhd", dZ1, X)
    gW2 = np.einsum("ijnc,ijnh->ijch", P, A)
    return np.concatenate(
        [gW1.reshape(K, K, -1), dZ1.sum(axis=2), gW2.reshape(K, K, -1), P.sum(axis=2)], axis=-1
    )


def own_grads(thetas, X, Y, arch) -> np.ndarray:
    """Each model's gradient on its own data, K x D."""
    return np.stack([pair_grads(thetas[i : i + 1], X[i : i + 1], Y[i : i + 1], arch)[0, 0]
                     for i in range(len(thetas))])


def coupling_terms(thetas, init, phi, dims, w, tau, mask) -> np.ndarray:
    """Attention coupling: -d/d theta_i of sum_j w_ij log p_ij, where p is the
    masked row softmax of embedding dot products over tau and only client
    i's own embedding is differentiated (its self score through both slots)."""
    d, h, o = dims
    W1 = phi[: h * d].reshape(h, d)
    b1 = phi[h * d : h * d + h]
    W2 = phi[h * d + h : h * d + h + o * h].reshape(o, h)
    b2 = phi[h * d + h + o * h :]
    H = np.tanh((thetas - init) @ W1.T + b1)
    E = H @ W2.T + b2
    S = np.where(mask, E @ E.T / tau, -np.inf)
    p = np.exp(S - S.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    Cm = np.where(mask, (w - p) / tau, 0.0)
    dE = Cm @ E + np.diag(Cm)[:, None] * E
    return -(((dE @ W2) * (1.0 - H * H)) @ W1)


def cooperative_direction(thetas, X, Y, arch, w, lam, eta, steps, grad_mode, mask,
                          coupling=None) -> np.ndarray:
    """Total descent direction (theta_before - theta_after) / eta of each
    client over ``steps`` synchronous cooperative steps: own gradient, ridge,
    the w-weighted neighbour gradients (cross or own-gradient surrogate) and
    the optional coupling term, all on the pre-step snapshot."""
    K = len(thetas)
    weights = np.where(mask & ~np.eye(K, dtype=bool), w, 0.0)
    theta = thetas.copy()
    for _ in range(steps):
        if grad_mode == "cross-gradient":
            G = pair_grads(theta, X, Y, arch)
            own = G[np.arange(K), np.arange(K)]
            neighbour = np.einsum("ij,ijd->id", weights, G)
        else:
            own = own_grads(theta, X, Y, arch)
            neighbour = weights @ own
        delta = own + lam * theta + neighbour
        if coupling is not None:
            delta = delta + coupling(theta)
        theta = theta - eta * delta
    return (thetas - theta) / eta


def gossip_direction(thetas, X, Y, arch, w, eta) -> np.ndarray:
    """(theta - theta_new) / eta for theta_new = w theta - eta * own gradient."""
    return (thetas - (w @ thetas - eta * own_grads(thetas, X, Y, arch))) / eta


def initial_mask(cfg: dict) -> np.ndarray:
    """The mask a config starts from: fully connected, or the group-ring
    linking clients at cyclic index distance <= (K - K0)/2."""
    K = cfg["K"]
    if cfg["topology_kind"] == "fully-connected":
        return np.ones((K, K), dtype=bool)
    if cfg["topology_kind"] != "group-ring":
        raise ValueError(f"no reference mask for {cfg['topology_kind']!r}")
    idx = np.arange(K)
    dist = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(dist, K - dist) <= (K - cfg["topology_k0"]) / 2.0


def prune_keep(cfg: dict) -> int:
    """Neighbours each client keeps after one-shot top-k pruning."""
    return ceil(cfg["sparsify_keep_fraction"] * (cfg["K"] - 1))


def traffic_per_round(cfg: dict) -> list[float]:
    """Closed-form vector units of every round: 2sE + E/D under
    cross-gradient, (s+1)E + E/D under taylor-approx and sE for gossip,
    with E the directed edges in force that round."""
    mask = initial_mask(cfg)
    degree = (mask & ~np.eye(cfg["K"], dtype=bool)).sum(axis=1)
    E_full = int(degree.sum())
    E_pruned = int(np.minimum(degree, prune_keep(cfg)).sum())
    s, D = cfg["local_steps"], n_params(arch_of(cfg))
    pruning = cfg["sparsify_keep_fraction"] < 1.0
    out = []
    for r in range(cfg["rounds"]):
        E = E_pruned if pruning and r >= cfg["sparsify_round"] else E_full
        if cfg["prior_kind"] == "dirac":
            out.append(float(s * E))
        elif cfg["grad_mode"] == "cross-gradient":
            out.append(2 * s * E + E / D)
        else:
            out.append((s + 1) * E + E / D)
    return out


def metropolis(mask: np.ndarray) -> np.ndarray:
    """w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, the rest on the diagonal."""
    off = mask & ~np.eye(len(mask), dtype=bool)
    deg = off.sum(axis=1)
    w = np.where(off, 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :])), 0.0)
    return w + np.diag(1.0 - w.sum(axis=1))


def ground_truth(K: int, groups: int) -> np.ndarray:
    """Row-normalized truth of the noniid-sbm setting: clients come in
    contiguous equal groups that share one class set."""
    label = np.arange(K) // (K // groups)
    same = label[:, None] == label[None, :]
    return same / same.sum(axis=1, keepdims=True)


def l1_distance(w: np.ndarray, w_star: np.ndarray) -> float:
    """Mean over clients of the L1 distance between the row-normalized graph
    and the truth; an all-zero row scores 2."""
    sums = w.sum(axis=1)
    ok = sums > 0
    rows = np.full(len(w), 2.0)
    rows[ok] = np.abs(w[ok] / sums[ok, None] - w_star[ok]).sum(axis=1)
    return float(rows.mean())
