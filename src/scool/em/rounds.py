"""Round-synchronous orchestration: evaluate, E-step, local epochs, prior
updates, one barrier at a time. A round hands back plain values: its
reporting graph, its lower bound and its traffic record."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError, ScoolError
from ..models import ClientStore, DataStack, batch_value_and_grad
from ..topology import CROSS_GRADIENT, RoundTraffic, account_exchange, account_gossip, pair_list, sparsify_topk
from . import attention, dirac, local, mmsbm, sbm, theta
from .elbo import elbo
from .theta import gradient_buffer, pair_blocks

# Every prior is a module with the same seven hooks, looked up at call time;
# this table is the only code that knows which prior a state belongs to:
#   init_state(config, mask, theta_dim) -> the prior's state
#   e_step(state, models, loglik, pairs, observed), or None for a fixed
#       graph; pairs is the round's pair list, observed it without its diagonal
#   bound_terms(state) -> the prior's own lower-bound terms (elbo.elbo adds
#       the likelihood and ridge terms every prior shares), or None with
#       e_step
#   local_steps(state, models, config): the prior's own local epochs, or
#       None for run_round's one cooperative call; only dirac has them
#   coupling(state, mask) -> the extra descent term of every cooperative
#       step (theta.CouplingFn), or None; only attention has one
#   update_prior(state, models, config): the prior-parameter updates after
#       the local epochs, or None with e_step
#   graph(state, K) -> the row-stochastic reporting view of the graph
PRIORS = {
    "local-only": local,
    "dirac": dirac,
    "sbm": sbm,
    "attention": attention,
    "mmsbm": mmsbm,
}


def loglik_matrix(
    models: ClientStore, train_sets: DataStack, mask: np.ndarray, pairs: np.ndarray,
    grads: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-client evaluation: entry (i, j) is the mean log-probability of
    client j's training labels under client i's model. The pairs are the
    round's row-major list ``pairs`` (topology.pair_list(mask)), evaluated
    in blocks of at most theta.PAIR_BLOCK_BUDGET activations, one batched
    call per block in the store's workspace; masked pairs stay exactly zero
    and are never evaluated. ``mask`` is read only by the benchmark's
    round-1 cross-check, which recomputes the matrix from it.

    With ``grads`` (S x D, S <= len(pairs), theta.gradient_buffer), the same
    forward pass also writes grad(theta_i; D_j) of the list's e-th pair
    (i, j) into row e for its first S pairs; the list is cut into blocks at
    S, so every block takes its gradients or none."""
    K = len(models)
    thetas, X, Y, arch = models.theta, train_sets.features, train_sets.labels, models.arch
    rows, cols = np.divmod(pairs, K)
    ws = models.workspace
    out = np.zeros((K, K))
    stored, n = (0 if grads is None else len(grads)), X.shape[1]
    for blk in pair_blocks(stored, n, arch) + pair_blocks(len(pairs), n, arch, stored):
        r, c = rows[blk], cols[blk]
        held = blk.stop <= stored
        out[r, c] = batch_value_and_grad(
            *ws.gather(thetas, X, Y, r, c), arch, grads[blk] if held else None, grad=held, workspace=ws
        )[0]
    return out


def run_round(
    state, models: ClientStore, mask: np.ndarray, round_index: int, config
) -> tuple[np.ndarray, float | None, RoundTraffic | None]:
    """One full round of the prior named by ``config.prior_kind`` (a key of
    PRIORS), on the store's train stack and the run's settings.

    A prior with an E-step learns its graph: the caller's mask is pruned in
    place if scheduled. The round then takes its pair list from the mask
    once (topology.pair_list), and every layer below reads that list. The
    cross-client log-likelihoods feed the E-step and the lower bound. Under
    cross-gradient that pass also takes the pair gradients local step 0
    needs, for the list's leading pairs that fit in
    theta.PAIR_BUFFER_ELEMENTS; the E-step and the lower bound never move a
    model, so they are still current when the local epochs read them: the
    prior's local_steps, or else the one cooperative call on the prior's w
    (the identity for local-only) with its coupling term. Then update_prior
    moves the prior parameters, and the round's traffic is counted: the
    evaluation pass plus the gradient exchange for a learned graph, one
    gossip round per local step for a fixed one. A lower bound that is not
    finite is a divergence.

    Returns ``(graph, elbo_total, traffic)``: the row-stochastic reporting
    view of the graph, the lower bound (None for a fixed graph) and the
    round's RoundTraffic (None for local-only, which keeps no state and
    sends nothing).
    """
    if config.prior_kind not in PRIORS:
        raise ConfigurationError(f"unknown prior {config.prior_kind!r}")
    prior = PRIORS[config.prior_kind]
    ll = grads = elbo_total = traffic = None
    try:
        pruning = config.sparsify_keep_fraction < 1.0 and config.sparsify_round == round_index
        if prior.e_step is not None and pruning:
            mask[...] = sparsify_topk(state.w, mask, config.sparsify_keep_fraction)
        pairs = pair_list(mask)
        if prior.e_step is not None:
            if config.grad_mode == CROSS_GRADIENT:
                grads = gradient_buffer(len(pairs), models.arch.n_params)
            ll = loglik_matrix(models, models.train, mask, pairs, grads)
            if not np.all(np.isfinite(np.take(ll, pairs))):
                raise DivergenceError("cross-client log-likelihoods are non-finite")
            observed = pairs[pairs % (len(mask) + 1) != 0]
            prior.e_step(state, models, ll, pairs, observed)
            elbo_total = elbo(prior, state, ll, observed, models).total
        if prior.local_steps is not None:
            prior.local_steps(state, models, config)
        else:
            # called on its module, where the benchmark's probe may rebind it
            theta.cooperative_sgd_steps(
                models, models.train, np.eye(len(models)) if state is None else state.w, config.weight_decay,
                config.eta1, config.local_steps, config.grad_mode, mask, pairs,
                None if prior.coupling is None else prior.coupling(state, mask), grads,
            )
        if prior.update_prior is not None:
            prior.update_prior(state, models, config)
        # checked after the local epochs and the prior update, so a fault
        # that they find in the same round is reported under its own cause
        if elbo_total is not None and not np.isfinite(elbo_total):
            raise DivergenceError("lower bound is non-finite")
        if ll is not None:
            traffic = account_exchange(mask, config.grad_mode, config.local_steps, models.arch.n_params)
        elif state is not None:
            traffic = account_gossip(mask, config.local_steps)
    except ScoolError as err:
        raise type(err)(f"round {round_index}: {err}") from err
    return prior.graph(state, len(models)), elbo_total, traffic
