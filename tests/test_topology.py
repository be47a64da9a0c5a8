"""Topology masks, top-k pruning and the traffic accounting."""

from dataclasses import fields
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scool.errors import ConfigurationError, DivergenceError
from scool.topology import (
    CROSS_GRADIENT,
    TAYLOR_APPROX,
    CommLedger,
    RoundTraffic,
    account_exchange,
    account_gossip,
    build_topology,
    check_topology,
    directed_edges,
    sparsify_topk,
)


def _edge_cases():
    """Every kind at the least and the largest parameters check_topology
    accepts, on the smallest and a few larger client counts."""
    for K in (2, 3, 4, 5, 12):
        yield "fully-connected", K, {}
        for k0 in (0, K - 2):
            yield "group-ring", K, {"k0": k0}
        for degree in (1, K // 2):
            yield "generalized-bipartite", K, {"degree": degree}


def assert_valid_mask(mask, K):
    """A topology mask is a square, symmetric boolean array with a true
    diagonal and at least one neighbour per client."""
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (K, K)
    assert np.array_equal(mask, mask.T)
    assert np.all(np.diag(mask))
    assert np.all((mask & ~np.eye(K, dtype=bool)).any(axis=1))


class TestBuildTopology:
    @pytest.mark.parametrize("kind,K,params", list(_edge_cases()))
    def test_masks_at_the_accepted_edges(self, kind, K, params):
        check_topology(kind, K, **params)
        assert_valid_mask(build_topology(kind, K, **params), K)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(K=hst.integers(2, 24), data=hst.data(), seed=hst.integers(0, 2**32 - 1))
    def test_bipartite_masks_over_seeds(self, K, data, seed):
        degree = data.draw(hst.integers(1, K // 2))
        mask = build_topology("generalized-bipartite", K, degree=degree, seed=seed)
        assert_valid_mask(mask, K)
        assert np.all(mask.sum(axis=1) - 1 >= degree)

    def test_group_ring_neighbor_count(self):
        mask = build_topology("group-ring", 10, k0=8)
        off = mask.copy()
        np.fill_diagonal(off, False)
        assert np.all(off.sum(axis=1) == 2)  # cyclic distance <= 1
        assert np.array_equal(mask, mask.T)

    def test_fully_connected_edges(self):
        mask = build_topology("fully-connected", 5)
        assert directed_edges(mask) == 20

    def test_bipartite_deterministic_and_symmetric(self):
        t1 = build_topology("generalized-bipartite", 10, degree=3, seed=7)
        t2 = build_topology("generalized-bipartite", 10, degree=3, seed=7)
        np.testing.assert_array_equal(t1, t2)
        assert np.array_equal(t1, t1.T)
        # bipartite: no within-side edges on the generating side structure
        off = t1.copy()
        np.fill_diagonal(off, False)
        assert np.all(off.sum(axis=1) >= 3)

    def test_group_ring_reach(self):
        # K0 = 0 is the whole ring; K0 = K-1 would leave every client alone
        np.testing.assert_array_equal(build_topology("group-ring", 10, k0=0), np.ones((10, 10), bool))
        for k0 in (-1, 9):
            with pytest.raises(ConfigurationError, match="group-ring needs 0 <= K0 <= K-2"):
                check_topology("group-ring", 10, k0=k0)
            with pytest.raises(ConfigurationError, match="group-ring needs 0 <= K0 <= K-2"):
                build_topology("group-ring", 10, k0=k0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            build_topology("group-ring", 10, k0=10)
        with pytest.raises(ConfigurationError):
            build_topology("generalized-bipartite", 10, degree=6)
        with pytest.raises(ConfigurationError):
            build_topology("nope", 5)


class TestSparsifyTopk:
    def test_keep_all_is_identity(self):
        mask = build_topology("fully-connected", 6)
        w = np.random.default_rng(0).uniform(0.1, 1.0, (6, 6))
        out = sparsify_topk(w, mask, 1.0)
        np.testing.assert_array_equal(out, mask)

    def test_eleven_clients_keep_one(self):
        mask = build_topology("fully-connected", 11)
        w = np.random.default_rng(1).uniform(0.1, 1.0, (11, 11))
        out = sparsify_topk(w, mask, 0.1)
        off = out.copy()
        np.fill_diagonal(off, False)
        assert np.all(off.sum(axis=1) == 1)  # ceil(0.1 * 10) = 1

    def test_tie_breaks_to_lower_index(self):
        mask = np.ones((4, 4), dtype=bool)
        w = np.zeros((4, 4))
        w[0, 1], w[0, 2], w[0, 3] = 0.5, 0.5, 0.1
        w[1:, :] = 0.3
        out = sparsify_topk(w, mask, 0.5)  # keep ceil(0.5*3) = 2
        assert out[0, 1] and out[0, 2] and not out[0, 3]

    def test_idempotent_once_applied(self):
        mask = build_topology("fully-connected", 8)
        w = np.random.default_rng(2).uniform(0.1, 1.0, (8, 8))
        once = sparsify_topk(w, mask, 0.3)
        twice = sparsify_topk(w, once, 0.3)
        np.testing.assert_array_equal(once, twice)

    def test_zero_row_raises(self):
        # an underflowed row is a numerical event of the run, not a config error
        mask = np.ones((3, 3), dtype=bool)
        w = np.zeros((3, 3))
        with pytest.raises(DivergenceError):
            sparsify_topk(w, mask, 0.5)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        K=hst.integers(2, 12),
        density=hst.floats(0.0, 1.0),
        keep_fraction=hst.floats(0.01, 1.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_keeps_the_strongest_within_the_mask(self, K, density, keep_fraction, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((K, K)) < density, 1)
        mask = upper | upper.T | np.eye(K, dtype=bool)
        for i in np.flatnonzero(mask.sum(axis=1) == 1):  # an isolated client joins the next one
            mask[i, (i + 1) % K] = mask[(i + 1) % K, i] = True
        w = rng.integers(1, 4, (K, K)) / 4.0  # positive, with many ties
        out = sparsify_topk(w, mask, keep_fraction)
        assert np.all(np.diag(out)) and not np.any(out & ~mask)
        for i in range(K):
            cand = [j for j in range(K) if j != i and mask[i, j]]
            kept = [j for j in cand if out[i, j]]
            assert len(kept) == min(ceil(keep_fraction * (K - 1)), len(cand))
            for j in kept:
                for dropped in set(cand) - set(kept):
                    assert (-w[i, j], j) < (-w[i, dropped], dropped)
        np.testing.assert_array_equal(sparsify_topk(w, out, keep_fraction), out)


class TestLedger:
    def test_empty_offdiagonal_costs_nothing(self):
        ledger = CommLedger([account_exchange(np.eye(3, dtype=bool), CROSS_GRADIENT, 1, 10)])
        assert ledger.totals()["models_sent"] == 0
        assert ledger.totals()["vector_units_folded"] == 0.0

    def test_taylor_fully_connected_counts(self):
        K, dim = 3, 10
        mask = build_topology("fully-connected", K)
        rec = account_exchange(mask, TAYLOR_APPROX, 1, dim)
        E = 6
        assert rec.gradients_sent == E
        assert rec.models_sent == E  # evaluation shipment
        assert rec.scalars_sent == E
        assert rec.vector_units_folded == pytest.approx(2 * E + E / dim)
        # taylor has no folding advantage: both interpretations agree
        assert rec.vector_units_separate == rec.vector_units_folded

    def test_cross_gradient_doubles_taylor_exchange(self):
        K = 5
        mask = build_topology("fully-connected", K)
        for sweeps in (1, 3):
            rc = account_exchange(mask, CROSS_GRADIENT, sweeps, 100)
            rt = account_exchange(mask, TAYLOR_APPROX, sweeps, 100)
            assert rc.models_sent + rc.gradients_sent == 2 * sweeps * 20
            assert rt.gradients_sent == sweeps * 20
            # per-sweep exchange ratio is exactly two
            assert (rc.models_sent + rc.gradients_sent) == 2 * (rt.gradients_sent)

    def test_taylor_never_exceeds_cross(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K = int(rng.integers(3, 9))
            mask = build_topology("fully-connected", K)
            sweeps = int(rng.integers(1, 6))
            lc = CommLedger([account_exchange(mask, CROSS_GRADIENT, sweeps, 50)])
            lt = CommLedger([account_exchange(mask, TAYLOR_APPROX, sweeps, 50)])
            assert lt.totals()["vector_units_folded"] <= lc.totals()["vector_units_folded"]
            assert lt.totals()["vector_units_separate"] <= lc.totals()["vector_units_separate"]

    def test_counters_non_decreasing_and_per_client(self):
        K = 4
        mask = build_topology("fully-connected", K)
        ledger = CommLedger()
        last = 0.0
        for _ in range(5):
            ledger.rounds.append(account_exchange(mask, CROSS_GRADIENT, 2, 10))
            total = ledger.totals()["vector_units_folded"]
            assert total > last
            last = total

    def test_gossip_counts_models_only(self):
        K = 4
        mask = build_topology("fully-connected", K)
        rec = account_gossip(mask, 3)
        assert rec.models_sent == 3 * 12
        assert rec.gradients_sent == 0
        assert rec.scalars_sent == 0

    def test_closed_form_for_all_topologies(self):
        for kind, kwargs in [
            ("fully-connected", {}),
            ("group-ring", dict(k0=6)),
            ("generalized-bipartite", dict(degree=2, seed=1)),
        ]:
            mask = build_topology(kind, 8, **kwargs)
            E = directed_edges(mask)
            rec = account_exchange(mask, CROSS_GRADIENT, 2, 20)
            assert rec.vector_units_folded == pytest.approx(2 * 2 * E + E / 20)
            assert rec.vector_units_separate == pytest.approx(2 * 2 * E + E + E / 20)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        K=hst.integers(2, 10),
        data=hst.data(),
        sweeps=hst.integers(1, 3),
        n_params=hst.integers(1, 64),
        grad_mode=hst.sampled_from([CROSS_GRADIENT, TAYLOR_APPROX]),
    )
    def test_closed_forms_on_random_symmetric_masks(self, K, data, sweeps, n_params, grad_mode):
        # pure functions of the mask: the closed forms in its directed edge
        # count, the same record on every call, and the mask untouched
        upper = data.draw(hst.lists(hst.booleans(), min_size=K * (K - 1) // 2, max_size=K * (K - 1) // 2))
        mask = np.eye(K, dtype=bool)
        mask[np.triu_indices(K, 1)] = upper
        mask |= mask.T
        before = mask.copy()
        E = directed_edges(mask)
        assert E == 2 * sum(upper)
        rec = account_exchange(mask, grad_mode, sweeps, n_params)
        if grad_mode == CROSS_GRADIENT:
            expected = RoundTraffic(
                sweeps * E, sweeps * E, E, 2 * sweeps * E + E / n_params, 2 * sweeps * E + E + E / n_params
            )
        else:
            units = sweeps * E + E + E / n_params
            expected = RoundTraffic(E, sweeps * E, E, units, units)
        assert rec == expected
        assert account_exchange(mask, grad_mode, sweeps, n_params) == rec
        gossip = account_gossip(mask, sweeps)
        assert gossip == RoundTraffic(sweeps * E, 0, 0, float(sweeps * E), float(sweeps * E))
        for record in (rec, gossip):
            assert [type(getattr(record, f.name)) for f in fields(RoundTraffic)] == [int] * 3 + [float] * 2
        np.testing.assert_array_equal(mask, before)
        # the ledger only keeps what it is handed
        ledger = CommLedger([rec, gossip])
        for f in fields(RoundTraffic):
            assert ledger.totals()[f.name] == getattr(rec, f.name) + getattr(gossip, f.name)
