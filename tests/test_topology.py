"""Topology masks, top-k pruning and the communication ledger."""

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
    account_exchange,
    account_gossip,
    build_topology,
    check_topology,
    directed_edges,
    sparsify_topk,
)


class TestBuildTopology:
    def test_group_ring_neighbor_count(self):
        topo = build_topology("group-ring", 10, k0=8)
        off = topo.mask.copy()
        np.fill_diagonal(off, False)
        assert np.all(off.sum(axis=1) == 2)  # cyclic distance <= 1
        assert np.array_equal(topo.mask, topo.mask.T)

    def test_fully_connected_edges(self):
        topo = build_topology("fully-connected", 5)
        assert directed_edges(topo.mask) == 20

    def test_bipartite_deterministic_and_symmetric(self):
        t1 = build_topology("generalized-bipartite", 10, degree=3, seed=7)
        t2 = build_topology("generalized-bipartite", 10, degree=3, seed=7)
        np.testing.assert_array_equal(t1.mask, t2.mask)
        assert np.array_equal(t1.mask, t1.mask.T)
        # bipartite: no within-side edges on the generating side structure
        off = t1.mask.copy()
        np.fill_diagonal(off, False)
        assert np.all(off.sum(axis=1) >= 3)

    def test_group_ring_reach(self):
        # K0 = 0 is the whole ring; K0 = K-1 would leave every client alone
        np.testing.assert_array_equal(build_topology("group-ring", 10, k0=0).mask, np.ones((10, 10), bool))
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
        mask = build_topology("fully-connected", 6).mask
        w = np.random.default_rng(0).uniform(0.1, 1.0, (6, 6))
        out = sparsify_topk(w, mask, 1.0)
        np.testing.assert_array_equal(out, mask)

    def test_eleven_clients_keep_one(self):
        mask = build_topology("fully-connected", 11).mask
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
        mask = build_topology("fully-connected", 8).mask
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
        ledger = CommLedger(10)
        account_exchange(ledger, np.eye(3, dtype=bool), CROSS_GRADIENT, 0)
        assert ledger.totals()["models_sent"] == 0
        assert ledger.totals()["vector_units_folded"] == 0.0

    def test_taylor_fully_connected_counts(self):
        K, dim = 3, 10
        ledger = CommLedger(dim)
        mask = build_topology("fully-connected", K).mask
        rec = account_exchange(ledger, mask, TAYLOR_APPROX, 0, sweeps=1)
        E = 6
        assert rec.gradients_sent == E
        assert rec.models_sent == E  # evaluation shipment
        assert rec.scalars_sent == E
        assert rec.vector_units_folded == pytest.approx(2 * E + E / dim)
        # taylor has no folding advantage: both interpretations agree
        assert rec.vector_units_separate == rec.vector_units_folded

    def test_cross_gradient_doubles_taylor_exchange(self):
        K = 5
        mask = build_topology("fully-connected", K).mask
        for sweeps in (1, 3):
            lc = CommLedger(100)
            lt = CommLedger(100)
            rc = account_exchange(lc, mask, CROSS_GRADIENT, 0, sweeps)
            rt = account_exchange(lt, mask, TAYLOR_APPROX, 0, sweeps)
            assert rc.models_sent + rc.gradients_sent == 2 * sweeps * 20
            assert rt.gradients_sent == sweeps * 20
            # per-sweep exchange ratio is exactly two
            assert (rc.models_sent + rc.gradients_sent) == 2 * (rt.gradients_sent)

    def test_taylor_never_exceeds_cross(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K = int(rng.integers(3, 9))
            topo = build_topology("fully-connected", K)
            sweeps = int(rng.integers(1, 6))
            lc, lt = CommLedger(50), CommLedger(50)
            account_exchange(lc, topo.mask, CROSS_GRADIENT, 0, sweeps)
            account_exchange(lt, topo.mask, TAYLOR_APPROX, 0, sweeps)
            assert lt.totals()["vector_units_folded"] <= lc.totals()["vector_units_folded"]
            assert lt.totals()["vector_units_separate"] <= lc.totals()["vector_units_separate"]

    def test_counters_non_decreasing_and_per_client(self):
        K = 4
        mask = build_topology("fully-connected", K).mask
        ledger = CommLedger(10)
        last = 0.0
        for r in range(5):
            account_exchange(ledger, mask, CROSS_GRADIENT, r, sweeps=2)
            total = ledger.totals()["vector_units_folded"]
            assert total > last
            last = total

    def test_gossip_counts_models_only(self):
        K = 4
        mask = build_topology("fully-connected", K).mask
        ledger = CommLedger(10)
        rec = account_gossip(ledger, mask, 0, sweeps=3)
        assert rec.models_sent == 3 * 12
        assert rec.gradients_sent == 0
        assert rec.scalars_sent == 0

    def test_closed_form_for_all_topologies(self):
        for kind, kwargs in [
            ("fully-connected", {}),
            ("group-ring", dict(k0=6)),
            ("generalized-bipartite", dict(degree=2, seed=1)),
        ]:
            topo = build_topology(kind, 8, **kwargs)
            E = directed_edges(topo.mask)
            ledger = CommLedger(20)
            rec = account_exchange(ledger, topo.mask, CROSS_GRADIENT, 0, sweeps=2)
            assert rec.vector_units_folded == pytest.approx(2 * 2 * E + E / 20)
            assert rec.vector_units_separate == pytest.approx(2 * 2 * E + E + E / 20)
