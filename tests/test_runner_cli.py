"""Experiment runner and CLI: metrics, files, determinism, exit codes."""

import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import scool
from scool import runner
from scool.config import PRIORS, ExperimentConfig, load_config, save_config
from scool.em import rounds
from scool.errors import ConfigurationError
from scool.runner import METRIC_COLUMNS, _write_matrix, metric_l1, run_budget_sweep, run_experiment
from scool.topology import RoundTraffic

from conftest import write_matrix_oracle


def small_config(prior="sbm", **kw):
    base = dict(
        prior_kind=prior,
        seed=5,
        rounds=4,
        local_steps=1,
        K=6,
        M=6,
        N=2,
        num_groups=3,
        samples_per_client=6,
        test_samples_per_client=20,
        feature_dim=8,
        eta1=0.2,
        snapshot_every=2,
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()


def row_stochastic(m):
    """The rows of a nonnegative matrix, each with a positive sum, scaled
    to sum to one."""
    return m / m.sum(axis=1, keepdims=True)


class TestMetricL1:
    def test_zero_at_truth(self):
        w_star = row_stochastic(np.kron(np.eye(2), np.ones((2, 2))))
        assert metric_l1(w_star, w_star) == 0.0

    def test_uniform_vs_identity_hand_sum(self):
        # per row: |1/4 - 1| + 3 * 1/4 = 1.5
        w = np.full((4, 4), 0.25)
        assert metric_l1(w, np.eye(4)) == pytest.approx(1.5)

    def test_graphs_of_different_shapes_are_refused(self):
        with pytest.raises(ValueError, match=r"^graph shapes differ$"):
            scool.metric_l1(np.eye(3), np.eye(4))

    def test_row_normalizes_input(self):
        w = np.full((4, 4), 3.7)  # any constant matrix normalizes to uniform
        assert metric_l1(w, np.full((4, 4), 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_row_scores_max_distance(self):
        w = np.eye(3)
        w[1] = 0.0
        w_star = row_stochastic(np.ones((3, 3)))
        per_row_identity = abs(1 - 1 / 3) + 2 / 3
        assert metric_l1(w, w_star) == pytest.approx((2 * per_row_identity + 2.0) / 3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, (5, 5))
        w_star = row_stochastic(rng.uniform(0.1, 1.0, (5, 5)))
        perm = rng.permutation(5)
        a = metric_l1(w, w_star)
        b = metric_l1(w[np.ix_(perm, perm)], w_star[np.ix_(perm, perm)])
        assert a == pytest.approx(b, abs=1e-12)


def reference_metric_l1(w, w_star):
    """The per-row loop metric_l1 ran before it was vectorised. A row with
    an infinity divides inf by inf; that NaN is the reference's answer, so
    its warning is silenced here."""
    total = 0.0
    for i in range(len(w)):
        s = w[i].sum()
        if s <= 0.0:
            total += 2.0
        else:
            with np.errstate(invalid="ignore"):
                total += float(np.abs(w[i] / s - w_star[i]).sum())
    return total / len(w)


class TestMetricL1Equivalence:
    @pytest.mark.parametrize("K", [3, 17, 192])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_the_per_row_loop(self, K, order):
        rng = np.random.default_rng(K)
        w = rng.uniform(0.0, 1.0, (K, K)) * (rng.random((K, K)) < 0.4)
        w[1] = 0.0  # a row that cannot be normalised
        w_star = row_stochastic(rng.uniform(0.0, 1.0, (K, K)))
        w = np.asarray(w, order=order)
        assert metric_l1(w, w_star) == reference_metric_l1(w, w_star)

    @pytest.mark.parametrize(
        "row",
        [[0.0, 0.0, 0.0], [0.5, -1.0, 0.25], [1.0, -1.0, 0.0], [0.5, -np.inf, 1.0],
         [0.5, np.inf, 1.0], [0.5, np.nan, 1.0], [1e300, -1e300, -1e-10]],
        ids=["zero", "negative-sum", "zero-sum", "minus-inf", "inf", "nan", "tiny-negative-sum"],
    )
    def test_edge_rows_equal_the_per_row_loop(self, row):
        # every row is divided, including those that score 2; none of them
        # may warn, as warnings are errors under pytest here
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, (3, 3))
        w[1] = row
        w_star = row_stochastic(rng.uniform(0.1, 1.0, (3, 3)))
        np.testing.assert_array_equal(metric_l1(w, w_star), reference_metric_l1(w, w_star))


# entries a writer that takes each distinct value's text once could get
# wrong: both zeros, NaNs of other signs and payloads, the infinities,
# subnormals, a tiny normal and the repeated weights of a gossip graph
EDGE_VALUES = [0.0, -0.0, np.nan, -np.nan, np.array(0x7FF8000000000001).view(float).item(),
               np.inf, -np.inf, 5e-324, 1e-310, 1e-300, 1.0 / 49.0, 1.0 - 48.0 / 49.0]


class TestSnapshotText:
    def test_zero_signs_and_nans_keep_their_text(self, tmp_path):
        _write_matrix(tmp_path / "w.csv", np.array([[0.0, -0.0, 0.0], [np.nan, -np.nan, 1e-300]]))
        assert (tmp_path / "w.csv").read_text() == "0.0,-0.0,0.0\nnan,nan,1e-300\n"

    # blocks of one row, of three rows (the last one short when 3 does not
    # divide K), and of the default size: one block for a graph of K <= 64
    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=hst.integers(1, 192),
        drawn=hst.lists(hst.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=6),
        fresh=hst.floats(0.0, 1.0),
        transposed=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_the_per_entry_writer(self, tmp_path_factory, rows_per_block, K, drawn, fresh, transposed, seed):
        # entries repeat a palette of edge values and drawn floats; a share
        # ``fresh`` of them are distinct values of any magnitude instead
        rng = np.random.default_rng(seed)
        matrix = rng.choice(np.array(EDGE_VALUES + drawn), (K, K))
        distinct = rng.random((K, K)) < fresh
        matrix[distinct] = rng.uniform(-1.0, 1.0, distinct.sum()) * 10.0 ** rng.integers(-320, 300, distinct.sum())
        if transposed:
            matrix = matrix.T
        out = tmp_path_factory.mktemp("snapshot")
        block = runner.SNAPSHOT_BLOCK_ELEMENTS if rows_per_block is None else rows_per_block * K
        with mock.patch.object(runner, "SNAPSHOT_BLOCK_ELEMENTS", block):
            _write_matrix(out / "new.csv", matrix)
        write_matrix_oracle(out / "oracle.csv", matrix)
        assert (out / "new.csv").read_bytes() == (out / "oracle.csv").read_bytes()

    def test_memory_stays_within_a_block(self, tmp_path):
        # the text of one block of rows is held at a time, not that of every
        # distinct value: 36 864 of them at K = 192, about 4 MB of text
        matrix = np.random.default_rng(192).random((192, 192))
        assert len(np.unique(matrix)) == matrix.size
        tracemalloc.start()
        try:
            _write_matrix(tmp_path / "w.csv", matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak
        write_matrix_oracle(tmp_path / "oracle.csv", matrix)
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestRunExperiment:
    def test_local_only_snapshots_identity(self, tmp_path):
        report = run_experiment(small_config("local-only"), tmp_path)
        w = np.loadtxt(tmp_path / "w_round_0004.csv", delimiter=",")
        np.testing.assert_array_equal(w, np.eye(6))
        assert len(report.rounds) == 4
        assert all(0.0 <= r["mean_test_acc"] <= 1.0 for r in report.rounds)

    @pytest.mark.parametrize(
        "prior, overrides",
        [
            ("sbm", {}),
            ("attention", {}),
            ("mmsbm", {}),
            ("dirac", {}),
            ("local-only", {}),
            # pruning at round 2 of 4: the mmsbm pair list shrinks mid-run
            ("mmsbm", {"sparsify_keep_fraction": 0.4, "sparsify_round": 2}),
        ],
        ids=["sbm", "attention", "mmsbm", "dirac", "local-only", "mmsbm-pruned"],
    )
    def test_byte_identical_reruns(self, tmp_path, prior, overrides):
        cfg = small_config(prior, **overrides)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "report.json" in names and "metrics.csv" in names
        for name in names:
            if name == "timing.json":  # wall time is the one volatile artifact
                continue
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("prior", ["dirac", "local-only"])
    def test_a_fixed_graph_is_measured_and_written_once(self, tmp_path, monkeypatch, prior):
        # a prior without an E-step keeps one graph: one distance taken for
        # every round, and every snapshot the first one's bytes
        calls, graphs = [], []
        monkeypatch.setattr(runner, "metric_l1", lambda *a: calls.append(1) or metric_l1(*a))
        real_round = rounds.run_round

        def recording_round(*args):
            result = real_round(*args)
            graphs.append(result[0])
            return result

        monkeypatch.setattr(rounds, "run_round", recording_round)
        cfg = small_config(prior, rounds=3, snapshot_every=1)
        report = run_experiment(cfg, tmp_path / "out")
        assert len(calls) == 1 and len(graphs) == 3
        w_star = runner.build_tasks(cfg)[0].w_star
        assert [r["l1_to_ground_truth"] for r in report.rounds] == [metric_l1(g, w_star) for g in graphs]
        first = (tmp_path / "out" / "w_round_0001.csv").read_bytes()
        for r, g in enumerate(graphs, 1):
            _write_matrix(tmp_path / "graph.csv", g)
            assert (tmp_path / "out" / f"w_round_{r:04d}.csv").read_bytes() == first == (tmp_path / "graph.csv").read_bytes()

    def test_a_learned_graph_is_measured_and_written_every_round(self, tmp_path, monkeypatch):
        calls = []
        for name in ("metric_l1", "_write_matrix"):
            real = getattr(runner, name)
            monkeypatch.setattr(runner, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        run_experiment(small_config("sbm", rounds=3, snapshot_every=1), tmp_path)
        assert sorted(calls) == ["_write_matrix"] * 3 + ["metric_l1"] * 3

    def test_final_accuracies_reuse_the_last_round(self, monkeypatch):
        calls = []
        real = runner.batch_accuracy
        monkeypatch.setattr(runner, "batch_accuracy", lambda *a: calls.append(1) or real(*a))
        report = run_experiment(small_config("sbm", rounds=3))
        assert len(calls) == 3  # one block per round and no final pass
        assert report.final_mean_acc == report.rounds[-1]["mean_test_acc"]
        assert report.final_std_acc == report.rounds[-1]["std_test_acc"]

    def test_final_accuracies_are_recomputed_after_a_divergence(self, tmp_path, monkeypatch):
        from scool.errors import DivergenceError

        calls = []
        real = runner.batch_accuracy
        monkeypatch.setattr(runner, "batch_accuracy", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(DivergenceError):
            run_experiment(small_config("sbm", eta1=1e150, weight_decay=10.0, rounds=5), tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["diverged"] is True and len(data["rounds"]) < 5
        assert len(calls) == len(data["rounds"]) + 1  # the completed rounds, then the final pass

    def test_dirac_consensus_trend_on_iid_tasks(self):
        # uniform gossip on IID tasks: the model spread collapses and stays
        # far below its starting value (a consensus forms)
        cfg = small_config(
            "dirac", K=4, num_groups=1, rounds=20, shared_init=False, eta1=0.05,
            samples_per_client=8, init_scale=1.0,
        )
        from scool.runner import build_models, build_tasks
        from scool.em.state import DiracState
        from scool.em import dirac, rounds as rounds_mod
        from scool.topology import build_topology

        assignment, train, test = build_tasks(cfg)
        models = build_models(cfg, train, test)
        mask = build_topology("fully-connected", cfg.K)
        state = DiracState(dirac.metropolis_weights(mask))

        def spread():
            th = np.stack([m.theta for m in models])
            return max(
                np.linalg.norm(th[i] - th[j])
                for i in range(cfg.K)
                for j in range(i + 1, cfg.K)
            )

        start = spread()
        values = []
        for r in range(cfg.rounds):
            rounds_mod.run_round(state, models, mask, r, cfg)
            values.append(spread())
        # monotone contraction up to sub-0.1% jitter at the gradient floor
        assert all(b <= a * 1.001 for a, b in zip([start] + values, values))
        assert values[0] < 0.5 * start
        assert values[-1] < 0.05 * start

    def test_report_fields_finite_and_lengths(self, tmp_path):
        report = run_experiment(small_config("attention"), tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema_version"] == 1
        assert len(data["rounds"]) == 4
        for row in data["rounds"]:
            for key in ("mean_test_acc", "std_test_acc", "mean_train_loss", "l1_to_ground_truth"):
                assert np.isfinite(row[key])
        assert len(data["final"]["per_client_test_acc"]) == 6

    def test_mmsbm_round_trip_runs(self):
        report = run_experiment(small_config("mmsbm", rounds=3))
        assert len(report.rounds) == 3
        assert np.isfinite(report.rounds[-1]["elbo"])

    @pytest.mark.parametrize("prior", PRIORS)
    def test_report_holds_only_plain_python_values(self, prior):
        # report.json is written from to_dict() as it stands: a numpy scalar
        # or array in it must fail here, not json.dumps at the end of a run
        def walk(value, where):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert type(key) is str, where
                    walk(item, f"{where}.{key}")
            elif isinstance(value, list):
                for k, item in enumerate(value):
                    walk(item, f"{where}[{k}]")
            else:
                assert value is None or type(value) in (bool, int, float, str), (where, type(value))

        walk(run_experiment(small_config(prior)).to_dict(), "report")

    @pytest.mark.parametrize("prior", PRIORS)
    def test_traffic_rows_fold_to_the_totals(self, prior, tmp_path):
        # each traffic column of the rounds, folded left to right, is the
        # run's total; a local-only run sends nothing and keeps the types
        # pruned after round 2, so the rows differ (dirac has nothing to prune by)
        pruning = {} if prior == "dirac" else dict(sparsify_keep_fraction=0.4, sparsify_round=2)
        report = run_experiment(small_config(prior, **pruning), tmp_path)
        names = [f.name for f in fields(RoundTraffic)]
        assert list(report.comm_totals) == names
        assert METRIC_COLUMNS[-len(names):] == names
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(METRIC_COLUMNS) and len(METRIC_COLUMNS) == 11
        for name in names:
            total = 0
            for row in report.rounds:
                total += row[name]
            assert total == report.comm_totals[name], name
        if prior == "local-only":
            for row in report.rounds:
                assert [(type(row[n]), row[n]) for n in names] == [(int, 0)] * 3 + [(float, 0.0)] * 2
            assert all(type(v) is int and v == 0 for v in report.comm_totals.values())
        else:
            assert report.comm_totals["models_sent"] > 0

    def test_divergence_writes_flagged_partial_report(self, tmp_path):
        from scool.errors import DivergenceError

        cfg = small_config("sbm", eta1=1e150, weight_decay=10.0, rounds=10)
        with pytest.raises(DivergenceError):
            run_experiment(cfg, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["diverged"] is True
        assert len(data["rounds"]) < 10


class TestBudgetSweep:
    def test_full_fraction_equals_plain_run(self, tmp_path):
        cfg = small_config("sbm", rounds=3, sparsify_keep_fraction=1.0)
        plain = run_experiment(cfg)
        rows = run_budget_sweep(cfg, [1.0], tmp_path)
        assert rows[0]["mean_acc"] == plain.final_mean_acc
        assert rows[0]["comm_total"] == plain.comm_totals["vector_units_folded"]

    def test_table_format(self, tmp_path):
        cfg = small_config("sbm", rounds=3, sparsify_round=1)
        rows = run_budget_sweep(cfg, [0.4, 1.0], tmp_path)
        assert [r["fraction"] for r in rows] == [0.4, 1.0]
        header = (tmp_path / "budget_sweep.csv").read_text().splitlines()[0]
        assert header == "fraction,mean_acc,std_acc,comm_total"
        # lower budget costs less
        assert rows[0]["comm_total"] < rows[1]["comm_total"]

    def test_fractions_that_share_a_directory_are_refused(self, tmp_path):
        # 0.27 and 0.271 both write fraction_0.27: refused before any run
        with pytest.raises(ConfigurationError, match=r"^fractions 0\.27 and 0\.271 would both write fraction_0\.27$"):
            run_budget_sweep(small_config("sbm", rounds=3), [0.27, 0.4, 0.271], tmp_path)
        assert not any(tmp_path.iterdir())

    def test_written_files_end_lines_with_newline_only(self, tmp_path):
        # every file a sweep writes, its runs' reports, metrics and
        # snapshots included, ends its lines with "\n" and never "\r\n"
        run_budget_sweep(small_config("sbm", rounds=3, sparsify_round=1), [0.4, 1.0], tmp_path)
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        names = {p.name for p in written}
        assert {"budget_sweep.csv", "metrics.csv", "report.json", "w_round_0002.csv"} <= names
        for path in written:
            assert b"\r" not in path.read_bytes(), path.relative_to(tmp_path)


class TestConfig:
    def test_round_trips_losslessly(self, tmp_path):
        cfg = small_config("attention", tau_softmax=0.7)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        again = load_config(path)
        assert again == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"prior_kind": "sbm", "bogus_knob": 3}))
        with pytest.raises(ConfigurationError, match="bogus_knob"):
            load_config(path)

    def test_the_attention_coupling_switch_is_an_unknown_key(self, tmp_path, capsys):
        # the attention M-step always carries its coupling term
        from scool.cli import EXIT_CONFIG, main

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"prior_kind": "attention", "attention_coupling": False}))
        for command in (["validate-config"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", str(path)]) == EXIT_CONFIG == 2
            assert "unknown config keys: ['attention_coupling']" in capsys.readouterr().err

    def test_validation_failures(self):
        with pytest.raises(ConfigurationError):
            small_config(K=10, num_groups=3)  # not divisible
        with pytest.raises(ConfigurationError):
            small_config(N=9)  # N > M
        with pytest.raises(ConfigurationError):
            small_config(tau_sigmoid=0.0)
        # the builders' own checks, run by validate()
        with pytest.raises(ConfigurationError, match=re.escape("group-ring needs 0 <= K0 <= K-2")):
            small_config(topology_kind="group-ring", topology_k0=5)
        with pytest.raises(ConfigurationError, match=re.escape("architecture needs d >= 1 and C >= 2")):
            small_config(N=1, num_groups=1)
        small_config(topology_kind="group-ring", topology_k0=0)
        small_config(hidden_units=0)  # softmax regression reads no hidden width

    def test_pruning_at_round_zero_is_rejected(self):
        # round 0 would rank the initial uniform w, so by client index
        with pytest.raises(ConfigurationError, match="pruning needs sparsify_round >= 1"):
            small_config(sparsify_keep_fraction=0.27, sparsify_round=0)
        small_config(sparsify_keep_fraction=1.0, sparsify_round=0)
        small_config(sparsify_keep_fraction=0.27, sparsify_round=1)


class TestCli:
    def _write_config(self, tmp_path, **kw):
        cfg = small_config(**kw)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        return path

    @staticmethod
    def _refuse_constant(name):
        # NaN and Infinity are no strict JSON, and strict parsers refuse them
        raise ValueError(f"report.json holds {name}")

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "scool.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_validate_config_ok(self, tmp_path):
        path = self._write_config(tmp_path)
        proc = self._run("validate-config", "--config", str(path))
        assert proc.returncode == 0
        assert "config ok" in proc.stdout

    def test_run_writes_outputs(self, tmp_path):
        path = self._write_config(tmp_path, rounds=2)
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        assert (out / "metrics.csv").exists()

    def test_seed_override_changes_report(self, tmp_path):
        path = self._write_config(tmp_path, rounds=2)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self._run("run", "--config", str(path), "--out", str(out1)).returncode == 0
        assert (
            self._run(
                "run", "--config", str(path), "--out", str(out2), "--seed", "99"
            ).returncode
            == 0
        )
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["seed"] == 5 and r2["seed"] == 99
        assert r1["rounds"] != r2["rounds"]

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"prior_kind": "martian"}')
        proc = self._run("run", "--config", str(path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_missing_file_exit_code(self, tmp_path):
        proc = self._run("validate-config", "--config", str(tmp_path / "none.json"))
        assert proc.returncode == 2

    def test_sweep_budget_runs(self, tmp_path):
        path = self._write_config(tmp_path, rounds=2, sparsify_round=1)
        out = tmp_path / "sweep"
        proc = self._run(
            "sweep-budget", "--config", str(path), "--out", str(out),
            "--fractions", "0.4,1.0",
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "budget_sweep.csv").exists()
        assert (out / "fraction_0.40" / "report.json").exists()

    @pytest.mark.parametrize("fractions, message", [
        # both would write fraction_0.01/, the second report over the first
        ("0.5,0.01,0.015", "fractions 0.01 and 0.015 would both write fraction_0.01"),
        ("0.5,1.5", "sparsify_keep_fraction in (0,1]"),
        ("0.1,abc", "--fractions: could not convert string to float: 'abc'"),
    ])
    def test_sweep_budget_is_checked_before_the_first_run(self, tmp_path, fractions, message):
        path = self._write_config(tmp_path, rounds=2, sparsify_round=1)
        out = tmp_path / "sweep"
        proc = self._run("sweep-budget", "--config", str(path), "--out", str(out), "--fractions", fractions)
        assert proc.returncode == 2 and message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be of type int, not 1.5"),
        ("rounds", 1.5, "rounds must be of type int, not 1.5"),
        ("K", "6", "K must be of type int, not '6'"),
        ("shared_init", "no", "shared_init must be of type bool, not 'no'"),
        ("eta2", float("inf"), "eta2 must be finite, not inf"),  # JSON Infinity
        ("test_samples_per_client", 0, "need at least one test sample per client"),
    ])
    def test_wrongly_typed_field_exit_code(self, tmp_path, key, value, message):
        # refused by validate-config as by run: exit 2, no traceback
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**small_config().to_dict(), key: value}))
        out = tmp_path / "o"
        for args in (("validate-config",), ("run", "--out", str(out))):
            proc = self._run(*args, "--config", str(path))
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            assert message in proc.stderr and "config ok" not in proc.stdout
        assert not out.exists()

    def test_snapshot_every_override(self, tmp_path):
        path = self._write_config(tmp_path, rounds=3)
        out = tmp_path / "snaps"
        proc = self._run(
            "run", "--config", str(path), "--out", str(out), "--snapshot-every", "1"
        )
        assert proc.returncode == 0, proc.stderr
        for r in (1, 2, 3):
            assert (out / f"w_round_{r:04d}.csv").exists()

    def test_custom_mask_is_rejected_before_run(self, tmp_path):
        # custom-mask is no topology kind, so validate-config must refuse
        # what run cannot start
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({**small_config().to_dict(), "topology_kind": "custom-mask"}))
        proc = self._run("validate-config", "--config", str(path))
        assert proc.returncode == 2
        assert "topology_kind" in proc.stderr
        assert self._run("run", "--config", str(path), "--out", str(tmp_path / "o")).returncode == 2

    def test_dirac_pruning_is_rejected_before_run(self, tmp_path):
        # uniform Metropolis weights would rank neighbours by client index
        message = "dirac has no learned weights to prune by"
        path = tmp_path / "dirac.json"
        path.write_text(json.dumps({**small_config("dirac").to_dict(), "sparsify_keep_fraction": 0.5}))
        proc = self._run("validate-config", "--config", str(path))
        assert proc.returncode == 2 and "config ok" not in proc.stdout
        assert message in proc.stderr
        out = tmp_path / "o"
        proc = self._run("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 2 and message in proc.stderr
        assert not out.exists()
        # a budget sweep of a dirac config prunes too
        path = self._write_config(tmp_path, prior="dirac")
        proc = self._run("sweep-budget", "--config", str(path), "--out", str(out), "--fractions", "0.5")
        assert proc.returncode == 2 and message in proc.stderr

    def test_pruning_at_round_zero_exit_code(self, tmp_path):
        message = "pruning needs sparsify_round >= 1"
        path = tmp_path / "prune0.json"
        path.write_text(json.dumps({**small_config().to_dict(), "sparsify_keep_fraction": 0.27, "sparsify_round": 0}))
        proc = self._run("validate-config", "--config", str(path))
        assert proc.returncode == 2 and message in proc.stderr
        out = tmp_path / "o"
        proc = self._run("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 2 and message in proc.stderr
        assert not out.exists()

    def test_one_class_per_client_exit_code(self, tmp_path):
        # ArchSpec's rule is a configuration error: exit 2, no traceback
        path = tmp_path / "n1.json"
        path.write_text(json.dumps({**small_config().to_dict(), "N": 1}))
        for args in (("validate-config",), ("run", "--out", str(tmp_path / "o"))):
            proc = self._run(*args, "--config", str(path))
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            assert "C >= 2" in proc.stderr

    def test_in_process_run_takes_the_seed_and_snapshot_overrides(self, tmp_path, capsys):
        from scool.cli import main

        path, out = self._write_config(tmp_path, rounds=2, seed=11, snapshot_every=1), tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "5", "--snapshot-every", "0"]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 5
        assert not list(out.glob("w_round_*.csv"))
        assert capsys.readouterr().out.startswith("done: sbm T=2 ")

    def test_in_process_validate_config(self, tmp_path, capsys):
        from scool.cli import main

        assert main(["validate-config", "--config", str(self._write_config(tmp_path))]) == 0
        assert capsys.readouterr().out == "config ok\n"

    def test_in_process_sweep_skips_an_empty_fraction(self, tmp_path, capsys):
        from scool.cli import main

        path, out = self._write_config(tmp_path, rounds=2, sparsify_round=1), tmp_path / "sweep"
        assert main(["sweep-budget", "--config", str(path), "--out", str(out), "--fractions", "0.5,"]) == 0
        lines = (out / "budget_sweep.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.5,")
        assert [p.name for p in out.iterdir() if p.is_dir()] == ["fraction_0.50"]
        assert capsys.readouterr().out.startswith("fraction=0.50 mean_acc=")

    @pytest.mark.parametrize("fractions, message", [
        ("abc", "configuration error: --fractions: could not convert string to float: 'abc'\n"),
        (",", "configuration error: --fractions must name at least one value\n"),
    ])
    def test_in_process_sweep_refuses_unreadable_fractions(self, tmp_path, capsys, fractions, message):
        from scool.cli import main

        path, out = self._write_config(tmp_path, rounds=2), tmp_path / "sweep"
        assert main(["sweep-budget", "--config", str(path), "--out", str(out), "--fractions", fractions]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @staticmethod
    def _main(capsys, command, config, out):
        # in process through cli.main: a malformed input must come back as an
        # exit code, not escape as an exception
        from scool.cli import main

        args = [command, "--config", str(config)]
        if command != "validate-config":
            args += ["--out", str(out)] + (["--fractions", "0.5"] if command == "sweep-budget" else [])
        code = main(args)
        out_err = capsys.readouterr()
        assert "config ok" not in out_err.out and "Traceback" not in out_err.err
        return code, out_err.err

    @pytest.mark.parametrize("command", ["validate-config", "run", "sweep-budget"])
    @pytest.mark.parametrize("content, message", [
        ("[]", "a config is a JSON object of settings, not list"),
        ("1", "a config is a JSON object of settings, not int"),
        ("null", "a config is a JSON object of settings, not NoneType"),
        ('"x"', "a config is a JSON object of settings, not str"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        ("{", "invalid JSON ("),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        code, err = self._main(capsys, command, path, tmp_path / "o")
        assert code == 2 and f"configuration error: {path}: {message}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate-config", "run", "sweep-budget"])
    def test_config_naming_a_directory_exit_code(self, tmp_path, capsys, command):
        code, err = self._main(capsys, command, tmp_path, tmp_path / "o")
        assert code == 2 and "Is a directory" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, reason", [("run", "File exists"), ("sweep-budget", "Not a directory")])
    def test_out_naming_a_file_exit_code(self, tmp_path, capsys, command, reason):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        code, err = self._main(capsys, command, self._write_config(tmp_path, rounds=1, sparsify_round=1), out)
        assert code == 2 and "configuration error: output directory" in err and reason in err
        assert out.read_text() == "kept\n"

    def test_invariant_error_exit_code_and_partial_report(self, tmp_path, monkeypatch, capsys):
        from scool.cli import EXIT_INVARIANT, main
        from scool.em import sbm
        from scool.errors import InvariantError

        real = sbm.update_block_matrix
        calls = []

        def collapsing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise InvariantError("degenerate memberships: block denominator underflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(sbm, "update_block_matrix", collapsing)
        path = self._write_config(tmp_path, rounds=4)
        out = tmp_path / "inv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_INVARIANT == 4
        assert "block denominator underflow" in capsys.readouterr().err
        data = json.loads((out / "report.json").read_text())
        assert data["diverged"] is True
        assert data["divergence_message"] == "round 1: degenerate memberships: block denominator underflow"
        assert len(data["rounds"]) == 1
        assert (out / "metrics.csv").read_text().count("\n") == 2

    def test_extreme_eta2_collapses_a_block_denominator(self, tmp_path, capsys):
        # the same exit with nothing patched: at eta2 = 1e300 the memberships
        # collapse before alpha overflows; at 1e308 alpha gives way first and
        # the run exits 3 (test_faults_exit_3_with_a_partial_report)
        from scool.cli import EXIT_INVARIANT, main

        path = self._write_config(tmp_path, eta2=1e300, rounds=3)
        out = tmp_path / "eta2"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_INVARIANT == 4
        assert "block denominator underflow" in capsys.readouterr().err
        data = json.loads((out / "report.json").read_text(), parse_constant=self._refuse_constant)
        assert data["diverged"] is True
        assert data["divergence_message"] == "round 1: degenerate memberships: block denominator underflow"

    def test_underflowed_row_at_pruning_exit_code_and_partial_report(self, tmp_path, monkeypatch, capsys):
        from scool.cli import EXIT_DIVERGED, main
        from scool.em import sbm

        real = sbm.update_prior

        def underflowing(state, *args, **kwargs):
            real(state, *args, **kwargs)
            state.w[2] = 0.0  # every weight of client 2 underflowed

        monkeypatch.setattr(sbm, "update_prior", underflowing)
        path = self._write_config(tmp_path, rounds=4, sparsify_keep_fraction=0.4, sparsify_round=2)
        out = tmp_path / "underflow"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_DIVERGED == 3
        assert "row 2 has no positive weight" in capsys.readouterr().err
        data = json.loads((out / "report.json").read_text())
        assert data["diverged"] is True
        assert data["divergence_message"] == "round 2: sparsify: row 2 has no positive weight"
        assert len(data["rounds"]) == 2

    @pytest.mark.parametrize("prior, overrides, poison, message", [
        ("sbm", {"eta2": 1e308}, None, "Dirichlet prior alpha is non-finite"),
        ("mmsbm", {"eta2": 1e308}, None, "Dirichlet prior alpha is non-finite"),
        ("attention", {"eta2": 1e300}, None, "attention scores over the temperature are non-finite"),
        ("attention", {"tau_softmax": 1e-300}, None, "attention scores over the temperature are non-finite"),
        *((prior, {}, "features", "non-finite") for prior in PRIORS),  # NaN training features
        # the ridge term of the lower bound overflows
        *((prior, {"init_scale": 1e300}, None, "lower bound is non-finite") for prior in ("sbm", "attention", "mmsbm")),
        # a NaN written after round 1 into one client's parameters
        ("local-only", {}, "theta", "client 0 produced a non-finite update at local step 0"),
        ("dirac", {}, "theta", "client 0 produced a non-finite update at local step 0"),
        *((prior, {}, "theta", "cross-client log-likelihoods are non-finite") for prior in ("sbm", "attention", "mmsbm")),
        # ... or into a prior's state: a block membership, the attention encoder
        ("sbm", {}, "omega", "Dirichlet posterior gamma is non-finite"),
        ("mmsbm", {}, "phi_send", "Dirichlet posterior gamma is non-finite"),
        ("mmsbm", {}, "phi_recv", "Dirichlet posterior gamma is non-finite"),
        ("attention", {}, "phi", "attention scores over the temperature are non-finite"),
    ])
    def test_faults_exit_3_with_a_partial_report(self, tmp_path, monkeypatch, capsys, prior, overrides, poison, message):
        # finite but extreme settings, a NaN in one client's training
        # features, or a NaN written into the models or the prior's state
        # mid-run, end the run as a divergence: exit 3 and a flagged report,
        # where any other exception would escape main()
        from scool.cli import EXIT_DIVERGED, main

        if poison == "features":
            real = runner.build_tasks

            def poisoned(config):
                assignment, train, test = real(config)
                train.features[1, 0, 0] = np.nan
                return assignment, train, test

            monkeypatch.setattr(runner, "build_tasks", poisoned)
        elif poison is not None:
            real_round = rounds.run_round

            def poisoned_round(state, models, mask, round_index, config):
                if round_index == 1:  # after round 1 has been reported
                    target = models.theta if poison == "theta" else getattr(state, poison)
                    target.flat[1] = np.nan
                return real_round(state, models, mask, round_index, config)

            monkeypatch.setattr(rounds, "run_round", poisoned_round)
        path = self._write_config(tmp_path, prior=prior, sparsify_keep_fraction=1.0, **overrides)
        out = tmp_path / "fault"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_DIVERGED == 3
        assert message in capsys.readouterr().err
        data = json.loads((out / "report.json").read_text(), parse_constant=self._refuse_constant)
        assert data["diverged"] is True and message in data["divergence_message"]
        assert len(data["rounds"]) < 4
        if poison not in (None, "features"):
            assert len(data["rounds"]) == 1 and data["divergence_message"].startswith("round 1: ")

    def test_an_initial_draw_that_overflows_prints_only_the_diagnosis(self, tmp_path):
        # init_scale is finite, so validate() passes it, but its draw
        # overflows at set-up: stderr carries the diagnosis and no warning
        path = tmp_path / "huge-init.json"
        path.write_text(json.dumps({"prior_kind": "sbm", "init_scale": 1.7e308, "rounds": 2}))
        proc = self._run("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diverged: round 0: "), proc.stderr

    def test_divergence_exit_code(self, tmp_path):
        path = self._write_config(tmp_path, eta1=1e150, weight_decay=10.0, rounds=5)
        proc = self._run("run", "--config", str(path), "--out", str(tmp_path / "d"))
        assert proc.returncode == 3
        assert "diverged" in proc.stderr
