"""Experiment runner: configs in, deterministic metrics and snapshots out.

Everything written under the output directory is a pure function of the
config (including its seed); wall-clock timing goes to a separate sidecar
file so the deterministic artifacts can be compared byte for byte.
"""

from __future__ import annotations

import csv
import functools
import json
import shutil
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .em import rounds
from .errors import ConfigurationError, DivergenceError, InvariantError
from .models import ArchSpec, ClientStore, DataStack, batch_accuracy, batch_log_likelihood, pairs_per_block
from .special import fold_sum
from .tasks import gen_tasks
from .topology import CommLedger, RoundTraffic, build_topology

REPORT_SCHEMA_VERSION = 1

# Activation elements (clients x samples x max(h, C)) one batched reporting
# call may hold: the per-round accuracies and losses are evaluated over
# blocks of clients of this size, so their memory does not grow with K.
REPORT_BLOCK_ELEMENTS = 65536

# Entries one block of a snapshot may hold: w_round_*.csv is written in
# blocks of whole rows (at least one) of at most this many entries, so the
# text held at a time does not grow with K.
SNAPSHOT_BLOCK_ELEMENTS = 4096

METRIC_COLUMNS = [
    "round",
    "mean_test_acc",
    "std_test_acc",
    "mean_train_loss",
    "elbo",
    "l1_to_ground_truth",
    *(f.name for f in fields(RoundTraffic)),
]


def metric_l1(w: np.ndarray, w_star: np.ndarray) -> float:
    """Per-client-averaged L1 distance between the row-normalized learned
    graph and the ground-truth sharing distribution. A row that cannot be
    normalized scores the maximum distance of 2."""
    w = np.ascontiguousarray(w, dtype=float)  # row sums along contiguous rows
    w_star = np.asarray(w_star, dtype=float)
    if w.shape != w_star.shape:
        raise ValueError("graph shapes differ")
    sums = w.sum(axis=1)
    # every row is divided; a row that cannot be normalized scores 2 whatever
    # its quotients are, so their zero divides and overflows stay silent
    with np.errstate(all="ignore"):
        dist = np.divide(w, sums[:, None])
        dist -= w_star
        np.abs(dist, out=dist)
        dist = np.where(~(sums <= 0.0), dist.sum(axis=1), 2.0)
    return fold_sum(dist.tolist(), 0.0) / len(w)


@dataclass
class ExperimentReport:
    config: dict
    seed: int
    rounds: list[dict] = field(default_factory=list)
    final_per_client_acc: list[float] = field(default_factory=list)
    final_mean_acc: float = 0.0
    final_std_acc: float = 0.0
    comm_totals: dict = field(default_factory=dict)
    diverged: bool = False
    divergence_message: str = ""
    wall_time_seconds: float = 0.0  # volatile; written to the timing sidecar only

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config,
            "seed": self.seed,
            "diverged": self.diverged,
            "divergence_message": self.divergence_message,
            "rounds": self.rounds,
            "final": {
                "per_client_test_acc": self.final_per_client_acc,
                "mean_test_acc": self.final_mean_acc,
                "std_test_acc": self.final_std_acc,
            },
            "comm_totals": self.comm_totals,
        }


def build_tasks(config: ExperimentConfig):
    return gen_tasks(
        config.K, config.M, config.N, config.samples_per_client, config.seed,
        num_groups=config.task_groups(),
        test_samples_per_client=config.test_samples_per_client,
        d=config.feature_dim,
        sigma=config.noise_sigma,
        separation=config.class_separation,
        placement=config.mean_placement,
    )


def build_models(config: ExperimentConfig, train: DataStack, test: DataStack) -> ClientStore:
    """The run's store: K x D initial parameters drawn from the seed, one row
    tiled to every client when ``shared_init`` is set. A scale that
    overflows the draw leaves its entries infinite, and the first round
    reports the divergence: numpy's warning would only repeat it on stderr."""
    arch = config.arch_spec()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    shape = (1 if config.shared_init else config.K, arch.n_params)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = config.init_scale * rng.standard_normal(shape)
    return ClientStore(np.broadcast_to(theta, (config.K, arch.n_params)), arch, train, test)


def build_state(config: ExperimentConfig, mask: np.ndarray, theta_dim: int):
    return rounds.PRIORS[config.prior_kind].init_state(config, mask, theta_dim)


def per_client(kernel, thetas: np.ndarray, data: DataStack, arch: ArchSpec) -> np.ndarray:
    """kernel(thetas, data.features, data.labels, arch) of every client, one
    batched call per block of at most REPORT_BLOCK_ELEMENTS activations,
    each block's result copied out before the next call, which may reuse
    its memory (a workspace's view)."""
    X, Y = data.features, data.labels
    block = pairs_per_block(REPORT_BLOCK_ELEMENTS, X.shape[1], arch, gathered=False)
    out = np.empty(len(thetas))
    for a in range(0, len(thetas), block):
        out[a : a + block] = kernel(thetas[a : a + block], X[a : a + block], Y[a : a + block], arch)
    return out


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    """Write the matrix as CSV, each entry as repr of its float, one write
    per block of whole rows of at most SNAPSHOT_BLOCK_ELEMENTS entries.
    Within a block repr runs once per distinct value, as a graph's entries
    repeat few values; values are told apart by their bits, since float
    comparison would fold -0.0 into 0.0 and keep each NaN apart."""
    rows = max(1, SNAPSHOT_BLOCK_ELEMENTS // matrix.shape[1])
    with path.open("w") as fh:
        for a in range(0, len(matrix), rows):
            bits = np.ascontiguousarray(matrix[a : a + rows], dtype=float).view(np.int64)
            values = np.sort(bits, axis=None)  # np.unique's first call adds 1 MB of peak memory
            values = values[np.append(True, values[1:] != values[:-1])]
            text = np.array([repr(v) for v in values.view(float).tolist()], dtype=object)
            fh.write("".join(",".join(row) + "\n" for row in text[np.searchsorted(values, bits)].tolist()))


def _write_report(out_dir: Path, report: ExperimentReport) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    with (out_dir / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRIC_COLUMNS)
        for row in report.rounds:
            writer.writerow(["" if row.get(c) is None else repr(row[c]) if isinstance(row[c], float) else row[c] for c in METRIC_COLUMNS])
    (out_dir / "timing.json").write_text(
        json.dumps({"wall_time_seconds": report.wall_time_seconds}) + "\n"
    )


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run one experiment end to end; deterministic given the config."""
    config.validate()
    t0 = time.perf_counter()

    assignment, train, test = build_tasks(config)
    # the one copy of every client's parameters and data for the whole run;
    # the kernels update clients.theta in place
    clients = build_models(config, train, test)
    arch = clients.arch
    mask = build_topology(
        config.topology_kind,
        config.K,
        k0=config.topology_k0,
        degree=config.topology_degree,
        seed=config.seed,
    )
    state = build_state(config, mask, arch.n_params)
    ledger = CommLedger()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigurationError(f"output directory {out_path}: {err}") from err

    report = ExperimentReport(config=config.to_dict(), seed=config.seed)
    failure = None
    # a prior without an E-step keeps one graph for the whole run: its
    # distance is taken once, and its later snapshots copy the first one
    fixed_graph = rounds.PRIORS[config.prior_kind].e_step is None
    train_loglik = functools.partial(batch_log_likelihood, workspace=clients.workspace)
    l1 = written = None
    # a step that overflows is reported by the finiteness check after it, as
    # a divergence: numpy's warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(config.rounds):
            try:
                graph, elbo_total, traffic = rounds.run_round(state, clients, mask, r, config)
                losses = -per_client(train_loglik, clients.theta, clients.train, arch)
                # finite models can still overflow their own loss
                bad = np.flatnonzero(~np.isfinite(losses))
                if bad.size:
                    raise DivergenceError(f"round {r}: client {bad[0]} train loss is non-finite")
            except (DivergenceError, InvariantError) as err:
                failure = err
                report.diverged = True
                report.divergence_message = str(err)
                break
            accs = per_client(batch_accuracy, clients.theta, clients.test, arch)
            if traffic is not None:
                ledger.rounds.append(traffic)
            if l1 is None or not fixed_graph:
                l1 = metric_l1(graph, assignment.w_star)
            row = {
                "round": r + 1,
                "mean_test_acc": float(np.mean(accs)),
                "std_test_acc": float(np.std(accs)),
                "mean_train_loss": float(np.mean(losses)),
                "elbo": elbo_total,
                "l1_to_ground_truth": l1,
                **asdict(traffic or RoundTraffic()),
            }
            report.rounds.append(row)
            if out_path is not None and config.snapshot_every > 0:
                if (r + 1) % config.snapshot_every == 0 or r == config.rounds - 1:
                    snapshot = out_path / f"w_round_{r + 1:04d}.csv"
                    if fixed_graph and written is not None:
                        shutil.copyfile(written, snapshot)
                    else:
                        _write_matrix(snapshot, graph)
                        written = snapshot

        # after a full run the models have not moved since the last round's report
        final_accs = accs if failure is None else per_client(batch_accuracy, clients.theta, clients.test, arch)
    report.final_per_client_acc = [float(a) for a in final_accs]
    report.final_mean_acc = float(np.mean(final_accs))
    report.final_std_acc = float(np.std(final_accs))
    report.comm_totals = ledger.totals()
    report.wall_time_seconds = time.perf_counter() - t0
    if out_path is not None:
        _write_report(out_path, report)
    if failure is not None:
        raise failure
    return report


def run_budget_sweep(
    config: ExperimentConfig,
    fractions: list[float],
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Re-run the base experiment at several neighbor-keep fractions and
    tabulate accuracy against communication budget. Each run writes to
    ``fraction_{f:.2f}``; every run's config, and that no two fractions share
    such a name, are checked before the first run."""
    runs = {}
    for fraction in fractions:
        name = f"fraction_{fraction:.2f}"
        if name in runs:
            raise ConfigurationError(
                f"fractions {runs[name].sparsify_keep_fraction!r} and {fraction!r} would both write {name}"
            )
        runs[name] = config.replace(sparsify_keep_fraction=float(fraction)).validate()
    rows = []
    out_path = Path(out_dir) if out_dir is not None else None
    for name, sub in runs.items():
        sub_dir = out_path / name if out_path is not None else None
        report = run_experiment(sub, sub_dir)
        rows.append(
            {
                "fraction": sub.sparsify_keep_fraction,
                "mean_acc": report.final_mean_acc,
                "std_acc": report.final_std_acc,
                "comm_total": report.comm_totals["vector_units_folded"],
            }
        )
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        with (out_path / "budget_sweep.csv").open("w", newline="") as fh:
            fields = ["fraction", "mean_acc", "std_acc", "comm_total"]
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return rows
