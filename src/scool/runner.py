"""Experiment runner: configs in, deterministic metrics and snapshots out.

Everything written under the output directory is a pure function of the
config (including its seed); wall-clock timing goes to a separate sidecar
file so the deterministic artifacts can be compared byte for byte.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .em import rounds
from .errors import ConfigurationError, DivergenceError, InvariantError
from .models import ArchSpec, ClientStore, DataStack, batch_accuracy, batch_log_likelihood, pairs_per_block
from .tasks import gen_tasks
from .topology import CommLedger, build_topology

REPORT_SCHEMA_VERSION = 1

# Activation elements (clients x samples x max(h, C)) one batched reporting
# call may hold: the per-round accuracies and losses are evaluated over
# blocks of clients of this size, so their memory does not grow with K.
REPORT_BLOCK_ELEMENTS = 65536

METRIC_COLUMNS = [
    "round",
    "mean_test_acc",
    "std_test_acc",
    "mean_train_loss",
    "elbo",
    "l1_to_ground_truth",
    "models_sent",
    "gradients_sent",
    "scalars_sent",
    "vector_units_folded",
    "vector_units_separate",
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
    rows = ~(sums <= 0.0)
    dist = np.full(len(w), 2.0)
    dist[rows] = np.abs(w[rows] / sums[rows, None] - w_star[rows]).sum(axis=1)
    # folded left to right in Python: np.sum pairs the rows up and would
    # move the last bits of l1_to_ground_truth
    total = 0.0
    for d in dist.tolist():
        total += d
    return total / len(w)


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
    tiled to every client when ``shared_init`` is set."""
    arch = config.arch_spec()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    shape = (1 if config.shared_init else config.K, arch.n_params)
    theta = config.init_scale * rng.standard_normal(shape)
    return ClientStore(np.broadcast_to(theta, (config.K, arch.n_params)), arch, train, test)


def build_state(config: ExperimentConfig, mask: np.ndarray, theta_dim: int):
    return rounds.PRIORS[config.prior_kind].init_state(config, mask, theta_dim)


def per_client(kernel, thetas: np.ndarray, data: DataStack, arch: ArchSpec) -> np.ndarray:
    """kernel(thetas, data.features, data.labels, arch) of every client, one
    batched call per block of at most REPORT_BLOCK_ELEMENTS activations."""
    X, Y = data.features, data.labels
    block = pairs_per_block(REPORT_BLOCK_ELEMENTS, X.shape[1], arch)
    return np.concatenate([
        kernel(thetas[a : a + block], X[a : a + block], Y[a : a + block], arch)
        for a in range(0, len(thetas), block)
    ])


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    # one row of Python floats at a time: a whole-matrix tolist() of a
    # 192 x 192 snapshot raises the peak memory by about 1 MB
    lines = [",".join(map(repr, row.tolist())) for row in np.asarray(matrix, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


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
    ledger = CommLedger(arch.n_params)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    report = ExperimentReport(config=config.to_dict(), seed=config.seed)
    failure = None
    for r in range(config.rounds):
        try:
            result = rounds.run_round(state, clients, mask, ledger, r, config)
        except (DivergenceError, InvariantError) as err:
            failure = err
            report.diverged = True
            report.divergence_message = str(err)
            break
        accs = per_client(batch_accuracy, clients.theta, clients.test, arch)
        losses = -per_client(batch_log_likelihood, clients.theta, clients.train, arch)
        comm = ledger.rounds[-1] if ledger.rounds and ledger.rounds[-1].round_index == r else None
        row = {
            "round": r + 1,
            "mean_test_acc": float(np.mean(accs)),
            "std_test_acc": float(np.std(accs)),
            "mean_train_loss": float(np.mean(losses)),
            "elbo": result.elbo_total,
            "l1_to_ground_truth": metric_l1(result.graph, assignment.w_star),
            "models_sent": comm.models_sent if comm else 0,
            "gradients_sent": comm.gradients_sent if comm else 0,
            "scalars_sent": comm.scalars_sent if comm else 0,
            "vector_units_folded": comm.vector_units_folded if comm else 0.0,
            "vector_units_separate": comm.vector_units_separate if comm else 0.0,
        }
        report.rounds.append(row)
        if out_path is not None and config.snapshot_every > 0:
            if (r + 1) % config.snapshot_every == 0 or r == config.rounds - 1:
                _write_matrix(out_path / f"w_round_{r + 1:04d}.csv", result.graph)

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
