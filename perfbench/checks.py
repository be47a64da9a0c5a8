"""Output checks, computed apart from the program, and their self-test.

Each check reads one experiment's output directory (parsed into
``Outputs``) and the config that produced it, and returns a list of
failure messages. ``self_test`` corrupts a copy of real outputs once per
property and confirms that the matching check reports it.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import reference

VOLATILE = {"timing.json"}  # wall-clock sidecar, not deterministic by design
TOL = 1e-12


class Outputs:
    """An output directory parsed: the report and every graph snapshot."""

    def __init__(self, out_dir: Path):
        self.files = {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}
        self.report = json.loads(self.files["report.json"])
        self.snapshots = {
            int(name[len("w_round_") : -len(".csv")]): np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2)
            for name, data in self.files.items()
            if name.startswith("w_round_")
        }

    def copy(self) -> "Outputs":
        return copy.deepcopy(self)


def digest(out_dir: Path) -> dict:
    """sha256 of every deterministic output file."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(out_dir).iterdir())
        if f.name not in VOLATILE
    }


def check_rounds(cfg: dict, out: Outputs) -> list[str]:
    rep = out.report
    bad = []
    if rep["diverged"]:
        bad.append(f"run diverged: {rep['divergence_message']}")
    if len(rep["rounds"]) != cfg["rounds"]:
        bad.append(f"{len(rep['rounds'])} of {cfg['rounds']} rounds reported")
    return bad


def check_traffic(cfg: dict, out: Outputs) -> list[str]:
    """Per-round and cumulative vector units equal the closed forms."""
    want = reference.traffic_per_round(cfg)
    got = [row["vector_units_folded"] for row in out.report["rounds"]]
    bad = [
        f"round {r + 1}: traffic {g!r} != closed form {w!r}"
        for r, (g, w) in enumerate(zip(got, want))
        if abs(g - w) > TOL * w
    ]
    total = out.report["comm_totals"]["vector_units_folded"]
    if abs(total - sum(want)) > TOL * sum(want):
        bad.append(f"cumulative traffic {total!r} != closed form {sum(want)!r}")
    return bad


def _pruned_mask(cfg: dict, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row keeps its ceil(f (K-1)) strongest unmasked neighbours, ties
    toward the lower index."""
    K = len(w)
    out = np.eye(K, dtype=bool)
    keep = reference.prune_keep(cfg)
    for i in range(K):
        cand = [j for j in np.argsort(-w[i], kind="stable") if j != i and mask[i, j]]
        out[i, cand[:keep]] = True
    return out


def mask_in_force(cfg: dict, out: Outputs, r: int) -> np.ndarray:
    """The mask of round r: the initial one, and after pruning the top-k of
    the snapshot taken at the pruning round (the graph the pruning read)."""
    mask = reference.initial_mask(cfg)
    prune_at = cfg["sparsify_round"]
    if cfg["sparsify_keep_fraction"] < 1.0 and r > prune_at:
        return _pruned_mask(cfg, out.snapshots[prune_at], mask)
    return mask


def check_snapshots(cfg: dict, out: Outputs) -> list[str]:
    """Rows sum to one, entries lie in [0, 1] and are exactly zero outside
    the mask in force."""
    K = cfg["K"]
    if not out.snapshots:
        return ["no graph snapshots written"]
    if cfg["sparsify_keep_fraction"] < 1.0 and cfg["sparsify_round"] not in out.snapshots:
        return [f"no snapshot at the pruning round {cfg['sparsify_round']}"]
    bad = []
    for r, w in sorted(out.snapshots.items()):
        if w.shape != (K, K):
            bad.append(f"round {r}: snapshot shape {w.shape}")
            continue
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-9:
            bad.append(f"round {r}: a row does not sum to 1")
        if w.min() < 0.0 or w.max() > 1.0:
            bad.append(f"round {r}: an entry lies outside [0, 1]")
        outside = w[~mask_in_force(cfg, out, r)]
        if np.any(outside != 0.0):
            bad.append(f"round {r}: {int(np.count_nonzero(outside))} nonzero entries outside the mask")
    return bad


def check_dirac_weights(cfg: dict, out: Outputs) -> list[str]:
    """Every dirac snapshot is the Metropolis matrix of the mask."""
    want = reference.metropolis(reference.initial_mask(cfg))
    return [
        f"round {r}: not the Metropolis weights (max diff {np.max(np.abs(w - want)):.3g})"
        for r, w in sorted(out.snapshots.items())
        if w.shape != want.shape or np.max(np.abs(w - want)) > TOL
    ]


def uninformed_l1(cfg: dict) -> float:
    """L1 distance of the uniform graph from the truth: 2 (1 - 1/G)."""
    return 2.0 * (1.0 - 1.0 / cfg["num_groups"])


def check_learned_graph(cfg: dict, out: Outputs) -> list[str]:
    """The reported final L1 equals the L1 of the last snapshot against the
    truth recomputed here, and a learned graph beats the uniform one."""
    final = out.report["rounds"][-1]["l1_to_ground_truth"]
    last = out.snapshots[max(out.snapshots)]
    mine = reference.l1_distance(last, reference.ground_truth(cfg["K"], cfg["num_groups"]))
    bad = []
    if abs(final - mine) > 1e-9:
        bad.append(f"reported final L1 {final!r} != recomputed {mine!r}")
    if cfg["prior_kind"] != "dirac" and not final < uninformed_l1(cfg):
        bad.append(f"final L1 {final!r} is not below the uninformed {uninformed_l1(cfg)!r}")
    return bad


def check_accuracy(cfg: dict, out: Outputs) -> list[str]:
    final = out.report["final"]
    bad = []
    if abs(final["mean_test_acc"] - float(np.mean(final["per_client_test_acc"]))) > TOL:
        bad.append("final mean accuracy is not the mean of the per-client accuracies")
    if not final["mean_test_acc"] > 1.0 / cfg["N"]:
        bad.append(f"final mean accuracy {final['mean_test_acc']!r} is not above chance 1/{cfg['N']}")
    return bad


def check_determinism(digests: list[dict]) -> list[str]:
    """Every experiment of the run wrote byte-identical deterministic files."""
    if len(digests) < 2:
        return ["fewer than two experiments to compare"]
    return [
        f"experiment {k}: outputs differ from experiment 0 in "
        f"{sorted(n for n in set(d) | set(digests[0]) if d.get(n) != digests[0].get(n))}"
        for k, d in enumerate(digests[1:], start=1)
        if d != digests[0]
    ]


def output_checks(cfg: dict) -> dict:
    """The checks that apply to a workload, by name."""
    checks = {
        "rounds": check_rounds,
        "traffic": check_traffic,
        "snapshots": check_snapshots,
        "learned_graph": check_learned_graph,
        "accuracy": check_accuracy,
    }
    if cfg["prior_kind"] == "dirac":
        checks["dirac_weights"] = check_dirac_weights
    return checks


# -- self-test --------------------------------------------------------------


def _corrupt_traffic(cfg, out):
    out.report["rounds"][-1]["vector_units_folded"] += 1.0


def _corrupt_row_sum(cfg, out):
    w = out.snapshots[max(out.snapshots)]
    w[0, 0] += 0.25


def _corrupt_outside_mask(cfg, out):
    """Move a little mass from the diagonal to a pair outside the mask."""
    r = max(out.snapshots)
    w = out.snapshots[r]
    j = int(np.flatnonzero(~mask_in_force(cfg, out, r)[0])[0])
    w[0, j] += 1e-3
    w[0, 0] -= 1e-3


def _corrupt_metropolis(cfg, out):
    w = out.snapshots[min(out.snapshots)]
    w[0, 1] += 1e-6
    w[0, 0] -= 1e-6


def _corrupt_l1(cfg, out):
    out.report["rounds"][-1]["l1_to_ground_truth"] = uninformed_l1(cfg)


def _corrupt_accuracy(cfg, out):
    out.report["final"]["mean_test_acc"] = 1.0 / cfg["N"]


def self_test(cfg: dict, out: Outputs, digests: list[dict]) -> list[str]:
    """Names of the corruptions that no check caught (empty when every
    check fails on its corrupted output)."""
    cases = [
        ("traffic", _corrupt_traffic),
        ("snapshots", _corrupt_row_sum),
        ("learned_graph", _corrupt_l1),
        ("accuracy", _corrupt_accuracy),
    ]
    if not np.all(mask_in_force(cfg, out, max(out.snapshots))[0]):
        cases.append(("snapshots", _corrupt_outside_mask))
    if cfg["prior_kind"] == "dirac":
        cases.append(("dirac_weights", _corrupt_metropolis))
    checks = output_checks(cfg)
    missed = []
    for name, corrupt in cases:
        bad = out.copy()
        corrupt(cfg, bad)
        if not checks[name](cfg, bad):
            missed.append(f"{name}/{corrupt.__name__}")
    flipped = [dict(d) for d in digests[:2]]
    flipped[-1]["metrics.csv"] = hashlib.sha256(out.files["metrics.csv"] + b" ").hexdigest()
    if len(flipped) < 2 or not check_determinism(flipped):
        missed.append("determinism/flipped_byte")
    return missed
