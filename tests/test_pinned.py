"""Pinned outputs: small runs of every prior, both architectures, both
gradient modes and the Adam prior step, against reference values checked
in at tests/pinned_outputs.json.

The values are compared to 1e-12 relative, the fast-path contract: another
CPU or BLAS build may move the last bits, so exact bytes are not the gate.
The exact digests of the run's text are printed for information.

A change that moves the outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_pinned.py

and states the largest change it made.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from scool.config import ExperimentConfig
from scool.runner import run_experiment

PINNED = Path(__file__).with_name("pinned_outputs.json")
ROUNDS = 6

BASE = dict(
    seed=4, rounds=ROUNDS, local_steps=2, K=8, M=4, N=2, num_groups=2,
    samples_per_client=8, test_samples_per_client=40, feature_dim=4,
    noise_sigma=0.7, eta1=0.25, sparsify_keep_fraction=0.5, sparsify_round=3,
    snapshot_every=ROUNDS,
)
CASES = {
    "local-only": dict(prior_kind="local-only"),
    "dirac": dict(prior_kind="dirac", topology_kind="group-ring", topology_k0=2,
                  sparsify_keep_fraction=1.0),
    "sbm": dict(prior_kind="sbm", tau_sigmoid=1.4, block_init=0.1),
    "attention": dict(prior_kind="attention", eta2=0.02),
    "mmsbm": dict(prior_kind="mmsbm"),
    "attention-mlp": dict(prior_kind="attention", arch="mlp-1hidden", hidden_units=6,
                          task_setting="noniid-random"),
    "mmsbm-taylor": dict(prior_kind="mmsbm", grad_mode="taylor-approx"),
    "sbm-adam": dict(prior_kind="sbm", optimizer="adam", optimizer_weight_decay=0.01),
    "attention-adam": dict(prior_kind="attention", optimizer="adam", optimizer_weight_decay=0.01),
}


def outputs(name: str, out_dir: Path) -> dict:
    """Every metrics.csv column per round, the final per-client accuracies,
    the last graph snapshot and a digest of the three files' bytes."""
    run_experiment(ExperimentConfig(**{**BASE, **CASES[name]}).validate(), out_dir)
    files = [out_dir / "metrics.csv", out_dir / "report.json", out_dir / f"w_round_{ROUNDS:04d}.csv"]
    with files[0].open() as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads(files[1].read_text())
    graph = [[float(x) for x in line.split(",")] for line in files[2].read_text().splitlines()]
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    return {
        "metrics": {col: [float(row[col]) if row[col] else None for row in rows] for col in rows[0]},
        "final_acc": report["final"]["per_client_test_acc"],
        "graph": graph,
        "digest": digest,
    }


def _flat(value):
    if isinstance(value, list):
        for v in value:
            yield from _flat(v)
    else:
        yield value


def _assert_close(got, want, where: str) -> None:
    got, want = list(_flat(got)), list(_flat(want))
    assert len(got) == len(want), where
    for k, (a, b) in enumerate(zip(got, want)):
        if a is None or b is None:
            assert a == b, (where, k, a, b)
        else:
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (where, k, a, b)


@pytest.mark.parametrize("name", list(CASES))
def test_pinned_outputs(name, tmp_path):
    want = json.loads(PINNED.read_text())[name]
    got = outputs(name, tmp_path)
    print(f"{name}: digest {got['digest']} (pinned {want['digest']})")
    assert got["metrics"].keys() == want["metrics"].keys()
    for col, values in want["metrics"].items():
        _assert_close(got["metrics"][col], values, f"{name} metrics.csv {col}")
    _assert_close(got["final_acc"], want["final_acc"], f"{name} final accuracies")
    _assert_close(got["graph"], want["graph"], f"{name} last graph")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: outputs(name, Path(tmp) / name) for name in CASES}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {PINNED}")
