"""One experiment of the benchmark, in a fresh process.

    python3 perfbench/experiment.py --workload NAME --seed N --trace 0|1 --out DIR

Runs ``scool.runner.run_experiment`` once on the workload's config, writing
its outputs to DIR, and prints one JSON line with the timings, the user-
facing results and, when traced, the per-layer metrics and the round-1
cross-check differences. The simulator is imported from the checkout's
``src`` and nowhere else.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, no simulator thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SCOOL_THREADS", None)

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_scool():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scool

    if not Path(scool.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"scool was imported from {scool.__file__}, not from {src}")
    return scool


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    scool = _import_scool()

    from crosscheck import RoundOneCapture
    from probe import Probe
    from reference import arch_of
    from workloads import config_dict

    config = scool.ExperimentConfig.from_dict(config_dict(ROOT, args.workload, args.seed))
    probe = Probe(traced=bool(args.trace))
    probe.install()
    capture = None
    if args.trace:
        capture = RoundOneCapture()
        capture.install(probe)

    error = ""
    report = None
    started = time.perf_counter()
    try:
        report = scool.run_experiment(config, args.out)
    except scool.ScoolError as err:
        error = f"{type(err).__name__}: {err}"
    finished = time.perf_counter()

    first_round = probe.first_round_at if probe.first_round_at is not None else finished
    loop_end = probe.loop_end_at if probe.loop_end_at is not None else finished
    out = {
        "config": config.to_dict(),
        "error": error,
        "rounds_attempted": config.rounds,
        "rounds_completed": probe.rounds_completed,
        "setup_s": first_round - started,
        "loop_s": loop_end - first_round,
        "run_s": finished - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": sorted(set(probe.missing)),
    }
    if report is not None:
        out.update(
            final_mean_acc=report.final_mean_acc,
            final_l1=report.rounds[-1]["l1_to_ground_truth"],
            comm_vector_units=report.comm_totals["vector_units_folded"],
        )
    if args.trace:
        written = sum(f.stat().st_size for f in Path(args.out).iterdir() if f.name != "timing.json")
        out["layers"] = probe.layer_metrics(written)
        out["crosscheck"] = capture.compare(arch_of(out["config"]))
    print(json.dumps(out))
    return 0 if not error else 3


if __name__ == "__main__":
    sys.exit(main())
