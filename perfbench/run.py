"""SCooL simulator benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Experiments of the workload run back to
back, each in a fresh process (experiment.py), until the next one would
end after S seconds; at least three run, and a traced run alternates
untraced and traced experiments, at least two of each. Outputs go to a
temporary directory inside the checkout that is removed afterwards.

The last line of standard output is one JSON object: whether every output
check passed, the rounds attempted and failed, and the metrics: the
end-to-end metrics untraced, the per-layer metrics with --trace 1. Each is
the median over the run's experiments, except rounds_per_s (all rounds
over all round-loop time), run_s and trace.overhead_pct (means). The lines before it are diagnostics: one per
experiment with its figures and the host-speed reference loop timed
before and after it, then the checks.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SCOOL_THREADS", None)

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from workloads import BASE_CONFIG, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TMP = ROOT / ".perfbench_tmp"
DEADLINE_S = 150.0  # stop starting experiments; the run must end within 180 s
XCHECK_TOL = 1e-12

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "final_mean_acc": "fraction",
    "final_l1": "L1",
    "comm_vector_units": "vectors",
}


def reference_loop_ms() -> float:
    """A fixed numpy workload, timed as a host-speed diagnostic only."""
    rng = np.random.default_rng(0)
    A, x = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    start = time.perf_counter()
    for _ in range(10000):
        np.exp(x @ A.T).sum()
    return 1000.0 * (time.perf_counter() - start)


def run_experiment(workload: str, seed: int, traced: bool, out_dir: Path, timeout: float) -> dict:
    """One experiment in a fresh process; its JSON line, or an error."""
    cmd = [sys.executable, str(HERE / "experiment.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out_dir)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"error": f"experiment exceeded {timeout:.0f} s"}
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def measure(args, tmp: Path):
    """Experiments back to back until the next would end after --seconds;
    returns their results, the digests of their outputs and the parsed
    outputs of the first."""
    traced_run = bool(args.trace)
    min_experiments = 4 if traced_run else 3
    results, digests, first_outputs = [], [], None
    started = time.perf_counter()
    while True:
        k = len(results)
        out_dir = tmp / f"exp{k}"
        ref_before = reference_loop_ms()
        timeout = max(10.0, DEADLINE_S + 20.0 - (time.perf_counter() - started))
        res = run_experiment(args.workload, args.seed, traced_run and k % 2 == 1, out_dir, timeout)
        res["traced"] = traced_run and k % 2 == 1
        res["ref_ms"] = (ref_before, reference_loop_ms())
        results.append(res)
        if out_dir.is_dir():
            digests.append(checks.digest(out_dir))
            if first_outputs is None and not res.get("error"):
                first_outputs = checks.Outputs(out_dir)
            shutil.rmtree(out_dir)
        print(json.dumps({"experiment": k, **{key: res.get(key) for key in (
            "traced", "error", "setup_s", "loop_s", "run_s", "rounds_completed", "peak_rss_mb", "ref_ms")}}))
        if res.get("error"):
            return results, digests, first_outputs
        elapsed = time.perf_counter() - started
        n = len(results)
        if n >= min_experiments and (elapsed + elapsed / n > args.seconds or elapsed > DEADLINE_S):
            if not traced_run or n % 2 == 0:
                return results, digests, first_outputs


def check_all(results, digests, outputs) -> dict:
    """Failure messages of every check, by check name."""
    errors = [f"experiment {k}: {r['error']}" for k, r in enumerate(results) if r.get("error")]
    if errors or outputs is None:
        return {"experiments": errors or ["no outputs to check"]}
    cfg = results[0]["config"]
    found = {name: check(cfg, outputs)[:5] for name, check in checks.output_checks(cfg).items()}
    found["determinism"] = checks.check_determinism(digests)
    found["self_test"] = [f"corruption not caught: {m}" for m in checks.self_test(cfg, outputs, digests)]
    crosschecks = [r["crosscheck"] for r in results if r["traced"]]
    if crosschecks:
        found["crosscheck"] = [
            f"{key} {xc[key]!r} > {XCHECK_TOL}"
            for xc in crosschecks
            for key in ("loglik_max_abs_diff", "step_max_abs_diff", "coupling_max_abs_diff")
            if xc[key] is not None and not xc[key] <= XCHECK_TOL
        ]
    return found


def end_to_end_metrics(plain: list[dict]) -> dict:
    # rounds_per_s and run_s are pooled over the experiments: the host's
    # speed drifts, and a median of three to six experiments jumps with it
    # where the pooled ratio and the mean average it (README.md, "Spread").
    values = {
        "rounds_per_s": sum(r["rounds_completed"] for r in plain) / sum(r["loop_s"] for r in plain),
        "run_s": statistics.fmean(r["run_s"] for r in plain),
    }
    for name in END_TO_END.keys() - values.keys():
        values[name] = statistics.median(r[name] for r in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {
        name: {"value": statistics.median(r["layers"][name]["value"] for r in traced), "unit": m["unit"]}
        for name, m in traced[0]["layers"].items()
    }
    overhead = statistics.fmean(r["loop_s"] for r in traced) / statistics.fmean(r["loop_s"] for r in plain)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (overhead - 1.0), "unit": "%"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "scool" / "runner.py", ROOT / BASE_CONFIG):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2

    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        results, digests, outputs = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()  # only when no other run is using it
        except OSError:
            pass

    found = check_all(results, digests, outputs)
    plain = [r for r in results if not r["traced"] and not r.get("error")]
    traced = [r for r in results if r["traced"] and not r.get("error")]
    metrics = {}
    if args.trace and plain and traced:
        metrics = layer_metrics(plain, traced)
        print(json.dumps({"crosscheck": [r["crosscheck"] for r in traced],
                          "missing_layers": sorted({m for r in traced for m in r["missing"]})}))
    elif not args.trace and plain:
        metrics = end_to_end_metrics(plain)
    attempted = sum(r.get("rounds_attempted", 0) for r in results) or 1
    failed = attempted - sum(r.get("rounds_completed", 0) for r in results)
    failures = {name: msgs for name, msgs in found.items() if msgs}
    print(json.dumps({"rounds_attempted": attempted, "rounds_completed": attempted - failed,
                      "checks_attempted": len(found), "checks_failed": len(failures), "failures": failures}))
    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
