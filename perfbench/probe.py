"""Layer timing from outside the simulator.

The probe rebinds the module-level names through which the program calls
each layer (``from ..models import grad`` makes ``scool.em.theta.grad`` such
a name) to wrappers that record spans. A span's parent is the span open
when it started; every span opened inside the round loop descends from a
pseudo-span "round" that runs from one ``run_round`` entry to the next, and
from the last one to the ``CommLedger.totals`` call that follows the loop.
So the direct children of the rounds plus the rounds' self time add up to
the round-loop time by construction. Spans are folded into per-layer
totals as they close; the hot per-call layers (``models.grad``,
``models.log_likelihood``) would otherwise keep millions of records.

Untraced runs install only the two round-boundary hooks, which fire once
per round and once per run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# layer -> the bindings through which the program calls it
LAYERS = {
    "tasks.build": [("scool.runner", "build_tasks")],
    "state.init": [
        ("scool.runner", "build_models"),
        ("scool.runner", "build_topology"),
        ("scool.runner", "build_state"),
    ],
    "loglik": [("scool.em.rounds", "loglik_matrix")],
    "models.log_likelihood": [("scool.em.rounds", "log_likelihood")],
    "e_step": [
        ("scool.em.sbm", "e_step"),
        ("scool.em.mmsbm", "e_step"),
        ("scool.em.attention", "e_step"),
    ],
    "elbo": [("scool.em.rounds", "elbo")],
    "coop_sgd": [
        ("scool.em.sbm", "cooperative_sgd_steps"),
        ("scool.em.mmsbm", "cooperative_sgd_steps"),
        ("scool.em.attention", "cooperative_sgd_steps"),
        ("scool.em.theta", "cooperative_sgd_steps"),
    ],
    "coupling": [("scool.em.attention", "coupling_descent_terms")],
    "models.grad": [("scool.em.theta", "grad"), ("scool.em.dirac", "grad")],
    "prior_update": [
        ("scool.em.sbm", "update_alpha"),
        ("scool.em.sbm", "update_block_matrix"),
        ("scool.em.mmsbm", "update_alpha"),
        ("scool.em.mmsbm", "update_block_matrix"),
        ("scool.em.attention", "update_phi"),
    ],
    "gossip": [("scool.em.dirac", "dpsgd_step")],
    "sparsify": [("scool.em.rounds", "sparsify_topk")],
    "ledger": [("scool.em.rounds", "account_exchange"), ("scool.em.rounds", "account_gossip")],
    "report": [("scool.runner", "accuracy"), ("scool.runner", "loss"), ("scool.runner", "metric_l1")],
    "write": [("scool.runner", "_write_matrix"), ("scool.runner", "_write_report")],
}
ROUND = ("scool.em.rounds", "run_round")
LOOP_END = ("scool.topology", "CommLedger.totals")


def _resolve(module: str, attr: str):
    """(owner, name, current value) of a dotted binding."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.missing: list[str] = []
        self.first_round_at: float | None = None
        self.loop_end_at: float | None = None
        self.rounds_completed = 0
        self.stack: list[list] = []  # open spans: [layer, start, time in children]
        self.time = defaultdict(float)  # (phase, layer, parent layer) -> s
        self.calls = defaultdict(int)  # (phase, layer, parent layer) -> calls
        self.round_time = 0.0
        self.round_self = 0.0
        self.edge_steps = 0  # sum over cooperative calls of directed edges x steps

    # -- installing -------------------------------------------------------

    def rebind(self, module: str, attr: str, make_wrapper) -> bool:
        """Replace one binding by make_wrapper(current); a binding that cannot
        be found is recorded as missing."""
        try:
            owner, name, current = _resolve(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return False
        setattr(owner, name, make_wrapper(current))
        return True

    def install(self) -> None:
        self.rebind(*ROUND, self._round_wrapper)
        self.rebind(*LOOP_END, self._loop_end_wrapper)
        if not self.traced:
            return
        hooks = {"coop_sgd": self._count_edge_steps}
        for layer, bindings in LAYERS.items():
            for module, attr in bindings:
                self.rebind(module, attr, lambda fn, layer=layer: self._span(layer, fn, hooks.get(layer)))

    # -- recording --------------------------------------------------------

    def _phase(self) -> str:
        if self.first_round_at is None:
            return "setup"
        return "loop" if self.loop_end_at is None else "after"

    def _close_round(self, now: float) -> None:
        if self.stack and self.stack[0][0] == "round":
            _, start, children = self.stack.pop(0)
            self.round_time += now - start
            self.round_self += now - start - children

    def _round_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            if self.first_round_at is None:
                self.first_round_at = now
            if self.traced:
                self._close_round(now)
                self.stack.append(["round", now, 0.0])
            result = fn(*args, **kwargs)
            self.rounds_completed += 1
            return result

        return wrapper

    def _loop_end_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            if self.loop_end_at is None:
                self.loop_end_at = now
                self._close_round(now)
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer: str, fn, before=None):
        stack, clock = self.stack, time.perf_counter
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(signature.bind(*args, **kwargs).arguments)
            key = (self._phase(), layer, stack[-1][0] if stack else None)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                self.time[key] += elapsed
                self.calls[key] += 1

        return wrapper

    def _count_edge_steps(self, args) -> None:
        K = len(args["models"])
        mask = args.get("mask")
        edges = K * (K - 1) if mask is None else int(np.count_nonzero(mask)) - int(np.count_nonzero(np.diag(mask)))
        self.edge_steps += edges * args["steps"]

    # -- reading ----------------------------------------------------------

    def total(self, layer: str, phase: str | None = None) -> float:
        return sum(v for (p, l, _), v in self.time.items() if l == layer and phase in (None, p))

    def count(self, layer: str, phase: str | None = None, parent: str | None = "*") -> int:
        return sum(v for (p, l, par), v in self.calls.items()
                   if l == layer and phase in (None, p) and parent in ("*", par))

    def layer_metrics(self, out_bytes: int) -> dict:
        """Per-layer metrics of one traced run, each with its unit."""
        R = max(self.rounds_completed, 1)
        per_round = lambda layer: 1000.0 * self.total(layer, "loop") / R
        per_call = lambda layer: 1e6 * self.total(layer, "loop") / max(self.count(layer, "loop"), 1)
        coop_grads = self.count("models.grad", "loop", "coop_sgd")
        metrics = {
            "tasks.build_ms": (1000.0 * self.total("tasks.build", "setup"), "ms"),
            "state.init_ms": (1000.0 * self.total("state.init", "setup"), "ms"),
            "round.ms_per_round": (1000.0 * self.round_time / R, "ms"),
            "round.self_ms_per_round": (1000.0 * self.round_self / R, "ms"),
            "loglik.ms_per_round": (per_round("loglik"), "ms"),
            "loglik.pair_evals_per_round": (self.count("models.log_likelihood", "loop") / R, "count"),
            "models.loglik_us_per_call": (per_call("models.log_likelihood"), "us"),
            "coop_sgd.ms_per_round": (per_round("coop_sgd"), "ms"),
            "models.grad_calls_per_round": (self.count("models.grad", "loop") / R, "count"),
            "models.grad_us_per_call": (per_call("models.grad"), "us"),
            "coop_sgd.grad_calls_per_edge_step": (coop_grads / max(self.edge_steps, 1), "ratio"),
            "coupling.ms_per_round": (per_round("coupling"), "ms"),
            "e_step.ms_per_round": (per_round("e_step"), "ms"),
            "elbo.ms_per_round": (per_round("elbo"), "ms"),
            "prior_update.ms_per_round": (per_round("prior_update"), "ms"),
            "gossip.ms_per_round": (per_round("gossip"), "ms"),
            "topology.sparsify_ms": (1000.0 * self.total("sparsify"), "ms"),
            "topology.ledger_ms_per_round": (per_round("ledger"), "ms"),
            "report.ms_per_round": (per_round("report"), "ms"),
            "write.ms_total": (1000.0 * self.total("write"), "ms"),
            "write.bytes": (float(out_bytes), "bytes"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
