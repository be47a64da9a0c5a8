"""Round-1 cross-checks of a traced run against reference.py.

The first call of ``loglik_matrix``, of ``cooperative_sgd_steps`` (with the
attention coupling it calls) and of ``dpsgd_step`` have their inputs and
results copied; after the run they are recomputed with the benchmark's own
batched numpy code. The attention coupling is also checked on its last
call, since in round 1 the models still sit at their shared start and the
coupling is close to zero. A layer whose binding is missing is skipped and
listed as missing by the probe.
"""

from __future__ import annotations

import inspect

import numpy as np

import reference

COOP_BINDINGS = [
    ("scool.em.sbm", "cooperative_sgd_steps"),
    ("scool.em.mmsbm", "cooperative_sgd_steps"),
    ("scool.em.attention", "cooperative_sgd_steps"),
    ("scool.em.theta", "cooperative_sgd_steps"),
]


def _thetas(models) -> np.ndarray:
    return np.stack([np.array(m.theta, dtype=float) for m in models])


class RoundOneCapture:
    def __init__(self):
        self.data: dict = {}

    def install(self, probe) -> None:
        probe.rebind("scool.em.rounds", "loglik_matrix", lambda fn: self._first_call("loglik", fn))
        for module, attr in COOP_BINDINGS:
            probe.rebind(module, attr, lambda fn: self._first_call("coop", fn))
        probe.rebind("scool.em.attention", "coupling_descent_terms",
                     lambda fn: self._first_call("coupling", fn, also_last=True))
        probe.rebind("scool.em.dirac", "dpsgd_step", lambda fn: self._first_call("gossip", fn))

    def _first_call(self, key: str, fn, also_last: bool = False):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            first = key not in self.data
            if not (first or also_last):
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            models = a["models"]
            record = {"before": _thetas(models), "init": np.stack([m.init_theta for m in models])}
            if "train_sets" in a:
                record["X"] = np.stack([d.features for d in a["train_sets"]])
                record["Y"] = np.stack([d.labels for d in a["train_sets"]])
            if key == "coupling":
                state = a["state"]
                record.update(phi=state.phi.copy(), dims=state.enc_dims, tau=state.tau_softmax, w=state.w.copy())
            for name in ("w", "lam", "eta1", "steps", "grad_mode", "coupling_fn"):
                if name in a:
                    record[name] = np.array(a[name]) if name == "w" else a[name]
            K = len(models)
            mask = a.get("mask")
            record["mask"] = np.ones((K, K), dtype=bool) if mask is None else np.array(mask, dtype=bool)
            if first:
                self.data[key] = record
            if also_last:
                self.data[key + "_last"] = record
            result = fn(*args, **kwargs)
            record["result"] = None if result is None else np.array(result, dtype=float)
            record["after"] = _thetas(models)
            return result

        return wrapper

    def compare(self, arch) -> dict:
        """Largest absolute differences between the program and the
        reference; None where the layer was not called."""
        out = {"loglik_max_abs_diff": None, "step_layer": None, "step_max_abs_diff": None,
               "coupling_max_abs_diff": None}
        if "loglik" in self.data:
            c = self.data["loglik"]
            ref = reference.loglik_matrix(c["before"], c["X"], c["Y"], arch, c["mask"])
            out["loglik_max_abs_diff"] = float(np.max(np.abs(ref - c["result"])))
        if "coop" in self.data:
            c = self.data["coop"]
            coupling = None
            if c["coupling_fn"] is not None:
                e = self.data["coupling"]
                coupling = lambda theta: reference.coupling_terms(
                    theta, c["init"], e["phi"], e["dims"], c["w"], e["tau"], c["mask"]
                )
            ref = reference.cooperative_direction(
                c["before"], c["X"], c["Y"], arch, c["w"], c["lam"], c["eta1"],
                c["steps"], c["grad_mode"], c["mask"], coupling,
            )
            program = (c["before"] - c["after"]) / c["eta1"]
            out.update(step_layer="coop_sgd", step_max_abs_diff=float(np.max(np.abs(ref - program))))
        elif "gossip" in self.data:
            c = self.data["gossip"]
            ref = reference.gossip_direction(c["before"], c["X"], c["Y"], arch, c["w"], c["eta1"])
            program = (c["before"] - c["after"]) / c["eta1"]
            out.update(step_layer="gossip", step_max_abs_diff=float(np.max(np.abs(ref - program))))
        if "coupling_last" in self.data:
            c = self.data["coupling_last"]
            ref = reference.coupling_terms(c["before"], c["init"], c["phi"], c["dims"], c["w"], c["tau"], c["mask"])
            out["coupling_max_abs_diff"] = float(np.max(np.abs(ref - c["result"])))
        return out
