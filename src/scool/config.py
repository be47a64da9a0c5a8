"""Experiment configuration: a flat JSON document with full validation.

Every knob of a run lives here so that a config plus its seed pins the
whole experiment; the loader rejects unknown keys to catch typos early and
round-trips losslessly.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .em import rounds, state
from .errors import ConfigurationError
from .models import MLP_1HIDDEN, SOFTMAX_REGRESSION, ArchSpec
from .tasks import ANTIPODAL_PAIRS, DEFAULT_SEPARATION, ORTHONORMAL, check_assignment, check_universe
from .topology import (
    CROSS_GRADIENT,
    FULLY_CONNECTED,
    GENERALIZED_BIPARTITE,
    GROUP_RING,
    TAYLOR_APPROX,
    check_topology,
)

NONIID_SBM = "noniid-sbm"
NONIID_RANDOM = "noniid-random"

PRIORS = tuple(rounds.PRIORS)
SETTINGS = (NONIID_SBM, NONIID_RANDOM)
ARCHS = (SOFTMAX_REGRESSION, MLP_1HIDDEN)
TOPOLOGIES = (FULLY_CONNECTED, GROUP_RING, GENERALIZED_BIPARTITE)
PLACEMENTS = (ORTHONORMAL, ANTIPODAL_PAIRS)
GRAD_MODES = (CROSS_GRADIENT, TAYLOR_APPROX)
OPTIMIZERS = (state.PLAIN, state.ADAM)
# the values each declared field type admits
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class ExperimentConfig:
    # what to run
    prior_kind: str = "sbm"
    seed: int = 0
    rounds: int = 30
    local_steps: int = 2

    # task construction
    task_setting: str = NONIID_SBM
    K: int = 12
    M: int = 6
    N: int = 2
    num_groups: int = 3
    samples_per_client: int = 12
    test_samples_per_client: int = 100
    feature_dim: int = 8
    noise_sigma: float = 1.0
    class_separation: float = DEFAULT_SEPARATION
    mean_placement: str = ORTHONORMAL

    # local models
    arch: str = SOFTMAX_REGRESSION
    hidden_units: int = 16
    init_scale: float = 0.01
    shared_init: bool = True

    # optimization
    eta1: float = 0.1
    eta2: float = 0.1
    weight_decay: float = 1e-3
    grad_mode: str = CROSS_GRADIENT
    optimizer: str = "plain"
    optimizer_weight_decay: float = 0.0

    # prior parameters
    num_memberships: int = 3
    block_init: float = 0.5
    tau_sigmoid: float = 1.0
    tau_softmax: float = 1.0
    enc_hidden: int = 10
    enc_out: int = 5

    # topology and sparsification
    topology_kind: str = FULLY_CONNECTED
    topology_k0: int = 0
    topology_degree: int = 0
    sparsify_keep_fraction: float = 1.0
    sparsify_round: int = 10

    # reporting
    snapshot_every: int = 10

    def validate(self) -> "ExperimentConfig":
        """Accept the config only if a run can start it. The rules of the
        task, the architecture and the topology are the builders' own
        checks, run without building anything; the rules stated here are
        the enum fields' (their messages name the field) and those on the
        fields no builder reads."""
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigurationError(msg)

        # each field has its declared type, nothing coerced: a bool is no
        # number, and an int is also a float. A float field is also finite:
        # the bound is false for inf and NaN and compares any int exactly
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            typed = isinstance(value, FIELD_TYPES[f.type]) and isinstance(value, bool) == (f.type == "bool")
            need(typed, f"{f.name} must be of type {f.type}, not {value!r}")
            need(f.type != "float" or abs(value) <= sys.float_info.max, f"{f.name} must be finite, not {value!r}")
        need(self.seed >= 0, "seed must be >= 0")
        need(self.prior_kind in PRIORS, f"prior_kind must be one of {PRIORS}")
        need(self.task_setting in SETTINGS, f"task_setting must be one of {SETTINGS}")
        need(self.arch in ARCHS, f"arch must be one of {ARCHS}")
        need(self.topology_kind in TOPOLOGIES, f"topology_kind must be one of {TOPOLOGIES}")
        need(self.grad_mode in GRAD_MODES, f"grad_mode must be one of {GRAD_MODES}")
        need(self.optimizer in OPTIMIZERS, f"optimizer must be one of {OPTIMIZERS}")
        need(self.mean_placement in PLACEMENTS, f"mean_placement must be one of {PLACEMENTS}")
        check_assignment(
            self.K, self.M, self.N, self.samples_per_client, self.test_samples_per_client, self.task_groups()
        )
        check_universe(self.M, self.feature_dim, self.noise_sigma, self.mean_placement)
        self.arch_spec()
        check_topology(self.topology_kind, self.K, self.topology_k0, self.topology_degree)
        need(self.rounds >= 1, "rounds must be >= 1")
        need(self.local_steps >= 1, "local_steps must be >= 1")
        need(self.eta1 > 0 and self.eta2 > 0, "learning rates must be positive")
        need(self.weight_decay >= 0, "weight_decay must be nonnegative")
        need(self.tau_sigmoid > 0 and self.tau_softmax > 0, "temperatures must be positive")
        need(self.num_memberships >= 1, "num_memberships must be >= 1")
        need(0.0 < self.block_init < 1.0, "block_init must lie in (0, 1)")
        need(self.enc_hidden >= 1 and self.enc_out >= 1, "encoder dims must be >= 1")
        need(0.0 < self.sparsify_keep_fraction <= 1.0, "sparsify_keep_fraction in (0,1]")
        need(self.sparsify_round >= 0, "sparsify_round must be >= 0")
        pruning = self.sparsify_keep_fraction < 1.0
        # round 0 would rank the initial uniform w, and uniform Metropolis
        # weights every round: either prunes by client index, not strength
        need(not pruning or self.sparsify_round >= 1, "pruning needs sparsify_round >= 1")
        need(not pruning or self.prior_kind != "dirac", "dirac has no learned weights to prune by")
        need(self.snapshot_every >= 0, "snapshot_every must be >= 0")
        return self

    def arch_spec(self) -> ArchSpec:
        """The clients' architecture; building it checks it."""
        h = self.hidden_units if self.arch == MLP_1HIDDEN else 0
        return ArchSpec(self.arch, d=self.feature_dim, C=self.N, h=h)

    def task_groups(self) -> int | None:
        """The class groups the tasks are assigned by: num_groups under
        noniid-sbm, None (a random class set per client) under
        noniid-random."""
        return self.num_groups if self.task_setting == NONIID_SBM else None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"a config is a JSON object of settings, not {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: invalid JSON ({err})") from err
    try:
        return ExperimentConfig.from_dict(data).validate()
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
