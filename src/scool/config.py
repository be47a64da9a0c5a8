"""Experiment configuration: a flat JSON document with full validation.

Every knob of a run lives here so that a config plus its seed pins the
whole experiment; the loader rejects unknown keys to catch typos early and
round-trips losslessly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .models import MLP_1HIDDEN, SOFTMAX_REGRESSION
from .tasks import ANTIPODAL_PAIRS, DEFAULT_SEPARATION, ORTHONORMAL
from .topology import (
    CROSS_GRADIENT,
    FULLY_CONNECTED,
    GENERALIZED_BIPARTITE,
    GROUP_RING,
    TAYLOR_APPROX,
)

NONIID_SBM = "noniid-sbm"
NONIID_RANDOM = "noniid-random"

PRIORS = ("local-only", "dirac", "sbm", "attention", "mmsbm")
SETTINGS = (NONIID_SBM, NONIID_RANDOM)
ARCHS = (SOFTMAX_REGRESSION, MLP_1HIDDEN)
# custom-mask is left out: no config field can carry the mask it needs
TOPOLOGIES = (FULLY_CONNECTED, GROUP_RING, GENERALIZED_BIPARTITE)
GRAD_MODES = (CROSS_GRADIENT, TAYLOR_APPROX)
OPTIMIZERS = ("plain", "adam")


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
    attention_coupling: bool = True
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
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigurationError(msg)

        need(self.prior_kind in PRIORS, f"prior_kind must be one of {PRIORS}")
        need(self.task_setting in SETTINGS, f"task_setting must be one of {SETTINGS}")
        need(self.arch in ARCHS, f"arch must be one of {ARCHS}")
        need(self.topology_kind in TOPOLOGIES, f"topology_kind must be one of {TOPOLOGIES}")
        need(self.grad_mode in GRAD_MODES, f"grad_mode must be one of {GRAD_MODES}")
        need(self.optimizer in OPTIMIZERS, f"optimizer must be one of {OPTIMIZERS}")
        need(self.rounds >= 1, "rounds must be >= 1")
        need(self.local_steps >= 1, "local_steps must be >= 1")
        need(self.K >= 2, "K must be >= 2")
        need(self.M >= 2, "M must be >= 2")
        need(1 <= self.N <= self.M, "need 1 <= N <= M")
        need(self.samples_per_client >= self.N, "need at least one sample per class")
        need(self.test_samples_per_client >= 1, "test_samples_per_client must be >= 1")
        need(
            self.mean_placement in (ORTHONORMAL, ANTIPODAL_PAIRS),
            f"mean_placement must be one of ({ORTHONORMAL}, {ANTIPODAL_PAIRS})",
        )
        if self.mean_placement == ORTHONORMAL:
            need(self.feature_dim >= self.M, "feature_dim must be >= M (orthogonal class means)")
        else:
            need(self.M % 2 == 0, "antipodal-pairs placement needs an even M")
            need(
                self.feature_dim >= self.M // 2 + 2,
                "antipodal-pairs placement needs feature_dim >= M/2 + 2",
            )
        need(self.noise_sigma >= 0, "noise_sigma must be nonnegative")
        need(self.eta1 > 0 and self.eta2 > 0, "learning rates must be positive")
        need(self.weight_decay >= 0, "weight_decay must be nonnegative")
        need(self.tau_sigmoid > 0 and self.tau_softmax > 0, "temperatures must be positive")
        need(self.num_memberships >= 1, "num_memberships must be >= 1")
        need(0.0 < self.block_init < 1.0, "block_init must lie in (0, 1)")
        need(self.hidden_units >= 1, "hidden_units must be >= 1")
        need(self.enc_hidden >= 1 and self.enc_out >= 1, "encoder dims must be >= 1")
        need(0.0 < self.sparsify_keep_fraction <= 1.0, "sparsify_keep_fraction in (0,1]")
        need(self.sparsify_round >= 0, "sparsify_round must be >= 0")
        need(self.snapshot_every >= 0, "snapshot_every must be >= 0")
        if self.task_setting == NONIID_SBM:
            need(self.num_groups >= 1, "num_groups must be >= 1")
            need(self.num_groups * self.N <= self.M, "num_groups * N must be <= M")
            need(self.K % self.num_groups == 0, "K must be divisible by num_groups")
        if self.topology_kind == GROUP_RING:
            need(0 <= self.topology_k0 < self.K, "group-ring needs 0 <= K0 < K")
        if self.topology_kind == GENERALIZED_BIPARTITE:
            need(1 <= self.topology_degree <= self.K // 2, "bipartite degree in [1, K/2]")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
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
    except FileNotFoundError as err:
        raise ConfigurationError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: invalid JSON ({err})") from err
    try:
        return ExperimentConfig.from_dict(data).validate()
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
