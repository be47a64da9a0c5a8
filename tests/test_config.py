"""One rule book: validate() accepts a config only if a run can start it,
and every run it accepts ends in a documented outcome."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from scool.cli import main
from scool.config import (
    ARCHS, GRAD_MODES, OPTIMIZERS, PLACEMENTS, PRIORS, SETTINGS, TOPOLOGIES, ExperimentConfig, save_config,
)
from scool.em import rounds
from scool.errors import ConfigurationError
from scool.runner import run_experiment


class _Started(Exception):
    """Raised in place of the first round: the run's set-up went through."""


def start(config: ExperimentConfig) -> None:
    """run_experiment's set-up on the config as it stands, without its
    validate() call, stopped at the first round: build_tasks, build_models,
    build_topology and build_state exactly as a run calls them."""
    def first_round(*args, **kwargs):
        raise _Started

    with mock.patch.object(ExperimentConfig, "validate", lambda self: self), \
            mock.patch.object(rounds, "run_round", first_round):
        try:
            run_experiment(config)
        except _Started:
            pass


@hst.composite
def small_configs(draw) -> ExperimentConfig:
    """Small configs at the edges of the set-up rules. Each size is drawn as
    an offset from the least value its rules allow; offset 0 comes about
    three times in four, so that enough draws pass validate(), and the
    offsets reach 0 and one past every bound."""
    def near(least: int, below: int, above: int) -> int:
        offsets = (0,) * 3 * (below + above) + tuple(range(-below, above + 1))
        return max(0, least + draw(hst.sampled_from(offsets)))

    N, num_groups = near(2, 2, 1), near(1, 1, 2)
    M = near(max(2, N * num_groups), 2, 2)
    K = near(num_groups * near(2, 2, 2), 1, 1)
    placement = draw(hst.sampled_from(PLACEMENTS))
    return ExperimentConfig(
        prior_kind=draw(hst.sampled_from(PRIORS)),
        rounds=1,
        task_setting=draw(hst.sampled_from(SETTINGS)),
        K=K,
        M=M,
        N=N,
        num_groups=num_groups,
        samples_per_client=near(N, 1, 1),
        test_samples_per_client=near(1, 1, 1),
        feature_dim=near(M if placement == PLACEMENTS[0] else M // 2 + 2, 1, 1),
        mean_placement=placement,
        arch=draw(hst.sampled_from(ARCHS)),
        hidden_units=near(1, 1, 1),
        topology_kind=draw(hst.sampled_from(TOPOLOGIES)),
        topology_k0=draw(hst.integers(-1, K)),
        topology_degree=near(1, 1, K // 2),
        snapshot_every=0,
    )


RING = ExperimentConfig(rounds=1, K=12, topology_kind="group-ring", test_samples_per_client=4)

# the Python types each declared field type admits: a bool is no number,
# and an int is also a float
ADMITS = {"int": {int}, "float": {int, float}, "bool": {bool}, "str": {str}}


def well_typed(config: ExperimentConfig) -> bool:
    """Every field of its declared type, every float field finite, and a
    seed numpy can take. The builders and the rounds rely on all three
    without checking them."""
    if not all(type(getattr(config, f.name)) in ADMITS[f.type] for f in fields(config)):
        return False
    finite = all(math.isfinite(getattr(config, f.name)) for f in fields(config) if f.type == "float")
    return finite and config.seed >= 0


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_configs())
@example(RING.replace(topology_k0=0))  # the whole ring
@example(RING.replace(topology_k0=11))  # reach 1/2: no client has a neighbour
@example(RING.replace(topology_k0=10))  # reach 1: two neighbours each
@example(RING.replace(N=1, num_groups=1))  # one class per client
@example(RING.replace(seed=-1))  # numpy refuses a negative seed
@example(RING.replace(seed=1.5))
@example(RING.replace(rounds=1.5))  # range() refuses a float
@example(RING.replace(K="6"))
@example(RING.replace(shared_init="no"))  # truthy: would run as shared
@example(RING.replace(eta2=math.inf))  # digamma refuses the alpha it makes
@example(RING.replace(tau_sigmoid=math.inf))  # sigmoid_tempered refuses it
@example(RING.replace(prior_kind="attention", tau_softmax=math.inf))
@example(RING.replace(optimizer_weight_decay=math.inf))  # would run to the end on NaN
@example(RING.replace(weight_decay=math.inf))  # would diverge in round 0
@example(RING.replace(noise_sigma=-math.inf))
@example(RING.replace(eta1=math.nan))
def test_validate_accepts_only_what_run_can_start(config):
    # whatever validate() says, the set-up may fail only with a
    # ConfigurationError, and only on a config that validate() refuses;
    # a wrongly typed field, a non-finite float or a negative seed, which
    # the builders take on trust, is refused outright
    try:
        config.validate()
    except ConfigurationError:
        accepted = False
    else:
        accepted = True
    if not well_typed(config):
        assert not accepted, "validate() accepted a wrongly typed field, a non-finite float or a negative seed"
        return
    try:
        start(config)
    except ConfigurationError as err:
        assert not accepted, f"validate() accepted a config whose set-up fails: {err}"


# values of the wrong type for each declared field type
WRONG = {
    "int": [True, 1.5, 2.0, "6", None],
    "float": [False, "0.1", None],
    "bool": ["no", 1, 0, None],
    "str": [3, True, None],
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hst.sampled_from(fields(ExperimentConfig)), hst.data())
def test_validate_refuses_every_wrongly_typed_field(field, data):
    value = data.draw(hst.sampled_from(WRONG[field.type]))
    with pytest.raises(ConfigurationError, match=f"^{field.name} must be of type {field.type}, not "):
        RING.replace(**{field.name: value}).validate()


def test_float_fields_take_ints_as_they_are():
    config = RING.replace(eta1=1, noise_sigma=2).validate()
    assert type(config.eta1) is int and type(config.noise_sigma) is int


# The float fields a run's numbers grow from, each drawn either at its
# default or anywhere from 1e-300 to 1e300 (block_init below 1, as it must)
EXTREME_FIELDS = ("eta1", "eta2", "weight_decay", "init_scale", "tau_sigmoid", "tau_softmax",
                  "block_init", "noise_sigma", "class_separation")


@hst.composite
def extreme_configs(draw) -> ExperimentConfig:
    """Small runs of every prior, architecture, gradient mode and optimizer,
    with or without pruning, whose float settings reach 1e-300 and 1e300:
    positive and finite, so most draws pass validate()."""
    prior = draw(hst.sampled_from(PRIORS))
    floats = {}
    for name in EXTREME_FIELDS:
        exponent = draw(hst.one_of(hst.none(), hst.integers(-300, -1 if name == "block_init" else 300)))
        if exponent is not None:
            floats[name] = draw(hst.floats(1.0, 9.99)) * 10.0**exponent
    prune = draw(hst.booleans()) and prior != "dirac"
    return ExperimentConfig(
        prior_kind=prior, seed=draw(hst.integers(0, 2**16)), rounds=draw(hst.integers(1, 3)),
        local_steps=draw(hst.integers(1, 2)), K=draw(hst.sampled_from([4, 6])), M=4, N=2, num_groups=2,
        samples_per_client=4, test_samples_per_client=4, feature_dim=4, arch=draw(hst.sampled_from(ARCHS)),
        hidden_units=3, grad_mode=draw(hst.sampled_from(GRAD_MODES)),
        optimizer=draw(hst.sampled_from(OPTIMIZERS)), num_memberships=2, enc_hidden=3, enc_out=2,
        sparsify_keep_fraction=0.5 if prune else 1.0, sparsify_round=1, snapshot_every=1, **floats,
    )


def _refuse_constant(name):
    # NaN and Infinity are no strict JSON, and strict parsers refuse them
    raise ValueError(f"report.json holds {name}")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(extreme_configs())
def test_every_accepted_config_ends_in_a_documented_outcome(config):
    # a config that validate() accepts runs through `scool run` to exit 0
    # with every round reported, or to exit 3 or 4 (a divergence or a broken
    # invariant) after a report flagged diverged with the completed rounds;
    # stderr then holds only the diagnosis, and no numpy warning (pytest
    # turns one into an error, which would escape main as a traceback)
    try:
        config.validate()
    except ConfigurationError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        save_config(config, path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    assert code in (0, 3, 4), stderr.getvalue()
    err = stderr.getvalue()
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == "" and not report["diverged"] and len(report["rounds"]) == config.rounds
    else:
        prefix = "diverged: " if code == 3 else "invariant broken: "
        assert err == f"{prefix}{report['divergence_message']}\n"
        assert report["diverged"] and len(report["rounds"]) < config.rounds
    for row in report["rounds"]:
        for column in ("mean_test_acc", "std_test_acc", "mean_train_loss"):
            assert math.isfinite(row[column]), (column, row)
