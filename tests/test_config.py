"""One rule book: validate() accepts a config only if a run can start it."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as hst

from scool.config import ARCHS, PLACEMENTS, PRIORS, SETTINGS, TOPOLOGIES, ExperimentConfig
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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_configs())
@example(RING.replace(topology_k0=0))  # the whole ring
@example(RING.replace(topology_k0=11))  # reach 1/2: no client has a neighbour
@example(RING.replace(topology_k0=10))  # reach 1: two neighbours each
@example(RING.replace(N=1, num_groups=1))  # one class per client
def test_validate_accepts_only_what_run_can_start(config):
    # whatever validate() says, the set-up may fail only with a
    # ConfigurationError, and only on a config that validate() refuses
    try:
        config.validate()
    except ConfigurationError:
        accepted = False
    else:
        accepted = True
    try:
        start(config)
    except ConfigurationError as err:
        assert not accepted, f"validate() accepted a config whose set-up fails: {err}"
