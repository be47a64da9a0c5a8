"""scool: desk-scale structured cooperative learning.

K simulated clients alternately train personalized models and infer a
cooperation graph by variational EM under pluggable graphical-model priors
(fixed/Dirac, stochastic block model, attention, mixed-membership SBM).
"""

from .config import ExperimentConfig, load_config, save_config
from .errors import ConfigurationError, DivergenceError, InvariantError, ScoolError
from .models import ArchSpec, ClientStore, Dataset, DataStack
from .runner import ExperimentReport, metric_l1, run_budget_sweep, run_experiment
from .special import digamma, log_gamma, sigmoid_tempered, softmax_tempered
from .tasks import TaskAssignment, TaskUniverse, gen_tasks
from .topology import CommLedger, account_exchange, build_topology, sparsify_topk

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "ClientStore",
    "CommLedger",
    "ConfigurationError",
    "DataStack",
    "Dataset",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentReport",
    "InvariantError",
    "ScoolError",
    "TaskAssignment",
    "TaskUniverse",
    "account_exchange",
    "build_topology",
    "digamma",
    "gen_tasks",
    "load_config",
    "log_gamma",
    "metric_l1",
    "run_budget_sweep",
    "run_experiment",
    "save_config",
    "sigmoid_tempered",
    "softmax_tempered",
    "sparsify_topk",
]
