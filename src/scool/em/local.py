"""No-cooperation baseline: every client trains on its own data alone.

The Dirac prior at the fixed graph W = I, which its state holds: no loglik
matrix, E-step, lower bound or pruning, and nothing goes on the wire. The
local epochs are run_round's cooperative call on the identity: local SGD.
"""

from __future__ import annotations

import numpy as np

from .state import DiracState, read_only_w as graph  # graph: the reporting hook dirac and attention share

e_step = bound_terms = local_steps = coupling = update_prior = None


def init_state(config, mask) -> DiracState:
    return DiracState(np.eye(config.K))
