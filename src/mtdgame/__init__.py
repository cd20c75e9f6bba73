"""Simulator and solver suite for an adaptive moving target defense game.

A defender owns a pool of servers and can reimage them; an adversary probes
servers to take them over.  Both act simultaneously under partial observation.
The package provides the game environment, fixed heuristic strategies, a
deep Q-learning best-response trainer, an empirical-game Nash solver, and a
double oracle loop that approximates equilibrium play, plus a command line
harness tying them together.
"""

from mtdgame.env import (
    ADVERSARY,
    DEFENDER,
    ConfigError,
    EnvConfig,
    MtdBatchEnv,
    MtdEnv,
    compromise_probability,
    logistic,
    utility,
)
from mtdgame.policies import (
    MixedStrategy,
    PairPayoff,
    PurePolicy,
    default_adversaries,
    default_defenders,
    evaluate_cells,
    evaluate_pair,
    expected_defender_control,
)
from mtdgame.qlearn import (
    QNetwork,
    QNetworkPolicy,
    ReplayBuffer,
    TrainConfig,
    train_best_response,
)
from mtdgame.nash import (
    EmpiricalGame,
    EquilibriumError,
    EquilibriumResult,
    build_game,
    extend_game,
    mixed_utility,
    regret,
    solve_msne,
)
from mtdgame.double_oracle import DoConfig, DoRecord, DoState, run_double_oracle

__version__ = "0.1.0"
