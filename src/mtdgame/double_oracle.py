"""Double oracle loop: grow both policy sets with trained best responses
until neither player's new policy beats the current equilibrium.

Each iteration solves the restricted game, trains a defender best response
against the adversary's equilibrium mixture, re-solves, then trains an
adversary best response against the updated defender mixture.  New policies
join their set unconditionally; convergence is declared when both trained
responses in the same iteration fail to improve on the equilibrium value by
more than eps_do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from mtdgame.env import ADVERSARY, DEFENDER, ConfigError, EnvConfig, check_integers
from mtdgame.nash import EmpiricalGame, EquilibriumResult, build_game, extend_game, solve_msne
from mtdgame.policies import MixedStrategy, PurePolicy
from mtdgame.qlearn import TrainConfig, train_best_response
from mtdgame.seeds import derive_seed


@dataclass(frozen=True)
class DoConfig:
    eps_do: float = 1.0          # payoff-units slack for "no improvement"
    max_iterations: int = 10     # oracle-call pairs; 0 solves the initial game only
    eval_episodes: int = 50      # Monte-Carlo episodes per payoff cell
    seed: int = 0

    def __post_init__(self):
        # every comparison is written so that NaN fails it
        if not 0.0 <= self.eps_do < math.inf:
            raise ConfigError(f"eps_do must be finite and >= 0, got {self.eps_do!r}")
        check_integers(self, 0, "max_iterations")
        check_integers(self, 1, "eval_episodes")


@dataclass(frozen=True)
class DoRecord:
    """History row written after the initial solve and after every oracle call."""

    call: int
    value_adv: float
    value_def: float
    trained: str           # "", "adversary" or "defender"
    br_payoff: float       # nan on the initial row
    converged_adv: bool
    converged_def: bool


@dataclass
class DoState:
    adv_policies: list[PurePolicy]
    def_policies: list[PurePolicy]
    game: EmpiricalGame
    history: list[DoRecord]
    oracle_calls: int
    converged: bool


def converged(br_payoff: float, eq_value: float, eps_do: float) -> bool:
    """True when the trained response fails to improve by more than eps_do."""
    return br_payoff <= eq_value + eps_do


def dqn_oracle(env_cfg: EnvConfig, tc: TrainConfig):
    """Best-response oracle that trains a Q-network with tc on each call."""

    def oracle(player: str, opponents: list[PurePolicy], mix: MixedStrategy,
               seed: int, label: str) -> PurePolicy:
        policy, _ = train_best_response(
            player, opponents, mix, env_cfg, replace(tc, seed=seed), label=label)
        return policy

    return oracle


def run_double_oracle(env_cfg: EnvConfig, initial_adv: list[PurePolicy],
                      initial_def: list[PurePolicy], do_cfg: DoConfig,
                      oracle, jobs: int = 1) -> tuple[DoState, EquilibriumResult]:
    """Run the loop and return the final state and equilibrium.  `oracle`, e.g.
    `dqn_oracle`, maps (player, opponents, mix, seed, label) to a new policy."""
    adv = list(initial_adv)
    deff = list(initial_def)
    game = build_game(adv, deff, env_cfg, do_cfg.eval_episodes,
                      derive_seed(do_cfg.seed, "game"), jobs=jobs)
    eq = solve_msne(game)
    history = [DoRecord(0, eq.value_adv, eq.value_def, "", float("nan"), False, False)]
    for it in range(1, do_cfg.max_iterations + 1):
        # a defender row carries the adversary flag of the row before it
        conv = {ADVERSARY: history[-1].converged_adv}
        for player, own, opponents in ((DEFENDER, deff, adv), (ADVERSARY, adv, deff)):
            # the player responds to the opponent's current equilibrium mixture
            opp_sigma = eq.sigma_adv if player == DEFENDER else eq.sigma_def
            policy = oracle(player, opponents, MixedStrategy(opp_sigma),
                            derive_seed(do_cfg.seed, "oracle", it, player),
                            f"{player[:3]}_br_{it:02d}")
            game = extend_game(game, policy, env_cfg, derive_seed(do_cfg.seed, "game"),
                               jobs=jobs)
            own.append(policy)
            if player == DEFENDER:
                br, value = float(eq.sigma_adv @ game.u_def[:, -1]), eq.value_def
            else:
                br, value = float(game.u_adv[-1] @ eq.sigma_def), eq.value_adv
            conv[player] = converged(br, value, do_cfg.eps_do)
            eq = solve_msne(game)
            history.append(DoRecord(len(history), eq.value_adv, eq.value_def, player,
                                    br, conv[ADVERSARY], conv[DEFENDER]))
        if conv[ADVERSARY] and conv[DEFENDER]:
            break
    last = history[-1]
    return DoState(adv, deff, game, history, len(history) - 1,
                   last.converged_adv and last.converged_def), eq
