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

from dataclasses import dataclass

from mtdgame.env import ADVERSARY, DEFENDER, EnvConfig, check_range
from mtdgame.nash import EmpiricalGame, EquilibriumResult, build_game, extend_game, solve_msne
from mtdgame.policies import MixedStrategy, PurePolicy
from mtdgame.qlearn import TrainConfig, train_best_response
from mtdgame.seeds import derive_seed


@dataclass(frozen=True)
class DoConfig:
    eps_do: float = 1.0          # payoff-units slack for "no improvement"
    max_iterations: int = 10     # oracle-call pairs; 0 solves the initial game only
    eval_episodes: int = 50      # Monte-Carlo episodes per payoff cell

    def __post_init__(self):
        check_range(self, "[0, inf)", "eps_do", "max_iterations")
        check_range(self, "[1, inf)", "eval_episodes")


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
        policy, _ = train_best_response(player, opponents, mix, env_cfg, tc, seed, label=label)
        return policy

    return oracle


def run_double_oracle(env_cfg: EnvConfig, initial_adv: list[PurePolicy],
                      initial_def: list[PurePolicy], do_cfg: DoConfig, seed: int,
                      oracle, jobs: int = 1) -> tuple[DoState, EquilibriumResult]:
    """Run the loop and return the final state and equilibrium.  `oracle`, e.g.
    `dqn_oracle`, maps (player, opponents, mix, seed, label) to a new policy."""
    game = build_game(initial_adv, initial_def, env_cfg, do_cfg.eval_episodes,
                      derive_seed(seed, "game"), jobs=jobs)
    eq = solve_msne(game)
    history = [DoRecord(0, eq.value_adv, eq.value_def, "", float("nan"), False, False)]
    conv = {ADVERSARY: False, DEFENDER: False}
    for it in range(1, do_cfg.max_iterations + 1):
        for player in (DEFENDER, ADVERSARY):
            # the player responds to the opponent's current equilibrium mixture
            opponents, opp_sigma = ((game.row_policies, eq.sigma_adv) if player == DEFENDER
                                    else (game.col_policies, eq.sigma_def))
            policy = oracle(player, list(opponents), MixedStrategy(opp_sigma),
                            derive_seed(seed, "oracle", it, player),
                            f"{player[:3]}_br_{it:02d}")
            game = extend_game(game, policy, env_cfg, derive_seed(seed, "game"), jobs=jobs)
            if player == DEFENDER:
                br, value = float(eq.sigma_adv @ game.u_def[:, -1]), eq.value_def
            else:
                br, value = float(game.u_adv[-1] @ eq.sigma_def), eq.value_adv
            conv[player] = converged(br, value, do_cfg.eps_do)
            eq = solve_msne(game)
            history.append(DoRecord(len(history), eq.value_adv, eq.value_def, player,
                                    br, conv[ADVERSARY], conv[DEFENDER]))
        if all(conv.values()):
            break
    return DoState(game, history, len(history) - 1, all(conv.values())), eq
