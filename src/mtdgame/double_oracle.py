"""Double oracle loop: grow both policy sets with trained best responses
until neither player's new policy beats the current equilibrium.

Each iteration solves the restricted game, trains a defender best response
against the adversary's equilibrium mixture, re-solves, then trains an
adversary best response against the updated defender mixture.  New policies
join their set unconditionally; convergence is declared when both trained
responses in the same iteration fail to improve on the equilibrium value by
more than eps_do.  `replay_history` rebuilds a run's history from its game.
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


def _record_call(game, eq, history, player, eps_do):
    """Append the record of a `player` oracle call whose policy is `game`'s last
    column (defender) or row (adversary), answering `eq`; return the re-solved
    equilibrium.  The other player's flag carries over from the last record."""
    if player == DEFENDER:
        br, value = float(eq.sigma_adv @ game.u[1][:, -1]), eq.value_def
    else:
        br, value = float(game.u[0][-1] @ eq.sigma_def), eq.value_adv
    flags = {ADVERSARY: history[-1].converged_adv, DEFENDER: history[-1].converged_def}
    flags[player] = converged(br, value, eps_do)
    eq = solve_msne(game)
    history.append(DoRecord(len(history), eq.value_adv, eq.value_def, player, br,
                            flags[ADVERSARY], flags[DEFENDER]))
    return eq


def replay_history(game: EmpiricalGame, n_adv: int, n_def: int,
                   eps_do: float) -> tuple[list[DoRecord], EquilibriumResult]:
    """The history and final equilibrium of the loop run that ended in `game`
    and started from its first n_adv rows and n_def columns.  ValueError if
    no run alternating defender and adversary calls grows one into the other."""
    rows, cols = game.u.shape[1:]
    if not (1 <= n_adv <= rows and 1 <= n_def <= cols
            and (cols - n_def) - (rows - n_adv) in (0, 1)):
        raise ValueError(f"no run grows a {n_adv}x{n_def} start into a {rows}x{cols} game")

    def block(r, c):
        return EmpiricalGame(game.row_labels[:r], game.col_labels[:c],
                             game.u[:, :r, :c].copy(), game.se[:, :r, :c].copy(), game.episodes)

    eq = solve_msne(block(n_adv, n_def))
    history = [DoRecord(0, eq.value_adv, eq.value_def, "", float("nan"), False, False)]
    for k in range(rows + cols - n_adv - n_def):  # even k: a defender call adds a column
        eq = _record_call(block(n_adv + (k + 1) // 2, n_def + k // 2 + 1), eq, history,
                          (DEFENDER, ADVERSARY)[k % 2], eps_do)
    return history, eq


def run_double_oracle(env_cfg: EnvConfig, initial_adv: list[PurePolicy],
                      initial_def: list[PurePolicy], do_cfg: DoConfig, seed: int, oracle,
                      jobs: int = 1) -> tuple[EmpiricalGame, list[DoRecord], EquilibriumResult]:
    """Run the loop and return the final game, history and equilibrium; the run
    converged if the last record has both flags.  `oracle`, e.g. `dqn_oracle`,
    maps (player, opponents, mix, seed, label) to a new policy."""
    game = build_game(initial_adv, initial_def, env_cfg, do_cfg.eval_episodes,
                      derive_seed(seed, "game"), jobs=jobs)
    history, eq = replay_history(game, len(initial_adv), len(initial_def), do_cfg.eps_do)
    for it in range(1, do_cfg.max_iterations + 1):
        for player in (DEFENDER, ADVERSARY):
            # the player responds to the opponent's current equilibrium mixture
            opponents, opp_sigma = ((game.row_policies, eq.sigma_adv) if player == DEFENDER
                                    else (game.col_policies, eq.sigma_def))
            policy = oracle(player, list(opponents), MixedStrategy(opp_sigma),
                            derive_seed(seed, "oracle", it, player),
                            f"{player[:3]}_br_{it:02d}")
            game = extend_game(game, policy, env_cfg, derive_seed(seed, "game"), jobs=jobs)
            eq = _record_call(game, eq, history, player, do_cfg.eps_do)
        if history[-1].converged_adv and history[-1].converged_def:
            break
    return game, history, eq
