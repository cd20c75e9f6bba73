from __future__ import annotations

import math

import numpy as np
import pytest

from mtdgame import double_oracle
from mtdgame.env import ADVERSARY, DEFENDER, ConfigError
from mtdgame.nash import EmpiricalGame, solve_msne
from mtdgame.policies import (
    MixedStrategy,
    NoOpPolicy,
    UniformAdversary,
    default_adversaries,
    default_defenders,
    heuristic,
)
from mtdgame.qlearn import QNetworkPolicy, TrainConfig
from mtdgame.double_oracle import (
    DoConfig,
    DoRecord,
    converged,
    dqn_oracle,
    replay_history,
    run_double_oracle,
)


def noop_oracle(player, opponents, mix, seed, label):
    """Weakest possible oracle: always answers with an idle policy."""
    return NoOpPolicy(player, label=label)


def uniform_adv_oracle(player, opponents, mix, seed, label):
    if player == ADVERSARY:
        return UniformAdversary(label=label)
    return NoOpPolicy(DEFENDER, label=label)


def stopped(history):
    """A run converged when its last record has both flags."""
    return history[-1].converged_adv and history[-1].converged_def


def tiny_do(**kw):
    base = dict(eps_do=1.0, max_iterations=3, eval_episodes=2)
    base.update(kw)
    return DoConfig(**base)


# -------------------------------------------------------------- convergence


def test_converged_threshold():
    assert converged(50.0, 50.0, 1.0)
    assert not converged(52.0, 50.0, 1.0)
    assert converged(50.9, 50.0, 1.0)
    assert converged(40.0, 50.0, 1.0)  # a worse response never blocks


def test_do_config_validation(short):
    with pytest.raises(ConfigError):
        tiny_do(eps_do=math.inf)
    with pytest.raises(ConfigError):
        tiny_do(eps_do=-0.5)
    with pytest.raises(ConfigError):
        tiny_do(max_iterations=-1)
    with pytest.raises(ConfigError):
        tiny_do(eval_episodes=0)
    with pytest.raises(ConfigError):
        tiny_do(eval_episodes=1.5)
    with pytest.raises(ConfigError):
        tiny_do(max_iterations=0.5)
    with pytest.raises(ConfigError):
        dqn_oracle(short, TrainConfig(batch_size=0))
    tiny_do()


# --------------------------------------------------------------------- loop


def test_zero_iterations_solves_initial_game_only(short):
    game, history, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                          [NoOpPolicy(DEFENDER)],
                                          tiny_do(max_iterations=0), 0, oracle=noop_oracle)
    assert not stopped(history)
    assert len(history) == 1
    first = history[0]
    assert first.call == 0 and first.trained == ""
    assert math.isnan(first.br_payoff)
    assert game.u[0].shape == (1, 1)
    assert eq.value_adv == pytest.approx(game.u[0][0, 0])


def test_mutual_best_response_terminates_immediately(short):
    game, history, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                          [NoOpPolicy(DEFENDER)], tiny_do(), 0,
                                          oracle=noop_oracle)
    assert stopped(history)
    assert len(history) == 3
    values = {(r.value_adv, r.value_def) for r in history}
    assert len(values) == 1  # an idle best response never moves the equilibrium
    assert history[1].trained == DEFENDER
    assert history[2].trained == ADVERSARY
    assert history[2].converged_adv and history[2].converged_def


def test_improving_response_extends_the_game(short):
    game, history, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                          [NoOpPolicy(DEFENDER)], tiny_do(), 0,
                                          oracle=uniform_adv_oracle)
    # the probing response enters and lifts the adversary's value well above
    # the idle-pair equilibrium; two-episode payoff noise may legitimately
    # keep fresh copies "improving", so convergence itself is not asserted
    assert len(game.row_policies) >= 2
    assert len(history) - 1 <= 6
    idle_value = 0.268941 * (1 - 0.99 ** 50) / 0.01
    assert eq.value_adv > idle_value + 2.0
    max_se = game.se.max()
    slack = 1.0 + 2.0 * max_se
    for prev, cur in zip(history, history[1:]):
        if cur.trained == ADVERSARY:
            assert cur.value_adv >= prev.value_adv - slack
        if cur.trained == DEFENDER:
            assert cur.value_def >= prev.value_def - slack
            assert cur.value_adv <= prev.value_adv + slack


def test_oracle_receives_current_mixture(short):
    seen = []

    def spy_oracle(player, opponents, mix, seed, label):
        seen.append((player, len(opponents), mix.weights.copy(), label))
        return NoOpPolicy(player, label=label)

    run_double_oracle(short, [NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)],
                      tiny_do(), 0, oracle=spy_oracle)
    assert seen[0][0] == DEFENDER
    assert seen[1][0] == ADVERSARY
    assert seen[0][3] == "def_br_01"
    assert seen[1][3] == "adv_br_01"
    # the defender trains against the single-policy adversary mixture
    np.testing.assert_allclose(seen[0][2], [1.0])
    # the adversary sees one more defender policy than the initial set held
    assert seen[1][1] == 2


def test_history_rows_round_numbered(short):
    _, history, _ = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                      [NoOpPolicy(DEFENDER)], tiny_do(), 0,
                                      oracle=uniform_adv_oracle)
    assert [r.call for r in history] == list(range(len(history)))
    assert all(isinstance(r, DoRecord) for r in history)


def test_loop_is_deterministic(short):
    def run():
        _, history, _ = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                          [NoOpPolicy(DEFENDER)], tiny_do(), 0,
                                          oracle=uniform_adv_oracle)
        return [(r.call, r.value_adv, r.value_def, r.trained) for r in history]

    assert run() == run()


def test_history_rows_pin_every_field(short):
    """Two iterations with scripted responses: every field of every row is
    rederived from the final game's leading blocks, and a defender row carries
    the adversary flag of the row before it."""
    script = {"def_br_01": "pcp", "adv_br_01": "noop",
              "def_br_02": "uniform", "adv_br_02": "maxprobe"}

    def scripted_oracle(player, opponents, mix, seed, label):
        policy = heuristic(player, script[label])
        policy.label = label
        return policy

    game, history, eq = run_double_oracle(short, [UniformAdversary()], [NoOpPolicy(DEFENDER)],
                                          tiny_do(), 0, oracle=scripted_oracle)

    def solve_block(rows, cols):
        block = EmpiricalGame(game.row_labels[:rows], game.col_labels[:cols],
                              *(getattr(game, name)[:, :rows, :cols].copy()
                                for name in ("u", "se")),
                              game.episodes)
        return solve_msne(block)

    # (restricted game size after the row, player trained) for each row
    steps = [((1, 1), ""), ((1, 2), DEFENDER), ((2, 2), ADVERSARY),
             ((2, 3), DEFENDER), ((3, 3), ADVERSARY)]
    flags = [(False, False), (False, False), (True, False), (True, True), (True, True)]
    assert stopped(history)
    assert len(history) == len(steps)
    for call, (row, ((r, c), trained), (conv_a, conv_d)) in enumerate(
            zip(history, steps, flags)):
        now = solve_block(r, c)
        assert (row.call, row.trained) == (call, trained)
        assert (row.value_adv, row.value_def) == pytest.approx(
            (now.value_adv, now.value_def), rel=1e-12)
        assert (row.converged_adv, row.converged_def) == (conv_a, conv_d)
        if trained == DEFENDER:
            before = solve_block(r, c - 1)
            br = float(before.sigma_adv @ game.u[1][:r, c - 1])
            assert conv_d == (br <= before.value_def + 1.0)
        elif trained == ADVERSARY:
            before = solve_block(r - 1, c)
            br = float(game.u[0][r - 1, :c] @ before.sigma_def)
            assert conv_a == (br <= before.value_adv + 1.0)
        else:
            br = float("nan")
        assert row.br_payoff == pytest.approx(br, rel=1e-12, nan_ok=True)
    assert (eq.value_adv, eq.value_def) == (history[-1].value_adv,
                                            history[-1].value_def)


def assert_same_run(replayed, history, eq):
    """A replayed history and equilibrium equal the loop's, bit for bit."""
    again, eq_again = replayed
    assert [repr(r) for r in again] == [repr(r) for r in history]  # repr: nan equals nan
    assert np.array_equal(eq_again.sigma_adv, eq.sigma_adv)
    assert np.array_equal(eq_again.sigma_def, eq.sigma_def)
    assert ((eq_again.value_adv, eq_again.value_def, eq_again.regret_adv, eq_again.regret_def)
            == (eq.value_adv, eq.value_def, eq.regret_adv, eq.regret_def))


RUNS = {  # (loop settings, oracle, records the run writes, whether it converges)
    "zero": (tiny_do(max_iterations=0), noop_oracle, 1, False),
    "capped": (tiny_do(eps_do=0.0, max_iterations=1), uniform_adv_oracle, 3, False),
    "converged": (tiny_do(eps_do=1e6), noop_oracle, 3, True),
}


@pytest.mark.parametrize("case", sorted(RUNS))
@pytest.mark.parametrize("start", ["heuristics", "noop"])
def test_replay_history_rebuilds_the_run(start, case, short, monkeypatch):
    """The loop's history is a function of its game: replay_history on the
    finished game gives the same records and equilibrium, and the loop
    solves once per record."""
    advs, defs = (([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)]) if start == "noop"
                  else (default_adversaries(), default_defenders(short)))
    do_cfg, oracle, records, stops = RUNS[case]
    solves = []
    monkeypatch.setattr(double_oracle, "solve_msne",
                        lambda game: solves.append(game.u.shape) or solve_msne(game))
    game, history, eq = run_double_oracle(short, advs, defs, do_cfg, 0, oracle)
    assert len(solves) == len(history) == records
    assert stopped(history) == stops
    assert_same_run(replay_history(game, len(advs), len(defs), do_cfg.eps_do), history, eq)


@pytest.mark.parametrize("n_adv,n_def", [(0, 1), (3, 1), (1, 0), (1, 4), (2, 1), (1, 3)],
                         ids=["no-rows", "too-many-rows", "no-columns", "too-many-columns",
                              "two-columns-ahead", "a-row-ahead"])
def test_replay_history_rejects_sizes_no_run_gives(n_adv, n_def):
    """A 2x3 game grows by alternating calls, defender first, from 2x3, 2x2,
    1x2 or 1x1 only."""
    game = EmpiricalGame(("a", "b"), ("c", "d", "e"), np.zeros((2, 2, 3)),
                         np.zeros((2, 2, 3)), 0)
    with pytest.raises(ValueError, match="no run grows"):
        replay_history(game, n_adv, n_def, 1.0)


def test_full_loop_with_learned_oracles(short):
    oracle = dqn_oracle(short, TrainConfig(episodes=1, batch_size=8, replay_capacity=32))
    game, history, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                          [NoOpPolicy(DEFENDER)], tiny_do(max_iterations=1), 0,
                                          oracle)
    assert len(history) - 1 == 2
    assert isinstance(game.col_policies[-1], QNetworkPolicy)
    assert isinstance(game.row_policies[-1], QNetworkPolicy)
    assert game.col_policies[-1].label == "def_br_01"
    assert game.u[0].shape == (2, 2)


def test_dqn_oracle_threads_seed_and_label(short):
    tc = TrainConfig(episodes=1, batch_size=8, replay_capacity=32)
    oracle = dqn_oracle(short, tc)
    pol = oracle(ADVERSARY, [NoOpPolicy(DEFENDER)],
                 MixedStrategy(np.array([1.0])), seed=7, label="probe")
    assert isinstance(pol, QNetworkPolicy)
    assert pol.label == "probe" and pol.player == ADVERSARY
