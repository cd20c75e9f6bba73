from __future__ import annotations

import math

import numpy as np
import pytest

from mtdgame.env import ADVERSARY, DEFENDER, ConfigError
from mtdgame.nash import EmpiricalGame, solve_msne
from mtdgame.policies import MixedStrategy, NoOpPolicy, UniformAdversary, heuristic
from mtdgame.qlearn import QNetworkPolicy, TrainConfig
from mtdgame.double_oracle import DoConfig, DoRecord, converged, dqn_oracle, run_double_oracle


def noop_oracle(player, opponents, mix, seed, label):
    """Weakest possible oracle: always answers with an idle policy."""
    return NoOpPolicy(player, label=label)


def uniform_adv_oracle(player, opponents, mix, seed, label):
    if player == ADVERSARY:
        return UniformAdversary(label=label)
    return NoOpPolicy(DEFENDER, label=label)


def tiny_do(**kw):
    base = dict(eps_do=1.0, max_iterations=3, eval_episodes=2, seed=0)
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
    state, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                  [NoOpPolicy(DEFENDER)],
                                  tiny_do(max_iterations=0), oracle=noop_oracle)
    assert state.oracle_calls == 0
    assert not state.converged
    assert len(state.history) == 1
    first = state.history[0]
    assert first.call == 0 and first.trained == ""
    assert math.isnan(first.br_payoff)
    assert state.game.u_adv.shape == (1, 1)
    assert eq.value_adv == pytest.approx(state.game.u_adv[0, 0])


def test_mutual_best_response_terminates_immediately(short):
    state, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                  [NoOpPolicy(DEFENDER)], tiny_do(),
                                  oracle=noop_oracle)
    assert state.converged
    assert state.oracle_calls == 2
    assert len(state.history) == 3
    values = {(r.value_adv, r.value_def) for r in state.history}
    assert len(values) == 1  # an idle best response never moves the equilibrium
    assert state.history[1].trained == DEFENDER
    assert state.history[2].trained == ADVERSARY
    assert state.history[2].converged_adv and state.history[2].converged_def


def test_improving_response_extends_the_game(short):
    state, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                  [NoOpPolicy(DEFENDER)], tiny_do(),
                                  oracle=uniform_adv_oracle)
    # the probing response enters and lifts the adversary's value well above
    # the idle-pair equilibrium; two-episode payoff noise may legitimately
    # keep fresh copies "improving", so convergence itself is not asserted
    assert len(state.adv_policies) >= 2
    assert state.oracle_calls == len(state.history) - 1 <= 6
    idle_value = 0.268941 * (1 - 0.99 ** 50) / 0.01
    assert eq.value_adv > idle_value + 2.0
    hist = state.history
    max_se = max(state.game.se_adv.max(), state.game.se_def.max())
    slack = 1.0 + 2.0 * max_se
    for prev, cur in zip(hist, hist[1:]):
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
                      tiny_do(), oracle=spy_oracle)
    assert seen[0][0] == DEFENDER
    assert seen[1][0] == ADVERSARY
    assert seen[0][3] == "def_br_01"
    assert seen[1][3] == "adv_br_01"
    # the defender trains against the single-policy adversary mixture
    np.testing.assert_allclose(seen[0][2], [1.0])
    # the adversary sees one more defender policy than the initial set held
    assert seen[1][1] == 2


def test_history_rows_round_numbered(short):
    state, _ = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                 [NoOpPolicy(DEFENDER)], tiny_do(),
                                 oracle=uniform_adv_oracle)
    assert [r.call for r in state.history] == list(range(len(state.history)))
    assert all(isinstance(r, DoRecord) for r in state.history)


def test_loop_is_deterministic(short):
    def run():
        state, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                      [NoOpPolicy(DEFENDER)], tiny_do(),
                                      oracle=uniform_adv_oracle)
        return [(r.call, r.value_adv, r.value_def, r.trained) for r in state.history]

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

    state, eq = run_double_oracle(short, [UniformAdversary()], [NoOpPolicy(DEFENDER)],
                                  tiny_do(), oracle=scripted_oracle)
    game = state.game

    def solve_block(rows, cols):
        block = EmpiricalGame(game.row_labels[:rows], game.col_labels[:cols],
                              *(getattr(game, name)[:rows, :cols].copy()
                                for name in ("u_adv", "u_def", "se_adv", "se_def")),
                              game.episodes)
        return solve_msne(block)

    # (restricted game size after the row, player trained) for each row
    steps = [((1, 1), ""), ((1, 2), DEFENDER), ((2, 2), ADVERSARY),
             ((2, 3), DEFENDER), ((3, 3), ADVERSARY)]
    flags = [(False, False), (False, False), (True, False), (True, True), (True, True)]
    assert state.converged and state.oracle_calls == 4
    assert len(state.history) == len(steps)
    for call, (row, ((r, c), trained), (conv_a, conv_d)) in enumerate(
            zip(state.history, steps, flags)):
        now = solve_block(r, c)
        assert (row.call, row.trained) == (call, trained)
        assert (row.value_adv, row.value_def) == pytest.approx(
            (now.value_adv, now.value_def), rel=1e-12)
        assert (row.converged_adv, row.converged_def) == (conv_a, conv_d)
        if trained == DEFENDER:
            before = solve_block(r, c - 1)
            br = float(before.sigma_adv @ game.u_def[:r, c - 1])
            assert conv_d == (br <= before.value_def + 1.0)
        elif trained == ADVERSARY:
            before = solve_block(r - 1, c)
            br = float(game.u_adv[r - 1, :c] @ before.sigma_def)
            assert conv_a == (br <= before.value_adv + 1.0)
        else:
            br = float("nan")
        assert row.br_payoff == pytest.approx(br, rel=1e-12, nan_ok=True)
    assert (eq.value_adv, eq.value_def) == (state.history[-1].value_adv,
                                            state.history[-1].value_def)


def test_full_loop_with_learned_oracles(short):
    oracle = dqn_oracle(short, TrainConfig(episodes=1, batch_size=8, replay_capacity=32))
    state, eq = run_double_oracle(short, [NoOpPolicy(ADVERSARY)],
                                  [NoOpPolicy(DEFENDER)], tiny_do(max_iterations=1), oracle)
    assert state.oracle_calls == 2
    assert isinstance(state.def_policies[-1], QNetworkPolicy)
    assert isinstance(state.adv_policies[-1], QNetworkPolicy)
    assert state.def_policies[-1].label == "def_br_01"
    assert state.game.u_adv.shape == (2, 2)


def test_dqn_oracle_threads_seed_and_label(short):
    tc = TrainConfig(episodes=1, batch_size=8, replay_capacity=32)
    oracle = dqn_oracle(short, tc)
    pol = oracle(ADVERSARY, [NoOpPolicy(DEFENDER)],
                 MixedStrategy(np.array([1.0])), seed=7, label="probe")
    assert isinstance(pol, QNetworkPolicy)
    assert pol.label == "probe" and pol.player == ADVERSARY
