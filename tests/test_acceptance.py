"""Release acceptance gates.

One test per gate, ordered by cost.  Run with -v to get a single pass/fail
line for each.  Every gate carries its tolerance and a wall-clock budget;
the budgets are asserted so a performance regression fails loudly instead
of silently eating CI time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from mtdgame.cli import main
from mtdgame.env import ADVERSARY, COL_CONTROL, COL_STATUS, DEFENDER, EnvConfig, MtdEnv
from mtdgame.double_oracle import DoConfig, dqn_oracle, run_double_oracle
from mtdgame.nash import EmpiricalGame, build_game, solve_msne
from mtdgame.policies import (
    MixedStrategy,
    NoOpPolicy,
    default_adversaries,
    default_defenders,
    evaluate_pair,
)
from mtdgame.qlearn import QNetwork, TrainConfig, loss_and_gradients, train_best_response
from mtdgame.seeds import derive_seed

BASE = EnvConfig()


def analytic_idle_pair(cfg: EnvConfig) -> tuple[float, float]:
    factor = (1 - cfg.discount ** cfg.horizon) / (1 - cfg.discount)
    ra = 1 / (1 + np.exp(cfg.reward_slope * cfg.reward_thresh))
    rd = 1 / (1 + np.exp(-cfg.reward_slope * (1 - cfg.reward_thresh)))
    return ra * factor, rd * factor


def test_c1_idle_pair_analytic_payoff():
    t0 = time.monotonic()
    game = build_game([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)],
                      BASE, episodes=1, seed=0)
    elapsed = time.monotonic() - t0
    assert abs(game.u_adv[0, 0] - 26.8929) <= 1e-3
    assert abs(game.u_def[0, 0] - 98.1972) <= 1e-3
    exact_a, exact_d = analytic_idle_pair(BASE)
    assert abs(game.u_adv[0, 0] - exact_a) <= 1e-9
    assert abs(game.u_def[0, 0] - exact_d) <= 1e-9
    assert elapsed < 1.0, f"idle cell took {elapsed:.2f}s, budget 1s"


# Reference payoffs for the heuristic grid at the default configuration,
# (adversary, defender) per cell.  Cells touching a control-threshold policy
# are report-only: that heuristic's trigger condition admits more than one
# reading, and the implemented one is the best-supported choice.
GRID_REFERENCE = {
    ("noop", "noop"): (26.89, 98.20),
    ("noop", "uniform"): (46.03, 95.83),
    ("noop", "maxprobe"): (26.89, 98.20),
    ("noop", "pcp"): (26.89, 98.20),
    ("noop", "control_threshold"): (26.89, 98.20),
    ("uniform", "noop"): (79.08, 46.74),
    ("uniform", "uniform"): (56.83, 76.23),
    ("uniform", "maxprobe"): (57.14, 75.21),
    ("uniform", "pcp"): (44.43, 89.48),
    ("uniform", "control_threshold"): (70.97, 51.58),
    ("maxprobe", "noop"): (78.66, 47.69),
    ("maxprobe", "uniform"): (64.56, 67.12),
    ("maxprobe", "maxprobe"): (41.99, 86.82),
    ("maxprobe", "pcp"): (36.58, 93.01),
    ("maxprobe", "control_threshold"): (75.67, 49.62),
    ("control_threshold", "noop"): (63.64, 85.98),
    ("control_threshold", "uniform"): (59.54, 81.32),
    ("control_threshold", "maxprobe"): (60.43, 80.09),
    ("control_threshold", "pcp"): (46.38, 88.81),
    ("control_threshold", "control_threshold"): (65.58, 85.35),
}


@pytest.mark.slow
def test_c2_heuristic_grid_reproduction():
    t0 = time.monotonic()
    game = build_game(default_adversaries(BASE), default_defenders(BASE),
                      BASE, episodes=50, seed=123)
    elapsed = time.monotonic() - t0
    failures = []
    soft_report = []
    for i, rl in enumerate(game.row_labels):
        for j, cl in enumerate(game.col_labels):
            ref_a, ref_d = GRID_REFERENCE[(rl, cl)]
            da = game.u_adv[i, j] - ref_a
            dd = game.u_def[i, j] - ref_d
            if "control_threshold" in (rl, cl):
                soft_report.append(f"  soft {rl}/{cl}: diff ({da:+.2f}, {dd:+.2f})")
                continue
            if max(abs(da), abs(dd)) > 5.0:
                failures.append(f"{rl}/{cl}: got ({game.u_adv[i, j]:.2f}, "
                                f"{game.u_def[i, j]:.2f}), want ({ref_a}, {ref_d})")
    print("\n".join(["control-threshold cells (report only):", *soft_report]))
    assert not failures, "cells over +/-5.0: " + "; ".join(failures)
    i = game.row_labels.index("noop")
    j = game.col_labels.index("noop")
    assert abs(game.u_adv[i, j] - 26.8929) <= 1e-3
    assert abs(game.u_def[i, j] - 98.1972) <= 1e-3
    assert elapsed < 600.0, f"grid took {elapsed:.0f}s, budget 600s"


def regret_of(u_a, u_d, sa, sd):
    """Independent regret computation, deliberately not the solver's own."""
    va = sa @ u_a @ sd
    vd = sa @ u_d @ sd
    return max(0.0, (u_a @ sd).max() - va), max(0.0, (sa @ u_d).max() - vd)


def test_c3_nash_solver_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(31337)
    zeros = np.zeros((2, 2))
    for trial in range(500):
        m, n = rng.integers(2, 7, size=2)
        u_a = rng.random((m, n))
        u_d = rng.random((m, n))
        rows = tuple(f"r{i}" for i in range(m))
        cols = tuple(f"c{j}" for j in range(n))
        z = np.zeros((m, n))
        game = EmpiricalGame(rows, cols, u_a, u_d, z, z, 0)
        eq = solve_msne(game)
        assert (eq.sigma_adv >= -1e-12).all() and (eq.sigma_def >= -1e-12).all()
        assert abs(eq.sigma_adv.sum() - 1) <= 1e-9
        assert abs(eq.sigma_def.sum() - 1) <= 1e-9
        ra, rd = regret_of(u_a, u_d, eq.sigma_adv, eq.sigma_def)
        assert ra <= 1e-6 and rd <= 1e-6, \
            f"trial {trial}: regret ({ra:.2e}, {rd:.2e})"

    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    eq = solve_msne(EmpiricalGame(("h", "t"), ("h", "t"), pennies, -pennies,
                                  zeros, zeros, 0))
    np.testing.assert_allclose(eq.sigma_adv, 0.5, atol=1e-12)
    np.testing.assert_allclose(eq.sigma_def, 0.5, atol=1e-12)
    assert abs(eq.value_adv) <= 1e-12
    assert max(regret_of(pennies, -pennies, eq.sigma_adv, eq.sigma_def)) <= 1e-12

    dilemma_a = np.array([[-1.0, -3.0], [0.0, -2.0]])
    dilemma_b = np.array([[-1.0, 0.0], [-3.0, -2.0]])
    eq = solve_msne(EmpiricalGame(("c", "d"), ("c", "d"), dilemma_a, dilemma_b,
                                  zeros, zeros, 0))
    np.testing.assert_array_equal(eq.sigma_adv, [0.0, 1.0])
    np.testing.assert_array_equal(eq.sigma_def, [0.0, 1.0])
    assert eq.value_adv == -2.0 and eq.value_def == -2.0
    assert eq.regret_adv == 0.0 and eq.regret_def == 0.0

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"property suite took {elapsed:.0f}s, budget 60s"


def test_c4_gradient_check_against_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        net = QNetwork(10, 3, np.random.default_rng(rng.integers(2**32)))
        x = rng.normal(size=(8, 10))
        actions = rng.integers(0, 3, size=8)
        targets = rng.normal(size=8) * 5.0
        _, grad = loss_and_gradients(net, x, actions, targets)
        grads = net.split(grad)
        params = net.parameters()
        for _ in range(12):
            k = rng.integers(len(params))
            flat = params[k].ravel()
            idx = rng.integers(flat.size)
            saved = flat[idx]
            h = 1e-5 * (1.0 + abs(saved))
            flat[idx] = saved + h
            plus, _ = loss_and_gradients(net, x, actions, targets)
            flat[idx] = saved - h
            minus, _ = loss_and_gradients(net, x, actions, targets)
            flat[idx] = saved
            fd = (plus - minus) / (2 * h)
            an = grads[k].ravel()[idx]
            rel = abs(fd - an) / max(abs(fd) + abs(an), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s, budget 10s"


def test_c5_environment_invariant_fuzz():
    t0 = time.monotonic()
    cfg = BASE
    env = MtdEnv(cfg)
    m = cfg.num_servers
    steps_left = 100_000
    rng = np.random.default_rng(derive_seed(2024, "fuzz"))
    conservation_bad = 0
    reward_bad = 0
    downtime_bad = 0
    ep = 0
    while steps_left > 0:
        obs_a, obs_d = env.reset(derive_seed(2024, "fuzz", ep))
        ep += 1
        prev_status = obs_d[:, COL_STATUS].copy()
        down_start = np.full(m, -1)
        acts = rng.integers(0, m + 1, size=(min(cfg.horizon, steps_left), 2))
        for t in range(acts.shape[0]):
            a = None if acts[t, 0] == m else int(acts[t, 0])
            d = None if acts[t, 1] == m else int(acts[t, 1])
            out = env.step(a, d)
            steps_left -= 1
            status = out.obs_def[:, COL_STATUS]
            control = out.obs_adv[:, COL_CONTROL]
            n_a, n_d, n_dn = env.counts()
            if (n_a + n_d + n_dn != m
                    or n_dn != int((status == 0).sum())
                    or n_a != int(((control == 1) & (status == 1)).sum())):
                conservation_bad += 1
            if not (-cfg.probe_cost - 1e-12 <= out.reward_adv <= 1 + 1e-12
                    and -1e-12 <= out.reward_def <= 1 + 1e-12):
                reward_bad += 1
            went_down = (prev_status == 1) & (status == 0)
            came_up = (prev_status == 0) & (status == 1)
            down_start[went_down] = t
            for i in np.flatnonzero(came_up):
                if down_start[i] >= 0 and t - down_start[i] != cfg.downtime:
                    downtime_bad += 1
                down_start[i] = -1
            prev_status = status.copy()
    assert conservation_bad == 0, f"{conservation_bad} conservation violations"
    assert reward_bad == 0, f"{reward_bad} reward-bound violations"
    assert downtime_bad == 0, f"{downtime_bad} downtime-length violations"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"fuzz took {elapsed:.0f}s, budget 30s"


def best_response_payoff(player: str) -> float:
    """Desk-scale training run against an idle opponent, fixed protocol."""
    other = DEFENDER if player == ADVERSARY else ADVERSARY
    tc = TrainConfig(episodes=50, seed=0)
    policy, _ = train_best_response(player, [NoOpPolicy(other)],
                                    MixedStrategy(np.array([1.0])), BASE, tc)
    if player == ADVERSARY:
        pay = evaluate_pair(policy, NoOpPolicy(DEFENDER), BASE, episodes=50, seed=99)
        return pay.u_adv
    pay = evaluate_pair(NoOpPolicy(ADVERSARY), policy, BASE, episodes=50, seed=99)
    return pay.u_def


@pytest.mark.slow
def test_c6a_adversary_best_response_floor():
    t0 = time.monotonic()
    value = best_response_payoff(ADVERSARY)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"training took {elapsed:.0f}s, budget 30min"
    assert value >= 74.0, (
        f"trained adversary reaches {value:.4f} vs idle defender, floor is 74.0")


@pytest.mark.slow
def test_c6b_defender_best_response_floor():
    t0 = time.monotonic()
    value = best_response_payoff(DEFENDER)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"training took {elapsed:.0f}s, budget 30min"
    assert value >= 97.0, (
        f"trained defender reaches {value:.4f} vs idle adversary, floor is 97.0")


DESK_DO = DoConfig(eps_do=1.0, max_iterations=5, eval_episodes=20, seed=0)


def run_desk_do(init: str):
    if init == "noop":
        advs = [NoOpPolicy(ADVERSARY)]
        defs = [NoOpPolicy(DEFENDER)]
    else:
        advs = default_adversaries(BASE)
        defs = default_defenders(BASE)
    return run_double_oracle(BASE, advs, defs, DESK_DO,
                             dqn_oracle(BASE, TrainConfig(episodes=30)))


def check_noise_tolerant_monotonicity(state):
    slack = DESK_DO.eps_do + 2 * max(state.game.se_adv.max(),
                                     state.game.se_def.max())
    for prev, cur in zip(state.history, state.history[1:]):
        if cur.trained == "defender":
            assert cur.value_adv <= prev.value_adv + slack, \
                f"call {cur.call}: adversary value rose past slack after defender oracle"
            assert cur.value_def >= prev.value_def - slack, \
                f"call {cur.call}: defender value fell past slack after its own oracle"
        elif cur.trained == "adversary":
            assert cur.value_adv >= prev.value_adv - slack, \
                f"call {cur.call}: adversary value fell past slack after its own oracle"


@pytest.mark.slow
def test_c7_double_oracle_desk_run():
    results = {}
    for init in ("heuristics", "noop"):
        state, eq = run_desk_do(init)
        assert state.converged, f"{init} start did not converge within budget"
        assert state.oracle_calls <= 10, \
            f"{init} start used {state.oracle_calls} oracle calls, budget 10"
        check_noise_tolerant_monotonicity(state)
        results[init] = (eq.value_adv, eq.value_def)
    ha, hd = results["heuristics"]
    na, nd = results["noop"]
    assert abs(ha - na) <= 5.0, f"start-set sensitivity: adversary {ha:.2f} vs {na:.2f}"
    assert abs(hd - nd) <= 5.0, f"start-set sensitivity: defender {hd:.2f} vs {nd:.2f}"
    in_band = 46.0 <= ha <= 51.0 and 87.0 <= hd <= 90.0
    print(f"soft neighborhood check (adversary 46-51, defender 87-90): "
          f"values ({ha:.3f}, {hd:.3f}) -> {'inside' if in_band else 'OUTSIDE'}")


def test_c8_subcommand_reruns_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("T=50\nne=1\nmax_iterations=1\neval_episodes=2\n",
                   encoding="utf-8")
    c = str(cfg)

    def run_twice(argv, artifacts):
        for d in ("x", "y"):
            assert main([*argv, "--out", str(tmp_path / d)]) in (0, 4)
        for name in artifacts:
            assert ((tmp_path / "x" / name).read_bytes()
                    == (tmp_path / "y" / name).read_bytes()), \
                f"{argv[0]}: {name} differs between identical runs"
        for d in ("x", "y"):
            for p in sorted((tmp_path / d).rglob("*")):
                if p.is_file():
                    p.unlink()

    run_twice(["simulate", "--config", c, "--adv", "uniform", "--def", "pcp",
               "--seed", "7"], ["trace.csv"])
    run_twice(["payoff-table", "--config", c, "--episodes", "2", "--seed", "7",
               "--jobs", "1"], ["game.csv"])
    mix_dir = tmp_path / "mix"
    from mtdgame.serialize import save_game, save_mixture
    save_mixture([NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])), mix_dir)
    run_twice(["train-br", "--config", c, "--player", "adversary",
               "--opponent", str(mix_dir / "mixture.txt"), "--seed", "7"],
              ["adversary_br.policy", "learning_curve.csv"])
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    z = np.zeros((2, 2))
    save_game(EmpiricalGame(("h", "t"), ("h", "t"), pennies, -pennies, z, z, 0),
              tmp_path / "pennies.csv")
    run_twice(["nash", "--game", str(tmp_path / "pennies.csv")],
              ["equilibrium.csv"])
    run_twice(["solve", "--config", c, "--init", "noop", "--seed", "7",
               "--jobs", "1"],
              ["game.csv", "do_curve.csv", "equilibrium.csv", "config.txt"])
