from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdgame.env import (
    ADVERSARY,
    COL_CONTROL,
    COL_PROGRESS,
    COL_STATUS,
    COL_TIME_TO_UP,
    BLOCK_WORDS,
    DEFENDER,
    BlockStream,
    ConfigError,
    EnvConfig,
    MtdBatchEnv,
    MtdEnv,
    _tables,
    compromise_probability,
    logistic,
    utility,
)
from mtdgame.seeds import derive_seed

# A gain this large makes the first probe succeed with probability
# 1 - exp(-200), i.e. always, without touching the rng sequence shape.
SURE_GAIN = 100.0
# And a gain this small makes success unobservably rare.
NO_GAIN = 1e-12


def fresh(cfg: EnvConfig, seed: int = 0) -> MtdEnv:
    env = MtdEnv(cfg)
    env.reset(seed)
    return env


# ---------------------------------------------------------------- primitives


def test_compromise_probability_known_values():
    assert math.isclose(compromise_probability(0, 0.05), 0.048771, abs_tol=1e-6)
    assert math.isclose(compromise_probability(7, 0.05), 0.329680, abs_tol=1e-6)


def test_compromise_probability_matches_closed_form():
    for rho in range(0, 30):
        expect = 1.0 - math.exp(-0.05 * (rho + 1))
        assert compromise_probability(rho, 0.05) == pytest.approx(expect, abs=1e-15)


def test_compromise_probability_monotone_and_saturating():
    vals = [compromise_probability(r, 0.05) for r in range(101)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert compromise_probability(10_000, 0.05) == pytest.approx(1.0, abs=1e-9)


def test_compromise_probability_rejects_negative_count():
    with pytest.raises(ValueError):
        compromise_probability(-1, 0.05)


def test_logistic_midpoint_and_known_values():
    assert logistic(0.2, 5.0, 0.2) == pytest.approx(0.5, abs=1e-12)
    assert logistic(1.0, 5.0, 0.2) == pytest.approx(0.9820137900379085, abs=1e-12)
    assert logistic(0.0, 5.0, 0.2) == pytest.approx(0.2689414213699951, abs=1e-12)
    assert logistic(0.5, 5.0, 0.2) == pytest.approx(0.8175744761936437, abs=1e-12)


def test_logistic_survives_extreme_slopes():
    assert logistic(1.0, 1e308, 0.2) == 1.0
    assert logistic(0.0, 1e308, 0.2) == pytest.approx(0.0, abs=1e-200)


def test_utility_availability_weighting():
    cfg = EnvConfig()  # w_a=0, w_d=1
    # all ten servers up and defender controlled
    assert utility(DEFENDER, 10, 0, cfg) == pytest.approx(0.982014, abs=1e-6)
    assert utility(ADVERSARY, 0, 0, cfg) == pytest.approx(0.268941, abs=1e-6)


def test_utility_pure_control_weight_ignores_down_servers():
    cfg = replace(EnvConfig(), weight_adv=1.0)
    full = logistic(1.0, 5.0, 0.2)
    assert utility(ADVERSARY, 10, 0, cfg) == pytest.approx(full, abs=1e-12)
    cfg5 = replace(EnvConfig(), num_servers=20, weight_adv=1.0)
    # with w=1 the denied term is weighted out entirely
    assert utility(ADVERSARY, 20, 0, cfg5) == pytest.approx(full, abs=1e-12)


def test_utility_equal_weights_example():
    cfg = replace(EnvConfig(), weight_adv=1.0, weight_def=1.0)
    assert utility(ADVERSARY, 5, 0, cfg) == pytest.approx(0.817574, abs=1e-6)


def test_utility_unknown_player():
    with pytest.raises(ValueError):
        utility("spectator", 1, 0, EnvConfig())


# ------------------------------------------------------------- config checks


@pytest.mark.parametrize("bad", [
    dict(num_servers=0),
    dict(downtime=0),
    dict(miss_prob=-0.1),
    dict(miss_prob=1.5),
    dict(probe_gain=0.0),
    dict(probe_cost=-1.0),
    dict(reward_slope=0.0),
    dict(weight_adv=1.2),
    dict(horizon=0),
    dict(discount=1.0),
    dict(discount=-0.01),
    dict(probe_cost=math.nan),
    dict(probe_cost=math.inf),
    dict(reward_slope=math.nan),
    dict(reward_thresh=math.nan),
    dict(reward_thresh=math.inf),
    dict(probe_gain=math.inf),
    dict(num_servers=True),
    dict(num_servers=2.0),
    dict(horizon=np.int64(0)),
    dict(miss_prob="0.5"),
    dict(miss_prob=None),
    dict(probe_gain=True),
    dict(downtime=2**62),
    dict(horizon=2**62),
    dict(num_servers=1025),
    dict(num_servers=99999999999999999999),
    dict(horizon=2**20 + 1),
    dict(downtime=2**63 - 1),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        replace(EnvConfig(), **bad)


def test_config_baseline_validates():
    EnvConfig()
    EnvConfig(num_servers=1024, horizon=2**20, downtime=2**62 - 1)  # each at its largest
    cfg = EnvConfig(num_servers=np.int64(5), miss_prob=np.float32(0.5), probe_cost=1)
    assert cfg == EnvConfig(num_servers=5, miss_prob=0.5, probe_cost=1.0)
    stored = (cfg.num_servers, cfg.miss_prob, cfg.probe_cost)
    assert [type(v) for v in stored] == [int, float, float]


def test_largest_downtime_keeps_every_clock_in_int64():
    """At the largest downtime a reimage's clock still fits the lockstep
    env's int64 state, and both envs show the same time to up."""
    cfg = EnvConfig(num_servers=2, downtime=2**62 - 1, horizon=3)
    batch, env = MtdBatchEnv(cfg), MtdEnv(cfg)
    batch.reset([7])
    env.reset(7)
    for t in range(cfg.horizon):
        planes, _ = batch.step(np.array([-1]), np.array([0]))
        obs_d = env.step(-1, 0)[1]
        assert planes[1, COL_TIME_TO_UP, 0, 0] == obs_d[0, COL_TIME_TO_UP] == 2**62 - 1 - t


# ------------------------------------------------------------------- reset


def test_reset_all_servers_clean_and_up(baseline):
    env = MtdEnv(baseline)
    obs_a, obs_d = env.reset(3)
    assert env.counts() == (0, 10, 0)
    np.testing.assert_array_equal(obs_d[:, COL_STATUS], np.ones(10, dtype=np.int64))
    np.testing.assert_array_equal(obs_d[:, COL_TIME_TO_UP], np.zeros(10, dtype=np.int64))
    np.testing.assert_array_equal(obs_d[:, COL_PROGRESS], np.zeros(10, dtype=np.int64))
    np.testing.assert_array_equal(obs_a[:, COL_STATUS], np.ones(10, dtype=np.int64))
    np.testing.assert_array_equal(obs_a[:, COL_CONTROL], np.zeros(10, dtype=np.int64))


def test_reset_same_seed_bitwise_identical(baseline):
    a1, d1 = MtdEnv(baseline).reset(11)
    a2, d2 = MtdEnv(baseline).reset(11)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(d1, d2)


def test_step_requires_reset(baseline):
    env = MtdEnv(baseline)
    with pytest.raises(RuntimeError):
        env.step(-1, -1)


def test_observe_requires_reset(baseline):
    with pytest.raises(RuntimeError, match="reset"):
        MtdEnv(baseline).observe(ADVERSARY)


def test_episode_ends_at_horizon(short):
    env = fresh(short)
    for _ in range(short.horizon):
        env.step(-1, -1)
    assert env.done
    with pytest.raises(RuntimeError):
        env.step(-1, -1)


def test_bad_server_index_rejected(baseline):
    env = fresh(baseline)
    state = env.rng.bit_generator.state
    for bad, error in ((10, ValueError), (-2, ValueError), (None, TypeError),
                       (True, ValueError), (1.0, ValueError), (np.bool_(False), ValueError),
                       (np.float64(2.0), ValueError)):
        with pytest.raises(error):
            env.step(bad, -1)
        with pytest.raises(error):
            env.step(-1, bad)
    assert env.tau == 0 and env.probes == [0] * 10 and env.up_at == [0] * 10
    assert env.rng.bit_generator.state == state


# ----------------------------------------------------------------- stepping


def test_noop_step_rewards_and_state(baseline):
    env = fresh(baseline)
    for _ in range(5):
        _, _, reward_adv, reward_def = env.step(-1, -1)
        assert reward_adv == pytest.approx(0.268941, abs=1e-6)
        assert reward_def == pytest.approx(0.982014, abs=1e-6)
        assert env.counts() == (0, 10, 0)


def test_successful_probe_flips_control(baseline):
    cfg = replace(baseline, probe_gain=SURE_GAIN)
    env = fresh(cfg)
    obs_adv, obs_def, _, _ = env.step(0, -1)
    assert env.counts() == (1, 9, 0)
    assert obs_adv[0, COL_CONTROL] == 1
    assert obs_adv[0, COL_PROGRESS] == 1
    assert env.probes[0] == 1
    # the defender saw the probe (miss_prob 0) but not the compromise
    assert obs_def[0, COL_PROGRESS] == 1
    assert obs_def[0, COL_STATUS] == 1


def test_failed_probe_still_counts(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN)
    env = fresh(cfg)
    for k in range(1, 4):
        obs_adv, obs_def, _, _ = env.step(2, -1)
        assert env.probes[2] == k
        assert obs_adv[2, COL_CONTROL] == 0
        assert obs_def[2, COL_PROGRESS] == k
    assert env.counts() == (0, 10, 0)


def test_first_probe_success_rate_matches_post_increment_count():
    """The k-th probe of a clean server lands with probability
    1 - exp(-alpha (k+1)); for the very first probe that is 0.09516."""
    cfg = EnvConfig()
    env = MtdEnv(cfg)
    hits = 0
    trials = 20_000
    for t in range(trials):
        env.reset(derive_seed(4242, "trial", t))
        env.step(0, -1)
        if env.adv_owned[0]:
            hits += 1
    expect = 1.0 - math.exp(-2 * cfg.probe_gain)
    assert hits / trials == pytest.approx(expect, abs=0.009)


def test_probe_cost_charged_on_probe(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN)
    env = fresh(cfg)
    quiet = env.step(-1, -1)[2]
    probing = env.step(4, -1)[2]
    assert quiet - probing == pytest.approx(cfg.probe_cost, abs=1e-12)


def test_down_probe_cost_follows_config_flag(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN)
    env = fresh(cfg)
    env.step(-1, 0)  # server 0 goes down
    quiet = env.step(-1, -1)[2]
    env2 = fresh(cfg)
    env2.step(-1, 0)
    probed = env2.step(0, -1)[2]
    assert quiet - probed == pytest.approx(cfg.probe_cost, abs=1e-12)


def test_reimage_downtime_is_exact(baseline):
    """A server reimaged on the first step is unavailable for exactly
    `downtime` reward evaluations, then returns."""
    env = fresh(baseline)
    down_evals = 0
    _, obs_def, _, _ = env.step(-1, 0)
    for _ in range(baseline.downtime + 3):
        if env.counts()[2] == 1:
            down_evals += 1
        else:
            break
        _, obs_def, _, _ = env.step(-1, -1)
    assert down_evals == baseline.downtime
    assert env.counts() == (0, 10, 0)
    assert obs_def[0, COL_STATUS] == 1


def test_downtime_reward_drop(baseline):
    env = fresh(baseline)
    _, obs_def, _, reward_def = env.step(-1, 0)
    # defender availability drops to 9/10 servers for the down window
    assert reward_def == pytest.approx(logistic(0.9, 5.0, 0.2), abs=1e-9)
    assert obs_def[0, COL_TIME_TO_UP] == baseline.downtime


def test_reimage_compromised_server_notifies_adversary(baseline):
    cfg = replace(baseline, probe_gain=SURE_GAIN)
    env = fresh(cfg)
    env.step(0, -1)
    obs_adv, _, _, _ = env.step(-1, 0)
    assert env.counts() == (0, 9, 1)
    assert obs_adv[0, COL_CONTROL] == 0
    assert obs_adv[0, COL_PROGRESS] == 0
    assert obs_adv[0, COL_STATUS] == 0
    assert obs_adv[0, COL_TIME_TO_UP] == baseline.downtime


def test_reimage_clean_unprobed_server_is_invisible_to_adversary(baseline):
    env = fresh(baseline)
    obs_adv, obs_def, _, _ = env.step(-1, 3)
    # defender sees the downtime, the adversary's view of 3 is stale
    assert obs_def[3, COL_STATUS] == 0
    assert obs_adv[3, COL_STATUS] == 1
    assert obs_adv[3, COL_TIME_TO_UP] == 0


def test_probing_a_down_server_teaches_status(baseline):
    env = fresh(baseline)
    env.step(-1, 0)                     # down at clock 1
    obs_adv, _, _, _ = env.step(0, -1)  # probe at clock 2
    assert obs_adv[0, COL_STATUS] == 0
    assert obs_adv[0, COL_TIME_TO_UP] == baseline.downtime - 1
    assert obs_adv[0, COL_PROGRESS] == 0
    # true probe count unchanged by a probe that bounced off a down server
    assert env.probes[0] == 0


def test_reimage_resets_probe_count(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN)
    env = fresh(cfg)
    for _ in range(4):
        env.step(5, -1)
    assert env.probes[5] == 4
    _, obs_def, _, _ = env.step(-1, 5)
    assert env.probes[5] == 0
    assert obs_def[5, COL_PROGRESS] == 0


def test_reimaging_a_down_server_is_a_noop(baseline):
    env = fresh(baseline)
    env.step(-1, 0)
    first_up = env.up_at[0]
    env.step(-1, 0)  # already down; must not extend the window
    assert env.up_at[0] == first_up


def test_defender_observed_probes_track_truth_when_never_missed(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN)
    env = fresh(cfg)
    rng = np.random.default_rng(1)
    for _ in range(200):
        target = int(rng.integers(0, 10))
        _, obs_def, _, _ = env.step(target, -1)
        np.testing.assert_array_equal(
            obs_def[:, COL_PROGRESS], np.array(env.probes, dtype=np.int64))


def test_missed_probes_undercount(baseline):
    cfg = replace(baseline, probe_gain=NO_GAIN, miss_prob=1.0)
    env = fresh(cfg)
    for _ in range(10):
        _, obs_def, _, _ = env.step(7, -1)
    assert env.probes[7] == 10
    assert obs_def[7, COL_PROGRESS] == 0


def test_conservation_under_random_play(baseline):
    env = fresh(baseline, seed=99)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = int(rng.integers(0, 10)) if rng.random() < 0.5 else -1
        d = int(rng.integers(0, 10)) if rng.random() < 0.3 else -1
        _, _, reward_adv, reward_def = env.step(a, d)
        n_a, n_d, n_down = env.counts()
        assert n_a + n_d + n_down == baseline.num_servers
        assert -baseline.probe_cost <= reward_adv <= 1.0
        assert 0.0 <= reward_def <= 1.0
        if env.done:
            env.reset(derive_seed(99, "again"))


def test_trajectory_determinism(baseline):
    def rollout(seed):
        env = fresh(baseline, seed=seed)
        rng = np.random.default_rng(17)
        rewards = []
        for _ in range(300):
            a = int(rng.integers(0, 10)) if rng.random() < 0.6 else -1
            d = int(rng.integers(0, 10)) if rng.random() < 0.2 else -1
            rewards.append(env.step(a, d)[2:])
        return rewards

    assert rollout(123) == rollout(123)


def test_observation_views_expose_player_columns(baseline):
    env = fresh(baseline)
    obs_a = env.observe(ADVERSARY)
    obs_d = env.observe(DEFENDER)
    assert obs_a.shape == (10, 5)
    assert obs_d.shape == (10, 5)
    assert obs_a.dtype == obs_d.dtype == np.int64
    with pytest.raises(ValueError):
        env.observe("nobody")


# ------------------------------------------------------------- lockstep env


@pytest.mark.parametrize("k", [*range(2, 11), 2**31 + 1, 2**32 - 5, 2**32])
def test_block_stream_integers_match_numpy(k, catch_up):
    """From fresh generators, BlockStream.integers gives the installed
    numpy's Generator.integers(k) and leaves each generator where it does,
    up to its block's unused tail.  At k = 2**31 + 1 about half the halves
    are rejected, so the rejection path is checked against numpy too; near
    2**32 the int64 product wraps for about half the halves."""
    rngs = [np.random.default_rng(s) for s in range(6)]
    stream = BlockStream([np.random.default_rng(s) for s in range(6)])
    pick = np.random.default_rng(k)
    draws = np.zeros(6, dtype=int)
    halves = 0
    for _ in range(300):
        rows = np.flatnonzero(pick.random(6) < 0.7)
        before = stream.cursor.copy()
        got = stream.integers(rows, np.full(rows.size, k))
        assert got.tolist() == [rngs[r].integers(k) for r in rows]
        draws[rows] += 1
        halves += ((stream.cursor - before) % (2 * BLOCK_WORDS)).sum()
    catch_up(rngs, stream)
    assert (draws > 2 * BLOCK_WORDS).all()   # every block was refilled
    assert halves > 1.5 * draws.sum() if k == 2**31 + 1 else halves == draws.sum()


def test_block_stream_uniforms_match_random(catch_up):
    rngs = [np.random.default_rng(s) for s in range(5)]
    stream = BlockStream([np.random.default_rng(s) for s in range(5)])
    pick = np.random.default_rng(0)
    draws = np.zeros(5, dtype=int)
    for _ in range(200):
        rows = np.flatnonzero(pick.random(5) < 0.5)
        want = np.array([[rngs[r].random(), rngs[r].random()] for r in rows]).reshape(-1, 2)
        np.testing.assert_array_equal(stream.uniform_pairs(rows), want.T)
        draws[rows] += 2
    catch_up(rngs, stream)
    assert (draws > BLOCK_WORDS).all()   # every block was refilled


@pytest.mark.parametrize("m", range(1, 13))
def test_batch_env_matches_scalar_env(m):
    """Every episode of the lockstep env sees, step by step, exactly the
    observations and rewards of an MtdEnv reset with the same seed."""
    cfg = EnvConfig(num_servers=m, downtime=3, miss_prob=0.3, probe_gain=0.2,
                    horizon=80)
    seeds = [derive_seed(m, "batch", b) for b in range(6)]
    batch = MtdBatchEnv(cfg)
    obs_a, obs_d = batch.reset(seeds).transpose(0, 2, 3, 1)
    envs = [MtdEnv(cfg) for _ in seeds]
    for env, seed, oa, od in zip(envs, seeds, obs_a, obs_d):
        ra, rd = env.reset(seed)
        np.testing.assert_array_equal(oa, ra)
        np.testing.assert_array_equal(od, rd)
    rng = np.random.default_rng(m)
    draws = np.zeros(len(seeds), dtype=int)   # uniforms each episode has used
    while not batch.done:
        adv = np.where(rng.random(len(seeds)) < 0.7, rng.integers(0, m, len(seeds)), -1)
        deff = np.where(rng.random(len(seeds)) < 0.2, rng.integers(0, m, len(seeds)), -1)
        # a probe of an up server draws twice
        draws += 2 * ((adv >= 0) & (obs_d[np.arange(len(seeds)), adv, COL_STATUS] == 1))
        planes, (rew_a, rew_d) = batch.step(adv, deff)
        obs_a, obs_d = planes.transpose(0, 2, 3, 1)
        for b, env in enumerate(envs):
            one_a, one_d, one_ra, one_rd = env.step(int(adv[b]), int(deff[b]))
            np.testing.assert_array_equal(obs_a[b], one_a)
            np.testing.assert_array_equal(obs_d[b], one_d)
            assert (rew_a[b], rew_d[b]) == (one_ra, one_rd)
    # the batch draws its uniforms a block at a time, so its generator is
    # ahead of MtdEnv's by exactly the unused tail of the current block,
    # whose cursor counts 32-bit halves
    for env, rng_b, cursor in zip(envs, batch.stream.rngs, batch.stream.cursor):
        env.rng.random(BLOCK_WORDS - cursor // 2)
        assert env.rng.bit_generator.state == rng_b.bit_generator.state
    assert (draws > BLOCK_WORDS).any()   # some episode refilled its block
    assert all(env.done for env in envs)


@pytest.mark.parametrize("m", range(1, 13))
def test_reward_table_is_keyed_by_controlled_and_down(m):
    """Key c * (M + 1) + d holds the adversary's utility of controlling c
    servers with d down and the defender's of controlling the M - c - d
    others; keys with c + d > M hold NaN.  Off-default weights, slope and
    threshold keep entries of different keys from coinciding by accident."""
    cfg = EnvConfig(num_servers=m, reward_slope=3.0, reward_thresh=0.4,
                    weight_adv=0.3, weight_def=0.8)
    rewards = _tables(cfg)[0]
    assert len(rewards) == (m + 1) ** 2
    for c in range(m + 1):
        for d in range(m + 1):
            u_a, u_d = rewards[c * (m + 1) + d]
            if c + d <= m:
                assert u_a == utility(ADVERSARY, c, d, cfg)
                assert u_d == utility(DEFENDER, m - c - d, d, cfg)
            else:
                assert math.isnan(u_a) and math.isnan(u_d)


def test_batch_env_rejects_bad_actions(short):
    batch = MtdBatchEnv(short)
    with pytest.raises(RuntimeError, match="reset"):
        batch.step(np.array([-1, -1]), np.array([-1, -1]))
    batch.reset([1, 2])
    for adv, deff in (([0, 10], [-1, -1]), ([-2, 0], [-1, -1]), ([0], [0]),
                      ([1.5, 0.0], [-1, -1]), ([-1, -1], [1.0, 0.0]),
                      ([True, False], [-1, -1]), ([-1, -1], [False, False])):
        with pytest.raises(ValueError):
            batch.step(np.array(adv), np.array(deff))
    for adv, deff in ((None, np.array([-1, -1])), (np.array([-1, -1]), [0, 1])):
        with pytest.raises(TypeError):
            batch.step(adv, deff)
    assert batch.tau == 0 and not batch._state.any()
    # the first and last server and the no-op pass, in any integer dtype
    for dtype in (np.int64, np.int8, np.uint8):
        batch.step(np.array([0, 9], dtype=dtype), np.array([9, 0], dtype=dtype))
    batch.step(np.array([-1, 9]), np.array([9, -1]))
    for adv in (np.array([10, 0], dtype=np.uint8), np.array([0, -2], dtype=np.int8)):
        with pytest.raises(ValueError):
            batch.step(adv, np.array([-1, -1]))
    assert batch.tau == 4
    while not batch.done:
        batch.step(np.array([-1, -1]), np.array([-1, -1]))
    with pytest.raises(RuntimeError):
        batch.step(np.array([-1, -1]), np.array([-1, -1]))
    # a batch of no episodes steps to the horizon
    planes = batch.reset([])
    assert planes.shape == (2, 5, 0, 10)
    nothing = np.array([], dtype=np.int64)
    while not batch.done:
        planes, rewards = batch.step(nothing, nothing)
    assert planes.shape == (2, 5, 0, 10) and rewards.shape == (2, 0)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_batch_observations_are_column_planes(n):
    """Each player's observation stack is (n, M, 5) int64 whose every column
    is one C-contiguous (n, M) plane, at reset and after a step."""
    cfg = EnvConfig(num_servers=4, horizon=3)
    batch = MtdBatchEnv(cfg)
    at_reset = batch.reset(list(range(n)))
    targets = np.arange(n) % 5 - 1
    for planes in (at_reset, batch.step(targets, targets[::-1])[0]):
        for obs in planes.transpose(0, 2, 3, 1):
            assert obs.shape == (n, 4, 5) and obs.dtype == np.int64
            assert all(obs[..., c].flags.c_contiguous for c in range(5))

