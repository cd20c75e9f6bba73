from __future__ import annotations

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from mtdgame import policies
from mtdgame.env import (
    ADVERSARY,
    COL_PROGRESS,
    COL_STATUS,
    BLOCK_WORDS,
    DEFENDER,
    BlockStream,
    ConfigError,
    EnvConfig,
    MtdBatchEnv,
)
from mtdgame.policies import (
    HEURISTICS,
    ControlThresholdAdversary,
    ControlThresholdDefender,
    MaxProbeAdversary,
    MaxProbeDefender,
    MixedStrategy,
    NoOpPolicy,
    ProbeCountPeriodDefender,
    PurePolicy,
    UniformAdversary,
    UniformDefender,
    _pick_rows,
    default_adversaries,
    default_defenders,
    evaluate_cells,
    evaluate_pair,
    expected_defender_control,
    heuristic,
    heuristic_name,
    run_episode,
)
from mtdgame.qlearn import QNetwork, QNetworkPolicy
from mtdgame.seeds import derive_seed


def obs_of(rows: list[list[int]]) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def adv_row(status=1, ttu=0, progress=0, control=0, since_probe=0):
    return [status, ttu, progress, control, since_probe]


def def_row(status=1, ttu=0, progress=0, since_probe=0, since_reimage=0):
    return [status, ttu, progress, since_probe, since_reimage]


def draws(policy, obs, tau, n=400, seed=3):
    rng = np.random.default_rng(seed)
    return [policy.act(obs, tau, rng) for _ in range(n)]


# -------------------------------------------------------------- adversaries


def test_noop_never_acts():
    obs = obs_of([adv_row() for _ in range(4)])
    pol = NoOpPolicy(ADVERSARY)
    assert draws(pol, obs, 0, n=10) == [-1] * 10


def test_uniform_adversary_targets_takeable_servers():
    rows = [adv_row(), adv_row(control=1), adv_row(status=0, ttu=3), adv_row()]
    obs = obs_of(rows)
    got = set(draws(UniformAdversary(), obs, 0))
    assert got == {0, 3}  # controlled and down servers are never probed


def test_uniform_adversary_period_gate():
    obs = obs_of([adv_row()])
    pol = UniformAdversary(period=3)
    assert pol.act(obs, 1, np.random.default_rng(0)) == -1
    assert pol.act(obs, 2, np.random.default_rng(0)) == -1
    assert pol.act(obs, 3, np.random.default_rng(0)) == 0


def test_heuristic_integer_parameters_checked_when_built():
    for build, name in ((lambda: UniformAdversary(period=0), "period"),
                        (lambda: ControlThresholdDefender(period=-1), "period"),
                        (lambda: ProbeCountPeriodDefender(probe_limit=-4), "probe_limit"),
                        (lambda: MaxProbeDefender(period=2.5), "period")):
        with pytest.raises(ConfigError, match=name):
            build()
    assert ProbeCountPeriodDefender(period=1, probe_limit=0).probe_limit == 0


def test_heuristic_float_parameters_checked_when_built():
    for build, name in ((lambda: ControlThresholdAdversary(threshold=-3.0), "threshold"),
                        (lambda: ControlThresholdAdversary(threshold=math.nan), "threshold"),
                        (lambda: ControlThresholdAdversary(threshold="0.5"), "threshold"),
                        (lambda: ControlThresholdDefender(threshold=7.0), "threshold"),
                        (lambda: ControlThresholdDefender(gain=-1.0), "gain"),
                        (lambda: ControlThresholdDefender(gain=0.0), "gain"),
                        (lambda: ControlThresholdDefender(gain=math.inf), "gain"),
                        (lambda: ControlThresholdDefender(gain=math.nan), "gain")):
        with pytest.raises(ConfigError, match=name):
            build()
    assert ControlThresholdAdversary(threshold=0.0).threshold == 0.0
    assert ControlThresholdDefender(threshold=1.0, gain=1e-9).threshold == 1.0


def test_uniform_adversary_idles_when_nothing_takeable():
    obs = obs_of([adv_row(control=1), adv_row(status=0)])
    assert UniformAdversary().act(obs, 0, np.random.default_rng(0)) == -1


def test_maxprobe_adversary_breaks_ties_uniformly():
    rows = [adv_row(progress=3), adv_row(progress=9), adv_row(progress=9),
            adv_row(progress=0)]
    obs = obs_of(rows)
    got = draws(MaxProbeAdversary(), obs, 0)
    assert set(got) == {1, 2}
    share = got.count(1) / len(got)
    assert 0.35 < share < 0.65


def test_maxprobe_adversary_skips_controlled_leader():
    rows = [adv_row(progress=9, control=1), adv_row(progress=2), adv_row(progress=5)]
    obs = obs_of(rows)
    assert set(draws(MaxProbeAdversary(), obs, 0)) == {2}


def test_control_threshold_adversary_idles_at_threshold():
    # six of ten controlled, threshold one half: stop probing
    rows = [adv_row(control=1) for _ in range(6)] + [adv_row() for _ in range(4)]
    obs = obs_of(rows)
    pol = ControlThresholdAdversary(threshold=0.5)
    assert pol.act(obs, 0, np.random.default_rng(0)) == -1


def test_control_threshold_adversary_probes_below_threshold():
    rows = [adv_row(control=1) for _ in range(4)] + [
        adv_row(progress=6), adv_row(progress=1)] + [adv_row() for _ in range(4)]
    obs = obs_of(rows)
    got = set(draws(ControlThresholdAdversary(threshold=0.5), obs, 0))
    assert got == {4}  # most-probed uncontrolled server


# ---------------------------------------------------------------- defenders


def test_uniform_defender_reimages_only_up_servers():
    rows = [def_row(), def_row(status=0, ttu=2), def_row()]
    obs = obs_of(rows)
    assert set(draws(UniformDefender(period=4), obs, 0)) == {0, 2}
    assert UniformDefender(period=4).act(obs, 2, np.random.default_rng(0)) == -1


def test_maxprobe_defender_tie_break():
    rows = [def_row(progress=3), def_row(progress=9), def_row(progress=9),
            def_row(progress=0)]
    obs = obs_of(rows)
    got = draws(MaxProbeDefender(period=4), obs, 0)
    assert set(got) == {1, 2}
    share = got.count(1) / len(got)
    assert 0.35 < share < 0.65


def test_maxprobe_defender_never_fires_unprobed():
    obs = obs_of([def_row() for _ in range(5)])
    assert MaxProbeDefender(period=4).act(obs, 0, np.random.default_rng(0)) == -1


def test_maxprobe_defender_period_gate():
    obs = obs_of([def_row(progress=2)])
    pol = MaxProbeDefender(period=4)
    assert pol.act(obs, 3, np.random.default_rng(0)) == -1
    assert pol.act(obs, 4, np.random.default_rng(0)) == 0


def test_pcp_defender_selects_quiet_or_overprobed():
    rows = [
        def_row(progress=2, since_probe=0),    # fresh, under limit: keep
        def_row(progress=2, since_probe=4),    # quiet for a full period: flag
        def_row(progress=8, since_probe=0),    # over the count limit: flag
        def_row(progress=0, since_probe=9),    # never probed: keep
        def_row(status=0, progress=5, since_probe=6),  # down: keep
    ]
    obs = obs_of(rows)
    got = set(draws(ProbeCountPeriodDefender(period=4, probe_limit=7), obs, 1))
    assert got == {1, 2}


def test_pcp_defender_idles_with_no_candidates():
    obs = obs_of([def_row(progress=1, since_probe=1)])
    assert ProbeCountPeriodDefender(period=4, probe_limit=7).act(
        obs, 5, np.random.default_rng(0)) == -1


def test_expected_control_unprobed_fleet():
    obs = obs_of([def_row() for _ in range(10)])
    assert expected_defender_control(obs, 0.05) == pytest.approx(10.0, abs=1e-12)


def test_expected_control_single_probed_server():
    obs = obs_of([def_row(progress=4)])
    assert expected_defender_control(obs, 0.05) == pytest.approx(0.818731, abs=1e-6)


def test_expected_control_excludes_down_servers():
    rows = [def_row(status=0, ttu=4)] + [def_row() for _ in range(9)]
    obs = obs_of(rows)
    assert expected_defender_control(obs, 0.05) == pytest.approx(9.0, abs=1e-12)


def test_control_threshold_defender_cooldown_and_threshold():
    pol = ControlThresholdDefender(threshold=0.8, period=4, gain=0.05)
    # heavily probed fleet, but a reimage happened just now: hold
    hot = [def_row(progress=30, since_probe=0, since_reimage=1) for _ in range(10)]
    assert pol.act(obs_of(hot), 8, np.random.default_rng(0)) == -1
    # cooled down and expected control is low: fire on a most-probed server
    rows = [def_row(progress=30, since_probe=0, since_reimage=9) for _ in range(5)]
    rows += [def_row(since_reimage=9) for _ in range(5)]
    got = set(draws(pol, obs_of(rows), 8))
    assert got <= {0, 1, 2, 3, 4} and len(got) > 1
    # barely probed fleet keeps expected control above the bar: hold
    calm = [def_row(progress=1, since_probe=1, since_reimage=9) for _ in range(10)]
    assert pol.act(obs_of(calm), 8, np.random.default_rng(0)) == -1


def test_default_policy_sets(baseline):
    advs = default_adversaries()
    defs = default_defenders(baseline)
    assert [p.label for p in advs] == ["noop", "uniform", "maxprobe",
                                       "control_threshold"]
    assert [p.label for p in defs] == ["noop", "uniform", "maxprobe", "pcp",
                                       "control_threshold"]
    assert all(p.player == ADVERSARY for p in advs)
    assert all(p.player == DEFENDER for p in defs)


@pytest.mark.parametrize("player,name", list(HEURISTICS), ids=["/".join(k) for k in HEURISTICS])
def test_registry_states_each_heuristic_once(player, name):
    """The decorator's name and player are the class's: its `name`, its
    `label` default and the player of what `heuristic` builds."""
    cls = HEURISTICS[(player, name)]
    assert cls.name == name
    assert {f.name: f.default for f in fields(cls)}["label"] == name
    policy = heuristic(player, name)
    assert (policy.player, policy.label, heuristic_name(policy)) == (player, name, name)
    assert heuristic_name(QNetworkPolicy(player, QNetwork(5, 2, None), EnvConfig(), name)) is None


# ----------------------------------------------------------------- mixtures


def test_mixture_degenerate_always_first():
    mix = MixedStrategy(np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(0)
    assert {mix.sample(rng) for _ in range(200)} == {0}


def test_mixture_frequencies_converge():
    mix = MixedStrategy(np.array([0.5, 0.5]))
    rng = np.random.default_rng(1)
    hits = sum(mix.sample(rng) for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.5, abs=0.01)


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        MixedStrategy(np.array([0.4, 0.5]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([]))


def test_mixture_zero_weight_never_sampled():
    mix = MixedStrategy(np.array([0.0, 1.0]))
    rng = np.random.default_rng(2)
    assert {mix.sample(rng) for _ in range(500)} == {1}


class _TopDraw:
    """A generator stub whose every draw is the largest double below 1."""

    def random(self):
        return 1.0 - 2.0 ** -53


def test_mixture_top_draw_stays_in_range():
    # ten weights of 0.1 sum to 0.9999999999999999 cumulatively
    assert MixedStrategy(np.full(10, 0.1)).sample(_TopDraw()) == 9
    # a trailing zero weight is still never drawn
    assert MixedStrategy(np.append(np.full(10, 0.1), 0.0)).sample(_TopDraw()) == 9


# --------------------------------------------------------------- evaluation


def test_noop_pair_matches_closed_form(baseline):
    pp = evaluate_pair(NoOpPolicy(ADVERSARY), NoOpPolicy(DEFENDER), baseline,
                       episodes=3, seed=0)
    horizon_sum = (1.0 - baseline.discount ** baseline.horizon) / (1.0 - baseline.discount)
    assert pp.u_adv == pytest.approx(0.2689414213699951 * horizon_sum, abs=1e-9)
    assert pp.u_def == pytest.approx(0.9820137900379085 * horizon_sum, abs=1e-9)
    assert pp.se_adv == 0.0 and pp.se_def == 0.0
    assert pp.episodes == 3


def test_zero_discount_keeps_first_reward_only(baseline):
    cfg = replace(baseline, discount=0.0)
    pp = evaluate_pair(NoOpPolicy(ADVERSARY), NoOpPolicy(DEFENDER), cfg,
                       episodes=1, seed=0)
    assert pp.u_adv == pytest.approx(0.268941, abs=1e-6)
    assert pp.u_def == pytest.approx(0.982014, abs=1e-6)


def test_uniform_adversary_beats_idle_defender(baseline):
    pp = evaluate_pair(UniformAdversary(), NoOpPolicy(DEFENDER), baseline,
                       episodes=10, seed=0)
    assert 68.0 < pp.u_adv < 90.0
    assert pp.u_def < 70.0
    assert pp.se_adv > 0.0


def test_run_episode_deterministic(baseline):
    cfg = replace(baseline, horizon=120)
    a = run_episode(UniformAdversary(), UniformDefender(), cfg, seed=5)
    b = run_episode(UniformAdversary(), UniformDefender(), cfg, seed=5)
    assert a == b
    c = run_episode(UniformAdversary(), UniformDefender(), cfg, seed=6)
    assert a != c


def test_evaluate_pair_argument_checks(baseline):
    with pytest.raises(ValueError):
        evaluate_pair(NoOpPolicy(DEFENDER), NoOpPolicy(ADVERSARY), baseline, 1, 0)
    with pytest.raises(ValueError):
        evaluate_pair(NoOpPolicy(ADVERSARY), NoOpPolicy(DEFENDER), baseline, 0, 0)


# ------------------------------------------------------- batched evaluation

BATCH_POLICIES = [
    *(heuristic(player, name) for player, name in HEURISTICS),
    UniformAdversary(period=3),
    MaxProbeAdversary(period=2),
    ControlThresholdAdversary(threshold=0.2),
    UniformDefender(period=1),
    MaxProbeDefender(period=1),
    ProbeCountPeriodDefender(period=2, probe_limit=3),
    ControlThresholdDefender(threshold=0.9, period=1),
    ControlThresholdDefender(threshold=0.95, period=2, gain=0.3),
]


# Fixed case names: the number tells apart the policies that share a label,
# so a case keeps its name from one run to the next.
BATCH_CASE_NUMBERS = [424, 64, 488, 832, 856, 0, 24, 152, 128,
                      512, 872, 96, 512, 640, 960, 792, 896]


@pytest.mark.parametrize("policy", BATCH_POLICIES, ids=[
    f"{p.player[:3]}-{p.label}-{k}"
    for p, k in zip(BATCH_POLICIES, BATCH_CASE_NUMBERS, strict=True)])
def test_act_batch_matches_act_row_by_row(policy, catch_up):
    """On the observations of real episodes, `_pick_rows` over `choices`
    picks what act picks for every episode, and leaves every episode's
    generator where act does, up to its block's unused tail."""
    cfg = EnvConfig(num_servers=6, downtime=3, probe_gain=0.15, miss_prob=0.2, horizon=150)
    n = 12
    env = MtdBatchEnv(cfg)
    side = int(policy.player != ADVERSARY)
    obs = env.reset([derive_seed(5, "obs", b) for b in range(n)]).transpose(0, 2, 3, 1)[side]
    row_rngs = [np.random.default_rng(b) for b in range(n)]
    stream = BlockStream([np.random.default_rng(b) for b in range(n)])
    play = np.random.default_rng(9)
    acted = 0
    while not env.done:
        tau = env.tau
        want = [policy.act(o, tau, rng) for o, rng in zip(obs, row_rngs)]
        found = policy.choices(obs, tau)
        got = [-1] * n if found is None else _pick_rows(*found, stream).tolist()
        assert got == want, f"step {tau}"
        acted += sum(a >= 0 for a in want)
        adv = np.where(play.random(n) < 0.8, play.integers(0, 6, n), -1)
        deff = np.where(play.random(n) < 0.15, play.integers(0, 6, n), -1)
        obs = env.step(adv, deff)[0].transpose(0, 2, 3, 1)[side]
    catch_up(row_rngs, stream)
    assert acted > 0 or isinstance(policy, NoOpPolicy)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_pick_rows_gives_a_top_candidate_or_minus_one(m):
    """Over seeded random masks and scores, with rows of no candidate, rows
    of every server, ties and an empty batch: `_pick_rows` gives -1 exactly
    where a row has no candidate, else one of the row's top scorers.  So its
    picks lie in [-1, M), which `MtdBatchEnv._step` takes unchecked."""
    rng = np.random.default_rng(m)
    tied = 0
    for n in (0, 1, 6, 40):
        stream = BlockStream([np.random.default_rng(b) for b in range(n)])
        for _ in range(25):
            # per row: no candidate, every server, or a random half
            density = rng.choice([0.0, 0.5, 1.0], size=(n, 1))
            mask = rng.random((n, m)) < density
            score = rng.integers(0, 3, (n, m)) if rng.random() < 0.7 else None
            picks = _pick_rows(mask, score, stream)
            assert picks.shape == (n,) and picks.dtype.kind == "i"
            for row, pick in zip(range(n), picks.tolist(), strict=True):
                if not mask[row].any():
                    assert pick == -1
                    continue
                assert 0 <= pick < m and mask[row, pick]
                top = mask[row] if score is None else mask[row] & (
                    score[row] == score[row][mask[row]].max())
                assert top[pick]
                tied += top.sum() > 1
    assert tied > 0 or m == 1   # ties were drawn


def test_choices_and_picks_ignore_the_observation_layout():
    """On the env's plane-backed stacks and on C-contiguous copies of them,
    every policy's choices are equal arrays, and `_pick_rows` over them
    picks the same servers and leaves the same cursors."""
    cfg = EnvConfig(num_servers=6, downtime=3, probe_gain=0.15, miss_prob=0.2, horizon=150)
    n = 12
    rng = np.random.default_rng(4)
    policies = [*BATCH_POLICIES, *(QNetworkPolicy(player, QNetwork(30, 7, rng, hidden=(8,)),
                                                  cfg, "qnet") for player in (ADVERSARY, DEFENDER))]
    streams = [[BlockStream([np.random.default_rng(b) for b in range(n)]) for _ in "ab"]
               for _ in policies]
    env = MtdBatchEnv(cfg)
    stacks = env.reset([derive_seed(6, "obs", b) for b in range(n)]).transpose(0, 2, 3, 1)
    play = np.random.default_rng(9)
    while not env.done:
        for policy, (plane_stream, copy_stream) in zip(policies, streams):
            obs = stacks[int(policy.player != ADVERSARY)]
            dense = np.ascontiguousarray(obs)
            assert not obs.flags.c_contiguous and dense.flags.c_contiguous
            got, want = policy.choices(obs, env.tau), policy.choices(dense, env.tau)
            assert (got is None) == (want is None), policy.label
            if got is None:
                continue
            for g, w in zip(got, want, strict=True):
                assert (g is None) == (w is None) and (g is None or g.dtype == w.dtype)
                np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(_pick_rows(*got, plane_stream),
                                          _pick_rows(*want, copy_stream))
            np.testing.assert_array_equal(plane_stream.cursor, copy_stream.cursor)
        adv = np.where(play.random(n) < 0.8, play.integers(0, 6, n), -1)
        deff = np.where(play.random(n) < 0.15, play.integers(0, 6, n), -1)
        stacks = env.step(adv, deff)[0].transpose(0, 2, 3, 1)
    # ties were drawn: some stream left its first, still unfilled, block
    assert any((plane_stream.cursor != 2 * BLOCK_WORDS).any() for plane_stream, _ in streams)


@pytest.mark.parametrize("gain", [0.05, 0.3])
def test_expected_control_rows_match_scalar_bits(gain):
    """On a stack and on each matrix alone, expected_defender_control gives
    the bits of the one-server-at-a-time Python sum it replaced."""
    rng = np.random.default_rng(4)
    obs = np.zeros((500, 10, 5), dtype=np.int64)
    obs[..., COL_STATUS] = rng.random((500, 10)) < 0.8
    obs[..., COL_PROGRESS] = rng.integers(0, 200, (500, 10)) * (rng.random((500, 10)) < 0.9)

    def reference(o):
        total = 0.0
        for status, k in o[:, [COL_STATUS, COL_PROGRESS]].tolist():
            if status == 1:
                compromised = 0.0 if k == 0 else 1.0 - math.exp(-gain * k)
                total += 1.0 - compromised
        return total

    want = [reference(o) for o in obs]
    assert expected_defender_control(obs, gain).tolist() == want
    assert [float(expected_defender_control(o, gain)) for o in obs] == want


def reference_payoff(adv, deff, cfg, episodes, seed):
    """evaluate_pair as one run_episode per episode."""
    ra, rd = np.array([run_episode(adv, deff, cfg, derive_seed(seed, "episode", e))
                       for e in range(episodes)]).T
    se = (0.0, 0.0) if episodes == 1 else (
        float(ra.std(ddof=1) / math.sqrt(episodes)), float(rd.std(ddof=1) / math.sqrt(episodes)))
    return (float(ra.mean()), float(rd.mean()), *se)


def grid_seeds(master, advs, defs):
    return [[derive_seed(master, a.label, d.label) for d in defs] for a in advs]


def cell(u, se, i, j):
    """Cell (i, j) of `evaluate_cells`'s arrays as (u_adv, u_def, se_adv, se_def)."""
    return (*u[:, i, j].tolist(), *se[:, i, j].tolist())


@pytest.mark.parametrize("episodes", [1, 3])
def test_evaluate_cells_matches_episode_by_episode(episodes):
    cfg = EnvConfig(num_servers=5, miss_prob=0.1, horizon=120)
    rng = np.random.default_rng(4)   # both networks below pick every action, no-op too
    advs = [*default_adversaries(),
            QNetworkPolicy(ADVERSARY, QNetwork(25, 6, rng, hidden=(8,)), cfg, "qnet")]
    defs = [*default_defenders(cfg),
            QNetworkPolicy(DEFENDER, QNetwork(25, 6, rng, hidden=(8,)), cfg, "qnet")]
    seeds = grid_seeds(3, advs, defs)
    u, se = evaluate_cells(advs, defs, seeds, cfg, episodes)
    assert u.shape == se.shape == (2, len(advs), len(defs))
    for i, adv in enumerate(advs):
        for j, deff in enumerate(defs):
            want = reference_payoff(adv, deff, cfg, episodes, seeds[i][j])
            assert cell(u, se, i, j) == want, (adv.label, deff.label)


class ActOnlyAdversary(PurePolicy):
    """A policy with `act` but no `choices`."""

    player = ADVERSARY
    label = "act-only"

    def act(self, obs, tau, rng):
        return -1


def test_evaluate_cells_needs_choices(short):
    with pytest.raises(NotImplementedError):
        evaluate_cells([ActOnlyAdversary()], [NoOpPolicy(DEFENDER)], [[0]], short, 1)


def test_evaluate_cells_chunks_match_one_batch(short):
    advs, defs = default_adversaries(), default_defenders(short)
    seeds = grid_seeds(8, advs, defs)
    got, want = (evaluate_cells(advs, defs, seeds, short, 2, jobs=j) for j in (3, 1))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 5), (4, 1), (4, 5)])
def test_evaluate_cells_splits_a_row_or_a_column(short, shape):
    """jobs=2 splits a 1xn row or an mx1 column, as `extend_game` evaluates
    them, and the rows of a 4x5 table, and gives the bits of one batch."""
    advs, defs = default_adversaries()[:shape[0]], default_defenders(short)[:shape[1]]
    seeds = grid_seeds(2, advs, defs)
    got, want = (evaluate_cells(advs, defs, seeds, short, 2, jobs=j) for j in (2, 1))
    np.testing.assert_array_equal(got, want)


def test_evaluate_cells_grid_cells_match_sub_grids(short):
    """Each cell of a grid gets the payoffs it gets alone, in its row and in
    its column: `extend_game` evaluates a new row or column by itself."""
    advs, defs = default_adversaries(), default_defenders(short)
    seeds = grid_seeds(6, advs, defs)
    u, se = evaluate_cells(advs, defs, seeds, short, 2)
    for i, adv in enumerate(advs):
        row = evaluate_cells([adv], defs, seeds[i:i + 1], short, 2)
        for j, deff in enumerate(defs):
            col = evaluate_cells(advs, [deff], [r[j:j + 1] for r in seeds], short, 2)
            alone = evaluate_cells([adv], [deff], [[seeds[i][j]]], short, 2)
            want = cell(u, se, i, j)
            assert cell(*row, 0, j) == cell(*col, i, 0) == cell(*alone, 0, 0) == want


def test_evaluate_cells_without_cells_steps_nothing(short, monkeypatch):
    def no_batch(*args):
        raise AssertionError("stepped a batch without cells")

    monkeypatch.setattr(policies, "_lockstep", no_batch)
    advs, defs = default_adversaries(), default_defenders(short)
    for grid, shape in (((advs, [], [[]] * 4), (2, 4, 0)), (([], defs, []), (2, 0, 5))):
        for jobs in (1, 4):
            u, se = evaluate_cells(*grid, short, 3, jobs=jobs)
            assert u.shape == se.shape == shape


@pytest.mark.parametrize("counts", [
    {"episodes": 0}, {"episodes": -1}, {"episodes": 2.0}, {"episodes": True},
    {"episodes": np.bool_(True)}, {"jobs": 0}, {"jobs": -2}, {"jobs": 1.0}, {"jobs": True}])
def test_evaluate_cells_rejects_bad_counts(short, counts):
    grid = ([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)], [[0]])
    name, value = next(iter(counts.items()))
    message = f"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        evaluate_cells(*grid, short, **{"episodes": 1, **counts})
    with pytest.raises(ValueError, match=f"^{name} must be"):
        evaluate_cells([], [], [], short, **{"episodes": 1, **counts})


@pytest.mark.parametrize("seeds", [[], [[0]], [[0, 1]], [[0, 1], [2]], [[0, 1], [2, 3], [4, 5]]])
def test_evaluate_cells_rejects_seeds_off_the_grid(short, seeds):
    advs, defs = [NoOpPolicy(ADVERSARY), UniformAdversary()], [NoOpPolicy(DEFENDER)] * 2
    with pytest.raises(ValueError, match="^seeds must be a 2x2 grid$"):
        evaluate_cells(advs, defs, seeds, short, 1)


def test_evaluate_pair_stores_counts_as_int(short):
    pair = (NoOpPolicy(ADVERSARY), NoOpPolicy(DEFENDER), short)
    pp = evaluate_pair(*pair, np.int64(2), 0)
    assert type(pp.episodes) is int and pp.episodes == 2
    assert all(type(v) is float for v in (pp.u_adv, pp.u_def, pp.se_adv, pp.se_def))
    assert evaluate_pair(*pair, 2, 0) == pp
    u, se = evaluate_cells(*([p] for p in pair[:2]), [[0]], short, np.int64(2), jobs=np.int32(1))
    assert cell(u, se, 0, 0) == (pp.u_adv, pp.u_def, pp.se_adv, pp.se_def)
