from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdgame.env import (
    ADVERSARY,
    COL_PROGRESS,
    COL_STATUS,
    DEFENDER,
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
    default_adversaries,
    default_defenders,
    evaluate_cells,
    evaluate_pair,
    expected_defender_control,
    heuristic,
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
    literal = math.exp(-0.05 * 5)
    assert expected_defender_control(obs, 0.05, literal_exponent=True) == pytest.approx(
        literal, abs=1e-12)


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
    advs = default_adversaries(baseline)
    defs = default_defenders(baseline)
    assert [p.label for p in advs] == ["noop", "uniform", "maxprobe",
                                       "control_threshold"]
    assert [p.label for p in defs] == ["noop", "uniform", "maxprobe", "pcp",
                                       "control_threshold"]
    assert all(p.player == ADVERSARY for p in advs)
    assert all(p.player == DEFENDER for p in defs)


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
    ControlThresholdDefender(threshold=0.95, period=2, gain=0.3, literal_exponent=True),
]


# Fixed case names: the number tells apart the policies that share a label,
# so a case keeps its name from one run to the next.
BATCH_CASE_NUMBERS = [424, 64, 488, 832, 856, 0, 24, 152, 128,
                      512, 872, 96, 512, 640, 960, 792, 896]


@pytest.mark.parametrize("policy", BATCH_POLICIES, ids=[
    f"{p.player[:3]}-{p.label}-{k}"
    for p, k in zip(BATCH_POLICIES, BATCH_CASE_NUMBERS, strict=True)])
def test_act_batch_matches_act_row_by_row(policy):
    """On the observations of real episodes, act_batch picks what act picks
    for every episode, and leaves every episode's generator where act does."""
    cfg = EnvConfig(num_servers=6, downtime=3, probe_gain=0.15, miss_prob=0.2, horizon=150)
    n = 12
    env = MtdBatchEnv(cfg)
    obs = env.reset([derive_seed(5, "obs", b) for b in range(n)])[policy.player != ADVERSARY]
    row_rngs = [np.random.default_rng(b) for b in range(n)]
    batch_rngs = [np.random.default_rng(b) for b in range(n)]
    play = np.random.default_rng(9)
    acted = 0
    while not env.done:
        tau = env.tau
        want = [policy.act(o, tau, rng) for o, rng in zip(obs, row_rngs)]
        got = policy.act_batch(obs, tau, batch_rngs)
        assert got.tolist() == want, f"step {tau}"
        acted += sum(a >= 0 for a in want)
        adv = np.where(play.random(n) < 0.8, play.integers(0, 6, n), -1)
        deff = np.where(play.random(n) < 0.15, play.integers(0, 6, n), -1)
        obs = env.step(adv, deff)[policy.player != ADVERSARY]
    assert [r.bit_generator.state for r in row_rngs] == \
        [r.bit_generator.state for r in batch_rngs]
    assert acted > 0 or isinstance(policy, NoOpPolicy)


@pytest.mark.parametrize("gain,literal", [(0.05, False), (0.05, True), (0.3, False)])
def test_expected_control_rows_match_scalar_bits(gain, literal):
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
                compromised = 0.0 if k == 0 else 1.0 - math.exp(-gain * (k + 1 if literal else k))
                total += 1.0 - compromised
        return total

    want = [reference(o) for o in obs]
    assert expected_defender_control(obs, gain, literal).tolist() == want
    assert [float(expected_defender_control(o, gain, literal)) for o in obs] == want


def reference_payoff(adv, deff, cfg, episodes, seed):
    """evaluate_pair as one run_episode per episode."""
    ra, rd = np.array([run_episode(adv, deff, cfg, derive_seed(seed, "episode", e))
                       for e in range(episodes)]).T
    se = (0.0, 0.0) if episodes == 1 else (
        float(ra.std(ddof=1) / math.sqrt(episodes)), float(rd.std(ddof=1) / math.sqrt(episodes)))
    return (float(ra.mean()), float(rd.mean()), *se)


class RowByRowAdversary(UniformAdversary):
    """A policy that only has `act`: the evaluator takes its choices one-hot."""

    choices = PurePolicy.choices


@pytest.mark.parametrize("episodes", [1, 3])
def test_evaluate_cells_matches_episode_by_episode(episodes):
    cfg = EnvConfig(num_servers=5, miss_prob=0.1, horizon=120, charge_down_probes=False)
    rng = np.random.default_rng(4)   # both networks below pick every action, no-op too
    advs = [*default_adversaries(cfg), RowByRowAdversary(period=2, label="rows"),
            QNetworkPolicy(ADVERSARY, QNetwork(25, 6, rng, hidden=(8,)), cfg, "qnet")]
    defs = [*default_defenders(cfg),
            QNetworkPolicy(DEFENDER, QNetwork(25, 6, rng, hidden=(8,)), cfg, "qnet")]
    cells = [(a, d, derive_seed(3, a.label, d.label)) for a in advs for d in defs]
    got = evaluate_cells(cells, cfg, episodes)
    for (adv, deff, seed), pp in zip(cells, got):
        want = reference_payoff(adv, deff, cfg, episodes, seed)
        assert (pp.u_adv, pp.u_def, pp.se_adv, pp.se_def) == want, (adv.label, deff.label)
        assert pp.episodes == episodes


def test_evaluate_cells_chunks_match_one_batch(short):
    cells = [(a, d, derive_seed(8, a.label, d.label))
             for a in default_adversaries(short) for d in default_defenders(short)]
    assert evaluate_cells(cells, short, 2, jobs=3) == evaluate_cells(cells, short, 2)
