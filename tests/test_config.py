from __future__ import annotations

import math
from dataclasses import fields, replace

import pytest

from mtdgame.config import (
    KEYS,
    UTILITY_ENVIRONMENTS,
    ResolvedConfig,
    format_config,
    load_config,
    parse_config,
)
from mtdgame.double_oracle import DoConfig
from mtdgame.env import ConfigError, EnvConfig
from mtdgame.policies import HEURISTICS, heuristic, heuristic_params
from mtdgame.qlearn import TrainConfig


def test_empty_text_yields_baseline():
    rc = parse_config("")
    env = rc.env
    assert env.num_servers == 10
    assert env.downtime == 7
    assert env.miss_prob == 0.0
    assert env.probe_gain == 0.05
    assert env.probe_cost == 0.2
    assert env.reward_slope == 5.0 and env.reward_thresh == 0.2
    assert (env.weight_adv, env.weight_def) == (0.0, 1.0)
    assert env.horizon == 1000 and env.discount == 0.99
    assert rc.train.episodes == 500
    assert rc.train.batch_size == 32
    assert rc.train.learning_rate == 0.0005
    assert rc.do == DoConfig()


def test_comments_and_blank_lines_ignored():
    rc = parse_config("# a comment\n\nM=4\n  # indented comment\n")
    assert rc.env.num_servers == 4


@pytest.mark.parametrize("idx,weights", sorted(UTILITY_ENVIRONMENTS.items()))
def test_utility_environment_presets(idx, weights):
    rc = parse_config(f"utenv={idx}\n")
    assert (rc.env.weight_adv, rc.env.weight_def) == weights


def test_explicit_weight_overrides_preset():
    rc = parse_config("utenv=2\nw_a=0.25\n")
    assert rc.env.weight_adv == 0.25
    assert rc.env.weight_def == 1.0


def test_unknown_utenv_rejected():
    with pytest.raises(ConfigError):
        parse_config("utenv=7\n")


def test_theta_keys_set_both_players():
    rc = parse_config("theta_sl=3.5\ntheta_th=0.4\n")
    assert rc.env.reward_slope == 3.5 and rc.env.reward_thresh == 0.4


def test_horizon_and_discount_flow_into_training():
    rc = parse_config("T=500\ngamma=0.9\n")
    assert rc.env.horizon == 500
    assert rc.env.discount == 0.9


@pytest.mark.parametrize("text", [
    "gamma=1.0\n",
    "M=0\n",
    "M=ten\n",
    "nosuchkey=1\n",
    "just a line without equals\n",
    "ne=0\n",
    "batch=0\n",
    "optimizer=rmsprop\n",
    "eps_do=inf\n",
    "eps_do=-1\n",
    "max_iterations=-2\n",
    "eval_episodes=0\n",
    "charge_down_probes=1\n",
    "optimizer=adam\n",
])
def test_bad_inputs_rejected(text):
    # a bad value is reported under the key the file used, never the field's name
    key = text.partition("=")[0]
    with pytest.raises(ConfigError, match=f"^key {key}: " if key in KEYS else "^line 1: "):
        parse_config(text)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["c_a", "theta_sl", "theta_th", "learning_rate"])
def test_non_finite_numbers_rejected(key, value):
    with pytest.raises(ConfigError, match=f"key {key}: expected a finite number"):
        parse_config(f"{key}={value}\n")


@pytest.mark.parametrize("text", ["M=4\nM=5\n", "utenv=1\n# comment\nutenv = 1\n"])
def test_repeated_key_rejected(text):
    key = text.partition("=")[0]
    with pytest.raises(ConfigError, match=f"key {key} given twice"):
        parse_config(text)


def test_training_keys():
    rc = parse_config("ne=40\nbatch=16\nlearning_rate=0.001\nepsilon_fraction=0.3\n"
                      "epsilon_final=0.05\nreplay_capacity=512\n")
    t = rc.train
    assert (t.episodes, t.batch_size, t.learning_rate) == (40, 16, 0.001)
    assert (t.epsilon_fraction, t.epsilon_final) == (0.3, 0.05)
    assert t.replay_capacity == 512


def test_solver_keys():
    rc = parse_config("eps_do=0.5\nmax_iterations=4\neval_episodes=12\n")
    assert rc.do == DoConfig(eps_do=0.5, max_iterations=4, eval_episodes=12)


def test_format_round_trip():
    original = parse_config("M=6\ndelta=3\nalpha=0.1\nutenv=1\nT=200\nne=7\n"
                            "batch=4\neps_do=0.25\nmax_iterations=2\n")
    text = format_config(original)
    again = parse_config(text)
    assert again == original
    assert format_config(again) == text


def test_config_classes_match_the_config_file():
    """Every field of the three config classes is set by exactly one key
    (utenv, a shorthand for w_a and w_d, aside), and format_config writes
    every key, so a field that no file can set does not exist."""
    sections = {"env": EnvConfig, "train": TrainConfig, "do": DoConfig}
    settable = [(section, f.name) for section, cls in sections.items() for f in fields(cls)]
    assert sorted(KEYS.values()) == sorted(settable)
    written = [line.partition("=")[0] for line in format_config(ResolvedConfig()).splitlines()]
    assert written == list(KEYS)


def test_every_setting_rejects_nan():
    """Every setting that is not a string is checked: NaN fails it, and the
    error names the setting."""
    cases = [(cls(), fields(cls)) for cls in (EnvConfig, TrainConfig, DoConfig)]
    cases += [(heuristic(*key), heuristic_params(cls)) for key, cls in HEURISTICS.items()]
    checked = [(obj, f.name) for obj, params in cases for f in params if f.type != "str"]
    assert len(checked) == 30
    for obj, name in checked:
        with pytest.raises(ConfigError, match=f"^{name} must"):
            replace(obj, **{name: math.nan})


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("M=3\nT=100\n", encoding="utf-8")
    rc = load_config(p)
    assert rc.env.num_servers == 3 and rc.env.horizon == 100


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_resolved_config_is_plain_data():
    rc = parse_config("")
    assert isinstance(rc, ResolvedConfig)
    with pytest.raises(AttributeError):
        rc.env = None
