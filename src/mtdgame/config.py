"""Flat key=value config files.

Unknown keys are rejected so typos fail loudly.  The `utenv` shorthand
selects one of four (w_a, w_d) utility weight presets; explicit w_a or w_d
keys override it.  Missing keys keep the baseline defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from mtdgame.double_oracle import DoConfig
from mtdgame.env import ConfigError, EnvConfig
from mtdgame.qlearn import TrainConfig

UTILITY_ENVIRONMENTS = {
    0: (1.0, 1.0),
    1: (1.0, 0.0),
    2: (0.0, 1.0),
    3: (0.0, 0.0),
}


@dataclass(frozen=True)
class ResolvedConfig:
    """A loaded config file.  `do` holds the solver keys; a run supplies its
    training settings and seed from `train` and the command line."""

    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    do: DoConfig = field(default_factory=DoConfig)


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {raw!r}") from None


# key -> (section of ResolvedConfig, attributes it sets, parser), in the
# line order of format_config, which writes the first attribute.
KEYS = {
    "M": ("env", ("num_servers",), _parse_int),
    "delta": ("env", ("downtime",), _parse_int),
    "nu": ("env", ("miss_prob",), _parse_float),
    "alpha": ("env", ("probe_gain",), _parse_float),
    "c_a": ("env", ("probe_cost",), _parse_float),
    "theta_sl": ("env", ("reward_slope_adv", "reward_slope_def"), _parse_float),
    "theta_th": ("env", ("reward_thresh_adv", "reward_thresh_def"), _parse_float),
    "w_a": ("env", ("weight_adv",), _parse_float),
    "w_d": ("env", ("weight_def",), _parse_float),
    "T": ("env", ("horizon",), _parse_int),
    "gamma": ("env", ("discount",), _parse_float),
    "charge_down_probes": ("env", ("charge_down_probes",), _parse_bool),
    "ne": ("train", ("episodes",), _parse_int),
    "batch": ("train", ("batch_size",), _parse_int),
    "learning_rate": ("train", ("learning_rate",), _parse_float),
    "epsilon_fraction": ("train", ("epsilon_fraction",), _parse_float),
    "epsilon_final": ("train", ("epsilon_final",), _parse_float),
    "replay_capacity": ("train", ("replay_capacity",), _parse_int),
    "optimizer": ("train", ("optimizer",), lambda key, raw: raw),
    "eps_do": ("do", ("eps_do",), _parse_float),
    "max_iterations": ("do", ("max_iterations",), _parse_int),
    "eval_episodes": ("do", ("eval_episodes",), _parse_int),
}


def parse_config(text: str) -> ResolvedConfig:
    """Parse config text; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEYS and key != "utenv":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = raw.strip()

    kwargs: dict[str, dict] = {"env": {}, "train": {}, "do": {}}
    if "utenv" in values:
        idx = _parse_int("utenv", values["utenv"])
        if idx not in UTILITY_ENVIRONMENTS:
            raise ConfigError(f"key utenv: must be one of 0..3, got {idx}")
        kwargs["env"]["weight_adv"], kwargs["env"]["weight_def"] = UTILITY_ENVIRONMENTS[idx]
    for key, (section, attrs, parse) in KEYS.items():
        if key in values:
            value = parse(key, values[key])
            kwargs[section].update(dict.fromkeys(attrs, value))
    env = EnvConfig(**kwargs["env"]).validate()
    train = TrainConfig(**{"gamma": env.discount, "horizon": env.horizon,
                           **kwargs["train"]}).validate()
    return ResolvedConfig(env=env, train=train, do=DoConfig(**kwargs["do"]).validate())


def load_config(path: str | Path) -> ResolvedConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return value if isinstance(value, str) else repr(value)


def format_config(rc: ResolvedConfig) -> str:
    """Render the resolved configuration back to loadable key=value text."""
    return "".join(f"{key}={_format_value(getattr(getattr(rc, section), attrs[0]))}\n"
                   for key, (section, attrs, _) in KEYS.items())
