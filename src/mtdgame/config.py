"""Flat key=value config files.

Unknown keys are rejected so typos fail loudly.  The `utenv` shorthand
selects one of four (w_a, w_d) utility weight presets; explicit w_a or w_d
keys override it.  Missing keys keep the baseline defaults.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
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
    """A loaded config file.  Training runs for `env.horizon` steps per
    episode and discounts by `env.discount`; a run supplies the seeds."""

    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    do: DoConfig = field(default_factory=DoConfig)


def parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


_TextValue = namedtuple("_TextValue", "read write expected")

# Field annotation -> how values of that type are read from and written to
# text, for config keys and heuristic policy-line parameters alike.  The
# annotations are strings because the dataclass modules postpone evaluation.
TEXT_VALUES = {
    "int": _TextValue(int, lambda v: str(int(v)), "an integer"),
    "float": _TextValue(parse_finite, lambda v: repr(float(v)), "a finite number"),
}

# section of ResolvedConfig -> the config class it holds; (section,
# attribute) -> the attribute's annotation, a key of TEXT_VALUES
_SECTIONS = {f.name: f.default_factory for f in fields(ResolvedConfig)}
_KINDS = {(section, f.name): f.type
          for section, cls in _SECTIONS.items() for f in fields(cls)}

# key -> (section of ResolvedConfig, attribute it sets), in the line order
# of format_config.
KEYS = {
    "M": ("env", "num_servers"),
    "delta": ("env", "downtime"),
    "nu": ("env", "miss_prob"),
    "alpha": ("env", "probe_gain"),
    "c_a": ("env", "probe_cost"),
    "theta_sl": ("env", "reward_slope"),
    "theta_th": ("env", "reward_thresh"),
    "w_a": ("env", "weight_adv"),
    "w_d": ("env", "weight_def"),
    "T": ("env", "horizon"),
    "gamma": ("env", "discount"),
    "ne": ("train", "episodes"),
    "batch": ("train", "batch_size"),
    "learning_rate": ("train", "learning_rate"),
    "epsilon_fraction": ("train", "epsilon_fraction"),
    "epsilon_final": ("train", "epsilon_final"),
    "replay_capacity": ("train", "replay_capacity"),
    "eps_do": ("do", "eps_do"),
    "max_iterations": ("do", "max_iterations"),
    "eval_episodes": ("do", "eval_episodes"),
}


def _read(key: str, kind: str, raw: str):
    try:
        return TEXT_VALUES[kind].read(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected {TEXT_VALUES[kind].expected}, "
                          f"got {raw!r}") from None


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
        if key in values:
            raise ConfigError(f"line {lineno}: key {key} given twice")
        values[key] = raw.strip()

    kwargs: dict[str, dict] = {section: {} for section in _SECTIONS}
    if "utenv" in values:
        idx = _read("utenv", "int", values["utenv"])
        if idx not in UTILITY_ENVIRONMENTS:
            raise ConfigError(f"key utenv: must be one of 0..3, got {idx}")
        kwargs["env"]["weight_adv"], kwargs["env"]["weight_def"] = UTILITY_ENVIRONMENTS[idx]
    for key, (section, attr) in KEYS.items():
        if key in values:
            kwargs[section][attr] = _read(key, _KINDS[section, attr], values[key])
    try:
        return ResolvedConfig(**{section: make(**kwargs[section])
                                 for section, make in _SECTIONS.items()})
    except ConfigError as exc:
        # the error starts with the field's name; report it under the file's key
        attr, _, rest = str(exc).partition(" ")
        key = next((k for k, (_, a) in KEYS.items() if a == attr), attr)
        raise ConfigError(f"key {key}: {rest}") from None


def load_config(path: str | Path) -> ResolvedConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def format_config(rc: ResolvedConfig) -> str:
    """Render the resolved configuration back to loadable key=value text."""
    return "".join(
        f"{key}={TEXT_VALUES[_KINDS[section, attr]].write(getattr(getattr(rc, section), attr))}\n"
        for key, (section, attr) in KEYS.items())
