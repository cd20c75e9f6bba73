"""Two-player server control game: state, transitions, rewards, observations.

An adversary probes servers to take control of them; a defender reimages
servers to reclaim them.  Both move simultaneously once per time step and
see only their own side of the world.  A probe on an up server succeeds
with probability 1 - exp(-gain * (probes + 1)), counted over all probes
since the server was last reimaged.  A reimaged server is unavailable for
exactly `downtime` reward evaluations and comes back clean.

Step resolution order is fixed and documented here because both players act
at once: (1) the adversary's probe resolves, (2) the defender's reimage
resolves, (3) the clock advances, which brings back up every server whose
downtime has elapsed, (4) rewards are computed on the post-transition state.

Observations are (num_servers, 5) int64 matrices, one row per server; the
COL_* constants name each player's columns.  The adversary's status,
time_to_up and progress columns reflect only what it has learned: a reimage
of a server it did not control and never probed afterwards leaves those
fields stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADVERSARY = "adversary"
DEFENDER = "defender"

# Observation columns.  Both players see five integers per server.
COL_STATUS = 0        # 1 up, 0 down (adversary: as last learned)
COL_TIME_TO_UP = 1    # steps until the server is back, 0 when up
COL_PROGRESS = 2      # probe count (adversary: own count, defender: observed)
COL_CONTROL = 3       # adversary only: 1 if the adversary controls the server
COL_ADV_SINCE_PROBE = 4
COL_DEF_SINCE_PROBE = 3
COL_DEF_SINCE_REIMAGE = 4

# Exponent clamp for the logistic; keeps exp() finite for any slope input.
_EXP_CLAMP = 500.0


class ConfigError(ValueError):
    """A parameter is outside its documented domain."""


@dataclass(frozen=True)
class EnvConfig:
    """Game parameters, defaulting to the baseline configuration."""

    num_servers: int = 10
    downtime: int = 7            # steps a reimaged server stays unavailable
    miss_prob: float = 0.0       # chance the defender does not observe a probe
    probe_gain: float = 0.05     # knowledge gained per probe
    probe_cost: float = 0.2      # reward charge per probe attempt
    reward_slope: float = 5.0    # logistic slope theta_sl, shared by both players
    reward_thresh: float = 0.2   # logistic threshold theta_th, shared by both players
    weight_adv: float = 0.0      # weight on "servers I control" vs "denied to the other side"
    weight_def: float = 1.0
    horizon: int = 1000
    discount: float = 0.99
    charge_down_probes: bool = True  # probes on down servers still cost probe_cost

    def __post_init__(self):
        # every comparison is written so that NaN fails it
        for name in ("num_servers", "downtime", "horizon"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("miss_prob", "weight_adv", "weight_def"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
        for name in ("probe_gain", "reward_slope"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must lie in (0, inf), got {getattr(self, name)!r}")
        if not 0.0 <= self.probe_cost < math.inf:
            raise ConfigError(f"probe_cost must lie in [0, inf), got {self.probe_cost!r}")
        if not math.isfinite(self.reward_thresh):
            raise ConfigError(f"reward_thresh must be finite, got {self.reward_thresh!r}")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError(f"discount must lie in [0, 1), got {self.discount!r}")


def compromise_probability(probes: int, gain: float) -> float:
    """Chance that the next probe takes the server, given probes so far."""
    if probes < 0:
        raise ValueError("probe count cannot be negative")
    return 1.0 - math.exp(-gain * (probes + 1))


def logistic(x: float, slope: float, threshold: float) -> float:
    """Saturating reward shape, 0.5 at the threshold."""
    z = slope * (x - threshold)
    if z > _EXP_CLAMP:
        z = _EXP_CLAMP
    elif z < -_EXP_CLAMP:
        z = -_EXP_CLAMP
    return 1.0 / (1.0 + math.exp(-z))


def utility(player: str, n_control: int, n_down: int, cfg: EnvConfig) -> float:
    """Blend of "fraction I control" and "fraction denied to the other side"."""
    m = cfg.num_servers
    if player == ADVERSARY:
        w = cfg.weight_adv
    elif player == DEFENDER:
        w = cfg.weight_def
    else:
        raise ValueError(f"unknown player {player!r}")
    slope, thresh = cfg.reward_slope, cfg.reward_thresh
    own = logistic(n_control / m, slope, thresh)
    denied = logistic((n_control + n_down) / m, slope, thresh)
    return w * own + (1.0 - w) * denied


@dataclass
class StepOutcome:
    obs_adv: np.ndarray
    obs_def: np.ndarray
    reward_adv: float
    reward_def: float


class MtdEnv:
    """The game.  Holds true server state plus both players' memories.

    Actions are a server index or None for no-op.  Time starts at 0;
    an episode ends after `horizon` steps (a time limit, not a terminal
    state, so learned value estimates may still bootstrap past it).
    """

    def __init__(self, config: EnvConfig):
        self.cfg = config
        self.tau = 0
        self._ready = False

    def reset(self, seed) -> tuple[np.ndarray, np.ndarray]:
        """Start a fresh episode: all servers up, clean, and unprobed."""
        m = self.cfg.num_servers
        self.rng = np.random.default_rng(seed)
        self.tau = 0
        # true state
        self.probes = [0] * m            # probes since last reimage
        self.adv_owned = [False] * m
        self.up_at = [0] * m             # the server is down while tau < up_at
        # adversary memory
        self.adv_progress = [0] * m      # own probe count since last known reimage
        self.adv_last_probe = [0] * m
        self.adv_up_at = [0] * m         # up_at as the adversary last learned it
        # defender memory
        self.def_probes_seen = [0] * m
        self.def_last_probe = [0] * m
        self.def_last_reimage = [0] * m
        self._ready = True
        return self.observe(ADVERSARY), self.observe(DEFENDER)

    @property
    def done(self) -> bool:
        return self.tau >= self.cfg.horizon

    def counts(self) -> tuple[int, int, int]:
        """(adversary-controlled up, defender-controlled up, down).  A
        controlled server is always up: a reimage ends control."""
        tau = self.tau
        n_down = sum(1 for u in self.up_at if tau < u)
        n_adv = sum(self.adv_owned)
        return n_adv, self.cfg.num_servers - n_adv - n_down, n_down

    def step(self, adv_target: int | None, def_target: int | None) -> StepOutcome:
        if not self._ready:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episode is over, call reset()")
        cfg = self.cfg
        m = cfg.num_servers
        for t in (adv_target, def_target):
            if t is not None and not 0 <= int(t) < m:
                raise ValueError(f"server index {t!r} out of range")
        clock = self.tau
        resolve = clock + 1  # the clock at which this step's effects are first visible

        # 1) adversary probe
        probed_up = False
        if adv_target is not None:
            i = int(adv_target)
            if self.up_at[i] <= clock:
                probed_up = True
                # The probe being resolved already counts toward rho when the
                # success formula is applied, so the k-th probe of a clean
                # server lands with probability 1 - exp(-gain * (k + 1)).
                self.probes[i] += 1
                p = compromise_probability(self.probes[i], cfg.probe_gain)
                if self.rng.random() < p:
                    self.adv_owned[i] = True
                self.adv_progress[i] += 1
                self.adv_last_probe[i] = resolve
                if self.rng.random() >= cfg.miss_prob:
                    self.def_probes_seen[i] += 1
                    self.def_last_probe[i] = resolve
            else:
                # Probing a down server changes nothing but teaches the
                # adversary the true status and wipes its stale progress count.
                self.adv_up_at[i] = self.up_at[i]
                self.adv_progress[i] = 0
                self.adv_last_probe[i] = resolve

        # 2) defender reimage (a down target is a silent no-op); the server
        # is down for exactly cfg.downtime reward evaluations, at clocks
        # resolve .. resolve + downtime - 1
        if def_target is not None:
            i = int(def_target)
            if self.up_at[i] <= clock:
                up_at = resolve + cfg.downtime
                if self.adv_owned[i]:
                    # Losing a compromised server is always noticed.
                    self.adv_owned[i] = False
                    self.adv_up_at[i] = up_at
                    self.adv_progress[i] = 0
                self.probes[i] = 0
                self.up_at[i] = up_at
                self.def_probes_seen[i] = 0
                self.def_last_probe[i] = resolve
                self.def_last_reimage[i] = resolve

        # 3) advance the clock
        self.tau = resolve

        # 4) rewards on the post-transition state
        n_adv, n_def, n_down = self.counts()
        u_a = utility(ADVERSARY, n_adv, n_down, cfg)
        u_d = utility(DEFENDER, n_def, n_down, cfg)
        cost = 0.0
        if adv_target is not None and (probed_up or cfg.charge_down_probes):
            cost = cfg.probe_cost
        return StepOutcome(
            obs_adv=self.observe(ADVERSARY),
            obs_def=self.observe(DEFENDER),
            reward_adv=u_a - cost,
            reward_def=u_d,
        )

    def observe(self, player: str) -> np.ndarray:
        if not self._ready:
            raise RuntimeError("call reset() first")
        tau = self.tau
        if player == ADVERSARY:
            up_at, progress, last = self.adv_up_at, self.adv_progress, self.adv_last_probe
            col3 = self.adv_owned
        elif player == DEFENDER:
            up_at, progress, last = self.up_at, self.def_probes_seen, self.def_last_reimage
            col3 = [tau - t for t in self.def_last_probe]
        else:
            raise ValueError(f"unknown player {player!r}")
        rows = []
        for u, p, c, t in zip(up_at, progress, col3, last):
            rows += (0, u - tau, p, c, tau - t) if tau < u else (1, 0, p, c, tau - t)
        return np.array(rows, dtype=np.int64).reshape(-1, 5)
