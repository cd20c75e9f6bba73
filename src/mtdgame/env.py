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

Each player's action is one server index, or -1 for no-op.  Observations
are (num_servers, 5) int64 matrices, one row per server; the COL_*
constants name each player's columns.  The adversary's status, time_to_up
and progress columns reflect only what it has learned: a reimage of a
server it did not control and never probed afterwards leaves those fields
stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

# Uniforms a lockstep episode draws from its generator at a time.
UNIFORM_BLOCK = 64


class ConfigError(ValueError):
    """A parameter is outside its documented domain."""


def check_integers(cfg, low: int, *names: str) -> None:
    """Raise ConfigError unless each named setting of the frozen dataclass
    cfg is an integer (numpy integers too, bools not) and at least `low`;
    store each as a Python int."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not value >= low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        object.__setattr__(cfg, name, int(value))


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
        check_integers(self, 1, "num_servers", "downtime", "horizon")
        # every comparison is written so that NaN fails it
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


@lru_cache(maxsize=16)
def _tables(cfg: EnvConfig) -> tuple[tuple, tuple, tuple]:
    """Rewards and compromise chances, computed once per config.

    Returns `(u_adv, u_def, compromise)`: `u_adv[c][d]` is
    `utility(ADVERSARY, c, d, cfg)` for c servers controlled and d down, and
    `u_def` likewise; `compromise[k]` is the chance that a probe lands when
    it is the k-th since the last reimage, `compromise_probability(k, gain)`.
    A server is probed at most once a step, so k never exceeds the horizon.
    """
    m = cfg.num_servers
    u_adv, u_def = (tuple(tuple(utility(player, c, d, cfg) for d in range(m + 1))
                          for c in range(m + 1)) for player in (ADVERSARY, DEFENDER))
    compromise = tuple(compromise_probability(k, cfg.probe_gain)
                       for k in range(cfg.horizon + 1))
    return u_adv, u_def, compromise


class MtdEnv:
    """The game.  Holds true server state plus both players' memories.

    Actions are a server index or -1 for no-op.  Time starts at 0;
    an episode ends after `horizon` steps (a time limit, not a terminal
    state, so learned value estimates may still bootstrap past it).
    """

    def __init__(self, config: EnvConfig):
        self.cfg = config
        self.tau = 0
        self._ready = False
        self._u_adv, self._u_def, self._compromise = _tables(config)

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

    def step(self, adv_target: int, def_target: int,
             ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Advance one step; returns (obs_adv, obs_def, reward_adv, reward_def)."""
        if not self._ready:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episode is over, call reset()")
        cfg = self.cfg
        m = cfg.num_servers
        for t in (adv_target, def_target):
            if isinstance(t, (bool, float, np.bool_, np.floating)) or not -1 <= t < m:
                raise ValueError(f"server index {t!r} is not an integer in [-1, {m}), "
                                 "-1 for no-op")
        clock = self.tau
        resolve = clock + 1  # the clock at which this step's effects are first visible

        # 1) adversary probe
        probed_up = False
        if adv_target >= 0:
            i = adv_target
            if self.up_at[i] <= clock:
                probed_up = True
                # The probe being resolved already counts toward rho when the
                # success formula is applied, so the k-th probe of a clean
                # server lands with probability 1 - exp(-gain * (k + 1)).
                self.probes[i] += 1
                if self.rng.random() < self._compromise[self.probes[i]]:
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
        if def_target >= 0:
            i = def_target
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
        u_a = self._u_adv[n_adv][n_down]
        u_d = self._u_def[n_def][n_down]
        if adv_target >= 0 and (probed_up or cfg.charge_down_probes):
            u_a -= cfg.probe_cost
        return self.observe(ADVERSARY), self.observe(DEFENDER), u_a, u_d

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


class MtdBatchEnv:
    """Many independent episodes of the game, stepped in lockstep.

    State is one (episodes, num_servers) integer array per `MtdEnv` list,
    each also held flat so that a step indexes it with one array of
    `episode * num_servers + server` positions, and every step follows
    `MtdEnv.step`'s resolution order.  Each episode keeps its own generator
    and takes from it exactly the uniforms `MtdEnv` would for the same
    actions, so episode b run here and an `MtdEnv` reset with `seeds[b]`
    give identical observations and rewards.  The uniforms are drawn
    UNIFORM_BLOCK at a time: `random(n)` gives the doubles of n `random()`
    calls, so a generator only runs ahead by its block's unused tail.
    Actions are one integer server index per episode, -1 for no-op.
    Rewards and compromise chances come from the same tables as `MtdEnv`'s.
    """

    def __init__(self, config: EnvConfig):
        self.cfg = config
        self.tau = 0
        self.rngs = None
        u_adv, u_def, compromise = _tables(config)
        self._u_adv = np.array(u_adv)
        self._u_def = np.array(u_def)
        self._compromise = np.array(compromise)

    def reset(self, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Start one fresh episode per seed; returns (episodes, M, 5)
        observation stacks for the adversary and the defender."""
        n, m = len(seeds), self.cfg.num_servers
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.tau = 0
        self._flat = np.zeros((9, n * m), dtype=np.int64)
        (self.probes, self.adv_owned, self.up_at, self.adv_progress, self.adv_last_probe,
         self.adv_up_at, self.def_probes_seen, self.def_last_probe,
         self.def_last_reimage) = self._flat.reshape(9, n, m)
        # each episode's next uniforms; a cursor at UNIFORM_BLOCK means none left
        self._block = np.empty((n, UNIFORM_BLOCK))
        self._cursor = np.full(n, UNIFORM_BLOCK)
        return self.observe(ADVERSARY), self.observe(DEFENDER)

    @property
    def done(self) -> bool:
        return self.tau >= self.cfg.horizon

    def _uniform_pairs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next two uniforms of each listed episode, rows distinct."""
        cursor, block = self._cursor, self._block
        for b in rows[cursor[rows] == UNIFORM_BLOCK].tolist():
            block[b] = self.rngs[b].random(UNIFORM_BLOCK)
            cursor[b] = 0
        k = cursor[rows]
        cursor[rows] = k + 2
        return block[rows, k], block[rows, k + 1]

    def step(self, adv_targets: np.ndarray, def_targets: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance every episode one step; returns (obs_adv, obs_def,
        reward_adv, reward_def)."""
        if self.rngs is None:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episodes are over, call reset()")
        cfg = self.cfg
        m = cfg.num_servers
        for targets in (adv_targets, def_targets):
            if not isinstance(targets, np.ndarray):
                raise TypeError(f"expected an array of server indices, got {targets!r}")
            if (targets.shape != (len(self.rngs),) or targets.dtype.kind not in "iu"
                    or ((targets < -1) | (targets >= m)).any()):
                raise ValueError("expected one integer server index or -1 per episode")
        (probes, adv_owned, up_at, adv_progress, adv_last_probe, adv_up_at,
         def_probes_seen, def_last_probe, def_last_reimage) = self._flat
        clock = self.tau
        resolve = clock + 1

        # 1) adversary probes; only a probe on an up server draws, twice
        rows = (adv_targets >= 0).nonzero()[0]
        cells = rows * m + adv_targets[rows]
        up = up_at[cells] <= clock
        r, c = rows[up], cells[up]
        if r.size:
            probes[c] += 1
            hit, seen = self._uniform_pairs(r)
            adv_owned[c] |= hit < self._compromise[probes[c]]
            adv_progress[c] += 1
            adv_last_probe[c] = resolve
            c = c[seen >= cfg.miss_prob]
            def_probes_seen[c] += 1
            def_last_probe[c] = resolve
        charged = adv_targets >= 0
        if not cfg.charge_down_probes:
            charged[:] = False
            charged[r] = True
        c = cells[~up]
        adv_up_at[c] = up_at[c]
        adv_progress[c] = 0
        adv_last_probe[c] = resolve

        # 2) defender reimages of up servers
        rows = (def_targets >= 0).nonzero()[0]
        cells = rows * m + def_targets[rows]
        c = cells[up_at[cells] <= clock]
        back = resolve + cfg.downtime
        lost = c[adv_owned[c] == 1]
        adv_owned[lost] = 0
        adv_up_at[lost] = back
        adv_progress[lost] = 0
        probes[c] = 0
        up_at[c] = back
        def_probes_seen[c] = 0
        def_last_probe[c] = resolve
        def_last_reimage[c] = resolve

        # 3) advance the clock
        self.tau = resolve

        # 4) rewards on the post-transition state
        n_down = (resolve < self.up_at).sum(axis=1)
        n_adv = self.adv_owned.sum(axis=1)
        reward_adv = self._u_adv[n_adv, n_down]
        reward_adv[charged] -= cfg.probe_cost
        reward_def = self._u_def[m - n_adv - n_down, n_down]
        return self.observe(ADVERSARY), self.observe(DEFENDER), reward_adv, reward_def

    def observe(self, player: str) -> np.ndarray:
        if self.rngs is None:
            raise RuntimeError("call reset() first")
        tau = self.tau
        if player == ADVERSARY:
            up_at, progress, col3, last = (self.adv_up_at, self.adv_progress,
                                           self.adv_owned, self.adv_last_probe)
        elif player == DEFENDER:
            up_at, progress, last = self.up_at, self.def_probes_seen, self.def_last_reimage
            col3 = tau - self.def_last_probe
        else:
            raise ValueError(f"unknown player {player!r}")
        obs = np.empty((*up_at.shape, 5), dtype=np.int64)
        np.less_equal(up_at, tau, out=obs[..., 0])
        np.maximum(up_at - tau, 0, out=obs[..., 1])
        obs[..., 2] = progress
        obs[..., 3] = col3
        np.subtract(tau, last, out=obs[..., 4])
        return obs
