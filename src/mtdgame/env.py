"""Two-player server control game: state, transitions, rewards, observations.

An adversary probes servers to take control of them; a defender reimages
servers to reclaim them.  Both move simultaneously once per time step and
see only their own side of the world.  A probe on an up server succeeds
with probability 1 - exp(-gain * (probes + 1)), counted over all probes
since the server was last reimaged.  A reimaged server is unavailable for
exactly `downtime` reward evaluations and comes back clean.  A probe costs
`probe_cost` wherever it lands; a probe on a down server changes nothing
else but teaches the adversary the server's true status.

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
from dataclasses import dataclass, fields
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

# Raw 64-bit words a lockstep generator takes at a time.
BLOCK_WORDS = 64
_PAIR = np.arange(2)[:, None]  # offsets of a uniform pair's two words


class ConfigError(ValueError):
    """A parameter is outside its documented domain."""


# Annotation text -> (types the field may hold, types it may not, the type it is stored as).
_KINDS = {"int": ((int, np.integer), bool, int),
          "float": ((int, float, np.integer, np.floating), bool, float)}


def check_range(obj, interval: str, *names: str) -> None:
    """Raise ConfigError unless each named field of the dataclass obj lies in
    `interval`, written as the error shows it: "[0, 1]", "(0, inf)" and so
    on.  The field's annotation picks the type check (`_KINDS`); every
    comparison is written so that NaN fails it."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    kinds = {f.name: f.type for f in fields(obj)}
    for name in names:
        value, kind = getattr(obj, name), kinds[name]
        allowed, excluded, store = _KINDS[kind]
        if not isinstance(value, allowed) or isinstance(value, excluded):
            raise ConfigError(f"{name} must be {kind} in {interval}, got {value!r}")
        if not ((low < value if interval[0] == "(" else low <= value)
                and (value < high if interval[-1] == ")" else value <= high)):
            raise ConfigError(f"{name} must lie in {interval}, got {value!r}")
        object.__setattr__(obj, name, store(value))


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

    def __post_init__(self):
        check_range(self, "[1, inf)", "num_servers")
        check_range(self, f"[1, {2**62})", "downtime", "horizon")  # clocks fit an int64
        check_range(self, "[0, 1]", "miss_prob", "weight_adv", "weight_def")
        check_range(self, "(0, inf)", "probe_gain", "reward_slope")
        check_range(self, "[0, inf)", "probe_cost")
        check_range(self, "(-inf, inf)", "reward_thresh")
        check_range(self, "[0, 1)", "discount")


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
def _tables(cfg: EnvConfig) -> tuple[tuple, tuple]:
    """Rewards and compromise chances, computed once per config.

    Returns `(rewards, compromise)`.  `rewards[c * (M + 1) + d]` is the pair
    `(utility(ADVERSARY, c, d, cfg), utility(DEFENDER, M - c - d, d, cfg))`
    for c servers the adversary controls and d down, so the defender
    controls the rest; keys with c + d > M, which no state reaches, hold NaN.
    `compromise[k]` is the chance that a probe lands when it is the k-th
    since the last reimage, `compromise_probability(k, gain)`.  A server is
    probed at most once a step, so k never exceeds the horizon.
    """
    m = cfg.num_servers
    rewards = tuple((utility(ADVERSARY, c, d, cfg), utility(DEFENDER, m - c - d, d, cfg))
                    if c + d <= m else (math.nan, math.nan)
                    for c in range(m + 1) for d in range(m + 1))
    compromise = tuple(compromise_probability(k, cfg.probe_gain)
                       for k in range(cfg.horizon + 1))
    return rewards, compromise


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
        self._rewards, self._compromise = _tables(config)

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
        if adv_target >= 0:
            i = adv_target
            if self.up_at[i] <= clock:
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
        n_adv, _, n_down = self.counts()
        u_a, u_d = self._rewards[n_adv * (m + 1) + n_down]
        if adv_target >= 0:
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


class BlockStream:
    """The numbers of many generators with the bits of their own `random()`
    and `integers(k)`, read from a block of BLOCK_WORDS `random_raw` words per
    generator, refilled when used up: a generator runs ahead by its block's
    unused tail.  The cursor counts 32-bit halves, low half first as PCG64's
    `next_uint32` gives them.  Nothing else may draw from the generators, a
    stream serves only uniform pairs or only integers, and rows are distinct."""

    def __init__(self, rngs: list[np.random.Generator]):
        self.rngs = rngs
        self.block = np.empty((len(rngs), BLOCK_WORDS), dtype="<u8")
        self.cursor = np.full(len(rngs), 2 * BLOCK_WORDS)

    def _take(self, rows: np.ndarray, halves: int) -> np.ndarray:
        """Flat positions, in halves, of each row's next `halves` halves."""
        at = self.cursor[rows]
        for i in (at > 2 * BLOCK_WORDS - halves).nonzero()[0].tolist():
            self.block[rows[i]] = self.rngs[rows[i]].bit_generator.random_raw(BLOCK_WORDS)
            at[i] = 0
        self.cursor[rows] = at + halves
        return at + rows * (2 * BLOCK_WORDS)

    def uniform_pairs(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next two `random()` doubles, (word >> 11) * 2**-53, as (2, rows)."""
        words = self.block.take((self._take(rows, 4) >> 1) + _PAIR)
        return (words >> 11) * 2.0**-53

    def integers(self, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Each row's `integers(k)`, 2 <= k <= 2**32, by numpy's multiply-and-reject:
        again while (half * k) & 0xFFFFFFFF < (2**32 - k) % k; masks undo int64 wraps."""
        m = self.block.view("<u4").take(self._take(rows, 1)) * k
        i = ((m & 0xFFFFFFFF) < (2**32 - k) % k).nonzero()[0]
        while i.size:
            ki = k[i]
            m[i] = mi = self.block.view("<u4").take(self._take(rows[i], 1)) * ki
            i = i[(mi & 0xFFFFFFFF) < (2**32 - ki) % ki]
        return (m >> 32) & 0xFFFFFFFF


class MtdBatchEnv:
    """Many independent episodes of the game, stepped in lockstep.

    State is one (episodes, num_servers) integer array per `MtdEnv` list,
    each also held flat so that a step indexes it with one array of
    `episode * num_servers + server` positions, and every step follows
    `MtdEnv.step`'s resolution order.  Each episode's generator gives the
    uniforms `MtdEnv`'s would for the same actions, through a `BlockStream`
    that runs it ahead by its block's unused tail, so episode b here and an
    `MtdEnv` reset with `seeds[b]` give identical observations and rewards.
    Actions are one server index per episode, -1 for no-op.  Rewards and
    compromise chances come from `MtdEnv`'s tables.  `reset` and `step`
    return both players' observations as one (2, 5, episodes, M) array of
    C-contiguous (episodes, M) planes, adversary first;
    `planes[p].transpose(1, 2, 0)` is player p's (episodes, M, 5) stack.
    """

    def __init__(self, config: EnvConfig):
        self.cfg = config
        self.tau = 0
        self.stream = None
        self._rewards, self._compromise = map(np.array, _tables(config))

    def reset(self, seeds) -> np.ndarray:
        """Start one fresh episode per seed; returns the (2, 5, episodes, M) planes."""
        n, m = len(seeds), self.cfg.num_servers
        self.stream = BlockStream([np.random.default_rng(s) for s in seeds])
        self.tau = 0
        # rows paired by the observation column they feed, adversary first, named in `_step`
        self._flat = np.zeros((9, n * m), dtype=np.int64)
        self._state = self._flat.reshape(9, n, m)
        return self._planes()

    @property
    def done(self) -> bool:
        return self.tau >= self.cfg.horizon

    def step(self, adv_targets: np.ndarray, def_targets: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
        """Check the targets, then advance every episode one step as `_step` does."""
        if self.stream is None:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episodes are over, call reset()")
        m = self.cfg.num_servers
        for targets in (adv_targets, def_targets):
            if not isinstance(targets, np.ndarray):
                raise TypeError(f"expected an array of server indices, got {targets!r}")
            # initial 0 keeps unsigned indices reducible and empty batches steppable
            if (targets.shape != (len(self.stream.rngs),) or targets.dtype.kind not in "iu"
                    or np.minimum.reduce(targets, initial=0) < -1
                    or np.maximum.reduce(targets, initial=0) >= m):
                raise ValueError("expected one integer server index or -1 per episode")
        return self._step(adv_targets, def_targets)

    def _step(self, adv_targets: np.ndarray, def_targets: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """`step` for targets already known to be one index in [-1, M) per
        episode, before the horizon: returns both players' (2, 5, episodes, M)
        observation planes and their (2, episodes) rewards, adversary first."""
        cfg = self.cfg
        m = cfg.num_servers
        (adv_up_at, up_at, adv_progress, def_probes_seen, adv_last_probe,
         def_last_reimage, probes, adv_owned, def_last_probe) = self._flat
        clock = self.tau
        resolve = clock + 1

        # 1) adversary probes; only a probe on an up server draws, twice
        probing = (adv_targets >= 0).nonzero()[0]
        cells = probing * m + adv_targets[probing]
        adv_last_probe[cells] = resolve
        up = up_at[cells] <= clock
        r, c = probing[up], cells[up]
        if r.size:
            probes[c] = k = probes[c] + 1
            hit, seen = self.stream.uniform_pairs(r)
            adv_owned[c] |= hit < self._compromise[k]
            adv_progress[c] += 1
            c = c[seen >= cfg.miss_prob]
            def_probes_seen[c] += 1
            def_last_probe[c] = resolve
        c = cells[~up]
        adv_up_at[c] = up_at[c]
        adv_progress[c] = 0

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
        key = np.add.reduce((adv_owned * (m + 1) + (resolve < up_at)).reshape(-1, m), axis=1)
        rewards = self._rewards.T.take(key, axis=1)
        rewards[0, probing] -= cfg.probe_cost
        return self._planes(), rewards

    def _planes(self) -> np.ndarray:
        """Both players' observation planes, (2, 5, episodes, M), adversary first."""
        tau, state = self.tau, self._state
        planes = np.empty((2, 5, *state.shape[1:]), dtype=np.int64)
        np.less_equal(state[0:2], tau, out=planes[:, 0])
        np.subtract(state[0:2], tau, out=planes[:, 1])
        np.maximum(planes[:, 1], 0, out=planes[:, 1])
        np.copyto(planes[:, 2], state[2:4])
        np.subtract(tau, state[4:6], out=planes[:, 4])
        np.copyto(planes[0, 3], state[7])
        np.subtract(tau, state[8], out=planes[1, 3])
        return planes
