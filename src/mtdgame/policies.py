"""Fixed heuristic strategies, strategy mixtures, and policy pair evaluation.

Heuristics act on their own observation only.  Periodic ones fire when
tau % period == 0.  Defender heuristics that pick "the most probed server"
never reimage when no probes have been observed at all; reimaging untouched
servers would only take them down for nothing.

Every policy answers in two ways.  `act(obs, tau, rng)` picks the server
for one episode, -1 for no-op; `run_episode` uses it.  `choices(obs, tau)`
states, for a stack of episodes, the candidate mask and score that
`_pick_rows` draws from; `evaluate_cells` steps a grid of adversaries by
defenders with one pick per step for both sides.  For the same observations
both choose the same servers and draw the same numbers from each episode's
generator, up to a block's unused tail.  A heuristic states its rule once,
in `choices`, which reads one (M, 5) observation or an (n, M, 5) stack.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields
from functools import lru_cache

import numpy as np

from mtdgame.env import (
    ADVERSARY,
    COL_CONTROL,
    COL_DEF_SINCE_PROBE,
    COL_DEF_SINCE_REIMAGE,
    COL_PROGRESS,
    COL_STATUS,
    DEFENDER,
    BlockStream,
    EnvConfig,
    MtdBatchEnv,
    MtdEnv,
    check_range,
)
from mtdgame.seeds import derive_seed, spawn_rng


class PurePolicy:
    """A deterministic-or-randomized rule mapping observations to actions."""

    player: str
    label: str

    def act(self, obs: np.ndarray, tau: int, rng: np.random.Generator) -> int:
        """The server to act on in an (M, 5) observation, -1 for no-op."""
        raise NotImplementedError

    def choices(self, obs: np.ndarray, tau: int) -> tuple | None:
        """What the episodes of an (n, M, 5) stack pick from: None as soon
        as no episode can act, else an (n, M) candidate mask and an (n, M)
        nonnegative score or None, as `_pick_rows` takes them."""
        raise NotImplementedError


class Heuristic(PurePolicy):
    """A fixed rule, stated once in `choices`, which reads one (M, 5)
    observation or an (n, M, 5) stack: None as soon as no episode can act,
    else (mask, score), mask shaped like obs[..., 0]; the draw is among the
    mask's top scorers, or uniform.  `act` draws from it with `_pick`."""

    def __post_init__(self):
        """ConfigError unless each parameter lies in its interval."""
        for name, interval in (("period", "[1, inf)"), ("probe_limit", "[0, inf)"),
                               ("threshold", "[0, 1]"), ("gain", "(0, inf)")):
            if hasattr(self, name):
                check_range(self, interval, name)

    def act(self, obs, tau, rng):
        found = self.choices(obs, tau)
        return -1 if found is None else _pick(*found, rng)


# The heuristic registry, keyed by (player, name) in the order of the
# default sets.  A heuristic's dataclass fields other than `player` and
# `label` are the parameters its policy file line carries, and their
# defaults are the values a line that omits them gets.
HEURISTICS: dict[tuple[str, str], type[Heuristic]] = {}


def _heuristic(name: str, *players: str):
    """Class decorator: make a heuristic a dataclass(eq=False), so that it
    keeps identity equality and hashing, and register it for `players`.
    The class gets `name`, `label`'s default, and, when it plays one side
    only, its `player`; a class for both sides keeps `player` a field."""
    def register(cls):
        cls.name = cls.label = name
        if len(players) == 1:
            cls.player = players[0]
        cls = dataclass(eq=False)(cls)
        for player in players:
            HEURISTICS[(player, name)] = cls
        return cls

    return register


def heuristic(player: str, name: str, **params) -> Heuristic:
    """Build the registered heuristic `name` of `player`; KeyError if none."""
    cls = HEURISTICS[(player, name)]
    return cls(player, **params) if cls is NoOpPolicy else cls(**params)


def heuristic_name(policy: PurePolicy) -> str | None:
    """The registry name of a heuristic policy, None for anything else."""
    return getattr(policy, "name", None)


def heuristic_params(policy) -> list[Field]:
    """The parameter fields of a heuristic class or instance, in file order."""
    return [f for f in fields(policy) if f.name not in ("player", "label")]


@_heuristic("noop", ADVERSARY, DEFENDER)
class NoOpPolicy(Heuristic):
    player: str
    label: str

    def choices(self, obs, tau):
        return None


# scalar on purpose: choices(obs[None]) plus _pick_rows costs 2-7x this per
# pick (uniform defender 40.5 against 5.5 us), and training picks once per step
def _pick(candidates: np.ndarray, score: np.ndarray | None,
          rng: np.random.Generator) -> int:
    """A uniformly drawn server of an (M,) candidate mask, -1 if there is
    none.  With `score` (M,) the draw is among the top-scoring candidates
    only.  Nothing is drawn from `rng` for zero or one candidate."""
    candidates = candidates.nonzero()[0]
    if candidates.size == 0:
        return -1
    if score is not None:
        score = score[candidates]
        candidates = candidates[score == np.maximum.reduce(score)]
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(candidates.size)])


def _pick_rows(candidates: np.ndarray, score: np.ndarray | None,
               stream: BlockStream) -> np.ndarray:
    """`_pick` on each row of an (n, M) candidate mask: the chosen server
    per row, -1 where there is none.  `score` is (n, M) and nonnegative.
    Only rows left with two or more candidates draw `_pick`'s number from
    their generator in `stream`, which runs ahead by its block's tail."""
    if score is not None:
        top = np.maximum.reduce(np.where(candidates, score, -1), axis=1, keepdims=True)
        candidates = candidates & (score == top)
    count = np.add.reduce(candidates, axis=1)
    picks = np.where(count > 0, candidates.argmax(axis=1), -1)
    rows = (count > 1).nonzero()[0]
    if rows.size:
        # the server of the drawn candidate, counting from 0, in each row of rows
        before = candidates[rows].cumsum(axis=1) <= stream.integers(rows, count[rows])[:, None]
        picks[rows] = np.add.reduce(before, axis=1)
    return picks


def _believed_takeable(obs: np.ndarray) -> np.ndarray:
    # mask of the servers the adversary thinks are up and does not control
    return (obs[..., COL_STATUS] == 1) & (obs[..., COL_CONTROL] == 0)


@_heuristic("uniform", ADVERSARY)
class UniformAdversary(Heuristic):
    """Every `period` steps, probe a random server believed up and uncontrolled."""

    period: int = 1
    label: str

    def choices(self, obs, tau):
        if tau % self.period:
            return None
        return _believed_takeable(obs), None


@_heuristic("maxprobe", ADVERSARY)
class MaxProbeAdversary(Heuristic):
    """Every `period` steps, probe the most-probed server it does not control."""

    period: int = 1
    label: str

    def choices(self, obs, tau):
        if tau % self.period:
            return None
        return _believed_takeable(obs), obs[..., COL_PROGRESS]


@_heuristic("control_threshold", ADVERSARY)
class ControlThresholdAdversary(Heuristic):
    """Probe (most-probed targeting) only while controlling less than a
    threshold fraction of the servers."""

    threshold: float = 0.5
    label: str

    def choices(self, obs, tau):
        below = ~(np.add.reduce(obs[..., COL_CONTROL], axis=-1) / obs.shape[-2] >= self.threshold)
        if not np.logical_or.reduce(below, axis=None):
            return None
        return _believed_takeable(obs) & below[..., None], obs[..., COL_PROGRESS]


@_heuristic("uniform", DEFENDER)
class UniformDefender(Heuristic):
    """Every `period` steps, reimage a random up server."""

    period: int = 4
    label: str

    def choices(self, obs, tau):
        if tau % self.period:
            return None
        return obs[..., COL_STATUS] == 1, None


@_heuristic("maxprobe", DEFENDER)
class MaxProbeDefender(Heuristic):
    """Every `period` steps, reimage the up server with the most observed
    probes, provided anything was probed at all."""

    period: int = 4
    label: str

    def choices(self, obs, tau):
        if tau % self.period:
            return None
        seen = obs[..., COL_PROGRESS]
        return (obs[..., COL_STATUS] == 1) & (seen > 0), seen


@_heuristic("pcp", DEFENDER)
class ProbeCountPeriodDefender(Heuristic):
    """Reimage servers that went quiet after being probed, or were probed
    past a count limit.

    A server qualifies when it is up, has at least one observed probe, and
    either no probe has been observed for `period` steps or its observed
    count exceeds `probe_limit`.  One qualifying server is reimaged per
    step, chosen uniformly.
    """

    period: int = 4
    probe_limit: int = 7
    label: str

    def choices(self, obs, tau):
        seen = obs[..., COL_PROGRESS]
        return (obs[..., COL_STATUS] == 1) & (seen >= 1) & (
            (obs[..., COL_DEF_SINCE_PROBE] >= self.period) | (seen > self.probe_limit)
        ), None


def expected_defender_control(obs: np.ndarray, gain: float) -> float | np.ndarray:
    """Defender's estimate of how many up servers it still controls, for one
    (M, 5) observation (a float) or each matrix of an (n, M, 5) stack.

    Treats every observed probe on a server except the last as failed, so a
    server with k observed probes is compromised with probability
    1 - exp(-gain * k), or zero when never probed.  Down servers are
    excluded, they count for nobody.  Servers are added one at a time, in
    server order, so a matrix gives the same bits alone or in a stack.
    """
    seen = obs[..., COL_PROGRESS]
    # a power-of-two table size keeps the number of cached tables small
    size = 1 << int(np.maximum.reduce(seen, axis=None)).bit_length()
    survival = np.where(obs[..., COL_STATUS] == 1,
                        _survival_table(gain, size)[seen], 0.0)
    # accumulate, unlike a sum, adds strictly left to right
    return np.add.accumulate(survival, axis=-1)[..., -1]


@lru_cache(maxsize=16)
def _survival_table(gain: float, size: int) -> np.ndarray:
    """1 minus the compromise chance for k = 0 .. size - 1 observed probes,
    kept as 1 - (1 - exp(.)), not exp(.): those are the bits of the sum."""
    table = np.array([1.0] + [1.0 - (1.0 - math.exp(-gain * k)) for k in range(1, size)])
    table.flags.writeable = False
    return table


@_heuristic("control_threshold", DEFENDER)
class ControlThresholdDefender(Heuristic):
    """Reimage the most-suspect server when expected control drops below a
    threshold fraction, at most once per `period` steps."""

    threshold: float = 0.8
    period: int = 4
    gain: float = 0.05
    label: str

    def choices(self, obs, tau):
        # time since this defender's most recent reimage anywhere
        acting = np.minimum.reduce(obs[..., COL_DEF_SINCE_REIMAGE], axis=-1) >= self.period
        if not np.logical_or.reduce(acting, axis=None):
            return None
        expected = expected_defender_control(obs, self.gain)
        acting = acting & ~(expected > obs.shape[-2] * self.threshold)
        if not np.logical_or.reduce(acting, axis=None):
            return None
        return (obs[..., COL_STATUS] == 1) & acting[..., None], obs[..., COL_PROGRESS]


def _default_set(player: str, **params) -> list[PurePolicy]:
    return [heuristic(player, name, **params.get(name, {}))
            for p, name in HEURISTICS if p == player]


def default_adversaries() -> list[PurePolicy]:
    """The standard adversary heuristic set, in registry order."""
    return _default_set(ADVERSARY)


def default_defenders(cfg: EnvConfig) -> list[PurePolicy]:
    """The standard defender heuristic set, in registry order; the control
    threshold defender's gain is the environment's probe gain."""
    return _default_set(DEFENDER, control_threshold={"gain": cfg.probe_gain})


@dataclass(frozen=True)
class MixedStrategy:
    """Probability weights aligned with an ordered pure policy list."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if (w < -1e-12).any() or not math.isclose(w.sum(), 1.0, abs_tol=1e-9):
            raise ValueError(f"weights must be nonnegative and sum to 1, got {w}")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    def sample(self, rng: np.random.Generator) -> int:
        i = int(np.searchsorted(np.cumsum(self.weights), rng.random(), side="right"))
        # rounding can leave the cumulative sum just short of a draw below 1
        return i if i < self.weights.size else int(np.flatnonzero(self.weights)[-1])


@dataclass(frozen=True)
class PairPayoff:
    """Monte-Carlo estimate of one policy pair's discounted returns."""

    u_adv: float
    u_def: float
    se_adv: float
    se_def: float
    episodes: int


def run_episode(adv: PurePolicy, deff: PurePolicy, cfg: EnvConfig,
                seed: int, on_step=None) -> tuple[float, float]:
    """One full episode; returns both players' discounted returns.

    on_step, if given, is called after every step as
    on_step(tau, adv_action, def_action, reward_adv, reward_def, env).
    """
    env = MtdEnv(cfg)
    obs_a, obs_d = env.reset(derive_seed(seed, "env"))
    rng_a = spawn_rng(seed, "adv")
    rng_d = spawn_rng(seed, "def")
    g = 1.0
    ret_a = 0.0
    ret_d = 0.0
    for t in range(cfg.horizon):
        a = adv.act(obs_a, t, rng_a)
        d = deff.act(obs_d, t, rng_d)
        obs_a, obs_d, r_a, r_d = env.step(a, d)
        if on_step is not None:
            on_step(t, a, d, r_a, r_d, env)
        ret_a += g * r_a
        ret_d += g * r_d
        g *= cfg.discount
    return ret_a, ret_d


def evaluate_cells(advs: list[PurePolicy], defs: list[PurePolicy], seeds: list[list[int]],
                   cfg: EnvConfig, episodes: int, jobs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Average discounted returns of every (adversary, defender) cell of a grid.

    Cell (i, j) plays advs[i] against defs[j] for `episodes` episodes, episode
    e seeded derive_seed(seeds[i][j], "episode", e) as `run_episode` seeds it,
    all stepping together in one `MtdBatchEnv`.  Returns the means and the
    standard errors, each a (2, len(advs), len(defs)) array, adversary first.
    jobs > 1 splits the rows or the columns, whichever leaves fewer cells in
    the largest part, into at most that many contiguous parts, each run in
    lockstep in its own process; the results do not depend on it.  `episodes`
    and `jobs` must be integers >= 1, else ValueError.
    """
    for name, value in (("episodes", episodes), ("jobs", jobs)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if any(a.player != ADVERSARY for a in advs) or any(d.player != DEFENDER for d in defs):
        raise ValueError("advs must be adversaries and defs defenders")
    rows, cols = len(advs), len(defs)
    if len(seeds) != rows or any(len(row) != cols for row in seeds):
        raise ValueError(f"seeds must be a {rows}x{cols} grid")
    if not rows or not cols:
        return np.zeros((2, rows, cols)), np.zeros((2, rows, cols))
    # jobs split the side that leaves fewer cells in the largest part, rows on a tie
    axis = int(-(-rows // int(jobs)) * cols > rows * -(-cols // int(jobs)))
    n = (rows, cols)[axis]
    episodes, jobs = int(episodes), min(int(jobs), n)
    if jobs <= 1:
        return _lockstep(advs, defs, seeds, cfg, episodes)
    parts = [(advs[c], defs, seeds[c]) if axis == 0 else (advs, defs[c], [r[c] for r in seeds])
             for c in (slice(n * k // jobs, n * (k + 1) // jobs) for k in range(jobs))]
    # imported here: a one-process run should not pay its start-up time and memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        done = zip(*pool.map(_lockstep, *zip(*parts), [cfg] * jobs, [episodes] * jobs))
        return tuple(np.concatenate(part, axis=1 + axis) for part in done)


def _lockstep(advs, defs, seeds, cfg: EnvConfig, episodes: int):
    # episodes step by adversary, then defender; the defenders pick by defender, then adversary
    rows, cols, m = len(advs), len(defs), cfg.num_servers
    seeds = np.array([[[derive_seed(s, "episode", e) for e in range(episodes)] for s in row]
                      for row in seeds], dtype=np.uint64)
    in_order, by_defender = seeds.ravel().tolist(), seeds.transpose(1, 0, 2).ravel().tolist()
    env = MtdBatchEnv(cfg)
    env.reset([derive_seed(s, "env") for s in in_order])
    planes = env._planes()
    stream = BlockStream([spawn_rng(s, "adv") for s in in_order]
                         + [spawn_rng(s, "def") for s in by_defender])
    mask = np.empty((2, seeds.size, m), dtype=bool)
    score = np.empty((2, seeds.size, m), dtype=np.int64)
    sides = [(policies, mask[s].reshape(len(policies), -1, m),
              score[s].reshape(len(policies), -1, m)) for s, policies in enumerate((advs, defs))]
    ret = np.zeros((2, seeds.size))
    g = 1.0
    for t in range(cfg.horizon):
        obs_a = planes[0].reshape(5, rows, -1, m).transpose(1, 2, 3, 0)
        # one copy of the defender's planes, regrouped by defender, gives each defender a slice
        planes_d = planes[1].reshape(5, rows, cols, -1).transpose(0, 2, 1, 3)
        obs_d = planes_d.reshape(5, cols, -1, m).transpose(1, 2, 3, 0)
        for obs, (policies, side_mask, side_score) in zip((obs_a, obs_d), sides):
            for k, policy in enumerate(policies):
                side_mask[k], policy_score = policy.choices(obs[k], t) or (False, None)
                side_score[k] = 0 if policy_score is None else policy_score
        acts = _pick_rows(mask.reshape(-1, m), score.reshape(-1, m), stream).reshape(2, -1)
        def_acts = acts[1].reshape(cols, rows, episodes).transpose(1, 0, 2).ravel()
        # _pick_rows gives each episode one index in [-1, M): the core takes them unchecked
        planes, rewards = env._step(acts[0], def_acts)
        ret += g * rewards
        g *= cfg.discount
    ret = ret.reshape(2, *seeds.shape)
    se = ret.std(axis=3, ddof=1) / math.sqrt(episodes) if episodes > 1 else np.zeros(ret.shape[:3])
    return ret.mean(axis=3), se


def evaluate_pair(adv: PurePolicy, deff: PurePolicy, cfg: EnvConfig,
                  episodes: int, seed: int) -> PairPayoff:
    """Average discounted return of a policy pair over seeded episodes: a 1x1 grid."""
    u, se = evaluate_cells([adv], [deff], [[seed]], cfg, episodes)
    return PairPayoff(*map(float, (*u[:, 0, 0], *se[:, 0, 0])), int(episodes))
