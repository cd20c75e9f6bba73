"""Fixed heuristic strategies, strategy mixtures, and policy pair evaluation.

Heuristics act on their own observation only.  Periodic ones fire when
tau % period == 0.  Defender heuristics that pick "the most probed server"
never reimage when no probes have been observed at all; reimaging untouched
servers would only take them down for nothing.

Every policy acts one episode at a time (`act`, which `run_episode` uses)
or on a stack of episodes at once (`act_batch`), and both return server
indices, -1 for no-op.  For the same observations both choose the same
servers and draw the same numbers from each episode's generator.
`act_batch` is `choices`, a candidate mask and score per episode, resolved
by `_pick_rows`; `evaluate_cells` gathers the choices of all the policies
on one side into one mask and resolves them with one pick.  A heuristic
states its rule once, in `targets`, which reads one (M, 5) observation or
an (n, M, 5) stack.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields
from functools import lru_cache
from itertools import repeat

import numpy as np

from mtdgame.env import (
    ADVERSARY,
    COL_CONTROL,
    COL_DEF_SINCE_PROBE,
    COL_DEF_SINCE_REIMAGE,
    COL_PROGRESS,
    COL_STATUS,
    DEFENDER,
    ConfigError,
    EnvConfig,
    MtdBatchEnv,
    MtdEnv,
    check_integers,
)
from mtdgame.seeds import derive_seed, spawn_rng


class PurePolicy:
    """A deterministic-or-randomized rule mapping observations to actions."""

    player: str
    label: str

    def act(self, obs: np.ndarray, tau: int, rng: np.random.Generator) -> int:
        """The server to act on in an (M, 5) observation, -1 for no-op."""
        raise NotImplementedError

    def choices(self, obs: np.ndarray, tau: int,
                rngs: list[np.random.Generator]) -> tuple | None:
        """What `act_batch` picks from in an (n, M, 5) stack, rngs[i] being
        episode i's generator: None as soon as no episode can act, else an
        (n, M) candidate mask and an (n, M) nonnegative score or None, as
        `_pick_rows` takes them.  By default each row is one-hot on the
        server `act` chooses (all False for -1), which the pick takes as it
        is, drawing nothing more."""
        acts = [self.act(o, tau, rng) for o, rng in zip(obs, rngs)]
        return np.array(acts)[:, None] == np.arange(obs.shape[-2]), None

    def act_batch(self, obs: np.ndarray, tau: int,
                  rngs: list[np.random.Generator]) -> np.ndarray:
        """`act` on each of n episodes: obs is (n, M, 5) and rngs[i] is
        episode i's generator.  Returns n server indices, -1 for no-op."""
        found = self.choices(obs, tau, rngs)
        if found is None:
            return np.full(obs.shape[0], -1, dtype=np.int64)
        return _pick_rows(*found, rngs)


class Heuristic(PurePolicy):
    """A fixed rule, stated once in `targets`; `act` and `act_batch` draw."""

    def __post_init__(self):
        """ConfigError unless a `period` is >= 1, a `probe_limit` >= 0, a
        `threshold` in [0, 1] and a `gain` in (0, inf)."""
        for name, low in (("period", 1), ("probe_limit", 0)):
            if hasattr(self, name):
                check_integers(self, low, name)
        # both comparisons are written so that NaN fails them
        if hasattr(self, "threshold") and not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold!r}")
        if hasattr(self, "gain") and not 0.0 < self.gain < math.inf:
            raise ConfigError(f"gain must lie in (0, inf), got {self.gain!r}")

    def targets(self, obs: np.ndarray, tau: int) -> tuple | None:
        """The servers the rule may pick in obs, (M, 5) or (n, M, 5): None as
        soon as no episode can act, else (mask, score), mask shaped like
        obs[..., 0]; the draw is among the mask's top scorers, or uniform."""
        raise NotImplementedError

    def act(self, obs, tau, rng):
        found = self.targets(obs, tau)
        return -1 if found is None else _pick(*found, rng)

    def choices(self, obs, tau, rngs):
        return self.targets(obs, tau)


# The heuristic registry, keyed by (player, name) in the order of the
# default sets.  A heuristic's dataclass fields other than `player` and
# `label` are the parameters its policy file line carries, and their
# defaults are the values a line that omits them gets.
HEURISTICS: dict[tuple[str, str], type[Heuristic]] = {}


def _heuristic(name: str, *players: str):
    """Class decorator: make a heuristic a dataclass(eq=False), so that it
    keeps identity equality and hashing, and register it for `players`."""
    def register(cls):
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
    for (player, name), cls in HEURISTICS.items():
        if player == policy.player and isinstance(policy, cls):
            return name
    return None


def heuristic_params(policy) -> list[Field]:
    """The parameter fields of a heuristic class or instance, in file order."""
    return [f for f in fields(policy) if f.name not in ("player", "label")]


@_heuristic("noop", ADVERSARY, DEFENDER)
class NoOpPolicy(Heuristic):
    player: str
    label: str = "noop"

    def targets(self, obs, tau):
        return None


def _pick(candidates: np.ndarray, score: np.ndarray | None,
          rng: np.random.Generator) -> int:
    """A uniformly drawn server of an (M,) candidate mask, -1 if there is
    none.  With `score` (M,) the draw is among the top-scoring candidates
    only.  Nothing is drawn from `rng` for zero or one candidate."""
    candidates = np.flatnonzero(candidates)
    if candidates.size == 0:
        return -1
    if score is not None:
        score = score[candidates]
        candidates = candidates[score == score.max()]
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(candidates.size)])


def _pick_rows(candidates: np.ndarray, score: np.ndarray | None,
               rngs: list[np.random.Generator]) -> np.ndarray:
    """`_pick` on each row of an (n, M) candidate mask: the chosen server
    per row, -1 where there is none.  `score` is (n, M) and nonnegative.
    Only rows left with two or more candidates draw, from their own rng."""
    if score is not None:
        top = np.where(candidates, score, -1).max(axis=1, keepdims=True)
        candidates = candidates & (score == top)
    count = candidates.sum(axis=1)
    picks = np.where(count > 0, candidates.argmax(axis=1), -1)
    rows = (count > 1).nonzero()[0]
    if rows.size:
        draws = [rngs[r].integers(k) for r, k in zip(rows.tolist(), count[rows].tolist())]
        # the server of the draws[i]-th candidate (from 0) in row rows[i]
        before = np.cumsum(candidates[rows], axis=1) <= np.array(draws)[:, None]
        picks[rows] = before.sum(axis=1)
    return picks


def _believed_takeable(obs: np.ndarray) -> np.ndarray:
    # mask of the servers the adversary thinks are up and does not control
    return (obs[..., COL_STATUS] == 1) & (obs[..., COL_CONTROL] == 0)


@_heuristic("uniform", ADVERSARY)
class UniformAdversary(Heuristic):
    """Every `period` steps, probe a random server believed up and uncontrolled."""

    player = ADVERSARY
    period: int = 1
    label: str = "uniform"

    def targets(self, obs, tau):
        if tau % self.period:
            return None
        return _believed_takeable(obs), None


@_heuristic("maxprobe", ADVERSARY)
class MaxProbeAdversary(Heuristic):
    """Every `period` steps, probe the most-probed server it does not control."""

    player = ADVERSARY
    period: int = 1
    label: str = "maxprobe"

    def targets(self, obs, tau):
        if tau % self.period:
            return None
        return _believed_takeable(obs), obs[..., COL_PROGRESS]


@_heuristic("control_threshold", ADVERSARY)
class ControlThresholdAdversary(Heuristic):
    """Probe (most-probed targeting) only while controlling less than a
    threshold fraction of the servers."""

    player = ADVERSARY
    threshold: float = 0.5
    label: str = "control_threshold"

    def targets(self, obs, tau):
        below = ~(obs[..., COL_CONTROL].sum(axis=-1) / obs.shape[-2] >= self.threshold)
        if not below.any():
            return None
        return _believed_takeable(obs) & below[..., None], obs[..., COL_PROGRESS]


@_heuristic("uniform", DEFENDER)
class UniformDefender(Heuristic):
    """Every `period` steps, reimage a random up server."""

    player = DEFENDER
    period: int = 4
    label: str = "uniform"

    def targets(self, obs, tau):
        if tau % self.period:
            return None
        return obs[..., COL_STATUS] == 1, None


@_heuristic("maxprobe", DEFENDER)
class MaxProbeDefender(Heuristic):
    """Every `period` steps, reimage the up server with the most observed
    probes, provided anything was probed at all."""

    player = DEFENDER
    period: int = 4
    label: str = "maxprobe"

    def targets(self, obs, tau):
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

    player = DEFENDER
    period: int = 4
    probe_limit: int = 7
    label: str = "pcp"

    def targets(self, obs, tau):
        seen = obs[..., COL_PROGRESS]
        return (obs[..., COL_STATUS] == 1) & (seen >= 1) & (
            (obs[..., COL_DEF_SINCE_PROBE] >= self.period) | (seen > self.probe_limit)
        ), None


def expected_defender_control(obs: np.ndarray, gain: float,
                              literal_exponent: bool = False) -> float | np.ndarray:
    """Defender's estimate of how many up servers it still controls, for one
    (M, 5) observation (a float) or each matrix of an (n, M, 5) stack.

    Treats every observed probe on a server except the last as failed, so a
    server with k observed probes is compromised with probability
    1 - exp(-gain * k), or zero when never probed.  With literal_exponent
    the last probe is counted as the (k+1)-th instead.  Down servers are
    excluded, they count for nobody.  Servers are added one at a time, in
    server order, so a matrix gives the same bits alone or in a stack.
    """
    seen = obs[..., COL_PROGRESS]
    # a power-of-two table size keeps the number of cached tables small
    size = 1 << int(seen.max()).bit_length()
    survival = np.where(obs[..., COL_STATUS] == 1,
                        _survival_table(gain, literal_exponent, size)[seen], 0.0)
    # accumulate, unlike a sum, adds strictly left to right
    return np.add.accumulate(survival, axis=-1)[..., -1]


@lru_cache(maxsize=16)
def _survival_table(gain: float, literal_exponent: bool, size: int) -> np.ndarray:
    """1 minus the compromise chance for k = 0 .. size - 1 observed probes,
    kept as 1 - (1 - exp(.)), not exp(.): those are the bits of the sum."""
    table = np.array([1.0] + [1.0 - (1.0 - math.exp(-gain * (k + 1 if literal_exponent else k)))
                              for k in range(1, size)])
    table.flags.writeable = False
    return table


@_heuristic("control_threshold", DEFENDER)
class ControlThresholdDefender(Heuristic):
    """Reimage the most-suspect server when expected control drops below a
    threshold fraction, at most once per `period` steps."""

    player = DEFENDER
    threshold: float = 0.8
    period: int = 4
    gain: float = 0.05
    literal_exponent: bool = False
    label: str = "control_threshold"

    def targets(self, obs, tau):
        # time since this defender's most recent reimage anywhere
        acting = obs[..., COL_DEF_SINCE_REIMAGE].min(axis=-1) >= self.period
        if not acting.any():
            return None
        expected = expected_defender_control(obs, self.gain, self.literal_exponent)
        acting = acting & ~(expected > obs.shape[-2] * self.threshold)
        if not acting.any():
            return None
        return (obs[..., COL_STATUS] == 1) & acting[..., None], obs[..., COL_PROGRESS]


def _default_set(player: str, **params) -> list[PurePolicy]:
    return [heuristic(player, name, **params.get(name, {}))
            for p, name in HEURISTICS if p == player]


def default_adversaries(cfg: EnvConfig) -> list[PurePolicy]:
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


def evaluate_cells(cells: list[tuple[PurePolicy, PurePolicy, int]], cfg: EnvConfig,
                   episodes: int, jobs: int = 1) -> list[PairPayoff]:
    """Average discounted returns of each (adversary, defender, seed) cell.

    Cell (adv, deff, seed) plays `episodes` episodes, episode e seeded
    derive_seed(seed, "episode", e) exactly as `run_episode` seeds it, and
    all episodes of all cells step together in one `MtdBatchEnv`.  With
    jobs > 1 the cells are split into that many contiguous chunks, each
    run in lockstep in its own process; the results do not depend on it.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    for adv, deff, _ in cells:
        if adv.player != ADVERSARY or deff.player != DEFENDER:
            raise ValueError("cells need (adversary, defender) in that order")
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        return _lockstep(cells, cfg, episodes)
    bounds = [len(cells) * k // jobs for k in range(jobs + 1)]
    chunks = [cells[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    # imported here: a one-process run should not pay its start-up time and memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [pp for part in pool.map(_lockstep, chunks, repeat(cfg), repeat(episodes))
                for pp in part]


def _lockstep(cells, cfg: EnvConfig, episodes: int) -> list[PairPayoff]:
    seeds = [derive_seed(seed, "episode", e) for _, _, seed in cells for e in range(episodes)]
    env = MtdBatchEnv(cfg)
    obs_a, obs_d = env.reset([derive_seed(s, "env") for s in seeds])
    # each policy states its choices once per step, on all the episodes it
    # plays in, into its side's mask and score; one pick per side resolves them
    sides = []
    for side, col in (("adv", 0), ("def", 1)):
        members: dict[int, tuple[PurePolicy, list[int]]] = {}
        for c, cell in enumerate(cells):
            members.setdefault(id(cell[col]), (cell[col], []))[1].extend(
                range(c * episodes, (c + 1) * episodes))
        rngs = [spawn_rng(s, side) for s in seeds]
        # a slice where the episodes of a policy are contiguous, so obs[idx] is a view
        sides.append(([(policy, slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1
                        else np.array(idx), [rngs[i] for i in idx])
                       for policy, idx in members.values()], rngs))
    mask = np.empty((2, len(seeds), cfg.num_servers), dtype=bool)
    score = np.empty((2, len(seeds), cfg.num_servers), dtype=np.int64)
    ret_a = np.zeros(len(seeds))
    ret_d = np.zeros(len(seeds))
    g = 1.0
    for t in range(cfg.horizon):
        acts = []
        for obs, (groups, rngs), side_mask, side_score in zip((obs_a, obs_d), sides, mask, score):
            for policy, idx, group_rngs in groups:
                found = policy.choices(obs[idx], t, group_rngs)
                if found is None:
                    side_mask[idx] = False
                else:
                    side_mask[idx] = found[0]
                    side_score[idx] = 0 if found[1] is None else found[1]
            acts.append(_pick_rows(side_mask, side_score, rngs))
        obs_a, obs_d, r_a, r_d = env.step(*acts)
        ret_a += g * r_a
        ret_d += g * r_d
        g *= cfg.discount
    payoffs = []
    for ra, rd in zip(ret_a.reshape(-1, episodes), ret_d.reshape(-1, episodes)):
        if episodes == 1:
            se_a = se_d = 0.0
        else:
            se_a = float(ra.std(ddof=1) / math.sqrt(episodes))
            se_d = float(rd.std(ddof=1) / math.sqrt(episodes))
        payoffs.append(PairPayoff(float(ra.mean()), float(rd.mean()), se_a, se_d, episodes))
    return payoffs


def evaluate_pair(adv: PurePolicy, deff: PurePolicy, cfg: EnvConfig,
                  episodes: int, seed: int) -> PairPayoff:
    """Average discounted return of a policy pair over seeded episodes."""
    return evaluate_cells([(adv, deff, seed)], cfg, episodes)[0]
