"""Deep Q-learning best-response trainer, written directly on numpy.

The network is a tanh MLP (two hidden layers of 32 by default) mapping a
normalized observation vector to one action value per server plus one for
no-op.  Training follows one-step Q-learning with a uniform replay buffer,
epsilon-greedy exploration decayed linearly over the first fraction of all
steps, and one gradient step per environment step once the buffer can fill
a batch.  Episode ends are time-limit truncations, not terminal states, so
targets keep their bootstrap term there.

Three rules make the trained response a real best response at desk scale:

- canonical server order: the servers are exchangeable, since nothing in
  the game's dynamics or rewards depends on a server's index.  The network
  sees each state with its server rows sorted (`canonical_input`), and its
  action k means the server in row k.  A rule such as "probe the
  uncontrolled server with the most probes" or "reimage the up server with
  the most observed probes" is then one output of the network instead of
  ten index-specific ones, and a response trained against opponents that
  favour some servers carries over to opponents that favour others;
- reward centering: the targets are r - rbar + gamma * max Q(s', .), where
  rbar is a running average-reward estimate that moves by a step times the
  mean TD error of each replayed batch (value-based reward centering, Naik
  et al., RLC 2024).  The step starts at `_CENTER_STEP` and stays
  proportional to the learning rate, so it decays with it.  This removes
  the common offset rbar / (1 - gamma), near 87 against an idle defender,
  from every action value, leaving the small differences between actions
  (tenths of a unit; Bellemare et al., AAAI 2016, on small action gaps)
  for the network to fit;
- learning-rate decay: the step size falls linearly from `learning_rate` to
  zero over training, so the final network, whose greedy policy is
  returned, is not the last point of a jittering walk over nearly tied
  action values.

Each update runs one forward pass, over the (2, batch, input_dim) stack of
a replay sample's states and next states, which the buffer's rows hold
side by side: slice 0 feeds backpropagation, slice 1 the targets.  numpy's
stacked matmul runs the same gemm on each slice, with the strides of a
(batch, input_dim) product, so the update keeps the bits of two separate
passes; one (2 * batch, input_dim) matrix would round differently (it did
in 300 of 300 trials).  A training run keeps its update's arrays in one
`Workspace`, so an update allocates no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mtdgame.env import (
    ADVERSARY,
    COL_ADV_SINCE_PROBE,
    COL_CONTROL,
    COL_DEF_SINCE_PROBE,
    COL_DEF_SINCE_REIMAGE,
    COL_PROGRESS,
    COL_STATUS,
    COL_TIME_TO_UP,
    DEFENDER,
    ConfigError,
    EnvConfig,
    MtdEnv,
    check_range,
)
from mtdgame.policies import MixedStrategy, PurePolicy
from mtdgame.seeds import derive_seed, spawn_rng

# Input scaling constants: probe counts saturate at 30, elapsed-time fields
# at 100.  Beyond those the exact value carries no tactical information.
_PROGRESS_SCALE = 30
_ELAPSED_SCALE = 100

# Initial step of the average-reward estimate used for reward centering;
# it then decays in proportion to the learning rate.
_CENTER_STEP = 0.001

# Canonical server order, most significant key first, as (column, sign):
# sign 1 sorts ascending, -1 descending.  The adversary's uncontrolled up
# servers come first, most probed first; the defender's up servers come
# first, most observed probes first, most recently probed first.
_ADV_ORDER = ((COL_CONTROL, 1), (COL_STATUS, -1), (COL_PROGRESS, -1),
              (COL_TIME_TO_UP, 1), (COL_ADV_SINCE_PROBE, 1))
_DEF_ORDER = ((COL_STATUS, -1), (COL_PROGRESS, -1), (COL_DEF_SINCE_PROBE, 1),
              (COL_TIME_TO_UP, 1), (COL_DEF_SINCE_REIMAGE, 1))


_ORDERS = {ADVERSARY: _ADV_ORDER, DEFENDER: _DEF_ORDER}


@lru_cache(maxsize=16)
def _input_plan(player: str, downtime: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, weights) of one player's observation columns.

    `scale` is each column's divisor in `network_input` and also its clamp:
    statuses and control flags are 0/1, time_to_up never exceeds the
    downtime, and probe counts and elapsed times saturate.  So two servers
    get equal network rows exactly when their observations clamped at
    `scale` are equal, and `clamped @ weights` is one integer whose
    ascending order is the player's canonical order: a mixed-radix number
    with one digit per sort key, negated for descending keys.
    """
    scale = [1] * 5
    scale[COL_TIME_TO_UP] = downtime
    scale[COL_PROGRESS] = _PROGRESS_SCALE
    for col in ((COL_ADV_SINCE_PROBE,) if player == ADVERSARY
                else (COL_DEF_SINCE_PROBE, COL_DEF_SINCE_REIMAGE)):
        scale[col] = _ELAPSED_SCALE
    # np.lexsort over the clamped columns gives the same order at about twice
    # the cost: 5.8 against 3.0 us per observation, 22.0 against 14.6 us for 80 episodes
    weights = [0] * 5
    place = 1
    for col, sign in reversed(_ORDERS[player]):
        weights[col] = sign * place
        place *= scale[col] + 1
    # every key lies strictly between -place and place: all fit in an int64 if place does
    if place >= 2**63:
        raise ConfigError(f"downtime must be at most {(2**63 - 1) // (place // (downtime + 1)) - 1}"
                          f" for the {player}'s canonical server order, got {downtime}")
    scale, weights = np.array(scale, dtype=np.int64), np.array(weights, dtype=np.int64)
    scale.flags.writeable = weights.flags.writeable = False
    return scale, weights


class NumericalError(RuntimeError):
    """Training or solving produced non-finite numbers."""


@dataclass(frozen=True)
class TrainConfig:
    """Best-response training hyperparameters; EnvConfig sets horizon and discount."""

    epsilon_fraction: float = 0.2   # fraction of total steps spent decaying
    epsilon_final: float = 0.02
    learning_rate: float = 0.0005   # initial step size, decays linearly to 0
    batch_size: int = 32
    episodes: int = 500
    replay_capacity: int = 5000

    def __post_init__(self):
        check_range(self, "(0, 1]", "epsilon_fraction")
        check_range(self, "[0, 1]", "epsilon_final")
        check_range(self, "(0, inf)", "learning_rate")
        check_range(self, "[1, inf)", "batch_size", "episodes")
        check_range(self, f"[{self.batch_size}, inf)", "replay_capacity")


def network_input(player: str, obs: np.ndarray, cfg: EnvConfig) -> np.ndarray:
    """Normalize one player's observation into the network's input vector.

    Pure function of its arguments: statuses and control flags stay 0/1,
    time_to_up is divided by the downtime, probe counts by 30 and elapsed
    times by 100, both clamped to 1.  An (M, 5) observation gives one
    vector; an (n, M, 5) stack gives n rows.
    """
    scale, _ = _input_plan(player, cfg.downtime)
    return (np.minimum(obs, scale) / scale).reshape(*obs.shape[:-2], -1)


def canonical_input(player: str, obs: np.ndarray,
                    cfg: EnvConfig) -> tuple[np.ndarray, np.ndarray]:
    """The network input with its server rows in canonical order, and the order.

    Rows of `network_input` are sorted by the player's keys (`_ADV_ORDER`
    or `_DEF_ORDER`); ties keep server index order.  Row k of the result is
    server `order[k]`, so the network's action k means server `order[k]`.
    An (n, M, 5) stack gives n inputs and n orders.
    """
    scale, weights = _input_plan(player, cfg.downtime)
    order = (np.minimum(obs, scale) @ weights).argsort(axis=-1, kind="stable")
    # plain indexing is several times cheaper than np.take_along_axis here
    rows = obs.take(order, axis=0) if obs.ndim == 2 else obs[np.arange(len(obs))[:, None], order]
    return network_input(player, rows, cfg), order


class QNetwork:
    """Tanh MLP with a linear head, Glorot-uniform initial weights (zeros
    without an `rng`).  All parameters live in one vector, `params`, layer by
    layer, weights (out, in) then biases; `weights[k]` and `biases[k]` are
    views into it."""

    def __init__(self, input_dim: int, output_dim: int,
                 rng: np.random.Generator | None, hidden: tuple[int, ...] = (32, 32)):
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.dims = (input_dim, *hidden, output_dim)
        self.params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out
                                   in zip(self.dims[:-1], self.dims[1:])))
        views = self.split(self.params)
        self.weights: list[np.ndarray] = views[0::2]
        self.biases: list[np.ndarray] = views[1::2]
        if rng is not None:
            for w in self.weights:
                bound = math.sqrt(6.0 / sum(w.shape))
                w[:] = rng.uniform(-bound, bound, size=w.shape)

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-array views of a vector laid out like `params`:
        weights[0], biases[0], weights[1], biases[1], ..."""
        views = []
        start = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            views.append(vec[start:start + fan_in * fan_out].reshape(fan_out, fan_in))
            start += fan_in * fan_out
            views.append(vec[start:start + fan_out])
            start += fan_out
        return views

    def forward(self, x: np.ndarray, out: list[np.ndarray] | None = None) -> np.ndarray:
        """Action values of an input vector, or of each one in a stack of
        them (..., input_dim).  Arrays passed as `out`, one per layer,
        receive each layer's output, and the result is `out[-1]`; the
        layers' inputs, for backpropagation, are then `[x, *out[:-1]]`.
        Stacks shaped (n, 1, input_dim) give each row the same value bits
        as a call on that row alone; an (n, input_dim) matrix product may
        round differently."""
        h = x
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w.T, out=None if out is None else out[k])
            h += b
            if k != last:
                np.tanh(h, out=h)
        return h


class Workspace:
    """The arrays of one update at fixed shapes, reused by a training run,
    so that an update allocates none; each update overwrites the last.
    `rows` takes a replay sample, `batch` holds its views (states, actions,
    rewards), states stacking obs and next_obs as (2, batch, input_dim),
    `layers` each layer's output over that stack, `grad` the gradient."""

    def __init__(self, net: QNetwork, batch: int):
        d = net.input_dim
        self.rows = np.empty((batch, 2 * d + 2))
        self.batch = (self.rows[:, :2 * d].reshape(batch, 2, d).transpose(1, 0, 2),
                      self.rows[:, -2], self.rows[:, -1])
        self.layers = [np.empty((2, batch, n)) for n in net.dims[1:]]
        # backpropagation runs on slice 0 of the stack, the obs half
        self.hidden = [h[0] for h in self.layers[:-1]]
        self.dz = [np.empty((batch, n)) for n in net.dims[1:]]
        self.slope = [np.empty((batch, n)) for n in net.dims[1:-1]]
        self.offsets = np.arange(batch) * net.output_dim   # of each row of q, flattened
        self.index = np.empty(batch, dtype=np.int64)
        self.diff = np.empty(batch)
        self.centered = np.empty(batch)
        self.targets = np.empty(batch)
        self.grad = np.empty_like(net.params)
        self.grads = net.split(self.grad)


def loss_and_gradients(net: QNetwork, inputs: list[np.ndarray], q: np.ndarray,
                       actions: np.ndarray, targets: np.ndarray,
                       work: Workspace | None = None) -> tuple[float, np.ndarray]:
    """Mean squared error on the taken actions' values, with its gradient.

    `inputs` and `q` are one forward pass's layer inputs and output
    (`[x, *out[:-1]]` and `out[-1]` of `net.forward(x, out=out)`), at the
    parameters the gradient is for.
    Only the chosen action's output contributes per sample; `actions`
    holds action indices, as integers or integral floats.  The
    gradient is one vector laid out like net.params: `work.grad`, which
    the next update overwrites, when a Workspace is given, else a new one.
    """
    batch = len(q)
    if work is None:
        work = Workspace(net, batch)
    index, diff = work.index, work.diff
    index[:] = actions
    # one test for both ends: a negative action wraps to a huge unsigned one
    if np.maximum.reduce(index.view(np.uint64)) >= q.shape[1]:
        raise IndexError(f"actions must lie in [0, {q.shape[1]})")
    # q[rows, actions] as one gather from q flattened
    index += work.offsets
    q.take(index, out=diff, mode="clip")
    diff -= targets
    loss = float(diff @ diff) / batch
    # backward, from the linear head down to the first layer
    dz = work.dz[-1]
    dz.fill(0.0)
    diff *= 2.0
    diff /= batch
    dz.put(index, diff)
    grads = work.grads
    for k in range(len(inputs) - 1, -1, -1):
        np.add.reduce(dz, axis=0, out=grads[2 * k + 1])
        np.matmul(dz.T, inputs[k], out=grads[2 * k])
        if k:
            slope = work.slope[k - 1]
            np.multiply(inputs[k], inputs[k], out=slope)
            np.subtract(1.0, slope, out=slope)
            dz = np.matmul(dz, net.weights[k], out=work.dz[k - 1])
            dz *= slope
    return loss, work.grad


class AdamOptimizer:
    """Adam over a flat parameter vector, updated in place.

    The moments and the step are flat vectors too, so each update is a few
    whole-vector operations.  Every entry sees the same arithmetic in the
    same order as an update array by array, so results are identical.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self._step = np.empty(params.size)
        self._denom = np.empty(params.size)

    def apply(self, grad: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(grad, grad, out=denom)
        denom *= 1.0 - self.beta2
        v += denom
        # step = lr * (m / b1c) / (sqrt(v / b2c) + eps)
        np.divide(m, b1c, out=step)
        step *= self.lr
        np.divide(v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self.params -= step


class SgdOptimizer:  # training uses Adam; tests and perfbench/layertrace.py use this
    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self._step = np.empty(params.size)

    def apply(self, grad: np.ndarray) -> None:
        np.multiply(grad, self.lr, out=self._step)
        self.params -= self._step


class ReplayBuffer:
    """Fixed-capacity FIFO of transitions, one row each (obs, next_obs,
    action, reward), sampled uniformly with `rng.integers`."""

    def __init__(self, capacity: int, obs_dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.rows = np.empty((capacity, 2 * obs_dim + 2))
        self.size = 0
        self._pos = 0
        self.rng = rng

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, next_obs, reward) -> None:
        d = self.obs_dim
        row = self.rows[self._pos]
        row[:d] = obs
        row[d:2 * d] = next_obs
        row[-2] = action
        row[-1] = reward
        self._pos = (self._pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, out: np.ndarray | None = None) -> np.ndarray:
        """The `batch` rows `rng.integers(len(self), size=batch)` names, copied
        into `out`, which the next sample into it overwrites, or into a new
        array."""
        return self.rows.take(self.rng.integers(self.size, size=batch), axis=0, out=out, mode="clip")


def epsilon_value(tc: TrainConfig, step: int, total_steps: int) -> float:
    """Linear decay from 1 to epsilon_final over the first fraction of total_steps."""
    decay_steps = tc.epsilon_fraction * total_steps
    if step >= decay_steps:
        return tc.epsilon_final
    return 1.0 + (tc.epsilon_final - 1.0) * (step / decay_steps)


def learning_rate_value(tc: TrainConfig, step: int, total_steps: int) -> float:
    """Linear decay from learning_rate at step 0 towards 0 at step total_steps."""
    return tc.learning_rate * (1.0 - step / total_steps)


@dataclass
class RewardCenter:
    """Running estimate of the average reward, subtracted in the TD targets.

    After each update the estimate moves by `step` times the batch's mean
    TD error, so it depends only on the seeded replay stream.
    """

    step: float
    value: float = 0.0


def td_targets(q_next: np.ndarray, rewards: np.ndarray, gamma: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """One-step targets r + gamma * max_a' Q(s', a') from the next states'
    action values `q_next` (batch, actions), bootstrapped also at an
    episode's last step (see the module docstring).  Written into `out`
    if given, which must not be `rewards`, else into a new array."""
    out = np.maximum.reduce(q_next, axis=1, out=out)
    out *= gamma
    out += rewards
    return out


def train_step(net: QNetwork, optimizer, batch, gamma: float,
               center: RewardCenter, work: Workspace) -> float:
    """One gradient update from a batch (states, actions, rewards) laid out
    as `Workspace.batch` holds it; returns the pre-update loss.

    One forward pass over the (2, batch, input_dim) stack gives Q(s, .)
    and Q(s', .).  Targets use r - center.value, and the center then
    follows the batch's mean TD error.  `work` holds the update's arrays.
    """
    states, actions, rewards = batch
    q = net.forward(states, out=work.layers)
    np.subtract(rewards, center.value, out=work.centered)
    y = td_targets(q[1], work.centered, gamma, out=work.targets)
    loss, grad = loss_and_gradients(net, [states[0], *work.hidden], q[0], actions, y, work)
    # the output-bias gradient sums to 2 * mean(Q(s, a) - y)
    center.value -= 0.5 * center.step * float(np.add.reduce(work.grads[-1]))
    optimizer.apply(grad)
    return loss


class QNetworkPolicy(PurePolicy):
    """Greedy policy of a trained network over the canonical server order.
    Ties go to the lowest action index; the last index means no-op."""

    def __init__(self, player: str, net: QNetwork, cfg: EnvConfig, label: str):
        self.player = player
        self.net = net
        self.cfg = cfg
        self.label = label

    def act(self, obs, tau, rng):
        x, order = canonical_input(self.player, obs, self.cfg)
        a = int(self.net.forward(x).argmax())
        return -1 if a == self.cfg.num_servers else int(order[a])

    def choices(self, obs, tau):
        x, order = canonical_input(self.player, obs, self.cfg)
        a = self.net.forward(x[:, None, :])[:, 0].argmax(axis=1)
        rows = np.flatnonzero(a < self.cfg.num_servers)
        # one-hot on the server in canonical slot a; the last slot is the no-op
        mask = np.zeros(order.shape, dtype=bool)
        mask[rows, order[rows, a[rows]]] = True
        return mask, None


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    end_step: int
    return_discounted: float
    return_raw: float


@np.errstate(all="ignore")  # divergence shows as a non-finite loss or parameter, checked below
def train_best_response(player: str, opponents: list[PurePolicy],
                        opponent_mix: MixedStrategy, env_cfg: EnvConfig,
                        tc: TrainConfig, seed: int, label: str = "qnet",
                        ) -> tuple[QNetworkPolicy, list[EpisodeRecord]]:
    """Train a Q-network for one player against a frozen opponent mixture.

    Episodes last env_cfg.horizon steps, discounted by env_cfg.discount.
    The opponent's pure policy is drawn once per episode.  Returns the
    greedy policy over the final network and the per-episode learning curve.
    """
    if player not in (ADVERSARY, DEFENDER):
        raise ValueError(f"unknown player {player!r}")
    if len(opponents) != opponent_mix.weights.size:
        raise ValueError("mixture length does not match the opponent set")
    opp_side = DEFENDER if player == ADVERSARY else ADVERSARY
    for p in opponents:
        if p.player != opp_side:
            raise ConfigError(f"opponent {p.label} plays {p.player}, expected {opp_side}")
    total_steps = tc.episodes * env_cfg.horizon
    m = env_cfg.num_servers
    obs_dim = 5 * m
    n_actions = m + 1

    net = QNetwork(obs_dim, n_actions, spawn_rng(seed, "init"))
    optimizer = AdamOptimizer(net.params, tc.learning_rate)
    # a run pushes total_steps rows, so a larger FIFO would never wrap either
    buf = ReplayBuffer(min(tc.replay_capacity, total_steps), obs_dim, spawn_rng(seed, "replay"))
    work = Workspace(net, tc.batch_size)
    center = RewardCenter(_CENTER_STEP)
    explore_rng = spawn_rng(seed, "explore")
    mix_rng = spawn_rng(seed, "mixture")

    # test_benchmark_tracer_installs_and_measures counts these MtdEnv.step calls
    env = MtdEnv(env_cfg)
    curve: list[EpisodeRecord] = []
    gstep = 0
    for ep in range(tc.episodes):
        obs_a, obs_d = env.reset(derive_seed(seed, "episode", ep))
        opponent = opponents[opponent_mix.sample(mix_rng)]
        opp_rng = spawn_rng(seed, "opp", ep)
        my_obs, opp_obs = (obs_a, obs_d) if player == ADVERSARY else (obs_d, obs_a)
        x, order = canonical_input(player, my_obs, env_cfg)
        disc = 0.0
        raw = 0.0
        g = 1.0
        for t in range(env_cfg.horizon):
            if explore_rng.random() < epsilon_value(tc, gstep, total_steps):
                a_idx = int(explore_rng.integers(n_actions))
            else:
                a_idx = int(net.forward(x).argmax())
            my_action = -1 if a_idx == m else int(order[a_idx])
            opp_action = opponent.act(opp_obs, t, opp_rng)
            if player == ADVERSARY:
                my_next, opp_next, r, _ = env.step(my_action, opp_action)
            else:
                opp_next, my_next, _, r = env.step(opp_action, my_action)
            x_next, next_order = canonical_input(player, my_next, env_cfg)
            buf.push(x, a_idx, x_next, r)
            optimizer.lr = learning_rate_value(tc, gstep, total_steps)
            center.step = _CENTER_STEP * (optimizer.lr / tc.learning_rate)
            if len(buf) >= tc.batch_size:
                buf.sample(tc.batch_size, work.rows)
                loss = train_step(net, optimizer, work.batch, env_cfg.discount, center, work)
                if not math.isfinite(loss):
                    raise NumericalError(f"non-finite loss at step {gstep}")
            disc += g * r
            raw += r
            g *= env_cfg.discount
            gstep += 1
            x, order = x_next, next_order
            opp_obs = opp_next
        if not np.isfinite(net.params).all():
            raise NumericalError(f"non-finite network parameters after episode {ep}")
        curve.append(EpisodeRecord(ep, gstep, disc, raw))
    return QNetworkPolicy(player, net, env_cfg, label), curve
