from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdgame.env import ADVERSARY, DEFENDER, BlockStream, ConfigError, EnvConfig, MtdEnv
from mtdgame.policies import MixedStrategy, NoOpPolicy, _pick_rows
from mtdgame.qlearn import (
    AdamOptimizer,
    QNetwork,
    QNetworkPolicy,
    ReplayBuffer,
    RewardCenter,
    SgdOptimizer,
    TrainConfig,
    Workspace,
    canonical_input,
    epsilon_value,
    learning_rate_value,
    loss_and_gradients,
    network_input,
    td_targets,
    train_best_response,
    train_step,
)


def toy_net(input_dim=4, output_dim=3, seed=0, hidden=(8, 8)):
    return QNetwork(input_dim, output_dim, np.random.default_rng(seed), hidden=hidden)


def zeroed(net: QNetwork) -> QNetwork:
    net.params[:] = 0.0
    return net


# ------------------------------------------------------------ normalization


def test_network_input_scales_defender_columns(baseline):
    data = np.zeros((10, 5), dtype=np.int64)
    data[:, 0] = 1
    data[0] = [0, 7, 60, 250, 50]
    x = network_input(DEFENDER, data, baseline)
    assert x.shape == (50,)
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0)          # time_to_up / downtime
    assert x[2] == pytest.approx(1.0)          # probe count clamped at 30
    assert x[3] == pytest.approx(1.0)          # elapsed clamped at 100
    assert x[4] == pytest.approx(0.5)
    # untouched servers stay (1, 0, 0, 0, 0)
    assert x[5] == 1.0 and x[6:10].sum() == 0.0
    # the original observation is not modified in place
    assert data[0, 1] == 7


def test_network_input_scales_adversary_columns(baseline):
    data = np.zeros((10, 5), dtype=np.int64)
    data[:, 0] = 1
    data[0] = [1, 0, 15, 1, 200]
    x = network_input(ADVERSARY, data, baseline)
    assert x[2] == pytest.approx(0.5)
    assert x[3] == 1.0                         # control flag kept binary
    assert x[4] == pytest.approx(1.0)


def test_canonical_order_adversary_hand_value():
    cfg = EnvConfig(num_servers=4)
    data = np.array([[1, 0, 5, 1, 2],     # controlled
                     [0, 3, 0, 0, 10],    # down
                     [1, 0, 4, 0, 1],     # up, 4 probes
                     [1, 0, 9, 0, 1]])    # up, 9 probes
    x, order = canonical_input(ADVERSARY, data, cfg)
    # uncontrolled before controlled, up before down, most probes first
    assert order.tolist() == [3, 2, 1, 0]
    np.testing.assert_array_equal(
        x, network_input(ADVERSARY, data, cfg).reshape(4, 5)[[3, 2, 1, 0]].reshape(-1))


def test_canonical_order_defender_hand_value():
    cfg = EnvConfig(num_servers=4)
    data = np.array([[1, 0, 2, 5, 50],    # up, 2 probes, last 5 steps ago
                     [0, 7, 0, 100, 0],   # down
                     [1, 0, 2, 1, 80],    # up, 2 probes, last 1 step ago
                     [1, 0, 0, 100, 100]])
    _, order = canonical_input(DEFENDER, data, cfg)
    # up first, most observed probes first, most recently probed first
    assert order.tolist() == [2, 0, 3, 1]


def test_canonical_input_ignores_server_labels(baseline):
    """Relabelling the servers leaves the network input unchanged and
    relabels the greedy action the same way."""
    rng = np.random.default_rng(6)
    net = QNetwork(50, 11, rng)
    for player in (ADVERSARY, DEFENDER):
        pol = QNetworkPolicy(player, net, baseline, "qnet")
        for _ in range(20):
            obs = np.column_stack([rng.integers(0, 2, 10), rng.integers(0, 8, 10),
                                   rng.permutation(10), rng.integers(0, 2, 10),
                                   rng.integers(0, 120, 10)])
            perm = rng.permutation(10)
            moved = obs[perm]
            np.testing.assert_array_equal(canonical_input(player, obs, baseline)[0],
                                          canonical_input(player, moved, baseline)[0])
            a = pol.act(obs, 0, rng)
            b = pol.act(moved, 0, rng)
            assert a == b == -1 or (b >= 0 and perm[b] == a)


def random_observations(rng, n, m, downtime):
    """(n, m, 5) observations whose counts and clocks run past the clamps,
    with few distinct values per column so that ties are common."""
    return np.stack([rng.integers(0, 2, (n, m)), rng.integers(0, downtime + 1, (n, m)),
                     rng.choice([0, 1, 2, 29, 30, 31, 45], (n, m)), rng.integers(0, 2, (n, m)),
                     rng.choice([0, 3, 99, 100, 101, 250], (n, m))], axis=-1)


def lexsort_reference(player, obs, cfg):
    """The canonical order as a lexicographic sort of the normalized rows."""
    rows = network_input(player, obs, cfg).reshape(cfg.num_servers, 5)
    order = ([(3, 1), (0, -1), (2, -1), (1, 1), (4, 1)] if player == ADVERSARY
             else [(0, -1), (2, -1), (3, 1), (1, 1), (4, 1)])
    return np.lexsort([sign * rows[:, col] for col, sign in reversed(order)])


@pytest.mark.parametrize("player", [ADVERSARY, DEFENDER])
def test_canonical_order_matches_lexsort_reference(player):
    rng = np.random.default_rng(12)
    for downtime in (1, 7, 40):
        cfg = EnvConfig(num_servers=8, downtime=downtime)
        obs = random_observations(rng, 2000, 8, downtime)
        xs, orders = canonical_input(player, obs, cfg)
        for o, x, order in zip(obs, xs, orders):
            want = lexsort_reference(player, o, cfg)
            np.testing.assert_array_equal(order, want)
            np.testing.assert_array_equal(x, canonical_input(player, o, cfg)[0])


@pytest.mark.parametrize("player,others", [(ADVERSARY, 2 * 2 * 31 * 101),
                                           (DEFENDER, 2 * 31 * 101 * 101)])
def test_canonical_order_downtime_limit(player, others):
    """The order key is an int64 whose radix product is (downtime + 1) times
    `others`, that of the four other columns.  Up to the largest downtime
    that keeps the product below 2**63 the order is exact; one more is a
    ConfigError naming the downtime, not a silently wrapped order."""
    limit = (2**63 - 1) // others - 1
    rng = np.random.default_rng(3)
    obs = random_observations(rng, 300, 8, limit)
    obs[::2, 0, 1] = limit
    cfg = EnvConfig(num_servers=8, downtime=limit)
    for o, order in zip(obs, canonical_input(player, obs, cfg)[1]):
        np.testing.assert_array_equal(order, lexsort_reference(player, o, cfg))
    with pytest.raises(ConfigError, match="downtime must be at most"):
        canonical_input(player, obs, EnvConfig(num_servers=8, downtime=limit + 1))


@pytest.mark.parametrize("hidden", [(32, 32), (7,), ()])
def test_greedy_policy_act_batch_matches_act(hidden, catch_up):
    rng = np.random.default_rng(len(hidden))
    cfg = EnvConfig(num_servers=6)
    for trial in range(30):
        net = QNetwork(30, 7, rng, hidden=hidden)
        if trial % 3 == 0:
            net.biases[-1][6] += 0.5   # favour the no-op output now and then
        player = (ADVERSARY, DEFENDER)[trial % 2]
        pol = QNetworkPolicy(player, net, cfg, "qnet")
        obs = random_observations(rng, int(rng.integers(1, 80)), 6, cfg.downtime)
        row_rngs = [np.random.default_rng(i) for i in range(len(obs))]
        stream = BlockStream([np.random.default_rng(i) for i in range(len(obs))])
        want = [pol.act(o, 0, r) for o, r in zip(obs, row_rngs)]
        got = _pick_rows(*pol.choices(obs, 0), stream)
        assert got.tolist() == want
        catch_up(row_rngs, stream)


# ------------------------------------------------------------------ network


def test_glorot_initialization_bounds():
    net = toy_net(input_dim=6, output_dim=4, hidden=(5,))
    for w, (fan_out, fan_in) in zip(net.weights, [(5, 6), (4, 5)]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.abs(w).max() <= bound
    for b in net.biases:
        assert not b.any()


def test_zero_network_outputs_zero():
    net = zeroed(toy_net())
    assert not net.forward(np.ones(4)).any()
    assert not net.forward(np.ones((7, 4))).any()


def test_forward_matches_hand_computation():
    net = zeroed(QNetwork(2, 2, np.random.default_rng(0), hidden=(2,)))
    net.weights[0][:] = [[1.0, 0.0], [0.0, -1.0]]
    net.biases[0][:] = [0.5, 0.0]
    net.weights[1][:] = [[2.0, 1.0], [0.0, 3.0]]
    net.biases[1][:] = [0.0, -1.0]
    x = np.array([0.3, 0.7])
    h = np.tanh([0.3 + 0.5, -0.7])
    expect = np.array([2.0 * h[0] + 1.0 * h[1], 3.0 * h[1] - 1.0])
    np.testing.assert_allclose(net.forward(x), expect, atol=1e-12)


def test_forward_batch_consistent_with_single():
    net = toy_net()
    xs = np.random.default_rng(1).normal(size=(5, 4))
    batch = net.forward(xs)
    for i in range(5):
        np.testing.assert_allclose(batch[i], net.forward(xs[i]), atol=1e-12)


# ---------------------------------------------------------------- gradients


def loss_at(net, x, actions, targets):
    """Loss and gradient at one forward pass over the inputs x."""
    out = [np.empty((len(x), n)) for n in net.dims[1:]]
    q = net.forward(x, out=out)
    return loss_and_gradients(net, [x, *out[:-1]], q, actions, targets)


def check_against_finite_differences(hidden, seed):
    """Compare every returned gradient with central differences of the loss."""
    rng = np.random.default_rng(seed)
    net = QNetwork(6, 4, rng, hidden=hidden)
    x = rng.normal(size=(8, 6))
    actions = rng.integers(4, size=8)
    targets = rng.normal(size=8)
    loss, grad = loss_at(net, x, actions, targets)
    grads = net.split(grad)
    params = net.split(net.params)
    # the loss is read off the output layer, one gradient per parameter
    q = net.forward(x)[np.arange(8), actions]
    assert loss == pytest.approx(float((q - targets) @ (q - targets)) / 8, rel=1e-12)
    assert [g.shape for g in grads] == [p.shape for p in params]
    eps = 1e-6
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi, _ = loss_at(net, x, actions, targets)
            flat[idx] = orig - eps
            lo, _ = loss_at(net, x, actions, targets)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            assert g.reshape(-1)[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradients_match_finite_differences():
    check_against_finite_differences((5, 5), seed=2)


@pytest.mark.parametrize("hidden", [(5,), (5, 5, 5)])
def test_gradients_match_finite_differences_at_any_depth(hidden):
    check_against_finite_differences(hidden, seed=12)


def test_loss_only_counts_taken_actions():
    net = zeroed(toy_net(input_dim=3, output_dim=3, hidden=(2, 2)))
    x = np.zeros((2, 3))
    # predictions are all zero; only the chosen entries enter the loss
    loss, _ = loss_at(net, x, np.array([0, 2]), np.array([1.0, -2.0]))
    assert loss == pytest.approx((1.0 + 4.0) / 2, abs=1e-12)


@pytest.mark.parametrize("bad", [-1, 3])
def test_loss_rejects_out_of_range_actions(bad):
    net = toy_net(input_dim=3, output_dim=3, hidden=(2,))
    with pytest.raises(IndexError):
        loss_at(net, np.zeros((2, 3)), np.array([0, bad]), np.zeros(2))


def test_perfect_predictions_leave_parameters_untouched():
    net = toy_net()
    x = np.random.default_rng(3).normal(size=(4, 4))
    actions = np.array([0, 1, 2, 0])
    targets = net.forward(x)[np.arange(4), actions]
    before = net.params.copy()
    opt = AdamOptimizer(net.params, 0.1)
    # gamma 0 with targets equal to current predictions: zero gradient
    loss = train_step(net, opt, (np.stack([x, x]), actions, targets), 0.0, RewardCenter(0.0),
                      Workspace(net, 4))
    assert loss == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_array_equal(net.params, before)


# --------------------------------------------------------------- optimizers


def test_adam_first_step_matches_formula():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -1.5])
    opt = AdamOptimizer(p, learning_rate=0.1)
    opt.apply(g.copy())
    expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, expect, atol=1e-9)


def test_adam_matches_array_by_array_reference():
    """The flat-vector update gives the same bits as Adam applied to each
    parameter array in turn, also when the learning rate changes."""
    rng = np.random.default_rng(11)
    net = toy_net(input_dim=5, output_dim=3, hidden=(4, 6))
    params = net.split(net.params)
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    opt = AdamOptimizer(net.params, 0.01)
    for t in range(1, 21):
        grads = [rng.normal(size=p.shape) for p in params]
        opt.lr = 0.01 / t
        opt.apply(np.concatenate([g.ravel() for g in grads]))
        b1c, b2c = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for p, g, mk, vk in zip(ref, grads, m, v):
            mk *= 0.9
            mk += (1.0 - 0.9) * g
            vk *= 0.999
            vk += (1.0 - 0.999) * (g * g)
            p -= opt.lr * (mk / b1c) / (np.sqrt(vk / b2c) + 1e-8)
    for p, r in zip(params, ref):
        np.testing.assert_array_equal(p, r)


def test_sgd_step():
    p = np.array([1.0])
    SgdOptimizer(p, 0.5).apply(np.array([2.0]))
    assert p[0] == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------------- replay


def test_replay_overwrites_oldest():
    buf = ReplayBuffer(3, obs_dim=1, rng=np.random.default_rng(0))
    for k in range(5):
        buf.push(np.array([float(k)]), k, np.array([0.0]), 0.0)
    assert len(buf) == 3
    seen = set()
    for _ in range(50):
        seen.update(int(a) for a in buf.sample(4)[:, -2])
    assert seen == {2, 3, 4}


def test_replay_sampling_uses_replacement():
    buf = ReplayBuffer(8, obs_dim=1, rng=np.random.default_rng(1))
    buf.push(np.array([1.0]), 0, np.array([0.0]), 0.5)
    work = Workspace(QNetwork(1, 2, None, hidden=(3,)), 6)
    assert buf.sample(6, work.rows) is work.rows
    states, actions, rewards = work.batch
    assert states.shape == (2, 6, 1)
    assert (states[0] == 1.0).all() and (states[1] == 0.0).all()
    assert (actions == 0.0).all() and (rewards == 0.5).all()


def test_replay_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, obs_dim=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="high <= 0"):   # numpy's, for an empty buffer
        ReplayBuffer(1, obs_dim=1, rng=np.random.default_rng(0)).sample(1)


def test_replay_samples_are_the_generators_draws():
    """A same-seeded generator predicts every sample of a buffer that fills
    from one row and then wraps at capacity 7, at batches of 1 and 5."""
    for batch in (1, 5):
        buf = ReplayBuffer(7, obs_dim=1, rng=np.random.default_rng(13))
        twin, slots = np.random.default_rng(13), []
        for k in range(20):
            buf.push(np.array([float(k)]), k, np.array([-float(k)]), 0.5 * k)
            row = [float(k), -float(k), k, 0.5 * k]
            if k < 7:
                slots.append(row)
            else:
                slots[k % 7] = row   # the oldest row's slot
            want = np.array(slots)[twin.integers(len(slots), size=batch)]
            assert np.array_equal(buf.sample(batch), want)
        assert twin.bit_generator.state == buf.rng.bit_generator.state


# ----------------------------------------------------------------- schedule


def test_epsilon_schedule_endpoints_and_midpoint():
    tc = TrainConfig(episodes=500)
    total = 500 * 1000
    assert epsilon_value(tc, 0, total) == pytest.approx(1.0)
    assert epsilon_value(tc, 50_000, total) == pytest.approx(0.51)
    assert epsilon_value(tc, 100_000, total) == pytest.approx(0.02)
    assert epsilon_value(tc, 400_000, total) == pytest.approx(0.02)


def test_epsilon_schedule_is_linear():
    tc = TrainConfig(episodes=10, epsilon_fraction=0.5)
    decay = 500
    for step in (0, 100, 250, 499):
        expect = 1.0 + (0.02 - 1.0) * step / decay
        assert epsilon_value(tc, step, 10 * 100) == pytest.approx(expect)


def test_learning_rate_decays_linearly_to_zero():
    tc = TrainConfig(episodes=10, learning_rate=0.002)
    total = 10 * 100
    assert learning_rate_value(tc, 0, total) == pytest.approx(0.002)
    assert learning_rate_value(tc, 500, total) == pytest.approx(0.001)
    assert learning_rate_value(tc, 999, total) == pytest.approx(0.002e-3)


# ------------------------------------------------------------------ targets


def test_td_targets_zero_gamma_returns_rewards():
    net = toy_net()
    r = np.array([0.1, -0.3])
    x = np.zeros((2, 4))
    np.testing.assert_allclose(td_targets(net.forward(x), r, 0.0), r, atol=1e-15)


def test_td_targets_hand_value():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [0.0, 2.0]  # constant q-values (0, 2)
    y = td_targets(net.forward(np.zeros((1, 2))), np.array([0.5]), 0.99)
    assert y[0] == pytest.approx(2.48, abs=1e-12)


def test_td_targets_bootstrap_survives_truncation():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [1.0, 0.0]
    y = td_targets(net.forward(np.zeros((1, 2))), np.array([0.0]), 0.9)
    assert y[0] == pytest.approx(0.9, abs=1e-12)


# --------------------------------------------------------------- train step


def test_train_step_centers_rewards_hand_value():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [0.0, 2.0]  # constant q-values (0, 2)
    center = RewardCenter(step=0.1, value=0.3)
    batch = (np.zeros((2, 1, 2)), np.array([0]), np.array([0.5]))
    loss = train_step(net, SgdOptimizer(net.params, 0.0), batch, 0.99,
                      center=center, work=Workspace(net, 1))
    # target (0.5 - 0.3) + 0.99 * 2 = 2.18 against a prediction of 0
    assert loss == pytest.approx(2.18 ** 2, abs=1e-12)
    # the center moves by step * mean TD error
    assert center.value == pytest.approx(0.3 + 0.1 * 2.18, abs=1e-12)


def test_train_step_reports_pre_update_loss():
    net = toy_net()
    opt = SgdOptimizer(net.params, 0.01)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 4))
    batch = (np.stack([x, x]), rng.integers(3, size=8), rng.normal(size=8))
    q = net.forward(x)
    y = td_targets(q, batch[2], 0.9)
    diff = q[np.arange(8), batch[1]] - y
    expect = float(diff @ diff) / 8
    assert train_step(net, opt, batch, 0.9, RewardCenter(0.0), Workspace(net, 8)) == pytest.approx(
        expect, rel=1e-12)


def test_repeated_batch_drives_loss_down():
    net = toy_net(input_dim=4, output_dim=3)
    opt = AdamOptimizer(net.params, 0.005)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 4))
    actions = rng.integers(3, size=16)
    rewards = rng.normal(size=16)
    batch = (np.stack([x, x]), actions, rewards)
    work = Workspace(net, 16)
    losses = [train_step(net, opt, batch, 0.0, RewardCenter(0.0), work) for _ in range(1000)]
    warm = losses[100:]
    assert all(b <= a + 1e-9 for a, b in zip(warm, warm[1:]))
    assert losses[-1] < losses[0] * 0.01


# ------------------------------------------------ same bits as a plain update


def reference_forward(net, x, inputs=None):
    """`QNetwork.forward` written with fresh arrays throughout."""
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        if inputs is not None:
            inputs.append(h)
        h = h @ w.T
        h += b
        if k != last:
            np.tanh(h, out=h)
    return h


def reference_update(net, moments, rows, lr, gamma, center, t):
    """One update written plainly from replay rows (obs | next_obs | action |
    reward): one forward pass for the targets, another for the loss, fresh
    arrays throughout, then Adam (with `moments`) or SGD (without).
    Returns the pre-update loss."""
    d = net.input_dim
    obs, next_obs = rows[:, :d], rows[:, d:2 * d]
    actions, rewards = rows[:, -2].astype(np.int64), rows[:, -1]
    y = (rewards - center.value) + gamma * reference_forward(net, next_obs).max(axis=1)
    inputs = []
    q = reference_forward(net, obs, inputs)
    batch = len(rows)
    at = np.arange(batch)
    diff = q[at, actions] - y
    loss = float(diff @ diff) / batch
    dz = np.zeros_like(q)
    dz[at, actions] = 2.0 * diff / batch
    grads = [None] * (2 * len(inputs))
    for k in range(len(inputs) - 1, -1, -1):
        grads[2 * k + 1] = dz.sum(axis=0)
        grads[2 * k] = dz.T @ inputs[k]
        if k:
            below = inputs[k]
            dz = (dz @ net.weights[k]) * (1.0 - below * below)
    grad = np.concatenate([g.ravel() for g in grads])
    center.value -= 0.5 * center.step * float(grad[-net.output_dim:].sum())
    if moments is None:
        net.params -= lr * grad
    else:
        m, v = moments
        m *= 0.9
        m += (1.0 - 0.9) * grad
        v *= 0.999
        v += (grad * grad) * (1.0 - 0.999)
        b1c, b2c = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        net.params -= ((m / b1c) * lr) / (np.sqrt(v / b2c) + 1e-8)
    return loss


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("hidden", [(32, 32), (32, 32, 32)])
def test_update_keeps_the_bits_of_a_plain_update(optimizer, hidden):
    """Training's update (one forward pass over the stacked sample, a reused
    Workspace) gives exactly the parameters, losses and reward center of
    `reference_update`, over 200 updates with a decaying step size."""
    rng = np.random.default_rng(21)
    buf = ReplayBuffer(500, obs_dim=50, rng=np.random.default_rng(5))
    for _ in range(500):
        buf.push(rng.integers(0, 4, 50) / 3, rng.integers(11), rng.integers(0, 4, 50) / 3,
                 rng.normal(4.0, 2.0))
    net, ref = (QNetwork(50, 11, np.random.default_rng(3), hidden) for _ in range(2))
    start = net.params.copy()
    opt = (AdamOptimizer if optimizer == "adam" else SgdOptimizer)(net.params, 0.01)
    moments = (np.zeros(ref.params.size), np.zeros(ref.params.size)) if optimizer == "adam" else None
    center, ref_center = RewardCenter(0.001), RewardCenter(0.001)
    work = Workspace(net, 32)
    ref_draws = np.random.default_rng(5)
    losses, ref_losses = [], []
    updates = 200
    for t in range(updates):
        opt.lr = 0.01 * (1.0 - t / updates)
        center.step = ref_center.step = 0.001 * (1.0 - t / updates)
        buf.sample(32, work.rows)
        losses.append(train_step(net, opt, work.batch, 0.99, center, work))
        rows = buf.rows[ref_draws.integers(len(buf), size=32)]
        ref_losses.append(reference_update(ref, moments, rows, opt.lr, 0.99, ref_center, t + 1))
    assert not np.array_equal(net.params, start)
    assert np.array_equal(net.params, ref.params)
    assert np.array_equal(losses, ref_losses)
    assert center.value == ref_center.value


def test_public_results_belong_to_the_caller(baseline):
    """Arrays returned by the learner's public calls are not overwritten by
    a later call."""
    rng = np.random.default_rng(6)
    net = toy_net()
    buf = ReplayBuffer(16, obs_dim=4, rng=np.random.default_rng(2))
    for k in range(16):
        buf.push(rng.normal(size=4), k % 3, rng.normal(size=4), rng.normal())
    pol = QNetworkPolicy(ADVERSARY, QNetwork(50, 11, np.random.default_rng(1)), baseline, "q")

    def forward(seed):
        return (net.forward(np.random.default_rng(seed).normal(size=(5, 4))),)

    def targets(seed):
        g = np.random.default_rng(seed)
        return (td_targets(g.normal(size=(5, 3)), g.normal(size=5), 0.9),)

    def gradient(seed):
        g = np.random.default_rng(seed)
        return (loss_at(net, g.normal(size=(5, 4)), g.integers(3, size=5), g.normal(size=5))[1],)

    def sample(seed):
        return (buf.sample(6),)

    def choices(seed):
        obs = np.random.default_rng(seed).integers(0, 3, size=(4, 10, 5))
        return (pol.choices(obs, 0)[0],)

    for call in (forward, targets, gradient, sample, choices):
        first = call(1)
        kept = [a.copy() for a in first]
        second = call(2)
        for a, b, c in zip(first, kept, second, strict=True):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, c)
    obs = np.random.default_rng(3).integers(0, 3, size=(10, 5))
    assert type(pol.act(obs, 0, rng)) is int


# ------------------------------------------------------------ greedy policy


def test_greedy_policy_action_mapping(baseline):
    net = zeroed(QNetwork(50, 11, np.random.default_rng(0)))
    pol = QNetworkPolicy(ADVERSARY, net, baseline, "qnet")
    env = MtdEnv(baseline)
    obs, _ = env.reset(0)
    net.biases[-1][:] = 0.0
    net.biases[-1][4] = 1.0
    assert pol.act(obs, 0, np.random.default_rng(0)) == 4
    net.biases[-1][:] = 0.0
    net.biases[-1][10] = 1.0  # index M means do nothing
    assert pol.act(obs, 0, np.random.default_rng(0)) == -1
    net.biases[-1][:] = 0.0   # exact tie: lowest index wins
    assert pol.act(obs, 0, np.random.default_rng(0)) == 0


def test_greedy_policy_maps_through_canonical_order():
    cfg = EnvConfig(num_servers=4)
    net = zeroed(QNetwork(20, 5, np.random.default_rng(0)))
    pol = QNetworkPolicy(ADVERSARY, net, cfg, "qnet")
    obs = np.array([[1, 0, 5, 1, 2], [0, 3, 0, 0, 10],
                    [1, 0, 4, 0, 1], [1, 0, 9, 0, 1]])
    net.biases[-1][0] = 1.0   # the first canonical row is server 3
    assert pol.act(obs, 0, np.random.default_rng(0)) == 3
    net.biases[-1][:] = [0.0, 0.0, 0.0, 1.0, 0.0]
    assert pol.act(obs, 0, np.random.default_rng(0)) == 0


# ------------------------------------------------------------ configuration


@pytest.mark.parametrize("bad", [
    dict(epsilon_fraction=0.0),
    dict(epsilon_final=1.5),
    dict(learning_rate=0.0),
    dict(batch_size=0),
    dict(episodes=0),
    dict(replay_capacity=4, batch_size=8),
    dict(learning_rate=math.nan),
    dict(learning_rate=math.inf),
    dict(episodes=2.5),
    dict(batch_size=True),
    dict(replay_capacity=math.nan),
])
def test_train_config_validation(bad):
    with pytest.raises(ConfigError):
        replace(TrainConfig(), **bad)


def test_train_config_accepts_replay_capacity_2_32():
    assert TrainConfig(replay_capacity=2**32).replay_capacity == 2**32
    assert TrainConfig(replay_capacity=2**32 + 1).replay_capacity == 2**32 + 1   # no upper bound


# ----------------------------------------------------------------- training


def small_tc(**kw):
    base = dict(episodes=2, batch_size=8, replay_capacity=64)
    base.update(kw)
    return TrainConfig(**base)


def test_training_smoke_and_curve_shape(short):
    pol, curve = train_best_response(
        ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
        short, small_tc(), 0, label="adv_smoke")
    assert pol.player == ADVERSARY
    assert pol.label == "adv_smoke"
    assert [c.episode for c in curve] == [0, 1]
    assert curve[-1].end_step == 100
    assert all(math.isfinite(c.return_discounted) for c in curve)


def test_training_is_deterministic(short):
    def run():
        pol, curve = train_best_response(
            ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
            short, small_tc(), 0)
        return pol, [(c.return_discounted, c.return_raw) for c in curve]

    p1, c1 = run()
    p2, c2 = run()
    assert c1 == c2
    np.testing.assert_array_equal(p1.net.params, p2.net.params)


def test_forced_full_exploration_matches_random_play(short):
    """With exploration pinned at 1 the behaviour policy is uniform over
    the M+1 actions, whatever the network says."""
    tc = small_tc(episodes=6, epsilon_final=1.0)
    _, curve = train_best_response(
        ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
        short, tc, 0)
    got = np.mean([c.return_discounted for c in curve])

    cfg = replace(short, horizon=50)
    env = MtdEnv(cfg)
    rng = np.random.default_rng(7)
    refs = []
    for e in range(40):
        env.reset(1000 + e)
        disc, g = 0.0, 1.0
        for _ in range(50):
            a = int(rng.integers(11))
            disc += g * env.step(-1 if a == 10 else a, -1)[2]
            g *= cfg.discount
        refs.append(disc)
    assert got == pytest.approx(np.mean(refs), abs=3.0)


def test_training_validates_opponents(short):
    with pytest.raises(ValueError):
        train_best_response(ADVERSARY, [NoOpPolicy(ADVERSARY)],
                            MixedStrategy(np.array([1.0])), short, small_tc(), 0)
    with pytest.raises(ValueError):
        train_best_response(ADVERSARY, [NoOpPolicy(DEFENDER)],
                            MixedStrategy(np.array([0.5, 0.5])), short, small_tc(), 0)
    with pytest.raises(ValueError):
        train_best_response("referee", [NoOpPolicy(DEFENDER)],
                            MixedStrategy(np.array([1.0])), short, small_tc(), 0)


def test_training_opponent_mixture_is_used(short):
    """A two-policy mixture trains against both opponents across episodes."""
    seen = []

    class Spy(NoOpPolicy):
        def __init__(self, tag):
            super().__init__(DEFENDER, label=tag)

        def act(self, obs, tau, rng):
            if tau == 0:
                seen.append(self.label)
            return -1

    tc = small_tc(episodes=12)
    train_best_response(ADVERSARY, [Spy("a"), Spy("b")],
                        MixedStrategy(np.array([0.5, 0.5])), replace(short, horizon=10), tc, 0)
    assert set(seen) == {"a", "b"}
    assert len(seen) == 12
