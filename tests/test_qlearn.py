from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdgame.env import ADVERSARY, DEFENDER, ConfigError, EnvConfig, MtdEnv
from mtdgame.policies import MixedStrategy, NoOpPolicy, UniformAdversary
from mtdgame.qlearn import (
    AdamOptimizer,
    QNetwork,
    QNetworkPolicy,
    ReplayBuffer,
    RewardCenter,
    SgdOptimizer,
    TrainConfig,
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
    for p in net.parameters():
        p[:] = 0.0
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
            assert (a is None and b is None) or perm[b] == a


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


@pytest.mark.parametrize("hidden", [(32, 32), (7,), ()])
def test_greedy_policy_act_batch_matches_act(hidden):
    rng = np.random.default_rng(len(hidden))
    cfg = EnvConfig(num_servers=6)
    for trial in range(30):
        net = QNetwork(30, 7, rng, hidden=hidden)
        if trial % 3 == 0:
            net.biases[-1][6] += 0.5   # favour the no-op output now and then
        player = (ADVERSARY, DEFENDER)[trial % 2]
        pol = QNetworkPolicy(player, net, cfg, "qnet")
        obs = random_observations(rng, int(rng.integers(1, 80)), 6, cfg.downtime)
        want = [pol.act(o, 0, None) for o in obs]
        got = pol.act_batch(obs, 0, [None] * len(obs))
        assert got.tolist() == [-1 if a is None else a for a in want]


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


def check_against_finite_differences(hidden, seed):
    """Compare every returned gradient with central differences of the loss."""
    rng = np.random.default_rng(seed)
    net = QNetwork(6, 4, rng, hidden=hidden)
    x = rng.normal(size=(8, 6))
    actions = rng.integers(4, size=8)
    targets = rng.normal(size=8)
    loss, grad = loss_and_gradients(net, x, actions, targets)
    grads = net.split(grad)
    params = net.parameters()
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
            hi, _ = loss_and_gradients(net, x, actions, targets)
            flat[idx] = orig - eps
            lo, _ = loss_and_gradients(net, x, actions, targets)
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
    loss, _ = loss_and_gradients(net, x, np.array([0, 2]), np.array([1.0, -2.0]))
    assert loss == pytest.approx((1.0 + 4.0) / 2, abs=1e-12)


def test_perfect_predictions_leave_parameters_untouched():
    net = toy_net()
    x = np.random.default_rng(3).normal(size=(4, 4))
    actions = np.array([0, 1, 2, 0])
    targets = net.forward(x)[np.arange(4), actions]
    before = [p.copy() for p in net.parameters()]
    opt = AdamOptimizer(net.params, 0.1)
    # gamma 0 with targets equal to current predictions: zero gradient
    loss = train_step(net, opt, (x, actions, x, targets), 0.0, RewardCenter(0.0))
    assert loss == pytest.approx(0.0, abs=1e-18)
    for p, b in zip(net.parameters(), before):
        np.testing.assert_array_equal(p, b)


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
    params = net.parameters()
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
    buf = ReplayBuffer(3, obs_dim=1)
    for k in range(5):
        buf.push(np.array([float(k)]), k, np.array([0.0]), 0.0)
    assert len(buf) == 3
    seen = set()
    rng = np.random.default_rng(0)
    for _ in range(50):
        obs, actions, *_ = buf.sample(4, rng)
        seen.update(int(a) for a in actions)
    assert seen == {2, 3, 4}


def test_replay_sampling_uses_replacement():
    buf = ReplayBuffer(8, obs_dim=1)
    buf.push(np.array([1.0]), 0, np.array([0.0]), 0.5)
    obs, actions, next_obs, rewards = buf.sample(6, np.random.default_rng(1))
    assert obs.shape == (6, 1)
    assert (rewards == 0.5).all()


def test_replay_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, obs_dim=1)


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
    np.testing.assert_allclose(td_targets(net, x, r, 0.0), r, atol=1e-15)


def test_td_targets_hand_value():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [0.0, 2.0]  # constant q-values (0, 2)
    y = td_targets(net, np.zeros((1, 2)), np.array([0.5]), 0.99)
    assert y[0] == pytest.approx(2.48, abs=1e-12)


def test_td_targets_bootstrap_survives_truncation():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [1.0, 0.0]
    y = td_targets(net, np.zeros((1, 2)), np.array([0.0]), 0.9)
    assert y[0] == pytest.approx(0.9, abs=1e-12)


# --------------------------------------------------------------- train step


def test_train_step_centers_rewards_hand_value():
    net = zeroed(toy_net(input_dim=2, output_dim=2, hidden=(2,)))
    net.biases[-1][:] = [0.0, 2.0]  # constant q-values (0, 2)
    center = RewardCenter(step=0.1, value=0.3)
    batch = (np.zeros((1, 2)), np.array([0]), np.zeros((1, 2)), np.array([0.5]))
    loss = train_step(net, SgdOptimizer(net.params, 0.0), batch, 0.99,
                      center=center)
    # target (0.5 - 0.3) + 0.99 * 2 = 2.18 against a prediction of 0
    assert loss == pytest.approx(2.18 ** 2, abs=1e-12)
    # the center moves by step * mean TD error
    assert center.value == pytest.approx(0.3 + 0.1 * 2.18, abs=1e-12)


def test_train_step_reports_pre_update_loss():
    net = toy_net()
    opt = SgdOptimizer(net.params, 0.01)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 4))
    batch = (x, rng.integers(3, size=8), x.copy(), rng.normal(size=8))
    q = net.forward(x)
    y = td_targets(net, x, batch[3], 0.9)
    diff = q[np.arange(8), batch[1]] - y
    expect = float(diff @ diff) / 8
    assert train_step(net, opt, batch, 0.9, RewardCenter(0.0)) == pytest.approx(
        expect, rel=1e-12)


def test_repeated_batch_drives_loss_down():
    net = toy_net(input_dim=4, output_dim=3)
    opt = AdamOptimizer(net.params, 0.005)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 4))
    actions = rng.integers(3, size=16)
    rewards = rng.normal(size=16)
    batch = (x, actions, x.copy(), rewards)
    losses = [train_step(net, opt, batch, 0.0, RewardCenter(0.0)) for _ in range(1000)]
    warm = losses[100:]
    assert all(b <= a + 1e-9 for a, b in zip(warm, warm[1:]))
    assert losses[-1] < losses[0] * 0.01


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
    assert pol.act(obs, 0, np.random.default_rng(0)) is None
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
    dict(optimizer="rmsprop"),
    dict(learning_rate=math.nan),
    dict(learning_rate=math.inf),
    dict(episodes=2.5),
    dict(batch_size=True),
    dict(replay_capacity=math.nan),
])
def test_train_config_validation(bad):
    with pytest.raises(ConfigError):
        replace(TrainConfig(), **bad)


# ----------------------------------------------------------------- training


def small_tc(**kw):
    base = dict(episodes=2, batch_size=8, replay_capacity=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_training_smoke_and_curve_shape(short):
    pol, curve = train_best_response(
        ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
        short, small_tc(), label="adv_smoke")
    assert pol.player == ADVERSARY
    assert pol.label == "adv_smoke"
    assert [c.episode for c in curve] == [0, 1]
    assert curve[-1].end_step == 100
    assert all(math.isfinite(c.return_discounted) for c in curve)


def test_training_is_deterministic(short):
    def run():
        pol, curve = train_best_response(
            ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
            short, small_tc())
        return pol, [(c.return_discounted, c.return_raw) for c in curve]

    p1, c1 = run()
    p2, c2 = run()
    assert c1 == c2
    for a, b in zip(p1.net.parameters(), p2.net.parameters()):
        np.testing.assert_array_equal(a, b)


def test_forced_full_exploration_matches_random_play(short):
    """With exploration pinned at 1 the behaviour policy is uniform over
    the M+1 actions, whatever the network says."""
    tc = small_tc(episodes=6, epsilon_final=1.0)
    _, curve = train_best_response(
        ADVERSARY, [NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])),
        short, tc)
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
            out = env.step(None if a == 10 else a, None)
            disc += g * out.reward_adv
            g *= cfg.discount
        refs.append(disc)
    assert got == pytest.approx(np.mean(refs), abs=3.0)


def test_training_validates_opponents(short):
    with pytest.raises(ValueError):
        train_best_response(ADVERSARY, [NoOpPolicy(ADVERSARY)],
                            MixedStrategy(np.array([1.0])), short, small_tc())
    with pytest.raises(ValueError):
        train_best_response(ADVERSARY, [NoOpPolicy(DEFENDER)],
                            MixedStrategy(np.array([0.5, 0.5])), short, small_tc())
    with pytest.raises(ValueError):
        train_best_response("referee", [NoOpPolicy(DEFENDER)],
                            MixedStrategy(np.array([1.0])), short, small_tc())


def test_training_opponent_mixture_is_used(short):
    """A two-policy mixture trains against both opponents across episodes."""
    seen = []

    class Spy(NoOpPolicy):
        def __init__(self, tag):
            super().__init__(DEFENDER, label=tag)

        def act(self, obs, tau, rng):
            if tau == 0:
                seen.append(self.label)
            return None

    tc = small_tc(episodes=12)
    train_best_response(ADVERSARY, [Spy("a"), Spy("b")],
                        MixedStrategy(np.array([0.5, 0.5])), replace(short, horizon=10), tc)
    assert set(seen) == {"a", "b"}
    assert len(seen) == 12
