import math

import numpy as np
import pytest

from mtdgame.double_oracle import DoRecord
from mtdgame.env import ADVERSARY, DEFENDER, EnvConfig
from mtdgame.nash import EmpiricalGame, solve_msne
from mtdgame.policies import (
    HEURISTICS,
    ControlThresholdAdversary,
    ControlThresholdDefender,
    MaxProbeAdversary,
    MaxProbeDefender,
    MixedStrategy,
    NoOpPolicy,
    ProbeCountPeriodDefender,
    UniformAdversary,
    UniformDefender,
    default_adversaries,
    default_defenders,
    heuristic_params,
)
from mtdgame.qlearn import EpisodeRecord, QNetwork, QNetworkPolicy
from mtdgame.serialize import (
    PolicyFormatError,
    load_do_curve,
    load_game,
    load_mixture,
    load_policy,
    save_do_curve,
    save_equilibrium,
    save_game,
    save_learning_curve,
    save_mixture,
    save_policy,
)

ALL_HEURISTICS = [
    NoOpPolicy(ADVERSARY),
    UniformAdversary(period=3),
    MaxProbeAdversary(period=2),
    ControlThresholdAdversary(threshold=0.7),
    NoOpPolicy(DEFENDER),
    UniformDefender(period=5),
    MaxProbeDefender(period=6),
    ProbeCountPeriodDefender(period=3, probe_limit=4),
    ControlThresholdDefender(threshold=0.6, period=2, gain=0.1),
]


@pytest.mark.parametrize("policy", ALL_HEURISTICS,
                         ids=lambda p: f"{p.player}-{p.label}")
def test_heuristic_round_trip(policy, baseline, tmp_path):
    first = tmp_path / "a.policy"
    second = tmp_path / "b.policy"
    save_policy(policy, first)
    loaded = load_policy(first, baseline)
    assert type(loaded) is type(policy)
    assert loaded.player == policy.player
    save_policy(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_heuristic_label_written_only_when_not_the_name(baseline, tmp_path):
    """A label other than the registry name ends the line as `label=`; the
    default label adds nothing, so files without one keep their bytes."""
    p = tmp_path / "x.policy"
    save_policy(UniformAdversary(period=2), p)
    assert p.read_text(encoding="utf-8") == "heuristic adversary uniform period=2\n"
    assert load_policy(p, baseline).label == "uniform"
    save_policy(UniformAdversary(period=2, label="fast"), p)
    assert p.read_text(encoding="utf-8") == "heuristic adversary uniform period=2 label=fast\n"
    loaded = load_policy(p, baseline)
    assert (type(loaded), loaded.period, loaded.label) == (UniformAdversary, 2, "fast")
    p.write_text("heuristic defender noop label=idle\n", encoding="utf-8")
    loaded = load_policy(p, baseline)
    assert (type(loaded), loaded.player, loaded.label) == (NoOpPolicy, DEFENDER, "idle")
    p.write_text("heuristic defender pcp label=pcp\n", encoding="utf-8")
    assert load_policy(p, baseline).label == "pcp"
    p.write_text("heuristic defender uniform label=\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="bad value for label"):
        load_policy(p, baseline)
    p.write_text("heuristic defender uniform label=a label=b\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="given twice"):
        load_policy(p, baseline)


@pytest.mark.parametrize("label", ["", "two words", "tab\there", " lead", "trail\n"])
def test_heuristic_label_must_be_one_token(label, tmp_path):
    p = tmp_path / "x.policy"
    with pytest.raises(PolicyFormatError, match="empty or contains whitespace"):
        save_policy(UniformDefender(label=label), p)
    assert not p.exists()


def test_qnet_round_trip_is_exact(baseline, tmp_path):
    rng = np.random.default_rng(7)
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1, rng)
    pol = QNetworkPolicy(ADVERSARY, net, baseline, "br")
    p = tmp_path / "br.policy"
    save_policy(pol, p)
    loaded = load_policy(p, baseline)
    assert isinstance(loaded, QNetworkPolicy)
    assert loaded.player == ADVERSARY
    assert loaded.label == "br"
    assert loaded.net.input_dim == net.input_dim
    assert loaded.net.output_dim == net.output_dim
    for w0, w1 in zip(net.weights, loaded.net.weights):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(net.biases, loaded.net.biases):
        np.testing.assert_array_equal(b0, b1)
    x = rng.normal(size=(7, net.input_dim))
    np.testing.assert_array_equal(net.forward(x), loaded.net.forward(x))


def test_qnet_label_defaults_to_filename(baseline, tmp_path):
    rng = np.random.default_rng(0)
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1, rng,
                   hidden=(4,))
    p = tmp_path / "trained_adv.policy"
    save_policy(QNetworkPolicy(DEFENDER, net, baseline, "whatever"), p)
    assert load_policy(p, baseline).label == "trained_adv"


def test_qnet_server_count_mismatch(baseline, tmp_path):
    rng = np.random.default_rng(1)
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1, rng,
                   hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    small = EnvConfig(num_servers=5)
    with pytest.raises(PolicyFormatError, match="servers"):
        load_policy(p, small)


# a one-layer ten-server adversary network, as save_policy writes it
ZERO_NET = "MTDPOLICY 2 qnet adversary 10\n11 50\n" + ("0.0 " * 49 + "0.0\n") * 11 + \
    "0.0 " * 10 + "0.0\n"


def test_policy_files_may_end_in_blank_lines(baseline, tmp_path):
    net = QNetwork(50, 11, None, hidden=())
    net.params[:] = 0.0
    p = tmp_path / "zero.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "zero"), p)
    assert p.read_text(encoding="utf-8") == ZERO_NET
    for text in (ZERO_NET, ZERO_NET + "\n  \n", "heuristic defender pcp\n\n"):
        p.write_text(text, encoding="utf-8")
        load_policy(p, baseline)


@pytest.mark.parametrize("text", [
    "",
    "BOGUS adversary noop\n",
    "MTDPOLICY 1 qnet adversary 10\n",
    "MTDPOLICY 2 qnet nobody 10\n",
    "heuristic adversary\n",
    "heuristic adversary nosuch\n",
    "heuristic defender pcp period\n",
    "MTDPOLICY 2 qnet adversary 10\n3 50\n1.0 2.0\n",
    "heuristic defender pcp period=abc\n",
    "MTDPOLICY 2 qnet adversary ten\n",
    "heuristic defender pcp perod=8\n",
    "heuristic adversary uniform period=0\n",
    "heuristic adversary control_threshold threshold=nan\n",
    "heuristic defender control_threshold gain=inf\n",
    "\nheuristic adversary noop\n",
    "heuristic defender pcp period=2 period=9\n",
    "heuristic defender control_threshold literal_exponent=2\n",
    "heuristic defender pcp probe_limit=-1\n",
    "heuristic defender control_threshold gain=-1\n",
    "heuristic defender control_threshold gain=0\n",
    "heuristic defender control_threshold threshold=7\n",
    "heuristic adversary control_threshold threshold=-3\n",
    "heuristic adversary uniform period=2\nheuristic defender pcp\ngarbage here\n",
    pytest.param(ZERO_NET + "\n\nthis is not a layer\n", id="net-then-text"),
    "MTDPOLICY 2 qnet adversary \u00b2\n",
])
def test_malformed_policy_files(text, baseline, tmp_path):
    p = tmp_path / "bad.policy"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(PolicyFormatError):
        load_policy(p, baseline)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("line", [2, 5], ids=["weight", "bias"])
def test_qnet_non_finite_parameter_rejected(value, line, baseline, tmp_path):
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1,
                   np.random.default_rng(2), hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    # line 1 is the first layer's shape, 2-4 its weights, 5 its biases
    lines[line] = " ".join([*lines[line].split()[:-1], value])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="not a finite number"):
        load_policy(p, baseline)


def test_version_1_network_file_rejected(baseline, tmp_path):
    # version 1 networks index servers directly, not in canonical order
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1,
                   np.random.default_rng(3), hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    head, _, body = p.read_text(encoding="utf-8").partition("\n")
    assert head.split()[:2] == ["MTDPOLICY", "2"]
    p.write_text(head.replace("MTDPOLICY 2 ", "MTDPOLICY 1 ", 1) + "\n" + body,
                 encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="header"):
        load_policy(p, baseline)


def test_network_layers_must_chain(baseline, tmp_path):
    # a second layer taking 4 inputs after a first layer with 3 outputs
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1,
                   np.random.default_rng(3), hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    second = lines.index("11 3")
    lines[second] = "11 4"
    for r in range(second + 1, second + 12):
        lines[r] += " 0.0"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="shape"):
        load_policy(p, baseline)
    # the first layer must take 5 * M inputs and the last give M + 1 outputs
    m = baseline.num_servers
    for dims, match in (((5 * m - 1, m + 1), "shape"), ((5 * m, m - 3), "outputs")):
        net = QNetwork(*dims, np.random.default_rng(3), hidden=(3,))
        save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
        with pytest.raises(PolicyFormatError, match=match):
            load_policy(p, baseline)


def test_network_bias_rows_and_layers_are_checked(baseline, tmp_path):
    """A bias row one value too long or too short, and a network file with
    no layer after its header, are each rejected with their own message."""
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1,
                   np.random.default_rng(3), hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    # line 1 is the first layer's shape, 2-4 its weights, 5 its biases
    for bias in (lines[5] + " 0.0", lines[5].rsplit(" ", 1)[0]):
        p.write_text("\n".join([*lines[:5], bias, *lines[6:]]) + "\n", encoding="utf-8")
        with pytest.raises(PolicyFormatError, match="bias shape mismatch"):
            load_policy(p, baseline)
    p.write_text(lines[0] + "\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="network has no layers"):
        load_policy(p, baseline)


@pytest.mark.parametrize("key", list(HEURISTICS), ids="-".join)
def test_registry_entry_bare_line_gets_class_defaults(key, baseline, tmp_path):
    player, name = key
    cls = HEURISTICS[key]
    bare = tmp_path / "bare.policy"
    bare.write_text(f"heuristic {player} {name}\n", encoding="utf-8")
    loaded = load_policy(bare, baseline)
    assert type(loaded) is cls
    assert (loaded.player, loaded.label) == (player, name)
    params = heuristic_params(cls)
    assert [getattr(loaded, f.name) for f in params] == [f.default for f in params]
    first, second = tmp_path / "a.policy", tmp_path / "b.policy"
    save_policy(loaded, first)
    save_policy(load_policy(first, baseline), second)
    assert first.read_bytes() == second.read_bytes()


def test_default_sets_follow_registry_order(baseline):
    for player, defaults in ((ADVERSARY, default_adversaries()),
                             (DEFENDER, default_defenders(baseline))):
        assert [p.label for p in defaults] == [n for pl, n in HEURISTICS if pl == player]
        assert [type(p) for p in defaults] == [c for (pl, _), c in HEURISTICS.items()
                                              if pl == player]


def test_default_control_threshold_gain_comes_from_config(tmp_path):
    cfg = EnvConfig(probe_gain=0.1)
    (ct,) = [p for p in default_defenders(cfg) if p.label == "control_threshold"]
    assert ct.gain == 0.1
    bare = tmp_path / "ct.policy"
    bare.write_text("heuristic defender control_threshold\n", encoding="utf-8")
    assert load_policy(bare, cfg).gain == 0.05


def test_truncated_qnet_body(baseline, tmp_path):
    rng = np.random.default_rng(2)
    net = QNetwork(5 * baseline.num_servers, baseline.num_servers + 1, rng,
                   hidden=(3,))
    p = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, baseline, "n"), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError):
        load_policy(p, baseline)


def test_mixture_round_trip(baseline, tmp_path):
    policies = [NoOpPolicy(DEFENDER), UniformDefender(period=4)]
    mix = MixedStrategy(np.array([0.25, 0.75]))
    path = save_mixture(policies, mix, tmp_path / "opp")
    assert path.name == "mixture.txt"
    loaded_pols, loaded_mix = load_mixture(path, baseline)
    assert [p.label for p in loaded_pols] == ["noop", "uniform"]
    assert [p.player for p in loaded_pols] == [DEFENDER, DEFENDER]
    np.testing.assert_array_equal(loaded_mix.weights, mix.weights)


def test_mixture_labels_name_distinct_files(baseline, tmp_path):
    """Two policies under one label would share `<label>.policy`: that
    raises before anything is written.  Distinct labels round-trip."""
    mix = MixedStrategy(np.array([0.5, 0.5]))
    clash = tmp_path / "clash"
    clash.mkdir()
    with pytest.raises(ValueError, match="'pcp'"):
        save_mixture([ProbeCountPeriodDefender(period=4), ProbeCountPeriodDefender(period=8)],
                     mix, clash)
    assert list(clash.iterdir()) == []
    policies = [ProbeCountPeriodDefender(period=4, label="pcp4"),
                ProbeCountPeriodDefender(period=8, label="pcp8")]
    path = save_mixture(policies, mix, tmp_path / "ok")
    assert path.read_text(encoding="utf-8") == "0.5 pcp4.policy\n0.5 pcp8.policy\n"
    loaded, _ = load_mixture(path, baseline)
    assert [(type(p), p.period, p.label) for p in loaded] == [
        (ProbeCountPeriodDefender, 4, "pcp4"), (ProbeCountPeriodDefender, 8, "pcp8")]
    # the reloaded mixture saves again, to the same bytes
    again = save_mixture(loaded, mix, tmp_path / "again")
    for name in ("mixture.txt", "pcp4.policy", "pcp8.policy"):
        assert (again.parent / name).read_bytes() == (path.parent / name).read_bytes()


@pytest.mark.parametrize("bad", ["b c", "sub/x", "../escaped", "back\\slash", ".", ".."])
def test_mixture_labels_must_name_files_or_nothing_is_written(bad, baseline, tmp_path):
    """A label that is not a file name of its own fails the whole save
    before anything is written, even after a good label; a policy file's
    `label=` token obeys the same rule."""
    root = tmp_path / "root"
    root.mkdir()
    policies = [ProbeCountPeriodDefender(label="a"), ProbeCountPeriodDefender(label=bad)]
    with pytest.raises(PolicyFormatError, match="empty or contains whitespace"):
        save_mixture(policies, MixedStrategy(np.array([0.5, 0.5])), root / "mix")
    assert list(root.rglob("*")) == []
    if bad.split() == [bad]:
        p = tmp_path / "one.policy"
        p.write_text(f"heuristic defender pcp label={bad}\n", encoding="utf-8")
        with pytest.raises(PolicyFormatError, match="bad value for label"):
            load_policy(p, baseline)


def test_mixture_comments_and_blanks(baseline, tmp_path):
    save_policy(NoOpPolicy(ADVERSARY), tmp_path / "noop.policy")
    f = tmp_path / "m.txt"
    f.write_text("# header\n\n1.0 noop.policy\n", encoding="utf-8")
    pols, mix = load_mixture(f, baseline)
    assert len(pols) == 1 and mix.weights[0] == 1.0


@pytest.mark.parametrize("lines,hint", [
    ("0.5 noop.policy\n", "sum"),
    ("one noop.policy\n", "bad weight"),
    ("1.0 ghost.policy\n", "missing policy file"),
    ("# nothing\n", "empty"),
    ("justoneword\n", "expected"),
])
def test_malformed_mixtures(lines, hint, baseline, tmp_path):
    save_policy(NoOpPolicy(ADVERSARY), tmp_path / "noop.policy")
    f = tmp_path / "m.txt"
    f.write_text(lines, encoding="utf-8")
    with pytest.raises(PolicyFormatError, match=hint):
        load_mixture(f, baseline)


def test_mixture_rejects_mixed_players(baseline, tmp_path):
    save_policy(NoOpPolicy(ADVERSARY), tmp_path / "a.policy")
    save_policy(NoOpPolicy(DEFENDER), tmp_path / "d.policy")
    f = tmp_path / "m.txt"
    f.write_text("0.5 a.policy\n0.5 d.policy\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="players"):
        load_mixture(f, baseline)


def small_game():
    u_a = np.array([[1.0, 2.5], [0.125, -3.0], [4.0, 0.1]])
    return EmpiricalGame(("r0", "r1", "r2"), ("c0", "c1"),
                         u_a, -u_a, np.full_like(u_a, 0.5),
                         np.full_like(u_a, 0.25), 20)


def test_game_round_trip(tmp_path):
    game = small_game()
    p = tmp_path / "game.csv"
    save_game(game, p)
    back = load_game(p)
    assert back.row_labels == game.row_labels
    assert back.col_labels == game.col_labels
    np.testing.assert_array_equal(back.u_adv, game.u_adv)
    np.testing.assert_array_equal(back.u_def, game.u_def)
    np.testing.assert_array_equal(back.se_adv, game.se_adv)
    np.testing.assert_array_equal(back.se_def, game.se_def)
    assert back.episodes == 0
    q = tmp_path / "again.csv"
    save_game(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_game_bad_header(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="header"):
        load_game(p)


def test_game_short_row(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("adv_policy,def_policy,u_a,u_d,se_a,se_d\nr,c,1.0,2.0\n",
                 encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="malformed"):
        load_game(p)


def test_game_missing_cell(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("adv_policy,def_policy,u_a,u_d,se_a,se_d\n"
                 "r0,c0,1.0,2.0,0.0,0.0\n"
                 "r0,c1,1.0,2.0,0.0,0.0\n"
                 "r1,c0,1.0,2.0,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="missing cell"):
        load_game(p)


def test_game_duplicate_cell(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("adv_policy,def_policy,u_a,u_d,se_a,se_d\n"
                 "a,d,1.0,2.0,0.0,0.0\n"
                 "a,d,5.0,-3.0,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="duplicate cell"):
        load_game(p)


def test_game_empty(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("adv_policy,def_policy,u_a,u_d,se_a,se_d\n", encoding="utf-8")
    with pytest.raises(PolicyFormatError, match="empty"):
        load_game(p)


def test_equilibrium_file_layout(tmp_path):
    game = small_game()
    eq = solve_msne(game)
    p = tmp_path / "eq.csv"
    save_equilibrium(eq, game.row_labels, game.col_labels, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "player,policy_label,probability"
    body = [ln.split(",") for ln in lines[1:6]]
    assert [b[0] for b in body] == [ADVERSARY] * 3 + [DEFENDER] * 2
    assert [b[1] for b in body] == ["r0", "r1", "r2", "c0", "c1"]
    probs = np.array([float(b[2]) for b in body])
    np.testing.assert_allclose(probs[:3], eq.sigma_adv, atol=0)
    np.testing.assert_allclose(probs[3:], eq.sigma_def, atol=0)
    assert lines[6].startswith("# value_a=")
    assert f"method={eq.method}" in lines[6]


def test_learning_curve_file(tmp_path):
    curve = [EpisodeRecord(0, 50, 12.5, 14.0),
             EpisodeRecord(1, 100, 13.25, 15.0)]
    p = tmp_path / "curve.csv"
    save_learning_curve(curve, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,episode,return_discounted,return_raw"
    assert lines[1] == "50,0,12.5,14.0"
    assert lines[2] == "100,1,13.25,15.0"


def test_do_curve_round_trip(tmp_path):
    history = [
        DoRecord(0, 26.0, 98.0, "", float("nan"), False, False),
        DoRecord(1, 30.5, 90.25, "defender", 91.125, False, True),
        DoRecord(2, 30.5, 90.25, "adversary", 30.75, True, True),
    ]
    p = tmp_path / "do_curve.csv"
    save_do_curve(history, p)
    back = load_do_curve(p)
    assert len(back) == 3
    assert math.isnan(back[0].br_payoff)
    assert back[0].call == 0 and back[0].trained == ""
    assert back[1:] == history[1:]


HEADER = "iteration,value_a,value_d,new_policy_player,new_policy_payoff,converged_a,converged_d\n"


ROW_0 = "0,26.0,98.0,,nan,0,0\n"


@pytest.mark.parametrize("text,match", [
    ("", "header"),
    ("a,b,c\n", "header"),
    (HEADER + "0,26.0,98.0,,nan,0\n", "malformed"),
    (HEADER + "0,26.0,nan,,nan,0,0\n", "bad value"),
    (HEADER + "1,26.0,98.0,,nan,0,0\n", "bad value"),
    (HEADER + ROW_0 + "2,30.5,90.25,defender,91.125,0,1\n", "bad value"),
    (HEADER + "0,26.0,98.0,defender,nan,0,0\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,,91.125,0,1\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,martian,91.125,0,1\n", "bad value"),
    (HEADER + "0,26.0,98.0,,5.0,0,0\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,defender,inf,0,1\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,defender,nan,0,1\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,defender,91.125,7,1\n", "bad value"),
    (HEADER + ROW_0 + "1,30.5,90.25,defender,91.125,0,-3\n", "bad value"),
], ids=["empty", "wrong-header", "short-row", "non-finite-value", "first-iteration-1",
        "skipped-iteration", "player-on-initial-row", "no-player-later", "unknown-player",
        "finite-initial-payoff", "infinite-payoff", "nan-payoff-later", "flag-7",
        "flag-minus-3"])
def test_do_curve_malformed(text, match, tmp_path):
    p = tmp_path / "do_curve.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(PolicyFormatError, match=match):
        load_do_curve(p)
