import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtdgame.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from mtdgame.env import ADVERSARY, DEFENDER, EnvConfig
from mtdgame.nash import EmpiricalGame
from mtdgame.policies import MixedStrategy, NoOpPolicy
from mtdgame.qlearn import QNetwork, QNetworkPolicy
from mtdgame.serialize import (
    load_do_curve,
    load_game,
    load_policy,
    save_game,
    save_mixture,
    save_policy,
)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_simulate_prints_noop_returns(capsys):
    assert main(["simulate"]) == EXIT_OK
    cfg = EnvConfig()
    factor = (1 - cfg.discount ** cfg.horizon) / (1 - cfg.discount)
    ra = 1 / (1 + np.exp(cfg.reward_slope * cfg.reward_thresh)) * factor
    rd = 1 / (1 + np.exp(-cfg.reward_slope * (1 - cfg.reward_thresh))) * factor
    line = capsys.readouterr().out.strip()
    assert line == f"discounted return: adversary {ra:.4f} defender {rd:.4f}"


def test_simulate_writes_trace_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=60\n")
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg, "--out", str(out),
               "--adv", "uniform", "--def", "pcp", "--seed", "3"])
    assert rc == EXIT_OK
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("tau,adv_action,def_action,reward_adv,reward_def,"
                        "n_control_adv,n_control_def,n_down")
    assert len(lines) == 61
    assert lines[1].startswith("0,")
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["command"] == "simulate"
    assert doc["seed"] == 3
    assert doc["status"] == "ok"
    assert doc["artifacts"] == ["trace.csv"]
    assert doc["config"]["T"] == "60"
    assert doc["finished_utc"] is not None


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=80\n")
    args = ["simulate", "--config", cfg, "--adv", "maxprobe",
            "--def", "control_threshold", "--seed", "11"]
    assert main([*args, "--out", str(tmp_path / "r1")]) == EXIT_OK
    assert main([*args, "--out", str(tmp_path / "r2")]) == EXIT_OK
    assert ((tmp_path / "r1" / "trace.csv").read_bytes()
            == (tmp_path / "r2" / "trace.csv").read_bytes())


def test_simulate_accepts_policy_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\n")
    pol = tmp_path / "adv.policy"
    save_policy(NoOpPolicy(ADVERSARY), pol)
    assert main(["simulate", "--config", cfg, "--adv", str(pol)]) == EXIT_OK


def test_simulate_unknown_policy_name(tmp_path, capsys):
    assert main(["simulate", "--adv", "ghost"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ghost" in err and "noop" in err


def test_simulate_wrong_player_policy_file(tmp_path, capsys):
    pol = tmp_path / "d.policy"
    save_policy(NoOpPolicy(DEFENDER), pol)
    assert main(["simulate", "--adv", str(pol)]) == EXIT_CONFIG


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == EXIT_CONFIG


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "wibble=1\n")
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "wibble" in capsys.readouterr().err


def test_repeated_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "M=4\nM=5\n")
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "key M given twice" in capsys.readouterr().err


def test_simulate_non_finite_config_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "theta_th=nan\n")
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "theta_th" in capsys.readouterr().err


@pytest.mark.parametrize("argv,artifact,digest", [
    (["payoff-table", "--episodes", "2", "--t", "200", "--seed", "123"], "game.csv",
     "694eb3695e7742edf480ad31885936c6ed8fc7d7827c11802fc99fe74dbd91ec"),
    (["payoff-table", "--episodes", "4", "--jobs", "1", "--t", "1000", "--seed", "5"],
     "game.csv", "513da45b03a305ac4bea960c8cd1cb97590712bfe59f22b4bf5896d94e10bbb8"),
    (["simulate", "--adv", "maxprobe", "--def", "pcp", "--seed", "3"], "trace.csv",
     "9d8351cd55b637429f2fb63c27cf7f735e4cb471a20ea3a740ae1baff522d24d"),
], ids=["payoff-table", "payoff-table-benchmark-grid", "simulate"])
def test_heuristic_outputs_are_pinned(argv, artifact, digest, tmp_path, capsys):
    """Heuristic-only runs involve no BLAS, so their bytes are fixed."""
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_non_finite_network_weight(value, tmp_path, capsys):
    cfg = EnvConfig()
    net = QNetwork(5 * cfg.num_servers, cfg.num_servers + 1, np.random.default_rng(0),
                   hidden=(3,))
    pol = tmp_path / "net.policy"
    save_policy(QNetworkPolicy(ADVERSARY, net, cfg, "net"), pol)
    lines = pol.read_text(encoding="utf-8").splitlines()
    lines[2] = " ".join([value, *lines[2].split()[1:]])   # first weight of layer 1
    pol.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--adv", str(pol)]) == EXIT_CONFIG
    assert "not a finite number" in capsys.readouterr().err


def test_simulate_bad_heuristic_parameter(tmp_path, capsys):
    pol = tmp_path / "pcp.policy"
    pol.write_text("heuristic defender pcp period=abc\n", encoding="utf-8")
    assert main(["simulate", "--def", str(pol)]) == EXIT_CONFIG
    assert "period" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["payoff-table", "--episodes", "0"],
    ["payoff-table", "--episodes", "-1"],
    ["payoff-table", "--jobs", "0"],
    ["payoff-table", "--jobs", "-3"],
    ["payoff-table", "--t", "0"],
    ["train-br", "--player", "adversary", "--opponent", "m.txt", "--ne", "0"],
    ["train-br", "--player", "adversary", "--opponent", "m.txt", "--t", "-5"],
    ["solve", "--episodes", "0"],
    ["solve", "--jobs", "-1"],
    ["solve", "--ne", "-2"],
    ["solve", "--t", "0"],
], ids=" ".join)
def test_count_flags_below_one_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_count_flag_that_is_no_integer_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["payoff-table", "--t", "abc", "--out", str(out)])
    assert exc.value.code == 2
    assert "expected int, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_payoff_table_writes_default_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\n")
    out = tmp_path / "table"
    rc = main(["payoff-table", "--config", cfg, "--out", str(out),
               "--episodes", "1", "--seed", "5"])
    assert rc == EXIT_OK
    game = load_game(out / "game.csv")
    assert game.row_labels == ("noop", "uniform", "maxprobe", "control_threshold")
    assert game.col_labels == ("noop", "uniform", "maxprobe", "pcp",
                               "control_threshold")
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["artifacts"] == ["game.csv"]
    assert doc["config"]["eval_episodes"] == "1"


def test_payoff_table_rerun_and_jobs_are_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\n")
    base = ["payoff-table", "--config", cfg, "--episodes", "2", "--seed", "9"]
    assert main([*base, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*base, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert main([*base, "--out", str(tmp_path / "c"), "--jobs", "2"]) == EXIT_OK
    ref = (tmp_path / "a" / "game.csv").read_bytes()
    assert (tmp_path / "b" / "game.csv").read_bytes() == ref
    assert (tmp_path / "c" / "game.csv").read_bytes() == ref


def opponent_mixture(tmp_path, player):
    return str(save_mixture([NoOpPolicy(player)], MixedStrategy(np.array([1.0])),
                            tmp_path / f"mix_{player}"))


def test_train_br_writes_policy_and_curve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\n")
    out = tmp_path / "br"
    rc = main(["train-br", "--config", cfg, "--player", "adversary",
               "--opponent", opponent_mixture(tmp_path, DEFENDER),
               "--ne", "2", "--out", str(out)])
    assert rc == EXIT_OK
    pol = load_policy(out / "adversary_br.policy", EnvConfig(horizon=50))
    assert isinstance(pol, QNetworkPolicy)
    assert pol.player == ADVERSARY
    curve = (out / "learning_curve.csv").read_text(encoding="utf-8").splitlines()
    assert len(curve) == 3
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["artifacts"] == ["adversary_br.policy", "learning_curve.csv"]


def test_train_br_sizes_replay_to_the_run(tmp_path):
    """A billion-row replay capacity, or one above 2**32 rows, allocates only
    the rows a 5-step run pushes, and trains to the bytes of the default
    capacity."""
    mix = opponent_mixture(tmp_path, DEFENDER)

    def train(name, text):
        out = tmp_path / name
        rc = main(["train-br", "--config", write_cfg(tmp_path, text, f"{name}.cfg"),
                   "--player", "adversary", "--opponent", mix, "--ne", "1", "--out", str(out)])
        return rc, [(out / f).read_bytes() for f in ("adversary_br.policy", "learning_curve.csv")
                    if (out / f).exists()]

    for batch in ("", "batch=2\n"):   # batches of 2 train from the second step on
        default = train("default", "T=5\n" + batch)
        assert default[0] == EXIT_OK and len(default[1]) == 2
        for capacity in ("1000000000", "4294967297"):
            assert train("huge", f"T=5\n{batch}replay_capacity={capacity}\n") == default


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run diverges on purpose
def test_failed_run_finalizes_manifest_as_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\nlearning_rate=1e300\n")
    out = tmp_path / "br"
    rc = main(["train-br", "--config", cfg, "--player", "adversary",
               "--opponent", opponent_mixture(tmp_path, DEFENDER),
               "--ne", "1", "--out", str(out)])
    assert rc == EXIT_NUMERICAL
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["status"] == "error"
    assert doc["error"].startswith("NumericalError: non-finite")
    assert doc["finished_utc"] is not None
    assert doc["artifacts"] == []


def test_payoff_table_downtime_past_the_int64_clock(tmp_path, capsys):
    """A downtime whose reimage clock would not fit an int64 is a
    configuration error under the file's key, before any cell is played."""
    cfg = write_cfg(tmp_path, "T=30\ndelta=9223372036854775807\n")
    rc = main(["payoff-table", "--config", cfg, "--episodes", "2", "--out", str(tmp_path / "g")])
    assert rc == EXIT_CONFIG
    assert f"key delta: must lie in [1, {2**62})" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the returns overflow on purpose
def test_payoff_table_non_finite_cell_is_a_numerical_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c_a=1e308\n")
    out = tmp_path / "g"
    rc = main(["payoff-table", "--config", cfg, "--episodes", "2", "--t", "5",
               "--out", str(out)])
    assert rc == EXIT_NUMERICAL
    assert "adversary payoff of cell (" in capsys.readouterr().err
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["status"] == "error"
    assert doc["error"].startswith("NumericalError: adversary payoff of cell (")
    assert doc["artifacts"] == [] and not (out / "game.csv").exists()


def test_train_br_side_mismatch(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\n")
    rc = main(["train-br", "--config", cfg, "--player", "defender",
               "--opponent", opponent_mixture(tmp_path, DEFENDER),
               "--ne", "1", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG


def test_train_br_downtime_past_the_order_limit(tmp_path, capsys):
    """A downtime too large for the canonical order is a configuration
    error for training; a payoff table of heuristics still runs with it."""
    cfg = write_cfg(tmp_path, "T=5\ndelta=10000000000000000\n")
    rc = main(["train-br", "--config", cfg, "--player", "defender",
               "--opponent", opponent_mixture(tmp_path, ADVERSARY),
               "--ne", "1", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "downtime must be at most" in capsys.readouterr().err
    rc = main(["payoff-table", "--config", cfg, "--episodes", "2", "--out", str(tmp_path / "g")])
    assert rc == EXIT_OK


def test_train_br_malformed_mixture(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    save_policy(NoOpPolicy(DEFENDER), tmp_path / "noop.policy")
    bad.write_text("0.5 noop.policy\n", encoding="utf-8")
    rc = main(["train-br", "--player", "adversary", "--opponent", str(bad),
               "--ne", "1", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG


def test_nash_solves_saved_game(tmp_path, capsys):
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    game = EmpiricalGame(("heads", "tails"), ("heads", "tails"),
                         pennies, -pennies, np.zeros((2, 2)), np.zeros((2, 2)), 0)
    save_game(game, tmp_path / "game.csv")
    out = tmp_path / "eq"
    rc = main(["nash", "--game", str(tmp_path / "game.csv"), "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "value:" in stdout and "regret" in stdout
    lines = (out / "equilibrium.csv").read_text(encoding="utf-8").splitlines()
    probs = [float(ln.split(",")[2]) for ln in lines[1:5]]
    np.testing.assert_allclose(probs, 0.5, atol=1e-9)


def test_nash_missing_game_file(tmp_path, capsys):
    rc = main(["nash", "--game", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "eq")])
    assert rc == EXIT_CONFIG


def test_nash_zero_tolerance_failure(tmp_path, capsys):
    u = np.array([[1.0, -1.0], [-1.0, 2.0]])
    game = EmpiricalGame(("a", "b"), ("c", "d"), u, -u,
                         np.zeros((2, 2)), np.zeros((2, 2)), 0)
    save_game(game, tmp_path / "game.csv")
    rc = main(["nash", "--game", str(tmp_path / "game.csv"),
               "--out", str(tmp_path / "eq"), "--tol", "0.0"])
    assert rc == EXIT_NUMERICAL


@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_nash_bad_game_cell(cell, tmp_path, capsys):
    game = tmp_path / "game.csv"
    game.write_text(f"adv_policy,def_policy,u_a,u_d,se_a,se_d\nr,c,1.0,{cell},0.0,0.0\n",
                    encoding="utf-8")
    assert main(["nash", "--game", str(game), "--out", str(tmp_path / "eq")]) == EXIT_CONFIG
    assert "bad cell" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_nash_bad_tolerance_is_usage_error(tol, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nash", "--game", "g.csv", "--out", str(tmp_path / "eq"), "--tol", tol])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--adv", "{d}"],
    ["simulate", "--config", "{d}"],
    ["nash", "--game", "{d}", "--out", "{d}/eq"],
    ["train-br", "--player", "adversary", "--opponent", "{d}", "--out", "{d}/br"],
    ["train-br", "--player", "adversary", "--opponent", "{d}/mix.txt", "--out", "{d}/br"],
], ids=" ".join)
def test_directory_given_for_a_file(argv, tmp_path, capsys):
    # mix.txt names a directory where a policy file belongs
    (tmp_path / "mix.txt").write_text("1.0 sub\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    assert main([a.format(d=tmp_path) for a in argv]) == EXIT_CONFIG
    assert "directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "{d}/afile"],
    ["payoff-table", "--out", "{d}/afile"],
    ["nash", "--game", "{d}/game.csv", "--out", "{d}/afile"],
    ["nash", "--game", "{d}/afile/game.csv", "--out", "{d}/eq"],
    ["nash", "--game", "{d}/latin1.txt", "--out", "{d}/eq"],
    ["simulate", "--config", "{d}/latin1.txt"],
], ids=" ".join)
def test_bad_paths_and_encodings(argv, tmp_path, capsys):
    # afile is a plain file where a directory belongs; latin1.txt is not UTF-8
    (tmp_path / "afile").write_text("x\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("# caf\xe9\nM=4\n".encode("latin-1"))
    u = np.eye(2)
    save_game(EmpiricalGame(("a", "b"), ("c", "d"), u, -u, 0 * u, 0 * u, 0),
              tmp_path / "game.csv")
    assert main([a.format(d=tmp_path) for a in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


SOLVE_CFG = "T=50\nne=1\nmax_iterations=1\neval_episodes=2\neps_do=1.0\n"


def test_solve_writes_full_artifact_set(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "solve"
    rc = main(["solve", "--config", cfg, "--init", "noop", "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_NO_CONVERGENCE)
    for name in ("game.csv", "do_curve.csv", "equilibrium.csv", "config.txt",
                 "manifest.json"):
        assert (out / name).exists()
    assert any((out / "policies").iterdir())
    history = load_do_curve(out / "do_curve.csv")
    assert history[0].call == 0 and history[0].trained == ""
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    expected = "ok" if rc == EXIT_OK else "not_converged"
    assert doc["status"] == expected
    from mtdgame.config import parse_config
    again = parse_config((out / "config.txt").read_text(encoding="utf-8"))
    assert again.env.horizon == 50 and again.do.max_iterations == 1


def test_solve_zero_iterations_reports_initial_equilibrium(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "T=50\nne=1\nmax_iterations=0\neval_episodes=1\n")
    out = tmp_path / "solve0"
    rc = main(["solve", "--config", cfg, "--init", "noop", "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["status"] == "not_converged"
    history = load_do_curve(out / "do_curve.csv")
    assert len(history) == 1
    lines = (out / "equilibrium.csv").read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:3]]
    assert [(r[0], r[1], float(r[2])) for r in rows] == [
        (ADVERSARY, "noop", 1.0), (DEFENDER, "noop", 1.0)]


def test_solve_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    base = ["solve", "--config", cfg, "--init", "noop", "--seed", "4"]
    first = main([*base, "--out", str(tmp_path / "s1")])
    second = main([*base, "--out", str(tmp_path / "s2")])
    assert first == second
    for name in ("game.csv", "do_curve.csv", "equilibrium.csv"):
        assert ((tmp_path / "s1" / name).read_bytes()
                == (tmp_path / "s2" / name).read_bytes())


def test_solve_reruns_from_its_config_txt(tmp_path, capsys):
    """`--episodes` is recorded as the `eval_episodes` that ran, so a rerun
    from the run's config.txt, without the flag, reproduces every artifact."""
    cfg = write_cfg(tmp_path, "T=50\nne=1\nmax_iterations=1\neval_episodes=7\n")
    first, again = tmp_path / "first", tmp_path / "again"
    code = main(["solve", "--config", cfg, "--episodes", "2", "--seed", "1", "--out", str(first)])
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    assert "eval_episodes=2\n" in (first / "config.txt").read_text(encoding="utf-8")
    doc = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    assert doc["config"]["eval_episodes"] == "2"
    assert main(["solve", "--config", str(first / "config.txt"), "--seed", "1",
                 "--out", str(again)]) == code
    names = ["game.csv", "do_curve.csv", "equilibrium.csv", "config.txt",
             *(f"policies/{p.name}" for p in (first / "policies").iterdir())]
    assert len(names) > 4
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_payoff_table_episodes_come_from_the_config(tmp_path, capsys):
    """Without `--episodes` a payoff table plays the file's `eval_episodes`;
    the flag overrides it, and the manifest's config shows the count used."""
    cfg = write_cfg(tmp_path, "T=20\neval_episodes=3\n")

    def table(name, *argv):
        out = tmp_path / name
        assert main(["payoff-table", *argv, "--seed", "2", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return doc["config"]["eval_episodes"], (out / "game.csv").read_bytes()

    from_file = table("file", "--config", cfg)
    assert from_file == table("flag", "--t", "20", "--episodes", "3")
    assert from_file[0] == "3"
    overridden = table("both", "--config", cfg, "--episodes", "2")
    assert overridden[0] == "2" and overridden[1] != from_file[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a subprocess, with this checkout's src first on its
    PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli_module(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "mtdgame.cli", *args)


SRC_MODULES = Path(__file__).resolve().parents[1] / "src" / "mtdgame"
# perfbench/layertrace.py wraps cli.save_mixture, which no command calls
UNREFERENCED_IMPORTS_KEPT = {("cli.py", "save_mixture")}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC_MODULES.glob("*.py")))
def test_every_import_is_referenced(module):
    tree = ast.parse((SRC_MODULES / module).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unreferenced = {name for name in imported - referenced
                    if (module, name) not in UNREFERENCED_IMPORTS_KEPT}
    assert not unreferenced, f"{module} imports {sorted(unreferenced)} and never uses them"


# Top-level definitions that nothing in src/ uses, each with why it stays
UNUSED_DEFINITIONS_KEPT = {
    # perfbench/layertrace.py looks these up by name (ROADMAP items 1 and 7)
    ("policies.py", "evaluate_pair"),
    ("qlearn.py", "SgdOptimizer"),
    ("serialize.py", "save_mixture"),
    # the reader of do_curve.csv that `report` and `solve --resume` will
    # use (ROADMAP items 6(b) and 11)
    ("serialize.py", "load_do_curve"),
}


def test_every_definition_is_used():
    """Every top-level function and class of src/mtdgame is named somewhere
    in src/ outside its own definition; an import alone does not count,
    and a class registered with `@_heuristic` does.  A kept name that gains
    a use must leave UNUSED_DEFINITIONS_KEPT."""
    # each top-level statement of src/ with the names it references
    tops = [(p.name, node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)})
            for p in sorted(SRC_MODULES.glob("*.py"))
            for node in ast.parse(p.read_text(encoding="utf-8")).body]

    def registered(node):
        return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_heuristic"
                   for d in node.decorator_list)

    def used(defn):
        return any(defn.name in names for _, top, names in tops if top is not defn)

    unused = {(module, node.name) for module, node, _ in tops
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not registered(node) and not used(node)}
    assert unused - UNUSED_DEFINITIONS_KEPT == set(), "defined and never used in src/"
    assert UNUSED_DEFINITIONS_KEPT - unused == set(), "used now: drop from the kept list"


def test_bare_import_loads_no_submodule():
    """The package root holds only `__version__`: importing it loads no
    submodule and not numpy."""
    proc = run_python("-c", "import json, sys, mtdgame; print(json.dumps("
                      "[sorted(m for m in sys.modules if m.startswith(('mtdgame', 'numpy'))),"
                      " mtdgame.__version__]))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["mtdgame"], "0.1.0"]


def test_module_entry_point():
    proc = run_cli_module("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    for cmd in ("simulate", "payoff-table", "train-br", "nash", "solve"):
        assert cmd in proc.stdout


# Installs the benchmark's layer tracer, which looks up every entry point it
# wraps by name, then runs each traced workload's command at a tiny size.
TRACED_RUN = """
import json, sys, time
root, out = sys.argv[1:]
sys.path[:0] = [root + "/perfbench", root + "/src"]
from layertrace import Tracer
from mtdgame.cli import main
tracer = Tracer("guard")
tracer.install()
w0 = time.monotonic_ns()
codes = [main(["payoff-table", "--t", "20", "--episodes", "2", "--out", out + "/grid"]),
         main(["train-br", "--player", "adversary", "--opponent", out + "/mix/mixture.txt",
               "--ne", "2", "--t", "20", "--out", out + "/br"]),
         main(["solve", "--config", out + "/solve.cfg", "--out", out + "/solve"])]
print(json.dumps([codes, tracer.layer_metrics(w0, time.monotonic_ns())]))
"""


def test_benchmark_tracer_installs_and_measures(tmp_path):
    save_mixture([NoOpPolicy(DEFENDER)], MixedStrategy(np.array([1.0])), tmp_path / "mix")
    write_cfg(tmp_path, "T=20\nmax_iterations=1\neval_episodes=2\nne=1\n", "solve.cfg")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, metrics = json.loads(proc.stdout.splitlines()[-1])
    assert codes[:2] == [EXIT_OK, EXIT_OK] and codes[2] in (EXIT_OK, EXIT_NO_CONVERGENCE)
    assert metrics["env.step.calls"] == 2 * 20 + 2 * 20  # train-br, then one call per player
    assert metrics["qlearn.train_step.calls"] > 0
    assert metrics["nash.solve_msne.calls"] > 0
    assert metrics["double_oracle.oracle_calls"] == 2


def test_no_subcommand_is_usage_error():
    proc = run_cli_module()
    assert proc.returncode == 2
