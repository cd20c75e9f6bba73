"""The three benchmark workloads: the command each repetition runs, the
inputs it needs, and the checks on the artifacts the command writes.

Every workload runs at the paper's server count (M=10).  `grid` and `train`
use the paper horizon T=1000; `oracle` is a reduced desk run (see
README.md).  A repetition's outcome counts operations (payoff cells,
training runs, oracle calls and solves), the environment steps it
completed, and sha256 fingerprints of its result files.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
HORIZON = 1000                    # paper horizon T
GRID_EPISODES = 4                 # Monte-Carlo episodes per payoff cell
TRAIN_EPISODES = 4                # training episodes per train-br run
ORACLE_HORIZON = 200              # desk-scale overrides of oracle.cfg
ORACLE_TRAIN_EPISODES = 4
ORACLE_EVAL_EPISODES = 4

ADVERSARIES = ("noop", "uniform", "maxprobe", "control_threshold")
DEFENDERS = ("noop", "uniform", "maxprobe", "pcp", "control_threshold")

# Default reward parameters (EnvConfig), for the analytic idle-pair value.
DISCOUNT = 0.99
SLOPE = 5.0
THRESHOLD = 0.2


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    steps: int = 0                # environment steps completed
    units: int = 1                # operations that oracle_call_s divides by
    fingerprints: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, count: int | None = None) -> None:
        self.problems.append(problem)
        self.failed = min(self.attempted, self.failed + (self.attempted if count is None
                                                          else count))


def analytic_idle_pair(horizon: int) -> tuple[float, float]:
    """Discounted returns of noop against noop (the c1 acceptance formula)."""
    factor = (1 - DISCOUNT ** horizon) / (1 - DISCOUNT)
    ra = 1 / (1 + math.exp(SLOPE * THRESHOLD))
    rd = 1 / (1 + math.exp(-SLOPE * (1 - THRESHOLD)))
    return ra * factor, rd * factor


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_game(path: Path) -> dict[tuple[str, str], list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["adv_policy", "def_policy", "u_a", "u_d", "se_a", "se_d"]:
        raise ValueError(f"unexpected game header {rows[0]}")
    return {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows[1:]}


class Workload:
    name: str
    entry: str          # name in mtdgame.cli whose first call ends set-up

    def __init__(self, run_dir: Path, horizon: int):
        self.run_dir = run_dir
        self.horizon = horizon

    def argv(self, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, exit_code) -> Outcome:
        raise NotImplementedError


class Grid(Workload):
    """payoff-table over the 4 x 5 default heuristics."""

    name = "grid"
    entry = "build_game"

    def argv(self, out, seed):
        return ["payoff-table", "--episodes", str(GRID_EPISODES), "--jobs", "1",
                "--t", str(self.horizon), "--seed", str(seed), "--out", str(out)]

    def check(self, out, exit_code):
        oc = Outcome(attempted=len(ADVERSARIES) * len(DEFENDERS),
                     units=len(ADVERSARIES) * len(DEFENDERS))
        if exit_code != 0:
            oc.fail(f"exit code {exit_code}")
            return oc
        path = out / "game.csv"
        oc.fingerprints["game.csv"] = sha256(path)
        cells = read_game(path)
        for key in [(a, d) for a in ADVERSARIES for d in DEFENDERS]:
            if key not in cells or not all(map(math.isfinite, cells[key])):
                oc.fail(f"cell {key} missing or not finite", 1)
        if ("noop", "noop") in cells:
            want = analytic_idle_pair(self.horizon)
            got = cells[("noop", "noop")][:2]
            if max(abs(g - w) for g, w in zip(got, want)) > 1e-9:
                oc.fail(f"noop/noop cell {got} differs from analytic {want}", 1)
        oc.steps = len(cells) * GRID_EPISODES * self.horizon
        return oc


class Train(Workload):
    """train-br for the adversary against a uniform mix of all five
    defender heuristics."""

    name = "train"
    entry = "train_best_response"

    def __init__(self, run_dir, horizon):
        super().__init__(run_dir, horizon)
        mix_dir = run_dir / "mixture"
        mix_dir.mkdir(parents=True, exist_ok=True)
        for label in DEFENDERS:
            (mix_dir / f"{label}.policy").write_text(f"heuristic defender {label}\n",
                                                     encoding="utf-8")
        self.mixture = mix_dir / "mixture.txt"
        self.mixture.write_text("".join(f"{1 / len(DEFENDERS)!r} {label}.policy\n"
                                        for label in DEFENDERS), encoding="utf-8")

    def argv(self, out, seed):
        return ["train-br", "--player", "adversary", "--opponent", str(self.mixture),
                "--ne", str(TRAIN_EPISODES), "--t", str(self.horizon),
                "--seed", str(seed), "--out", str(out)]

    def check(self, out, exit_code):
        from mtdgame.env import EnvConfig
        from mtdgame.serialize import load_policy, save_policy

        oc = Outcome(attempted=1)
        if exit_code != 0:
            oc.fail(f"exit code {exit_code}")
            return oc
        curve = out / "learning_curve.csv"
        oc.fingerprints["learning_curve.csv"] = sha256(curve)
        with open(curve, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        want = [[str((e + 1) * self.horizon), str(e)] for e in range(TRAIN_EPISODES)]
        if [r[:2] for r in body] != want:
            oc.fail(f"learning curve rows {[r[:2] for r in body]}, want {want}")
        elif not all(math.isfinite(float(v)) for r in body for v in r[2:]):
            oc.fail("learning curve has a non-finite return")
        oc.steps = int(body[-1][0]) if body else 0
        # A reloaded network must save back to the same bytes.
        policy_path = out / "adversary_br.policy"
        policy = load_policy(policy_path, EnvConfig(horizon=self.horizon))
        again = out / "reloaded.policy"
        save_policy(policy, again)
        if policy.player != "adversary" or again.read_bytes() != policy_path.read_bytes():
            oc.fail("adversary_br.policy does not reload to the same network")
        return oc


class Oracle(Workload):
    """solve --init heuristics at a reduced desk scale."""

    name = "oracle"
    entry = "run_double_oracle"

    def __init__(self, run_dir, horizon):
        super().__init__(run_dir, min(horizon, ORACLE_HORIZON))

    def argv(self, out, seed):
        return ["solve", "--config", str(BENCH_DIR / "oracle.cfg"),
                "--init", "heuristics", "--t", str(self.horizon),
                "--ne", str(ORACLE_TRAIN_EPISODES),
                "--episodes", str(ORACLE_EVAL_EPISODES), "--jobs", "1",
                "--seed", str(seed), "--out", str(out)]

    def check(self, out, exit_code):
        curve = out / "do_curve.csv"
        calls = max(0, len(curve.read_text(encoding="utf-8").splitlines()) - 2) \
            if curve.exists() else 0
        oc = Outcome(attempted=calls + 1, units=max(calls, 1))
        if exit_code not in (0, 4):
            oc.fail(f"exit code {exit_code}")
            return oc
        game_path, eq_path = out / "game.csv", out / "equilibrium.csv"
        oc.fingerprints["game.csv"] = sha256(game_path)
        oc.fingerprints["equilibrium.csv"] = sha256(eq_path)
        cells = read_game(game_path)
        rows = list(dict.fromkeys(a for a, _ in cells))
        cols = list(dict.fromkeys(d for _, d in cells))
        u_a = np.array([[cells[(a, d)][0] for d in cols] for a in rows])
        u_d = np.array([[cells[(a, d)][1] for d in cols] for a in rows])
        with open(eq_path, encoding="utf-8", newline="") as fh:
            eq = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        x = np.array([float(p) for side, _, p in eq if side == "adversary"])
        y = np.array([float(p) for side, _, p in eq if side == "defender"])
        if ([lab for side, lab, _ in eq if side == "adversary"] != rows
                or [lab for side, lab, _ in eq if side == "defender"] != cols):
            oc.fail("equilibrium labels do not match the game")
            return oc
        if not (np.isfinite(u_a).all() and np.isfinite(u_d).all()):
            oc.fail("game has a non-finite cell")
        if abs(x.sum() - 1) > 1e-9 or abs(y.sum() - 1) > 1e-9 or (x < 0).any() or (y < 0).any():
            oc.fail(f"equilibrium probabilities sum to {x.sum()!r} and {y.sum()!r}")
        # Regret recomputed here, not by the solver; tolerance as in solve_msne.
        tol = 1e-6 * max(1.0, np.abs(u_a).max(), np.abs(u_d).max())
        gain_a = (u_a @ y).max() - x @ u_a @ y
        gain_d = (x @ u_d).max() - x @ u_d @ y
        if max(gain_a, gain_d) > tol:
            oc.fail(f"equilibrium regret ({gain_a:.3g}, {gain_d:.3g}) exceeds {tol:.3g}")
        oc.steps = (len(cells) * ORACLE_EVAL_EPISODES + calls * ORACLE_TRAIN_EPISODES) \
            * self.horizon
        return oc


WORKLOADS = {w.name: w for w in (Grid, Train, Oracle)}
