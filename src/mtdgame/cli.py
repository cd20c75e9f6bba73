"""Command line harness.

Subcommands: simulate, payoff-table, train-br, nash, solve.  Every run that
writes artifacts, except `nash`, records a manifest first (resolved config
with the count flags applied, seed, command) and finalizes it with
timestamps and artifact paths afterwards, so a run can be reproduced
exactly from its output directory.  A run that fails after writing its
manifest finalizes it with status "error" and the error.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 the double oracle loop stopped without converging.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import mtdgame
from mtdgame.config import ResolvedConfig, format_config, load_config
from mtdgame.double_oracle import dqn_oracle, run_double_oracle
from mtdgame.env import ADVERSARY, DEFENDER, ConfigError
from mtdgame.nash import EquilibriumError, build_game, solve_msne
from mtdgame.policies import (
    NoOpPolicy,
    default_adversaries,
    default_defenders,
    run_episode,
)
from mtdgame.qlearn import NumericalError, train_best_response
from mtdgame.serialize import (
    PolicyFormatError,
    load_game,
    load_mixture,
    load_policy,
    save_do_curve,
    save_equilibrium,
    save_game,
    save_learning_curve,
    save_mixture,  # no command calls it; perfbench/layertrace.py wraps cli.save_mixture
    save_policy,
    save_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


class _Manifest:
    def __init__(self, out_dir: Path, command: str, seed: int, rc: ResolvedConfig,
                 args: dict):
        self.path = out_dir / "manifest.json"
        self.doc = {
            "command": command,
            "seed": seed,
            "version": mtdgame.__version__,
            "config": {
                line.split("=", 1)[0]: line.split("=", 1)[1]
                for line in format_config(rc).strip().splitlines()
            },
            "args": args,
            "started_utc": datetime.now(timezone.utc).isoformat(),
            "finished_utc": None,
            "artifacts": [],
            "status": "running",
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        self._write()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.doc["error"] = f"{exc_type.__name__}: {exc}"
            self.finish([], "error")

    def _write(self):
        self.path.write_text(json.dumps(self.doc, indent=2) + "\n", encoding="utf-8")

    def finish(self, artifacts: list[Path], status: str = "ok"):
        self.doc["finished_utc"] = datetime.now(timezone.utc).isoformat()
        self.doc["artifacts"] = sorted(str(p.name) for p in artifacts)
        self.doc["status"] = status
        self._write()


def _resolve_policy(spec: str, player: str, rc: ResolvedConfig):
    """A policy flag is either a known heuristic name or a policy file path."""
    names = {p.label: p for p in (default_adversaries() if player == ADVERSARY
                                  else default_defenders(rc.env))}
    if spec in names:
        return names[spec]
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"{player} policy {spec!r} is neither a heuristic name "
                          f"({', '.join(sorted(names))}) nor a file")
    policy = load_policy(path, rc.env)
    if policy.player != player:
        raise ConfigError(f"{path} holds a {policy.player} policy, expected {player}")
    return policy


def cmd_simulate(args) -> int:
    rc = _load_rc(args)
    adv = _resolve_policy(args.adv, ADVERSARY, rc)
    deff = _resolve_policy(args.defender, DEFENDER, rc)
    out_dir = Path(args.out) if args.out else None
    rows = []

    def record(tau, a, d, reward_adv, reward_def, env):
        rows.append([tau, "" if a < 0 else a, "" if d < 0 else d,
                     repr(reward_adv), repr(reward_def), *env.counts()])

    with (nullcontext() if out_dir is None else _Manifest(
            out_dir, "simulate", args.seed, rc, {"adv": args.adv, "def": args.defender})
          ) as manifest:
        ret_a, ret_d = run_episode(adv, deff, rc.env, args.seed, on_step=record)
        print(f"discounted return: adversary {ret_a:.4f} defender {ret_d:.4f}")
        if out_dir is not None:
            trace = out_dir / "trace.csv"
            save_trace(rows, trace)
            manifest.finish([trace])
    return EXIT_OK


def _load_rc(args) -> ResolvedConfig:
    rc = load_config(args.config) if args.config else ResolvedConfig()
    if getattr(args, "t", None) is not None:
        rc = replace(rc, env=replace(rc.env, horizon=args.t))
    if getattr(args, "ne", None) is not None:
        rc = replace(rc, train=replace(rc.train, episodes=args.ne))
    if getattr(args, "episodes", None) is not None:
        rc = replace(rc, do=replace(rc.do, eval_episodes=args.episodes))
    return rc


def cmd_payoff_table(args) -> int:
    rc = _load_rc(args)
    out_dir = Path(args.out)
    with _Manifest(out_dir, "payoff-table", args.seed, rc, {"jobs": args.jobs}) as manifest:
        advs = default_adversaries()
        defs = default_defenders(rc.env)
        game = build_game(advs, defs, rc.env, rc.do.eval_episodes, args.seed, jobs=args.jobs)
        path = out_dir / "game.csv"
        save_game(game, path)
        manifest.finish([path])
    return EXIT_OK


def cmd_train_br(args) -> int:
    rc = _load_rc(args)
    opponents, mix = load_mixture(args.opponent, rc.env)
    out_dir = Path(args.out)
    with _Manifest(out_dir, "train-br", args.seed, rc,
                   {"player": args.player, "opponent": str(args.opponent)}) as manifest:
        policy, curve = train_best_response(args.player, opponents, mix, rc.env, rc.train,
                                            args.seed, label=f"{args.player}_br")
        pol_path = out_dir / f"{policy.label}.policy"
        curve_path = out_dir / "learning_curve.csv"
        save_policy(policy, pol_path)
        save_learning_curve(curve, curve_path)
        manifest.finish([pol_path, curve_path])
    return EXIT_OK


def cmd_nash(args) -> int:
    game = load_game(args.game)
    result = solve_msne(game, tol=args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "equilibrium.csv"
    save_equilibrium(result, game.row_labels, game.col_labels, path)
    print(f"value: adversary {result.value_adv:.6f} defender {result.value_def:.6f} "
          f"(regret {result.regret_adv:.2e}/{result.regret_def:.2e}, {result.method})")
    return EXIT_OK


def cmd_solve(args) -> int:
    rc = _load_rc(args)
    out_dir = Path(args.out)
    if args.init == "noop":
        advs = [NoOpPolicy(ADVERSARY)]
        defs = [NoOpPolicy(DEFENDER)]
    else:
        advs = default_adversaries()
        defs = default_defenders(rc.env)
    with _Manifest(out_dir, "solve", args.seed, rc,
                   {"init": args.init, "jobs": args.jobs}) as manifest:
        state, eq = run_double_oracle(rc.env, advs, defs, rc.do, args.seed,
                                      dqn_oracle(rc.env, rc.train), jobs=args.jobs)
        pol_dir = out_dir / "policies"
        pol_dir.mkdir(parents=True, exist_ok=True)
        artifacts = []
        for policy in state.game.row_policies + state.game.col_policies:
            p = pol_dir / f"{policy.player}_{policy.label}.policy"
            save_policy(policy, p)
            artifacts.append(p)
        game_path = out_dir / "game.csv"
        curve_path = out_dir / "do_curve.csv"
        eq_path = out_dir / "equilibrium.csv"
        cfg_path = out_dir / "config.txt"
        save_game(state.game, game_path)
        save_do_curve(state.history, curve_path)
        save_equilibrium(eq, state.game.row_labels, state.game.col_labels, eq_path)
        cfg_path.write_text(format_config(rc), encoding="utf-8")
        status = "ok" if state.converged else "not_converged"
        manifest.finish([game_path, curve_path, eq_path, cfg_path, *artifacts], status)
    print(f"oracle calls: {state.oracle_calls}, converged: {state.converged}, "
          f"value: adversary {eq.value_adv:.4f} defender {eq.value_def:.4f}")
    return EXIT_OK if state.converged else EXIT_NO_CONVERGENCE


def _at_least(parse, low):
    """argparse type: parse(raw), which must be >= low (so never nan)."""
    def check(raw: str):
        try:
            value = parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {parse.__name__}, got {raw!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return check


_count = _at_least(int, 1)  # episode, horizon and job counts


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mtdgame",
                                 description="Adaptive moving target defense game suite")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0)
        if out_required:
            p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("simulate", help="run one episode and write a trace")
    common(p, out_required=False)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--adv", type=str, default="noop")
    p.add_argument("--def", dest="defender", type=str, default="noop")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("payoff-table", help="evaluate the heuristic grid")
    common(p)
    p.add_argument("--episodes", type=_count, default=None, help="override eval_episodes")
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--t", type=_count, default=None, help="override horizon")
    p.set_defaults(func=cmd_payoff_table)

    p = sub.add_parser("train-br", help="train a best response to a mixture")
    common(p)
    p.add_argument("--player", choices=[ADVERSARY, DEFENDER], required=True)
    p.add_argument("--opponent", type=str, required=True, help="mixture file")
    p.add_argument("--ne", type=_count, default=None, help="override training episodes")
    p.add_argument("--t", type=_count, default=None, help="override horizon")
    p.set_defaults(func=cmd_train_br)

    p = sub.add_parser("nash", help="solve a serialized empirical game")
    p.add_argument("--game", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--tol", type=_at_least(float, 0.0), default=None)
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("solve", help="run the double oracle loop")
    common(p)
    p.add_argument("--episodes", type=_count, default=None, help="override eval_episodes")
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--init", choices=["heuristics", "noop"], default="heuristics")
    p.add_argument("--ne", type=_count, default=None, help="override training episodes")
    p.add_argument("--t", type=_count, default=None, help="override horizon")
    p.set_defaults(func=cmd_solve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PolicyFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, EquilibriumError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
