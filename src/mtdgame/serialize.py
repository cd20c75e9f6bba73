"""File formats for policies, mixtures, games, and run artifacts.

Heuristic policies are one self-describing line.  Trained networks use a
small text format with full-precision floats, so a reloaded policy picks
exactly the same greedy actions.  All CSV output uses repr floats and a
fixed newline to make reruns byte-identical.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from mtdgame.config import TEXT_VALUES, parse_finite
from mtdgame.double_oracle import DoRecord
from mtdgame.env import ADVERSARY, DEFENDER, ConfigError, EnvConfig
from mtdgame.nash import EmpiricalGame, EquilibriumResult
from mtdgame.policies import (
    HEURISTICS,
    MixedStrategy,
    PurePolicy,
    heuristic,
    heuristic_name,
    heuristic_params,
)
from mtdgame.qlearn import EpisodeRecord, QNetwork, QNetworkPolicy

MAGIC = "MTDPOLICY"
# Version 2: network outputs index the canonical server order
# (qlearn.canonical_input); version 1 networks indexed servers directly.
FORMAT_VERSION = 2


class PolicyFormatError(ValueError):
    pass


def _heuristic_line(policy: PurePolicy) -> str:
    name = heuristic_name(policy)
    if name is None:
        raise PolicyFormatError(f"cannot serialize policy type {type(policy).__name__}")
    parts = [f"{f.name}={TEXT_VALUES[f.type].write(getattr(policy, f.name))}"
             for f in heuristic_params(policy)]
    return " ".join(["heuristic", policy.player, name, *parts])


def save_policy(policy: PurePolicy, path: str | Path) -> None:
    path = Path(path)
    if isinstance(policy, QNetworkPolicy):
        lines = [f"{MAGIC} {FORMAT_VERSION} qnet {policy.player} {policy.cfg.num_servers}"]
        net = policy.net
        for w, b in zip(net.weights, net.biases):
            lines.append(f"{w.shape[0]} {w.shape[1]}")
            for row in w:
                lines.append(" ".join(repr(float(v)) for v in row))
            lines.append(" ".join(repr(float(v)) for v in b))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path.write_text(_heuristic_line(policy) + "\n", encoding="utf-8")


def load_policy(path: str | Path, env_cfg: EnvConfig) -> PurePolicy:
    """Read a policy file.  env_cfg supplies the normalization constants a
    network policy needs; its server count must match the file.  Nothing
    but blank lines may follow the policy."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise PolicyFormatError(f"{path}: empty policy file")
    head = lines[0].split()
    if head[:1] == [MAGIC]:
        return _load_qnet(path, lines, env_cfg)
    if head[:1] != ["heuristic"]:
        raise PolicyFormatError(f"{path}: unrecognized policy header {lines[0]!r}")
    _check_no_trailing(path, lines[1:])
    if len(head) < 3:
        raise PolicyFormatError(f"{path}: malformed heuristic line")
    player, name = head[1], head[2]
    cls = HEURISTICS.get((player, name))
    if cls is None:
        raise PolicyFormatError(f"{path}: unknown heuristic {player}/{name}")
    types = {f.name: f.type for f in heuristic_params(cls)}
    params = {}
    for tok in head[3:]:
        if "=" not in tok:
            raise PolicyFormatError(f"{path}: malformed parameter {tok!r}")
        k, _, v = tok.partition("=")
        if k not in types:
            raise PolicyFormatError(f"{path}: {player}/{name} has no parameter {k!r}")
        if k in params:
            raise PolicyFormatError(f"{path}: parameter {k!r} given twice")
        try:
            params[k] = TEXT_VALUES[types[k]].read(v)
        except ValueError:
            raise PolicyFormatError(f"{path}: bad value for {k}: {v!r}") from None
    try:
        return heuristic(player, name, **params)
    except ConfigError as exc:
        raise PolicyFormatError(f"{path}: {exc}") from None


def _check_no_trailing(path, rest):
    if any(line.strip() for line in rest):
        raise PolicyFormatError(f"{path}: unexpected content after the policy")


def _load_qnet(path, lines, env_cfg):
    head = lines[0].split()
    if (len(head) != 5 or head[1] != str(FORMAT_VERSION) or head[2] != "qnet"
            or not (head[4].isascii() and head[4].isdigit())):
        raise PolicyFormatError(f"{path}: bad network header {lines[0]!r}")
    player = head[3]
    if player not in (ADVERSARY, DEFENDER):
        raise PolicyFormatError(f"{path}: unknown player {player!r}")
    m = int(head[4])
    if m != env_cfg.num_servers:
        raise PolicyFormatError(
            f"{path}: policy is for {m} servers, config has {env_cfg.num_servers}")
    dims = [5 * m]  # layer widths, starting with the observation's
    values = []    # weights and biases, in QNetwork.params order
    pos = 1
    try:
        while pos < len(lines) and lines[pos].strip():
            rows, cols = (int(t) for t in lines[pos].split())
            pos += 1
            w = np.array([[parse_finite(t) for t in lines[pos + r].split()]
                          for r in range(rows)])
            if w.shape != (rows, cols) or cols != dims[-1]:
                raise PolicyFormatError(f"{path}: layer shape mismatch")
            pos += rows
            b = np.array([parse_finite(t) for t in lines[pos].split()])
            if b.shape != (rows,):
                raise PolicyFormatError(f"{path}: bias shape mismatch")
            pos += 1
            dims.append(rows)
            values += [w.ravel(), b]
    except (ValueError, IndexError) as exc:
        raise PolicyFormatError(f"{path}: corrupt network body: {exc}") from None
    _check_no_trailing(path, lines[pos:])
    if len(dims) == 1:
        raise PolicyFormatError(f"{path}: network has no layers")
    if dims[-1] != m + 1:
        raise PolicyFormatError(f"{path}: {dims[-1]} outputs, {m} servers need {m + 1}")
    net = QNetwork(dims[0], dims[-1], None, tuple(dims[1:-1]))
    net.params[:] = np.concatenate(values)
    return QNetworkPolicy(player, net, env_cfg, path.stem)


def save_mixture(policies: list[PurePolicy], mix: MixedStrategy,
                 directory: str | Path) -> Path:
    """Write each policy to `<label>.policy` beside mixture.txt, which
    references them by filename; ValueError if two policies share a label."""
    labels = [policy.label for policy in policies]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"two policies share the label {label!r}, which names their file")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for policy, w in zip(policies, mix.weights):
        fname = f"{policy.label}.policy"
        save_policy(policy, directory / fname)
        lines.append(f"{float(w)!r} {fname}")
    out = directory / "mixture.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def load_mixture(path: str | Path, env_cfg: EnvConfig,
                 ) -> tuple[list[PurePolicy], MixedStrategy]:
    path = Path(path)
    policies = []
    weights = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(maxsplit=1)
        if len(parts) != 2:
            raise PolicyFormatError(f"{path}:{lineno}: expected '<weight> <file>'")
        try:
            w = float(parts[0])
        except ValueError:
            raise PolicyFormatError(f"{path}:{lineno}: bad weight {parts[0]!r}") from None
        ref = path.parent / parts[1]
        if not ref.exists():
            raise PolicyFormatError(f"{path}:{lineno}: missing policy file {parts[1]!r}")
        policies.append(load_policy(ref, env_cfg))
        weights.append(w)
    if not policies:
        raise PolicyFormatError(f"{path}: empty mixture")
    try:
        mix = MixedStrategy(np.array(weights))
    except ValueError as exc:
        raise PolicyFormatError(f"{path}: {exc}") from None
    players = {p.player for p in policies}
    if len(players) != 1:
        raise PolicyFormatError(f"{path}: mixture mixes players {sorted(players)}")
    return policies, mix


def _write_csv(path: str | Path, header: list[str], rows, footer: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        fh.write(footer)


def _read_csv(path: str | Path, header: list[str]) -> list[list[str]]:
    """The rows of a CSV file that starts with `header`, each as long as it."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [header]:
        raise PolicyFormatError(f"{path}: unexpected header {rows[:1]}")
    for rec in rows[1:]:
        if len(rec) != len(header):
            raise PolicyFormatError(f"{path}: malformed row {rec}")
    return rows[1:]


GAME_HEADER = ["adv_policy", "def_policy", "u_a", "u_d", "se_a", "se_d"]


def save_game(game: EmpiricalGame, path: str | Path) -> None:
    mats = (game.u_adv, game.u_def, game.se_adv, game.se_def)
    _write_csv(path, GAME_HEADER, (
        [rl, cl, *(repr(float(mat[i, j])) for mat in mats)]
        for i, rl in enumerate(game.row_labels)
        for j, cl in enumerate(game.col_labels)))


def load_game(path: str | Path) -> EmpiricalGame:
    """Rebuild a game from its CSV.  Label order follows first appearance;
    the policies themselves and the episode count are not recoverable from
    the file, so the game has episodes=0."""
    rows: list[str] = []
    cols: list[str] = []
    cells = {}
    for rec in _read_csv(path, GAME_HEADER):
        rl, cl = rec[0], rec[1]
        if (rl, cl) in cells:
            raise PolicyFormatError(f"{path}: duplicate cell ({rl}, {cl})")
        if rl not in rows:
            rows.append(rl)
        if cl not in cols:
            cols.append(cl)
        try:
            cells[(rl, cl)] = tuple(parse_finite(v) for v in rec[2:])
        except ValueError:
            raise PolicyFormatError(f"{path}: bad cell in row {rec}") from None
    if not cells:
        raise PolicyFormatError(f"{path}: empty game")
    u_a = np.empty((len(rows), len(cols)))
    u_d = np.empty_like(u_a)
    s_a = np.empty_like(u_a)
    s_d = np.empty_like(u_a)
    for i, rl in enumerate(rows):
        for j, cl in enumerate(cols):
            if (rl, cl) not in cells:
                raise PolicyFormatError(f"{path}: missing cell ({rl}, {cl})")
            u_a[i, j], u_d[i, j], s_a[i, j], s_d[i, j] = cells[(rl, cl)]
    return EmpiricalGame(tuple(rows), tuple(cols), u_a, u_d, s_a, s_d, 0)


def save_equilibrium(result: EquilibriumResult, row_labels, col_labels,
                     path: str | Path) -> None:
    rows = [[ADVERSARY, lab, repr(float(p))] for lab, p in zip(row_labels, result.sigma_adv)]
    rows += [[DEFENDER, lab, repr(float(p))] for lab, p in zip(col_labels, result.sigma_def)]
    _write_csv(path, ["player", "policy_label", "probability"], rows,
               f"# value_a={float(result.value_adv)!r} "
               f"value_d={float(result.value_def)!r} "
               f"regret_a={float(result.regret_adv)!r} "
               f"regret_d={float(result.regret_def)!r} "
               f"method={result.method}\n")


def save_learning_curve(curve: list[EpisodeRecord], path: str | Path) -> None:
    _write_csv(path, ["step", "episode", "return_discounted", "return_raw"], (
        [rec.end_step, rec.episode, repr(float(rec.return_discounted)),
         repr(float(rec.return_raw))] for rec in curve))


DO_CURVE_HEADER = ["iteration", "value_a", "value_d", "new_policy_player",
                   "new_policy_payoff", "converged_a", "converged_d"]


def save_do_curve(history: list[DoRecord], path: str | Path) -> None:
    _write_csv(path, DO_CURVE_HEADER, (
        [rec.call, repr(float(rec.value_adv)), repr(float(rec.value_def)), rec.trained,
         repr(float(rec.br_payoff)), int(rec.converged_adv), int(rec.converged_def)]
        for rec in history))


def save_trace(rows: list[list], path: str | Path) -> None:
    """One row per step of a simulated episode, as `cli simulate` records it."""
    _write_csv(path, ["tau", "adv_action", "def_action", "reward_adv", "reward_def",
                      "n_control_adv", "n_control_def", "n_down"], rows)


def load_do_curve(path: str | Path) -> list[DoRecord]:
    """Read `save_do_curve`'s file: rows 0, 1, 2, ... in order, the initial
    row with no new policy and a nan payoff, every later row naming the
    player it trained and its finite payoff, and 0/1 convergence flags."""
    out = []
    for i, rec in enumerate(_read_csv(path, DO_CURVE_HEADER)):
        it, value_a, value_d, trained, payoff, conv_a, conv_d = rec
        try:
            payoff = parse_finite(payoff) if i else float(payoff)
            if (it != str(i) or math.isnan(payoff) != (i == 0) or {conv_a, conv_d} - {"0", "1"}
                    or trained not in ((ADVERSARY, DEFENDER) if i else ("",))):
                raise ValueError
            out.append(DoRecord(i, parse_finite(value_a), parse_finite(value_d), trained,
                                payoff, conv_a == "1", conv_d == "1"))
        except ValueError:
            raise PolicyFormatError(f"{path}: bad value in row {rec}") from None
    return out
