"""File formats for policies, mixtures, games, and run artifacts.

Heuristic policies are one self-describing line.  Trained networks use a
small text format with full-precision floats, so a reloaded policy picks
exactly the same greedy actions.  All CSV output uses repr floats and a
fixed newline to make reruns byte-identical.
"""

from __future__ import annotations

import csv
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
# Version 3 headers end with the label (version 2 networks took the file's
# stem); version 1 networks indexed servers, not qlearn.canonical_input's order.
FORMAT_VERSION = 3


class PolicyFormatError(ValueError):
    pass


def _heuristic_line(policy: PurePolicy) -> str:
    name = heuristic_name(policy)
    if name is None:
        raise PolicyFormatError(f"cannot serialize policy type {type(policy).__name__}")
    parts = [f"{f.name}={TEXT_VALUES[f.type].write(getattr(policy, f.name))}"
             for f in heuristic_params(policy)]
    if policy.label != name:
        parts.append(f"label={_read_label(policy.label)}")
    return " ".join(["heuristic", policy.player, name, *parts])


def _read_label(text: str, where: str = "") -> str:
    """A label as a policy file token and a file name: nonempty, without
    whitespace, `/` or `\\`, and neither `.` nor `..`.  `where` prefixes the error."""
    if text.split() != [text] or "/" in text or "\\" in text or text in (".", ".."):
        raise PolicyFormatError(f"{where}label {text!r} is empty or contains whitespace, / or \\, "
                                "or is . or ..")
    return text


def _policy_text(policy: PurePolicy) -> str:
    if not isinstance(policy, QNetworkPolicy):
        return _heuristic_line(policy) + "\n"
    lines = [f"{MAGIC} {FORMAT_VERSION} qnet {policy.player} {policy.cfg.num_servers} "
             f"{_read_label(policy.label)}"]
    net = policy.net
    for w, b in zip(net.weights, net.biases):
        lines.append(f"{w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def save_policy(policy: PurePolicy, path: str | Path) -> None:
    Path(path).write_text(_policy_text(policy), encoding="utf-8")


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
    readers = {f.name: TEXT_VALUES[f.type].read for f in heuristic_params(cls)}
    readers["label"] = _read_label
    params = {}
    for tok in head[3:]:
        if "=" not in tok:
            raise PolicyFormatError(f"{path}: malformed parameter {tok!r}")
        k, _, v = tok.partition("=")
        if k not in readers:
            raise PolicyFormatError(f"{path}: {player}/{name} has no parameter {k!r}")
        if k in params:
            raise PolicyFormatError(f"{path}: parameter {k!r} given twice")
        try:
            params[k] = readers[k](v)
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
    if (len(head) != 6 or head[1] != str(FORMAT_VERSION) or head[2] != "qnet"
            or not (head[4].isascii() and head[4].isdigit())):
        raise PolicyFormatError(f"{path}: bad network header {lines[0]!r}")
    player, label = head[3], _read_label(head[5], f"{path}: ")
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
    return QNetworkPolicy(player, net, env_cfg, label)


def save_mixture(policies: list[PurePolicy], mix: MixedStrategy,
                 directory: str | Path) -> Path:
    """Write each policy to `<label>.policy` beside mixture.txt, which
    references them by filename.  Every label must name a file of its own
    (`_read_label`; ValueError if two policies share one), and nothing is
    written unless all of them do."""
    texts = {}
    for policy in policies:
        label = _read_label(policy.label)
        if label in texts:
            raise ValueError(f"two policies share the label {label!r}, which names their file")
        texts[label] = _policy_text(policy)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for label, text in texts.items():
        (directory / f"{label}.policy").write_text(text, encoding="utf-8")
    out = directory / "mixture.txt"
    lines = [f"{float(w)!r} {label}.policy" for label, w in zip(texts, mix.weights)]
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


GAME_HEADER = ["adv_policy", "def_policy", "u_a", "u_d", "se_a", "se_d"]


def save_game(game: EmpiricalGame, path: str | Path) -> None:
    mats = (*game.u, *game.se)
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
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    if records[:1] != [GAME_HEADER]:
        raise PolicyFormatError(f"{path}: unexpected header {records[:1]}")
    for rec in records[1:]:
        if len(rec) != len(GAME_HEADER):
            raise PolicyFormatError(f"{path}: malformed row {rec}")
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
    table = np.empty((4, len(rows), len(cols)))  # the columns u_a, u_d, se_a, se_d
    for i, rl in enumerate(rows):
        for j, cl in enumerate(cols):
            if (rl, cl) not in cells:
                raise PolicyFormatError(f"{path}: missing cell ({rl}, {cl})")
            table[:, i, j] = cells[(rl, cl)]
    return EmpiricalGame(tuple(rows), tuple(cols), table[:2], table[2:], 0)


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
