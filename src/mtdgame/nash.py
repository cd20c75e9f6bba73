"""Empirical bimatrix games and mixed Nash equilibrium computation.

The empirical game holds Monte-Carlo payoff estimates for every pair of an
adversary (row) policy and defender (column) policy.  solve_msne finds one
mixed equilibrium with lexicographic Lemke-Howson pivoting and always
verifies the result with an independent regret check before returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from mtdgame.env import ADVERSARY, DEFENDER, EnvConfig
from mtdgame.policies import PurePolicy, evaluate_cells
from mtdgame.qlearn import NumericalError
from mtdgame.seeds import derive_seed


class EquilibriumError(RuntimeError):
    """No equilibrium passed the regret check."""


@dataclass(frozen=True)
class EmpiricalGame:
    """Estimated payoff matrices over ordered policy sets.

    Rows index adversary policies, columns defender policies.  Instances
    are never mutated; extending the sets produces a new game.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    u_adv: np.ndarray
    u_def: np.ndarray
    se_adv: np.ndarray
    se_def: np.ndarray
    episodes: int
    row_policies: tuple[PurePolicy, ...] | None = None
    col_policies: tuple[PurePolicy, ...] | None = None

    def __post_init__(self):
        shape = (len(self.row_labels), len(self.col_labels))
        for name in ("u_adv", "u_def", "se_adv", "se_def"):
            mat = getattr(self, name)
            if mat.shape != shape:
                raise ValueError(f"{name} has shape {mat.shape}, expected {shape}")
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite entries")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")


# build_game and extend_game keep a default: perfbench/layertrace.py iterates __defaults__
def build_game(adv_policies: list[PurePolicy], def_policies: list[PurePolicy],
               env_cfg: EnvConfig, episodes: int, seed: int,
               jobs: int = 1) -> EmpiricalGame:
    """Evaluate every policy pair and assemble the empirical game.

    `evaluate_cells` steps the whole grid at once: adversaries are rows, defenders columns.
    A cell whose mean or standard error is not finite raises NumericalError.
    """
    if not adv_policies or not def_policies:
        raise ValueError("both policy sets must be nonempty")
    # The cell seed depends on the labels only, so growing the game never
    # changes previously computed entries.
    u, se = evaluate_cells(adv_policies, def_policies,
                           [[derive_seed(seed, "pair", a.label, d.label) for d in def_policies]
                            for a in adv_policies], env_cfg, episodes, jobs)
    for side, i, j in np.argwhere(~(np.isfinite(u) & np.isfinite(se)))[:1]:
        raise NumericalError(f"{(ADVERSARY, DEFENDER)[side]} payoff of cell "
                             f"({adv_policies[i].label}, {def_policies[j].label}) is "
                             f"{u[side, i, j]} with standard error {se[side, i, j]}")
    return EmpiricalGame(
        row_labels=tuple(p.label for p in adv_policies),
        col_labels=tuple(p.label for p in def_policies),
        u_adv=u[0], u_def=u[1], se_adv=se[0], se_def=se[1],
        episodes=episodes,
        row_policies=tuple(adv_policies), col_policies=tuple(def_policies),
    )


def extend_game(game: EmpiricalGame, policy: PurePolicy, env_cfg: EnvConfig,
                seed: int, jobs: int = 1) -> EmpiricalGame:
    """Add one policy, evaluating only the new row or column."""
    if game.row_policies is None or game.col_policies is None:
        raise ValueError("cannot extend a game loaded without policies")
    axis = {ADVERSARY: 0, DEFENDER: 1}.get(policy.player)
    if axis is None:
        raise ValueError(f"unknown player {policy.player!r}")
    sets = [game.row_policies, game.col_policies]
    if policy.label in (game.row_labels, game.col_labels)[axis]:
        raise ValueError(f"duplicate {('row', 'column')[axis]} label {policy.label!r}")
    sets[axis] = (policy,)
    new = build_game(*sets, env_cfg, game.episodes, seed, jobs=jobs)
    grown = {name: np.concatenate([getattr(game, name), getattr(new, name)], axis=axis)
             for name in ("u_adv", "u_def", "se_adv", "se_def")}
    for name in (("row_labels", "row_policies"), ("col_labels", "col_policies"))[axis]:
        grown[name] = getattr(game, name) + getattr(new, name)
    return replace(game, **grown)


def mixed_utility(game: EmpiricalGame, sigma_adv: np.ndarray,
                  sigma_def: np.ndarray) -> tuple[float, float]:
    """Expected payoffs of a mixed strategy profile."""
    return (float(sigma_adv @ game.u_adv @ sigma_def),
            float(sigma_adv @ game.u_def @ sigma_def))


def regret(game: EmpiricalGame, sigma_adv: np.ndarray,
           sigma_def: np.ndarray) -> tuple[float, float]:
    """Best pure-deviation gain for each player, floored at zero."""
    pa = game.u_adv @ sigma_def
    pd = sigma_adv @ game.u_def
    reg_a = float(pa.max() - sigma_adv @ pa)
    reg_d = float(pd.max() - pd @ sigma_def)
    return max(reg_a, 0.0), max(reg_d, 0.0)


@dataclass(frozen=True)
class EquilibriumResult:
    sigma_adv: np.ndarray
    sigma_def: np.ndarray
    value_adv: float
    value_def: float
    regret_adv: float
    regret_def: float
    method = "lemke_howson"  # not annotated: a class constant, not a field


# ---------------------------------------------------------------------------
# Lemke-Howson.
#
# Labels 0..m-1 belong to row strategies, m..m+n-1 to column strategies.
# Two tableaus: in TX the structural variables are the row player's weights
# x (columns 0..m-1) with one slack per column strategy (columns m..m+n-1);
# TY holds the column player's weights y (columns m..m+n-1) with one slack
# per row strategy (columns 0..m-1).  In both, the column index of a
# variable equals its label.  Starting from the all-slack basis, drop one
# label, then alternately pivot the duplicated label into the other tableau
# until the dropped label reappears.  The ratio test breaks ties
# lexicographically over the initial identity columns, which resolves
# degenerate games (empirical games often contain identical rows).
# ---------------------------------------------------------------------------

class _PivotFailure(Exception):
    pass


def _lex_pivot(tab: np.ndarray, basis: list[int], col: int,
               lex_cols: range) -> int:
    pivot_col = tab[:, col]
    rows = np.flatnonzero(pivot_col > 1e-9)
    if rows.size == 0:
        raise _PivotFailure("unbounded pivot direction")
    best = rows[0]
    # the lex columns hold the basis inverse, whose rows are independent, so
    # some column tells two rows apart; on a tie within tolerance the earlier stays
    for r in rows[1:]:
        cb, cr = pivot_col[best], pivot_col[r]
        for c in (tab.shape[1] - 1, *lex_cols):
            a = tab[r, c] / cr
            b = tab[best, c] / cb
            if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12):
                if a < b:
                    best = r
                break
    piv = tab[best] / tab[best, col]
    colv = tab[:, col].copy()
    colv[best] = 0.0
    tab -= np.outer(colv, piv)
    tab[best] = piv
    leaving = basis[best]
    basis[best] = col
    return leaving


def _lemke_howson(a_pos: np.ndarray, b_pos: np.ndarray, first_label: int,
                  max_pivots: int) -> tuple[np.ndarray, np.ndarray]:
    m, n = a_pos.shape
    # side 0 is TX, side 1 is TY; each side's slack labels are its lex columns
    tabs = (np.hstack([b_pos.T, np.eye(n), np.ones((n, 1))]),
            np.hstack([np.eye(m), a_pos, np.ones((m, 1))]))
    slacks = (range(m, m + n), range(m))
    bases = [list(labels) for labels in slacks]
    entering, side = first_label, int(first_label >= m)
    for _ in range(max_pivots):
        leaving = _lex_pivot(tabs[side], bases[side], entering, slacks[side])
        if leaving == first_label:
            break
        entering, side = leaving, 1 - side
    else:
        raise _PivotFailure("pivot limit exceeded")
    xy = np.zeros(m + n)
    for tab, basis, slack in zip(tabs, bases, slacks):
        for r, lab in enumerate(basis):
            if lab not in slack:
                xy[lab] = tab[r, -1]
    if xy[:m].sum() <= 0 or xy[m:].sum() <= 0:
        raise _PivotFailure("returned to the artificial equilibrium")
    x, y = np.split(np.clip(xy, 0.0, None), [m])
    return x / x.sum(), y / y.sum()


def solve_msne(game: EmpiricalGame, tol: float | None = None) -> EquilibriumResult:
    """One mixed equilibrium of the empirical game, regret-verified.

    Deterministic: Lemke-Howson is tried from every starting label in order
    and the first verified equilibrium wins; EquilibriumError if none
    verifies.  tol defaults to 1e-6 of the payoff scale.
    """
    u_a, u_d = game.u_adv, game.u_def
    m, n = u_a.shape
    if tol is None:
        scale = max(1.0, float(np.abs(u_a).max()), float(np.abs(u_d).max()))
        tol = 1e-6 * scale
    # Shifting each player's payoffs by a constant changes no equilibria;
    # Lemke-Howson needs positive matrices.
    a_pos = u_a - u_a.min() + 1.0
    b_pos = u_d - u_d.min() + 1.0
    max_pivots = 200 + 20 * (m + n)
    for label in range(m + n):
        try:
            x, y = _lemke_howson(a_pos, b_pos, label, max_pivots)
        except _PivotFailure:
            continue
        result = EquilibriumResult(x, y, *mixed_utility(game, x, y), *regret(game, x, y))
        if result.regret_adv <= tol and result.regret_def <= tol:
            return result
    raise EquilibriumError(
        f"no equilibrium within regret tolerance {tol:g} for a {m}x{n} game")
