from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mtdgame import nash
from mtdgame.env import ADVERSARY, DEFENDER
from mtdgame.nash import (
    EmpiricalGame,
    EquilibriumError,
    build_game,
    extend_game,
    mixed_utility,
    regret,
    solve_msne,
)
from mtdgame.policies import (
    MaxProbeAdversary,
    NoOpPolicy,
    UniformAdversary,
    UniformDefender,
    evaluate_cells,
)


def game_of(u_a, u_d, rows=None, cols=None) -> EmpiricalGame:
    u_a = np.asarray(u_a, dtype=float)
    u_d = np.asarray(u_d, dtype=float)
    m, n = u_a.shape
    rows = tuple(rows) if rows else tuple(f"r{i}" for i in range(m))
    cols = tuple(cols) if cols else tuple(f"c{j}" for j in range(n))
    zero = np.zeros_like(u_a)
    return EmpiricalGame(rows, cols, u_a, u_d, zero, zero, episodes=1)


MATCHING_PENNIES = ([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
PRISONERS = ([[-1, -3], [0, -2]], [[-1, 0], [-3, -2]])


# ---------------------------------------------------------------- container


def test_game_validates_shapes():
    with pytest.raises(ValueError):
        EmpiricalGame(("a",), ("b",), np.zeros((2, 1)), np.zeros((1, 1)),
                      np.zeros((1, 1)), np.zeros((1, 1)), 1)


def test_game_rejects_non_finite():
    bad = np.array([[np.nan]])
    with pytest.raises(ValueError):
        EmpiricalGame(("a",), ("b",), bad, np.zeros((1, 1)),
                      np.zeros((1, 1)), np.zeros((1, 1)), 1)


def test_game_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        game_of(np.zeros((2, 1)), np.zeros((2, 1)), rows=("x", "x"))


def test_game_rejects_duplicate_column_labels():
    with pytest.raises(ValueError, match="^duplicate column labels$"):
        game_of(np.zeros((1, 2)), np.zeros((1, 2)), cols=("x", "x"))


# ------------------------------------------------------------ mixed utility


def test_mixed_utility_pure_profiles_pick_entries():
    g = game_of([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert mixed_utility(g, e1, e2) == (2.0, 6.0)
    assert mixed_utility(g, e2, e1) == (3.0, 7.0)


def test_mixed_utility_uniform_on_identity():
    g = game_of(np.eye(2), np.eye(2))
    u = np.array([0.5, 0.5])
    ua, ud = mixed_utility(g, u, u)
    assert ua == pytest.approx(0.5) and ud == pytest.approx(0.5)


def test_mixed_utility_constant_matrix_invariant():
    g = game_of(np.full((3, 2), 4.2), np.full((3, 2), -1.3))
    for sa, sd in [(np.array([1.0, 0, 0]), np.array([0.3, 0.7])),
                   (np.array([0.2, 0.5, 0.3]), np.array([1.0, 0.0]))]:
        ua, ud = mixed_utility(g, sa, sd)
        assert ua == pytest.approx(4.2) and ud == pytest.approx(-1.3)


# ------------------------------------------------------------------- regret


def test_regret_zero_at_equilibrium():
    g = game_of(*MATCHING_PENNIES)
    half = np.array([0.5, 0.5])
    ra, rd = regret(g, half, half)
    assert ra <= 1e-12 and rd <= 1e-12


def test_regret_pure_row_indifferent_against_mixing():
    g = game_of(*MATCHING_PENNIES)
    ra, _ = regret(g, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert ra == pytest.approx(0.0, abs=1e-12)


def test_regret_measures_deviation_gain():
    g = game_of([[1.0], [0.0]], [[0.0], [0.0]])
    ra, rd = regret(g, np.array([0.0, 1.0]), np.array([1.0]))
    assert ra == pytest.approx(1.0)
    assert rd == pytest.approx(0.0)


# ------------------------------------------------------------------- solver


def test_matching_pennies_equilibrium():
    r = solve_msne(game_of(*MATCHING_PENNIES))
    np.testing.assert_allclose(r.sigma_adv, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(r.sigma_def, [0.5, 0.5], atol=1e-12)
    assert r.value_adv == pytest.approx(0.0, abs=1e-12)
    assert r.regret_adv <= 1e-12 and r.regret_def <= 1e-12


def test_prisoners_dilemma_mutual_defection():
    r = solve_msne(game_of(*PRISONERS))
    np.testing.assert_array_equal(r.sigma_adv, [0.0, 1.0])
    np.testing.assert_array_equal(r.sigma_def, [0.0, 1.0])
    assert r.value_adv == -2.0 and r.value_def == -2.0
    assert r.regret_adv == 0.0 and r.regret_def == 0.0


def test_single_cell_game():
    r = solve_msne(game_of([[5.0]], [[7.0]]))
    np.testing.assert_array_equal(r.sigma_adv, [1.0])
    np.testing.assert_array_equal(r.sigma_def, [1.0])
    assert (r.value_adv, r.value_def) == (5.0, 7.0)


def test_single_column_game():
    r = solve_msne(game_of([[1.0], [0.0]], [[0.5], [0.5]]))
    np.testing.assert_allclose(r.sigma_adv, [1.0, 0.0], atol=1e-12)
    assert r.value_adv == pytest.approx(1.0)


def degenerate_games():
    """Degenerate games, the last three seeded, that Lemke-Howson must settle
    on its own: ties everywhere, past size 12, and near-ties at payoff scale."""
    rng = np.random.default_rng(26)
    block = rng.integers(-3, 4, size=(2, 3, 3)).astype(float)
    binary = rng.integers(0, 2, size=(2, 12, 12)).astype(float)
    noise = 1e-7 * rng.normal(size=(2, 8, 9))
    return {
        "duplicate_rows": ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                           [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
        "constant_7x7": (np.full((7, 7), 3.0), np.full((7, 7), -1.0)),
        "tiled_15x15": tuple(np.tile(block, (1, 5, 5))),
        "binary_12x12": tuple(binary),
        "near_ties_8x9": (47.0 + noise[0], 89.0 + noise[1]),
    }


@pytest.mark.parametrize("name", list(degenerate_games()))
def test_degenerate_duplicate_rows(name):
    r = solve_msne(game_of(*degenerate_games()[name]))
    assert r.regret_adv <= 1e-9 and r.regret_def <= 1e-9


def test_solver_is_deterministic():
    g = game_of(np.random.default_rng(0).random((4, 4)),
                np.random.default_rng(1).random((4, 4)))
    r1 = solve_msne(g)
    r2 = solve_msne(g)
    np.testing.assert_array_equal(r1.sigma_adv, r2.sigma_adv)
    np.testing.assert_array_equal(r1.sigma_def, r2.sigma_def)
    assert r1.method == r2.method


@pytest.mark.parametrize("u", [
    pytest.param([[1, -1], [-1, 2]], id="irrational"),
    # Lemke-Howson ends on a mixed equilibrium with regret 4.4e-16, not on
    # the exact pure one (row 0, column 1)
    pytest.param([[2, 0], [-2, 0]], id="pure_missed"),
])
def test_zero_tolerance_raises_on_irrational_equilibrium(u):
    with pytest.raises(EquilibriumError):
        solve_msne(game_of(u, -np.asarray(u)), tol=0.0)


def test_random_bimatrices_pass_independent_regret_check():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        g = game_of(rng.random((m, n)), rng.random((m, n)))
        r = solve_msne(g)
        assert (r.sigma_adv >= -1e-12).all() and (r.sigma_def >= -1e-12).all()
        assert r.sigma_adv.sum() == pytest.approx(1.0, abs=1e-9)
        assert r.sigma_def.sum() == pytest.approx(1.0, abs=1e-9)
        ra, rd = regret(g, r.sigma_adv, r.sigma_def)
        assert ra <= 1e-6 and rd <= 1e-6
        ua, ud = mixed_utility(g, r.sigma_adv, r.sigma_def)
        assert r.value_adv == pytest.approx(ua) and r.value_def == pytest.approx(ud)


def test_payoff_scale_widens_default_tolerance():
    rng = np.random.default_rng(3)
    g = game_of(rng.random((3, 3)) * 100.0, rng.random((3, 3)) * 100.0)
    r = solve_msne(g)
    ra, rd = regret(g, r.sigma_adv, r.sigma_def)
    assert ra <= 1e-4 and rd <= 1e-4


# ------------------------------------------------------- empirical building


def test_build_game_single_noop_cell(baseline):
    g = build_game([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)],
                   baseline, episodes=2, seed=0)
    assert g.row_labels == ("noop",) and g.col_labels == ("noop",)
    assert g.u_adv[0, 0] == pytest.approx(26.8929, abs=1e-3)
    assert g.u_def[0, 0] == pytest.approx(98.1972, abs=1e-3)
    assert g.se_adv[0, 0] == 0.0


def test_build_game_rejects_empty_sets(baseline):
    with pytest.raises(ValueError):
        build_game([], [NoOpPolicy(DEFENDER)], baseline, 1, 0)


def test_cell_values_depend_on_labels_not_position(short):
    advs = [NoOpPolicy(ADVERSARY), UniformAdversary()]
    defs = [NoOpPolicy(DEFENDER), UniformDefender()]
    full = build_game(advs, defs, short, episodes=2, seed=5)
    sub = build_game([advs[1]], [defs[1]], short, episodes=2, seed=5)
    assert full.u_adv[1, 1] == sub.u_adv[0, 0]
    assert full.u_def[1, 1] == sub.u_def[0, 0]


def test_build_game_deterministic(short):
    advs = [NoOpPolicy(ADVERSARY), UniformAdversary()]
    defs = [NoOpPolicy(DEFENDER)]
    g1 = build_game(advs, defs, short, episodes=3, seed=9)
    g2 = build_game(advs, defs, short, episodes=3, seed=9)
    np.testing.assert_array_equal(g1.u_adv, g2.u_adv)
    np.testing.assert_array_equal(g1.u_def, g2.u_def)


def test_parallel_build_matches_serial(short):
    advs = [NoOpPolicy(ADVERSARY), UniformAdversary()]
    defs = [NoOpPolicy(DEFENDER), UniformDefender()]
    serial = build_game(advs, defs, short, episodes=2, seed=4, jobs=1)
    parallel = build_game(advs, defs, short, episodes=2, seed=4, jobs=2)
    np.testing.assert_array_equal(serial.u_adv, parallel.u_adv)
    np.testing.assert_array_equal(serial.u_def, parallel.u_def)


def test_extend_game_keeps_old_cells_and_counts_new_evaluations(short, monkeypatch):
    calls = []

    def counting(advs, defs, seeds, cfg, episodes, jobs):
        calls.extend((adv.label, deff.label) for adv in advs for deff in defs)
        return evaluate_cells(advs, defs, seeds, cfg, episodes, jobs)

    monkeypatch.setattr(nash, "evaluate_cells", counting)

    advs = [NoOpPolicy(ADVERSARY), UniformAdversary()]
    defs = [NoOpPolicy(DEFENDER), UniformDefender(), UniformDefender(period=2, label="fast")]
    g = build_game(advs, defs, short, episodes=2, seed=1)
    assert len(calls) == 6
    calls.clear()

    g2 = extend_game(g, UniformDefender(period=8, label="slow"), short, seed=1)
    assert len(calls) == 2          # one new column, one cell per existing row
    np.testing.assert_array_equal(g2.u_adv[:, :3], g.u_adv)
    assert g2.col_labels == (*g.col_labels, "slow")
    calls.clear()

    g3 = extend_game(g2, MaxProbeAdversary(), short, seed=1)
    assert len(calls) == 4          # one new row across all four columns
    np.testing.assert_array_equal(g3.u_adv[:2], g2.u_adv)
    np.testing.assert_array_equal(g3.u_def[:2], g2.u_def)
    assert g3.row_labels == (*g2.row_labels, "maxprobe")
    # grand total for one policy per side: rows + columns + 1
    assert 2 + 4 == len(g.row_labels) + len(g.col_labels) + 1


def test_extend_game_rejects_duplicates_and_label_free_games(short):
    advs = [NoOpPolicy(ADVERSARY)]
    defs = [NoOpPolicy(DEFENDER)]
    g = build_game(advs, defs, short, episodes=1, seed=0)
    with pytest.raises(ValueError):
        extend_game(g, NoOpPolicy(ADVERSARY), short, seed=0)
    stripped = EmpiricalGame(g.row_labels, g.col_labels, g.u_adv, g.u_def,
                             g.se_adv, g.se_def, g.episodes)
    with pytest.raises(ValueError):
        extend_game(stripped, UniformAdversary(), short, seed=0)


def test_extend_game_rejects_a_policy_of_neither_side(short):
    g = build_game([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)], short, episodes=1, seed=0)
    with pytest.raises(ValueError, match="^unknown player 'nobody'$"):
        extend_game(g, NoOpPolicy("nobody"), short, seed=0)


def test_solve_empirical_noop_game(baseline):
    g = build_game([NoOpPolicy(ADVERSARY)], [NoOpPolicy(DEFENDER)],
                   baseline, episodes=1, seed=0)
    r = solve_msne(g)
    assert r.value_adv == pytest.approx(26.8929, abs=1e-3)
    assert r.value_def == pytest.approx(98.1972, abs=1e-3)


# sha256 over solve_msne's strategies and method on solver_games(); a change
# to any bit of any of these solves fails it.
SOLVER_BITS_SHA256 = "3f467cdc34534f934a4177c9f2a213c087ba55fff19a7f747875a9b8e3d16b8d"


def solver_games():
    """300 seeded games up to 7x7: Gaussian, small-integer (degenerate) and
    zero-sum with a duplicated row, in turn."""
    rng = np.random.default_rng(22)
    for i in range(300):
        m, n = (int(k) for k in rng.integers(1, 8, size=2))
        if i % 3 == 0:
            u_a, u_d = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        elif i % 3 == 1:
            u_a, u_d = rng.integers(-2, 3, size=(2, m, n)).astype(float)
        else:
            u_a = rng.normal(size=(m, n))
            u_a[-1] = u_a[0]
            u_d = -u_a
        yield game_of(u_a, u_d)


def test_solver_keeps_its_bits():
    """Every one of these games is solved by Lemke-Howson, which pivots
    elementwise, so the strategies hash the same under any BLAS."""
    digest = hashlib.sha256()
    for game in solver_games():
        result = solve_msne(game)
        digest.update(result.sigma_adv.tobytes() + result.sigma_def.tobytes()
                      + result.method.encode())
    assert digest.hexdigest() == SOLVER_BITS_SHA256
