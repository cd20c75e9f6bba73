from __future__ import annotations

import math

import numpy as np
import pytest

from mtdgame.double_oracle import DoConfig, run_double_oracle
from mtdgame.env import ADVERSARY
from mtdgame.nash import build_game
from mtdgame.policies import (
    MixedStrategy,
    UniformAdversary,
    UniformDefender,
    evaluate_cells,
    run_episode,
)
from mtdgame.qlearn import TrainConfig, train_best_response
from mtdgame.seeds import derive_seed, spawn_rng


def test_derive_seed_is_deterministic():
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(123, "pair", "a", "b") == derive_seed(123, "pair", "a", "b")


def test_derive_seed_value_is_pinned():
    # the first 8 bytes of sha256(b"123/pair/a/b")
    assert derive_seed(123, "pair", "a", "b") == 10664509869037360822


def test_derive_seed_fits_in_64_bits():
    for master in (0, 1, 2**31, 2**63 - 1):
        s = derive_seed(master, "x")
        assert 0 <= s < 2**64


def test_labels_change_the_stream():
    base = derive_seed(5)
    assert derive_seed(5, "a") != base
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
    assert derive_seed(5, "a", "1") == derive_seed(5, "a", 1)  # labels stringify


def test_label_order_matters():
    assert derive_seed(9, "x", "y") != derive_seed(9, "y", "x")


def test_masters_do_not_collide():
    seen = {derive_seed(m, "env") for m in range(1000)}
    assert len(seen) == 1000


def test_spawn_rng_reproduces_and_separates():
    a1 = spawn_rng(42, "adv").random(8)
    a2 = spawn_rng(42, "adv").random(8)
    d = spawn_rng(42, "def").random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, d)


# ------------------------------------------------------------ seed checks


@pytest.mark.parametrize("bad", [1.5, True, np.True_, np.float64(2.0), math.nan, None, "3"])
def test_derive_seed_rejects_what_is_not_an_integer(bad):
    with pytest.raises(ValueError, match="seed must be an integer"):
        derive_seed(bad, "x")


def test_derive_seed_takes_any_integer_as_the_equal_int():
    assert derive_seed(-3, "x") != derive_seed(3, "x")
    assert derive_seed(np.int64(-3), "x") == derive_seed(-3, "x")
    assert derive_seed(np.uint64(2**64 - 1), "x") == derive_seed(2**64 - 1, "x")


def _seeded_calls(cfg):
    adv, deff = UniformAdversary(), UniformDefender()
    tc = TrainConfig(episodes=1, batch_size=8, replay_capacity=32)
    return {
        "run_episode": lambda seed: run_episode(adv, deff, cfg, seed),
        "build_game": lambda seed: build_game([adv], [deff], cfg, 2, seed),
        "evaluate_cells": lambda seed: evaluate_cells([adv], [deff], [[seed]], cfg, 2),
        "train_best_response": lambda seed: train_best_response(
            ADVERSARY, [deff], MixedStrategy(np.array([1.0])), cfg, tc, seed),
        "run_double_oracle": lambda seed: run_double_oracle(
            cfg, [adv], [deff], DoConfig(max_iterations=0, eval_episodes=2), seed, None),
    }


@pytest.mark.parametrize("entry", sorted(_seeded_calls(None)))
@pytest.mark.parametrize("bad", [1.5, True])
def test_every_seeded_entry_point_rejects_a_non_integer_seed(short, entry, bad):
    """Seeds are run arguments: each entry point reaches derive_seed's check
    instead of truncating the seed."""
    call = _seeded_calls(short)[entry]
    with pytest.raises(ValueError, match="seed must be an integer"):
        call(bad)
    call(np.int64(1))
