from __future__ import annotations

import numpy as np
import pytest

from mtdgame.env import BLOCK_WORDS, EnvConfig


@pytest.fixture
def baseline() -> EnvConfig:
    """Default ten-server configuration used throughout."""
    return EnvConfig()


@pytest.fixture
def short(baseline) -> EnvConfig:
    """Same game with a 50-step horizon, for cheap rollouts."""
    from dataclasses import replace
    return replace(baseline, horizon=50)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def catch_up():
    """A check that generators which drew number by number stand where a
    BlockStream's generators of the same rows do, once each has drawn its
    block's unused tail: the buffered high half of the current word when
    the cursor is odd, then the block's remaining words.  `uinteger`, the
    buffered half, is not compared: it goes stale once it is consumed."""
    def check(rngs, stream):
        for rng, ahead, cursor in zip(rngs, stream.rngs, stream.cursor.tolist(), strict=True):
            if cursor % 2:
                rng.integers(2**32)
            rng.bit_generator.random_raw(BLOCK_WORDS - (cursor + 1) // 2)
            got, want = rng.bit_generator.state, ahead.bit_generator.state
            assert (got["state"], got["has_uint32"]) == (want["state"], want["has_uint32"])

    return check
