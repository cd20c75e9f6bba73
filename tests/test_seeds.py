from __future__ import annotations

import numpy as np

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
