"""Deterministic derivation of named RNG substreams from one master seed.

Every random draw in the package comes from a stream labelled by where it is
used (for example ("episode", 3) or ("pair", "uniform", "pcp")).  The stream
seed is the first 8 bytes of sha256 over the master seed and the labels, so
runs are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *labels) -> int:
    """Map (master seed, labels) to a 64-bit stream seed.  The master seed
    must be an int or a numpy integer, not a bool; this is the one place
    the package checks a seed."""
    if not isinstance(master, (int, np.integer)) or isinstance(master, bool):
        raise ValueError(f"seed must be an integer, got {master!r}")
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:8], "big")


def spawn_rng(master: int, *labels) -> np.random.Generator:
    """Fresh generator for the named substream."""
    return np.random.default_rng(derive_seed(master, *labels))
