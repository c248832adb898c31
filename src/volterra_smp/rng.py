"""Counter-based random number generation and worker chunking.

Every Brownian increment is a deterministic function of (seed, path index,
step index): path p draws from ``Philox(key=seed)`` at counter
``(0, 0, p, 0)`` (the stream ``jumped(p)``), so ensembles are reproducible
regardless of how paths are split across workers, and the first rows of a
larger ensemble are the smaller ensemble with the same seed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def worker_count() -> int:
    """Worker cap from VOLTERRA_SMP_THREADS (default 1, floor 1)."""
    raw = os.environ.get("VOLTERRA_SMP_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def path_chunks(n_paths: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_paths)`` into at most ``n_chunks`` contiguous ranges."""
    n_chunks = max(1, min(n_chunks, n_paths))
    bounds = np.linspace(0, n_paths, n_chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def normal_matrix(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normal draws, one independent Philox stream per path.

    Row p is the stream ``Philox(key=seed).jumped(p)``, whose counter is
    ``(0, 0, p, 0)``.  Each worker owns one generator and resets it to that
    counter, with an empty output buffer, before every row, so results are
    identical for any worker count.
    """
    out = np.empty((n_paths, n_steps))

    def fill(lo: int, hi: int) -> None:
        bitgen = np.random.Philox(key=seed)
        gen = np.random.Generator(bitgen)
        state = bitgen.state          # a fresh stream: counter 0, empty output buffer
        for p in range(lo, hi):
            state["state"]["counter"][:] = (0, 0, p, 0)
            bitgen.state = state
            gen.standard_normal(n_steps, out=out[p])

    chunks = path_chunks(n_paths, worker_count())
    if len(chunks) == 1:
        fill(*chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as ex:
            list(ex.map(lambda c: fill(*c), chunks))
    return out


def scalar_rng(seed: int, tag: int = 0) -> np.random.Generator:
    """Auxiliary generator for non-path randomness (e.g. coefficient probes)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[tag, 0, 0, 0]))
