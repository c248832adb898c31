"""Counter-based random number generation.

Every Brownian increment is a deterministic function of (seed, path index,
step index): path p draws from ``Philox(key=seed)`` at counter
``(0, 0, p, 0)`` (the stream ``jumped(p)``), so ensembles are reproducible
and the first rows of a larger ensemble are the smaller ensemble with the
same seed.
"""

from __future__ import annotations

import numpy as np


def normal_matrix(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normal draws, one independent Philox stream per path.

    Row p is the stream ``Philox(key=seed).jumped(p)``, whose counter is
    ``(0, 0, p, 0)``.  One generator is reset to that counter, with an empty
    output buffer, before every row, so a row does not depend on the rows
    drawn before it.
    """
    out = np.empty((n_paths, n_steps))
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state          # a fresh stream: counter 0, empty output buffer
    for p in range(n_paths):
        state["state"]["counter"][:] = (0, 0, p, 0)
        bitgen.state = state
        gen.standard_normal(n_steps, out=out[p])
    return out


def scalar_rng(seed: int, tag: int = 0) -> np.random.Generator:
    """Auxiliary generator for non-path randomness (e.g. coefficient probes)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[tag, 0, 0, 0]))
