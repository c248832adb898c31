"""Reference form of the per-path Brownian streams (test-only oracle).

Row p of ``rng.normal_matrix`` is the Philox stream ``jumped(p)`` of the
seed's root generator.  This builds every row from a freshly jumped stream,
as the sampler did before it reset one generator's counter per row; the
property tests compare the two bit for bit.
"""

import numpy as np


def normal_matrix(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    out = np.empty((n_paths, n_steps))
    root = np.random.Philox(key=seed)
    for p in range(n_paths):
        out[p] = np.random.Generator(root.jumped(p)).standard_normal(n_steps)
    return out
