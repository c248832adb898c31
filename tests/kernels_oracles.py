"""Discrete analogues of the kernel's weighted-summability conditions
(test-only oracle: no experiment reads them)."""

import numpy as np


def integrability_report(kernel) -> dict:
    """Discrete analogues of the weighted-summability conditions."""
    r = np.minimum(1.0, np.where(kernel.nodes > 0, kernel.nodes, 1.0) ** -0.5)
    r[kernel.nodes == 0] = 1.0
    mb2 = np.sum(kernel.mb ** 2, axis=(1, 2))
    ms2 = np.sum(kernel.msigma ** 2, axis=(1, 2))
    return {
        "mu_r_mass": float(np.sum(kernel.weights * r)),
        "b_weighted_sum": float(np.sum((1.0 + kernel.nodes) ** (-kernel.alpha) * r * mb2
                                       * kernel.weights)),
        "sigma_weighted_sum": float(np.sum((1.0 + kernel.nodes) ** (1.0 - kernel.alpha) * r
                                           * ms2 * kernel.weights)),
    }
