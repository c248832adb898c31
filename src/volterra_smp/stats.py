"""Small statistical helpers shared by the experiment modules."""

from __future__ import annotations

import numpy as np


def mc_mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a per-path sample vector."""
    s = np.asarray(samples, dtype=float)
    m = float(np.mean(s))
    if s.size < 2:
        return m, 0.0
    return m, float(np.std(s, ddof=1) / np.sqrt(s.size))


def mc_mean_se_rows(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mc_mean_se`` of every row of a (rows, paths) array at once.

    Each row reduces as one contiguous run, so the values are bit for bit
    those of ``mc_mean_se`` on the row.
    """
    s = np.ascontiguousarray(samples, dtype=float)
    means = np.mean(s, axis=1)
    if s.shape[1] < 2:
        return means, np.zeros(s.shape[0])
    return means, np.std(s, axis=1, ddof=1) / np.sqrt(s.shape[1])


def fit_loglog(x, y) -> dict:
    """Least-squares slope of log y against log x.

    Returns slope, intercept, r2 and the standard error of the slope.
    Requires positive data; callers filter exact zeros first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = x.size - 2
    if dof > 0:
        var_slope = ss_res / dof / float(np.sum((lx - np.mean(lx)) ** 2))
        se_slope = float(np.sqrt(var_slope))
    else:
        se_slope = 0.0
    return {"slope": slope, "intercept": intercept, "r2": r2, "se_slope": se_slope}
