"""Paper-theory helpers that only the tests use: the mutual coherence of a
dense matrix, the l1-recovery stability bound it enters, and complex
soft-thresholding by the shrink factor the solver uses.
"""

from dataclasses import dataclass

import numpy as np

from bitmimo.recovery import _shrink_scale


def coherence(A: np.ndarray, chunk=256) -> float:
    """Largest absolute normalized inner product between distinct columns."""
    A = np.asarray(A)
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ValueError("coherence is undefined for matrices with zero columns")
    An = A / norms
    n = A.shape[1]
    mu = 0.0
    for start in range(0, n, chunk):
        block = An[:, start:start + chunk]
        g = np.abs(block.conj().T @ An)
        for r in range(g.shape[0]):
            g[r, start + r] = 0.0
        mu = max(mu, float(g.max()))
    return min(mu, 1.0)


@dataclass(frozen=True)
class RecoveryBound:
    """Stability bound for l1 recovery, or a condition failure."""

    condition_ok: bool
    value: float | None
    k_limit: float  # recovery is guaranteed for K strictly below this

    def __bool__(self):
        return self.condition_ok


def recovery_error_bound(k, mu, eps_lmmse, eps_excess, eps_feasibility) -> RecoveryBound:
    """Bound (eps_lmmse + eps_excess + eps_feasibility) / (1 - (4K-1)*mu),
    valid when K < (1/mu + 1)/4; returns a typed condition failure otherwise."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("coherence must lie in [0, 1]")
    k_limit = np.inf if mu == 0 else (1.0 / mu + 1.0) / 4.0
    if k >= k_limit:
        return RecoveryBound(condition_ok=False, value=None, k_limit=float(k_limit))
    total = eps_lmmse + eps_excess + eps_feasibility
    return RecoveryBound(condition_ok=True,
                         value=float(total / (1.0 - (4.0 * k - 1.0) * mu)),
                         k_limit=float(k_limit))


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding; preserves phase, shrinks magnitude by t."""
    mag = np.abs(v)
    return v * _shrink_scale(mag, t, mag)
