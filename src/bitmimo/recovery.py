"""Sparse target recovery from the digital-filter output.

Solves the complex LASSO

    min_a  0.5*||s_hat - A a||^2 + rho*||a||_1

with a monotone accelerated proximal-gradient iteration (objective-guarded
FISTA, Beck & Teboulle 2009): step 1/L_f with L_f from power iteration on
A^H A, complex soft-thresholding shrink(v, t) = v * max(1 - t/|v|, 0), a
gradient-based adaptive restart of the momentum (O'Donoghue & Candes 2015)
and a relative iterate-change stopping rule. The operator is taken matrix-free
(apply / adjoint pair) so the full-scale product never needs an explicit
matrix; each iteration applies A once and A^H once, after one A^H s_hat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TargetScene

__all__ = [
    "RecoverySpec",
    "fista",
    "soft_threshold",
    "power_iteration_lipschitz",
    "estimate_support",
    "hit_rate",
    "relative_mse",
    "RecoveryBound",
    "recovery_error_bound",
]


@dataclass(frozen=True)
class RecoverySpec:
    """LASSO regularization and stopping controls.

    rho is the absolute regularization weight; when None it is chosen per
    problem as rho_scale * ||A^H s_hat||_inf.
    """

    rho: float | None = None
    rho_scale: float = 0.05
    max_iter: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        if self.rho is not None and self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding; preserves phase, shrinks magnitude by t."""
    return _shrink(v, t)[0]


def _shrink(v, t):
    """soft_threshold(v, t) and its magnitude max(|v| - t, 0)."""
    mag = np.abs(v)
    kept = np.maximum(mag - t, 0.0)
    scale = np.divide(kept, mag, out=np.zeros_like(mag), where=kept > 0)
    return v * scale, kept


def power_iteration_lipschitz(apply_a, apply_at, n, iters=30, tol=1e-6, seed=0x5EED):
    """Spectral norm of A^H A by power iteration (deterministic start)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_at(apply_a(v))
        lam_new = np.linalg.norm(w)
        if lam_new == 0:
            raise ValueError("operator maps the probe vector to zero")
        v = w / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(lam)


def fista(apply_a, apply_at, s_hat, spec: RecoverySpec, lipschitz=None,
          return_info=False):
    """Monotone FISTA for the complex LASSO; returns the final iterate.

    The proximal candidate z from the extrapolated point y is accepted only if
    it does not increase the objective, which keeps the objective sequence
    nonincreasing. A x and A z are carried beside x and z, so A y follows by
    linearity and each iteration applies A and A^H once. The momentum restarts
    (t = 1, y = the accepted iterate) whenever Re<y - z, z - x> > 0 for the
    previous iterate x, i.e. when the step z - x points uphill along the
    generalized gradient y - z.
    """
    s_hat = np.asarray(s_hat, dtype=complex)
    if not np.all(np.isfinite(s_hat)):
        raise ValueError("data vector must be finite")
    corr = apply_at(s_hat)
    n = corr.shape[0]
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(apply_a, apply_at, n)
    if lipschitz <= 0:
        raise ValueError("zero operator")
    # small safety factor: an underestimated step constant breaks descent
    step_l = 1.02 * lipschitz

    rho = spec.rho
    if rho is None:
        rho = spec.rho_scale * float(np.max(np.abs(corr)))
    thr = rho / step_l

    x = np.zeros(n, dtype=complex)
    ax = np.zeros_like(s_hat)
    fx = 0.5 * float(np.vdot(s_hat, s_hat).real)
    y, ay = x, ax
    t = 1.0
    z_prev, z_prev_norm = x, 0.0
    history = [fx]
    n_iter = 0
    for n_iter in range(1, spec.max_iter + 1):
        v = y - apply_at(ay - s_hat) / step_l
        z, z_mag = _shrink(v, thr)
        az = apply_a(z)
        r = az - s_hat
        fz = 0.5 * float(np.vdot(r, r).real) + rho * float(z_mag.sum())
        accepted = fz <= fx
        x_new, ax_new, fx_new = (z, az, fz) if accepted else (x, ax, fx)
        step = z - x
        if np.vdot(y - z, step).real > 0:
            y, ay, t_new = x_new, ax_new, 1.0
        else:
            # y = x_new + (t/t_new)(z - x_new) + ((t-1)/t_new)(x_new - x), which
            # is x_new + c (z - x) with c = (t-1)/t_new if z was accepted, else
            # t/t_new; A y follows from A x_new, A z and A x the same way
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            c = ((t - 1.0) if accepted else t) / t_new
            y = x_new + c * step
            ay = ax_new + c * (az - ax)
        delta = np.linalg.norm(z - z_prev) / max(z_prev_norm, 1e-30)
        x, ax, fx, t = x_new, ax_new, fx_new, t_new
        z_prev, z_prev_norm = z, float(np.sqrt(z_mag @ z_mag))
        history.append(fx)
        if delta < spec.tol:
            break
    if return_info:
        return x, {"objective": history, "iterations": n_iter,
                   "lipschitz": lipschitz, "rho": rho}
    return x


def estimate_support(a_hat, k, mn):
    """Grid cells of the k largest-magnitude entries, as (delay, angle) pairs.

    Ties break toward the lower flat index. The flat layout is l1*mn + l2.
    """
    a_hat = np.asarray(a_hat)
    if k < 0 or k > a_hat.size:
        raise ValueError(f"k={k} out of range for a vector of {a_hat.size}")
    if k == 0:
        return []
    order = np.argsort(-np.abs(a_hat), kind="stable")[:k]
    return [(int(idx) // mn, int(idx) % mn) for idx in order]


def hit_rate(scene: TargetScene, estimated_pairs) -> float:
    """Fraction of true targets whose exact grid cell appears in the estimate."""
    if scene.k == 0:
        return 1.0
    est = set((int(l1), int(l2)) for l1, l2 in estimated_pairs)
    hits = sum((int(l1), int(l2)) in est
               for l1, l2 in zip(scene.delay_idx, scene.angle_idx))
    return hits / scene.k


def relative_mse(x_true, x_est) -> float:
    x_true = np.asarray(x_true)
    ref = float(np.vdot(x_true, x_true).real)
    if ref == 0:
        raise ValueError("relative MSE undefined for a zero reference")
    diff = np.asarray(x_est) - x_true
    return float(np.vdot(diff, diff).real) / ref


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

