"""Sparse target recovery from the digital-filter output.

Solves the complex LASSO

    min_a  0.5*||s_hat - A a||^2 + rho*||a||_1

with a monotone accelerated proximal-gradient iteration (objective-guarded
FISTA, Beck & Teboulle 2009) whose step comes from backtracking on the local
curvature (Scheinberg, Goldfarb & Bai, Found. Comput. Math. 2014; Calatroni &
Chambolle, SIAM J. Optim. 2019): the trial constant falls between iterations
and doubles, up to the safe 1.02*L_f, whenever the sufficient-decrease test
fails. L_f = ||A||^2 is the caller's: the harness takes it in closed form from
the dictionary's band Grams, and power iteration on A^H A runs only for a
layout whose bands' tones are off one common grid, or when fista is given
none. Complex soft-thresholding is
shrink(v, t) = v * max(1 - t/|v|, 0); the momentum restarts by the gradient
test of O'Donoghue & Candes (2015); the solve stops on a relative
iterate-change rule. The operator is taken matrix-free (apply / adjoint pair)
so the full-scale product never needs an explicit matrix; each iteration
applies A^H once and A once, plus once more per backtrack, after one
A^H s_hat, and does its vector work in buffers the solver owns.

The solve runs in the precision of its data: a complex64 s_hat on an operator
that keeps complex64 gives complex64 iterates, and complex128 data the
double-precision path. Either way the objective values the monotone guard
compares, and the duality gap reported after the loop, are accumulated in
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import checked

__all__ = [
    "RecoverySpec",
    "fista",
    "power_iteration_lipschitz",
    "estimate_support",
    "hit_rate",
    "relative_mse",
]

# fista's step rule, as multiples of L_f: the first trial constant is
# LONG_STEP; each later iteration starts from STEP_SHRINK times the last one,
# not below STEP_FLOOR; a failed sufficient-decrease test multiplies it by
# STEP_GROWTH, up to SAFE_STEP, whose small margin over 1 keeps descent when
# L_f is a little low; the harness's closed-form L_f is exact, while power
# iteration, its fallback, can read L_f more than that margin low (3% on a
# paper-scale task operator)
LONG_STEP = 0.65
SAFE_STEP = 1.02
STEP_SHRINK = 0.9
STEP_GROWTH = 2.0
STEP_FLOOR = 0.05
# power_iteration_lipschitz: step cap, relative stopping tolerance, start seed
POWER_ITERS = 30
POWER_TOL = 1e-6
POWER_SEED = 0x5EED


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
        for name, rule in (("rho", "float>=0"), ("rho_scale", "float>=0"),
                           ("max_iter", "int>=1"), ("tol", "float>0")):
            value = getattr(self, name)
            if value is not None or name != "rho":  # rho None: chosen per problem
                object.__setattr__(self, name, checked(name, value, rule))


def _wide(v):
    """v in double precision; v itself when it already is."""
    return v.astype(np.promote_types(v.dtype, np.float64), copy=False)


def _sq(v):
    """||v||^2 accumulated in float64."""
    v = _wide(v)
    return float(np.vdot(v, v).real)


def _shrink_scale(mag, t, out):
    """max(1 - t/mag, 0) into out: the factor that soft-thresholds the vector
    of magnitudes mag (0 where mag is 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(t, mag, out=out)
    np.subtract(1.0, out, out=out)
    return np.fmax(out, 0.0, out=out)  # fmax: 1 - 0/0 is nan, and it maps to 0


def power_iteration_lipschitz(apply_a, apply_at, n):
    """Spectral norm of A^H A by power iteration (deterministic start). The
    iterates keep the precision the operator returns; the norms are taken in
    float64."""
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = apply_at(apply_a(v))
        lam_new = float(np.linalg.norm(_wide(w)))
        if lam_new == 0:
            raise ValueError("operator maps the probe vector to zero")
        v = w / lam_new
        if abs(lam_new - lam) <= POWER_TOL * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return lam


def fista(apply_a, apply_at, s_hat, spec: RecoverySpec, lipschitz=None,
          return_info=False):
    """Monotone FISTA with a backtracking step for the complex LASSO; returns
    the final iterate.

    Each iteration takes the gradient at the extrapolated point y with one
    adjoint, then tries the prox candidate z at the step 1/L for the trial
    constant L = max(STEP_SHRINK * L_prev, STEP_FLOOR * L_f), where the first
    iteration tries LONG_STEP * L_f. The trial is kept if
    ||A z - A y||^2 <= L ||z - y||^2, which for the quadratic data term is
    exactly the sufficient-decrease condition; otherwise L grows by
    STEP_GROWTH, up to SAFE_STEP * L_f, where the trial is kept untested, and
    the prox and the apply are redone with the same gradient (one apply per
    backtrack).

    The candidate z is accepted only if it does not increase the objective,
    which keeps the objective sequence nonincreasing. A x and A z are carried
    beside x and z, so A y follows by linearity. The momentum restarts (t = 1,
    y = the accepted iterate) whenever Re<y - z, z - x> > 0 for the previous
    iterate x, i.e. when the step z - x points uphill along the generalized
    gradient y - z.

    The iterates take s_hat's precision (complex64 or complex128). info's
    "backtracks" counts the failed sufficient-decrease tests, and "gap" is the
    relative duality gap (P(x) - D(theta)) / P(x) of the final iterate x at
    the rescaled-residual dual point theta = r * min(1, rho / ||A^H r||_inf),
    r = s_hat - A x, with D(theta) = 0.5||s_hat||^2 - 0.5||s_hat - theta||^2;
    it costs one adjoint after the loop.
    """
    s_hat = np.asarray(s_hat)
    s_hat = s_hat.astype(np.result_type(s_hat, np.complex64), copy=False)
    if not np.all(np.isfinite(s_hat)):
        raise ValueError("data vector must be finite")
    corr = apply_at(s_hat)
    n = corr.shape[0]
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(apply_a, apply_at, n)
    lipschitz = checked("lipschitz", lipschitz, "float>0")
    step_cap, step_floor = SAFE_STEP * lipschitz, STEP_FLOOR * lipschitz
    step_l = LONG_STEP * lipschitz

    rho = spec.rho
    if rho is None:
        rho = spec.rho_scale * float(np.max(np.abs(corr)))

    x = np.zeros(n, dtype=s_hat.dtype)
    ax = np.zeros_like(s_hat)
    fx = 0.5 * _sq(s_hat)
    y, ay = x, ax
    t = 1.0
    z_prev, z_prev_sq = x, 0.0
    # work buffers: v holds the gradient step (then z - y, then z - z_prev),
    # mag and scale its magnitude and shrink factor; z - x goes to the buffer
    # of the pair that y does not hold, and the next momentum point is built
    # in it
    real = s_hat.real.dtype
    v, mag, scale = np.empty_like(x), np.empty(n, dtype=real), np.empty(n, dtype=real)
    bufs = (np.empty_like(x), np.empty_like(x))
    history = [fx]
    n_iter = backtracks = 0
    for n_iter in range(1, spec.max_iter + 1):
        grad = apply_at(ay - s_hat)
        while True:
            np.multiply(grad, -1.0 / step_l, out=v)
            v += y
            _shrink_scale(np.abs(v, out=mag), rho / step_l, scale)
            z = v * scale
            az = apply_a(z)
            dz = np.subtract(z, y, out=v)
            if step_l >= step_cap:
                break
            daz = az - ay
            if np.vdot(daz, daz).real <= step_l * np.vdot(dz, dz).real:
                break
            step_l = min(STEP_GROWTH * step_l, step_cap)
            backtracks += 1
        r = az - s_hat
        fz = 0.5 * _sq(r) + rho * float(_wide(mag) @ _wide(scale))
        accepted = fz <= fx
        x_new, ax_new, fx_new = (z, az, fz) if accepted else (x, ax, fx)
        step = np.subtract(z, x, out=bufs[1] if y is bufs[0] else bufs[0])
        restart = np.vdot(dz, step).real < 0  # Re<y - z, z - x> > 0
        if z_prev is x:  # last candidate accepted: z - z_prev is the step
            diff_sq = float(np.vdot(step, step).real)
        else:
            np.subtract(z, z_prev, out=v)
            diff_sq = float(np.vdot(v, v).real)
        if restart:
            y, ay, t_new = x_new, ax_new, 1.0
        else:
            # y = x_new + (t/t_new)(z - x_new) + ((t-1)/t_new)(x_new - x), which
            # is x_new + c (z - x) with c = (t-1)/t_new if z was accepted, else
            # t/t_new; A y follows from A x_new, A z and A x the same way
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            c = ((t - 1.0) if accepted else t) / t_new
            step *= c
            step += x_new
            y, ay = step, ax_new + c * (az - ax)
        done = np.sqrt(diff_sq) < spec.tol * max(np.sqrt(z_prev_sq), 1e-30)
        x, ax, fx, t = x_new, ax_new, fx_new, t_new
        z_prev, z_prev_sq = z, float(np.vdot(z, z).real)
        history.append(fx)
        if done:
            break
        step_l = max(STEP_SHRINK * step_l, step_floor)
    if return_info:
        return x, {"objective": history, "iterations": n_iter,
                   "backtracks": backtracks, "lipschitz": lipschitz, "rho": rho,
                   "gap": _relative_gap(apply_at, s_hat, ax, fx, rho)}
    return x


def _relative_gap(apply_at, s_hat, ax, fx, rho):
    """(P(x) - D(theta)) / P(x) for the primal objective fx = P(x), A x = ax,
    at the rescaled-residual dual point theta (see fista); 0 when P(x) is 0."""
    r = s_hat - ax
    bound = float(np.max(np.abs(apply_at(r)), initial=0.0))
    theta = _wide(r) * (min(1.0, rho / bound) if bound > 0 else 1.0)
    dual = 0.5 * (_sq(s_hat) - _sq(_wide(s_hat) - theta))
    return (fx - dual) / fx if fx > 0 else 0.0


def estimate_support(a_hat, k):
    """Flat grid cells of the k largest-magnitude entries, largest first.

    Exact ties break toward the lower flat index; magnitudes that differ only
    by rounding follow that rounding, so a last-bit change upstream can swap
    such near-tied cells.
    """
    a_hat = np.asarray(a_hat)
    if k < 0 or k > a_hat.size:
        raise ValueError(f"k={k} out of range for a vector of {a_hat.size}")
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    neg = -np.abs(a_hat)
    # the cells at or above the k-th largest magnitude, in flat order, sorted
    # stably: the first k of the full stable sort, ties included (a NaN k-th
    # value keeps every cell)
    kth = np.partition(neg, k - 1)[k - 1]
    cells = np.flatnonzero(~(neg > kth))
    return cells[np.argsort(neg[cells], kind="stable")[:k]]


def hit_rate(true_cells, estimated_cells) -> float:
    """Fraction of the true (distinct) grid cells that appear in the estimate."""
    k = len(true_cells)
    if k == 0:
        return 1.0
    return len(set(true_cells) & set(estimated_cells)) / k


def relative_mse(x_true, x_est) -> float:
    x_true = np.asarray(x_true)
    ref = float(np.vdot(x_true, x_true).real)
    if ref == 0:
        raise ValueError("relative MSE undefined for a zero reference")
    diff = np.asarray(x_est) - x_true
    return float(np.vdot(diff, diff).real) / ref
