"""Dense reference computations for the structured code paths, built only in tests.

dense_phi stacks the Kronecker blocks V_m (x) U_m of the dictionary, and
dense_task composes the compression with it, M*Phi, on band-major ctilde.
reference_fista is the monotone FISTA without restart that applies the
operator three times per iteration, kept as the differential reference for
the solver.
sigma_dense and cov_signal_dense expand the per-tone covariance blocks into
block-diagonal matrices. digital_filter_mse evaluates a digital filter's
modeled error with dense matrices, and block_from_responses inverts the
analog filter export.
"""

import numpy as np

from bitmimo.dictionary import fbar_matrix
from bitmimo.recovery import power_iteration_lipschitz, soft_threshold
from bitmimo.statistics import blkdiag, lmmse_transform


def dense_phi(d):
    """Phi = [V_0 (x) U_0; ...; V_{M-1} (x) U_{M-1}], shape MNL x M^2NL."""
    return np.vstack([np.kron(d.V[m], d.U[m]) for m in range(d.config.M)])


def dense_task(d, compression):
    """M*Phi, shape J x M^2NL."""
    return compression.dense(d.iperm) @ dense_phi(d)


def sigma_dense(stats):
    """Dense block-diagonal Sigma = cov(c) + cov(w)."""
    return blkdiag(stats.sigma)


def cov_signal_dense(stats):
    """Dense block-diagonal cov(c)."""
    return blkdiag(stats.cov_signal)


def digital_filter_mse(digital, combiner_blocks, stats, compression, gamma, levels):
    """Modeled E||s_tilde - D z||^2 for any digital filter D (dense evaluation).

    Under the dithered ADC model z = Fbar Bbar v + e with white e of per-sample
    variance 4*gamma^2/(3*b^2), so the MSE relative to the LMMSE estimate is
    Tr[(Gamma - D G) Sigma (Gamma - D G)^H] + q Tr[D D^H] with G = Fbar Bbar.
    """
    B = np.asarray(combiner_blocks)
    L, P, _ = B.shape
    q = 4.0 * gamma * gamma / (3.0 * levels * levels)
    G = fbar_matrix(L, P) @ blkdiag(B)
    gap = blkdiag(lmmse_transform(compression, stats)) - digital @ G
    sig = sigma_dense(stats)
    return float(np.trace(gap @ sig @ gap.conj().T).real
                 + q * np.trace(digital @ digital.conj().T).real)


def block_from_responses(gains, config, pulse_spectrum=None):
    """Invert analog_filter_response for one (p, n): recover B_i[p, m*N+n]."""
    L, M = config.L, config.M
    h0 = np.ones(L, dtype=complex) if pulse_spectrum is None else \
        np.asarray(pulse_spectrum, dtype=complex)
    gains = np.asarray(gains, dtype=complex).reshape(M, L)
    return gains * h0[None, :] / config.pri


def reference_fista(apply_a, apply_at, s_hat, spec, lipschitz=None):
    """Monotone FISTA without restart, A y and A z applied afresh every
    iteration; returns (x, info) like fista(..., return_info=True)."""
    s_hat = np.asarray(s_hat, dtype=complex)
    n = apply_at(s_hat).shape[0]
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(apply_a, apply_at, n)
    step_l = 1.02 * lipschitz
    rho = spec.rho
    if rho is None:
        rho = spec.rho_scale * float(np.max(np.abs(apply_at(s_hat))))

    def objective(v):
        r = apply_a(v) - s_hat
        return 0.5 * float(np.vdot(r, r).real) + rho * float(np.abs(v).sum())

    x = np.zeros(n, dtype=complex)
    fx = objective(x)
    y, t, z_prev = x, 1.0, x
    history = [fx]
    n_iter = 0
    for n_iter in range(1, spec.max_iter + 1):
        grad = apply_at(apply_a(y) - s_hat)
        z = soft_threshold(y - grad / step_l, rho / step_l)
        fz = objective(z)
        x_new, fx_new = (z, fz) if fz <= fx else (x, fx)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t / t_new) * (z - x_new) + ((t - 1.0) / t_new) * (x_new - x)
        delta = np.linalg.norm(z - z_prev) / max(np.linalg.norm(z_prev), 1e-30)
        x, fx, t, z_prev = x_new, fx_new, t_new, z
        history.append(fx)
        if delta < spec.tol:
            break
    return x, {"objective": history, "iterations": n_iter,
               "lipschitz": lipschitz, "rho": rho}
