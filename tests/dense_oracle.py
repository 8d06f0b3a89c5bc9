"""Dense reference computations for the structured code paths, built only in tests.

blkdiag and fbar_matrix form the block-diagonal and sample-domain DFT
matrices the library only ever applies. dense_phi stacks the Kronecker
blocks V_m (x) U_m of the dictionary, compression_dense is blkdiag(M_i) on
band-major ctilde, dense_task composes the two, M*Phi, and eval_c_direct
evaluates the Fourier coefficients straight from a scene, the brute-force
oracle for Phi. dense_digital forms the digital filter blkdiag(D_i) Fbar^H
that a design applies per tone.
reference_fista is the monotone FISTA without restart that applies the
operator three times per iteration, and reference_restarted_fista the
two-apply loop with gradient restart at the safe step 1/(1.02*L_f) alone,
kept as the differential references for the solver. reference_equalizing_unitary is the one-matrix rotation loop and
reference_write_filter_response_csv the row-by-row filter export, kept as the
differential references for the stacked equalizer and the table export.
StackedStatistics holds general per-tone covariance blocks of c and w, and
stacked_statistics gives the c*I and w*I stacks of the library's white
SignalStatistics. digital_filter_mse evaluates a digital filter's modeled
error with dense matrices, and block_from_responses inverts the analog
filter export.
The reference_* functions from reference_waterfill on are the design and the
LMMSE helpers for general per-tone covariances, as one Python loop over the
tones (and the waterfill as an active-set scan). They take StackedStatistics
and are the differential references for the library's stacked code on white
statistics, which must match them bitwise.
"""

from dataclasses import dataclass

import numpy as np

from bitmimo.combiner import AcquisitionDesign, equalizing_unitary
from bitmimo.recovery import power_iteration_lipschitz
from theory import soft_threshold


def blkdiag(blocks):
    """Stack (L, r, c) blocks into a dense (L*r, L*c) block-diagonal matrix."""
    L, r, c = blocks.shape
    out = np.zeros((L * r, L * c), dtype=blocks.dtype)
    for i in range(L):
        out[i * r:(i + 1) * r, i * c:(i + 1) * c] = blocks[i]
    return out


def fbar_matrix(L, P):
    """Dense PL x PL matrix F_L^H (x) I_P (unitary DFT convention)."""
    F = np.fft.fft(np.eye(L)) / np.sqrt(L)
    return np.kron(F.conj().T, np.eye(P))


def dense_digital(design):
    """D = blkdiag(D_i) Fbar^H, shape J x PL, acting on the quantized samples."""
    return blkdiag(design.digital_blocks) @ fbar_matrix(design.L, design.channels).conj().T


def compression_dense(compression, iperm):
    """Dense J x MNL matrix blkdiag(M_i) acting on band-major ctilde vectors."""
    return blkdiag(compression.blocks)[:, iperm]


def eval_c_direct(scene, config):
    """Closed-form Fourier coefficients, band-major (ctilde) order.

    c_{m,n}[i] = sum_k alpha_k exp(j*2*pi*((xi_m+zeta_n)*theta_k
                                           - i*tau_k/T0 - f_m*tau_k))

    evaluated directly from the scene, independent of the dictionary machinery.
    """
    M, N, L = config.M, config.N, config.L
    out = np.zeros(config.mnl, dtype=complex)
    if scene.k == 0:
        return out
    l1, l2 = np.divmod(scene.cells, config.mn)
    tau = config.pri * l1 / config.ml
    theta = -1.0 + 2.0 * l2 / config.mn
    tones = config.tone_indices
    for m in range(M):
        virt = config.tx_pos[m] + config.rx_pos                      # (N,)
        phase = (virt[None, :, None] * theta[None, None, :]
                 - tones[:, None, None] * (tau / config.pri)[None, None, :]
                 - (config.tone_offsets[m] * tau)[None, None, :])    # (L, N, K)
        cm = np.exp(2j * np.pi * phase) @ scene.alpha                # (L, N)
        out[m * N * L:(m + 1) * N * L] = cm.reshape(-1)              # tone-major
    return out


def dense_phi(d):
    """Phi = [V_0 (x) U_0; ...; V_{M-1} (x) U_{M-1}], shape MNL x M^2NL."""
    return np.vstack([np.kron(d.V[m], d.U[m]) for m in range(d.config.M)])


def dense_task(d, compression):
    """M*Phi, shape J x M^2NL."""
    return compression_dense(compression, d.iperm) @ dense_phi(d)


@dataclass(frozen=True)
class StackedStatistics:
    """Per-tone (L, MN, MN) Hermitian covariance blocks of c and w."""

    cov_signal: np.ndarray
    cov_noise: np.ndarray

    @property
    def L(self) -> int:
        return self.cov_signal.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        """Per-tone blocks of Sigma = cov(c) + cov(w)."""
        return self.cov_signal + self.cov_noise


def stacked_statistics(stats):
    """The cov(c) = c*I and cov(w) = w*I stacks of white SignalStatistics."""
    eye = np.broadcast_to(np.eye(stats.mn, dtype=complex), (stats.L, stats.mn, stats.mn))
    return StackedStatistics(cov_signal=stats.signal_var * eye,
                             cov_noise=stats.noise_var * eye)


def digital_filter_mse(digital, combiner_blocks, stats, compression, gamma, levels):
    """Modeled E||s_tilde - D z||^2 for any digital filter D (dense evaluation,
    StackedStatistics).

    Under the dithered ADC model z = Fbar Bbar v + e with white e of per-sample
    variance 4*gamma^2/(3*b^2), so the MSE relative to the LMMSE estimate is
    Tr[(Gamma - D G) Sigma (Gamma - D G)^H] + q Tr[D D^H] with G = Fbar Bbar.
    """
    B = np.asarray(combiner_blocks)
    L, P, _ = B.shape
    q = 4.0 * gamma * gamma / (3.0 * levels * levels)
    G = fbar_matrix(L, P) @ blkdiag(B)
    gap = blkdiag(reference_lmmse_transform(compression, stats)) - digital @ G
    sig = blkdiag(stats.sigma)
    return float(np.trace(gap @ sig @ gap.conj().T).real
                 + q * np.trace(digital @ digital.conj().T).real)


def block_from_responses(gains, config):
    """Invert reference_filter_response for one (p, n): recover B_i[p, m*N+n]."""
    gains = np.asarray(gains, dtype=complex).reshape(config.M, config.L)
    return gains / config.pri


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



def reference_restarted_fista(apply_a, apply_at, s_hat, spec, lipschitz=None):
    """Monotone FISTA with gradient restart and two applies per iteration at
    the step 1/(1.02*L_f) throughout; returns (x, info) like
    fista(..., return_info=True)."""
    s_hat = np.asarray(s_hat, dtype=complex)
    corr = apply_at(s_hat)
    n = corr.shape[0]
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(apply_a, apply_at, n)
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
        mag = np.abs(v)
        z_mag = np.maximum(mag - thr, 0.0)
        z = v * np.divide(z_mag, mag, out=np.zeros_like(mag), where=z_mag > 0)
        az = apply_a(z)
        r = az - s_hat
        fz = 0.5 * float(np.vdot(r, r).real) + rho * float(z_mag.sum())
        accepted = fz <= fx
        x_new, ax_new, fx_new = (z, az, fz) if accepted else (x, ax, fx)
        step = z - x
        if np.vdot(y - z, step).real > 0:
            y, ay, t_new = x_new, ax_new, 1.0
        else:
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
    return x, {"objective": history, "iterations": n_iter,
               "lipschitz": lipschitz, "rho": rho}

def reference_equalizing_unitary(H):
    """One matrix, one 2x2 rotation per loop pass on the current
    (max-diagonal, min-diagonal) pair until the diagonal is flat."""
    H = np.asarray(H, dtype=complex)
    P = H.shape[0]
    if H.shape != (P, P):
        raise ValueError("H must be square")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        raise ValueError("H must be Hermitian")
    max_rotations = 50 * P * P

    Hw = (H + H.conj().T) / 2.0
    U = np.eye(P, dtype=complex)
    target = np.trace(Hw).real / P
    tol_abs = 1e-10 * max(abs(target), np.finfo(float).tiny)
    for _ in range(max_rotations):
        d = Hw.diagonal().real
        i, j = int(np.argmax(d)), int(np.argmin(d))
        if d[i] - d[j] <= tol_abs:
            return U
        a, c, b = d[i], d[j], Hw[i, j]
        phi = np.angle(b) if abs(b) > 0 else 0.0
        theta = 0.5 * np.arctan2(c - a, 2.0 * abs(b))
        ct, st = np.cos(theta), np.sin(theta)
        G = np.array([[ct, np.exp(1j * phi) * st],
                      [-np.exp(-1j * phi) * st, ct]])
        idx = [i, j]
        Hw[idx, :] = G @ Hw[idx, :]
        Hw[:, idx] = Hw[:, idx] @ G.conj().T
        U[idx, :] = G @ U[idx, :]
    raise RuntimeError(
        f"diagonal equalization did not converge within {max_rotations} rotations")


def reference_filter_response(design, config, p, n):
    """Gains of the (p, n)th analog filter for a flat pulse spectrum, one
    (p, n) at a time."""
    L, M, N = config.L, config.M, config.N
    B = design.combiner_blocks  # (L, P, MN)
    tones = config.tone_indices
    freqs = np.empty(M * L)
    gains = np.empty(M * L, dtype=complex)
    for m in range(M):
        sl = slice(m * L, (m + 1) * L)
        freqs[sl] = tones / config.pri + config.tone_offsets[m]
        gains[sl] = config.pri * B[:, p, m * N + n]
    return freqs, gains


def reference_write_filter_response_csv(design, config, path):
    """The filter CSV written one row at a time."""
    with open(path, "w") as fh:
        fh.write("p,n,frequency_hz,re,im\n")
        for p in range(design.channels):
            for n in range(config.N):
                freqs, gains = reference_filter_response(design, config, p, n)
                for f, g in zip(freqs, gains):
                    fh.write(f"{p},{n},{f:.10g},{g.real:.10g},{g.imag:.10g}\n")


def reference_waterfill(singvals, channels, levels, eta, block_rows):
    """waterfill by an active-set scan: the last r with zeta*lam_r > 1 >=
    zeta*lam_{r+1}, else the largest r with zeta*lam_r > 1."""
    lam = np.asarray(singvals, dtype=float)
    if lam.size == 0 or lam.max() <= 0:
        raise ValueError("waterfilling needs at least one positive singular value")
    if np.any(np.diff(lam) > 1e-12 * max(1.0, lam[0])):
        raise ValueError("singular values must be sorted in descending order")
    coef = 4.0 * eta * eta / (3.0 * levels * levels * channels)
    r_max = int(min(channels, block_rows, np.count_nonzero(lam > 0)))

    zeta = None
    csum = np.cumsum(lam[:r_max])
    for r in range(1, r_max + 1):
        cand = (1.0 / coef + r) / csum[r - 1]
        if cand * lam[r - 1] > 1.0 and (r == r_max or cand * lam[r] <= 1.0):
            zeta = cand
            active = r
    if zeta is None:  # no candidate passed both checks; fall back to largest feasible
        feas = [(r, (1.0 / coef + r) / csum[r - 1]) for r in range(1, r_max + 1)
                if ((1.0 / coef + r) / csum[r - 1]) * lam[r - 1] > 1.0]
        active, zeta = feas[-1]
    alloc = np.zeros(int(channels))
    alloc[:active] = coef * (zeta * lam[:active] - 1.0)
    return alloc, float(zeta)


def hermitian_inv_sqrt(H):
    """H^{-1/2} of one Hermitian positive definite matrix, by eigh."""
    w, Q = np.linalg.eigh((H + H.conj().T) / 2.0)
    return (Q * (w ** -0.5)) @ Q.conj().T


def reference_design_multitone(stats, compression, channels, levels, eta):
    """design_multitone for general per-tone covariances (StackedStatistics),
    with a loop over the tones before and after the one equalizer call."""
    gamma = eta / np.sqrt(channels)
    noise_load = 4.0 * gamma * gamma / (3.0 * levels * levels)
    factors, singvals, gains_sq, water_levels = [], [], [], []
    block_emse = []
    lmmse = 0.0
    for m_block, cov_sig, cov_noise in zip(compression.blocks, stats.cov_signal,
                                           stats.cov_noise):
        sigma_inv_sqrt = hermitian_inv_sqrt(cov_sig + cov_noise)
        T = m_block @ cov_sig
        _, lam, vh = np.linalg.svd(T @ sigma_inv_sqrt, full_matrices=True)
        alloc, zeta = reference_waterfill(lam, channels, levels, eta,
                                          block_rows=m_block.shape[0])
        lmmse += np.trace(T @ m_block.conj().T).real - np.sum(lam ** 2)
        active = min(m_block.shape[0], channels, lam.size)
        head = (zeta * lam[:active] - 1.0).clip(min=0.0)
        block_emse.append(float(np.sum(lam[:active] ** 2 / (head + 1.0))
                                + np.sum(lam[active:] ** 2)))
        factors.append((T, sigma_inv_sqrt, vh))
        singvals.append(lam)
        gains_sq.append(alloc)
        water_levels.append(zeta)
    mixers = equalizing_unitary(np.stack([np.diag(a) for a in gains_sq]).astype(complex))

    combiners, digitals = [], []
    for i, (mixer, alloc) in enumerate(zip(mixers, gains_sq)):
        T, sigma_inv_sqrt, vh = factors[i]
        mn = sigma_inv_sqrt.shape[0]
        Lmat = np.zeros((channels, mn))
        k = min(channels, mn)
        Lmat[:k, :k] = np.diag(np.sqrt(alloc[:k]))
        B = mixer @ Lmat @ vh @ sigma_inv_sqrt
        inner = B @ (stats.cov_signal[i] + stats.cov_noise[i]) @ B.conj().T
        inner += noise_load * np.eye(channels)
        digitals.append(np.linalg.solve(inner.conj().T, (T @ B.conj().T).conj().T).conj().T)
        combiners.append(B)

    return AcquisitionDesign(
        combiner_blocks=np.stack(combiners), digital_blocks=np.stack(digitals),
        gains_sq=np.stack(gains_sq), water_levels=np.array(water_levels),
        singvals=np.stack(singvals), mixers=mixers, block_emse=np.array(block_emse),
        support=float(gamma), levels=int(levels), eta=float(eta),
        channels=int(channels), emse=float(np.cumsum(block_emse)[-1]),
        lmmse=float(lmmse))


def reference_lmmse_transform(compression, stats):
    """lmmse_transform for general per-tone covariances, one solve per tone."""
    sigma = stats.sigma
    out = np.empty_like(compression.blocks)
    for i in range(stats.L):
        out[i] = np.linalg.solve(
            sigma[i].conj().T, (compression.blocks[i] @ stats.cov_signal[i]).conj().T
        ).conj().T
    return out


def reference_lmmse_error(compression, stats):
    """Minimum MSE of any linear estimate of s from c + w, one trace per tone
    summed in tone order."""
    total = 0.0
    gamma = reference_lmmse_transform(compression, stats)
    for i in range(stats.L):
        T = compression.blocks[i] @ stats.cov_signal[i]
        total += np.trace(T @ compression.blocks[i].conj().T
                          - gamma[i] @ T.conj().T).real
    return float(total)


def reference_emse_of_combiner(combiner_blocks, stats, compression, gamma, levels):
    """Excess MSE of an arbitrary block combiner under the dithered ADC model,
    two solves per tone summed in tone order.

    Evaluates, per tone block,
    Tr[T_i Sigma_i^{-1} T_i^H] - Tr[T_i B_i^H (B_i Sigma_i B_i^H + q I)^{-1} B_i T_i^H]
    with T_i = M_i cov(c)_i and q = 4*gamma^2/(3*b^2); used by baselines and
    optimality searches. An all-zero B_i contributes only its first term.
    """
    B = np.asarray(combiner_blocks)
    q = 4.0 * gamma * gamma / (3.0 * levels * levels)
    sigma = stats.sigma
    total = 0.0
    for i in range(stats.L):
        T = compression.blocks[i] @ stats.cov_signal[i]
        total += np.trace(T @ np.linalg.solve(sigma[i], T.conj().T)).real
        if np.any(B[i]):
            inner = B[i] @ sigma[i] @ B[i].conj().T + q * np.eye(B[i].shape[0])
            TB = T @ B[i].conj().T
            total -= np.trace(TB @ np.linalg.solve(inner, TB.conj().T)).real
    return float(total)


def reference_support_gamma(combiner_blocks, stats, eta):
    """Quantizer support for an arbitrary combiner: eta times the largest
    per-channel standard deviation of the sample-domain ADC input (the DFT's
    flat modulus averages the per-tone diagonals onto every sample)."""
    B = np.asarray(combiner_blocks)
    sigma = stats.sigma
    diags = np.stack([
        np.einsum("ij,jk,ik->i", B[i], sigma[i], B[i].conj()).real
        for i in range(stats.L)
    ])
    return float(eta * np.sqrt(diags.mean(axis=0).max()))
