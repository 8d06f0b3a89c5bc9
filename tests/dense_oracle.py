"""Dense reference computations for the structured code paths, built only in tests.

blkdiag and fbar_matrix form the block-diagonal and sample-domain DFT
matrices the library only ever applies; blkdiag of a compression's blocks is
the dense compression. dense_phi forms the dictionary's tone-major rows
kron(V_m[i], U_m[n]), dense_task composes it with the compression, M*Phi,
and eval_c_direct evaluates the tone-major Fourier coefficients straight
from a scene, the brute-force oracle for Phi. dense_digital forms the digital
filter blkdiag(D_i) Fbar^H that a design applies per tone.
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
    blocks = design.digital_blocks
    return blkdiag(blocks) @ fbar_matrix(len(blocks), design.channels).conj().T


def eval_c_direct(scene, config):
    """Closed-form Fourier coefficients, tone-major (c) order.

    c_{m,n}[i] = sum_k alpha_k exp(j*2*pi*((xi_m+zeta_n)*theta_k
                                           - i*tau_k/T0 - f_m*tau_k))

    evaluated directly from the scene, independent of the dictionary machinery.
    """
    out = np.zeros((config.L, config.M, config.N), dtype=complex)
    if scene.k == 0:
        return out.reshape(-1)
    l1, l2 = np.divmod(scene.cells, config.mn)
    tau = config.pri * l1 / config.ml
    theta = -1.0 + 2.0 * l2 / config.mn
    tones = config.tone_indices
    for m in range(config.M):
        virt = config.tx_pos[m] + config.rx_pos                      # (N,)
        phase = (virt[None, :, None] * theta[None, None, :]
                 - tones[:, None, None] * (tau / config.pri)[None, None, :]
                 - (config.tone_offsets[m] * tau)[None, None, :])    # (L, N, K)
        out[:, m, :] = np.exp(2j * np.pi * phase) @ scene.alpha      # (L, N)
    return out.reshape(-1)


def dense_phi(d):
    """Phi, shape MNL x M^2NL: row (i, m, n) at i_idx*M*N + m*N + n is
    kron(V_m[i], U_m[n]), so Phi stacks the rows of V_m (x) U_m tone by tone."""
    return np.einsum("mia,mnb->imnab", d.V, d.U).reshape(d.config.mnl, -1)


def dense_task(d, compression):
    """M*Phi, shape J x M^2NL."""
    return blkdiag(compression) @ dense_phi(d)


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


def stacked_statistics(stats, compression):
    """The cov(c) = c*I and cov(w) = w*I stacks of white SignalStatistics, on
    the compression's L tone blocks, each MN wide."""
    mn = compression.shape[2]
    eye = np.broadcast_to(np.eye(mn, dtype=complex), (len(compression), mn, mn))
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



def reference_restarted_fista(apply_a, apply_at, s_hat, spec, lipschitz=None,
                              backtrack=False):
    """Monotone FISTA with gradient restart and two applies per iteration at
    the step 1/(1.02*L_f) throughout, or with backtrack at fista's
    backtracking step, tested on A y applied afresh; returns (x, info) like
    fista(..., return_info=True), with the kept trial constant of every
    iteration under "steps"."""
    s_hat = np.asarray(s_hat, dtype=complex)
    corr = apply_at(s_hat)
    n = corr.shape[0]
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(apply_a, apply_at, n)
    step_l = (0.65 if backtrack else 1.02) * lipschitz
    rho = spec.rho
    if rho is None:
        rho = spec.rho_scale * float(np.max(np.abs(corr)))

    x = np.zeros(n, dtype=complex)
    ax = np.zeros_like(s_hat)
    fx = 0.5 * float(np.vdot(s_hat, s_hat).real)
    y, ay = x, ax
    t = 1.0
    z_prev, z_prev_norm = x, 0.0
    history, steps, backtracks = [fx], [], 0
    n_iter = 0
    for n_iter in range(1, spec.max_iter + 1):
        grad = apply_at(ay - s_hat)
        while True:
            v = y - grad / step_l
            mag = np.abs(v)
            z_mag = np.maximum(mag - rho / step_l, 0.0)
            z = v * np.divide(z_mag, mag, out=np.zeros_like(mag), where=z_mag > 0)
            az = apply_a(z)
            # the data term's sufficient decrease at the step 1/step_l
            if (step_l >= 1.02 * lipschitz or np.linalg.norm(az - apply_a(y)) ** 2
                    <= step_l * np.linalg.norm(z - y) ** 2):
                break
            step_l = min(2.0 * step_l, 1.02 * lipschitz)
            backtracks += 1
        steps.append(step_l)
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
        if backtrack:
            step_l = max(0.9 * step_l, 0.05 * lipschitz)
    return x, {"objective": history, "iterations": n_iter, "backtracks": backtracks,
               "steps": steps, "lipschitz": lipschitz, "rho": rho}

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
    for m_block, cov_sig, cov_noise in zip(compression, stats.cov_signal, stats.cov_noise):
        sigma_inv_sqrt = hermitian_inv_sqrt(cov_sig + cov_noise)
        T = m_block @ cov_sig
        left, lam, vh = np.linalg.svd(T @ sigma_inv_sqrt, full_matrices=False)
        alloc, zeta = reference_waterfill(lam, channels, levels, eta,
                                          block_rows=m_block.shape[0])
        lmmse += np.trace(T @ m_block.conj().T).real - np.sum(lam ** 2)
        active = min(m_block.shape[0], channels, lam.size)
        head = (zeta * lam[:active] - 1.0).clip(min=0.0)
        block_emse.append(float(np.sum(lam[:active] ** 2 / (head + 1.0))
                                + np.sum(lam[active:] ** 2)))
        factors.append((left, sigma_inv_sqrt, vh))
        singvals.append(lam)
        gains_sq.append(alloc)
        water_levels.append(zeta)
    mixers = equalizing_unitary(np.stack(gains_sq))

    # per tone, with k = min(P, J_i, MN) and Lam_k = diag(sqrt(alloc[:k])):
    # B_i = U_ik Lam_k V_ik^H Sigma_i^{-1/2} gives B_i Sigma_i B_i^H = U_i Lam^2 U_i^H
    # and T_i B_i^H = W_ik diag(lam_k) Lam_k U_ik^H, so the MMSE filter
    # T_i B_i^H (B_i Sigma_i B_i^H + q I)^{-1} is W_ik diag(lam Lam / (Lam^2 + q)) U_ik^H
    combiners, digitals = [], []
    for i, (mixer, alloc) in enumerate(zip(mixers, gains_sq)):
        left, sigma_inv_sqrt, vh = factors[i]
        k = min(channels, len(singvals[i]))
        gains = np.sqrt(alloc[:k])
        combiners.append((mixer[:, :k] * gains) @ vh[:k] @ sigma_inv_sqrt)
        shrink = singvals[i][:k] * gains / (alloc[:k] + noise_load)
        digitals.append((left[:, :k] * shrink) @ mixer[:, :k].conj().T)

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
    out = np.empty_like(compression)
    for i in range(stats.L):
        out[i] = np.linalg.solve(
            sigma[i].conj().T, (compression[i] @ stats.cov_signal[i]).conj().T
        ).conj().T
    return out


def reference_lmmse_error(compression, stats):
    """Minimum MSE of any linear estimate of s from c + w, one trace per tone
    summed in tone order."""
    total = 0.0
    gamma = reference_lmmse_transform(compression, stats)
    for i in range(stats.L):
        T = compression[i] @ stats.cov_signal[i]
        total += np.trace(T @ compression[i].conj().T
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
        T = compression[i] @ stats.cov_signal[i]
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
