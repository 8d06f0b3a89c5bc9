"""Task-based acquisition design: analog combiner, digital filter, quantizer support.

Per tone block i the design works on the whitened task matrix

    Gt_i = M_i cov(c)_i Sigma_i^{-1/2}

whose singular values lam_1 >= lam_2 >= ... receive a waterfilling gain
allocation

    Lam_l^2 = (4*eta^2 / (3*b^2*P)) * (zeta*lam_l - 1)^+      l <= min(J_i, P)

with the water level zeta chosen so that sum_l Lam_l^2 = 1. The block combiner
is B_i = U_i Lam_i V_i^H Sigma_i^{-1/2}, where V_i holds the right singular
vectors and U_i is a unitary rotation making diag(B_i Sigma_i B_i^H) constant,
so every ADC sees the same input variance. The quantizer support is then
gamma = eta/sqrt(P), and the digital filter is the MMSE-optimal

    D = blkdiag( M_i cov(c)_i B_i^H (B_i Sigma_i B_i^H + (4*gamma^2/(3*b^2)) I)^{-1} ) Fbar^H

acting on the quantized samples. The per-block excess MSE over the linear MMSE
benchmark is

    eps_i = sum_{l<=min(J_i,P)} lam_l^2 / ((zeta*lam_l - 1)^+ + 1)
            + sum_{l>P} lam_l^2                      (only when P < J_i).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .dictionary import fbar_matrix
from .model import RadarConfig, config_to_dict
from .statistics import (CompressionMatrix, SignalStatistics, blkdiag,
                         hermitian_inv_sqrt, lmmse_error)

__all__ = [
    "BlockDesign",
    "AcquisitionDesign",
    "waterfill",
    "equalizing_unitary",
    "design_block",
    "design_multitone",
    "emse_of_combiner",
    "support_gamma",
    "analog_filter_response",
    "write_filter_response_csv",
    "save_design",
    "load_design",
]


def waterfill(singvals, channels, levels, eta, block_rows):
    """Gain allocation over singular modes and the exact water level.

    Parameters
    ----------
    singvals : array
        Nonnegative singular values, descending.
    channels : int
        Number of analog channels P (normalization sums over at most P modes).
    levels, eta : quantizer levels b and support multiplier.
    block_rows : int
        Task rows J_i of this block; modes beyond min(J_i, P) get zero gain.

    Returns
    -------
    (alloc, zeta) : allocation Lam^2 as a length-`channels` array, and the
        water level solving (4*eta^2/(3*b^2*P)) * sum (zeta*lam - 1)^+ = 1.

    The water level is found by an exact active-set scan: for active-set size
    r the normalization is linear in zeta, and the unique r with
    zeta*lam_r > 1 >= zeta*lam_{r+1} is accepted.
    """
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


def equalizing_unitary(H: np.ndarray, tol=1e-10, max_rotations=None) -> np.ndarray:
    """Unitary U such that U H U^H has all diagonal entries equal to Tr(H)/P.

    Iterates 2x2 rotations on the current (max-diagonal, min-diagonal) index
    pair, each chosen to equalize that pair; the squared diagonal spread
    contracts geometrically. Capped at 50*P^2 rotations.
    """
    H = np.asarray(H, dtype=complex)
    P = H.shape[0]
    if H.shape != (P, P):
        raise ValueError("H must be square")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        raise ValueError("H must be Hermitian")
    if max_rotations is None:
        max_rotations = 50 * P * P

    Hw = (H + H.conj().T) / 2.0
    U = np.eye(P, dtype=complex)
    target = np.trace(Hw).real / P
    tol_abs = tol * max(abs(target), np.finfo(float).tiny)
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


@dataclass(frozen=True)
class BlockDesign:
    """Per-tone analog combiner and its design internals."""

    combiner: np.ndarray      # B_i, (P, MN)
    gains_sq: np.ndarray      # Lam_i^2 diagonal, (P,)
    water_level: float        # zeta_i
    singvals: np.ndarray      # singular values of the whitened task matrix
    right_vectors: np.ndarray # V_i (MN, MN)
    mixer: np.ndarray         # U_i (P, P)
    emse: float               # eps_i


@dataclass(frozen=True)
class AcquisitionDesign:
    """Assembled block-diagonal analog combiner, digital filter and quantizer."""

    blocks: tuple
    digital: np.ndarray       # D, (J, P*L)
    support: float            # gamma
    levels: int               # b
    eta: float
    channels: int             # P

    emse: float               # designed excess MSE over the LMMSE benchmark
    lmmse: float              # LMMSE of the task vector from unquantized data

    @property
    def L(self) -> int:
        return len(self.blocks)

    @property
    def combiner_blocks(self) -> np.ndarray:
        return np.stack([blk.combiner for blk in self.blocks])

    def apply_combiner(self, v_c: np.ndarray) -> np.ndarray:
        """Bbar @ v for a tone-major coefficient vector v."""
        B = self.combiner_blocks
        L, P, mn = B.shape
        return np.einsum("ijk,ik->ij", B, v_c.reshape(L, mn)).reshape(-1)


def design_block(m_block, cov_sig_block, sigma_block, channels, levels, eta) -> BlockDesign:
    """Optimal combiner for one tone block (also the whole design when L = 1)."""
    sigma_inv_sqrt, _ = hermitian_inv_sqrt(sigma_block)
    task = m_block @ cov_sig_block @ sigma_inv_sqrt
    _, lam, vh = np.linalg.svd(task, full_matrices=True)
    alloc, zeta = waterfill(lam, channels, levels, eta, block_rows=m_block.shape[0])

    mn = sigma_block.shape[0]
    Lmat = np.zeros((channels, mn))
    k = min(channels, mn)
    Lmat[:k, :k] = np.diag(np.sqrt(alloc[:k]))
    mixer = equalizing_unitary(np.diag(alloc).astype(complex))
    B = mixer @ Lmat @ vh @ sigma_inv_sqrt

    active = min(m_block.shape[0], channels, lam.size)
    head = (zeta * lam[:active] - 1.0).clip(min=0.0)
    emse = float(np.sum(lam[:active] ** 2 / (head + 1.0)) + np.sum(lam[active:] ** 2))
    return BlockDesign(combiner=B, gains_sq=alloc, water_level=zeta, singvals=lam,
                       right_vectors=vh.conj().T, mixer=mixer, emse=emse)


def design_multitone(stats: SignalStatistics, compression: CompressionMatrix,
                     channels, levels, eta) -> AcquisitionDesign:
    """Blockwise optimal design for L >= 1 tones under block-diagonal statistics."""
    if compression.L != stats.L:
        raise ValueError("compression and statistics disagree on the tone count")
    sigma = stats.sigma
    blocks = tuple(
        design_block(compression.blocks[i], stats.cov_signal[i], sigma[i],
                     channels, levels, eta)
        for i in range(stats.L)
    )
    gamma = eta / np.sqrt(channels)
    noise_load = 4.0 * gamma * gamma / (3.0 * levels * levels)

    dpre = []
    for i, blk in enumerate(blocks):
        T = compression.blocks[i] @ stats.cov_signal[i]
        inner = blk.combiner @ sigma[i] @ blk.combiner.conj().T
        inner += noise_load * np.eye(channels)
        dpre.append(np.linalg.solve(inner.conj().T, (T @ blk.combiner.conj().T).conj().T).conj().T)
    digital = blkdiag(np.stack(dpre)) @ fbar_matrix(stats.L, channels).conj().T

    return AcquisitionDesign(
        blocks=blocks, digital=digital, support=float(gamma), levels=int(levels),
        eta=float(eta), channels=int(channels),
        emse=float(sum(blk.emse for blk in blocks)),
        lmmse=lmmse_error(compression, stats),
    )


def emse_of_combiner(combiner_blocks, stats: SignalStatistics,
                     compression: CompressionMatrix, gamma, levels) -> float:
    """Excess MSE of an arbitrary block combiner under the dithered ADC model.

    Evaluates, per tone block,
    Tr[T_i Sigma_i^{-1} T_i^H] - Tr[T_i B_i^H (B_i Sigma_i B_i^H + q I)^{-1} B_i T_i^H]
    with T_i = M_i cov(c)_i and q = 4*gamma^2/(3*b^2); used by baselines and
    optimality searches.
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


def support_gamma(combiner_blocks, stats: SignalStatistics, eta) -> float:
    """Quantizer support for an arbitrary combiner: eta times the largest
    per-channel standard deviation of the sample-domain ADC input."""
    B = np.asarray(combiner_blocks)
    sigma = stats.sigma
    diags = np.stack([
        np.einsum("ij,jk,ik->i", B[i], sigma[i], B[i].conj()).real
        for i in range(stats.L)
    ])
    # the DFT's flat modulus averages the per-tone diagonals onto every sample
    per_channel = diags.mean(axis=0)
    return float(eta * np.sqrt(per_channel.max()))


# -- analog filter synthesis ----------------------------------------------

def analog_filter_response(design: AcquisitionDesign, config: RadarConfig,
                           p, n, pulse_spectrum=None):
    """Discrete frequency-response samples of the (p, n)th analog filter.

    Returns (frequencies_hz, gains): for every band m and tone i the filter
    needs gain T0 * B_i[p, m*N + n] * conj(h0_i) / |h0_i|^2 at frequency
    i/T0 + f_m, where h0_i are samples of the baseband pulse spectrum at the
    tone frequencies (default: flat h0 = 1).
    """
    L, M, N = config.L, config.M, config.N
    h0 = np.ones(L, dtype=complex) if pulse_spectrum is None else \
        np.asarray(pulse_spectrum, dtype=complex)
    if h0.shape != (L,):
        raise ValueError("pulse spectrum must provide one sample per tone")
    if np.any(h0 == 0):
        raise ValueError("pulse spectrum vanishes at a required tone frequency")
    B = design.combiner_blocks  # (L, P, MN)
    tones = config.tone_indices
    freqs = np.empty(M * L)
    gains = np.empty(M * L, dtype=complex)
    for m in range(M):
        sl = slice(m * L, (m + 1) * L)
        freqs[sl] = tones / config.pri + config.tone_offsets[m]
        gains[sl] = config.pri * B[:, p, m * N + n] * h0.conj() / np.abs(h0) ** 2
    return freqs, gains


def write_filter_response_csv(design, config, path, pulse_spectrum=None):
    """Rows (p, n, frequency_hz, re, im) over all channels and receive elements."""
    with open(path, "w") as fh:
        fh.write("p,n,frequency_hz,re,im\n")
        for p in range(design.channels):
            for n in range(config.N):
                freqs, gains = analog_filter_response(design, config, p, n, pulse_spectrum)
                for f, g in zip(freqs, gains):
                    fh.write(f"{p},{n},{f:.10g},{g.real:.10g},{g.imag:.10g}\n")


# -- design bundle I/O ------------------------------------------------------

def config_hash(config: RadarConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_design(design: AcquisitionDesign, path_prefix, config: RadarConfig) -> None:
    """Binary-plus-JSON bundle: arrays in <prefix>.npz, scalars in <prefix>.json."""
    np.savez(
        f"{path_prefix}.npz",
        combiner_blocks=design.combiner_blocks,
        digital=design.digital,
        gains_sq=np.stack([b.gains_sq for b in design.blocks]),
        water_levels=np.array([b.water_level for b in design.blocks]),
        singvals=np.stack([b.singvals for b in design.blocks]),
        right_vectors=np.stack([b.right_vectors for b in design.blocks]),
        mixers=np.stack([b.mixer for b in design.blocks]),
        block_emse=np.array([b.emse for b in design.blocks]),
    )
    meta = {
        "support": design.support, "levels": design.levels, "eta": design.eta,
        "channels": design.channels, "emse": design.emse, "lmmse": design.lmmse,
        "config_hash": config_hash(config),
    }
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_design(path_prefix) -> AcquisitionDesign:
    with open(f"{path_prefix}.json") as fh:
        meta = json.load(fh)
    with np.load(f"{path_prefix}.npz") as data:
        blocks = tuple(
            BlockDesign(combiner=data["combiner_blocks"][i],
                        gains_sq=data["gains_sq"][i],
                        water_level=float(data["water_levels"][i]),
                        singvals=data["singvals"][i],
                        right_vectors=data["right_vectors"][i],
                        mixer=data["mixers"][i],
                        emse=float(data["block_emse"][i]))
            for i in range(data["combiner_blocks"].shape[0])
        )
        digital = data["digital"]
    return AcquisitionDesign(
        blocks=blocks, digital=digital, support=meta["support"],
        levels=meta["levels"], eta=meta["eta"], channels=meta["channels"],
        emse=meta["emse"], lmmse=meta["lmmse"])
