"""Second-order models, the linear MMSE transform/error, and compression matrices.

The tone-major coefficient vector c and the noise w are modeled with
block-diagonal covariances, one MN x MN block per tone. The defaults follow
the uncorrelated-scatterer model: cov(c) = K*sigma_alpha_sq * I and
cov(w) = sigma_n_sq * I. Arbitrary Hermitian PSD per-tone blocks are accepted
and validated.

The compression matrix is stored blockwise: block M_i (J_i x MN) acts on the
tone-i block of c, so the dense matrix acting on the band-major ctilde is
blkdiag(M_1..M_L) composed with the tone-major permutation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import RadarConfig

__all__ = [
    "SignalStatistics",
    "CompressionMatrix",
    "build_covariances",
    "build_compression_matrix",
    "lmmse_transform",
    "lmmse_error",
    "hermitian_inv_sqrt",
]

logger = logging.getLogger(__name__)

RIDGE_COND_LIMIT = 1e12
RIDGE_SCALE = 1e-12


def _as_blocks(mat, L, mn, name):
    mat = np.asarray(mat, dtype=complex)
    if mat.shape == (L, mn, mn):
        return mat.copy()
    if mat.shape == (L * mn, L * mn):
        blocks = np.empty((L, mn, mn), dtype=complex)
        mask = np.ones_like(mat, dtype=bool)
        for i in range(L):
            sl = slice(i * mn, (i + 1) * mn)
            blocks[i] = mat[sl, sl]
            mask[sl, sl] = False
        if np.any(mat[mask] != 0):
            raise ValueError(f"{name} must be exactly block diagonal per tone")
        return blocks
    raise ValueError(f"{name} must be (L, MN, MN) blocks or a (MNL, MNL) matrix")


def _check_hermitian_psd(blocks, name):
    for i, blk in enumerate(blocks):
        scale = max(1.0, float(np.abs(blk).max(initial=0.0)))
        if np.abs(blk - blk.conj().T).max(initial=0.0) > 1e-10 * scale:
            raise ValueError(f"{name} block {i} is not Hermitian")
        w = np.linalg.eigvalsh((blk + blk.conj().T) / 2.0)
        if w.min(initial=0.0) < -1e-10 * scale:
            raise ValueError(f"{name} block {i} is not positive semidefinite")


@dataclass(frozen=True)
class SignalStatistics:
    """Per-tone covariance blocks of the coefficient vector c and noise w."""

    L: int
    mn: int
    cov_signal: np.ndarray  # (L, MN, MN)
    cov_noise: np.ndarray   # (L, MN, MN)

    @property
    def sigma(self) -> np.ndarray:
        """Per-tone blocks of Sigma = cov(c) + cov(w)."""
        return self.cov_signal + self.cov_noise


def blkdiag(blocks: np.ndarray) -> np.ndarray:
    """Stack (L, r, c) blocks into a dense (L*r, L*c) block-diagonal matrix."""
    L, r, c = blocks.shape
    out = np.zeros((L * r, L * c), dtype=blocks.dtype)
    for i in range(L):
        out[i * r:(i + 1) * r, i * c:(i + 1) * c] = blocks[i]
    return out


def build_covariances(config: RadarConfig, K: int, cov_signal=None,
                      cov_noise=None) -> SignalStatistics:
    """Defaults: cov(c) = K*sigma_alpha_sq*I, cov(w) = sigma_n_sq*I per tone."""
    L, mn = config.L, config.mn
    eye = np.broadcast_to(np.eye(mn, dtype=complex), (L, mn, mn))
    if cov_signal is None:
        cov_signal = K * config.sigma_alpha_sq * eye
    else:
        cov_signal = _as_blocks(cov_signal, L, mn, "cov_signal")
        _check_hermitian_psd(cov_signal, "cov_signal")
    if cov_noise is None:
        cov_noise = config.sigma_n_sq * eye
    else:
        cov_noise = _as_blocks(cov_noise, L, mn, "cov_noise")
        _check_hermitian_psd(cov_noise, "cov_noise")
    sigma = cov_signal + cov_noise
    for i in range(L):
        w = np.linalg.eigvalsh((sigma[i] + sigma[i].conj().T) / 2.0)
        if w.min() <= 0:
            raise ValueError(f"Sigma block {i} is singular; need cov(c)+cov(w) > 0")
    return SignalStatistics(L=L, mn=mn, cov_signal=np.array(cov_signal, dtype=complex),
                            cov_noise=np.array(cov_noise, dtype=complex))


def hermitian_inv_sqrt(H: np.ndarray):
    """(H^{-1/2}, H^{1/2}) for Hermitian positive definite H.

    If the eigenvalue spread exceeds 1e12 a ridge of 1e-12 * trace/dim is added
    and the event is logged.
    """
    H = (H + H.conj().T) / 2.0
    w, Q = np.linalg.eigh(H)
    dim = H.shape[0]
    if w.min() <= 0 or w.max() / max(w.min(), np.finfo(float).tiny) > RIDGE_COND_LIMIT:
        ridge = RIDGE_SCALE * np.trace(H).real / dim
        logger.warning("ill-conditioned covariance (cond=%.3e); adding ridge %.3e",
                       w.max() / max(w.min(), np.finfo(float).tiny), ridge)
        w = w + ridge
    inv_sqrt = (Q * (w ** -0.5)) @ Q.conj().T
    sqrt = (Q * (w ** 0.5)) @ Q.conj().T
    return inv_sqrt, sqrt


@dataclass(frozen=True)
class CompressionMatrix:
    """Blockwise compressive measurement matrix; block i acts on tone i of c."""

    blocks: np.ndarray  # (L, J_i, MN)
    kind: str
    dcr: int

    @property
    def L(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_rows(self) -> int:
        return self.blocks.shape[1]

    @property
    def rows(self) -> int:
        """Total task dimension J."""
        return self.blocks.shape[0] * self.blocks.shape[1]

    def apply_to_c(self, v_c: np.ndarray) -> np.ndarray:
        """s = blkdiag(M_i) @ v for a tone-major vector v."""
        L, ji, mn = self.blocks.shape
        return (self.blocks @ v_c.reshape(L, mn, 1)).reshape(-1)

    def apply_adjoint_to_c(self, s: np.ndarray) -> np.ndarray:
        """blkdiag(M_i)^H @ s, a tone-major vector; the adjoint of apply_to_c."""
        L, ji, mn = self.blocks.shape
        return (s.reshape(L, 1, ji).conj() @ self.blocks).conj().reshape(-1)

    def dense(self, iperm: np.ndarray) -> np.ndarray:
        """Dense J x MNL matrix acting on band-major ctilde vectors."""
        return blkdiag(self.blocks)[:, iperm]


def build_compression_matrix(rng, config: RadarConfig, dcr: int,
                             kind="gaussian") -> CompressionMatrix:
    """Random block compression with J = floor(MNL/dcr) rounded down to a
    multiple of L (uniform block heights J_i = J/L).

    kinds: 'gaussian' (i.i.d. circularly-symmetric, unit variance),
    'bernoulli' ((+/-1 +/- j)/sqrt(2)), 'dft' (J_i distinct rows of the
    unit-modulus MN-point DFT per block).
    """
    if dcr < 1:
        raise ValueError("compression ratio must be >= 1")
    L, mn, mnl = config.L, config.mn, config.mnl
    J = ((mnl // dcr) // L) * L
    ji = J // L
    if ji < 1:
        raise ValueError(f"compression ratio {dcr} leaves no rows per tone block")
    if kind == "gaussian":
        blocks = (rng.standard_normal((L, ji, mn))
                  + 1j * rng.standard_normal((L, ji, mn))) / np.sqrt(2.0)
    elif kind == "bernoulli":
        signs = rng.integers(0, 2, size=(2, L, ji, mn)) * 2 - 1
        blocks = (signs[0] + 1j * signs[1]) / np.sqrt(2.0)
    elif kind == "dft":
        F = np.exp(-2j * np.pi * np.outer(np.arange(mn), np.arange(mn)) / mn)
        blocks = np.empty((L, ji, mn), dtype=complex)
        for i in range(L):
            blocks[i] = F[rng.choice(mn, size=ji, replace=False)]
    else:
        raise ValueError(f"unknown compression kind {kind!r}")
    return CompressionMatrix(blocks=blocks, kind=kind, dcr=int(dcr))


def lmmse_transform(compression: CompressionMatrix,
                    stats: SignalStatistics) -> np.ndarray:
    """Per-tone blocks Gamma_i = M_i cov(c)_i Sigma_i^{-1} of the LMMSE map.

    Stacked block-diagonally (tone-major), Gamma estimates s = M Phi a from the
    noisy tone-major observation c + w.
    """
    sigma = stats.sigma
    out = np.empty_like(compression.blocks)
    for i in range(stats.L):
        out[i] = np.linalg.solve(
            sigma[i].conj().T, (compression.blocks[i] @ stats.cov_signal[i]).conj().T
        ).conj().T
    return out


def lmmse_error(compression: CompressionMatrix, stats: SignalStatistics) -> float:
    """Minimum MSE of any linear estimate of s from c + w."""
    total = 0.0
    gamma = lmmse_transform(compression, stats)
    for i in range(stats.L):
        T = compression.blocks[i] @ stats.cov_signal[i]
        total += np.trace(T @ compression.blocks[i].conj().T
                          - gamma[i] @ T.conj().T).real
    return float(total)
