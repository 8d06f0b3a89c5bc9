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
    "COMPRESSION_KINDS",
    "compression_block_rows",
    "build_compression_matrix",
    "lmmse_transform",
    "lmmse_error",
    "hermitian_inv_sqrt",
]

logger = logging.getLogger(__name__)

RIDGE_COND_LIMIT = 1e12
RIDGE_SCALE = 1e-12
# LAPACK's ?heevd rescales a matrix whose largest entry lies outside
# [EIGH_RMIN, 1/EIGH_RMIN], which can move the last bit of its eigenvalues
EIGH_RMIN = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def _hermitian(stack):
    """Conjugate transpose of every matrix in an (L, r, c) stack."""
    return stack.conj().swapaxes(1, 2)


def _as_blocks(mat, L, mn, name):
    mat = np.asarray(mat, dtype=complex)
    if mat.shape == (L, mn, mn):
        return mat.copy()
    if mat.shape == (L * mn, L * mn):
        if np.any(mat[~np.kron(np.eye(L, dtype=bool), np.ones((mn, mn), dtype=bool))]):
            raise ValueError(f"{name} must be exactly block diagonal per tone")
        tone = np.arange(L)
        return mat.reshape(L, mn, L, mn)[tone, :, tone]
    raise ValueError(f"{name} must be (L, MN, MN) blocks or a (MNL, MNL) matrix")


def _check_hermitian_psd(blocks, name):
    scale = np.maximum(1.0, np.abs(blocks).max(axis=(1, 2), initial=0.0))
    skew = np.abs(blocks - _hermitian(blocks)).max(axis=(1, 2), initial=0.0)
    low = np.linalg.eigvalsh((blocks + _hermitian(blocks)) / 2.0).min(axis=1, initial=0.0)
    for bad, what in ((skew > 1e-10 * scale, "Hermitian"),
                      (low < -1e-10 * scale, "positive semidefinite")):
        if bad.any():
            raise ValueError(f"{name} block {np.argmax(bad)} is not {what}")


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


def build_covariances(config: RadarConfig, K: int, cov_signal=None,
                      cov_noise=None) -> SignalStatistics:
    """Defaults: cov(c) = K*sigma_alpha_sq*I, cov(w) = sigma_n_sq*I per tone.

    With both defaults Sigma is singular exactly when K*sigma_alpha_sq +
    sigma_n_sq <= 0, so only user-given blocks are eigendecomposed.
    """
    L, mn = config.L, config.mn
    white = cov_signal is None and cov_noise is None
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
    if white:  # every block of Sigma is (K*sigma_alpha_sq + sigma_n_sq) * I
        singular = np.array([K * config.sigma_alpha_sq + config.sigma_n_sq <= 0])
    else:
        sigma = cov_signal + cov_noise
        singular = np.linalg.eigvalsh((sigma + _hermitian(sigma)) / 2.0).min(axis=1) <= 0
    if singular.any():
        raise ValueError(f"Sigma block {np.argmax(singular)} is singular; "
                         "need cov(c)+cov(w) > 0")
    return SignalStatistics(L=L, mn=mn, cov_signal=np.array(cov_signal, dtype=complex),
                            cov_noise=np.array(cov_noise, dtype=complex))


def hermitian_inv_sqrt(H: np.ndarray) -> np.ndarray:
    """H_i^{-1/2} for an (L, n, n) stack of Hermitian positive definite H_i.

    A block whose eigenvalue spread exceeds 1e12 gets a ridge of
    1e-12 * trace/n, and the event is logged once per such block.
    A stack of blocks d_i * I with d_i in [EIGH_RMIN, 1/EIGH_RMIN] skips
    eigh: there eigh returns w = d_i and Q = I exactly, so d_i ** -0.5 * I is
    bitwise its result.
    """
    sym = _hermitian(H)  # conj() copies, so the symmetrization runs in place
    sym += H
    sym /= 2.0
    n = sym.shape[1]
    d = np.diagonal(sym, axis1=1, axis2=2).real
    if (np.all((d >= EIGH_RMIN) & (d <= 1.0 / EIGH_RMIN) & (d == d[:, :1]))
            and np.count_nonzero(sym) == d.size):  # nonzero on the diagonal only
        out = np.zeros_like(sym)
        out[:, range(n), range(n)] = d ** -0.5
        return out
    w, Q = np.linalg.eigh(sym)
    cond = w.max(axis=1) / np.maximum(w.min(axis=1), np.finfo(float).tiny)
    for i in np.flatnonzero((w.min(axis=1) <= 0) | (cond > RIDGE_COND_LIMIT)):
        ridge = RIDGE_SCALE * np.trace(sym[i]).real / sym.shape[1]
        logger.warning("ill-conditioned covariance block %d (cond=%.3e); adding ridge %.3e",
                       i, cond[i], ridge)
        w[i] += ridge
    del sym  # with Q conjugated in place below: the design's memory peak is here
    scaled = Q * w[:, None, :] ** -0.5
    return scaled @ np.conjugate(Q, out=Q).swapaxes(1, 2)


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


COMPRESSION_KINDS = ("gaussian", "bernoulli", "dft")


def compression_block_rows(config: RadarConfig, dcr: int) -> int:
    """Block height J_i = J/L of a compression with ratio dcr, where
    J = floor(MNL/dcr) rounded down to a multiple of L."""
    if dcr < 1:
        raise ValueError("compression ratio must be >= 1")
    ji = (config.mnl // dcr) // config.L
    if ji < 1:
        raise ValueError(f"compression ratio {dcr} leaves no rows per tone block")
    return ji


def build_compression_matrix(rng, config: RadarConfig, dcr: int,
                             kind="gaussian") -> CompressionMatrix:
    """Random block compression with compression_block_rows(config, dcr) rows
    per tone block.

    kinds (COMPRESSION_KINDS): 'gaussian' (i.i.d. circularly-symmetric, unit
    variance), 'bernoulli' ((+/-1 +/- j)/sqrt(2)), 'dft' (J_i distinct rows of
    the unit-modulus MN-point DFT per block).
    """
    L, mn = config.L, config.mn
    ji = compression_block_rows(config, dcr)
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
    gamma_h = np.linalg.solve(_hermitian(stats.sigma),
                              _hermitian(compression.blocks @ stats.cov_signal))
    return np.conjugate(gamma_h.swapaxes(1, 2), order="C")


def lmmse_error(compression: CompressionMatrix, stats: SignalStatistics) -> float:
    """Minimum MSE of any linear estimate of s from c + w."""
    T = compression.blocks @ stats.cov_signal
    per_tone = np.trace(T @ _hermitian(compression.blocks)
                        - lmmse_transform(compression, stats) @ _hermitian(T),
                        axis1=1, axis2=2).real
    return float(np.cumsum(per_tone)[-1])  # a running total in tone order
