"""Second-order model, the linear MMSE transform, and compression matrices.

The tone-major coefficient vector c and the noise w follow the
uncorrelated-scatterer model of the paper's simulations: per tone block,
cov(c) = K*sigma_alpha_sq * I and cov(w) = sigma_n_sq * I, so both are held
as two scalars. The design of task-based quantization for general per-tone
covariances, with the LMMSE error and the excess MSE of any combiner, lives
in tests/dense_oracle.py as the reference, which the white-statistics design
and LMMSE transform must match bitwise.

A compression is held as its (L, J_i, MN) block stack, a plain array: block
M_i (J_i x MN) acts on the tone-i block of c, so as a dense matrix it is
blkdiag(M_1..M_L), applied by dictionary.apply_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RadarConfig

__all__ = [
    "SignalStatistics",
    "build_covariances",
    "COMPRESSION_KINDS",
    "compression_block_rows",
    "build_compression_matrix",
    "lmmse_transform",
]


@dataclass(frozen=True)
class SignalStatistics:
    """White statistics of every tone block: cov(c)_i = signal_var * I and
    cov(w)_i = noise_var * I, each MN x MN, the same for any tone count."""

    signal_var: float  # K * sigma_alpha_sq
    noise_var: float   # sigma_n_sq

    @property
    def sigma(self) -> float:
        """Sigma_i = cov(c)_i + cov(w)_i = sigma * I."""
        return self.signal_var + self.noise_var


def build_covariances(config: RadarConfig, K: int) -> SignalStatistics:
    """cov(c) = K*sigma_alpha_sq*I and cov(w) = sigma_n_sq*I per tone; Sigma
    must be nonsingular."""
    stats = SignalStatistics(signal_var=K * config.sigma_alpha_sq,
                             noise_var=config.sigma_n_sq)
    if not stats.sigma > 0:
        raise ValueError("Sigma is singular; need cov(c)+cov(w) > 0")
    return stats


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
                             kind="gaussian") -> np.ndarray:
    """Random block compression, the (L, J_i, MN) stack of its blocks M_i with
    J_i = compression_block_rows(config, dcr).

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
    return blocks


def lmmse_transform(compression: np.ndarray, stats: SignalStatistics) -> np.ndarray:
    """Per-tone blocks Gamma_i = M_i cov(c)_i Sigma_i^{-1} = (c * M_i) / (c + w)
    of the LMMSE map, an (L, J_i, MN) stack like the compression's.

    Stacked block-diagonally (tone-major), Gamma estimates s = M Phi a from the
    noisy tone-major observation c + w.
    """
    return compression * stats.signal_var / stats.sigma
