"""Sparse-representation machinery for the delay-angle grid.

Builds, per transmit band m:

    U_m (N x MN):   (U_m)[n, l] = exp( j*2*pi*(xi_m + zeta_n)*(-1 + 2l/MN) )
    V_m (L x ML):   (V_m)[i, l] = exp(-j*2*pi*(i/T0 + f_m) * T0*l/(ML) )

with tone index i running over -(L-1)/2 .. (L-1)/2. The dictionary Phi
(MNL x M^2NL) maps the sparse scene vector a to the tone-major coefficient
vector c = Phi a, which holds c_{m,n}[i] at i_idx*M*N + m*N + n with
i_idx = i + (L-1)/2: row (i, m, n) of Phi is kron(V_m[i], U_m[n]). Phi is
never formed: with a = vec(A) for the MN x ML matrix A, band m of Phi a is
vec(U_m A V_m^T), so SteeringDictionary applies Phi, Phi^H and K-column
restrictions of Phi as a few batched matrix products on U and V, each
per-band (M, L, N) product laid out tone-major by a swap of its first two axes.

The sample-domain operator Fbar = F_L^H (x) I_P uses the unitary L-point DFT
throughout; apply_fbar / apply_fbar_adjoint implement it matrix-free. Beside
it, apply_blocks / apply_blocks_adjoint apply a tone stack (L, r, c), such as
the compression M, the LMMSE map Gamma, the combiner B or the digital filter
D, as the block-diagonal blkdiag(X_1..X_L) to a tone-major vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import RadarConfig

__all__ = [
    "SteeringDictionary",
    "build_dictionary",
    "apply_fbar",
    "apply_fbar_adjoint",
    "apply_blocks",
    "apply_blocks_adjoint",
]


@dataclass(frozen=True)
class SteeringDictionary:
    """Steering matrices U and V; Phi as an operator on tone-major c."""

    config: RadarConfig
    U: np.ndarray          # (M, N, MN)
    V: np.ndarray          # (M, L, ML)

    # no dense matrix is held; only perfbench/spans.py reads this (its
    # dictionary.phi_mb metric), and it goes when that span goes
    Phi = None

    @property
    def n_rows(self) -> int:
        return self.config.mnl

    @property
    def n_atoms(self) -> int:
        return self.config.grid_size

    def apply(self, a: np.ndarray) -> np.ndarray:
        """c = Phi @ a: band m is vec(U_m A V_m^T) with A[l2, l1] = a[l1*MN + l2]."""
        cfg = self.config
        VA = self.V.reshape(cfg.M * cfg.L, cfg.ml) @ a.reshape(cfg.ml, cfg.mn)
        C = VA.reshape(cfg.M, cfg.L, cfg.mn) @ self.U.transpose(0, 2, 1)  # (M, L, N)
        return C.swapaxes(0, 1).reshape(-1)

    @cached_property
    def _adjoint_factors(self):
        """conj(U) and conj(V) stacked by band, transposed: the factors of
        apply_adjoint, conjugated once per dictionary."""
        cfg = self.config
        return self.U.conj(), self.V.reshape(cfg.M * cfg.L, cfg.ml).conj().T

    @cached_property
    def band_gram(self):
        """The band Grams U_m U_m^H, shape (M, N, N), when the rows of the
        stacked V (ML x ML) are orthogonal, V V^H = ML*I to 1e-9*ML entrywise;
        None otherwise. Then Phi Phi^H = ML * I_L (x) blkdiag_m(U_m U_m^H) in
        tone-major order. Both layout generators give such a V, as they put
        every band's tones on one grid of ML consecutive frequencies."""
        cfg = self.config
        V = self.V.reshape(cfg.ml, cfg.ml)
        if not np.abs(V @ V.conj().T - cfg.ml * np.eye(cfg.ml)).max() <= 1e-9 * cfg.ml:
            return None
        return self.U @ self.U.conj().transpose(0, 2, 1)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Phi^H @ y = vec(sum_m U_m^H Y_m conj(V_m)) for the per-band (N, L) Y_m
        of the tone-major y."""
        cfg = self.config
        u_conj, v_adj = self._adjoint_factors
        YU = y.reshape(cfg.L, cfg.M, cfg.N).swapaxes(0, 1) @ u_conj   # (M, L, MN)
        return (v_adj @ YU.reshape(cfg.M * cfg.L, cfg.mn)).reshape(-1)

    def apply_cells(self, cells: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Phi restricted to the given grid cells times alpha (fast K-sparse apply)."""
        cfg = self.config
        l1, l2 = np.divmod(np.asarray(cells), cfg.mn)
        # column for cell (l1, l2) in band m is kron(V_m[:, l1], U_m[:, l2])
        C = (self.V[:, :, l1] * alpha) @ self.U[:, :, l2].transpose(0, 2, 1)  # (M, L, N)
        return C.swapaxes(0, 1).reshape(-1)


def build_dictionary(config: RadarConfig) -> SteeringDictionary:
    """Construct the steering matrices."""
    mn, ml = config.mn, config.ml
    tones = config.tone_indices

    angle = -1.0 + 2.0 * np.arange(mn) / mn                    # theta grid
    virt = config.tx_pos[:, None] + config.rx_pos[None, :]     # (M, N)
    U = np.exp(2j * np.pi * virt[:, :, None] * angle[None, None, :])

    delay_frac = np.arange(ml) / ml                            # tau / T0 grid
    freq = tones[None, :, None] + (config.tone_offsets * config.pri)[:, None, None]
    V = np.exp(-2j * np.pi * freq * delay_frac[None, None, :])
    return SteeringDictionary(config=config, U=U, V=V)


# -- sample-domain DFT operator Fbar = F_L^H (x) I_P ----------------------

def apply_fbar(x: np.ndarray, L: int) -> np.ndarray:
    """y = (F_L^H (x) I_P) x with the unitary L-point DFT F_L and P = len(x)/L."""
    x = np.asarray(x)
    X = x.reshape(x.shape[:-1] + (L, -1))
    return (np.fft.ifft(X, axis=-2) * np.sqrt(L)).reshape(x.shape)


def apply_fbar_adjoint(y: np.ndarray, L: int) -> np.ndarray:
    """x = (F_L (x) I_P) y with P = len(y)/L, the adjoint (= inverse) of apply_fbar."""
    y = np.asarray(y)
    Y = y.reshape(y.shape[:-1] + (L, -1))
    return (np.fft.fft(Y, axis=-2) / np.sqrt(L)).reshape(y.shape)


# -- block-diagonal product of a tone stack ---------------------------------

def apply_blocks(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """blkdiag(X_1..X_L) @ v for the (L, r, c) tone stack X and a tone-major v."""
    return (blocks @ v.reshape(len(blocks), -1, 1)).reshape(-1)


def apply_blocks_adjoint(blocks: np.ndarray, s: np.ndarray) -> np.ndarray:
    """blkdiag(X_1..X_L)^H @ s, tone-major; the adjoint of apply_blocks."""
    return (s.reshape(len(blocks), 1, -1).conj() @ blocks).conj().reshape(-1)
