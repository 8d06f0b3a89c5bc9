"""Radar configuration, on-grid target scenes, and the grid <-> sparse-vector map.

Positions are stored in wavelength units, so all phase terms are computed as
exp(j*2*pi*(xi_m + zeta_n)*theta) without ever touching the carrier frequency
(kept as metadata only). Delay/angle grids:

    tau_l1   = pri * l1 / (M*L),   l1 in 0..ML-1
    theta_l2 = -1 + 2*l2 / (M*N),  l2 in 0..MN-1

A scene maps to a K-sparse vector a of length M^2*N*L with the nonzero for
target (l1, l2) at flat index l1*MN + l2 (column-major vec of the MN x ML
scene matrix).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "COEFF_MODELS",
    "RadarConfig",
    "TargetScene",
    "make_ula_config",
    "make_random_array_config",
    "sample_scene",
    "scene_to_sparse_vector",
    "snr_to_noise_variance",
    "snr_db_to_linear",
    "config_to_dict",
    "config_from_dict",
    "load_config",
]


# amplitude laws sample_scene draws from
COEFF_MODELS = ("gaussian", "unit_modulus")


def _readonly(a, dtype):
    out = np.asarray(a, dtype=dtype).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RadarConfig:
    """Array geometry, waveform/tone parameters and noise/quantizer scales.

    Attributes
    ----------
    M, N : int
        Transmit / receive element counts.
    L : int
        Tones per band (odd, equals round(bandwidth * pri)).
    bandwidth : float
        Per-waveform bandwidth B_h in Hz.
    pri : float
        Pulse repetition interval T_0 in seconds.
    carrier : float
        Carrier frequency in Hz (informational only).
    rx_pos, tx_pos : ndarray
        Element positions zeta_n, xi_m in wavelengths; first entry of each is 0.
    tone_offsets : ndarray
        FDMA band centers f_m in Hz; the bands [f_m +/- bandwidth/2] are disjoint.
    eta : float
        Quantizer support multiplier (support = eta * max input std).
    sigma_alpha_sq : float
        Reflection-coefficient variance.
    sigma_n_sq : float
        Noise variance per frequency-domain component.
    """

    M: int
    N: int
    L: int
    bandwidth: float
    pri: float
    carrier: float
    rx_pos: np.ndarray
    tx_pos: np.ndarray
    tone_offsets: np.ndarray
    eta: float = 2.0
    sigma_alpha_sq: float = 1.0
    sigma_n_sq: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rx_pos", _readonly(self.rx_pos, float))
        object.__setattr__(self, "tx_pos", _readonly(self.tx_pos, float))
        object.__setattr__(self, "tone_offsets", _readonly(self.tone_offsets, float))
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be >= 1")
        # written as `not x > 0` so that NaN is rejected too
        if not (self.bandwidth > 0 and self.pri > 0):
            raise ValueError("bandwidth and pri must be positive")
        if self.L < 1 or self.L % 2 == 0:
            raise ValueError(f"L must be an odd positive integer, got {self.L}")
        if abs(self.bandwidth * self.pri - self.L) > 1e-6 * max(1.0, self.L):
            raise ValueError(
                f"L={self.L} inconsistent with bandwidth*pri={self.bandwidth * self.pri}"
            )
        if len(self.rx_pos) != self.N or len(self.tx_pos) != self.M:
            raise ValueError("position arrays must have lengths N and M")
        if self.rx_pos[0] != 0.0 or self.tx_pos[0] != 0.0:
            raise ValueError("first rx/tx positions are normalized to 0")
        if len(self.tone_offsets) != self.M:
            raise ValueError("need one tone offset per transmit element")
        centers = np.sort(self.tone_offsets)
        if self.M > 1 and np.min(np.diff(centers)) < self.bandwidth * (1 - 1e-12):
            raise ValueError("tone bands overlap; offsets must be >= bandwidth apart")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not self.sigma_alpha_sq > 0:
            raise ValueError("sigma_alpha_sq must be positive")
        if not self.sigma_n_sq >= 0:
            raise ValueError("sigma_n_sq must be nonnegative")

    # -- derived sizes ---------------------------------------------------
    @property
    def mn(self) -> int:
        return self.M * self.N

    @property
    def ml(self) -> int:
        return self.M * self.L

    @property
    def mnl(self) -> int:
        return self.M * self.N * self.L

    @property
    def grid_size(self) -> int:
        """Number of delay-angle grid cells, M^2*N*L."""
        return self.ml * self.mn

    @property
    def tone_indices(self) -> np.ndarray:
        """Tone index grid i = -(L-1)/2 .. (L-1)/2."""
        return np.arange(self.L) - (self.L - 1) // 2

    def with_noise_variance(self, sigma_n_sq: float) -> "RadarConfig":
        return replace(self, sigma_n_sq=float(sigma_n_sq))


@dataclass(frozen=True)
class TargetScene:
    """K on-grid targets: sorted, distinct flat grid cells l1*MN + l2 and
    their complex amplitudes."""

    cells: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cells", _readonly(self.cells, np.int64))
        object.__setattr__(self, "alpha", _readonly(self.alpha, complex))
        if len(self.cells) != len(self.alpha):
            raise ValueError("cells and alpha must have equal lengths")
        if np.any(self.cells < 0):
            raise ValueError("grid cells must be nonnegative")
        if np.any(np.diff(self.cells) <= 0):
            raise ValueError("target grid cells must be sorted and distinct")

    @property
    def k(self) -> int:
        return len(self.alpha)


def make_ula_config(M, N, bandwidth, pri, carrier=10e9, eta=2.0,
                    sigma_alpha_sq=1.0, sigma_n_sq=1.0) -> RadarConfig:
    """Uniform linear arrays: zeta_n = n/2, xi_m = N*m/2 (virtual ULA of MN
    elements), with tone offsets f_m = (m - (M+1)/2) * bandwidth."""
    L = int(round(bandwidth * pri))
    m = np.arange(M)
    return RadarConfig(
        M=int(M), N=int(N), L=L, bandwidth=float(bandwidth), pri=float(pri),
        carrier=float(carrier),
        rx_pos=np.arange(N) / 2.0,
        tx_pos=N * m / 2.0,
        tone_offsets=(m - (M + 1) / 2.0) * bandwidth,
        eta=float(eta), sigma_alpha_sq=float(sigma_alpha_sq),
        sigma_n_sq=float(sigma_n_sq),
    )


def make_random_array_config(rng, M, N, bandwidth, pri, carrier=10e9, eta=2.0,
                             sigma_alpha_sq=1.0, sigma_n_sq=1.0) -> RadarConfig:
    """Element positions uniform over the virtual aperture [0, MN/2] wavelengths
    (first element of each array pinned at 0); tone offsets are
    f_m = (i_m - (M+1)/2) * bandwidth with (i_m) a random permutation of 0..M-1,
    which keeps the bands disjoint."""
    L = int(round(bandwidth * pri))
    aperture = M * N / 2.0
    rx = np.concatenate(([0.0], rng.uniform(0.0, aperture, size=N - 1)))
    tx = np.concatenate(([0.0], rng.uniform(0.0, aperture, size=M - 1)))
    i_m = rng.permutation(M)
    return RadarConfig(
        M=int(M), N=int(N), L=L, bandwidth=float(bandwidth), pri=float(pri),
        carrier=float(carrier), rx_pos=rx, tx_pos=tx,
        tone_offsets=(i_m - (M + 1) / 2.0) * bandwidth,
        eta=float(eta), sigma_alpha_sq=float(sigma_alpha_sq),
        sigma_n_sq=float(sigma_n_sq),
    )


def sample_scene(rng, K, config: RadarConfig, coeff_model="gaussian") -> TargetScene:
    """Draw K distinct grid cells uniformly without replacement.

    coeff_model 'gaussian' gives proper-complex Gaussian amplitudes with
    variance sigma_alpha_sq; 'unit_modulus' fixes |alpha| = sqrt(sigma_alpha_sq)
    with uniform phase.
    """
    if coeff_model not in COEFF_MODELS:
        raise ValueError(f"unknown coeff_model {coeff_model!r}; pick from {COEFF_MODELS}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K > config.grid_size:
        raise ValueError(f"K={K} exceeds grid size {config.grid_size}")
    cells = rng.choice(config.grid_size, size=K, replace=False) if K else np.array([], dtype=np.int64)
    cells = np.sort(cells)
    amp = np.sqrt(config.sigma_alpha_sq)
    if coeff_model == "gaussian":
        alpha = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) * amp / np.sqrt(2.0)
    else:  # unit_modulus
        alpha = amp * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=K))
    return TargetScene(cells=cells, alpha=alpha)


def scene_to_sparse_vector(scene: TargetScene, config: RadarConfig) -> np.ndarray:
    """K-sparse complex vector a of length M^2*N*L with a[l1*MN + l2] = alpha."""
    if scene.k and scene.cells.max() >= config.grid_size:
        raise ValueError("scene cells exceed the configured grid")
    a = np.zeros(config.grid_size, dtype=complex)
    a[scene.cells] = scene.alpha
    return a


def snr_to_noise_variance(snr_linear, config: RadarConfig) -> float:
    """Noise variance realizing SNR = E||Phi a||^2 / (MNL * K * sigma_n_sq).

    With unit-modulus dictionary entries and uniformly drawn supports,
    E||Phi a||^2 = K * MNL * sigma_alpha_sq, so K cancels and
    sigma_n_sq = sigma_alpha_sq / SNR.
    """
    if snr_linear <= 0:
        raise ValueError("SNR must be positive")
    return config.sigma_alpha_sq / float(snr_linear)


def snr_db_to_linear(snr_db) -> float:
    return float(10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


# -- config file I/O -----------------------------------------------------

def config_to_dict(config: RadarConfig) -> dict:
    return {
        "M": config.M, "N": config.N, "L": config.L,
        "bandwidth": config.bandwidth, "pri": config.pri, "carrier": config.carrier,
        "rx_pos": config.rx_pos.tolist(), "tx_pos": config.tx_pos.tolist(),
        "tone_offsets": config.tone_offsets.tolist(),
        "eta": config.eta, "sigma_alpha_sq": config.sigma_alpha_sq,
        "sigma_n_sq": config.sigma_n_sq,
    }


# the keys of config_to_dict, plus the layout generator's "array"
_CONFIG_KEYS = frozenset(f.name for f in fields(RadarConfig)) | {"array"}
_POSITION_KEYS = ("rx_pos", "tx_pos", "tone_offsets")


def config_from_dict(d: dict, rng=None) -> RadarConfig:
    """Build a config from JSON-style keys.

    Either explicit 'rx_pos'/'tx_pos'/'tone_offsets' are given, all three, or
    'array' selects a generator: "ula" (default) or "random" (requires rng).
    'M', 'N', 'bandwidth' and 'pri' are required. A key that is neither
    'array' nor one config_to_dict writes, or a missing required key, raises
    ValueError naming it.
    """
    if not isinstance(d, dict):
        raise ValueError("a config must be a JSON object")
    unknown = sorted(set(d) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    required = ("M", "N", "bandwidth", "pri")
    if any(key in d for key in _POSITION_KEYS):
        required += _POSITION_KEYS
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"missing config key(s): {', '.join(missing)}")
    common = dict(
        bandwidth=d["bandwidth"], pri=d["pri"], carrier=d.get("carrier", 10e9),
        eta=d.get("eta", 2.0), sigma_alpha_sq=d.get("sigma_alpha_sq", 1.0),
        sigma_n_sq=d.get("sigma_n_sq", 1.0),
    )
    if "rx_pos" in d:
        return RadarConfig(
            M=d["M"], N=d["N"], L=d.get("L", int(round(d["bandwidth"] * d["pri"]))),
            rx_pos=np.asarray(d["rx_pos"], dtype=float),
            tx_pos=np.asarray(d["tx_pos"], dtype=float),
            tone_offsets=np.asarray(d["tone_offsets"], dtype=float),
            **common,
        )
    kind = d.get("array", "ula")
    if kind == "ula":
        return make_ula_config(d["M"], d["N"], **common)
    if kind == "random":
        if rng is None:
            raise ValueError("random array layout requires an rng (seed)")
        return make_random_array_config(rng, d["M"], d["N"], **common)
    raise ValueError(f"unknown array kind {kind!r}")


def load_config(path, rng=None) -> RadarConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh), rng=rng)
