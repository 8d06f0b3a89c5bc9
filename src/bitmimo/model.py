"""Radar configuration, on-grid target scenes, and the grid <-> sparse-vector map.

Positions are stored in wavelength units, so all phase terms are computed as
exp(j*2*pi*(xi_m + zeta_n)*theta) and the carrier frequency never enters.
The tone count per band is fixed by the waveform, L = bandwidth * pri.
Delay/angle grids:

    tau_l1   = pri * l1 / (M*L),   l1 in 0..ML-1
    theta_l2 = -1 + 2*l2 / (M*N),  l2 in 0..MN-1

A scene maps to a K-sparse vector a of length M^2*N*L with the nonzero for
target (l1, l2) at flat index l1*MN + l2 (column-major vec of the MN x ML
scene matrix).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "COEFF_MODELS",
    "RadarConfig",
    "TargetScene",
    "make_ula_config",
    "make_random_array_config",
    "sample_scene",
    "scene_to_sparse_vector",
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


def _checked(name, kind, value):
    """A RadarConfig field's value as its annotated kind, or ValueError naming
    the field: "int" an integer >= 1 (bool refused), "float" finite and > 0
    (sigma_n_sq also 0), "np.ndarray" a read-only 1-D array of finite floats."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        return int(value)
    try:
        out = float(value) if kind == "float" else _readonly(value, float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number a float can hold") from None
    if kind == "np.ndarray":
        if out.ndim != 1 or not np.all(np.isfinite(out)):
            raise ValueError(f"{name} must be a list of finite numbers")
    # written as `not x > 0` so that NaN is refused too
    elif not (0 <= out if name == "sigma_n_sq" else 0 < out) or out == np.inf:
        rule = "nonnegative" if name == "sigma_n_sq" else "positive"
        raise ValueError(f"{name} must be {rule} and finite, got {out}")
    return out


@dataclass(frozen=True)
class RadarConfig:
    """Array geometry, waveform/tone parameters and noise/quantizer scales.

    Attributes
    ----------
    M, N : int
        Transmit / receive element counts.
    L : int
        Tones per band, derived: round(bandwidth * pri), which must be odd.
    bandwidth : float
        Per-waveform bandwidth B_h in Hz.
    pri : float
        Pulse repetition interval T_0 in seconds.
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
    L: int = field(init=False)
    bandwidth: float
    pri: float
    rx_pos: np.ndarray
    tx_pos: np.ndarray
    tone_offsets: np.ndarray
    eta: float = 2.0
    sigma_alpha_sq: float = 1.0
    sigma_n_sq: float = 1.0

    def __post_init__(self):
        for name, kind in _KIND_OF.items():
            object.__setattr__(self, name, _checked(name, kind, getattr(self, name)))
        product = self.bandwidth * self.pri
        L = int(round(product)) if product < np.inf else 0
        if L % 2 == 0 or abs(product - L) > 1e-6 * max(1.0, L):
            raise ValueError(f"bandwidth*pri={product} must be finite and within 1e-6 "
                             "(relative) of an odd integer, the tone count L")
        object.__setattr__(self, "L", L)
        if len(self.rx_pos) != self.N or len(self.tx_pos) != self.M:
            raise ValueError("position arrays must have lengths N and M")
        if self.rx_pos[0] != 0.0 or self.tx_pos[0] != 0.0:
            raise ValueError("first rx/tx positions are normalized to 0")
        if len(self.tone_offsets) != self.M:
            raise ValueError("need one tone offset per transmit element")
        centers = np.sort(self.tone_offsets)
        if self.M > 1 and np.min(np.diff(centers)) < self.bandwidth * (1 - 1e-12):
            raise ValueError("tone bands overlap; offsets must be >= bandwidth apart")

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

    def at_snr(self, snr_db) -> "RadarConfig":
        """This config with the noise variance that realizes snr_db, where
        SNR = E||Phi a||^2 / (MNL * K * sigma_n_sq).

        With unit-modulus dictionary entries and uniformly drawn supports,
        E||Phi a||^2 = K * MNL * sigma_alpha_sq, so K cancels and
        sigma_n_sq = sigma_alpha_sq / 10^(snr_db/10). ValueError naming the SNR
        unless 10^(snr_db/10) is finite and positive and sigma_n_sq finite.
        """
        with np.errstate(over="ignore"):
            snr = float(10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))
        sigma_n_sq = self.sigma_alpha_sq / snr if 0 < snr < np.inf else np.inf
        if not np.isfinite(sigma_n_sq):
            raise ValueError("SNR must be finite, with 10^(SNR/10) finite and positive "
                             "and the noise variance sigma_alpha_sq/10^(SNR/10) finite, "
                             f"got {snr_db} dB")
        return replace(self, sigma_n_sq=sigma_n_sq)


# RadarConfig's init fields and kinds: annotations, strings under the __future__ import
_KIND_OF = {f.name: f.type for f in fields(RadarConfig) if f.init}


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


def make_ula_config(M, N, bandwidth, pri, **scalars) -> RadarConfig:
    """Uniform linear arrays: zeta_n = n/2, xi_m = N*m/2 (virtual ULA of MN
    elements), with tone offsets f_m = (m - (M+1)/2) * bandwidth. scalars are
    RadarConfig's eta, sigma_alpha_sq and sigma_n_sq."""
    m = np.arange(M)
    return RadarConfig(M=M, N=N, bandwidth=bandwidth, pri=pri,
                       rx_pos=np.arange(N) / 2.0, tx_pos=N * m / 2.0,
                       tone_offsets=(m - (M + 1) / 2.0) * bandwidth, **scalars)


def make_random_array_config(rng, M, N, bandwidth, pri, **scalars) -> RadarConfig:
    """Element positions uniform over the virtual aperture [0, MN/2] wavelengths
    (first element of each array pinned at 0); tone offsets are
    f_m = (i_m - (M+1)/2) * bandwidth with (i_m) a random permutation of 0..M-1,
    which keeps the bands disjoint. scalars are as for make_ula_config."""
    aperture = M * N / 2.0
    rx = np.concatenate(([0.0], rng.uniform(0.0, aperture, size=N - 1)))
    tx = np.concatenate(([0.0], rng.uniform(0.0, aperture, size=M - 1)))
    i_m = rng.permutation(M)
    return RadarConfig(M=M, N=N, bandwidth=bandwidth, pri=pri, rx_pos=rx, tx_pos=tx,
                       tone_offsets=(i_m - (M + 1) / 2.0) * bandwidth, **scalars)


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


# -- config file I/O -----------------------------------------------------

def config_to_dict(config: RadarConfig) -> dict:
    """RadarConfig's init fields by name: arrays as lists, scalars as Python numbers."""
    return {key: np.asarray(getattr(config, key)).tolist() for key in _KIND_OF}


_POSITION_KEYS = tuple(key for key, kind in _KIND_OF.items() if kind == "np.ndarray")
# the scalar keys config_from_dict checks, with the type each must have
_SCALAR_KEYS = {key: numbers.Integral if kind == "int" else numbers.Real
                for key, kind in _KIND_OF.items() if key not in _POSITION_KEYS}
# the keys of config_to_dict, plus the layout generator's "array"
_CONFIG_KEYS = frozenset(_KIND_OF) | {"array"}


def config_from_dict(d: dict, rng=None) -> RadarConfig:
    """Build a config from JSON-style keys.

    Either explicit 'rx_pos'/'tx_pos'/'tone_offsets' are given, all three, or
    'array' selects a generator: "ula" (default) or "random" (requires rng).
    'M', 'N', 'bandwidth' and 'pri' are required. A key that is neither
    'array' nor one config_to_dict writes, a missing required key, a
    non-integer 'M' or 'N' (bool included), a non-numeric scalar, a position
    key that is not a list of numbers (strings and bools refused), an integer
    past float range, or 'array' beside explicit positions raises ValueError
    naming the key; so does a scalar outside RadarConfig's rule for its field,
    checked before a layout generator computes with it, and an 'M', 'N' or
    bandwidth*pri that makes U or V larger than numpy's largest array.
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
    for key in _POSITION_KEYS:  # each element as a scalar key: a number, bool refused
        if key in d and (not isinstance(d[key], list) or any(
                isinstance(x, bool) or not isinstance(x, numbers.Real) for x in d[key])):
            raise ValueError(f"config key {key!r} must be a list of numbers, got {d[key]!r}")
    for key, kind in _SCALAR_KEYS.items():
        if key not in d:
            continue
        if isinstance(d[key], bool) or not isinstance(d[key], kind):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"config key {key!r} must be {what}, got {d[key]!r}")
        try:  # before a generator computes with it
            float(d[key])
        except OverflowError:
            raise ValueError(f"config key {key!r} is an integer past float range") from None
        _checked(key, _KIND_OF[key], d[key])
    if "array" in d and "rx_pos" in d:
        raise ValueError("config key 'array' cannot be given beside explicit "
                         "rx_pos/tx_pos/tone_offsets")
    # the steering matrices U (M x N x MN) and V (M x L x ML) must fit numpy's
    # largest complex array, checked before a layout generator allocates by M or N
    M, N = int(d["M"]), int(d["N"])
    product = float(d["bandwidth"]) * float(d["pri"])
    L = round(product) if product < np.inf else 1  # RadarConfig refuses inf
    for matrix, side, named in (("U", N, "config key 'N'"),
                                ("V", L, "the tone count bandwidth*pri")):
        if (M * side) ** 2 > np.iinfo(np.intp).max // np.dtype(complex).itemsize:
            named = "config key 'M'" if M >= side else named
            raise ValueError(f"{named} is too large: the steering matrix {matrix} "
                             "would pass numpy's maximum array size")
    # the scalars given; RadarConfig holds the defaults
    common = {key: d[key] for key, kind in _SCALAR_KEYS.items()
              if kind is numbers.Real and key in d}
    if "rx_pos" in d:
        return RadarConfig(M=d["M"], N=d["N"], rx_pos=d["rx_pos"], tx_pos=d["tx_pos"],
                           tone_offsets=d["tone_offsets"], **common)
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
