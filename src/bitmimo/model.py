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

import copy
import json
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "COEFF_MODELS",
    "checked",
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


def checked(name, value, rule):
    """value under rule, converted, or ValueError naming it: the one rule for
    every number a user sets, which RadarConfig, config_from_dict,
    ExperimentSpec, RecoverySpec and the CLI's --seed call. The rules:
    "int>=1", "int>=0" and "int", integers; "float>0" and "float>=0", finite
    floats; "float", any float (the SNR axis, whose range at_snr owns);
    "floats", a 1-D list of finite floats, as a read-only array. A bool, numpy
    bool, string or None is never a number, and an integer past float range is
    refused where it becomes a float."""
    def number(x, kind=numbers.Real):  # bool is an Integral, numpy's bool is not
        return isinstance(x, kind) and not isinstance(x, bool)
    if rule == "floats":
        items = value.tolist() if isinstance(value, np.ndarray) else value
        if not isinstance(items, (list, tuple)) or not all(map(number, items)):
            raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    elif rule.startswith("int"):
        if not number(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        out = int(value)
        if rule == "int>=1" and out < 1:
            raise ValueError(f"{name} must be >= 1, got {out}")
        if rule == "int>=0" and out < 0:
            raise ValueError(f"{name} must be nonnegative, got {out}")
        return out
    elif not number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = _readonly(items, float) if rule == "floats" else float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number a float can hold") from None
    if rule == "floats" and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be a list of finite numbers, got {value!r}")
    # written as `not x > 0` so that NaN is refused too
    if rule == "float>0" and not 0 < out < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {out}")
    if rule == "float>=0" and not 0 <= out < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {out}")
    return out


@dataclass(frozen=True)
class RadarConfig:
    """Array geometry, waveform/tone parameters and noise/quantizer scales.

    __post_init__ converts and checks every value once, with the `checked`
    rule its field's annotation gives: "int>=1" for M and N, "float>0" for the
    scalars (sigma_n_sq "float>=0") and "floats" for the arrays. The class
    holds the only defaults; config_from_dict passes on only the keys a file
    gives.

    Attributes
    ----------
    M, N : int
        Transmit / receive element counts.
    L : int
        Tones per band, derived: round(bandwidth * pri), where bandwidth * pri
        must be finite and within 1e-6 (relative) of an odd integer.
    bandwidth : float
        Per-waveform bandwidth B_h in Hz.
    pri : float
        Pulse repetition interval T_0 in seconds.
    rx_pos, tx_pos : ndarray
        Element positions zeta_n, xi_m in wavelengths; first entry of each is 0.
    tone_offsets : ndarray
        FDMA band centers f_m in Hz; the bands [f_m +/- bandwidth/2] are disjoint.
    eta : float
        Quantizer support multiplier (support = eta * max input std), default 2.
    sigma_alpha_sq : float
        Reflection-coefficient variance, default 1.
    sigma_n_sq : float
        Noise variance per frequency-domain component, default 1; may be 0.
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
        for name, rule in _RULE_OF.items():
            object.__setattr__(self, name, checked(name, getattr(self, name), rule))
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
        unless snr_db is a number, 10^(snr_db/10) finite and positive and
        sigma_n_sq finite. The copy shares this config's read-only arrays.
        """
        with np.errstate(over="ignore"):
            snr = float(10.0 ** (np.asarray(checked("snr_db", snr_db, "float")) / 10.0))
        sigma_n_sq = self.sigma_alpha_sq / snr if 0 < snr < np.inf else np.inf
        if not np.isfinite(sigma_n_sq):
            raise ValueError("SNR must be finite, with 10^(SNR/10) finite and positive "
                             "and the noise variance sigma_alpha_sq/10^(SNR/10) finite, "
                             f"got {snr_db} dB")
        out = copy.copy(self)  # checked once; only sigma_n_sq changes, checked above
        object.__setattr__(out, "sigma_n_sq", sigma_n_sq)
        return out


# RadarConfig's init fields and the rule of each, by its annotation (a string
# under the __future__ import); the noise variance may be 0
_RULE_OF = {f.name: {"int": "int>=1", "float": "float>0", "np.ndarray": "floats"}[f.type]
            for f in fields(RadarConfig) if f.init} | {"sigma_n_sq": "float>=0"}


@dataclass(frozen=True)
class TargetScene:
    """K on-grid targets: sorted, distinct flat grid cells l1*MN + l2 and
    their complex amplitudes, both read-only. The cells are the one index
    format from the draw to the score (estimate_support, hit_rate)."""

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
    """config_from_dict's "ula" layout, with its checks and messages; scalars
    are RadarConfig's eta, sigma_alpha_sq and sigma_n_sq."""
    return config_from_dict(dict(scalars, M=M, N=N, bandwidth=bandwidth, pri=pri))


def make_random_array_config(rng, M, N, bandwidth, pri, **scalars) -> RadarConfig:
    """config_from_dict's "random" layout; scalars as for make_ula_config."""
    return config_from_dict(dict(scalars, M=M, N=N, bandwidth=bandwidth, pri=pri,
                                 array="random"), rng=rng)


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
    return {key: np.asarray(getattr(config, key)).tolist() for key in _RULE_OF}


_POSITION_KEYS = tuple(key for key, rule in _RULE_OF.items() if rule == "floats")
# the keys of config_to_dict, plus the layout generator's "array"
_CONFIG_KEYS = frozenset(_RULE_OF) | {"array"}


def config_from_dict(d: dict, rng=None) -> RadarConfig:
    """Build a config from JSON-style keys.

    Either explicit 'rx_pos'/'tx_pos'/'tone_offsets' are given, all three, or
    'array' selects a layout, computed after the checks below: "ula" (default),
    zeta_n = n/2 and xi_m = N*m/2 (a virtual ULA of MN elements) with order
    0..M-1, or "random", positions uniform over the virtual aperture [0, MN/2]
    wavelengths (the first of each array at 0) drawn from rng, rx then tx, with
    order a random permutation of 0..M-1 drawn next. The tone offsets
    f_m = (order_m - (M+1)/2) * bandwidth keep the bands disjoint.
    'M', 'N', 'bandwidth' and 'pri' are required. Each given key is checked,
    before any layout is computed, under the name "config key '<key>'" with
    the `checked` rule of its RadarConfig field, so a JSON integer literal
    reads as a float ("eta": 2 as 2.0) and a string ("0.5") or bool is refused,
    in an array too. A key that is neither 'array' nor one config_to_dict
    writes (a misspelling, or 'L' or 'carrier', which earlier versions wrote),
    a missing required key, a value outside its rule, or 'array' beside
    explicit positions raises ValueError naming the key; so does an 'M', 'N'
    or bandwidth*pri that makes U (M x N x MN) or V (M x L x ML) larger than
    numpy's largest array. RadarConfig then refuses a bandwidth*pri that
    gives no odd L.
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
    given = {key: checked(f"config key {key!r}", d[key], rule)
             for key, rule in _RULE_OF.items() if key in d}
    if "array" in d and "rx_pos" in d:
        raise ValueError("config key 'array' cannot be given beside explicit "
                         "rx_pos/tx_pos/tone_offsets")
    # the steering matrices U (M x N x MN) and V (M x L x ML) must fit numpy's
    # largest complex array, checked before a layout allocates by M or N
    M, N = given["M"], given["N"]
    product = given["bandwidth"] * given["pri"]
    L = round(product) if product < np.inf else 1  # RadarConfig refuses inf
    for matrix, side, named in (("U", N, "config key 'N'"),
                                ("V", L, "the tone count bandwidth*pri")):
        if (M * side) ** 2 > np.iinfo(np.intp).max // np.dtype(complex).itemsize:
            named = "config key 'M'" if M >= side else named
            raise ValueError(f"{named} is too large: the steering matrix {matrix} "
                             "would pass numpy's maximum array size")
    if "rx_pos" in d:
        return RadarConfig(**given)
    kind = d.get("array", "ula")
    if kind == "ula":
        order = np.arange(M)
        rx, tx = np.arange(N) / 2.0, N * order / 2.0
    elif kind == "random":
        if rng is None:
            raise ValueError("random array layout requires an rng (seed)")
        rx = np.concatenate(([0.0], rng.uniform(0.0, M * N / 2.0, size=N - 1)))
        tx = np.concatenate(([0.0], rng.uniform(0.0, M * N / 2.0, size=M - 1)))
        order = rng.permutation(M)
    else:
        raise ValueError(f"unknown array kind {kind!r}")
    return RadarConfig(**given, rx_pos=rx, tx_pos=tx,
                       tone_offsets=(order - (M + 1) / 2.0) * given["bandwidth"])


def load_config(path, rng=None) -> RadarConfig:
    """config_from_dict of the JSON file at path. Python's json reads NaN,
    Infinity and integers past float range; the checks refuse each."""
    with open(path) as fh:
        return config_from_dict(json.load(fh), rng=rng)
