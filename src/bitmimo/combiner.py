"""Task-based acquisition design: analog combiner, digital filter, quantizer support.

Under the white statistics of bitmimo.statistics, cov(c)_i = c * I and
Sigma_i = cov(c)_i + cov(w)_i = (c + w) * I, so per tone block i the design
works on the whitened task matrix

    Gt_i = M_i cov(c)_i Sigma_i^{-1/2} = (c / sqrt(c + w)) M_i

whose singular values lam_1 >= lam_2 >= ... receive a waterfilling gain
allocation

    Lam_l^2 = (4*eta^2 / (3*b^2*P)) * (zeta*lam_l - 1)^+      l <= min(J_i, P)

with the water level zeta chosen so that sum_l Lam_l^2 = 1. The block combiner
is B_i = U_i Lam_i V_i^H Sigma_i^{-1/2}, where V_i holds the right singular
vectors and U_i is a unitary rotation making diag(B_i Sigma_i B_i^H) constant,
so every ADC sees the same input variance. The quantizer support is then
gamma = eta/sqrt(P), and the digital filter is the MMSE-optimal

    D = blkdiag( M_i cov(c)_i B_i^H (B_i Sigma_i B_i^H + (4*gamma^2/(3*b^2)) I)^{-1} ) Fbar^H

acting on the quantized samples, applied as an FFT over tones followed by
the per-tone blocks D_i. With Gt_i = W_i diag(lam) V_i^H the reduced SVD,
B_i Sigma_i B_i^H = U_i Lam_i^2 U_i^H and M_i cov(c)_i B_i^H = W_i diag(lam)
Lam_i U_i^H, so each block has the closed form

    D_i = W_ik diag( lam_l Lam_l / (Lam_l^2 + 4*gamma^2/(3*b^2)) ) U_ik^H

over the first k = min(P, J_i, MN) columns of W_i and U_i, with no solve;
only the first k singular vectors of either side enter the design. The
per-block excess MSE over the linear MMSE benchmark is

    eps_i = sum_{l<=min(J_i,P)} lam_l^2 / ((zeta*lam_l - 1)^+ + 1)
            + sum_{l>P} lam_l^2                      (only when P < J_i).

Every step runs on the (L, ...) tone stacks at once, and the products with
the scaled identities cov(c)_i and Sigma_i^{+-1/2} are products with
scalars, which give bitwise what the matrix products give. numpy's stacked
linalg and matmul calls run the same LAPACK/BLAS call per tone, so each tone
gets bitwise the result it would get alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .dictionary import apply_blocks, apply_fbar_adjoint
from .model import RadarConfig, config_to_dict
from .statistics import SignalStatistics

__all__ = [
    "AcquisitionDesign",
    "BUNDLE_ARRAYS",
    "waterfill",
    "equalizing_unitary",
    "design_multitone",
    "write_filter_response_csv",
    "save_design",
    "load_design",
]


def _hermitian(stack):
    """Conjugate transpose of every matrix in an (L, r, c) stack."""
    return stack.conj().swapaxes(1, 2)


def waterfill_gain(channels, levels, eta):
    """coef = 4*eta^2 / (3*b^2*P), the gain per unit of (zeta*lam - 1).

    Raises ValueError unless 1/coef + 1 is finite and rounds to at least two
    ulps above 1, the condition under which the first mode's level
    zeta_1 * lam_1 = ((1/coef + 1) / lam_1) * lam_1 exceeds 1 for every lam_1.
    Past it no mode is sure to clear the water level; with 1/coef infinite
    the water level is infinite. The harness runs this check on every sweep
    point when a spec is made (harness._point_scalars).
    """
    eta = float(eta)  # a float past 1e154 squares to inf without a warning
    coef = 4.0 * eta * eta / (3.0 * levels * levels * channels)
    if not (coef > 0.0 and 1.0 + 2.0 * np.finfo(float).eps <= 1.0 / coef + 1.0 < np.inf):
        raise ValueError(f"eta={eta} with b={levels} levels on P={channels} channels "
                         f"leaves no mode above the water level")
    return coef


def waterfill(singvals, channels, levels, eta):
    """Gain allocations over every tone's singular modes, and the exact water levels.

    Parameters
    ----------
    singvals : (L, r) array
        Each tone's nonnegative singular values, descending, one per mode.
    channels : int
        Number of analog channels P; modes beyond min(r, P) get zero gain.
    levels, eta : quantizer levels b and support multiplier.

    Returns
    -------
    (alloc, zeta) : allocations Lam_i^2, shape (L, channels), and the water
        levels, shape (L,), each solving
        (4*eta^2/(3*b^2*P)) * sum_l (zeta_i*lam_il - 1)^+ = 1.
    ValueError unless singvals is a 2-D stack of nonnegative values with every
    tone sorted and holding a positive value, and when eta is such that no
    mode clears the water level (waterfill_gain).

    The active set is closed form: (1/coef + r) * lam_r - sum_{l<=r} lam_l is
    nonincreasing in r, so it is the largest r whose candidate level
    zeta_r = (1/coef + r) / sum_{l<=r} lam_l gives zeta_r * lam_r > 1, over
    the modes r <= P with lam_r > 0. The running sums run along each tone,
    so each tone gets bitwise the allocation it would get alone.
    """
    lam = np.asarray(singvals, dtype=float)
    if lam.ndim != 2 or not (lam.size and np.all(lam >= 0) and lam.max(axis=1).all()):
        raise ValueError("waterfilling needs an (L, r) stack of nonnegative singular "
                         "values with a positive one in every tone")
    if np.any(np.diff(lam, axis=1) > 1e-12 * np.maximum(1.0, lam[:, :1])):
        raise ValueError("singular values must be sorted in descending order")
    coef = waterfill_gain(channels, levels, eta)
    # modes past P, or past a tone's positive values, get no gain
    r_max = np.minimum(channels, np.count_nonzero(lam > 0, axis=1))
    lam = lam[:, :r_max.max()]
    mode = np.arange(lam.shape[1])
    cand = (1.0 / coef + (mode + 1)) / np.cumsum(lam, axis=1)
    above = (cand * lam > 1.0) & (mode < r_max[:, None])
    active = lam.shape[1] - np.argmax(above[:, ::-1], axis=1)  # one past the last mode above
    zeta = cand[np.arange(len(lam)), active - 1]
    alloc = np.zeros((len(lam), int(channels)))
    alloc[:, :lam.shape[1]] = np.where(mode < active[:, None],
                                       coef * (zeta[:, None] * lam - 1.0), 0.0)
    return alloc, zeta


def equalizing_unitary(gains_sq: np.ndarray) -> np.ndarray:
    """Unitaries U_i, shape (L, P, P), such that U_i diag(g_i) U_i^H has all
    diagonal entries equal to sum(g_i)/P, for the (L, P) stack of nonnegative
    gains g_i (ValueError unless it is 2-D, finite and nonnegative).

    Each block iterates 2x2 rotations on its current (max-diagonal,
    min-diagonal) index pair of Hw = U_i diag(g_i) U_i^H, each chosen to
    equalize that pair; the squared diagonal spread contracts geometrically.
    All blocks rotate in lockstep, one batched step per rotation, and a block
    drops out once its spread is at most 1e-10 * sum(g_i)/P, so an all-equal
    block takes no rotation. Capped at 50*P^2 rotations. Every block gets
    bitwise the U it would get alone.
    """
    g = np.asarray(gains_sq, dtype=float)
    if g.ndim != 2 or not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("gains must be an (L, P) stack of finite nonnegative values")
    L, P = g.shape
    max_rotations = 50 * P * P

    Hw = np.zeros((L, P, P), dtype=complex)
    Hw[:, np.arange(P), np.arange(P)] = g
    U = np.tile(np.eye(P, dtype=complex), (L, 1, 1))
    target = np.trace(Hw, axis1=1, axis2=2).real / P
    tol_abs = 1e-10 * np.maximum(np.abs(target), np.finfo(float).tiny)
    diag = np.diagonal(Hw, axis1=1, axis2=2)
    active = rows = np.arange(L)
    tol, blk, idx = tol_abs, active[:, None], np.empty((L, 2), dtype=np.intp)
    for _ in range(max_rotations):
        d = diag[active].real
        i, j = d.argmax(axis=1), d.argmin(axis=1)
        a, c = d[rows, i], d[rows, j]
        move = ~(a - c <= tol)
        moving = np.count_nonzero(move)
        if not moving:
            return U
        if moving < active.size:  # a block dropped out: gather the rest
            active, i, j, a, c = active[move], i[move], j[move], a[move], c[move]
            rows, tol, blk = np.arange(moving), tol_abs[active], active[:, None]
            idx = np.empty((moving, 2), dtype=np.intp)
        b = Hw[active, i, j]
        # np.abs on a complex array differs in the last bit from scalar abs; np.hypot does not
        mag = np.hypot(b.real, b.imag)
        phi = np.where(mag > 0, np.angle(b), 0.0)
        theta = 0.5 * np.arctan2(c - a, 2.0 * mag)
        ct, st = np.cos(theta), np.sin(theta)
        rot = np.exp(1j * phi)
        G = np.empty((moving, 2, 2), dtype=complex)
        G[:, 0, 0] = G[:, 1, 1] = ct
        G[:, 0, 1] = rot * st
        G[:, 1, 0] = -rot.conj() * st
        idx[:, 0], idx[:, 1] = i, j
        Hw[blk, idx] = G @ Hw[blk, idx]
        # (P, 2) column pairs laid out as Hw[:, idx] is, so each item runs the same gemm
        Hw[blk, :, idx] = (Hw[blk, :, idx].transpose(0, 2, 1)
                           @ _hermitian(G)).transpose(0, 2, 1)
        U[blk, idx] = G @ U[blk, idx]
    raise RuntimeError(
        f"diagonal equalization did not converge within {max_rotations} rotations")


@dataclass(frozen=True)
class AcquisitionDesign:
    """Per-tone analog combiner, digital filter and quantizer, held as (L, ...)
    tone stacks under the design bundle's array names. The tone count L is the
    first axis of every stack, e.g. len(design.digital_blocks).

    The filter on the quantized samples z is D = blkdiag(D_i) Fbar^H; it is
    never formed, apply_digital runs an FFT over tones and then each D_i.
    """

    combiner_blocks: np.ndarray  # B_i, (L, P, MN)
    digital_blocks: np.ndarray   # D_i, (L, J_i, P)
    gains_sq: np.ndarray         # Lam_i^2 diagonals, (L, P)
    water_levels: np.ndarray     # zeta_i, (L,)
    singvals: np.ndarray         # whitened task matrices' singular values, (L, min(J_i, MN))
    mixers: np.ndarray           # U_i, (L, P, P)
    block_emse: np.ndarray       # eps_i, (L,)
    support: float               # gamma
    levels: int                  # b
    eta: float
    channels: int                # P

    emse: float               # designed excess MSE over the LMMSE benchmark
    lmmse: float              # LMMSE of the task vector from unquantized data

    def apply_combiner(self, v_c: np.ndarray) -> np.ndarray:
        """Bbar @ v for a tone-major coefficient vector v."""
        return apply_blocks(self.combiner_blocks, v_c)

    def apply_digital(self, z: np.ndarray) -> np.ndarray:
        """D @ z = blkdiag(D_i) Fbar^H z for the quantized samples z."""
        return apply_blocks(self.digital_blocks, apply_fbar_adjoint(z, len(self.digital_blocks)))


# the arrays of a design bundle, in <prefix>.npz under these names
BUNDLE_ARRAYS = ("combiner_blocks", "digital_blocks", "gains_sq", "water_levels",
                 "singvals", "mixers", "block_emse")
# and its scalars, in <prefix>.json beside the config_hash of the design's config
_BUNDLE_SCALARS = ("support", "levels", "eta", "channels", "emse", "lmmse")


def design_multitone(stats: SignalStatistics, compression: np.ndarray,
                     channels, levels, eta) -> AcquisitionDesign:
    """Blockwise optimal design for L >= 1 tones under white statistics, of
    the compression's (L, J_i, MN) block stack M_i.

    One pass over the (L, ...) tone stacks: the reduced SVDs of the whitened
    task matrices, one waterfill on their (L, r) singular values, one
    equalizer call on the (L, P) gains Lam_i^2, the combiners
    B_i = U_i Lam_i V_i^H Sigma_i^{-1/2} and their MMSE filters D_i in closed
    form. The LMMSE comes from the same SVDs:
    Tr(T_i Sigma_i^{-1} T_i^H) is the squared norm of the singular values.
    """
    gamma = eta / np.sqrt(channels)
    noise_load = 4.0 * gamma * gamma / (3.0 * levels * levels)
    # Sigma_i^{-1/2} = inv_sqrt * I by numpy's power, as the eigh-based general
    # reference computes it; Python's float ** differs in the last bit for
    # about 1 in 20 values
    inv_sqrt = np.power(stats.sigma, -0.5)
    T = compression * stats.signal_var
    left, singvals, vh = np.linalg.svd(T * inv_sqrt, full_matrices=False)
    gains_sq, water_levels = waterfill(singvals, channels, levels, eta)
    # perfbench/spans.py wraps this module global for its combiner.equalizer
    # span, so the call must go through it; that need goes when the span goes
    mixers = equalizing_unitary(gains_sq)

    # modes past k = min(P, SVD width) get no gain: B_i = U_ik Lam_ik V_ik^H Sigma_i^{-1/2}
    k = min(channels, singvals.shape[1])
    gains = np.sqrt(gains_sq[:, :k])
    B = (mixers[:, :, :k] * gains[:, None, :]) @ vh[:, :k]
    B *= inv_sqrt
    # B_i Sigma_i B_i^H = U_i Lam_i^2 U_i^H and T_i B_i^H = W_ik S_ik Lam_ik U_ik^H,
    # so the MMSE filter is diagonal between the left vectors W_i and U_i
    shrink = singvals[:, :k] * gains / (gains_sq[:, :k] + noise_load)
    digital = (left[:, :, :k] * shrink[:, None, :]) @ _hermitian(mixers[:, :, :k])

    sq = singvals ** 2
    head = (water_levels[:, None] * singvals[:, :k] - 1.0).clip(min=0.0)
    block_emse = np.sum(sq[:, :k] / (head + 1.0), axis=1) + np.sum(sq[:, k:], axis=1)
    lmmse = (np.trace(T @ _hermitian(compression), axis1=1, axis2=2).real
             - np.sum(sq, axis=1))
    return AcquisitionDesign(
        combiner_blocks=B, digital_blocks=digital,
        gains_sq=gains_sq, water_levels=water_levels, singvals=singvals,
        mixers=mixers, block_emse=block_emse,
        support=float(gamma), levels=int(levels), eta=float(eta),
        channels=int(channels), emse=float(np.cumsum(block_emse)[-1]),
        lmmse=float(np.cumsum(lmmse)[-1]))  # running totals in tone order


# -- analog filter synthesis ----------------------------------------------

def _filter_table(design: AcquisitionDesign, config: RadarConfig):
    """(frequencies_hz, gains) of every analog filter: the M*L frequencies
    i/T0 + f_m in band-major order m*L + i, and the (P, N, M*L) table of gains
    T0 * B_i[p, m*N + n] for a flat pulse spectrum."""
    L, M, N = config.L, config.M, config.N
    freqs = (config.tone_indices / config.pri
             + config.tone_offsets[:, None]).reshape(-1)
    # (L, P, M*N) -> (P, N, M, L); the only whole-table temporary is this copy
    B = design.combiner_blocks.reshape(L, design.channels, M, N).transpose(1, 3, 2, 0)
    gains = np.multiply(config.pri, B, order="C")
    return freqs, gains.reshape(design.channels, N, M * L)


# '%.10g' text in scientific notation from numpy: a value's digits and
# exponent go into a 24-byte row from tables of byte strings viewed as
# integers. Row bytes: 0-3 sign, d0, '.', d1 (NUL for a dropped character);
# 4-7 unused; 8-15 d2..d9; 16-23 'e', the exponent's sign and its two or three
# digits. Bytes 0-3 and 8-20 are the 17 that can spell a value.
_G10_WIDTH, _G10_ROW = 17, 24
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _byte_table(texts, dtype):
    return np.frombuffer("".join(texts).encode("latin-1"), dtype)


# sign, d0, '.', d1 for every lead pair d0d1; from 100 on, d1 and the point
# dropped; from 200 on, the sign '-'
_LEAD = _byte_table((f"{sign}{k // 10}.{k % 10}" if keep else f"{sign}{k // 10}\0\0"
                     for sign in ("\0", "-") for keep in (True, False) for k in range(100)),
                    np.uint32)
# the four digits of every k < 10000 as ASCII bytes, and their trailing zeros;
# uint16 keeps every temporary small
_QUADS = np.arange(10000, dtype=np.uint16)[:, None]
_QUAD = (_QUADS // 10 ** np.arange(3, -1, -1, dtype=np.uint16) % 10 + ord("0")).astype(
    np.uint8).view(np.uint32).reshape(-1)
_QUAD_ZEROS = (_QUADS % 10 ** np.arange(1, 5, dtype=np.uint16) == 0).sum(axis=1)
_KEEP = _byte_table(("\xff" * (8 - k) + "\0" * k for k in range(9)), np.uint64)
_EXPONENT = _byte_table((f"e{k:+03d}".ljust(8, "\0") for k in range(-300, 301)), np.uint64)


def _format_g10(x, out):
    """Write '%.10g' % v of every float v of x into the uint8 rows of out,
    shape (x.size, 17), as ASCII padded with NUL bytes.

    A value that '%.10g' writes in scientific notation (decimal exponent e
    below -4 or above 9) gets the digits floor(|v| * 10^(9-e) + 1/2) with
    e = floor(log10 |v|) and 10^k parsed from "1ek", so the scaled value is off
    by at most 2.3e-6. Python formats every other value, in one call: those
    of fixed notation, those whose digits that bound leaves open (a fraction
    within 1e-5 of a tie, an exponent off by one, a carry to 10^(e+1)) and
    every 0, inf, nan or |v| outside (1e-290, 1e290)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(x)
    ok = (a > 1e-290) & (a < 1e290)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * _POW10.take(309 - e)
    m = np.floor(scaled)
    frac = scaled - m
    m += frac > 0.5
    slow = ~ok | ((e >= -4) & (e <= 9)) | (np.abs(frac - 0.5) < 1e-5) \
        | (scaled < 1e9) | (m >= 1e10)
    rest = np.flatnonzero(slow)
    # the digit pass runs on the other rows only
    fast = np.flatnonzero(~slow) if rest.size else slice(None)
    m, e = m[fast].astype(np.intp), e[fast]

    lead = m // 100000000
    m -= lead * 100000000
    hi = m // 10000
    lo = m - hi * 10000
    zeros = np.where(lo != 0, _QUAD_ZEROS.take(lo), np.where(
        hi != 0, 4 + _QUAD_ZEROS.take(hi), 8 + (lead % 10 == 0)))  # trailing, of d1..d9

    row = np.empty((m.size, _G10_ROW), dtype=np.uint8)
    words = row.view(np.uint32)
    words[:, 0] = _LEAD.take(lead + 100 * (zeros == 9) + 200 * (x[fast] < 0))
    words[:, 2] = _QUAD.take(hi)
    words[:, 3] = _QUAD.take(lo)
    quads = row.view(np.uint64)
    quads[:, 1] &= _KEEP.take(np.minimum(zeros, 8))
    quads[:, 2] = _EXPONENT.take(e + 300)
    out[fast, :4] = row[:, :4]
    out[fast, 4:] = row[:, 8:21]
    if rest.size:
        # '%.10g' text is at most 17 bytes wide, so left-justified fields line
        # up as rows; their space padding becomes NUL
        texts = b"%-17.10g" * rest.size % tuple(x[rest].tolist())
        rows = np.frombuffer(texts, dtype=np.uint8).reshape(-1, _G10_WIDTH)
        out[rest] = np.where(rows == ord(" "), 0, rows)


# channels per formatted block: few enough numpy calls per file, and a block
# buffer far smaller than the whole file
CSV_BLOCK_CHANNELS = 8


def write_filter_response_csv(design, config, path):
    """Rows (p, n, frequency_hz, re, im) over all channels and receive elements,
    numbers as '%.10g', written a block of channels at a time, the gains of
    each block formatted by _format_g10."""
    freqs, gains = _filter_table(design, config)
    P, N, ML = gains.shape
    # "p," of every channel and "n,frequency_hz," of every row of a channel,
    # as NUL-padded byte rows
    channel = np.array([b"%d," % p for p in range(P)])
    freq_texts = [b"%.10g," % f for f in freqs.tolist()]
    head = np.array([b"%d," % n + f for n in range(N) for f in freq_texts])
    wp, wh = channel.itemsize, head.itemsize
    re_at = wp + wh
    im_at = re_at + _G10_WIDTH + 1
    width = im_at + _G10_WIDTH + 1
    buf = np.empty((min(P, CSV_BLOCK_CHANNELS), N * ML, width), dtype=np.uint8)
    buf[:, :, wp:re_at] = head.view(np.uint8).reshape(N * ML, wh)
    buf[:, :, im_at - 1] = ord(",")
    buf[:, :, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"p,n,frequency_hz,re,im\n")
        for p0 in range(0, P, CSV_BLOCK_CHANNELS):
            block = gains[p0:p0 + CSV_BLOCK_CHANNELS]
            rows = buf[:len(block)]
            rows[:, :, :wp] = channel[p0:p0 + len(block)].view(np.uint8).reshape(-1, 1, wp)
            flat = rows.reshape(-1, width)
            _format_g10(block.real, flat[:, re_at:im_at - 1])
            _format_g10(block.imag, flat[:, im_at:im_at + _G10_WIDTH])
            fh.write(flat.tobytes().translate(None, b"\0"))


# -- design bundle I/O ------------------------------------------------------

def config_hash(config: RadarConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_design(design: AcquisitionDesign, path_prefix, config: RadarConfig) -> None:
    """Binary-plus-JSON bundle: the BUNDLE_ARRAYS tone stacks in <prefix>.npz,
    scalars in <prefix>.json."""
    np.savez(f"{path_prefix}.npz", **{name: getattr(design, name) for name in BUNDLE_ARRAYS})
    meta = {name: getattr(design, name) for name in _BUNDLE_SCALARS}
    meta["config_hash"] = config_hash(config)
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_design(path_prefix) -> AcquisitionDesign:
    """The design of a bundle written by save_design. A bundle whose .json
    lacks one of the scalars (support, levels, eta, channels, emse, lmmse), or
    whose .npz lacks one of BUNDLE_ARRAYS (such as one holding a dense
    `digital` filter in place of `digital_blocks`), raises ValueError naming
    the first missing one; other arrays (such as the `right_vectors` of older
    bundles) are ignored."""
    with open(f"{path_prefix}.json") as fh:
        meta = json.load(fh)
    for name in _BUNDLE_SCALARS:
        if name not in meta:
            raise ValueError(f"design bundle {path_prefix}.json has no {name!r} value")
    with np.load(f"{path_prefix}.npz") as data:
        for name in BUNDLE_ARRAYS:
            if name not in data.files:
                raise ValueError(f"design bundle {path_prefix}.npz has no {name!r} array")
        arrays = {name: data[name] for name in BUNDLE_ARRAYS}
    return AcquisitionDesign(**arrays, **{name: meta[name] for name in _BUNDLE_SCALARS})
