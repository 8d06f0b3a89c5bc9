"""Uniform mid-rise quantizers with non-subtractive dither and bit accounting.

The scalar quantizer with b levels and support gamma maps x inside the support
to the nearest of the levels -gamma + (2*gamma/b)*(l + 1/2), l = 0..b-1, and
saturates to sign(x)*(gamma - gamma/b) outside. Complex values are quantized
per real dimension. Dither draws are uniform on [-step/2, step/2], added before
quantizing and not subtracted afterwards; for smooth non-overloaded inputs this
leaves an error of variance step^2/6 per real dimension that is uncorrelated
with the input, i.e. 4*gamma^2/(3*b^2) per complex sample.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quantize_real",
    "quantize_complex_vector",
    "levels_from_budget",
]


def quantize_real(x, levels, support):
    """Mid-rise quantization of a real array with `levels` (b) levels on
    [-support, support]; saturates outside the support. Undithered."""
    if levels < 2 or (levels & (levels - 1)) != 0:
        raise ValueError(f"levels must be a power of two >= 2, got {levels}")
    if support <= 0:
        raise ValueError("support must be positive")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    step = 2.0 * support / levels
    cell = np.clip(np.floor((x + support) / step), 0, levels - 1)
    return -support + step * (cell + 0.5)


def quantize_complex_vector(v, levels, support, rng):
    """Dithered quantization of real and imaginary parts: an independent
    uniform draw on [-step/2, step/2] from rng is added to every real dimension
    before quantizing (non-subtractive). Returns the quantized vector and the
    fraction of real dimensions whose dithered value fell outside
    [-support, support]. quantize_real checks levels, support and that v is
    finite."""
    v = np.asarray(v, dtype=complex)
    step = 2.0 * support / levels
    parts = np.stack([v.real, v.imag])
    parts = parts + rng.uniform(-step / 2.0, step / 2.0, size=parts.shape)
    z = quantize_real(parts, levels, support)
    sat = float(np.mean(np.abs(parts) > support)) if parts.size else 0.0
    return z[0] + 1j * z[1], sat


# Past 2**53 levels the float64 cell index of quantize_real is no longer exact.
MAX_BITS_PER_REAL = 53


def levels_from_budget(budget_bits: int, channels: int, tones: int) -> int:
    """Largest power-of-two level count whose spend fits the budget, from one
    to MAX_BITS_PER_REAL bits per real sample."""
    per_real = budget_bits // (2 * channels * tones)
    if per_real < 1:
        raise ValueError(
            f"budget {budget_bits} is below one bit per real sample "
            f"(2*{channels}*{tones} = {2 * channels * tones})")
    if per_real > MAX_BITS_PER_REAL:
        raise ValueError(
            f"budget {budget_bits} gives {per_real} bits per real sample "
            f"(2*{channels}*{tones} = {2 * channels * tones}), more than the "
            f"{MAX_BITS_PER_REAL} a float64 quantizer resolves")
    return 2 ** int(per_real)
