import numpy as np
import pytest

from bitmimo.adc import levels_from_budget, quantize_complex_vector, quantize_real


def bits_per_pri(channels, tones, levels):
    """Total bit spend for one sample-vector: 2 * P * L * ceil(log2 b)."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    return 2 * channels * tones * int(np.ceil(np.log2(levels)))


def test_two_level_examples():
    assert quantize_real(0.3, 2, 1.0) == pytest.approx(0.5)
    assert quantize_real(-0.7, 2, 1.0) == pytest.approx(-0.5)
    assert quantize_real(1.5, 2, 1.0) == pytest.approx(0.5)  # saturation branch


def test_four_level_example():
    assert quantize_real(0.1, 4, 1.0) == pytest.approx(0.25)
    assert quantize_real(-0.6, 4, 1.0) == pytest.approx(-0.75)


def test_output_alphabet():
    levels = -2.0 + (4.0 / 8) * (np.arange(8) + 0.5)
    x = np.random.default_rng(0).uniform(-4, 4, size=4000)
    z = quantize_real(x, 8, 2.0)
    assert np.all(np.isclose(z[:, None], levels[None, :]).any(axis=1))


def test_levels_validation():
    rng = np.random.default_rng(0)
    for quantize in (lambda b, g: quantize_real(0.1, b, g),
                     lambda b, g: quantize_complex_vector([0.1j], b, g, rng)):
        with pytest.raises(ValueError, match="power of two"):
            quantize(3, 1.0)
        with pytest.raises(ValueError, match="power of two"):
            quantize(1, 1.0)
        with pytest.raises(ValueError, match="support must be positive"):
            quantize(4, 0.0)
    with pytest.raises(ValueError, match="power of two"):
        quantize_real(0.1, 0, 1.0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="finite"):
        quantize_real(np.array([np.nan]), 2, 1.0)
    with pytest.raises(ValueError, match="finite"):
        quantize_complex_vector(np.array([1.0, np.inf * 1j]), 2, 1.0,
                                np.random.default_rng(0))


def test_no_dither_fixed_points():
    # mid-rise levels are fixed points (per real dimension; the alphabet has
    # no zero level, so both parts must sit on the grid)
    lv = np.array([-0.75, -0.25, 0.25, 0.75])
    grid = (lv[:, None] + 1j * lv[None, :]).ravel()
    assert np.allclose(quantize_real(grid.real, 4, 1.0)
                       + 1j * quantize_real(grid.imag, 4, 1.0), grid)
    assert np.allclose(quantize_real(lv, 4, 1.0), lv)


def test_dither_zero_input_symmetry():
    rng = np.random.default_rng(1)
    z, _ = quantize_complex_vector(np.zeros(20000, dtype=complex), 2, 1.0, rng)
    assert set(np.unique(z.real)) == {-0.5, 0.5}
    assert abs(np.mean(z.real)) < 0.02  # each level with probability ~1/2
    assert abs(np.mean(z.imag)) < 0.02


def test_nonoverload_error_bounds():
    # |Q(x) - x| <= step/2 undithered, <= step when dithered, whenever
    # |x| + step/2 <= support.
    rng = np.random.default_rng(2)
    step = 2.0 / 8
    x = rng.uniform(-1 + step / 2, 1 - step / 2, size=5000)
    assert np.max(np.abs(quantize_real(x, 8, 1.0) - x)) <= step / 2 + 1e-12
    xc = x.astype(complex)
    z, _ = quantize_complex_vector(xc, 8, 1.0, rng)
    assert np.max(np.abs(z.real - x)) <= step + 1e-12


def test_dither_error_variance_and_whitening():
    # Non-overloaded Gaussian inputs: error variance per real dimension is
    # step^2/6 within 3%, and the error is uncorrelated with the input.
    rng = np.random.default_rng(3)
    sigma = 1.0
    support = 4.0 * sigma
    step = 2.0 * support / 16
    n = 1_000_000
    v = (rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)) * sigma
    keep = (np.abs(v.real) < support - step) & (np.abs(v.imag) < support - step)
    v = v[keep]
    z, _ = quantize_complex_vector(v, 16, support, rng)
    err = np.concatenate([(z - v).real, (z - v).imag])
    x = np.concatenate([v.real, v.imag])
    assert np.var(err) == pytest.approx(step ** 2 / 6.0, rel=0.03)
    corr = np.corrcoef(err, x)[0, 1]
    assert abs(corr) <= 0.01


def test_complex_error_constant_matches_design_load():
    # per complex sample the dithered error variance is 4*gamma^2/(3*b^2)
    rng = np.random.default_rng(4)
    gamma, b = 2.0, 8
    v = (rng.standard_normal(300_000) + 1j * rng.standard_normal(300_000)) * (gamma / 4)
    z, _ = quantize_complex_vector(v, b, gamma, rng)
    e2 = np.mean(np.abs(z - v) ** 2)
    assert e2 == pytest.approx(4 * gamma ** 2 / (3 * b ** 2), rel=0.03)


def test_saturation_rate_at_designed_support():
    # eta = 2 on proper-complex Gaussian inputs: per-real-dim saturation <= 6%
    rng = np.random.default_rng(5)
    var = 0.7
    eta = 2.0
    v = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) * np.sqrt(var / 2)
    _, sat = quantize_complex_vector(v, 4, eta * np.sqrt(var), rng)
    assert sat <= 0.06


def test_bits_accounting():
    assert bits_per_pri(48, 9, 4) == 1728
    assert bits_per_pri(1, 1, 2) == 2
    assert levels_from_budget(1728, 48, 9) == 4   # dcr=2 at paper scale
    assert levels_from_budget(1728, 24, 9) == 16  # dcr=4
    with pytest.raises(ValueError):
        levels_from_budget(100, 48, 9)


def test_budget_roundtrip():
    for p, tones, b in ((4, 3, 2), (48, 9, 4), (24, 9, 16)):
        budget = bits_per_pri(p, tones, b)
        assert levels_from_budget(budget, p, tones) == b


def test_budget_past_float64_rejected():
    # 53 bits per real sample is the most whose cell index float64 holds exactly;
    # 54 and a budget whose level count overflows a float are refused by count
    assert levels_from_budget(2 * 53, 1, 1) == 2 ** 53
    for budget, bits in ((2 * 54, 54), (2 * 18000, 18000), (10 ** 6, 500000)):
        with pytest.raises(ValueError, match=f"gives {bits} bits per real sample"):
            levels_from_budget(budget, 1, 1)
