import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import bitmimo as bm
from bitmimo import combiner
from bitmimo.adc import quantize_complex_vector
from bitmimo.combiner import (BUNDLE_ARRAYS, CSV_BLOCK_CHANNELS, _filter_table, _format_g10,
                              design_multitone, equalizing_unitary, load_design, save_design,
                              waterfill, waterfill_gain, write_filter_response_csv)
from bitmimo.dictionary import apply_fbar
from bitmimo.statistics import build_compression_matrix, build_covariances, lmmse_transform
from dense_oracle import (blkdiag, block_from_responses, dense_digital,
                          digital_filter_mse, reference_design_multitone,
                          reference_emse_of_combiner, reference_equalizing_unitary,
                          reference_filter_response, reference_lmmse_error,
                          reference_lmmse_transform, reference_support_gamma,
                          reference_waterfill, reference_write_filter_response_csv,
                          stacked_statistics)
from layouts import make_random_array_config, make_ula_config


def _bisect_water_level(lam, channels, levels, eta, block_rows):
    """Independent oracle: bisection on the normalization residual."""
    coef = 4 * eta ** 2 / (3 * levels ** 2 * channels)
    r_max = min(channels, block_rows)

    def residual(zeta):
        head = np.clip(zeta * lam[:r_max] - 1.0, 0.0, None)
        return coef * head.sum() - 1.0

    lo, hi = 1.0 / lam[0], 1.0 / lam[0] + 2.0 * (1.0 + 1.0 / coef) / lam[0]
    while residual(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- waterfill ----------------------------------------------------------------

def test_waterfill_uniform_allocation():
    lam = np.full((1, 4), 2.5)
    alloc, zeta = waterfill(lam, channels=4, levels=2, eta=2.0)
    assert alloc.shape == (1, 4) and zeta.shape == (1,)
    assert np.allclose(alloc, 0.25)
    assert zeta[0] * lam[0, 0] > 1


def test_waterfill_single_mode_closed_form():
    alloc, zeta = waterfill([[1.0]], channels=1, levels=2, eta=1.5)
    assert np.allclose(alloc, [[1.0]])
    assert zeta[0] == pytest.approx(1.0 + 3 * 4 / (4 * 1.5 ** 2))


def test_waterfill_two_mode_worked_example():
    # coef = 4*eta^2/(3 b^2 P) = 1/2 with eta = sqrt(3), b = 2, P = 2:
    # zeta = 4/3, allocation (5/6, 1/6)
    alloc, zeta = waterfill([[2.0, 1.0]], channels=2, levels=2, eta=np.sqrt(3.0))
    assert zeta[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert np.allclose(alloc[0], [5.0 / 6.0, 1.0 / 6.0])


def test_waterfill_against_bisection_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lam = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
        channels = int(rng.integers(1, 7))
        levels = 2 ** int(rng.integers(1, 5))
        eta = rng.uniform(1.0, 3.0)
        block_rows = int(rng.integers(1, n + 1))
        (alloc,), (zeta,) = waterfill([lam[:block_rows]], channels, levels, eta)
        coef = 4 * eta ** 2 / (3 * levels ** 2 * channels)
        assert alloc.sum() == pytest.approx(1.0, abs=1e-10)  # normalization
        zeta_oracle = _bisect_water_level(lam, channels, levels, eta, block_rows)
        active = alloc > 0
        r = int(np.count_nonzero(active))
        assert r <= min(channels, block_rows)
        # bisection may sit anywhere inside a flat region when the active set
        # saturates; compare through the allocation instead of zeta directly
        head = coef * np.clip(zeta_oracle * lam[:len(alloc)] - 1, 0, None)
        head[min(channels, block_rows):] = 0.0
        assert np.allclose(alloc[:r], coef * (zeta * lam[:r] - 1))
        assert abs(head.sum() - 1.0) < 1e-6


def _assert_waterfill_matches_scan(singvals, channels, levels, eta, block_rows):
    """The stacked waterfill on the first block_rows modes gives every tone
    bitwise the allocation and water level of the one-tone active-set scan
    capped at block_rows."""
    alloc, zeta = waterfill(singvals[:, :block_rows], channels, levels, eta)
    assert alloc.shape == (len(singvals), channels) and zeta.shape == (len(singvals),)
    for lam, got_alloc, got_zeta in zip(singvals, alloc, zeta):
        want_alloc, want_zeta = reference_waterfill(lam, channels, levels, eta, block_rows)
        assert np.array_equal(got_alloc, want_alloc) and got_zeta == want_zeta


def test_waterfill_zero_tail_modes():
    alloc, _ = waterfill([[3.0, 1e-18, 0.0]], channels=3, levels=4, eta=2.0)
    assert alloc[0, 0] == pytest.approx(1.0)
    # a value past a zero, within the sort tolerance, gets no gain, even at
    # levels fine enough for the same value past a positive one to get some
    lam = np.array([[1.0, 0.0, 1e-13], [1.0, 0.5, 1e-13]])
    alloc, _ = waterfill(lam, channels=3, levels=2 ** 31, eta=2.0)
    assert alloc[0, 2] == 0.0 and alloc[1, 2] > 0.0
    _assert_waterfill_matches_scan(lam, 3, 2 ** 31, 2.0, 3)


def test_waterfill_closed_form_matches_active_set_scan():
    # the largest feasible active set is the one the scan accepts: bitwise
    # equal allocations and water levels on stacks that mix random, tied,
    # all-equal and zero-tailed spectra
    rng = np.random.default_rng(31)
    for case in range(100):
        size = int(rng.integers(1, 40))
        tones = []
        for tone in range(int(rng.integers(1, 10))):
            lam = np.sort(rng.exponential(size=size))[::-1]
            if (case + tone) % 4 == 1:
                lam = np.repeat(lam[:-(-size // 3)], 3)[:size]
            elif (case + tone) % 4 == 2:
                lam = np.full(size, rng.exponential())
            elif (case + tone) % 4 == 3:
                lam[int(rng.integers(1, size + 1)):] = 0.0
            tones.append(lam)
        channels = int(rng.integers(1, 50))
        block_rows = int(rng.integers(1, 50))
        levels = 2 ** int(rng.integers(1, 8))
        eta = float(rng.uniform(0.5, 4.0))
        _assert_waterfill_matches_scan(np.stack(tones), channels, levels, eta, block_rows)


def test_waterfill_gain_bounds_the_first_water_level():
    # at the largest coef the check passes, 1/coef + 1 = 1 + 2 ulp, and the
    # first mode clears the water level for any lam_1; one ulp lower the check
    # refuses, and so does a coef whose reciprocal is infinite
    eps = np.finfo(float).eps
    channels, levels = 3, 4
    eta_of = lambda coef: np.sqrt(coef * 3.0 * levels * levels * channels / 4.0)
    eta = eta_of(0.5 / eps)
    assert 1.0 / waterfill_gain(channels, levels, eta) + 1.0 == 1.0 + 2.0 * eps
    lams = np.random.default_rng(24).uniform(0.1, 10.0, 2000)
    lams = np.concatenate([lams, np.nextafter(1.0, [0.0, 2.0]), [1.0]])
    alloc, zeta = waterfill(lams[:, None], channels, levels, eta)
    assert np.all(zeta * lams > 1.0) and np.all(alloc[:, 0] > 0)
    for bad in (eta_of(1.0 / eps), 1e300, 1e-200):
        with pytest.raises(ValueError, match="no mode above the water level"):
            waterfill([[1.0, 0.5]], channels, levels, bad)


def test_waterfill_rejects_bad_input():
    # one all-zero, negative, NaN or unsorted tone refuses the whole stack,
    # and so does a stack that is not 2-D
    good = [3.0, 1.0, 0.5]
    for stack, message in (([good, [0.0, 0.0, 0.0]], "a positive one"),
                           ([good, [1.0, 0.5, -0.5]], "nonnegative"),
                           ([good, [1.0, np.nan, 0.5]], "nonnegative"),
                           ([good, [1.0, 2.0, 0.5]], "descending"),
                           (good, r"an \(L, r\) stack"),
                           ([[good]], r"an \(L, r\) stack"),
                           (np.empty((2, 0)), r"an \(L, r\) stack")):
        with pytest.raises(ValueError, match=message):
            waterfill(stack, channels=2, levels=2, eta=2.0)


# -- equalizing unitary --------------------------------------------------------

def test_equalizer_scaled_identity_is_fixed_point():
    # an all-equal tone takes no rotation
    U = equalizing_unitary(np.full((1, 4), 3.0))
    assert U.shape == (1, 4, 4)
    assert np.array_equal(U[0], np.eye(4))


def test_equalizer_two_by_two_half_split():
    U = equalizing_unitary([[1.0, 0.0]])[0]
    out = U @ np.diag([1.0, 0.0]) @ U.conj().T
    assert np.allclose(np.diag(out).real, 0.5, atol=1e-10)
    # a 45-degree rotation achieves it
    assert np.allclose(np.abs(U), np.full((2, 2), np.sqrt(0.5)), atol=1e-10)


def test_equalizer_stack_rejects_any_bad_block():
    # one negative or non-finite gain refuses the whole stack, and so does a
    # stack that is not 2-D
    stack = np.tile([3.0, 1.0, 0.0], (4, 1))
    for value in (-1e-300, np.nan, np.inf):
        bad = stack.copy()
        bad[2, 1] = value
        with pytest.raises(ValueError, match="finite nonnegative"):
            equalizing_unitary(bad)
    for shape in ((3,), (4, 3, 3)):
        with pytest.raises(ValueError, match=r"\(L, P\) stack"):
            equalizing_unitary(np.ones(shape))


def test_equalizer_that_never_converges_raises(monkeypatch):
    # with every rotation angle zero, each rotation is the identity and the
    # spread never shrinks: the 50*P^2 cap is reached and the call refuses
    monkeypatch.setattr(np, "arctan2", lambda y, x: np.zeros(np.broadcast(y, x).shape))
    with pytest.raises(RuntimeError, match="did not converge within 200 rotations"):
        equalizing_unitary([[2.0, 0.5]])


def test_equalizer_stack_matches_reference_loop_on_mixed_blocks():
    # blocks that need different rotation counts, zero gains, and an all-equal
    # block that needs none, rotate in lockstep exactly as each does alone and
    # as the one-matrix loop does on diag(g)
    rng = np.random.default_rng(16)
    for P in (2, 5, 8):
        sparse = np.zeros(P)
        sparse[:max(1, P // 3)] = rng.uniform(0.5, 2.0, size=max(1, P // 3))
        waterfilled = waterfill(np.sort(rng.exponential(size=(1, P)))[:, ::-1], P, 4,
                                2.0)[0][0]
        stack = np.stack([sparse, np.full(P, 2.5), rng.uniform(0.0, 1.0, size=P),
                          np.zeros(P), waterfilled])
        U = equalizing_unitary(stack)
        assert U.shape == (len(stack), P, P)
        assert np.array_equal(U[1], np.eye(P)) and np.array_equal(U[3], np.eye(P))
        for k, (g, U_block) in enumerate(zip(stack, U)):
            assert np.array_equal(U_block, reference_equalizing_unitary(np.diag(g)))
            assert np.array_equal(equalizing_unitary(stack[k:k + 1])[0], U_block)


@pytest.mark.parametrize("dcr", [2, 4])
def test_equalizer_stack_matches_reference_loop_at_paper_scale(dcr):
    # the design's one stacked call on the nine Lam_i^2 of an M=8, N=12, L=9
    # design (P = 48, 24) gives each tone the one-matrix loop's mixer
    cfg = make_ula_config(8, 12, 1e6, 9e-6, sigma_n_sq=0.1)
    assert cfg.L == 9
    stats = build_covariances(cfg, K=4)
    comp = build_compression_matrix(np.random.default_rng(17), cfg, dcr, "gaussian")
    design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
    assert design.channels == 96 // dcr
    for gains_sq, mixer in zip(design.gains_sq, design.mixers):
        assert np.array_equal(mixer, reference_equalizing_unitary(np.diag(gains_sq)))


# -- block design --------------------------------------------------------------

def _one_tone_design(m_block, signal_var, noise_var, channels, levels, eta):
    """(stacked statistics, compression, design): design_multitone at L = 1 on
    one tone's task matrix with cov(c) = signal_var*I, cov(w) = noise_var*I."""
    stats = bm.SignalStatistics(signal_var=signal_var, noise_var=noise_var)
    comp = m_block[None]
    return (stacked_statistics(stats, comp), comp,
            design_multitone(stats, comp, channels, levels, eta))


def test_design_block_isotropic_case():
    # M_i R_c = Sigma^{1/2} scaled so the whitened task matrix is the identity:
    # all singular values equal, uniform waterfill, B Sigma B^H proportional to I
    mn = 4
    m_block = np.sqrt(2.0) * np.eye(mn, dtype=complex)  # M Rc = Sigma^{1/2}
    stats, _, design = _one_tone_design(m_block, 1.0, 1.0, channels=mn, levels=4, eta=2.0)
    B = design.combiner_blocks[0]
    assert np.allclose(design.singvals[0], 1.0)
    assert np.allclose(design.gains_sq[0], 1.0 / mn)
    bsb = B @ stats.sigma[0] @ B.conj().T
    assert np.allclose(bsb, np.eye(mn) / mn, atol=1e-8)


def test_design_block_single_task_row_is_rank_one():
    rng = np.random.default_rng(2)
    mn = 5
    m_block = (rng.standard_normal((1, mn)) + 1j * rng.standard_normal((1, mn)))
    _, _, design = _one_tone_design(m_block, 2.0, 0.5, channels=3, levels=4, eta=2.0)
    assert np.linalg.matrix_rank(design.combiner_blocks[0], tol=1e-9) == 1
    assert np.count_nonzero(design.gains_sq[0] > 0) == 1


def test_design_block_beats_random_search():
    rng = np.random.default_rng(3)
    mn, ji, channels, levels, eta = 4, 4, 4, 4, 2.0
    m_block = rng.standard_normal((ji, mn)) + 1j * rng.standard_normal((ji, mn))
    stats, comp, design = _one_tone_design(m_block, 1.5, 0.7, channels, levels, eta)
    sigma = stats.sigma[0]
    designed = reference_emse_of_combiner(design.combiner_blocks, stats, comp,
                                          eta / np.sqrt(channels), levels)
    assert designed == pytest.approx(design.block_emse[0], rel=1e-9)
    for _ in range(200):
        B = rng.standard_normal((channels, mn)) + 1j * rng.standard_normal((channels, mn))
        scale = np.sqrt(np.trace(B @ sigma @ B.conj().T).real)
        B /= scale  # unit-trace candidate
        gamma_rand = reference_support_gamma(B[None], stats, eta)
        rand = reference_emse_of_combiner(B[None], stats, comp, gamma_rand, levels)
        assert designed <= rand * (1 + 1e-9)


def _explicit_filter(design, stats, comp):
    """The MMSE filter T_i B_i^H (B_i Sigma_i B_i^H + q I)^{-1} of every tone
    of the design's combiner, by a solve per tone."""
    stats = stacked_statistics(stats, comp)
    q = 4.0 * design.support ** 2 / (3.0 * design.levels ** 2)
    out = []
    for B, m_block, cov_sig, sigma in zip(design.combiner_blocks, comp,
                                          stats.cov_signal, stats.sigma):
        inner = B @ sigma @ B.conj().T + q * np.eye(design.channels)
        TB = m_block @ cov_sig @ B.conj().T
        out.append(np.linalg.solve(inner.conj().T, TB.conj().T).conj().T)
    return np.stack(out)


def _assert_closed_form_design(stats, comp, channels, levels, eta):
    """The design's closed-form D_i equal the explicit filters within 1e-12
    relative per tone, and the reduced SVD of the whitened task matrices gives
    bitwise the singular values of the full SVD, on which the water levels and
    every mixer rest."""
    design = design_multitone(stats, comp, channels, levels, eta)
    want = _explicit_filter(design, stats, comp)
    err = np.linalg.norm(design.digital_blocks - want, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2))), err
    whitened = (comp * stats.signal_var) * np.power(stats.sigma, -0.5)
    full = np.linalg.svd(whitened, full_matrices=True)[1]
    assert np.array_equal(np.linalg.svd(whitened, full_matrices=False)[1], full)
    assert np.array_equal(design.singvals, full)
    return design


@pytest.mark.parametrize("layout", ["ula", "random"])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "dft"])
@pytest.mark.parametrize("dcr", [1, 2, 4])
def test_closed_form_filter_matches_explicit_filter(layout, kind, dcr):
    # M=8, N=12, L=9 with P = J_i and P = J_i - 3 channels: the closed-form
    # filters at -10 and 20 dB and 16 levels, and the stacked waterfill on the
    # design's singular values from -10 to 20 dB at 2 to 256 levels. White
    # statistics leave the design only L, MN and the compression to read, so
    # on one compression draw both layouts give the same design bit for bit:
    # the random layout takes a second draw
    if layout == "ula":
        base = make_ula_config(8, 12, 1e6, 9e-6)
    else:
        base = make_random_array_config(np.random.default_rng(26), 8, 12, 1e6, 9e-6)
    first, second = (build_compression_matrix(np.random.default_rng([dcr, len(kind), *key]),
                                              base, dcr, kind) for key in ((), (1,)))
    assert not np.array_equal(first, second)
    comp = first if layout == "ula" else second
    for snr_db in (-10.0, 0.0, 10.0, 20.0):
        cfg = base.at_snr(snr_db)
        stats = build_covariances(cfg, K=4)
        singvals = np.linalg.svd((comp * stats.signal_var)
                                 * np.power(stats.sigma, -0.5), full_matrices=False)[1]
        for channels in (comp.shape[1], comp.shape[1] - 3):
            if snr_db in (-10.0, 20.0):
                design = _assert_closed_form_design(stats, comp, channels, 16, cfg.eta)
                assert np.array_equal(design.singvals, singvals)
            for levels in 2 ** np.arange(1, 9):
                _assert_waterfill_matches_scan(singvals, channels, int(levels), cfg.eta,
                                               comp.shape[1])


@pytest.mark.parametrize("rows, channels, mn", [(1, 3, 5), (2, 5, 5), (4, 2, 6), (7, 5, 3)])
def test_closed_form_filter_on_small_blocks(rows, channels, mn):
    # J_i < P leaves channels with no gain, and J_i > MN leaves task rows
    # with no singular value: k = min(P, J_i, MN) modes enter the filter
    rng = np.random.default_rng(rows * 100 + channels * 10 + mn)
    m_block = rng.standard_normal((rows, mn)) + 1j * rng.standard_normal((rows, mn))
    stats = bm.SignalStatistics(signal_var=2.0, noise_var=0.5)
    design = _assert_closed_form_design(stats, m_block[None], channels, 4, 2.0)
    k = min(rows, channels, mn)
    assert np.linalg.matrix_rank(design.digital_blocks[0], tol=1e-9) == k
    assert np.count_nonzero(design.gains_sq[0]) <= k


# -- full designs ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_design():
    cfg = make_ula_config(2, 3, 1e6, 3e-6, sigma_n_sq=0.25)
    d = bm.build_dictionary(cfg)
    stats = build_covariances(cfg, K=3)
    comp = build_compression_matrix(np.random.default_rng(5), cfg, 2, "gaussian")
    channels = comp.shape[1]
    design = design_multitone(stats, comp, channels, levels=4, eta=cfg.eta)
    return cfg, d, stats, comp, design


def test_design_invariants(small_design):
    cfg, _, stats, comp, design = small_design
    stats = stacked_statistics(stats, comp)
    assert design.support == pytest.approx(cfg.eta / np.sqrt(design.channels), abs=1e-12)
    for i, B in enumerate(design.combiner_blocks):
        assert design.gains_sq[i].sum() == pytest.approx(1.0, abs=1e-10)
        bsb = B @ stats.sigma[i] @ B.conj().T
        dg = np.diag(bsb).real
        assert dg.max() - dg.min() <= 1e-8 * np.trace(bsb).real / design.channels
        assert np.all(np.diff(design.singvals[i]) <= 1e-12)


def test_design_self_consistency(small_design):
    _, _, stats, comp, design = small_design
    stats = stacked_statistics(stats, comp)
    val = reference_emse_of_combiner(design.combiner_blocks, stats, comp,
                                     design.support, design.levels)
    assert val == pytest.approx(design.emse, rel=1e-9)
    # the optimal digital filter attains exactly the designed excess error
    dmse = digital_filter_mse(dense_digital(design), design.combiner_blocks, stats,
                              comp, design.support, design.levels)
    assert dmse == pytest.approx(design.emse, rel=1e-9)


def test_zero_combiner_loses_all_estimation_value(small_design):
    _, _, stats, comp, design = small_design
    stats = stacked_statistics(stats, comp)
    zero = np.zeros_like(design.combiner_blocks)
    val = reference_emse_of_combiner(zero, stats, comp, design.support, design.levels)
    expected = 0.0
    for i in range(stats.L):
        T = comp[i] @ stats.cov_signal[i]
        expected += np.trace(T @ np.linalg.solve(stats.sigma[i], T.conj().T)).real
    assert val == pytest.approx(expected, rel=1e-12)


def test_monotone_reduction():
    # L = 1: the sample-domain DFT is the identity, so the design is the single
    # block's combiner followed by its MMSE digital filter
    cfg = make_ula_config(4, 1, 1e6, 1e-6, sigma_n_sq=0.5)
    assert cfg.L == 1
    stats = build_covariances(cfg, K=2)
    comp = build_compression_matrix(np.random.default_rng(6), cfg, 2, "gaussian")
    multi = design_multitone(stats, comp, 2, 4, cfg.eta)
    assert multi.emse == multi.block_emse[0]
    stats = stacked_statistics(stats, comp)
    B, q = multi.combiner_blocks[0], 4 * multi.support ** 2 / (3 * 4 ** 2)
    inner = B @ stats.sigma[0] @ B.conj().T + q * np.eye(2)
    T = comp[0] @ stats.cov_signal[0]
    D = T @ B.conj().T @ np.linalg.inv(inner)
    assert np.allclose(multi.digital_blocks[0], D)
    z = np.random.default_rng(6).standard_normal(2) + 0j
    assert np.allclose(multi.apply_digital(z), D @ z)


def test_design_makes_one_equalizer_call(monkeypatch):
    import bitmimo.combiner as combiner
    calls = []

    def counted(gains_sq):
        calls.append(np.shape(gains_sq))
        return equalizing_unitary(gains_sq)

    monkeypatch.setattr(combiner, "equalizing_unitary", counted)
    cfg = make_ula_config(2, 3, 1e6, 3e-6, sigma_n_sq=0.25)
    stats = build_covariances(cfg, K=3)
    comp = build_compression_matrix(np.random.default_rng(5), cfg, 2, "gaussian")
    design_multitone(stats, comp, 3, 4, cfg.eta)
    assert calls == [(cfg.L, 3)]


def test_identical_blocks_share_water_level():
    cfg = make_ula_config(2, 2, 1e6, 3e-6, sigma_n_sq=0.3)
    stats = build_covariances(cfg, K=2)
    one = build_compression_matrix(np.random.default_rng(7), cfg, 2, "gaussian")[0]
    comp = np.tile(one, (cfg.L, 1, 1))
    design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
    zs, es = design.water_levels, design.block_emse
    assert np.allclose(zs, zs[0])
    assert np.allclose(es, es[0])
    assert design.emse == pytest.approx(cfg.L * es[0], rel=1e-12)


def test_infinite_resolution_limit():
    # b enormous and P >= J: every mode's excess error term vanishes
    cfg = make_ula_config(4, 1, 1e6, 1e-6, sigma_n_sq=0.5)
    stats = build_covariances(cfg, K=2)
    comp = build_compression_matrix(np.random.default_rng(8), cfg, 2, "gaussian")
    design = design_multitone(stats, comp, 4, 2 ** 31, cfg.eta)
    assert design.emse <= 1e-12 * design.lmmse + 1e-12


def test_low_channel_count_pays_the_tail():
    # P < J: the excess error includes the unserved singular-value tail
    cfg = make_ula_config(4, 1, 1e6, 1e-6, sigma_n_sq=0.5)
    stats = build_covariances(cfg, K=2)
    comp = build_compression_matrix(np.random.default_rng(9), cfg, 1, "gaussian")
    design = design_multitone(stats, comp, 1, 2 ** 31, cfg.eta)
    lam = design.singvals[0]
    assert design.emse >= np.sum(lam[1:] ** 2) * (1 - 1e-9)


def test_emse_monotone_in_levels_and_channels():
    cfg = make_ula_config(2, 2, 1e6, 3e-6, sigma_n_sq=0.4)
    stats = build_covariances(cfg, K=3)
    comp = build_compression_matrix(np.random.default_rng(10), cfg, 2, "gaussian")
    by_levels = [design_multitone(stats, comp, 2, b, cfg.eta).emse
                 for b in (2, 4, 8, 16)]
    assert np.all(np.diff(by_levels) <= 1e-12)
    by_channels = [design_multitone(stats, comp, p, 4, cfg.eta).emse
                   for p in range(1, cfg.mn + 1)]
    assert np.all(np.diff(by_channels) <= 1e-12)


def test_design_monotone_matches_dithered_simulation():
    # MN=4, J=2, P=2, b=4, eta=2: the modeled excess error matches a dithered
    # quantization simulation within 10% over 2e4 trials
    cfg = make_ula_config(1, 4, 1e6, 1e-6, sigma_n_sq=0.5)
    assert cfg.L == 1 and cfg.mn == 4
    K = 2
    stats = build_covariances(cfg, K)
    comp = build_compression_matrix(np.random.default_rng(11), cfg, 2, "gaussian")
    design = design_multitone(stats, comp, 2, 4, cfg.eta)

    rng = np.random.default_rng(12)
    n = 20_000
    c = np.sqrt(K / 2) * (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
    w = np.sqrt(0.5 / 2) * (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
    v = c + w
    gamma_t = blkdiag(lmmse_transform(comp, stats))
    s_tilde = v @ gamma_t.T
    u = v @ design.combiner_blocks[0].T
    z, _ = quantize_complex_vector(u, 4, design.support, rng)
    s_hat = z @ dense_digital(design).T
    emp = np.mean(np.sum(np.abs(s_tilde - s_hat) ** 2, axis=1))
    assert emp == pytest.approx(design.emse, rel=0.10)


def test_support_consistency_monte_carlo(small_design):
    # max per-channel variance of Fbar Bbar (c+w) equals gamma^2/eta^2 within 5%
    cfg, _, stats, comp, design = small_design
    rng = np.random.default_rng(13)
    n = 10_000
    K = 3
    c = np.sqrt(K / 2) * (rng.standard_normal((n, cfg.mnl)) + 1j * rng.standard_normal((n, cfg.mnl)))
    w = np.sqrt(cfg.sigma_n_sq / 2) * (rng.standard_normal((n, cfg.mnl))
                                       + 1j * rng.standard_normal((n, cfg.mnl)))
    v = c + w
    B = design.combiner_blocks
    u = np.einsum("ijk,tik->tij", B, v.reshape(n, cfg.L, cfg.mn)).reshape(n, -1)
    u = apply_fbar(u, cfg.L)
    per_channel = np.mean(np.abs(u) ** 2, axis=0)
    assert per_channel.max() == pytest.approx(design.support ** 2 / cfg.eta ** 2, rel=0.05)


def test_digital_filter_is_stationary_point(small_design):
    _, _, stats, comp, design = small_design
    stats = stacked_statistics(stats, comp)
    digital = dense_digital(design)
    base = digital_filter_mse(digital, design.combiner_blocks, stats,
                              comp, design.support, design.levels)
    rng = np.random.default_rng(14)
    scale = 1e-3 * np.linalg.norm(digital)
    for _ in range(20):
        delta = rng.standard_normal(digital.shape) \
            + 1j * rng.standard_normal(digital.shape)
        delta *= scale / np.linalg.norm(delta)
        perturbed = digital_filter_mse(digital + delta,
                                       design.combiner_blocks, stats, comp,
                                       design.support, design.levels)
        assert perturbed >= base - 1e-12 * base


# -- filter responses, export ----------------------------------------------------

def test_filter_response_flat_pulse(small_design):
    cfg, _, _, _, design = small_design
    freqs, gains = reference_filter_response(design, cfg, p=0, n=1)
    B = design.combiner_blocks
    assert len(freqs) == cfg.ml
    for m in range(cfg.M):
        for idx, tone in enumerate(cfg.tone_indices):
            k = m * cfg.L + idx
            assert freqs[k] == pytest.approx(tone / cfg.pri + cfg.tone_offsets[m])
            assert gains[k] == pytest.approx(cfg.pri * B[idx, 0, m * cfg.N + 1])


def test_filter_response_roundtrip(small_design):
    cfg, _, _, _, design = small_design
    B = design.combiner_blocks
    for p in range(design.channels):
        for n in range(cfg.N):
            _, gains = reference_filter_response(design, cfg, p, n)
            back = block_from_responses(gains, cfg)  # (M, L)
            for m in range(cfg.M):
                assert np.allclose(back[m], B[:, p, m * cfg.N + n], atol=1e-12)


def test_filter_response_zero_row(small_design):
    cfg, _, _, _, design = small_design
    zeroed = dataclasses.replace(design,
                                 combiner_blocks=np.zeros_like(design.combiner_blocks))
    _, gains = reference_filter_response(zeroed, cfg, 0, 0)
    assert np.count_nonzero(gains) == 0


def test_filter_response_csv(tmp_path, small_design):
    cfg, _, _, _, design = small_design
    path = tmp_path / "filters.csv"
    write_filter_response_csv(design, cfg, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "p,n,frequency_hz,re,im"
    assert len(lines) == 1 + design.channels * cfg.N * cfg.ml


def _pn_config_design():
    # P = 4 channels against N = 2 receive elements
    cfg = make_ula_config(3, 2, 1e6, 3e-6, sigma_n_sq=0.3)
    stats = build_covariances(cfg, K=2)
    comp = build_compression_matrix(np.random.default_rng(18), cfg, 1, "gaussian")
    return cfg, design_multitone(stats, comp, 4, 4, cfg.eta)


def _paper_scale_design(dcr, sigma_alpha_sq=1.0):
    # M=8, N=12, L=9: P = 48 at dcr 2, 24 at dcr 4; the gains T0 * B scale
    # as 1/sqrt(sigma_alpha_sq) at a fixed SNR
    cfg = make_ula_config(8, 12, 1e6, 9e-6, sigma_alpha_sq=sigma_alpha_sq,
                             sigma_n_sq=0.1 * sigma_alpha_sq)
    stats = build_covariances(cfg, K=4)
    comp = build_compression_matrix(np.random.default_rng(20 + dcr), cfg, dcr, "dft")
    return cfg, design_multitone(stats, comp, comp.shape[1], 16, cfg.eta)


def test_filter_response_csv_matches_row_writer(tmp_path, small_design):
    cfg, _, _, _, design = small_design
    # gains near 1e-9 * T0 print in exponent notation, and a zeroed combiner
    # row prints 0 or -0; at sigma_alpha^2 = 1e-6 the paper-scale gains print
    # in both notations within one block of channels, and at 1e-10 nearly all
    # of them print in fixed notation
    tiny = dataclasses.replace(design, combiner_blocks=design.combiner_blocks * 1e-9)
    tiny.combiner_blocks[:, 1] = 0.0  # channel 1 at every tone
    tiny.combiner_blocks[:, 2] = complex(-0.0, -0.0)
    cases = [(cfg, design), _pn_config_design(), _paper_scale_design(2),
             _paper_scale_design(4), (cfg, tiny), _paper_scale_design(2, 1e-6),
             _paper_scale_design(2, 1e-10)]
    assert cases[1][1].channels != cases[1][0].N
    assert [d.channels for _, d in cases[2:4]] == [48, 24]
    texts = []
    for k, (c, d) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write_filter_response_csv(d, c, got)
        reference_write_filter_response_csv(d, c, want)
        assert got.read_bytes() == want.read_bytes()
        texts.append(got.read_text())
        freqs, table = _filter_table(d, c)
        for p in range(d.channels):
            for n in range(c.N):
                ref_freqs, ref_gains = reference_filter_response(d, c, p, n)
                assert np.array_equal(freqs, ref_freqs)
                assert np.array_equal(table[p, n], ref_gains)
    tiny_values = {v for row in texts[4].split()[1:] for v in row.split(",")[3:]}
    assert {"0", "-0"} <= tiny_values
    assert any("e-" in v for v in tiny_values)
    scientific = {}  # block of channels -> notations of its gains
    for row in texts[5].split()[1:]:
        p, _, _, re, im = row.split(",")
        scientific.setdefault(int(p) // CSV_BLOCK_CHANNELS, set()).update(("e" in re, "e" in im))
    assert {False, True} in scientific.values()
    values = [v for row in texts[6].split()[1:] for v in row.split(",")[3:]]
    fixed_values = {v for v in values if "e" not in v}
    assert sum("e" not in v for v in values) > 0.9 * len(values)
    # fixed notation at several decimal exponents
    assert len({int(np.floor(np.log10(abs(float(v))))) for v in fixed_values}) >= 3


def _g10_cases(rng):
    """About 1.2e6 floats that stress a '%.10g' formatter."""
    def signed(v):
        return v * rng.choice([-1.0, 1.0], size=v.size)

    wide = signed(rng.uniform(1.0, 10.0, 300_000)
                  * np.power(10.0, rng.integers(-330, 309, 300_000)))
    # decimal values of 10 and 11 significant digits, and exact decimal ties
    # of the tenth digit, which are binary values just off the tie
    finite = wide[np.isfinite(wide)]
    texts = ["%.9e" % v for v in finite[:100_000].tolist()]
    near_ties = [float(t) for t in texts] \
        + [float(t.replace("e", "5e")) for t in texts] \
        + [float("%.10e" % v) for v in finite[100_000:200_000].tolist()]
    powers = np.power(10.0, np.arange(-323, 309))
    edges = [9.9999999995 * powers, powers, np.nextafter(powers, 0.0),
             np.nextafter(powers, np.inf), 9.9999999994999 * powers,
             np.array([0.0, np.inf, np.nan, 2.5e250, 1e100, 1e-100, 1.5e-5, 1e10,
                       9999999999.5, 99999.999995, 1e-290, 1e290, 5e-324])]
    subnormal = rng.uniform(0.0, 2.2250738585072014e-308, 10_000)
    fixed = rng.uniform(1.0, 10.0, (14, 20_000)) * np.power(10.0, np.arange(-4, 10))[:, None]
    integers = rng.integers(1, 10**10, 20_000).astype(float)
    bits = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(float)
    return np.concatenate([bits, wide, np.array(near_ties), *edges, subnormal,
                           fixed.ravel(), integers / 1000.0, integers]
                          ).astype(float)


def test_format_g10_matches_python():
    with np.errstate(over="ignore"):  # 10^k * mantissa past the float range is inf
        values = _g10_cases(np.random.default_rng(23))
    values = np.concatenate([values, -values])
    assert values.size >= 10**6
    want = ("%.10g\n" * values.size % tuple(values.tolist())).encode()
    rows = np.empty((values.size, 18), dtype=np.uint8)
    rows[:, 17] = ord("\n")
    for start in range(0, values.size, 1 << 16):
        _format_g10(values[start:start + (1 << 16)], rows[start:start + (1 << 16), :17])
    got = rows.tobytes().translate(None, b"\0")
    if got != want:
        pairs = zip(values.tolist(), want.split(), got.split())
        pytest.fail(f"{[p for p in pairs if p[1] != p[2]][:10]}")
    shown = set(want.split())
    assert {b"2.5e+250", b"-0", b"inf", b"nan", b"1e+10", b"0.0001"} <= shown
    assert any(w.startswith(b"4.94") and w.endswith(b"e-324") for w in shown)


def test_digit_tables_match_their_string_built_reference():
    # the four-digit tables are built with integer arithmetic at import; the
    # reference spells every k < 10000 as text
    quad = np.frombuffer("".join(f"{k:04d}" for k in range(10000)).encode("latin-1"),
                         np.uint32)
    zeros = np.array([4 - len(f"{k:04d}".rstrip("0")) for k in range(10000)])
    assert np.array_equal(combiner._QUAD, quad)
    assert np.array_equal(combiner._QUAD_ZEROS, zeros)


def test_format_g10_survives_an_exponent_off_by_one(monkeypatch):
    # a log10 that errs by a whole unit must send the value to Python's
    # formatting, not shift its digits
    rng = np.random.default_rng(25)
    values = rng.uniform(-10.0, 10.0, 30_000) * np.power(10.0, rng.integers(-20, 20, 30_000))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + np.resize([1.0, -1.0, 0.0], a.size))
    rows = np.empty((values.size, 18), dtype=np.uint8)
    rows[:, 17] = ord("\n")
    _format_g10(values, rows[:, :17])
    monkeypatch.undo()
    assert rows.tobytes().translate(None, b"\0") \
        == ("%.10g\n" * values.size % tuple(values.tolist())).encode()


def test_design_bundle_roundtrip(tmp_path, small_design):
    cfg, _, _, _, design = small_design
    prefix = tmp_path / "bundle"
    save_design(design, prefix, cfg)
    with np.load(f"{prefix}.npz") as data:
        assert sorted(data.files) == sorted(BUNDLE_ARRAYS)
    back = load_design(prefix)
    for field in dataclasses.fields(design):
        want, got = getattr(design, field.name), getattr(back, field.name)
        if field.name in BUNDLE_ARRAYS:
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


def test_load_design_rejects_dense_digital_bundle(tmp_path, small_design):
    # a bundle with the dense J x PL filter `digital` in place of the per-tone
    # `digital_blocks` is refused by name, not with a bare KeyError
    cfg, _, _, _, design = small_design
    prefix = tmp_path / "old"
    save_design(design, prefix, cfg)
    with np.load(f"{prefix}.npz") as data:
        arrays = {name: data[name] for name in data.files if name != "digital_blocks"}
    np.savez(f"{prefix}.npz", digital=dense_digital(design), **arrays)
    with pytest.raises(ValueError, match="'digital_blocks'"):
        load_design(prefix)


@pytest.mark.parametrize("key", ["support", "levels", "eta", "channels", "emse", "lmmse"])
def test_load_design_names_a_missing_scalar(tmp_path, small_design, key):
    # a bundle .json without one of the design's scalars is refused by name,
    # not with a bare KeyError
    cfg, _, _, _, design = small_design
    prefix = tmp_path / "b"
    save_design(design, prefix, cfg)
    meta = json.loads(Path(f"{prefix}.json").read_text())
    del meta[key]
    Path(f"{prefix}.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_design(prefix)


def test_load_design_reads_bundle_with_right_vectors(tmp_path, small_design):
    # bundles written before the (L, MN, MN) right singular vectors were
    # dropped still load, to the same design
    cfg, _, _, _, design = small_design
    prefix = tmp_path / "old"
    save_design(design, prefix, cfg)
    with np.load(f"{prefix}.npz") as data:
        arrays = {name: data[name] for name in data.files}
    np.savez(f"{prefix}.npz",
             right_vectors=np.tile(np.eye(cfg.mn, dtype=complex), (cfg.L, 1, 1)), **arrays)
    back = load_design(prefix)
    for name in BUNDLE_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(design, name)), name


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "dft"])
@pytest.mark.parametrize("dcr", [2, 4])
def test_apply_digital_matches_dense_filter(kind, dcr):
    # the per-tone filter behind an FFT over tones equals the dense
    # blkdiag(D_i) Fbar^H product at M=8, N=12, L=9
    cfg = make_ula_config(8, 12, 1e6, 9e-6, sigma_n_sq=0.1)
    stats = build_covariances(cfg, K=4)
    comp = build_compression_matrix(np.random.default_rng(20), cfg, dcr, kind)
    design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
    rng = np.random.default_rng(21)
    z = rng.standard_normal((3, cfg.L * design.channels)) \
        + 1j * rng.standard_normal((3, cfg.L * design.channels))
    dense = dense_digital(design)
    for col in z:
        want = dense @ col
        assert np.linalg.norm(design.apply_digital(col) - want) <= 1e-12 * np.linalg.norm(want)


def test_apply_combiner_matches_einsum(small_design):
    cfg, _, _, _, design = small_design
    rng = np.random.default_rng(22)
    v = rng.standard_normal(cfg.mnl) + 1j * rng.standard_normal(cfg.mnl)
    want = np.einsum("ijk,ik->ij", design.combiner_blocks,
                     v.reshape(cfg.L, cfg.mn)).reshape(-1)
    assert np.linalg.norm(design.apply_combiner(v) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "dft"])
def test_design_lmmse_matches_lmmse_error(kind):
    # the LMMSE the design takes from its SVDs equals the per-tone solves
    base = make_ula_config(3, 4, 1e6, 3e-6)
    for snr_db in (-30.0, 10.0, 30.0):
        cfg = base.at_snr(snr_db)
        stats = build_covariances(cfg, K=3)
        comp = build_compression_matrix(np.random.default_rng(23), cfg, 2, kind)
        design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
        assert design.lmmse == pytest.approx(
            reference_lmmse_error(comp, stacked_statistics(stats, comp)), rel=1e-10)


def _assert_design_matches_reference(stats, comp, channels, levels, eta):
    design = design_multitone(stats, comp, channels, levels, eta)
    ref = reference_design_multitone(stacked_statistics(stats, comp), comp, channels, levels, eta)
    # C order too: a transposed layout would take other BLAS paths downstream
    for name in BUNDLE_ARRAYS:
        got = getattr(design, name)
        assert np.array_equal(got, getattr(ref, name)) and got.flags.c_contiguous, name
    assert design.emse == ref.emse and design.lmmse == ref.lmmse
    return design


@pytest.mark.parametrize("covariances", ["identity"])  # cov(c) = c*I, cov(w) = w*I
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "dft"])
@pytest.mark.parametrize("dcr", [2, 4])
@pytest.mark.parametrize("budget", [1728, 3456])
def test_stacked_design_matches_per_tone_loop(covariances, kind, dcr, budget):
    # the stacked design and LMMSE transform on white statistics give bitwise
    # the per-tone loop's arrays and scalars on the c*I and w*I stacks at
    # M=8, N=12, L=9 and SNR -10, 10 and 30 dB; at P = J_i - 3 the modes past
    # P enter the excess MSE
    base = make_ula_config(8, 12, 1e6, 9e-6)
    comp = build_compression_matrix(np.random.default_rng([dcr, budget, len(kind)]),
                                    base, dcr, kind)
    for snr_db in (-10.0, 10.0, 30.0):
        cfg = base.at_snr(snr_db)
        stats = build_covariances(cfg, K=4)
        gamma = lmmse_transform(comp, stats)
        assert np.array_equal(gamma, reference_lmmse_transform(
            comp, stacked_statistics(stats, comp)))
        assert gamma.flags.c_contiguous
        for channels in (comp.shape[1], comp.shape[1] - 3):
            levels = bm.levels_from_budget(budget, channels, cfg.L)
            _assert_design_matches_reference(stats, comp, channels, levels, cfg.eta)


def test_stacked_design_matches_per_tone_loop_over_many_draws():
    # nine tones with K, sigma_n^2 and the compression drawn anew each time, so
    # the tone sums of emse and lmmse round differently in any order but the
    # running one; some Sigma = (c + w) * I has a (c + w)^-0.5 whose last bit
    # numpy's power and Python's float ** disagree on, and a K that is not a
    # power of two makes Gamma's rounding depend on its operand order
    base = make_ula_config(2, 3, 1e6, 9e-6)
    assert base.L == 9
    rng = np.random.default_rng(41)
    for _ in range(40):
        cfg = dataclasses.replace(base, sigma_n_sq=rng.uniform(0.01, 2.0))
        stats = build_covariances(cfg, K=int(rng.integers(1, 9)))
        comp = build_compression_matrix(rng, cfg, 2, "gaussian")
        design = _assert_design_matches_reference(stats, comp, comp.shape[1], 8,
                                                  cfg.eta)
        assert np.array_equal(lmmse_transform(comp, stats),
                              reference_lmmse_transform(comp, stacked_statistics(stats, comp)))
        # emse is the plain left-to-right float sum, on any Python version (the
        # builtin sum compensates its rounding from Python 3.12 on)
        total = 0.0
        for eps in design.block_emse.tolist():
            total += eps
        assert design.emse == total


def test_one_statistics_serves_any_tone_count():
    # white statistics are the same on every tone: the statistics of a 3-tone
    # config design a 9-tone compression, and each tone gets bitwise the
    # design of its own one-block compression
    stats = build_covariances(make_ula_config(2, 3, 1e6, 3e-6, sigma_n_sq=0.25), K=3)
    cfg = make_ula_config(2, 3, 1e6, 9e-6, sigma_n_sq=0.25)
    assert cfg.L == 9
    comp = build_compression_matrix(np.random.default_rng(42), cfg, 2, "gaussian")
    design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
    for i in range(cfg.L):
        one = design_multitone(stats, comp[i:i + 1], comp.shape[1], 4, cfg.eta)
        for name in BUNDLE_ARRAYS:
            assert np.array_equal(getattr(design, name)[i], getattr(one, name)[0]), name


def test_tall_task_blocks_match_per_tone_loop():
    # J_i = MN + 3 task rows on MN-wide blocks: the SVD has MN modes, fewer
    # than J_i, so the design's mode count comes from the SVD's width while
    # the per-tone loop caps at min(P, J_i, MN); at P = MN + 3, MN and MN - 2
    cfg = make_ula_config(2, 3, 1e6, 9e-6, sigma_n_sq=0.25)
    stats = build_covariances(cfg, K=3)
    rng = np.random.default_rng(43)
    shape = (cfg.L, cfg.mn + 3, cfg.mn)
    comp = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    for channels in (cfg.mn + 3, cfg.mn, cfg.mn - 2):
        design = _assert_design_matches_reference(stats, comp, channels, 8, cfg.eta)
        assert design.singvals.shape == (cfg.L, cfg.mn)
