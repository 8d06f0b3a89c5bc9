from dataclasses import replace

import numpy as np
import pytest

import bitmimo as bm
from bitmimo.dictionary import apply_blocks
from bitmimo.statistics import build_compression_matrix, build_covariances, lmmse_transform
from dense_oracle import blkdiag, dense_phi, reference_lmmse_error, stacked_statistics
from layouts import make_ula_config


def lmmse_error(comp, stats):
    """The per-tone loop's LMMSE on the c*I and w*I stacks of stats."""
    return reference_lmmse_error(comp, stacked_statistics(stats, comp))


@pytest.fixture(scope="module")
def setup():
    cfg = make_ula_config(2, 2, 1e6, 3e-6, sigma_n_sq=0.5)
    return cfg, bm.build_dictionary(cfg)


def test_default_covariances(setup):
    cfg, _ = setup
    stats = build_covariances(cfg, K=4)
    assert (stats.signal_var, stats.noise_var, stats.sigma) == (4.0, 0.5, 4.5)


def test_zero_k_and_zero_noise(setup):
    cfg, _ = setup
    noiseless = build_covariances(replace(cfg, sigma_n_sq=0.0), K=4)
    assert noiseless.sigma == noiseless.signal_var == 4.0
    with pytest.raises(ValueError, match="singular"):
        build_covariances(replace(cfg, sigma_n_sq=0.0), K=0)  # singular Sigma
    empty = build_covariances(cfg, K=0)
    assert empty.signal_var == 0.0


def test_covariance_monte_carlo_oracle(setup):
    # sample 1e5 scenes; empirical covariance of c must be ~ K*I with
    # off-diagonals within 3 standard errors of zero
    cfg, d = setup
    phi = dense_phi(d)
    K, n = 4, 100_000
    rng = np.random.default_rng(11)
    acc = np.zeros((cfg.mnl, cfg.mnl), dtype=complex)
    chunk = 10_000
    for _ in range(n // chunk):
        cells = np.argpartition(rng.random((chunk, cfg.grid_size)), K, axis=1)[:, :K]
        alpha = (rng.standard_normal((chunk, K)) + 1j * rng.standard_normal((chunk, K))) / np.sqrt(2)
        X = np.einsum("rtk,tk->tr", phi[:, cells], alpha)  # (chunk, MNL)
        acc += X.conj().T @ X
    emp = acc / n
    diag = np.diag(emp).real
    assert np.allclose(diag, K, rtol=0.02)
    off = emp - np.diag(np.diag(emp))
    se = K / np.sqrt(n)  # per-entry standard error scale
    assert np.abs(off).max() <= 3 * se * 1.5  # 3 sigma with head-room for the max over entries


def test_lmmse_identity_when_noiseless(setup):
    cfg, d = setup
    stats = build_covariances(replace(cfg, sigma_n_sq=0.0), K=2)
    eye_blocks = np.broadcast_to(np.eye(cfg.mn, dtype=complex),
                                 (cfg.L, cfg.mn, cfg.mn))
    comp = np.array(eye_blocks)
    gamma = lmmse_transform(comp, stats)
    for i in range(cfg.L):
        assert np.allclose(gamma[i], np.eye(cfg.mn), atol=1e-10)
    assert lmmse_error(comp, stats) == pytest.approx(0.0, abs=1e-8)


def test_lmmse_scalar_wiener_gain(setup):
    cfg, _ = setup
    c, w = 3.0, 2.0
    cfg2 = replace(cfg, sigma_n_sq=w)
    stats = build_covariances(cfg2, K=3)  # K*sigma_alpha_sq = 3 = c
    rng = np.random.default_rng(0)
    comp = build_compression_matrix(rng, cfg2, 2, "gaussian")
    gamma = lmmse_transform(comp, stats)
    assert np.allclose(gamma, (c / (c + w)) * comp)


def test_lmmse_error_orthonormal_rows_closed_form(setup):
    # R_c = c I, R_w = w I and orthonormal rows per block: eps_L = J*c*w/(c+w)
    cfg, _ = setup
    c, w = 2.0, 0.5
    stats = build_covariances(replace(cfg, sigma_n_sq=w), K=2)
    comp = np.zeros((cfg.L, 2, cfg.mn), dtype=complex)
    for i in range(cfg.L):
        q, _ = np.linalg.qr(np.random.default_rng(i).standard_normal((cfg.mn, 2)))
        comp[i] = q.T
    expected = comp.shape[0] * comp.shape[1] * c * w / (c + w)
    assert lmmse_error(comp, stats) == pytest.approx(expected, rel=1e-10)


def test_lmmse_error_monte_carlo_oracle(setup):
    cfg, d = setup
    phi = dense_phi(d)
    K = 3
    cfg2 = replace(cfg, sigma_n_sq=0.8)
    stats = build_covariances(cfg2, K)
    rng = np.random.default_rng(5)
    comp = build_compression_matrix(rng, cfg2, 2, "gaussian")
    gamma = lmmse_transform(comp, stats)
    n = 100_000
    err = 0.0
    chunk = 10_000
    for _ in range(n // chunk):
        cells = np.argpartition(rng.random((chunk, cfg.grid_size)), K, axis=1)[:, :K]
        alpha = (rng.standard_normal((chunk, K)) + 1j * rng.standard_normal((chunk, K))) / np.sqrt(2)
        c = np.einsum("rtk,tk->tr", phi[:, cells], alpha)
        wn = np.sqrt(0.8 / 2) * (rng.standard_normal((chunk, cfg.mnl))
                                 + 1j * rng.standard_normal((chunk, cfg.mnl)))
        v_c = c + wn
        s = np.einsum("ijk,tik->tij", comp,
                      c.reshape(chunk, cfg.L, cfg.mn)).reshape(chunk, -1)
        s_t = np.einsum("ijk,tik->tij", gamma,
                        v_c.reshape(chunk, cfg.L, cfg.mn)).reshape(chunk, -1)
        err += np.sum(np.abs(s - s_t) ** 2)
    assert err / n == pytest.approx(lmmse_error(comp, stats), rel=0.03)


def test_lmmse_beats_random_linear_maps(setup):
    cfg, d = setup
    phi = dense_phi(d)
    K = 2
    cfg2 = replace(cfg, sigma_n_sq=1.0)
    stats = build_covariances(cfg2, K)
    rng = np.random.default_rng(9)
    comp = build_compression_matrix(rng, cfg2, 2, "gaussian")
    gamma_dense = blkdiag(lmmse_transform(comp, stats))
    m_dense = blkdiag(comp)
    n = 10_000
    cells = np.argpartition(rng.random((n, cfg.grid_size)), K, axis=1)[:, :K]
    alpha = (rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))) / np.sqrt(2)
    c = np.einsum("rtk,tk->tr", phi[:, cells], alpha)
    wn = np.sqrt(0.5) * (rng.standard_normal((n, cfg.mnl))
                         + 1j * rng.standard_normal((n, cfg.mnl)))
    v = c + wn
    s = c @ m_dense.T

    def mse(G):
        return np.mean(np.sum(np.abs(s - v @ G.T) ** 2, axis=1))

    mse_gamma = mse(gamma_dense)
    for trial in range(5):
        G = (rng.standard_normal(gamma_dense.shape)
             + 1j * rng.standard_normal(gamma_dense.shape)) / np.sqrt(cfg.mnl)
        assert mse_gamma <= mse(G)


def test_blockwise_equals_full_matrices(setup):
    # eps_L computed blockwise equals the dense-matrix evaluation to 1e-10
    cfg, _ = setup
    stats = build_covariances(replace(cfg, sigma_n_sq=0.7), K=3)
    rng = np.random.default_rng(3)
    comp = build_compression_matrix(rng, cfg, 2, "bernoulli")
    m_full = blkdiag(comp)
    dense = stacked_statistics(stats, comp)
    rc, sig = blkdiag(dense.cov_signal), blkdiag(dense.sigma)
    full = np.trace(m_full @ rc @ m_full.conj().T
                    - m_full @ rc @ np.linalg.solve(sig, rc) @ m_full.conj().T).real
    blockwise = lmmse_error(comp, stats)
    assert blockwise == pytest.approx(full, rel=1e-10)


def test_orthogonality_principle(setup):
    cfg, d = setup
    phi = dense_phi(d)
    K = 2
    cfg2 = replace(cfg, sigma_n_sq=0.6)
    stats = build_covariances(cfg2, K)
    rng = np.random.default_rng(13)
    comp = build_compression_matrix(rng, cfg2, 3, "gaussian")
    gamma = lmmse_transform(comp, stats)
    n = 100_000
    cross = np.zeros((comp.shape[0] * comp.shape[1], cfg.mnl), dtype=complex)
    chunk = 20_000
    for _ in range(n // chunk):
        cells = np.argpartition(rng.random((chunk, cfg.grid_size)), K, axis=1)[:, :K]
        alpha = (rng.standard_normal((chunk, K)) + 1j * rng.standard_normal((chunk, K))) / np.sqrt(2)
        c = np.einsum("rtk,tk->tr", phi[:, cells], alpha)
        wn = np.sqrt(0.3) * (rng.standard_normal((chunk, cfg.mnl))
                             + 1j * rng.standard_normal((chunk, cfg.mnl)))
        v = c + wn
        s = np.einsum("ijk,tik->tij", comp,
                      c.reshape(chunk, cfg.L, cfg.mn)).reshape(chunk, -1)
        s_t = np.einsum("ijk,tik->tij", gamma,
                        v.reshape(chunk, cfg.L, cfg.mn)).reshape(chunk, -1)
        cross += (s - s_t).T @ v.conj()
    cross /= n
    # standard error scale of each cross-covariance entry
    se = np.sqrt(lmmse_error(comp, stats) / (comp.shape[0] * comp.shape[1])
                 * (K + 0.6)) / np.sqrt(n)
    assert np.abs(cross).max() <= 3 * se * 1.6  # 3 sigma with head-room for max over entries


def test_invariance_under_row_permutation(setup):
    cfg, _ = setup
    stats = build_covariances(replace(cfg, sigma_n_sq=0.4), K=2)
    rng = np.random.default_rng(17)
    comp = build_compression_matrix(rng, cfg, 2, "gaussian")
    base = lmmse_error(comp, stats)
    comp2 = comp.copy()
    for i in range(cfg.L):  # permuting rows of each block permutes rows of M and s together
        comp2[i] = comp2[i][rng.permutation(comp.shape[1])]
    assert lmmse_error(comp2, stats) == pytest.approx(base, rel=1e-12)


# -- compression matrices ---------------------------------------------------

def test_compression_paper_scale_dimensions():
    cfg = make_ula_config(8, 12, 1e6, 9e-6)
    comp = build_compression_matrix(np.random.default_rng(0), cfg, 2, "gaussian")
    assert comp.shape[0] * comp.shape[1] == 432
    assert comp.shape[1] == 48
    assert int(np.ceil(comp.shape[0] * comp.shape[1] / cfg.L)) == 48  # analog channel count


def test_compression_block_structure_exact(setup):
    cfg, _ = setup
    comp = build_compression_matrix(np.random.default_rng(1), cfg, 2, "gaussian")
    # apply_blocks, formed column by column, is exactly blkdiag(M_i) on tone-major c
    aligned = np.array([apply_blocks(comp, e) for e in np.eye(cfg.mnl, dtype=complex)]).T
    ji = comp.shape[1]
    for i in range(cfg.L):
        for j in range(cfg.L):
            blk = aligned[i * ji:(i + 1) * ji, j * cfg.mn:(j + 1) * cfg.mn]
            if i == j:
                assert np.array_equal(blk, comp[i])
            else:
                assert np.count_nonzero(blk) == 0


def test_compression_apply_matches_dense(setup):
    cfg, _ = setup
    comp = build_compression_matrix(np.random.default_rng(2), cfg, 3, "gaussian")
    rng = np.random.default_rng(3)
    c = rng.standard_normal(cfg.mnl) + 1j * rng.standard_normal(cfg.mnl)
    assert np.allclose(apply_blocks(comp, c), blkdiag(comp) @ c)


def test_compression_dft_full_rows_unitary(setup):
    cfg, _ = setup
    comp = build_compression_matrix(np.random.default_rng(4), cfg, 1, "dft")
    assert comp.shape[1] == cfg.mn
    for i in range(cfg.L):
        gram = comp[i] @ comp[i].conj().T
        assert np.allclose(gram, cfg.mn * np.eye(cfg.mn), atol=1e-9)


def test_compression_determinism_and_kinds(setup):
    cfg, _ = setup
    a = build_compression_matrix(np.random.default_rng(7), cfg, 2, "gaussian")
    b = build_compression_matrix(np.random.default_rng(7), cfg, 2, "gaussian")
    assert np.array_equal(a, b)
    bern = build_compression_matrix(np.random.default_rng(7), cfg, 2, "bernoulli")
    assert np.allclose(np.abs(bern.real), 1 / np.sqrt(2))
    assert np.allclose(np.abs(bern), 1.0)
    big = make_ula_config(8, 12, 1e6, 9e-6)
    gaus = build_compression_matrix(np.random.default_rng(8), big, 2, "gaussian")
    assert np.mean(np.abs(gaus) ** 2) == pytest.approx(1.0, rel=0.02)
    with pytest.raises(ValueError):
        build_compression_matrix(np.random.default_rng(0), cfg, cfg.mnl + 1, "gaussian")
    with pytest.raises(ValueError):
        build_compression_matrix(np.random.default_rng(0), cfg, 2, "bogus")
