import numpy as np
import pytest

import bitmimo as bm
from bitmimo import harness
from bitmimo.dictionary import apply_fbar, apply_fbar_adjoint, build_dictionary
from dense_oracle import dense_phi, dense_task, eval_c_direct, fbar_matrix
from theory import coherence


@pytest.fixture(scope="module")
def small():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    return cfg, build_dictionary(cfg)


def test_scalar_degenerate_case():
    cfg = bm.make_ula_config(1, 1, 1e6, 1e-6)
    d = build_dictionary(cfg)
    assert (d.n_rows, d.n_atoms) == (1, 1)
    assert d.apply(np.ones(1))[0] == pytest.approx(1.0)  # xi=zeta=0, l=0 grid point
    assert np.allclose(fbar_matrix(1, 1), 1.0)


def test_paper_scale_dimensions():
    cfg = bm.make_ula_config(8, 12, 1e6, 9e-6)
    d = build_dictionary(cfg)
    assert (d.n_rows, d.n_atoms) == (864, 6912)
    assert d.apply(np.zeros(6912, dtype=complex)).shape == (864,)
    assert d.apply_adjoint(np.zeros(864, dtype=complex)).shape == (6912,)
    assert d.Phi is None  # the dense dictionary is never held


def test_unit_modulus_entries(small):
    _, d = small
    assert np.abs(np.abs(dense_phi(d)) - 1.0).max() <= 1e-12


def test_column_norms(small):
    cfg, d = small
    norms_sq = np.linalg.norm(dense_phi(d), axis=0) ** 2
    assert np.allclose(norms_sq, cfg.mnl)


def test_coefficient_order_is_tone_major(small):
    # c_{m,n}[i] of the atom at cell (l1, l2) is V_m[i, l1] * U_m[n, l2], at
    # position (i_idx*M + m)*N + n of c, from each of apply, apply_cells and
    # the adjoint of a unit vector
    cfg, d = small
    M, N, L = cfg.M, cfg.N, cfg.L
    l1, l2 = 3, 5
    cell = l1 * cfg.mn + l2
    atom = np.zeros(cfg.grid_size, dtype=complex)
    atom[cell] = 1.0
    c, c_cells = d.apply(atom), d.apply_cells(np.array([cell]), np.ones(1))
    for i_idx in range(L):
        for m in range(M):
            for n in range(N):
                pos = (i_idx * M + m) * N + n
                want = d.V[m, i_idx, l1] * d.U[m, n, l2]
                unit = np.zeros(cfg.mnl, dtype=complex)
                unit[pos] = 1.0
                assert c[pos] == pytest.approx(want, abs=1e-12)
                assert c_cells[pos] == pytest.approx(want, abs=1e-12)
                assert np.conj(d.apply_adjoint(unit)[cell]) == pytest.approx(want, abs=1e-12)


def test_oracle_equivalence_small(small):
    cfg, d = small
    rng = np.random.default_rng(0)
    for _ in range(50):
        scene = bm.sample_scene(rng, 4, cfg)
        a = bm.scene_to_sparse_vector(scene, cfg)
        direct = eval_c_direct(scene, cfg)
        rel = np.linalg.norm(d.apply(a) - direct) / np.linalg.norm(direct)
        assert rel <= 1e-9


def test_oracle_empty_scene(small):
    cfg, _ = small
    scene = bm.sample_scene(np.random.default_rng(0), 0, cfg)
    assert np.count_nonzero(eval_c_direct(scene, cfg)) == 0


def test_oracle_delay_free_target_is_tone_flat(small):
    cfg, _ = small
    scene = bm.TargetScene(cells=[3], alpha=[1.0])  # (l1, l2) = (0, 3)
    c = eval_c_direct(scene, cfg)
    theta = -1.0 + 2.0 * 3 / cfg.mn
    for m in range(cfg.M):
        blk = c[m * cfg.N * cfg.L:(m + 1) * cfg.N * cfg.L].reshape(cfg.L, cfg.N)
        expected = np.exp(2j * np.pi * (cfg.tx_pos[m] + cfg.rx_pos) * theta)
        assert np.allclose(blk, expected[None, :])  # same for every tone row


# (M, N, pri) below the harness's dense-operator size rule (18 x 36) and above it
# (168 x 672)
OPERATOR_CONFIGS = ((2, 3, 3e-6), (4, 6, 7e-6))


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.fixture(scope="module")
def points():
    """Each config's dictionary and the point context holding the operators
    the solver receives, for all four methods."""
    out = []
    for M, N, pri in OPERATOR_CONFIGS:
        cfg = bm.make_random_array_config(np.random.default_rng(8), M, N, 1e6, pri)
        d = build_dictionary(cfg)
        spec = harness.ExperimentSpec(config=cfg, budget_bits=(2 * cfg.mnl,),
                                      methods=bm.METHODS, trials=1)
        (p_idx, axes), = spec.points()
        out.append((d, harness._PointContext(spec, d, harness._phi_operator(d),
                                             p_idx, axes)))
    below, above = (d.n_rows * d.n_atoms for d, _ in out)
    assert below <= harness.DENSE_OPERATOR_MAX_ENTRIES < above
    return out


def test_matrix_free_matches_dense(points):
    # structured Phi and Phi^H against the dense Kronecker oracle; M*Phi and
    # (M*Phi)^H as the solver receives them, in single precision: complex64 in,
    # complex64 out, within single-precision rounding of the oracle
    rng = np.random.default_rng(1)
    for d, ctx in points:
        phi, task = dense_phi(d), dense_task(d, ctx.compression)
        phi_apply, phi_adjoint, _ = ctx.operators["phi"]
        task_apply, task_adjoint, _ = ctx.operators["task"]
        for _ in range(5):
            a = rng.standard_normal(d.n_atoms) + 1j * rng.standard_normal(d.n_atoms)
            y = rng.standard_normal(d.n_rows) + 1j * rng.standard_normal(d.n_rows)
            s = rng.standard_normal(task.shape[0]) + 1j * rng.standard_normal(task.shape[0])
            assert _rel(d.apply(a), phi @ a) <= 1e-10
            assert _rel(d.apply_adjoint(y), phi.conj().T @ y) <= 1e-10
            a, y, s = (v.astype(np.complex64) for v in (a, y, s))
            for fn, mat, v in ((phi_apply, phi, a), (phi_adjoint, phi.conj().T, y),
                               (task_apply, task, a), (task_adjoint, task.conj().T, s)):
                got = fn(v)
                assert got.dtype == np.complex64
                assert _rel(got, mat @ v) <= 1e-6


def test_adjoint_identity(points):
    # <A x, y> = <x, A^H y> for Phi, the compression and M*Phi
    rng = np.random.default_rng(2)
    for d, ctx in points:
        comp = ctx.compression
        pairs = [(d.apply, d.apply_adjoint, d.n_atoms, d.n_rows),
                 (comp.apply_to_c, comp.apply_adjoint_to_c, d.n_rows, comp.rows),
                 (*ctx.operators["task"][:2], d.n_atoms, comp.rows),
                 (*ctx.operators["phi"][:2], d.n_atoms, d.n_rows)]
        for apply, adjoint, n_in, n_out in pairs:
            for _ in range(10):
                x = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
                y = rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out)
                lhs, rhs = np.vdot(y, apply(x)), np.vdot(adjoint(y), x)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_apply_cells_matches_apply(points):
    rng = np.random.default_rng(3)
    for d, _ in points:
        cfg = d.config
        for k in (1, 4):
            scene = bm.sample_scene(rng, k, cfg)
            a = bm.scene_to_sparse_vector(scene, cfg)
            assert _rel(d.apply_cells(scene.cells, scene.alpha), d.apply(a)) <= 1e-12


def test_sweep_point_beyond_old_dense_cap():
    # M=16, N=16, L=15: a dense Phi would take 3840 x 61440 x 16 B = 3.8 GB,
    # above the 2 GiB that used to cap the dictionary build
    cfg = bm.make_random_array_config(np.random.default_rng(16), 16, 16, 1e6, 15e-6)
    assert cfg.mnl * cfg.grid_size * 16 > 2 << 30
    spec = harness.ExperimentSpec(config=cfg, budget_bits=(2 * cfg.mnl,),
                                  methods=("bilimo", "noquan_dr"), trials=1,
                                  recovery=bm.RecoverySpec(max_iter=5))
    result = harness.run_sweep(spec)
    assert [p.method for p in result.points] == ["bilimo", "noquan_dr"]
    for p in result.points:
        assert p.trials == 1 and p.n_failed == 0
        assert np.isfinite(p.mse_s_mean) and np.isfinite(p.mse_a_mean)


def test_coherence_identity():
    assert coherence(np.eye(4)) == 0.0


def test_coherence_duplicate_column():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert coherence(A) == pytest.approx(1.0)


def test_coherence_two_column_example():
    A = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
    assert coherence(A) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_coherence_invariances():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    mu = coherence(A)
    perm = rng.permutation(5)
    assert coherence(A[:, perm]) == pytest.approx(mu, abs=1e-12)
    scales = rng.uniform(0.5, 3.0, size=5) * np.exp(2j * np.pi * rng.uniform(size=5))
    assert coherence(A * scales) == pytest.approx(mu, abs=1e-12)


def test_coherence_rejects_zero_column():
    with pytest.raises(ValueError):
        coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_coherence_chunking_consistent():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40))
    assert coherence(A, chunk=7) == pytest.approx(coherence(A, chunk=1000), abs=1e-12)


def test_fbar_identity_when_single_tone():
    x = np.array([1 + 2j, 3 - 1j])
    assert np.allclose(apply_fbar(x, 1, 2), x)


def test_fbar_unitary_roundtrip():
    rng = np.random.default_rng(6)
    L, P = 5, 3
    x = rng.standard_normal(L * P) + 1j * rng.standard_normal(L * P)
    assert np.allclose(apply_fbar_adjoint(apply_fbar(x, L, P), L, P), x, atol=1e-12)
    F = fbar_matrix(L, P)
    assert np.allclose(F @ F.conj().T, np.eye(L * P), atol=1e-12)
    assert np.allclose(apply_fbar(x, L, P), F @ x)


def test_fbar_dft_column():
    y = apply_fbar(np.array([1.0, 0, 0, 0]), 4, 1)
    assert np.allclose(y, np.full(4, 0.5))


def test_fbar_length_mismatch():
    with pytest.raises(ValueError):
        apply_fbar(np.zeros(5), 2, 2)
