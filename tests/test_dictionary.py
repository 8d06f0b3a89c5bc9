import numpy as np
import pytest

import bitmimo as bm
from bitmimo import harness
from bitmimo.dictionary import (apply_blocks, apply_blocks_adjoint, apply_fbar,
                                apply_fbar_adjoint, build_dictionary)
from bitmimo.recovery import SAFE_STEP, power_iteration_lipschitz
from bitmimo.statistics import COMPRESSION_KINDS, build_compression_matrix
from dense_oracle import blkdiag, dense_phi, dense_task, eval_c_direct, fbar_matrix
from layouts import make_random_array_config, make_ula_config
from theory import coherence


@pytest.fixture(scope="module")
def small():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    return cfg, build_dictionary(cfg)


def test_scalar_degenerate_case():
    cfg = make_ula_config(1, 1, 1e6, 1e-6)
    d = build_dictionary(cfg)
    assert (cfg.mnl, cfg.grid_size) == (1, 1)
    assert d.apply(np.ones(1))[0] == pytest.approx(1.0)  # xi=zeta=0, l=0 grid point
    assert np.allclose(fbar_matrix(1, 1), 1.0)


def test_paper_scale_dimensions():
    cfg = make_ula_config(8, 12, 1e6, 9e-6)
    d = build_dictionary(cfg)
    assert (cfg.mnl, cfg.grid_size) == (864, 6912)
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
        cfg = make_random_array_config(np.random.default_rng(8), M, N, 1e6, pri)
        d = build_dictionary(cfg)
        spec = harness.ExperimentSpec(config=cfg, budget_bits=(2 * cfg.mnl,),
                                      methods=bm.METHODS, trials=1)
        (p_idx, axes), = spec.points()
        out.append((d, harness._PointContext(spec, d, harness._solver_operator(d),
                                             p_idx, axes)))
    below, above = (d.config.mnl * d.config.grid_size for d, _ in out)
    assert below <= harness.DENSE_OPERATOR_MAX_ENTRIES < above
    return out


def test_matrix_free_matches_dense(points):
    # structured Phi and Phi^H against the dense Kronecker oracle; M*Phi and
    # (M*Phi)^H as the solver receives them, in single precision: complex64 in,
    # complex64 out, within single-precision rounding of the oracle
    rng = np.random.default_rng(1)
    for d, ctx in points:
        phi, task = dense_phi(d), dense_task(d, ctx.compression)
        phi_apply, phi_adjoint, _ = ctx.phi
        task_apply, task_adjoint, _ = ctx.task
        n, m = d.config.grid_size, d.config.mnl
        for _ in range(5):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
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
        rows = comp.shape[0] * comp.shape[1]
        pairs = [(d.apply, d.apply_adjoint, d.config.grid_size, d.config.mnl),
                 (lambda v: apply_blocks(comp, v),
                  lambda s: apply_blocks_adjoint(comp, s), d.config.mnl, rows),
                 (*ctx.task[:2], d.config.grid_size, rows),
                 (*ctx.phi[:2], d.config.grid_size, d.config.mnl)]
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


def _largest_eigenvalue(gram):
    return float(np.linalg.eigvalsh(gram)[-1])


def _dense_lipschitz(d, comp):
    """||Phi||^2 and ||M Phi||^2 as the largest eigenvalues of the dense
    Phi Phi^H and M (Phi Phi^H) M^H."""
    phi = dense_phi(d)
    gram = phi @ phi.conj().T
    blocks = blkdiag(comp)
    return (_largest_eigenvalue(gram),
            _largest_eigenvalue(blocks @ gram @ blocks.conj().T))


def test_band_gram_of_both_generators():
    # every generated layout puts all bands' tones on one grid, so the stacked
    # V has orthogonal rows and Phi Phi^H is ML times I_L (x) blkdiag(U_m U_m^H);
    # the uniform array's band Grams are MN * I
    for M, N, pri in ((1, 1, 1e-6), (2, 3, 3e-6), (4, 6, 7e-6), (8, 12, 9e-6)):
        for cfg in (make_ula_config(M, N, 1e6, pri),
                    make_random_array_config(np.random.default_rng(M), M, N, 1e6, pri)):
            d = build_dictionary(cfg)
            gram = d.band_gram
            assert gram.shape == (M, N, N)
            assert np.array_equal(gram, d.U @ d.U.conj().transpose(0, 2, 1))
            if cfg.mnl <= 168:
                phi = dense_phi(d)
                want = cfg.ml * np.kron(np.eye(cfg.L), blkdiag(gram))
                assert np.abs(phi @ phi.conj().T - want).max() <= 1e-10 * cfg.ml * cfg.mn
        assert np.abs(build_dictionary(make_ula_config(M, N, 1e6, pri)).band_gram
                      - M * N * np.eye(N)).max() <= 1e-9 * M * N


def test_no_band_gram_off_one_tone_grid():
    # band offsets that are no whole number of tone spacings apart, or a tone
    # count bandwidth*pri 1e-7 off an integer, leave the stacked V's rows
    # non-orthogonal: no band Gram
    off_grid = bm.RadarConfig(M=2, N=3, bandwidth=1e6, pri=3e-6, rx_pos=[0.0, 0.5, 1.0],
                              tx_pos=[0.0, 1.5], tone_offsets=[-5e5, 6e5])
    detuned = make_ula_config(2, 3, 1e6, 3e-6 * (1 + 1e-7))
    for cfg in (off_grid, detuned):
        assert build_dictionary(cfg).band_gram is None


def test_lipschitz_closed_form_matches_dense(points):
    # Phi's and M*Phi's constants, as the harness computes them and as the
    # point's solver operators carry them, against eigvalsh of the dense A A^H,
    # for every compression kind at M=4, N=6 and at paper scale
    cfg = make_random_array_config(np.random.default_rng(12), 8, 12, 1e6, 9e-6)
    d = build_dictionary(cfg)
    cases = [(d, build_compression_matrix(np.random.default_rng(1), cfg, 2, "gaussian"))]
    d_small = points[1][0]
    cases += [(d_small, build_compression_matrix(np.random.default_rng(2), d_small.config,
                                                 dcr, kind))
              for kind in COMPRESSION_KINDS for dcr in (1, 3)]
    for d, comp in cases:
        phi_lip, task_lip = _dense_lipschitz(d, comp)
        assert abs(harness._solver_operator(d)[2] - phi_lip) <= 1e-10 * phi_lip
        assert abs(harness._solver_operator(d, comp)[2] - task_lip) <= 1e-10 * task_lip
    for d, ctx in points:
        phi_lip, task_lip = _dense_lipschitz(d, ctx.compression)
        assert abs(ctx.phi[2] - phi_lip) <= 1e-10 * phi_lip
        assert abs(ctx.task[2] - task_lip) <= 1e-10 * task_lip


def test_task_lipschitz_never_below_dense():
    # the step cap SAFE_STEP / L_f must not pass 1 / ||M Phi||^2: the task
    # constant is never below the dense largest eigenvalue. On the first of
    # these paper-scale arrays, power iteration reads it more than SAFE_STEP's
    # margin low
    for seed in (9, 3, 5):
        rng = np.random.default_rng(seed)
        cfg = make_random_array_config(rng, 8, 12, 1e6, 9e-6)
        d = build_dictionary(cfg)
        comp = build_compression_matrix(rng, cfg, 2, "gaussian")
        _, task_lip = _dense_lipschitz(d, comp)
        assert harness._solver_operator(d, comp)[2] >= task_lip * (1 - 1e-12)
        if seed == 9:
            power = power_iteration_lipschitz(
                lambda x: apply_blocks(comp, d.apply(x)),
                lambda y: d.apply_adjoint(apply_blocks_adjoint(comp, y)), cfg.grid_size)
            assert power * SAFE_STEP < task_lip


def test_sweep_point_beyond_old_dense_cap():
    # M=16, N=16, L=15: a dense Phi would take 3840 x 61440 x 16 B = 3.8 GB,
    # above the 2 GiB that used to cap the dictionary build
    cfg = make_random_array_config(np.random.default_rng(16), 16, 16, 1e6, 15e-6)
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
    assert np.allclose(apply_fbar(x, 1), x)


def test_fbar_unitary_roundtrip():
    rng = np.random.default_rng(6)
    L, P = 5, 3
    x = rng.standard_normal(L * P) + 1j * rng.standard_normal(L * P)
    assert np.allclose(apply_fbar_adjoint(apply_fbar(x, L), L), x, atol=1e-12)
    F = fbar_matrix(L, P)
    assert np.allclose(F @ F.conj().T, np.eye(L * P), atol=1e-12)
    assert np.allclose(apply_fbar(x, L), F @ x)


def test_fbar_dft_column():
    y = apply_fbar(np.array([1.0, 0, 0, 0]), 4)
    assert np.allclose(y, np.full(4, 0.5))


def test_fbar_length_mismatch():
    with pytest.raises(ValueError):
        apply_fbar(np.zeros(5), 2)
