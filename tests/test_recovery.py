import numpy as np
import pytest

import bitmimo as bm
from bitmimo.recovery import (RecoverySpec, estimate_support, fista, hit_rate,
                              power_iteration_lipschitz, recovery_error_bound,
                              relative_mse, soft_threshold)
from bitmimo.statistics import build_compression_matrix
from dense_oracle import dense_phi, reference_fista


def _ops(A):
    return (lambda x: A @ x), (lambda y: (y.conj() @ A).conj())


def test_fista_identity_soft_threshold_fixed_point():
    A = np.eye(2, dtype=complex)
    s = np.array([2.0, 0.1], dtype=complex)
    a = fista(*_ops(A), s, RecoverySpec(rho=0.5, max_iter=200, tol=1e-12), lipschitz=1.0)
    assert np.allclose(a, [1.5, 0.0], atol=1e-8)


def test_fista_zero_rho_orthonormal_is_least_squares():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a = fista(*_ops(q), s, RecoverySpec(rho=0.0, max_iter=300, tol=1e-13), lipschitz=1.0)
    assert np.allclose(a, q.conj().T @ s, atol=1e-9)


def test_fista_noiseless_single_atom_support():
    # MN*ML = 24 atoms, K = 1, random compression with J = 12: the largest
    # entry of the solution matches the brute-force best single atom
    cfg = bm.make_ula_config(2, 2, 1e6, 3e-6)
    d = bm.build_dictionary(cfg)
    rng = np.random.default_rng(1)
    M = (rng.standard_normal((12, cfg.mnl)) + 1j * rng.standard_normal((12, cfg.mnl))) / np.sqrt(2)
    A = M @ dense_phi(d)[d.perm]  # compression applied to the tone-major coefficients
    scene = bm.sample_scene(rng, 1, cfg)
    a_true = bm.scene_to_sparse_vector(scene, cfg)
    s = A @ a_true
    a_hat = fista(*_ops(A), s, RecoverySpec(max_iter=500, tol=1e-10))
    top = int(np.argmax(np.abs(a_hat)))
    # brute force over all 24 single-atom candidates
    scores = [np.abs(np.vdot(A[:, g], s)) / np.linalg.norm(A[:, g])
              for g in range(cfg.grid_size)]
    assert top == int(np.argmax(scores))
    assert top == int(np.flatnonzero(a_true)[0])


def test_fista_objective_nonincreasing():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((20, 50)) + 1j * rng.standard_normal((20, 50))
    s = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    _, info = fista(*_ops(A), s, RecoverySpec(rho=1.0, max_iter=150, tol=1e-14),
                    return_info=True)
    hist = np.asarray(info["objective"])
    assert np.all(np.diff(hist) <= 1e-10 * np.abs(hist[:-1]) + 1e-10)


def _lasso_problems():
    """Seeded sparse complex LASSO problems, as (apply, adjoint, s, k,
    lipschitz): three dense ones and the structured task operator M*Phi at
    M=4, N=6, L=7, composed the way the harness composes it."""
    out = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = (rng.standard_normal((40, 120)) + 1j * rng.standard_normal((40, 120))) / np.sqrt(80)
        a = np.zeros(120, dtype=complex)
        a[rng.choice(120, 3, replace=False)] = 1.0 + rng.random(3)
        s = A @ a + 0.01 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        out.append((*_ops(A), s, 3, np.linalg.norm(A, 2) ** 2))
    rng = np.random.default_rng(8)
    cfg = bm.make_random_array_config(rng, 4, 6, 1e6, 7e-6)
    d = bm.build_dictionary(cfg)
    comp = build_compression_matrix(rng, cfg, 2, "gaussian")
    pair = (lambda x: comp.apply_to_c(d.apply(x)[d.perm]),
            lambda y: d.apply_adjoint(comp.apply_adjoint_to_c(y)[d.iperm]))
    a = bm.scene_to_sparse_vector(bm.sample_scene(rng, 4, cfg), cfg)
    s = pair[0](a)
    s = s + 0.05 * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    out.append((*pair, s, 4, power_iteration_lipschitz(*pair, d.n_atoms)))
    return out


def _top(x, k):
    return set(np.argsort(-np.abs(x), kind="stable")[:k].tolist())


def test_fista_matches_reference_loop():
    # at the same max_iter the restarted two-apply loop ends no higher than the
    # three-apply loop without restart, in fewer iterations; both end near the
    # minimum with the same top-k support; a second call repeats it bitwise
    spec = RecoverySpec()
    for apply, adjoint, s, k, lip in _lasso_problems():
        x, info = fista(apply, adjoint, s, spec, lipschitz=lip, return_info=True)
        x_again, info_again = fista(apply, adjoint, s, spec, lipschitz=lip,
                                    return_info=True)
        assert np.array_equal(x, x_again)
        assert info["objective"] == info_again["objective"]
        x_ref, info_ref = reference_fista(apply, adjoint, s, spec, lipschitz=lip)
        _, info_long = fista(apply, adjoint, s, RecoverySpec(max_iter=5000, tol=1e-13),
                             lipschitz=lip, return_info=True)
        f, f_ref, f_min = (i["objective"][-1] for i in (info, info_ref, info_long))
        assert f <= f_ref * (1 + 1e-9)
        assert info["iterations"] < info_ref["iterations"]
        assert f - f_min <= 1e-4 * f_min
        assert f_ref - f_min <= 1e-4 * f_min
        assert _top(x, k) == _top(x_ref, k)


def test_fista_two_applies_per_iteration():
    for apply, adjoint, s, _, lip in _lasso_problems():
        calls = [0]

        def counted(fn):
            def inner(v):
                calls[0] += 1
                return fn(v)
            return inner

        _, info = fista(counted(apply), counted(adjoint), s, RecoverySpec(),
                        lipschitz=lip, return_info=True)
        assert calls[0] <= 2 * info["iterations"] + 2


def test_fista_rejects_bad_inputs():
    A = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        fista(*_ops(A), np.array([np.inf, 0.0]), RecoverySpec())
    with pytest.raises(ValueError):
        fista(*_ops(np.zeros((2, 2))), np.ones(2, dtype=complex), RecoverySpec())


def test_power_iteration_matches_spectral_norm():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((15, 40)) + 1j * rng.standard_normal((15, 40))
    lam = power_iteration_lipschitz(*_ops(A), 40)
    true = np.linalg.norm(A, 2) ** 2
    assert lam == pytest.approx(true, rel=1e-4)


def test_soft_threshold_properties():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert np.array_equal(soft_threshold(v, 0.0), v)
    out = soft_threshold(v, 0.4)
    nz = np.abs(out) > 0
    assert np.allclose(np.angle(out[nz]), np.angle(v[nz]))
    assert np.all(np.abs(out) <= np.abs(v) + 1e-15)
    assert soft_threshold(np.array([0.0 + 0j]), 1.0)[0] == 0.0


def test_estimate_support_index_arithmetic():
    a = np.zeros(36, dtype=complex)
    a[17] = 3.0
    assert estimate_support(a, 1, mn=6) == [(2, 5)]
    assert estimate_support(a, 0, mn=6) == []
    with pytest.raises(ValueError):
        estimate_support(a, 37, mn=6)


def test_estimate_support_tie_break_lower_index():
    a = np.zeros(12, dtype=complex)
    a[5] = 1.0
    a[9] = 1.0
    assert estimate_support(a, 1, mn=4) == [(1, 1)]  # index 5 wins the tie


def test_estimate_support_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    base = estimate_support(a, 4, mn=6)
    assert estimate_support(a * (2.5 - 1.3j), 4, mn=6) == base


def test_hit_rate_cases():
    scene = bm.TargetScene(delay_idx=[0, 1, 2, 3], angle_idx=[0, 1, 2, 3],
                           alpha=[1, 1, 1, 1])
    truth = list(zip(scene.delay_idx, scene.angle_idx))
    assert hit_rate(scene, truth) == 1.0
    assert hit_rate(scene, [(9, 9), (8, 8), (7, 7), (6, 6)]) == 0.0
    assert hit_rate(scene, truth[:2] + [(9, 9), (8, 8)]) == 0.5
    empty = bm.TargetScene(delay_idx=[], angle_idx=[], alpha=[])
    assert hit_rate(empty, []) == 1.0


def test_relative_mse_cases():
    x = np.array([1.0, 0.0])
    assert relative_mse(x, x) == 0.0
    assert relative_mse(x, np.zeros(2)) == 1.0
    assert relative_mse(x, np.array([0.0, 1.0])) == 2.0
    with pytest.raises(ValueError):
        relative_mse(np.zeros(2), x)


def test_recovery_bound_arithmetic():
    b = recovery_error_bound(1, 0.1, 0.3, 0.3, 0.1)
    assert b.condition_ok and bool(b)
    assert b.value == pytest.approx(0.7 / (1 - 0.3))
    assert b.k_limit == pytest.approx((1 / 0.1 + 1) / 4)


def test_recovery_bound_zero_coherence():
    b = recovery_error_bound(1000, 0.0, 1.0, 2.0, 3.0)
    assert b.condition_ok
    assert b.value == pytest.approx(6.0)


def test_recovery_bound_condition_failure():
    b = recovery_error_bound(4, 0.2, 1.0, 1.0, 1.0)
    assert not b.condition_ok and not bool(b)
    assert b.value is None
    assert b.k_limit == pytest.approx(1.5)
    with pytest.raises(ValueError):
        recovery_error_bound(1, 1.5, 0, 0, 0)

