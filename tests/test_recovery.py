import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bitmimo as bm
from bitmimo import harness
from bitmimo.dictionary import apply_blocks, apply_blocks_adjoint
from bitmimo.recovery import (RecoverySpec, estimate_support, fista, hit_rate,
                              power_iteration_lipschitz, relative_mse)
from bitmimo.statistics import build_compression_matrix
from dense_oracle import dense_phi, reference_fista, reference_restarted_fista
from layouts import make_random_array_config, make_ula_config
from theory import recovery_error_bound, soft_threshold


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
    cfg = make_ula_config(2, 2, 1e6, 3e-6)
    d = bm.build_dictionary(cfg)
    rng = np.random.default_rng(1)
    M = (rng.standard_normal((12, cfg.mnl)) + 1j * rng.standard_normal((12, cfg.mnl))) / np.sqrt(2)
    A = M @ dense_phi(d)  # compression applied to the tone-major coefficients
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


def _structured_pair(d, comp):
    """Phi's apply/adjoint pair (comp None) or M*Phi's, composed the way the
    harness composes it."""
    if comp is None:
        return d.apply, d.apply_adjoint
    return (lambda x: apply_blocks(comp, d.apply(x)),
            lambda y: d.apply_adjoint(apply_blocks_adjoint(comp, y)))


def _structured_problem(seed, M, N, pri, k, task=True):
    """(dictionary, compression or None, s): a noisy k-target observation s on
    M*Phi (task) or Phi of a random array."""
    rng = np.random.default_rng(seed)
    cfg = make_random_array_config(rng, M, N, 1e6, pri)
    d = bm.build_dictionary(cfg)
    comp = build_compression_matrix(rng, cfg, 2, "gaussian") if task else None
    a = bm.scene_to_sparse_vector(bm.sample_scene(rng, k, cfg), cfg)
    s = _structured_pair(d, comp)[0](a)
    s = s + 0.05 * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    return d, comp, s


def _task_problem(seed, M, N, pri, k):
    """A noisy k-target task vector s on the structured task operator M*Phi
    of a random array, composed the way the harness composes it."""
    d, comp, s = _structured_problem(seed, M, N, pri, k)
    pair = _structured_pair(d, comp)
    return (*pair, s, k, power_iteration_lipschitz(*pair, d.config.grid_size))


def _lasso_problems():
    """Seeded sparse complex LASSO problems, as (apply, adjoint, s, k,
    lipschitz): three dense ones and the structured task operator M*Phi at
    M=4, N=6, L=7."""
    out = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = (rng.standard_normal((40, 120)) + 1j * rng.standard_normal((40, 120))) / np.sqrt(80)
        a = np.zeros(120, dtype=complex)
        a[rng.choice(120, 3, replace=False)] = 1.0 + rng.random(3)
        s = A @ a + 0.01 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        out.append((*_ops(A), s, 3, np.linalg.norm(A, 2) ** 2))
    out.append(_task_problem(8, 4, 6, 7e-6, 4))
    return out


def _top(x, k):
    return set(np.argsort(-np.abs(x), kind="stable")[:k].tolist())


def test_fista_matches_reference_loop():
    # at the same max_iter the long-step loop ends no higher than the
    # three-apply loop without restart, and in fewer iterations than it and
    # than the restarted loop at the safe step alone; every solve ends within
    # 1e-6 of a long solve's objective with the same top-k support, also on
    # the paper-scale task operator (M=8, N=12, L=9); a second call repeats
    # it bitwise
    spec = RecoverySpec()
    for apply, adjoint, s, k, lip in _lasso_problems() + [_task_problem(9, 8, 12, 9e-6, 4)]:
        x, info = fista(apply, adjoint, s, spec, lipschitz=lip, return_info=True)
        x_again, info_again = fista(apply, adjoint, s, spec, lipschitz=lip,
                                    return_info=True)
        assert np.array_equal(x, x_again)
        assert info["objective"] == info_again["objective"]
        x_ref, info_ref = reference_fista(apply, adjoint, s, spec, lipschitz=lip)
        x_safe, info_safe = reference_restarted_fista(apply, adjoint, s, spec,
                                                      lipschitz=lip)
        x_long, info_long = fista(apply, adjoint, s, RecoverySpec(max_iter=5000, tol=1e-13),
                                  lipschitz=lip, return_info=True)
        f, f_ref, f_min = (i["objective"][-1] for i in (info, info_ref, info_long))
        assert f <= f_ref * (1 + 1e-9)
        assert info["iterations"] < info_safe["iterations"] < info_ref["iterations"]
        assert f - f_min <= 1e-6 * f_min
        assert f_ref - f_min <= 1e-4 * f_min
        assert _top(x, k) == _top(x_ref, k) == _top(x_safe, k) == _top(x_long, k)


def test_single_precision_solve_matches_double():
    # the harness's complex64 solve against the complex128 one, each at its
    # power-iteration constant (the harness's fallback for layouts without a
    # band Gram), on the task operator and on Phi at paper scale (M=8, N=12,
    # L=9) for six arrays: every operator call stays in complex64 and the
    # top-k support is that of the complex128 solve; on the first array (the
    # paper-scale problem of test_fista_matches_reference_loop) also that of a
    # long solve, with the objective (complex128 operator and rho) within 2e-6
    # of the long solve's.
    # The iteration counts differ by rounding either way: in all no more than
    # the complex128 solves, on any one problem at most 5% more
    spec = RecoverySpec()
    iterations = {np.complex128: 0, np.complex64: 0}
    for seed in (9, 1, 2, 3, 4, 5):
        for task in (True, False):
            d, comp, s = _structured_problem(seed, 8, 12, 9e-6, 4, task=task)
            pair = _structured_pair(d, comp)
            apply32, adjoint32, _ = harness._solver_operator(d, comp)
            lip32 = power_iteration_lipschitz(
                lambda x: apply32(x.astype(np.complex64)), adjoint32, d.config.grid_size)
            dtypes = set()

            def recorded(fn):
                def inner(v):
                    dtypes.add(v.dtype)
                    return fn(v)
                return inner

            lip = power_iteration_lipschitz(*pair, d.config.grid_size)
            assert abs(lip32 - lip) <= 1e-5 * lip
            x, info = fista(*pair, s, spec, lipschitz=lip, return_info=True)
            x32, info32 = fista(recorded(apply32), recorded(adjoint32),
                                s.astype(np.complex64), spec, lipschitz=lip32,
                                return_info=True)
            assert x32.dtype == np.complex64 and dtypes == {np.dtype(np.complex64)}
            assert _top(x32, 4) == _top(x, 4)
            assert info32["iterations"] <= 1.05 * info["iterations"]
            iterations[np.complex128] += info["iterations"]
            iterations[np.complex64] += info32["iterations"]
            if seed != 9:
                continue
            x_long, info_long = fista(*pair, s, RecoverySpec(max_iter=5000, tol=1e-13),
                                      lipschitz=lip, return_info=True)
            r = s - pair[0](x32.astype(complex))
            f32 = 0.5 * float(np.vdot(r, r).real) + info["rho"] * float(np.abs(x32).sum())
            f_min = info_long["objective"][-1]
            assert abs(f32 - f_min) <= 2e-6 * f_min
            assert _top(x_long, 4) == _top(x, 4)
    assert iterations[np.complex64] <= iterations[np.complex128]


def test_fista_duality_gap_certifies_the_solve():
    # info["gap"] is the relative gap at the rescaled-residual dual point,
    # computed here in full from the dense matrix; it bounds the solve's
    # relative distance to the optimum, and a long solve drives it to ~0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = (rng.standard_normal((40, 120)) + 1j * rng.standard_normal((40, 120))) / np.sqrt(80)
        s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        lip = np.linalg.norm(A, 2) ** 2
        x, info = fista(*_ops(A), s, RecoverySpec(max_iter=40), lipschitz=lip,
                        return_info=True)
        _, info_long = fista(*_ops(A), s, RecoverySpec(max_iter=20000, tol=1e-14),
                             lipschitz=lip, return_info=True)
        rho, r = info["rho"], s - A @ x
        primal = 0.5 * np.vdot(r, r).real + rho * np.abs(x).sum()
        theta = r * min(1.0, rho / np.abs(A.conj().T @ r).max())
        dual = 0.5 * np.vdot(s, s).real - 0.5 * np.vdot(s - theta, s - theta).real
        assert info["gap"] == pytest.approx((primal - dual) / primal, rel=1e-9)
        f, f_min = info["objective"][-1], info_long["objective"][-1]
        assert 0 < (f - f_min) / f <= info["gap"]
        assert 0 <= info_long["gap"] <= 1e-9


def test_fista_writes_into_no_input_or_operator_output():
    # s_hat and every array the operator returns, held by the operator, are
    # read-only and keep their values: the solver's vector work goes to
    # buffers of its own
    apply, adjoint, s, _, lip = _lasso_problems()[-1]
    held = []

    def holding(fn):
        def inner(v):
            out = fn(v)
            out.flags.writeable = False
            held.append((out, out.copy()))
            return out
        return inner

    s = s.copy()
    s.flags.writeable = False
    s_before = s.copy()
    x, info = fista(holding(apply), holding(adjoint), s, RecoverySpec(),
                    lipschitz=lip, return_info=True)
    assert np.array_equal(s, s_before)
    # A^H s_hat, an apply and an adjoint per iteration, an apply per
    # backtrack, the gap's adjoint
    assert len(held) == 2 * info["iterations"] + 2 + info["backtracks"]
    assert all(np.array_equal(out, before) for out, before in held)
    assert not any(np.shares_memory(x, out) for out, _ in held)


def test_fista_backtracking_matches_reference_loop():
    # the backtracking step against a plain loop that tests sufficient
    # decrease on A y applied afresh: the same iterations, backtracks and
    # iterate with L_f exact, overestimated 10x (the trial constant falls to
    # its floor 0.05*L_f) and underestimated 2x (it grows to the safe cap
    # 1.02*L_f, where the trial is kept untested); the objective history
    # stays nonincreasing
    floors = caps = 0
    for apply, adjoint, s, _, lip in _lasso_problems():
        for lipschitz in (lip, 10 * lip, 0.5 * lip):
            x, info = fista(apply, adjoint, s, RecoverySpec(), lipschitz=lipschitz,
                            return_info=True)
            x_ref, info_ref = reference_restarted_fista(
                apply, adjoint, s, RecoverySpec(), lipschitz=lipschitz, backtrack=True)
            assert info["iterations"] == info_ref["iterations"]
            assert info["backtracks"] == info_ref["backtracks"]
            assert np.allclose(x, x_ref, rtol=0, atol=1e-9 * np.abs(x_ref).max())
            assert np.all(np.diff(info["objective"]) <= 0)
            floors += info_ref["steps"].count(0.05 * lipschitz)
            caps += info_ref["steps"].count(1.02 * lipschitz)
    assert floors > 0 and caps > 0


def test_fista_recovers_from_an_overestimated_lipschitz():
    # with L_f overestimated 10x the trial constant falls to the curvature the
    # iterates see: each solve reaches the objective of its solve at the exact
    # L_f within 1e-6, in under half the iterations the fixed long step of
    # 1/(0.65*L_f) (dropped for good to 1/(1.02*L_f) at the first rejected
    # candidate) took on these problems
    fixed_step_iterations = (153, 134, 121, 251)
    for (apply, adjoint, s, _, lip), fixed in zip(_lasso_problems(),
                                                  fixed_step_iterations):
        _, info = fista(apply, adjoint, s, RecoverySpec(), lipschitz=lip,
                        return_info=True)
        _, info_over = fista(apply, adjoint, s, RecoverySpec(), lipschitz=10 * lip,
                             return_info=True)
        f, f_over = info["objective"][-1], info_over["objective"][-1]
        assert f_over - f <= 1e-6 * f
        assert info_over["iterations"] < 0.5 * fixed


def test_fista_single_precision_stop_is_not_early(tmp_path, monkeypatch):
    # the benchmark's paper-point solve (seed 0, array 1, bilimo) that the
    # fixed-step rule stopped 3.4e-6 above the optimum: its monotone guard
    # rejected a candidate on float32 objective noise and the iterate-change
    # stop fired two iterations later (at one BLAS thread, as CI and the
    # benchmark run). It now ends within 2e-6 of a long double-precision
    # solve on the same operator and rho
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workload
    spec = replace(workload.PaperPoint(0, tmp_path).specs[1], methods=("bilimo",))
    solves = []

    def recording(apply, adjoint, s_hat, rspec, **kwargs):
        x, info = fista(apply, adjoint, s_hat, rspec, **kwargs)
        solves.append((apply, adjoint, s_hat, kwargs["lipschitz"], x, info))
        return x, info

    monkeypatch.setattr(harness, "fista", recording)
    harness.run_sweep(spec)
    ((apply, adjoint, s_hat, lip, x, info),) = solves
    assert x.dtype == np.complex64
    s, rho = s_hat.astype(complex), info["rho"]
    _, info_long = fista(apply, adjoint, s, RecoverySpec(rho=rho, max_iter=4000, tol=1e-13),
                         lipschitz=lip, return_info=True)
    r = s - apply(x.astype(complex))
    f = 0.5 * float(np.vdot(r, r).real) + rho * float(np.abs(x).sum())
    f_min = info_long["objective"][-1]
    assert f - f_min <= 2e-6 * f_min


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
        # A^H s_hat, an adjoint and an apply per iteration, an apply per
        # backtrack, the gap's adjoint
        assert calls[0] == 2 * info["iterations"] + 2 + info["backtracks"]


def test_fista_rejects_bad_inputs():
    A = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        fista(*_ops(A), np.array([np.inf, 0.0]), RecoverySpec())
    with pytest.raises(ValueError):
        fista(*_ops(np.zeros((2, 2))), np.ones(2, dtype=complex), RecoverySpec())
    for bad in (-0.5, np.inf, np.nan, True, False):
        for name in ("rho_scale", "rho"):
            with pytest.raises(ValueError,
                               match=f"{name} must be (a number|nonnegative and finite)"):
                RecoverySpec(**{name: bad})


def test_fista_refuses_a_lipschitz_constant_that_is_not_positive_and_finite():
    # a nan constant fails every backtracking test and an infinite one returns
    # zeros after one iteration; the applies are capped so that a solve that
    # takes such a constant ends instead of spinning
    A = np.eye(2, dtype=complex)
    applies = []

    def apply(x):
        applies.append(1)
        if len(applies) > 100:
            raise RuntimeError("the solve took the constant")
        return A @ x

    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="lipschitz must be positive and finite"):
            fista(apply, _ops(A)[1], np.ones(2, dtype=complex), RecoverySpec(),
                  lipschitz=bad)


def test_recovery_spec_rejects_bad_stop_controls():
    # a nan tol never fires and an infinite one stops after one iteration; a
    # non-integer max_iter would fail only at the first solve
    for bad in (np.nan, np.inf, 0.0, -1e-5, True):
        with pytest.raises(ValueError, match="tol must be (a number|positive and finite)"):
            RecoverySpec(tol=bad)
    for bad in (2.5, 300.0, "300", None, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            RecoverySpec(max_iter=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            RecoverySpec(max_iter=bad)
    assert RecoverySpec(max_iter=np.int64(5), tol=1e-3).max_iter == 5


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
    assert estimate_support(a, 1).tolist() == [17]
    assert estimate_support(a, 0).tolist() == []
    with pytest.raises(ValueError):
        estimate_support(a, 37)
    with pytest.raises(ValueError):
        estimate_support(a, -1)


def test_estimate_support_tie_break_lower_index():
    a = np.zeros(12, dtype=complex)
    a[5] = 1.0
    a[9] = 1.0
    assert estimate_support(a, 1).tolist() == [5]  # index 5 wins the tie


def test_estimate_support_matches_full_stable_sort():
    # the partition-then-sort selection gives the first k cells of the full
    # stable sort, in its order, on vectors with exact ties, zeros, complex
    # values of equal magnitude and NaN, for every k
    rng = np.random.default_rng(27)
    for case in range(300):
        n = int(rng.integers(1, 60))
        a = rng.choice([0.0, 1.0, 2.0, -2.0, 3.5], size=n) \
            + 1j * rng.choice([0.0, 2.0, -2.0], size=n)
        if case % 3 == 1:
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a[rng.integers(0, n, size=n // 2)] = 0.0
        elif case % 3 == 2:
            a[rng.integers(0, n, size=1 + n // 10)] = complex(np.nan, 0.0)
        want = np.argsort(-np.abs(a), kind="stable")
        for k in range(n + 1):
            got = estimate_support(a, k)
            assert got.dtype == want.dtype and np.array_equal(got, want[:k]), (case, k)


def test_estimate_support_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    base = estimate_support(a, 4)
    assert np.array_equal(estimate_support(a * (2.5 - 1.3j), 4), base)


def test_hit_rate_cases():
    # cells l1*6 + l2 of the (l1, l2) pairs (0, 0), (1, 1), (2, 2), (3, 3)
    truth = bm.TargetScene(cells=[0, 7, 14, 21], alpha=[1, 1, 1, 1]).cells
    assert hit_rate(truth, truth) == 1.0
    assert hit_rate(truth, truth[::-1]) == 1.0
    assert hit_rate(truth, [63, 56, 49, 42]) == 0.0
    assert hit_rate(truth, [truth[0], truth[1], 56, 49]) == 0.5
    empty = bm.TargetScene(cells=[], alpha=[])
    assert hit_rate(empty.cells, np.array([], dtype=np.int64)) == 1.0


def test_support_and_hit_rate_match_the_pair_computation():
    # flat-cell support and hit rate agree with the (l1, l2)-pair computation
    # on random estimates with planted exact magnitude ties, for k from 1 to
    # the grid size
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    grid, mn = cfg.grid_size, cfg.mn
    rng = np.random.default_rng(29)
    ties = 0
    for trial in range(300):
        k = int(rng.integers(1, grid + 1)) if trial % 3 else int(rng.integers(1, 6))
        scene = bm.sample_scene(rng, k, cfg)
        a_hat = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
        # plant exact ties: copy entries onto other cells turned by a multiple
        # of 90 degrees or conjugated (|.| is unchanged bit for bit), and zero
        # random cells so that many entries tie at 0
        src, dst = rng.integers(0, grid, size=(2, 16))
        turned = a_hat[src] * rng.choice([1, -1, 1j, -1j], size=16)
        a_hat[dst] = np.where(rng.uniform(size=16) < 0.5, turned, turned.conj())
        a_hat[rng.integers(0, grid, size=int(rng.integers(0, grid)))] = 0.0
        mags = np.abs(a_hat)
        ties += mags.size - np.unique(mags).size
        support = estimate_support(a_hat, k)
        order = sorted(range(grid), key=lambda i: (-mags[i], i))[:k]
        assert support.tolist() == order
        # the (delay, angle)-pair computation: top-k cells as (l1, l2) tuples
        est = {(i // mn, i % mn) for i in order}
        hits = sum((int(c) // mn, int(c) % mn) in est for c in scene.cells)
        assert hit_rate(scene.cells, support) == hits / k
    assert ties > 1000


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

