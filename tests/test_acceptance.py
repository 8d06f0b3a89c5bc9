"""Acceptance suite: every criterion as one test, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The full-scale experiments
(criteria 1, 5, 6, 8) share one randomized-array configuration at the
production dimensions M=8, N=12, L=9; randomized element positions and tone
assignment are part of the experimental protocol (uniform arrays with
sequential tone offsets carry a delay-angle ambiguity ridge that no recovery
method can resolve).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import bitmimo as bm
from bitmimo.adc import quantize_complex_vector, quantize_real
from bitmimo.combiner import design_multitone
from bitmimo.dictionary import apply_fbar, build_dictionary
from bitmimo.harness import ExperimentSpec, draw_trial, run_bilimo_trial, run_sweep
from bitmimo.recovery import RecoverySpec, fista, power_iteration_lipschitz
from dense_oracle import (dense_task, eval_c_direct, reference_emse_of_combiner,
                          reference_support_gamma, stacked_statistics)
from layouts import make_random_array_config, make_ula_config
from theory import coherence, recovery_error_bound

FULL_ARRAY_SEED = 2026   # array/tone draw for the production-scale experiments
MASTER_SEED = 17


def _passed(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def full_scale():
    cfg = make_random_array_config(np.random.default_rng(FULL_ARRAY_SEED),
                                      8, 12, 1e6, 9e-6)
    return cfg, bm.build_dictionary(cfg)


def test_acceptance_1_dictionary_oracle(full_scale):
    # 100 random K=4 scenes at M=8, N=12, L=9: the dictionary product matches
    # the closed-form coefficient evaluation to 1e-9 relative, within 60 s.
    cfg, d = full_scale
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        scene = bm.sample_scene(rng, 4, cfg)
        a = bm.scene_to_sparse_vector(scene, cfg)
        direct = eval_c_direct(scene, cfg)
        rel = np.linalg.norm(d.apply(a) - direct) / np.linalg.norm(direct)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed <= 60.0
    _passed(1, f"dictionary oracle max rel err {worst:.2e} over 100 scenes "
               f"({elapsed:.1f}s)")


def test_acceptance_2_quantizer_contract():
    assert quantize_real(0.3, 2, 1.0) == 0.5
    assert quantize_real(-0.7, 2, 1.0) == -0.5
    assert quantize_real(1.5, 2, 1.0) == 0.5

    rng = np.random.default_rng(2)
    support, step = 4.0, 2.0 * 4.0 / 16
    n = 1_000_000
    v = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    keep = (np.abs(v.real) < support - step) & (np.abs(v.imag) < support - step)
    v = v[keep]
    z, _ = quantize_complex_vector(v, 16, support, rng)
    err = np.concatenate([(z - v).real, (z - v).imag])
    var = float(np.var(err))
    target = step ** 2 / 6.0
    assert abs(var - target) <= 0.03 * target
    _passed(2, f"level triples exact; dithered error variance {var:.5f} vs "
               f"step^2/6 = {target:.5f}")


def test_acceptance_3_design_invariants():
    # small config MN=12, L=3; designed combiner satisfies the normalization,
    # equal-diagonal and support invariants, and no random unit-trace combiner
    # among 200 achieves lower modeled excess MSE.
    cfg = make_ula_config(3, 4, 1e6, 3e-6, sigma_n_sq=0.1)
    stats = bm.build_covariances(cfg, K=3)
    comp = bm.build_compression_matrix(np.random.default_rng(3), cfg, 2, "gaussian")
    channels = comp.shape[1]
    design = design_multitone(stats, comp, channels, 4, cfg.eta)
    dense = stacked_statistics(stats, comp)

    assert design.support == cfg.eta / np.sqrt(channels)  # exact
    for i, B in enumerate(design.combiner_blocks):
        assert abs(design.gains_sq[i].sum() - 1.0) <= 1e-10
        bsb = B @ dense.sigma[i] @ B.conj().T
        dg = np.diag(bsb).real
        assert dg.max() - dg.min() <= 1e-8 * np.trace(bsb).real / channels

    rng = np.random.default_rng(4)
    designed = design.emse
    best_random = np.inf
    for _ in range(200):
        blocks = []
        for i in range(cfg.L):
            B = rng.standard_normal((channels, cfg.mn)) \
                + 1j * rng.standard_normal((channels, cfg.mn))
            B /= np.sqrt(np.trace(B @ dense.sigma[i] @ B.conj().T).real)
            blocks.append(B)
        blocks = np.stack(blocks)
        gamma_rand = reference_support_gamma(blocks, dense, cfg.eta)
        val = reference_emse_of_combiner(blocks, dense, comp, gamma_rand, 4)
        best_random = min(best_random, val)
        assert designed <= val * (1 + 1e-9)
    _passed(3, f"normalization/equal-diagonal/support invariants hold; designed "
               f"EMSE {designed:.4f} <= best of 200 random {best_random:.4f}")


def test_acceptance_4_theory_vs_simulation():
    # M=2, N=3, L=3, dcr=2, b=4, eta=2, K=4 Gaussian scenes at SNR 10 dB:
    # the mean simulated ||s - s_hat||^2 over 2000 trials matches
    # eps_lmmse + eps_emse within 10 percent. (The small residual gap is ADC
    # clipping on strong scenes, outside the non-overload model.)
    t0 = time.perf_counter()
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    cfg = cfg.at_snr(10.0)
    d = build_dictionary(cfg)
    K = 4
    stats = bm.build_covariances(cfg, K)
    comp = bm.build_compression_matrix(np.random.default_rng(0), cfg, 2, "gaussian")
    design = design_multitone(stats, comp, comp.shape[1], 4, cfg.eta)
    a_mat = dense_task(d, comp)
    ops = ((lambda x: a_mat @ x), (lambda y: (y.conj() @ a_mat).conj()))
    ctx = SimpleNamespace(
        config=cfg, dictionary=d, compression=comp, design=design, k=K,
        coeff_model="gaussian",
        recovery=RecoverySpec(max_iter=3),  # only the task estimate matters here
        task=(*ops, power_iteration_lipschitz(*ops, a_mat.shape[1])))

    rng = np.random.default_rng(100)
    trials = 2000
    acc = 0.0
    for _ in range(trials):
        draw = draw_trial(ctx, rng)
        # ||s - s_hat||^2, from the relative error the trial reports
        acc += (run_bilimo_trial(ctx, draw, rng).mse_s
                * np.vdot(draw.s_true, draw.s_true).real)
    empirical = acc / trials
    theory = design.lmmse + design.emse
    elapsed = time.perf_counter() - t0
    assert abs(empirical - theory) <= 0.10 * theory
    assert elapsed <= 300.0
    _passed(4, f"mean ||s-s_hat||^2 = {empirical:.2f} vs eps_L+eps_o = "
               f"{theory:.2f} ({100 * (empirical / theory - 1):+.1f}%, "
               f"{trials} trials, {elapsed:.0f}s)")


def test_acceptance_5_detection_at_low_snr(full_scale):
    # production scale, budget 2*MNL = 1728 bits, dcr=2, K=4, SNR=-10 dB,
    # 50 trials: designed-receiver hit rate >= 0.95 within 30 minutes.
    cfg, d = full_scale
    t0 = time.perf_counter()
    spec = ExperimentSpec(config=cfg, budget_bits=(1728,), snr_db=(-10.0,),
                          dcr=(2,), k=(4,), methods=("bilimo",), trials=50,
                          master_seed=MASTER_SEED, coeff_model="unit_modulus",
                          recovery=RecoverySpec(rho_scale=0.2, max_iter=300))
    result = run_sweep(spec, dictionary=d)
    p = result.points[0]
    elapsed = time.perf_counter() - t0
    assert p.trials == 50 and p.n_failed == 0
    assert p.hit_rate_mean >= 0.95
    assert elapsed <= 1800.0
    _passed(5, f"hit rate {p.hit_rate_mean:.3f} at SNR -10 dB, budget 1728, "
               f"dcr 2 ({elapsed:.0f}s for 50 trials)")


def test_acceptance_6_ordering_claims(full_scale):
    # budget 1728, 50 trials: (a) at SNR 10 dB the designed receiver beats
    # task-ignorant quantization on mean MSE(a); (b) at SNR -15 dB it is no
    # worse than unquantized direct recovery.
    cfg, d = full_scale
    t0 = time.perf_counter()
    common = dict(config=cfg, budget_bits=(1728,), dcr=(2,), k=(4,), trials=50,
                  master_seed=MASTER_SEED, coeff_model="gaussian",
                  recovery=RecoverySpec(max_iter=300))
    high = run_sweep(ExperimentSpec(snr_db=(10.0,),
                                    methods=("bilimo", "task_ignorant"), **common),
                     dictionary=d)
    by_high = {p.method: p for p in high.points}
    low = run_sweep(ExperimentSpec(snr_db=(-15.0,),
                                   methods=("bilimo", "noquan_dr"), **common),
                    dictionary=d)
    by_low = {p.method: p for p in low.points}
    elapsed = time.perf_counter() - t0
    assert by_high["bilimo"].mse_a_mean < by_high["task_ignorant"].mse_a_mean
    assert by_low["bilimo"].mse_a_mean <= by_low["noquan_dr"].mse_a_mean
    _passed(6, "orderings hold: at 10 dB designed "
               f"{by_high['bilimo'].mse_a_mean:.3f} < task-ignorant "
               f"{by_high['task_ignorant'].mse_a_mean:.3f}; at -15 dB designed "
               f"{by_low['bilimo'].mse_a_mean:.3f} <= unquantized-direct "
               f"{by_low['noquan_dr'].mse_a_mean:.3f} ({elapsed:.0f}s)")


def test_acceptance_7_recovery_error_bound():
    # 50 single-band instances with coherence below the K=1 stability limit
    # and non-overloaded quantizers: the realized ||a - a_hat||^2 of the
    # feasibility-calibrated l1 solution never exceeds the bound.
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        assert seed < 400, "instance generation exhausted"
        rng = np.random.default_rng((seed, 23))
        cfg = make_ula_config(1, 12, 1e6, 9e-6, eta=3.0, sigma_n_sq=0.05)
        d = build_dictionary(cfg)
        K = 1
        stats = bm.build_covariances(cfg, K)
        comp = bm.build_compression_matrix(rng, cfg, 1, "gaussian")
        a_mat = dense_task(d, comp)
        mu = coherence(a_mat)
        if not recovery_error_bound(K, mu, 0, 0, 0).condition_ok:
            continue
        design = design_multitone(stats, comp, comp.shape[1], 16, cfg.eta)
        scene = bm.sample_scene(rng, K, cfg, "unit_modulus")
        a = bm.scene_to_sparse_vector(scene, cfg)
        c = d.apply_cells(scene.cells, scene.alpha)
        w = np.sqrt(cfg.sigma_n_sq / 2) * (rng.standard_normal(cfg.mnl)
                                           + 1j * rng.standard_normal(cfg.mnl))
        u = apply_fbar(design.apply_combiner(c + w), cfg.L)
        z, sat = quantize_complex_vector(u, design.levels, design.support, rng)
        if sat > 0:
            continue  # the bound presumes non-overloaded quantizers
        s_hat = design.apply_digital(z)
        eps_t = float(np.linalg.norm(s_hat - a_mat @ a) ** 2)

        ops = ((lambda x: a_mat @ x), (lambda y: (y.conj() @ a_mat).conj()))
        lip = power_iteration_lipschitz(*ops, a_mat.shape[1])
        # sweep rho down the LASSO path to the constrained-form solution whose
        # residual matches the calibrated feasibility level
        hi = float(np.max(np.abs(ops[1](s_hat))))
        lo = 1e-6 * hi
        a_hat = np.zeros(cfg.grid_size, dtype=complex)
        for _ in range(30):
            mid = np.sqrt(lo * hi)
            cand = fista(*ops, s_hat, RecoverySpec(rho=mid, max_iter=400, tol=1e-9),
                         lipschitz=lip)
            res = float(np.linalg.norm(s_hat - a_mat @ cand) ** 2)
            if res > eps_t:
                hi = mid
            else:
                lo, a_hat = mid, cand
                if res >= 0.8 * eps_t:
                    break
        err = float(np.linalg.norm(a - a_hat) ** 2)
        bound = recovery_error_bound(K, mu, design.lmmse, design.emse, eps_t)
        assert bound.condition_ok
        assert err <= bound.value
        checked += 1
    _passed(7, f"recovery error within the stability bound on all {checked} "
               "qualifying instances")


def test_acceptance_8_matrix_kind_insensitivity(full_scale):
    # gaussian vs bernoulli vs dft compression at budget 1728, SNR 10 dB:
    # mean MSE(a) values within 15 percent of each other. The same master seed
    # gives every kind identical scenes and noise.
    cfg, d = full_scale
    t0 = time.perf_counter()
    means = {}
    for kind in ("gaussian", "bernoulli", "dft"):
        spec = ExperimentSpec(config=cfg, budget_bits=(1728,), snr_db=(10.0,),
                              dcr=(2,), k=(4,), matrix_kinds=(kind,),
                              methods=("bilimo",), trials=50,
                              master_seed=MASTER_SEED, coeff_model="gaussian",
                              recovery=RecoverySpec(max_iter=300))
        means[kind] = run_sweep(spec, dictionary=d).points[0].mse_a_mean
    elapsed = time.perf_counter() - t0
    spread = max(means.values()) / min(means.values()) - 1.0
    assert spread <= 0.15
    _passed(8, "mean MSE(a) per kind: " +
            ", ".join(f"{k}={v:.4f}" for k, v in means.items()) +
            f"; spread {100 * spread:.1f}% ({elapsed:.0f}s)")


def test_acceptance_9_sweep_determinism(tmp_path):
    # repeated `sweep` with an identical seed produces a byte-identical CSV
    import json
    from bitmimo.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "array": "random",
    }))
    args = ["sweep", "--config", str(cfg_path), "--seed", "9", "--trials", "3",
            "--budget-bits", "36", "--snr-db", "0,10", "--dcr", "2", "--k", "2",
            "--methods", "bilimo,task_ignorant,noquan_dr,noquan_lmmse",
            "--max-iter", "60"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    _passed(9, f"two sweep runs produced byte-identical CSVs ({len(b1)} bytes, "
               "8 rows covering 2 SNR points x 4 methods)")
