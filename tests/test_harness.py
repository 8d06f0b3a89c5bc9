import json
from types import SimpleNamespace

import numpy as np
import pytest

import bitmimo as bm
from bitmimo import harness
from bitmimo.harness import CSV_COLUMNS, ExperimentSpec, run_sweep
from bitmimo.recovery import RecoverySpec
from dense_oracle import dense_task


@pytest.fixture(scope="module")
def small_cfg():
    return bm.make_ula_config(2, 3, 1e6, 3e-6)


def _spec(cfg, **kw):
    base = dict(config=cfg, budget_bits=(2 * cfg.mnl,), snr_db=(10.0,),
                dcr=(2,), k=(2,), matrix_kinds=("gaussian",),
                methods=("bilimo",), trials=3, master_seed=7,
                recovery=RecoverySpec(max_iter=60))
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation(small_cfg):
    with pytest.raises(ValueError):
        _spec(small_cfg, trials=0)
    with pytest.raises(ValueError):
        _spec(small_cfg, snr_db=())
    with pytest.raises(ValueError):
        _spec(small_cfg, methods=("bogus",))


def test_single_point_runs_all_methods(small_cfg):
    spec = _spec(small_cfg, methods=bm.METHODS, trials=2)
    result = run_sweep(spec)
    assert len(result.points) == 4
    for p in result.points:
        assert p.trials == 2
        assert np.isfinite(p.mse_s_mean) and np.isfinite(p.mse_a_mean)
        assert 0.0 <= p.hit_rate_mean <= 1.0
        assert p.eps_lmmse > 0
    by_method = {p.method: p for p in result.points}
    assert by_method["bilimo"].eps_emse is not None
    assert by_method["noquan_dr"].eps_emse is None
    assert by_method["noquan_dr"].saturation_rate is None
    assert by_method["task_ignorant"].saturation_rate is not None


def test_noiseless_high_resolution_pipeline_is_exact(small_cfg):
    # sigma_n ~ 0 and b enormous: near-perfect task estimate and full hits.
    # Fixed-modulus reflections keep the per-realization input power at the
    # design value, so the ADCs stay inside their support.
    cfg = small_cfg
    spec = _spec(cfg, budget_bits=(2 * 24 * cfg.mnl,), snr_db=(140.0,), k=(1,),
                 trials=3, coeff_model="unit_modulus",
                 recovery=RecoverySpec(max_iter=400, tol=1e-9))
    result = run_sweep(spec)
    p = result.points[0]
    assert max(p.saturation) == 0.0
    assert p.mse_s_mean < 1e-6
    assert p.hit_rate_mean == 1.0


def test_lmmse_path_matches_theory(small_cfg):
    # mean ||s - s_tilde||^2 for the unquantized LMMSE baseline equals eps_L
    # within 3 percent (Monte Carlo over scene draws, absolute errors)
    from bitmimo.harness import draw_trial, run_noquan_lmmse_trial

    cfg = small_cfg.with_noise_variance(bm.snr_to_noise_variance(1.0, small_cfg))
    K = 3
    d = bm.build_dictionary(cfg)
    stats = bm.build_covariances(cfg, K)
    comp = bm.build_compression_matrix(np.random.default_rng(1), cfg, 2, "gaussian")
    a_mat = dense_task(d, comp)
    ops = ((lambda x: a_mat @ x), (lambda y: (y.conj() @ a_mat).conj()))
    ctx = SimpleNamespace(config=cfg, dictionary=d, compression=comp,
                          gamma_blocks=bm.lmmse_transform(comp, stats),
                          recovery=RecoverySpec(max_iter=2),
                          operators={"task": (*ops, 1.0)})
    rng = np.random.default_rng(2)
    acc = 0.0
    n = 4000
    for _ in range(n):
        draw = draw_trial(ctx, rng, K, "gaussian")
        acc += run_noquan_lmmse_trial(ctx, draw, rng).err_s_abs
    assert acc / n == pytest.approx(bm.lmmse_error(comp, stats), rel=0.03)


def test_fixed_seed_reproducible_metrics(small_cfg):
    spec = _spec(small_cfg, trials=2)
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    for a, b in zip(r1.points, r2.points):
        assert a.mse_s == b.mse_s
        assert a.mse_a == b.mse_a
        assert a.hits == b.hits


def test_method_metrics_independent_of_selection(small_cfg):
    # per-method dither streams are keyed by canonical method order, so a
    # method's numbers do not change when other methods are toggled
    every = run_sweep(_spec(small_cfg, methods=bm.METHODS, trials=2)).points
    for p_all in every:
        only, = run_sweep(_spec(small_cfg, methods=(p_all.method,), trials=2)).points
        assert (only.mse_s, only.mse_a, only.hits) == (p_all.mse_s, p_all.mse_a,
                                                       p_all.hits)


def test_each_trial_synthesizes_its_scene_once(small_cfg, monkeypatch):
    calls = []
    original = bm.SteeringDictionary.apply_cells

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(bm.SteeringDictionary, "apply_cells", counted)
    spec = _spec(small_cfg, methods=bm.METHODS, trials=3, snr_db=(0.0, 10.0))
    run_sweep(spec)
    assert len(calls) == spec.trials * len(spec.snr_db)


def test_sidecar_reports_capped_solves(tmp_path, small_cfg):
    spec = _spec(small_cfg, methods=bm.METHODS, trials=2,
                 recovery=RecoverySpec(max_iter=1))
    run_sweep(spec, out_csv=tmp_path / "r.csv")
    timing = json.loads((tmp_path / "r.csv.meta.json").read_text())["timing"]
    assert sorted(timing) == [f"point0/{m}" for m in sorted(bm.METHODS)]
    for entry in timing.values():
        assert (entry["iters_mean"], entry["capped_frac"]) == (1.0, 1.0)
        for key in ("objective_mean", "rho_mean"):
            assert np.isfinite(entry[key]) and entry[key] > 0


def test_csv_bytes_deterministic(tmp_path, small_cfg):
    spec = _spec(small_cfg, methods=("bilimo", "noquan_dr"), trials=2,
                 snr_db=(0.0, 10.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec, out_csv=p1)
    run_sweep(spec, out_csv=p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().split("\n")[0]
    assert header == ",".join(CSV_COLUMNS)
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["master_seed"] == spec.master_seed
    assert "timing" in meta and "timestamp" in meta
    assert meta["config_hash"] == bm.combiner.config_hash(small_cfg)
    assert meta["numpy"] == np.__version__


def test_sweep_axes_cartesian_product(small_cfg):
    spec = _spec(small_cfg, snr_db=(0.0, 10.0), dcr=(1, 2), trials=1,
                 recovery=RecoverySpec(max_iter=3))
    result = run_sweep(spec)
    assert len(result.points) == 4
    combos = {(p.snr_db, p.dcr) for p in result.points}
    assert combos == {(0.0, 1), (0.0, 2), (10.0, 1), (10.0, 2)}


def test_aggregate_consistency(small_cfg):
    spec = _spec(small_cfg, trials=5)
    result = run_sweep(spec)
    p = result.points[0]
    arr = np.asarray(p.mse_a)
    assert p.mse_a_mean == pytest.approx(arr.mean())
    assert p.mse_a_se == pytest.approx(arr.std(ddof=1) / np.sqrt(arr.size))


def test_budget_below_one_bit_rejected(small_cfg):
    spec = _spec(small_cfg, budget_bits=(4,))
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_programming_error_in_a_trial_propagates(small_cfg, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(harness, "run_bilimo_trial", broken)
    with pytest.raises(TypeError, match="injected"):
        run_sweep(_spec(small_cfg))


def test_method_whose_every_trial_fails_raises(small_cfg, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(harness, "run_noquan_dr_trial", singular)
    with pytest.raises(RuntimeError, match="every trial of noquan_dr"):
        run_sweep(_spec(small_cfg, methods=("bilimo", "noquan_dr")))


def test_numerical_failure_excludes_one_trial(small_cfg, monkeypatch):
    original = harness.run_bilimo_trial
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_bilimo_trial", fails_once)
    p = run_sweep(_spec(small_cfg, trials=3)).points[0]
    assert (p.trials, p.n_failed) == (2, 1)
    assert np.isfinite(p.mse_a_mean)
