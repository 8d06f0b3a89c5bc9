import csv
import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import bitmimo as bm
from bitmimo import harness
from bitmimo.harness import CSV_COLUMNS, ExperimentSpec, run_sweep
from bitmimo.recovery import RecoverySpec
from dense_oracle import dense_task, reference_lmmse_error, stacked_statistics
from layouts import make_random_array_config, make_ula_config


@pytest.fixture(scope="module")
def small_cfg():
    return make_ula_config(2, 3, 1e6, 3e-6)


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
    with pytest.raises(ValueError, match="unknown coeff_model"):
        _spec(small_cfg, coeff_model="bogus")


def test_spec_rejects_non_integer_counts(small_cfg):
    # k=1.5 or True would pass the range check and run as k=1; each field is named
    for field, bad in (("k", (1.5,)), ("k", (2, 2.0)), ("dcr", (2.5,)),
                       ("budget_bits", (1728.0,)), ("budget_bits", ("1728",)),
                       ("k", (True,)), ("dcr", (True,)), ("budget_bits", (True,))):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            _spec(small_cfg, **{field: bad})
    for bad in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            _spec(small_cfg, trials=bad)
    # snr_db=(True,) would run at 1 dB, master_seed=True as seed 1
    for bad in ((True,), (10.0, False), ("10",)):
        with pytest.raises(ValueError, match="snr_db must be a number"):
            _spec(small_cfg, snr_db=bad)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            _spec(small_cfg, master_seed=bad)
    with pytest.raises(ValueError, match="master_seed must be nonnegative, got -1"):
        _spec(small_cfg, master_seed=-1)
    spec = _spec(small_cfg, k=(np.int64(2),), dcr=(np.int32(2),), trials=np.int64(1),
                 snr_db=(np.float32(10),), master_seed=np.int64(7))
    (_, axes), = spec.points()
    assert axes[1:4] == (10.0, 2, 2)


def test_spec_stores_each_axis_as_checked_tuple(small_cfg):
    # points() converts nothing: the spec holds Python numbers and strings
    spec = _spec(small_cfg, snr_db=(np.float32(10),), k=(np.int64(2),),
                 budget_bits=[np.int32(36)], matrix_kinds=np.array(["dft"]),
                 methods=[np.str_("bilimo")])
    got = (spec.budget_bits, spec.snr_db, spec.k, spec.matrix_kinds, spec.methods)
    assert got == ((36,), (10.0,), (2,), ("dft",), ("bilimo",))
    assert [type(axis[0]) for axis in got] == [int, float, int, str, str]


def test_empty_method_list_rejected(small_cfg):
    with pytest.raises(ValueError, match="methods must be nonempty"):
        _spec(small_cfg, methods=())


@pytest.mark.parametrize("field, value", [
    ("snr_db", 10.0), ("k", 2), ("budget_bits", np.int64(36)), ("dcr", None),
    ("methods", "bilimo"), ("matrix_kinds", "dft"), ("snr_db", np.array(10.0)),
    ("k", np.array([[2]])), ("methods", {"bilimo"}),
])
def test_spec_refuses_a_scalar_or_string_for_a_sequence(small_cfg, field, value):
    # a scalar axis would fail in points() and a string would be read letter
    # by letter; each is refused by the field's name
    with pytest.raises(ValueError, match=f"^{field} must be a sequence, got "):
        _spec(small_cfg, **{field: value})


def test_spec_refuses_a_repeated_method(small_cfg):
    # a repeated method would run twice and be listed twice in the sidecar
    with pytest.raises(ValueError, match=re.escape(
            "methods must not repeat a method, got ('bilimo', 'noquan_dr', 'bilimo')")):
        _spec(small_cfg, methods=("bilimo", "noquan_dr", "bilimo"))
    # a list or a 1-D array is a sequence too
    spec = _spec(small_cfg, methods=["noquan_dr", "bilimo"], snr_db=np.array([0.0, 10.0]))
    assert [axes[1] for _, axes in spec.points()] == [0.0, 10.0]


def test_spec_refuses_a_config_or_recovery_of_another_type(small_cfg):
    # recovery=None would fail at the first solve, config="cfg.json" at the
    # first point; each is refused by the field's name
    for field, bad, kind in (("config", "cfg.json", "RadarConfig"),
                             ("config", bm.model.config_to_dict(small_cfg), "RadarConfig"),
                             ("recovery", None, "RecoverySpec"),
                             ("recovery", {"max_iter": 60}, "RecoverySpec")):
        with pytest.raises(ValueError, match=f"^{field} must be a {kind}, got "):
            _spec(small_cfg, **{field: bad})


def _count_phi_builds(tmp_path, monkeypatch, cfg, counted_name, counts=lambda *args: True):
    """Calls of harness.<counted_name> whose arguments pass counts, in a
    2-point sweep of cfg on the Phi methods, then in a sweep that builds Phi's
    operator at every point; the two sweeps must write the same CSV bytes."""
    calls = []
    original = getattr(harness, counted_name)

    def counted(*args):
        if counts(*args):
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, counted_name, counted)
    spec = _spec(cfg, methods=("task_ignorant", "noquan_dr"), trials=2,
                 snr_db=(0.0, 10.0))
    shared, per_point = tmp_path / "shared.csv", tmp_path / "per_point.csv"
    run_sweep(spec, out_csv=shared)
    per_sweep = len(calls)

    class PerPointPhi(harness._PointContext):
        def __init__(self, spec, dictionary, phi, point_index, axes):
            super().__init__(spec, dictionary, harness._solver_operator(dictionary),
                             point_index, axes)

    monkeypatch.setattr(harness, "_PointContext", PerPointPhi)
    run_sweep(spec, out_csv=per_point)
    assert shared.read_bytes() == per_point.read_bytes()
    return per_sweep, len(calls)


def test_phi_operator_built_once_per_sweep(tmp_path, small_cfg, monkeypatch):
    # Phi's operator and its Lipschitz constant depend only on the dictionary:
    # a 2-point sweep builds Phi's operator, closed-form constant included, once,
    # and writes the same CSV bytes as a sweep that builds it at every point; no
    # power iteration runs on a generated layout
    power = []
    monkeypatch.setattr(harness, "power_iteration_lipschitz",
                        lambda *args: power.append(args))
    counts = _count_phi_builds(tmp_path, monkeypatch, small_cfg, "_solver_operator",
                               lambda dictionary, compression=None: compression is None)
    assert counts == (1, 1 + 1 + 2)  # the sweep's own build, then one per point
    assert power == []


def test_phi_power_iteration_once_per_sweep_off_grid(tmp_path, monkeypatch):
    # bands whose tones are off one common grid (offsets 1.5 and 1.8 tone
    # spacings from 0) have no band Gram, so Phi's constant falls back to power
    # iteration: once per sweep, and once more per point when built per point.
    # M*Phi's fallback, once per point, is told apart by its MNL/dcr rows
    cfg = bm.RadarConfig(M=2, N=3, bandwidth=1e6, pri=3e-6, rx_pos=[0.0, 0.5, 1.0],
                         tx_pos=[0.0, 1.5], tone_offsets=[-5e5, 6e5])
    assert bm.build_dictionary(cfg).band_gram is None
    rows = []

    def phi_rows(apply, adjoint, n):
        rows.append(apply(np.zeros(n, np.complex64)).size)
        return rows[-1] == cfg.mnl

    counts = _count_phi_builds(tmp_path, monkeypatch, cfg, "power_iteration_lipschitz",
                               phi_rows)
    assert counts == (1, 1 + 1 + 2)
    assert sorted(set(rows)) == [cfg.mnl // 2, cfg.mnl]
    assert len(rows) == counts[1] + 2 + 2  # and M*Phi's, once per point in each sweep


def test_dictionary_of_another_config_is_refused(small_cfg):
    # a random layout with the same M, N and L gives a dictionary of the same
    # shapes but other steering vectors; a dictionary built from an equal
    # config, as a caller that keeps its dictionaries passes, is taken
    other = make_random_array_config(np.random.default_rng(5), small_cfg.M, small_cfg.N,
                                        small_cfg.bandwidth, small_cfg.pri)
    spec = _spec(small_cfg, trials=1)
    for config, differ in ((other, "rx_pos, tx_pos, tone_offsets"),
                           (dataclasses.replace(small_cfg, eta=3.0), "eta")):
        with pytest.raises(ValueError, match=f"another config than the spec's: {differ} differ"):
            run_sweep(spec, dictionary=bm.build_dictionary(config))
    equal = dataclasses.replace(small_cfg)
    assert run_sweep(spec, dictionary=bm.build_dictionary(equal)).points[0].trials == 1


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

    cfg = small_cfg.at_snr(0.0)
    K = 3
    d = bm.build_dictionary(cfg)
    stats = bm.build_covariances(cfg, K)
    comp = bm.build_compression_matrix(np.random.default_rng(1), cfg, 2, "gaussian")
    a_mat = dense_task(d, comp)
    ops = ((lambda x: a_mat @ x), (lambda y: (y.conj() @ a_mat).conj()))
    ctx = SimpleNamespace(config=cfg, dictionary=d, compression=comp, k=K,
                          coeff_model="gaussian",
                          gamma_blocks=bm.lmmse_transform(comp, stats),
                          recovery=RecoverySpec(max_iter=2), task=(*ops, 1.0))
    rng = np.random.default_rng(2)
    acc = 0.0
    n = 4000
    for _ in range(n):
        draw = draw_trial(ctx, rng)
        # ||s - s_hat||^2, from the relative error the trial reports
        acc += (run_noquan_lmmse_trial(ctx, draw, rng).mse_s
                * np.vdot(draw.s_true, draw.s_true).real)
    assert acc / n == pytest.approx(
        reference_lmmse_error(comp, stacked_statistics(stats, comp)), rel=0.03)


def test_point_context_is_the_same_for_every_method_subset(small_cfg):
    # a point holds Phi's and M*Phi's operators and Gamma whichever methods
    # run: a BiLiMO-only and a noquan_dr-only spec give the same ones
    d = bm.build_dictionary(small_cfg)
    phi = harness._solver_operator(d)
    contexts = []
    for method in ("bilimo", "noquan_dr"):
        spec = _spec(small_cfg, methods=(method,))
        index, axes = next(spec.points())
        contexts.append(harness._PointContext(spec, d, phi, index, axes))
    first, second = contexts
    assert first.phi is phi and second.phi is phi
    probe = np.random.default_rng(5).standard_normal(d.n_atoms).astype(np.complex64)
    assert np.array_equal(first.task[0](probe), second.task[0](probe))
    assert first.task[2] == second.task[2]
    assert np.array_equal(first.gamma_blocks, second.gamma_blocks)


def test_noquan_lmmse_product_matches_einsum(small_cfg, monkeypatch):
    # the batched Gamma_i @ v_c of the LMMSE front end equals the per-tone einsum
    spec = _spec(small_cfg, methods=("noquan_lmmse",))
    index, axes = next(spec.points())
    ctx = harness._PointContext(spec, bm.build_dictionary(small_cfg), None, index, axes)
    seen = []
    monkeypatch.setattr(harness, "_score",
                        lambda ctx, op, draw, y, s_hat, sat: seen.append(s_hat))
    rng = np.random.default_rng(24)
    draw = harness.draw_trial(ctx, rng)
    harness.run_noquan_lmmse_trial(ctx, draw, rng)
    v_c = draw.v.reshape(small_cfg.L, small_cfg.mn)
    want = np.einsum("ijk,ik->ij", ctx.gamma_blocks, v_c).reshape(-1)
    assert np.linalg.norm(seen[0] - want) <= 1e-13 * np.linalg.norm(want)


def test_noise_and_dither_keep_their_band_major_stream_order(small_cfg, monkeypatch):
    # the determinism contract fixes the stream order of the channel noise and
    # the task-ignorant dither: each is drawn band by band, in (M, L, N) shape,
    # and laid out tone-major
    d = bm.build_dictionary(small_cfg)
    spec = _spec(small_cfg, methods=("task_ignorant",))
    index, axes = next(spec.points())
    ctx = harness._PointContext(spec, d, None, index, axes)
    cfg, shape = ctx.config, (small_cfg.M, small_cfg.L, small_cfg.N)

    def tone_major(x):
        return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (-1,))

    rng, replay = np.random.default_rng(31), np.random.default_rng(31)
    draw = harness.draw_trial(ctx, rng)
    scene = bm.sample_scene(replay, 2, cfg, "gaussian")
    g1, g2 = replay.standard_normal(shape), replay.standard_normal(shape)
    noise = np.sqrt(cfg.sigma_n_sq / 2.0) * tone_major(g1 + 1j * g2)
    assert np.array_equal(draw.scene.cells, scene.cells)
    c = d.apply_cells(draw.scene.cells, draw.scene.alpha)
    assert np.allclose(draw.v - c, noise, rtol=0, atol=1e-12)

    # with 2**16 levels every dither draw moves the quantized value
    ctx.ti_levels = 1 << 16
    seen = []
    monkeypatch.setattr(harness, "_score",
                        lambda ctx, op, draw, y, s_hat, sat: seen.append((y, sat)))
    harness.run_task_ignorant_trial(ctx, draw, rng)
    step = 2.0 * ctx.ti_support / ctx.ti_levels
    dither = replay.uniform(-step / 2.0, step / 2.0, size=(2,) + shape)
    parts = np.stack([draw.v.real, draw.v.imag]) + tone_major(dither)
    z = bm.quantize_real(parts, ctx.ti_levels, ctx.ti_support)
    (y, sat), = seen
    assert np.array_equal(y, z[0] + 1j * z[1])
    assert sat == np.mean(np.abs(parts) > ctx.ti_support)


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


def test_seed_table_pins_every_generator(small_cfg, monkeypatch):
    # the determinism contract's key layout: each trial's draw comes from
    # [seed, point, trial, 0], each method's dither from [seed, point, trial,
    # slot] with slot the method's 1-based place in METHODS, and each point's
    # compression from [seed, point, 1 << 20]
    spec = _spec(small_cfg, methods=bm.METHODS, trials=2, snr_db=(0.0, 10.0))
    names = ["draw_trial"] + [f"run_{method}_trial" for method in bm.METHODS]
    seen = []

    def recorded(name):
        original = getattr(harness, name)

        def wrapper(ctx, *args):
            seen.append((name, args[-1].bit_generator.state))
            return original(ctx, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, recorded(name))
    run_sweep(spec)

    def state(*key):
        rng = np.random.default_rng(np.random.SeedSequence([7, *key]))
        return rng.bit_generator.state

    assert seen == [(name, state(point, t, slot)) for point in range(2)
                    for t in range(2) for slot, name in enumerate(names)]
    for point, axes in spec.points():
        config, _, compression, _, _ = harness.design_point(spec, point, axes)
        want = bm.build_compression_matrix(
            np.random.default_rng(np.random.SeedSequence([7, point, 1 << 20])),
            config, axes[2], axes[4])
        assert np.array_equal(compression, want)


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


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_reports_capped_solves(tmp_path, small_cfg):
    # the solver diagnostics are CSV columns; the sidecar keeps only wall times
    spec = _spec(small_cfg, methods=bm.METHODS, trials=2,
                 recovery=RecoverySpec(max_iter=1))
    run_sweep(spec, out_csv=tmp_path / "r.csv")
    rows = _csv_rows(tmp_path / "r.csv")
    assert [row["method"] for row in rows] == list(bm.METHODS)
    for row in rows:
        assert (row["n_failed"], row["iters_mean"], row["capped_frac"]) == ("0", "1", "1")
        # one iteration tries 0.65*L_f, then at most the safe cap 1.02*L_f
        assert 0 <= float(row["backtracks_mean"]) <= 1
        for key in ("objective_mean", "rho_mean", "gap_mean"):
            assert np.isfinite(float(row[key])) and float(row[key]) > 0
        assert float(row["gap_mean"]) <= float(row["gap_max"])
    timing = json.loads((tmp_path / "r.csv.meta.json").read_text())["timing"]
    assert sorted(timing) == [f"point0/{m}" for m in sorted(bm.METHODS)]
    assert all(list(entry) == ["wall_ms"] for entry in timing.values())


def test_csv_bytes_deterministic(tmp_path, small_cfg, monkeypatch):
    spec = _spec(small_cfg, methods=("bilimo", "noquan_dr"), trials=2,
                 snr_db=(0.0, 10.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec, out_csv=p1)
    # the BLAS thread variables in force go to the sidecar, not the CSV
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run_sweep(spec, out_csv=p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().split("\n")[0]
    assert header == ",".join(CSV_COLUMNS)
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["master_seed"] == spec.master_seed
    assert "timing" in meta and "timestamp" in meta
    assert meta["config_hash"] == bm.combiner.config_hash(small_cfg)
    assert meta["numpy"] == np.__version__
    meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["blas"] == f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.25 has no dict mode
        assert meta["blas"] == "unknown"


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
    # rejected by the spec, before any point is set up
    with pytest.raises(ValueError, match="below one bit"):
        _spec(small_cfg, budget_bits=(4,))


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


def test_numerical_failure_excludes_one_trial(tmp_path, small_cfg, monkeypatch):
    # the CSV counts the failed trial and averages the two kept of three
    original = harness.run_bilimo_trial
    calls, kept = [], []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        kept.append(original(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(harness, "run_bilimo_trial", fails_once)
    out = tmp_path / "f.csv"
    p = run_sweep(_spec(small_cfg, trials=3), out_csv=out).points[0]
    assert (p.trials, p.n_failed) == (2, 1)
    assert np.isfinite(p.mse_a_mean)
    row, = _csv_rows(out)
    assert (row["trials"], row["n_failed"]) == ("2", "1")
    for column, attr in (("iters_mean", "iterations"), ("backtracks_mean", "backtracks"),
                         ("objective_mean", "objective"), ("rho_mean", "rho"),
                         ("gap_mean", "gap")):
        assert row[column] == f"{np.mean([getattr(m, attr) for m in kept]):.10g}", column
    assert row["gap_max"] == f"{max(m.gap for m in kept):.10g}"
