"""Monte Carlo experiment engine: trials, sweeps, CSV output.

A sweep point is one combination of (budget_bits, snr_db, dcr, k, matrix_kind).
Its scalars (config at its SNR, P, b, task-ignorant quantizer) come from
_point_scalars, which the spec runs on every point before any work, and
design_point once more per point when it runs. Phi's solver operator is built
once per sweep; the compression matrix, acquisition design, LMMSE transform
Gamma and task operator M*Phi once per point, whichever methods run. All are
shared read-only by the trials. Every trial runs in three steps:

    draw       scene and noise, with the grid, channel and task vectors they
               give; once per trial, shared by every method
    front end  one per method: the solver's observation and the task-vector
               estimate the method makes from the draw
    score      one complex LASSO on Phi or M*Phi, support extraction, metrics

The LASSO runs in single precision: the solver operators are built on complex64
copies of the dictionary's U and V and of the compression blocks, and the
observation goes to the solver as complex64. Everything before it (draw, front
ends, design) and every metric stays in complex128, so mse_s, the design errors
and the saturation rate do not depend on the solver's precision.

Seeding is fully deterministic. Every generator the seed drives is
default_rng of a key list that starts with the seed, and _rng(spec, *key) =
default_rng([master_seed, *key]) makes all but the first:

    layout rng        <- default_rng([seed, 0xC0F1]), drawn by the CLI before
                         any spec exists (a random layout of --config)
    compression rng   <- _rng(spec, point_index, 1 << 20)
    scene/noise rng   <- _rng(spec, point_index, trial, 0)
    method dither rng <- _rng(spec, point_index, trial, slot)

with slot the method's position (1-based) in METHODS, so a method's results do
not depend on which other methods are enabled. Noise and the task-ignorant
dither are drawn band by band, in (M, L, N) shape, and laid out tone-major.

The CSV, the solver diagnostics included, is byte-reproducible for a fixed
spec and seed, on one build (numpy, BLAS, this code) at one BLAS thread count;
wall-clock timings and timestamps live only in the JSON sidecar.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .adc import levels_from_budget, quantize_complex_vector
from .combiner import config_hash, design_multitone, waterfill_gain
from .dictionary import apply_blocks, apply_blocks_adjoint, apply_fbar, build_dictionary
from .model import (COEFF_MODELS, RadarConfig, TargetScene, checked, config_to_dict,
                    sample_scene, scene_to_sparse_vector)
from .recovery import (RecoverySpec, estimate_support, fista, hit_rate,
                       power_iteration_lipschitz, relative_mse)
from .statistics import (COMPRESSION_KINDS, build_compression_matrix, build_covariances,
                         compression_block_rows, lmmse_transform)

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "Draw",
    "draw_trial",
    "TrialMetrics",
    "PointResult",
    "ExperimentResult",
    "run_bilimo_trial",
    "run_task_ignorant_trial",
    "run_noquan_dr_trial",
    "run_noquan_lmmse_trial",
    "design_point",
    "run_sweep",
    "write_csv",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

# Operators with at most this many entries go to the solver as one dense
# matrix: below it a dense matvec is faster than the structured apply.
DENSE_OPERATOR_MAX_ENTRIES = 1 << 16

METHODS = ("bilimo", "task_ignorant", "noquan_dr", "noquan_lmmse")

CSV_COLUMNS = ("method", "budget_bits", "snr_db", "dcr", "k", "matrix_kind",
               "mse_s_mean", "mse_s_se", "mse_a_mean", "mse_a_se",
               "hit_rate_mean", "hit_rate_se", "eps_lmmse", "eps_emse",
               "saturation_rate", "trials", "n_failed", "iters_mean",
               "backtracks_mean", "capped_frac", "objective_mean", "rho_mean",
               "gap_mean", "gap_max")


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep axes, trial count, seed and method selection.

    Refuses, each by the field's name, a config that is not a RadarConfig, a
    recovery that is not a RecoverySpec, trials below 1 and a negative
    master_seed. Each axis and methods must be a nonempty sequence (never a
    scalar or a string) and is stored as a tuple of its values, each checked
    with model.checked (budget_bits, dcr and k integers, snr_db a float);
    an unknown method or matrix kind, or a repeated method, is refused.
    Then _point_scalars runs on every point, so a point that cannot run is
    refused here, before any work.
    """

    config: RadarConfig
    budget_bits: tuple = (1728,)
    snr_db: tuple = (10.0,)
    dcr: tuple = (2,)
    k: tuple = (4,)
    matrix_kinds: tuple = ("gaussian",)
    methods: tuple = ("bilimo",)
    trials: int = 100
    master_seed: int = 0
    coeff_model: str = "gaussian"
    recovery: RecoverySpec = field(default_factory=RecoverySpec)

    def __post_init__(self):
        for name, kind in (("config", RadarConfig), ("recovery", RecoverySpec)):
            if not isinstance(value := getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        for name, rule in (("trials", "int>=1"), ("master_seed", "int>=0")):
            object.__setattr__(self, name, checked(name, getattr(self, name), rule))
        for name, rule in (("budget_bits", "int"), ("snr_db", "float"), ("dcr", "int"),
                           ("k", "int"), ("matrix_kinds", None), ("methods", None)):
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) or np.ndim(values) == 1):
                raise ValueError(f"{name} must be a sequence, got {values!r}")
            if not len(values):
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, tuple(
                checked(name, value, rule) if rule else value for value in values))
        for name, known in (("methods", METHODS), ("matrix_kinds", COMPRESSION_KINDS)):
            unknown = [value for value in getattr(self, name) if value not in known]
            if unknown:
                raise ValueError(f"unknown {name.replace('_', ' ')} {unknown}; "
                                 f"pick from {known}")
            object.__setattr__(self, name, tuple(map(str, getattr(self, name))))
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat a method, got {self.methods!r}")
        if self.coeff_model not in COEFF_MODELS:
            raise ValueError(f"unknown coeff_model {self.coeff_model!r}; "
                             f"pick from {COEFF_MODELS}")
        for _, axes in self.points():  # so that no point fails in its setup
            _point_scalars(self, axes)

    def points(self):
        return enumerate(itertools.product(self.budget_bits, self.snr_db, self.dcr,
                                           self.k, self.matrix_kinds))


def _point_scalars(spec, axes):
    """(config at the point's SNR, P, b, and the task-ignorant quantizer's
    (levels, support), both None unless that method runs) of the spec's point
    with these axes; ValueError, naming the value, for an SNR, k, dcr, budget
    or eta that its rule refuses."""
    budget, snr_db, dcr, k, _ = axes
    config = spec.config.at_snr(snr_db)
    if not 1 <= k <= config.grid_size:
        raise ValueError(f"k={k} must be between 1 and the grid size {config.grid_size}")
    channels = compression_block_rows(config, dcr)
    levels = levels_from_budget(budget, channels, config.L)
    waterfill_gain(channels, levels, config.eta)
    if "task_ignorant" not in spec.methods:
        return config, channels, levels, (None, None)
    base = spec.config
    try:  # the baseline spends the budget on all MNL channels, one tone each
        ti_levels = levels_from_budget(budget, base.mnl, 1)
    except ValueError as exc:
        raise ValueError(f"task_ignorant: {exc}") from None
    # known defect: sigma_n^2 of the base config, not of this point's SNR
    return config, channels, levels, (
        ti_levels, base.eta * np.sqrt(k * base.sigma_alpha_sq + base.sigma_n_sq))


@dataclass
class TrialMetrics:
    mse_s: float
    mse_a: float
    hit: float
    saturation: float | None
    iterations: int   # FISTA iterations of the recovery
    backtracks: int   # FISTA's failed sufficient-decrease tests
    objective: float  # final LASSO objective of the recovery
    rho: float        # l1 weight the recovery used
    gap: float        # relative duality gap of the recovery


# -- one trial: draw, front end, score ----------------------------------------

@dataclass(frozen=True)
class Draw:
    """What every method of one trial sees: the scene, its grid vector a, the
    noisy channels v = c + noise (tone-major) and the task vector s."""

    scene: TargetScene
    a: np.ndarray
    v: np.ndarray
    s_true: np.ndarray


def draw_trial(ctx, rng) -> Draw:
    """Sample the point's scene (ctx.k targets, ctx.coeff_model), then the
    channel noise, from rng; form the grid vector, noisy channels and task vector."""
    cfg = ctx.config
    scene = sample_scene(rng, ctx.k, cfg, ctx.coeff_model)
    sig = np.sqrt(cfg.sigma_n_sq / 2.0)
    shape = (cfg.M, cfg.L, cfg.N)  # the noise is drawn band by band, laid out tone-major
    noise = sig * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c = ctx.dictionary.apply_cells(scene.cells, scene.alpha)
    return Draw(scene=scene, a=scene_to_sparse_vector(scene, cfg),
                v=c + noise.swapaxes(0, 1).reshape(-1),
                s_true=apply_blocks(ctx.compression, c))


def _operator_pair(mat):
    return (lambda x: mat @ x), (lambda y: (y.conj() @ mat).conj())


def _single(array):
    return array.astype(np.complex64)


def _solver_operator(dictionary, compression=None):
    """(apply, adjoint, lipschitz) FISTA runs on: Phi, or M*Phi for the given
    (L, J_i, MN) compression stack M, on complex64 copies of U, V and M, so
    complex64 inputs stay in single precision. Up to DENSE_OPERATOR_MAX_ENTRIES
    entries the pair is its complex64 matrix, formed row by row from the
    adjoint. lipschitz is ||A||^2 = ML * max lambda_max over the dictionary's
    band Grams G_m (Phi) or over M_i G M_i^H with G = blkdiag_m(G_m) (M*Phi);
    with no band Grams, power iteration from a complex64 probe."""
    cfg = dictionary.config
    d = replace(dictionary, U=_single(dictionary.U), V=_single(dictionary.V))
    apply, adjoint, rows = d.apply, d.apply_adjoint, d.n_rows
    if compression is not None:
        comp = _single(compression)
        apply = lambda x: apply_blocks(comp, d.apply(x))
        adjoint = lambda y: d.apply_adjoint(apply_blocks_adjoint(comp, y))
        rows = comp.shape[0] * comp.shape[1]
    gram = dictionary.band_gram
    if gram is not None and compression is not None:
        # M_i G formed band by band, as (M, L*J_i, N) @ (M, N, N)
        L, ji, mn = compression.shape
        mg = compression.reshape(L * ji, cfg.M, cfg.N).swapaxes(0, 1) @ gram
        mg = mg.swapaxes(0, 1).reshape(L, ji, mn)
        gram = mg @ compression.conj().transpose(0, 2, 1)
    lipschitz = (None if gram is None
                 else cfg.ml * float(np.linalg.eigvalsh(gram)[:, -1].max()))
    if rows * d.n_atoms <= DENSE_OPERATOR_MAX_ENTRIES:
        apply, adjoint = _operator_pair(
            np.array([adjoint(e) for e in np.eye(rows, dtype=np.complex64)]).conj())
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(lambda x: apply(_single(x)), adjoint,
                                              d.n_atoms)
    return apply, adjoint, lipschitz


def _score(ctx, operator, draw, y, s_hat, saturation) -> TrialMetrics:
    """Recover the grid vector from y on the solver operator (apply, adjoint,
    lipschitz); score it and the task-vector estimate s_hat against the draw."""
    apply, adjoint, lipschitz = operator
    a_hat, info = fista(apply, adjoint, _single(y), ctx.recovery,
                        lipschitz=lipschitz, return_info=True)
    support = estimate_support(a_hat, draw.scene.k)
    return TrialMetrics(mse_s=relative_mse(draw.s_true, s_hat),
                        mse_a=relative_mse(draw.a, a_hat),
                        hit=hit_rate(draw.scene.cells, support), saturation=saturation,
                        iterations=int(info["iterations"]),
                        backtracks=int(info["backtracks"]),
                        objective=float(info["objective"][-1]),
                        rho=float(info["rho"]), gap=float(info["gap"]))


def run_bilimo_trial(ctx, draw, rng) -> TrialMetrics:
    """Designed receiver: combine, sample-domain DFT, dithered quantize,
    digital filter; recovery on the task operator M*Phi."""
    design = ctx.design
    u = apply_fbar(design.apply_combiner(draw.v), design.L)
    z, sat = quantize_complex_vector(u, design.levels, design.support, rng)
    s_hat = design.apply_digital(z)
    return _score(ctx, ctx.task, draw, s_hat, s_hat, sat)


def run_task_ignorant_trial(ctx, draw, rng) -> TrialMetrics:
    """Baseline that quantizes the separated channels directly with the same
    overall bit budget (support from the same eta rule on the input std). The
    dither is drawn band by band: v is quantized in its (M, L, N) view."""
    cfg = ctx.config
    z, sat = quantize_complex_vector(draw.v.reshape(cfg.L, cfg.M, cfg.N).swapaxes(0, 1),
                                     ctx.ti_levels, ctx.ti_support, rng)
    z = z.swapaxes(0, 1).reshape(-1)
    s_hat = apply_blocks(ctx.compression, z)
    return _score(ctx, ctx.phi, draw, z, s_hat, sat)


def run_noquan_dr_trial(ctx, draw, rng) -> TrialMetrics:
    """Unquantized direct recovery of the grid vector from the noisy channels."""
    s_hat = apply_blocks(ctx.compression, draw.v)
    return _score(ctx, ctx.phi, draw, draw.v, s_hat, None)


def run_noquan_lmmse_trial(ctx, draw, rng) -> TrialMetrics:
    """Unquantized linear-MMSE estimate of the task vector, then sparse recovery."""
    s_tilde = apply_blocks(ctx.gamma_blocks, draw.v)
    return _score(ctx, ctx.task, draw, s_tilde, s_tilde, None)


# -- sweep machinery ---------------------------------------------------------

def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


class PointResult:
    """One (sweep point, method), built once when the point closes from the
    trials it kept (at least one) of n_trials: the per-trial metrics and the
    CSV aggregates, solver diagnostics included. index is the point's position
    in spec.points(); n_failed = n_trials - kept; wall_ms, the sidecar's, sums
    the kept trials' wall time."""

    def __init__(self, method, index, axes, kept, n_trials, wall_ms,
                 eps_lmmse, eps_emse, max_iter):
        self.method, self.index = method, index
        self.budget_bits, self.snr_db, self.dcr, self.k, self.matrix_kind = axes
        self.eps_lmmse, self.eps_emse = eps_lmmse, eps_emse
        self.n_failed, self.wall_ms = n_trials - len(kept), wall_ms
        self.mse_s = [m.mse_s for m in kept]
        self.mse_a = [m.mse_a for m in kept]
        self.hits = [m.hit for m in kept]
        self.saturation = [m.saturation for m in kept if m.saturation is not None]
        self.trials = len(kept)
        self.mse_s_mean, self.mse_s_se = _mean_se(self.mse_s)
        self.mse_a_mean, self.mse_a_se = _mean_se(self.mse_a)
        self.hit_rate_mean, self.hit_rate_se = _mean_se(self.hits)
        self.saturation_rate = (_mean_se(self.saturation)[0] if self.saturation
                                else None)
        iterations = np.array([m.iterations for m in kept])
        self.iters_mean = float(np.mean(iterations))
        self.capped_frac = float(np.mean(iterations >= max_iter))
        self.backtracks_mean = float(np.mean([m.backtracks for m in kept]))
        self.objective_mean = float(np.mean([m.objective for m in kept]))
        self.rho_mean = float(np.mean([m.rho for m in kept]))
        gaps = [m.gap for m in kept]
        self.gap_mean, self.gap_max = float(np.mean(gaps)), float(np.max(gaps))


@dataclass
class ExperimentResult:
    points: list


def _rng(spec, *key):
    """The generator of seed key under spec.master_seed (see the seed table)."""
    return np.random.default_rng([spec.master_seed, *key])


def design_point(spec, point_index, axes):
    """(config at the point's SNR, statistics, compression, design, task-ignorant
    quantizer) of the spec's point point_index with axes as spec.points() yields
    them; `bitmimo design` is the one point of its spec."""
    _, _, dcr, k, kind = axes
    config, channels, levels, task_ignorant = _point_scalars(spec, axes)
    stats = build_covariances(config, k)
    compression = build_compression_matrix(_rng(spec, point_index, 1 << 20), config,
                                           dcr, kind)
    return config, stats, compression, design_multitone(
        stats, compression, channels, levels, config.eta), task_ignorant


class _PointContext:
    """design_point's results (ti_levels and ti_support None unless
    task_ignorant runs), the point's k and coefficient model, Gamma and the
    solver operators (apply, adjoint, lipschitz) of one sweep point, shared by
    its trials: phi, the sweep's Phi, and task, the point's M*Phi operator."""

    def __init__(self, spec, dictionary, phi, point_index, axes):
        self.config, stats, self.compression, self.design, task_ignorant = design_point(
            spec, point_index, axes)
        self.ti_levels, self.ti_support = task_ignorant
        self.k, self.coeff_model, self.recovery = axes[3], spec.coeff_model, spec.recovery
        self.gamma_blocks = lmmse_transform(self.compression, stats)
        self.dictionary, self.phi = dictionary, phi
        self.task = _solver_operator(dictionary, self.compression)


def run_sweep(spec: ExperimentSpec, out_csv=None, dictionary=None) -> ExperimentResult:
    """Run every sweep point x method; optionally write the CSV and a JSON
    provenance sidecar (<out_csv>.meta.json). A trial that fails numerically
    (ValueError, ArithmeticError) is logged and excluded; other exceptions
    propagate, and so does a method whose every trial at a point fails. A
    dictionary given must be built for spec.config; ValueError names the
    config keys that differ."""
    if dictionary is None:
        dictionary = build_dictionary(spec.config)
    ours, theirs = config_to_dict(spec.config), config_to_dict(dictionary.config)
    differ = [key for key in ours if ours[key] != theirs[key]]
    if differ:
        raise ValueError("the dictionary was built for another config than the spec's: "
                         f"{', '.join(differ)} differ")
    slots = [(slot, m) for slot, m in enumerate(METHODS, 1) if m in spec.methods]
    phi = _solver_operator(dictionary)
    points = []
    for p_idx, axes in spec.points():
        ctx = _PointContext(spec, dictionary, phi, p_idx, axes)
        kept = {m: [] for _, m in slots}
        wall_ms = dict.fromkeys(kept, 0.0)
        for t in range(spec.trials):
            draw = draw_trial(ctx, _rng(spec, p_idx, t, 0))
            for slot, method in slots:
                rng = _rng(spec, p_idx, t, slot)
                t0 = time.perf_counter()
                try:
                    # looked up at call time because perfbench/spans.py wraps the
                    # run_*_trial functions; a plain call will do when that span goes
                    kept[method].append(globals()[f"run_{method}_trial"](ctx, draw, rng))
                except (ValueError, ArithmeticError) as exc:
                    logger.exception("trial %d of %s at point %d failed; excluded",
                                     t, method, p_idx)
                    if t == spec.trials - 1 and not kept[method]:
                        raise RuntimeError(f"every trial of {method} at point "
                                           f"{p_idx} failed") from exc
                    continue
                wall_ms[method] += (time.perf_counter() - t0) * 1e3
        points += [PointResult(m, p_idx, axes, kept[m], spec.trials, wall_ms[m],
                               ctx.design.lmmse,
                               ctx.design.emse if m == "bilimo" else None,
                               spec.recovery.max_iter)
                   for m in kept]
    result = ExperimentResult(points=points)
    if out_csv is not None:
        write_csv(result, out_csv)
        _write_sidecar(spec, points, f"{out_csv}.meta.json")
    return result


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def write_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in result.points:
            fh.write(",".join(_fmt(getattr(p, c)) for c in CSV_COLUMNS) + "\n")


def _blas_name():
    """Name and version of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def _write_sidecar(spec: ExperimentSpec, points, path) -> None:
    meta = {
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "config_hash": config_hash(spec.config),
        "master_seed": spec.master_seed,
        "eta": spec.config.eta,
        "rho_rule": asdict(spec.recovery),
        "trials": spec.trials,
        "methods": list(spec.methods),
        "coeff_model": spec.coeff_model,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "timing": {f"point{p.index}/{p.method}": {"wall_ms": p.wall_ms}
                   for p in points},
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
