"""Monte Carlo experiment engine: trials, sweeps, CSV output.

A sweep point is one combination of (budget_bits, snr_db, dcr, k, matrix_kind)
and runs in one call of _run_point: the point's design once, then T trials x
methods. run_sweep concatenates the points' rows in point order (spec.points()),
each point's in METHODS order. A point's scalars (config at its SNR, P, b,
task-ignorant quantizer) come from _point_scalars, which the spec runs on every
point before any work, and once more per point when it runs. Phi's solver
operator is built once per sweep; the compression matrix, acquisition design,
LMMSE transform Gamma and task operator M*Phi once per point, in its
_PointContext, whichever methods run. All are shared read-only by the trials.

Only bilimo reads the design. So where a process can fork safely, a point
forks one child (os.fork and a pipe) once its context is built: the child runs
task_ignorant, noquan_dr and noquan_lmmse over all the point's trials while
the parent makes the design and runs bilimo, and the parent merges the child's
pickled metrics into the rows. A point forks only where os.fork exists, at
least two CPUs are the process's to run on (os.sched_getaffinity), one of
those three methods runs and the process holds exactly one OS thread. Under
`taskset -c 0`, or beside a threaded BLAS, every point runs in-process through
the same trial loop, and the CSV bytes are the same either way. Every trial
runs in three steps:

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
spec and seed, on one build (numpy, BLAS, this code) at one BLAS thread count,
forked or not; wall-clock timings, the process that ran each method and
timestamps live only in the JSON sidecar.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import pickle
import signal
import time
import traceback
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
    "run_sweep",
    "write_csv",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

# Operators with at most this many entries go to the solver as one dense
# matrix: below it a dense matvec is faster than the structured apply.
DENSE_OPERATOR_MAX_ENTRIES = 1 << 16

METHODS = ("bilimo", "task_ignorant", "noquan_dr", "noquan_lmmse")
# the methods that never read the point's design
_DESIGN_FREE = ("task_ignorant", "noquan_dr", "noquan_lmmse")

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
        """(index, axes) of every point, in itertools.product order of
        (budget_bits, snr_db, dcr, k, matrix_kinds). The index keys every seed
        of the point in the seed table, and the CSV rows follow this order."""
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
    apply, adjoint, rows = d.apply, d.apply_adjoint, cfg.mnl
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
    if rows * cfg.grid_size <= DENSE_OPERATOR_MAX_ENTRIES:
        apply, adjoint = _operator_pair(
            np.array([adjoint(e) for e in np.eye(rows, dtype=np.complex64)]).conj())
    if lipschitz is None:
        lipschitz = power_iteration_lipschitz(lambda x: apply(_single(x)), adjoint,
                                              cfg.grid_size)
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
    u = apply_fbar(design.apply_combiner(draw.v), ctx.config.L)
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
    """One (sweep point, method), built by the harness when the point closes,
    from its context ctx and the trials it kept (at least one) of n_trials: the
    per-trial metrics and the CSV aggregates, solver diagnostics included. ctx
    gives the index (position in spec.points()), axes, design errors and
    max_iter. n_failed = n_trials - kept; wall_ms, the sidecar's, sums the kept
    trials' wall time, and process, the sidecar's too, names the process that
    ran them: "parent", or "child" for a point's forked child."""

    def __init__(self, method, ctx, kept, n_trials, wall_ms, process):
        self.method, self.index, self.process = method, ctx.index, process
        self.budget_bits, self.snr_db, self.dcr, self.k, self.matrix_kind = ctx.axes
        self.eps_lmmse = ctx.design.lmmse
        self.eps_emse = ctx.design.emse if method == "bilimo" else None
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
        self.capped_frac = float(np.mean(iterations >= ctx.recovery.max_iter))
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


class _PointContext:
    """One sweep point, built from (spec, index, axes) alone and shared
    read-only by its trials: _point_scalars' config at the point's SNR, P, b
    and task-ignorant quantizer (ti_levels and ti_support None unless
    task_ignorant runs), its statistics, its compression (seed key (index,
    1 << 20)), k, coefficient model and recovery spec. phi is the sweep's Phi
    solver operator (apply, adjoint, lipschitz); `bitmimo design` passes None
    for it and the dictionary. design, gamma_blocks (Gamma) and task (M*Phi's
    operator) are made on first read; _run_point reads them before the trials,
    so that no trial's wall time holds one: in-process all three, design
    first; forked, the child makes Gamma and M*Phi and the parent the design
    and M*Phi, whichever methods run."""

    def __init__(self, spec, dictionary, phi, point_index, axes):
        _, _, dcr, k, kind = axes
        self.index, self.axes, self.dictionary, self.phi = point_index, axes, dictionary, phi
        self.k, self.coeff_model, self.recovery = k, spec.coeff_model, spec.recovery
        self.config, self._channels, self._levels, (self.ti_levels, self.ti_support) = (
            _point_scalars(spec, axes))
        self._stats = build_covariances(self.config, k)
        self.compression = build_compression_matrix(_rng(spec, point_index, 1 << 20),
                                                    self.config, dcr, kind)

    @functools.cached_property
    def design(self):
        return design_multitone(self._stats, self.compression, self._channels,
                                self._levels, self.config.eta)

    @functools.cached_property
    def gamma_blocks(self):
        return lmmse_transform(self.compression, self._stats)

    @functools.cached_property
    def task(self):
        return _solver_operator(self.dictionary, self.compression)


def _forks(spec):
    """Whether a point of spec runs its design-free methods in a forked child:
    only where os.fork exists, at least two CPUs are this process's to run on,
    one of those methods runs and this process holds one OS thread. Forking
    beside another thread, such as a threaded BLAS's, is unsafe."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and any(method in spec.methods for method in _DESIGN_FREE)
            and os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) == 1)


def _run_trials(spec, ctx, slots):
    """{method: (kept TrialMetrics, summed wall ms of the kept trials, [(trial,
    formatted traceback)] of the failed ones)} of each (slot, method) of slots,
    in slot order, over the point's spec.trials trials, each drawn once for all
    of them. A trial that fails numerically (ValueError, ArithmeticError) is
    excluded and recorded; any other exception propagates."""
    kept = {method: [] for _, method in slots}
    wall_ms = dict.fromkeys(kept, 0.0)
    failed = {method: [] for method in kept}
    for t in range(spec.trials):
        draw = draw_trial(ctx, _rng(spec, ctx.index, t, 0))
        for slot, method in slots:
            rng = _rng(spec, ctx.index, t, slot)
            t0 = time.perf_counter()
            try:
                # looked up at call time because perfbench/spans.py wraps the
                # run_*_trial functions; a plain call will do when that span goes
                kept[method].append(globals()[f"run_{method}_trial"](ctx, draw, rng))
            except (ValueError, ArithmeticError):
                failed[method].append((t, traceback.format_exc()))
                continue
            wall_ms[method] += (time.perf_counter() - t0) * 1e3
    return {method: (kept[method], wall_ms[method], failed[method]) for method in kept}


def _portable(exc):
    """exc if it survives a pickle round trip, else a RuntimeError naming its
    type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_forked(spec, ctx, slots):
    """_run_trials of slots, split over two processes: a forked child makes Gamma
    and M*Phi and runs the design-free methods, while this process makes the
    design and M*Phi and runs the others. Returns the runs in slot order. The
    child logs nothing and writes only its pickled runs, or the exception it
    raised, to a pipe; that exception is raised here with the child's traceback
    as its cause. The child is killed and reaped before this returns or raises."""
    there = [(slot, method) for slot, method in slots if method in _DESIGN_FREE]
    here = [(slot, method) for slot, method in slots if method not in _DESIGN_FREE]
    read, write = os.pipe()
    with os.fdopen(read, "rb") as reader, os.fdopen(write, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            try:
                reader.close()
                try:
                    ctx.gamma_blocks, ctx.task  # made here, after the fork
                    reply = (_run_trials(spec, ctx, there), None, None)
                except BaseException as exc:
                    reply = ({}, _portable(exc), traceback.format_exc())
                writer.write(pickle.dumps(reply))
                writer.close()
            finally:
                os._exit(0)
        writer.close()
        try:
            ctx.design, ctx.task  # made while the child runs
            runs = _run_trials(spec, ctx, here) if here else {}
            try:
                child_runs, exc, trace = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"the child process of point {ctx.index} "
                                   "ended without a reply") from None
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if exc is not None:
        raise exc from RuntimeError(
            f"raised in the child process of point {ctx.index}:\n{trace}")
    runs.update(child_runs)
    return {method: runs[method] for _, method in slots}


def _log_failed_trial(point_index, t, method, trace):
    """Log an excluded trial with its traceback, formatted in whichever
    process ran it."""
    if logger.isEnabledFor(logging.ERROR):
        record = logger.makeRecord(logger.name, logging.ERROR, __file__, 0,
                                   "trial %d of %s at point %d failed; excluded",
                                   (t, method, point_index), None)
        record.exc_text = trace.rstrip("\n")
        logger.handle(record)


def _run_point(spec, dictionary, phi, point_index, axes):
    """The point's PointResults, in METHODS order: its context once
    (_PointContext), then spec.trials trials, each drawn once and run by every
    method; in a forked child for the design-free methods where _forks(spec)
    holds, with the same bytes either way. It reads no state an earlier point
    leaves, so run alone it gives the rows it gives in the sweep."""
    ctx = _PointContext(spec, dictionary, phi, point_index, axes)
    slots = [(slot, m) for slot, m in enumerate(METHODS, 1) if m in spec.methods]
    forked = _forks(spec)
    if forked:
        runs = _run_forked(spec, ctx, slots)
    else:
        ctx.design, ctx.gamma_blocks, ctx.task  # made before the trials, design first
        runs = _run_trials(spec, ctx, slots)
    for method, (kept, _, failed) in runs.items():
        for t, trace in failed:
            _log_failed_trial(point_index, t, method, trace)
        if not kept:
            raise RuntimeError(f"every trial of {method} at point {point_index} failed")
    return [PointResult(method, ctx, kept, spec.trials, wall_ms,
                        "child" if forked and method in _DESIGN_FREE else "parent")
            for method, (kept, wall_ms, _) in runs.items()]


def run_sweep(spec: ExperimentSpec, out_csv=None, dictionary=None) -> ExperimentResult:
    """Run every sweep point in _run_point (its design once, then spec.trials
    trials x methods), rows in point order and each point's in METHODS order;
    optionally write the CSV and a JSON provenance sidecar (<out_csv>.meta.json).
    A trial that fails numerically (ValueError, ArithmeticError) is logged and
    excluded; other exceptions propagate, and so does a method whose every
    trial at a point fails. A dictionary given must be built for spec.config;
    ValueError names the config keys that differ."""
    if dictionary is None:
        dictionary = build_dictionary(spec.config)
    ours, theirs = config_to_dict(spec.config), config_to_dict(dictionary.config)
    differ = [key for key in ours if ours[key] != theirs[key]]
    if differ:
        raise ValueError("the dictionary was built for another config than the spec's: "
                         f"{', '.join(differ)} differ")
    phi = _solver_operator(dictionary)
    points = [row for index, axes in spec.points()
              for row in _run_point(spec, dictionary, phi, index, axes)]
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
        "timing": {f"point{p.index}/{p.method}": {"wall_ms": p.wall_ms,
                                                  "process": p.process}
                   for p in points},
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
