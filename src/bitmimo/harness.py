"""Monte Carlo experiment engine: trials, sweeps, CSV output.

A sweep point is one combination of (budget_bits, snr_db, dcr, k, matrix_kind).
Per point the compression matrix, acquisition design and solver operators are
built once and shared read-only by all trials. Every trial runs in three steps:

    draw       scene and noise, with the grid, channel and task vectors they
               give; once per trial, shared by every method
    front end  one per method: the solver's observation and the task-vector
               estimate the method makes from the draw
    score      one complex LASSO on Phi or M*Phi, support extraction, metrics

Seeding is fully deterministic:

    scene/noise rng   <- SeedSequence([master_seed, point_index, trial, 0])
    method dither rng <- SeedSequence([master_seed, point_index, trial, tag])

with tag the method's position (1-based) in the canonical method order, so a
method's results do not depend on which other methods are enabled.

The CSV is byte-reproducible for a fixed spec and seed; wall-clock timings,
timestamps and solver diagnostics live only in the JSON sidecar (the wall_ms
column is left empty).
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .adc import QuantizerSpec, levels_from_budget, quantize_complex_vector
from .combiner import config_hash, design_multitone
from .dictionary import apply_fbar, build_dictionary
from .model import (RadarConfig, TargetScene, sample_scene,
                    scene_to_sparse_vector, snr_db_to_linear,
                    snr_to_noise_variance)
from .recovery import (RecoverySpec, estimate_support, fista, hit_rate,
                       power_iteration_lipschitz, relative_mse)
from .statistics import (build_compression_matrix, build_covariances,
                         lmmse_transform)

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

# The solver operator each method recovers on: M*Phi ("task") for the methods
# that estimate the task vector, Phi ("phi") for those that keep the channels.
OPERATOR_OF = {"bilimo": "task", "task_ignorant": "phi", "noquan_dr": "phi",
               "noquan_lmmse": "task"}

CSV_COLUMNS = ("method", "budget_bits", "snr_db", "dcr", "k", "matrix_kind",
               "mse_s_mean", "mse_s_se", "mse_a_mean", "mse_a_se",
               "hit_rate_mean", "hit_rate_se", "eps_lmmse", "eps_emse",
               "saturation_rate", "trials", "wall_ms")


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep axes, trial count, seed and method selection."""

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
        if self.trials < 1:
            raise ValueError("need at least one trial per sweep point")
        for axis in ("budget_bits", "snr_db", "dcr", "k", "matrix_kinds"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis} must be nonempty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; pick from {METHODS}")

    def points(self):
        axes = itertools.product(self.budget_bits, self.snr_db, self.dcr,
                                 self.k, self.matrix_kinds)
        for idx, (budget, snr, dcr, kk, kind) in enumerate(axes):
            yield idx, (int(budget), float(snr), int(dcr), int(kk), str(kind))


@dataclass
class TrialMetrics:
    mse_s: float
    mse_a: float
    hit: float
    saturation: float | None
    err_s_abs: float  # ||s - s_hat||^2, for theory-vs-simulation checks
    iterations: int   # FISTA iterations of the recovery
    objective: float  # final LASSO objective of the recovery
    rho: float        # l1 weight the recovery used


# -- one trial: draw, front end, score ----------------------------------------

@dataclass(frozen=True)
class Draw:
    """What every method of one trial sees: the scene, its grid vector a, the
    noisy channels v = ctilde + noise (band-major) and the task vector s."""

    scene: TargetScene
    a: np.ndarray
    v: np.ndarray
    s_true: np.ndarray


def draw_trial(ctx, rng, k, coeff_model) -> Draw:
    """Sample a k-target scene, then the channel noise, from rng; form the
    grid vector, the noisy channels and the noiseless task vector."""
    cfg, dictionary = ctx.config, ctx.dictionary
    scene = sample_scene(rng, k, cfg, coeff_model)
    sig = np.sqrt(cfg.sigma_n_sq / 2.0)
    noise = sig * (rng.standard_normal(cfg.mnl) + 1j * rng.standard_normal(cfg.mnl))
    ctilde = dictionary.apply_cells(scene.cells(cfg), scene.alpha)
    return Draw(scene=scene, a=scene_to_sparse_vector(scene, cfg),
                v=ctilde + noise,
                s_true=ctx.compression.apply_to_c(ctilde[dictionary.perm]))


def _sq(x):
    return float(np.vdot(x, x).real)


def _operator_pair(mat):
    return (lambda x: mat @ x), (lambda y: (y.conj() @ mat).conj())


def _solver_operator(apply, adjoint, rows, cols):
    """The (apply, adjoint) pair FISTA runs on: the structured pair, or, up to
    DENSE_OPERATOR_MAX_ENTRIES, its matrix formed row by row from the adjoint."""
    if rows * cols > DENSE_OPERATOR_MAX_ENTRIES:
        return apply, adjoint
    return _operator_pair(np.array([adjoint(e) for e in np.eye(rows)]).conj())


def _score(ctx, operator_id, draw, y, s_hat, saturation) -> TrialMetrics:
    """Recover the grid vector from the observation y on the named operator,
    and score it and the task-vector estimate s_hat against the draw."""
    apply, adjoint, lipschitz = ctx.operators[operator_id]
    a_hat, info = fista(apply, adjoint, y, ctx.recovery, lipschitz=lipschitz,
                        return_info=True)
    support = estimate_support(a_hat, draw.scene.k, ctx.config.mn)
    return TrialMetrics(mse_s=relative_mse(draw.s_true, s_hat),
                        mse_a=relative_mse(draw.a, a_hat),
                        hit=hit_rate(draw.scene, support), saturation=saturation,
                        err_s_abs=_sq(draw.s_true - s_hat),
                        iterations=int(info["iterations"]),
                        objective=float(info["objective"][-1]),
                        rho=float(info["rho"]))


def run_bilimo_trial(ctx, draw, rng) -> TrialMetrics:
    """Designed receiver: combine, sample-domain DFT, dithered quantize,
    digital filter; recovery on the task operator M*Phi."""
    design = ctx.design
    u = apply_fbar(design.apply_combiner(draw.v[ctx.dictionary.perm]),
                   design.L, design.channels)
    z, sat = quantize_with(u, design.levels, design.support, rng)
    s_hat = design.digital @ z
    return _score(ctx, OPERATOR_OF["bilimo"], draw, s_hat, s_hat, sat)


def run_task_ignorant_trial(ctx, draw, rng) -> TrialMetrics:
    """Baseline that quantizes the separated channels directly with the same
    overall bit budget (support from the same eta rule on the input std)."""
    z, sat = quantize_with(draw.v, ctx.ti_levels, ctx.ti_support, rng)
    s_hat = ctx.compression.apply_to_c(z[ctx.dictionary.perm])
    return _score(ctx, OPERATOR_OF["task_ignorant"], draw, z, s_hat, sat)


def run_noquan_dr_trial(ctx, draw, rng) -> TrialMetrics:
    """Unquantized direct recovery of the grid vector from the noisy channels."""
    s_hat = ctx.compression.apply_to_c(draw.v[ctx.dictionary.perm])
    return _score(ctx, OPERATOR_OF["noquan_dr"], draw, draw.v, s_hat, None)


def run_noquan_lmmse_trial(ctx, draw, rng) -> TrialMetrics:
    """Unquantized linear-MMSE estimate of the task vector, then sparse recovery."""
    gamma = ctx.gamma_blocks
    v_c = draw.v[ctx.dictionary.perm].reshape(gamma.shape[0], -1)
    s_tilde = np.einsum("ijk,ik->ij", gamma, v_c).reshape(-1)
    return _score(ctx, OPERATOR_OF["noquan_lmmse"], draw, s_tilde, s_tilde, None)


def quantize_with(v, levels, support, rng):
    spec = QuantizerSpec(levels=levels, support=float(support), dither=True)
    return quantize_complex_vector(v, spec, rng, return_saturation=True)


# -- sweep machinery ---------------------------------------------------------

@dataclass
class PointResult:
    method: str
    budget_bits: int
    snr_db: float
    dcr: int
    k: int
    matrix_kind: str
    mse_s: list
    mse_a: list
    hits: list
    saturation: list
    iterations: list
    objective: list
    rho: list
    eps_lmmse: float
    eps_emse: float | None
    n_failed: int
    wall_ms: float

    @staticmethod
    def _mean_se(values):
        if not values:
            return float("nan"), float("nan")
        arr = np.asarray(values, dtype=float)
        se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        return float(arr.mean()), se

    @property
    def mse_s_mean(self):
        return self._mean_se(self.mse_s)[0]

    @property
    def mse_s_se(self):
        return self._mean_se(self.mse_s)[1]

    @property
    def mse_a_mean(self):
        return self._mean_se(self.mse_a)[0]

    @property
    def mse_a_se(self):
        return self._mean_se(self.mse_a)[1]

    @property
    def hit_rate_mean(self):
        return self._mean_se(self.hits)[0]

    @property
    def hit_rate_se(self):
        return self._mean_se(self.hits)[1]

    @property
    def saturation_rate(self):
        return self._mean_se(self.saturation)[0] if self.saturation else None

    @property
    def trials(self):
        return len(self.mse_s)


@dataclass
class ExperimentResult:
    points: list
    spec: ExperimentSpec

    def rows(self):
        return [point_row(p) for p in self.points]


class _PointContext:
    """Design, task-ignorant quantizer and solver operators shared by every
    trial of one sweep point. operators maps each operator id the spec's
    methods need to (apply, adjoint, lipschitz)."""

    def __init__(self, dictionary, config, spec, point_index, budget, snr_db,
                 dcr, k, kind):
        self.config = config.with_noise_variance(
            snr_to_noise_variance(snr_db_to_linear(snr_db), config))
        self.recovery = spec.recovery
        stats = build_covariances(self.config, k)
        rng_m = np.random.default_rng(
            np.random.SeedSequence([spec.master_seed, point_index, 1 << 20]))
        self.compression = build_compression_matrix(rng_m, self.config, dcr, kind)
        channels = int(np.ceil(self.compression.rows / config.L))
        levels = levels_from_budget(budget, channels, config.L)
        if "task_ignorant" in spec.methods:
            base = dictionary.config
            self.ti_levels = levels_from_budget(budget, base.mnl, 1)
            # known defect: sigma_n^2 of the base config, not of this point's SNR
            self.ti_support = base.eta * np.sqrt(
                (k or 1) * base.sigma_alpha_sq + base.sigma_n_sq)
        self.design = design_multitone(stats, self.compression, channels,
                                       levels, config.eta)
        self.gamma_blocks = lmmse_transform(self.compression, stats)
        self.dictionary = dictionary

        # Phi and the task operator M*Phi = apply_to_c . perm . Phi
        comp, perm, iperm = self.compression, dictionary.perm, dictionary.iperm
        structured = {
            "task": (lambda x: comp.apply_to_c(dictionary.apply(x)[perm]),
                     lambda y: dictionary.apply_adjoint(comp.apply_adjoint_to_c(y)[iperm]),
                     comp.rows),
            "phi": (dictionary.apply, dictionary.apply_adjoint, dictionary.n_rows),
        }
        self.operators = {}
        for op_id in sorted({OPERATOR_OF[m] for m in spec.methods}):
            pair = _solver_operator(*structured[op_id], dictionary.n_atoms)
            self.operators[op_id] = (*pair, power_iteration_lipschitz(
                *pair, dictionary.n_atoms))


def run_sweep(spec: ExperimentSpec, out_csv=None, dictionary=None) -> ExperimentResult:
    """Run every sweep point x method; optionally write the CSV and a JSON
    provenance sidecar (<out_csv>.meta.json). A trial that fails numerically
    (ValueError, ArithmeticError) is logged and excluded; other exceptions
    propagate, and so does a method whose every trial at a point fails."""
    if dictionary is None:
        dictionary = build_dictionary(spec.config)
    methods = [m for m in METHODS if m in spec.methods]
    points = []
    point_info = {}
    for p_idx, (budget, snr_db, dcr, k, kind) in spec.points():
        ctx = _PointContext(dictionary, spec.config, spec, p_idx, budget,
                            snr_db, dcr, k, kind)
        acc = {m: PointResult(method=m, budget_bits=budget, snr_db=snr_db,
                              dcr=dcr, k=k, matrix_kind=kind, mse_s=[],
                              mse_a=[], hits=[], saturation=[], iterations=[],
                              objective=[], rho=[],
                              eps_lmmse=ctx.design.lmmse,
                              eps_emse=ctx.design.emse if m == "bilimo" else None,
                              n_failed=0, wall_ms=0.0)
               for m in methods}
        for t in range(spec.trials):
            rng_scene = np.random.default_rng(
                np.random.SeedSequence([spec.master_seed, p_idx, t, 0]))
            draw = draw_trial(ctx, rng_scene, k, spec.coeff_model)
            for method in methods:
                tag = METHODS.index(method) + 1
                rng_m = np.random.default_rng(
                    np.random.SeedSequence([spec.master_seed, p_idx, t, tag]))
                t0 = time.perf_counter()
                try:
                    # looked up at call time, so a replaced trial function is seen
                    m = globals()[f"run_{method}_trial"](ctx, draw, rng_m)
                except (ValueError, ArithmeticError) as exc:
                    logger.exception("trial %d of %s at point %d failed; excluded",
                                     t, method, p_idx)
                    acc[method].n_failed += 1
                    if acc[method].n_failed == spec.trials:
                        raise RuntimeError(f"every trial of {method} at point "
                                           f"{p_idx} failed") from exc
                    continue
                acc[method].wall_ms += (time.perf_counter() - t0) * 1e3
                acc[method].mse_s.append(m.mse_s)
                acc[method].mse_a.append(m.mse_a)
                acc[method].hits.append(m.hit)
                acc[method].iterations.append(m.iterations)
                acc[method].objective.append(m.objective)
                acc[method].rho.append(m.rho)
                if m.saturation is not None:
                    acc[method].saturation.append(m.saturation)
        for m in methods:
            p = acc[m]
            points.append(p)
            point_info[f"point{p_idx}/{m}"] = {
                "wall_ms": p.wall_ms, "trials": p.trials, "failed": p.n_failed,
                "iters_mean": float(np.mean(p.iterations)),
                "capped_frac": float(np.mean(np.asarray(p.iterations)
                                             >= spec.recovery.max_iter)),
                "objective_mean": float(np.mean(p.objective)),
                "rho_mean": float(np.mean(p.rho))}
    result = ExperimentResult(points=points, spec=spec)
    if out_csv is not None:
        write_csv(result, out_csv)
        _write_sidecar(spec, point_info, f"{out_csv}.meta.json")
    return result


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def point_row(p: PointResult) -> dict:
    return {
        "method": p.method, "budget_bits": p.budget_bits, "snr_db": p.snr_db,
        "dcr": p.dcr, "k": p.k, "matrix_kind": p.matrix_kind,
        "mse_s_mean": p.mse_s_mean, "mse_s_se": p.mse_s_se,
        "mse_a_mean": p.mse_a_mean, "mse_a_se": p.mse_a_se,
        "hit_rate_mean": p.hit_rate_mean, "hit_rate_se": p.hit_rate_se,
        "eps_lmmse": p.eps_lmmse, "eps_emse": p.eps_emse,
        "saturation_rate": p.saturation_rate, "trials": p.trials,
        "wall_ms": None,  # timings live in the sidecar to keep the CSV reproducible
    }


def write_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in result.rows():
            fh.write(",".join(
                str(row[c]) if c in ("method", "matrix_kind") else _fmt(row[c])
                for c in CSV_COLUMNS) + "\n")


def _write_sidecar(spec: ExperimentSpec, point_info, path) -> None:
    rspec = spec.recovery
    meta = {
        "version": __version__,
        "numpy": np.__version__,
        "config_hash": config_hash(spec.config),
        "master_seed": spec.master_seed,
        "eta": spec.config.eta,
        "rho_rule": {"rho": rspec.rho, "rho_scale": rspec.rho_scale,
                     "max_iter": rspec.max_iter, "tol": rspec.tol},
        "trials": spec.trials,
        "methods": list(spec.methods),
        "coeff_model": spec.coeff_model,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "timing": point_info,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
