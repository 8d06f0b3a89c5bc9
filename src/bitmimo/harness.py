"""Monte Carlo experiment engine: trials, sweeps, CSV output.

A sweep point is one combination of (budget_bits, snr_db, dcr, k, matrix_kind).
Per point the compression matrix and acquisition design are built once and
shared read-only by all trials. Seeding is fully deterministic:

    scene/noise rng   <- SeedSequence([master_seed, point_index, trial, 0])
    method dither rng <- SeedSequence([master_seed, point_index, trial, tag])

with tag the method's position (1-based) in the canonical method order, so a
method's results do not depend on which other methods are enabled.

The CSV is byte-reproducible for a fixed spec and seed; wall-clock timings and
timestamps live only in the JSON sidecar (the wall_ms column is left empty).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .adc import QuantizerSpec, levels_from_budget, quantize_complex_vector
from .combiner import AcquisitionDesign, config_hash, design_multitone
from .dictionary import SteeringDictionary, apply_fbar, build_dictionary
from .model import (RadarConfig, TargetScene, sample_scene,
                    scene_to_sparse_vector, snr_db_to_linear,
                    snr_to_noise_variance)
from .recovery import (RecoverySpec, estimate_support, fista, hit_rate,
                       power_iteration_lipschitz, relative_mse)
from .statistics import (CompressionMatrix, SignalStatistics,
                         build_compression_matrix, build_covariances,
                         lmmse_transform)

__all__ = [
    "METHODS",
    "ExperimentSpec",
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
        idx = 0
        for budget in self.budget_bits:
            for snr in self.snr_db:
                for dcr in self.dcr:
                    for kk in self.k:
                        for kind in self.matrix_kinds:
                            yield idx, (int(budget), float(snr), int(dcr),
                                        int(kk), str(kind))
                            idx += 1


@dataclass
class TrialMetrics:
    mse_s: float
    mse_a: float
    hit: float
    saturation: float | None = None
    err_s_abs: float = 0.0  # ||s - s_hat||^2, for theory-vs-simulation checks
    err_a_abs: float = 0.0  # ||a - a_hat||^2, for the stability-bound checks


# -- single-trial pipelines -------------------------------------------------

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


def _recover(operator, s_hat, rspec, lipschitz, k, mn):
    a_hat = fista(operator[0], operator[1], s_hat, rspec, lipschitz=lipschitz)
    return a_hat, estimate_support(a_hat, k, mn)


def run_bilimo_trial(design: AcquisitionDesign, dictionary: SteeringDictionary,
                     compression: CompressionMatrix, scene: TargetScene, noise,
                     rng, rspec: RecoverySpec, task_operator,
                     lipschitz=None) -> TrialMetrics:
    """Full designed pipeline: combine, sample-domain DFT, dithered quantize,
    digital filter, then sparse recovery on the task operator M*Phi."""
    cfg = dictionary.config
    a = scene_to_sparse_vector(scene, cfg)
    ctilde = dictionary.apply_cells(scene.cells(cfg), scene.alpha)
    v_c = (ctilde + noise)[dictionary.perm]

    u = apply_fbar(design.apply_combiner(v_c), design.L, design.channels)
    z, sat = quantize_with(u, design.levels, design.support, rng)
    s_hat = design.digital @ z

    a_hat, support = _recover(task_operator, s_hat, rspec, lipschitz,
                              scene.k, cfg.mn)
    s_true = compression.apply_to_c(ctilde[dictionary.perm])
    return TrialMetrics(mse_s=relative_mse(s_true, s_hat),
                        mse_a=relative_mse(a, a_hat),
                        hit=hit_rate(scene, support), saturation=sat,
                        err_s_abs=_sq(s_true - s_hat), err_a_abs=_sq(a - a_hat))


def run_task_ignorant_trial(dictionary: SteeringDictionary,
                            compression: CompressionMatrix, scene: TargetScene,
                            noise, rng, rspec: RecoverySpec, budget_bits,
                            phi_operator, lipschitz=None) -> TrialMetrics:
    """Baseline that quantizes the separated channels directly with the same
    overall bit budget (support from the same eta rule on the input std)."""
    cfg = dictionary.config
    a = scene_to_sparse_vector(scene, cfg)
    ctilde = dictionary.apply_cells(scene.cells(cfg), scene.alpha)

    levels = levels_from_budget(budget_bits, cfg.mnl, 1)
    k_eff = scene.k if scene.k else 1
    support = cfg.eta * np.sqrt(k_eff * cfg.sigma_alpha_sq + cfg.sigma_n_sq)
    z, sat = quantize_with(ctilde + noise, levels, support, rng)

    a_hat, est = _recover(phi_operator, z, rspec, lipschitz, scene.k, cfg.mn)
    s_true = compression.apply_to_c(ctilde[dictionary.perm])
    s_hat = compression.apply_to_c(z[dictionary.perm])
    return TrialMetrics(mse_s=relative_mse(s_true, s_hat),
                        mse_a=relative_mse(a, a_hat),
                        hit=hit_rate(scene, est), saturation=sat,
                        err_s_abs=_sq(s_true - s_hat), err_a_abs=_sq(a - a_hat))


def run_noquan_dr_trial(dictionary: SteeringDictionary,
                        compression: CompressionMatrix, scene: TargetScene,
                        noise, rspec: RecoverySpec, phi_operator,
                        lipschitz=None) -> TrialMetrics:
    """Unquantized direct recovery of the grid vector from the noisy channels."""
    cfg = dictionary.config
    a = scene_to_sparse_vector(scene, cfg)
    ctilde = dictionary.apply_cells(scene.cells(cfg), scene.alpha)
    v = ctilde + noise
    a_hat, est = _recover(phi_operator, v, rspec, lipschitz, scene.k, cfg.mn)
    s_true = compression.apply_to_c(ctilde[dictionary.perm])
    s_hat = compression.apply_to_c(v[dictionary.perm])
    return TrialMetrics(mse_s=relative_mse(s_true, s_hat),
                        mse_a=relative_mse(a, a_hat), hit=hit_rate(scene, est),
                        err_s_abs=_sq(s_true - s_hat), err_a_abs=_sq(a - a_hat))


def run_noquan_lmmse_trial(dictionary: SteeringDictionary,
                           compression: CompressionMatrix,
                           stats: SignalStatistics, scene: TargetScene, noise,
                           rspec: RecoverySpec, task_operator,
                           lipschitz=None, gamma_blocks=None) -> TrialMetrics:
    """Unquantized linear-MMSE estimate of the task vector, then sparse recovery."""
    cfg = dictionary.config
    a = scene_to_sparse_vector(scene, cfg)
    ctilde = dictionary.apply_cells(scene.cells(cfg), scene.alpha)
    v_c = (ctilde + noise)[dictionary.perm]
    if gamma_blocks is None:
        gamma_blocks = lmmse_transform(compression, stats)
    s_tilde = np.einsum("ijk,ik->ij", gamma_blocks,
                        v_c.reshape(stats.L, stats.mn)).reshape(-1)
    a_hat, est = _recover(task_operator, s_tilde, rspec, lipschitz,
                          scene.k, cfg.mn)
    s_true = compression.apply_to_c(ctilde[dictionary.perm])
    return TrialMetrics(mse_s=relative_mse(s_true, s_tilde),
                        mse_a=relative_mse(a, a_hat), hit=hit_rate(scene, est),
                        err_s_abs=_sq(s_true - s_tilde), err_a_abs=_sq(a - a_hat))


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
    """Operators shared by every trial of one sweep point."""

    def __init__(self, dictionary, config, spec, point_index, budget, snr_db,
                 dcr, k, kind):
        self.config = config.with_noise_variance(
            snr_to_noise_variance(snr_db_to_linear(snr_db), config))
        self.k = k
        self.budget = budget
        self.stats = build_covariances(self.config, k)
        rng_m = np.random.default_rng(
            np.random.SeedSequence([spec.master_seed, point_index, 1 << 20]))
        self.compression = build_compression_matrix(rng_m, self.config, dcr, kind)
        self.channels = int(np.ceil(self.compression.rows / config.L))
        levels = levels_from_budget(budget, self.channels, config.L)
        if "task_ignorant" in spec.methods:  # fail at point setup, not per trial
            levels_from_budget(budget, config.mnl, 1)
        self.design = design_multitone(self.stats, self.compression,
                                       self.channels, levels, config.eta)
        self.gamma_blocks = lmmse_transform(self.compression, self.stats)
        self.dictionary = dictionary

        # Phi and the task operator M*Phi = apply_to_c . perm . Phi
        comp, perm, iperm = self.compression, dictionary.perm, dictionary.iperm
        self.task_operator = self.lip_task = None
        self.phi_operator = self.lip_phi = None
        if {"bilimo", "noquan_lmmse"} & set(spec.methods):
            self.task_operator = _solver_operator(
                lambda x: comp.apply_to_c(dictionary.apply(x)[perm]),
                lambda y: dictionary.apply_adjoint(comp.apply_adjoint_to_c(y)[iperm]),
                comp.rows, dictionary.n_atoms)
            self.lip_task = power_iteration_lipschitz(
                *self.task_operator, dictionary.n_atoms)
        if {"task_ignorant", "noquan_dr"} & set(spec.methods):
            self.phi_operator = _solver_operator(
                dictionary.apply, dictionary.apply_adjoint, dictionary.n_rows,
                dictionary.n_atoms)
            self.lip_phi = power_iteration_lipschitz(
                *self.phi_operator, dictionary.n_atoms)


def _run_point_method(ctx, method, scene, noise, rng, rspec, budget):
    if method == "bilimo":
        return run_bilimo_trial(ctx.design, ctx.dictionary, ctx.compression,
                                scene, noise, rng, rspec,
                                task_operator=ctx.task_operator,
                                lipschitz=ctx.lip_task)
    if method == "task_ignorant":
        return run_task_ignorant_trial(ctx.dictionary, ctx.compression, scene,
                                       noise, rng, rspec, budget,
                                       phi_operator=ctx.phi_operator,
                                       lipschitz=ctx.lip_phi)
    if method == "noquan_dr":
        return run_noquan_dr_trial(ctx.dictionary, ctx.compression, scene,
                                   noise, rspec, phi_operator=ctx.phi_operator,
                                   lipschitz=ctx.lip_phi)
    if method == "noquan_lmmse":
        return run_noquan_lmmse_trial(ctx.dictionary, ctx.compression,
                                      ctx.stats, scene, noise, rspec,
                                      task_operator=ctx.task_operator,
                                      lipschitz=ctx.lip_task,
                                      gamma_blocks=ctx.gamma_blocks)
    raise ValueError(f"unknown method {method!r}")


def run_sweep(spec: ExperimentSpec, out_csv=None, dictionary=None) -> ExperimentResult:
    """Run every sweep point x method; optionally write the CSV and a JSON
    provenance sidecar (<out_csv>.meta.json). A trial that fails numerically
    (ValueError, ArithmeticError) is logged and excluded; other exceptions
    propagate, and so does a method whose every trial at a point fails."""
    if dictionary is None:
        dictionary = build_dictionary(spec.config)
    methods = [m for m in METHODS if m in spec.methods]
    points = []
    wall_info = {}
    for p_idx, (budget, snr_db, dcr, k, kind) in spec.points():
        ctx = _PointContext(dictionary, spec.config, spec, p_idx, budget,
                            snr_db, dcr, k, kind)
        acc = {m: PointResult(method=m, budget_bits=budget, snr_db=snr_db,
                              dcr=dcr, k=k, matrix_kind=kind, mse_s=[],
                              mse_a=[], hits=[], saturation=[],
                              eps_lmmse=ctx.design.lmmse,
                              eps_emse=ctx.design.emse if m == "bilimo" else None,
                              n_failed=0, wall_ms=0.0)
               for m in methods}
        for t in range(spec.trials):
            rng_scene = np.random.default_rng(
                np.random.SeedSequence([spec.master_seed, p_idx, t, 0]))
            scene = sample_scene(rng_scene, k, ctx.config, spec.coeff_model)
            sig = np.sqrt(ctx.config.sigma_n_sq / 2.0)
            noise = sig * (rng_scene.standard_normal(ctx.config.mnl)
                           + 1j * rng_scene.standard_normal(ctx.config.mnl))
            for method in methods:
                tag = METHODS.index(method) + 1
                rng_m = np.random.default_rng(
                    np.random.SeedSequence([spec.master_seed, p_idx, t, tag]))
                t0 = time.perf_counter()
                try:
                    m = _run_point_method(ctx, method, scene, noise, rng_m,
                                          spec.recovery, budget)
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
                if m.saturation is not None:
                    acc[method].saturation.append(m.saturation)
        for m in methods:
            points.append(acc[m])
            wall_info[f"point{p_idx}/{m}"] = {
                "wall_ms": acc[m].wall_ms, "trials": acc[m].trials,
                "failed": acc[m].n_failed}
    result = ExperimentResult(points=points, spec=spec)
    if out_csv is not None:
        write_csv(result, out_csv)
        _write_sidecar(spec, wall_info, f"{out_csv}.meta.json")
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


def _write_sidecar(spec: ExperimentSpec, wall_info, path) -> None:
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
        "timing": wall_info,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
