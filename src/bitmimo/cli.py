"""Command line interface: design / simulate / sweep.

    bitmimo design   --config cfg.json --dcr 2 --budget-bits 1728 --k 4 --out prefix
    bitmimo simulate --config cfg.json --snr-db -10 --trials 50 --out point.csv
    bitmimo sweep    --config cfg.json --snr-db -30,-20,-10,0,10 --out sweep.csv

Axis flags of `sweep` take comma-separated lists; `simulate` takes scalars.
Results go to the CSV named by --out, with provenance (seed, eta, rho rule,
version, numpy version, config hash, wall times) in <out>.meta.json.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .adc import levels_from_budget
from .combiner import design_multitone, save_design, write_filter_response_csv
from .harness import METHODS, ExperimentSpec, run_sweep
from .model import load_config, snr_db_to_linear, snr_to_noise_variance
from .recovery import RecoverySpec
from .statistics import build_compression_matrix, build_covariances


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _common_flags(p, lists):
    p.add_argument("--config", required=True, help="JSON radar config file")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--eta", type=float, default=None,
                   help="override the config's quantizer support multiplier")
    if lists:
        p.add_argument("--budget-bits", type=_ints, default=(1728,))
        p.add_argument("--snr-db", type=_floats, default=(10.0,))
        p.add_argument("--dcr", type=_ints, default=(2,))
        p.add_argument("--k", type=_ints, default=(4,))
        p.add_argument("--matrix-kind", type=_names, default=("gaussian",))
    else:
        p.add_argument("--budget-bits", type=int, default=1728)
        p.add_argument("--snr-db", type=float, default=10.0)
        p.add_argument("--dcr", type=int, default=2)
        p.add_argument("--k", type=int, default=4)
        p.add_argument("--matrix-kind", default="gaussian")


def _sim_flags(p):
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--methods", type=_names, default=("bilimo",),
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--coeff-model", choices=("gaussian", "unit_modulus"),
                   default="gaussian")
    p.add_argument("--rho-scale", type=float, default=0.05)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser():
    parser = argparse.ArgumentParser(prog="bitmimo",
                                     description="bit-limited MIMO radar receiver simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit an acquisition-design bundle")
    _common_flags(p, lists=False)
    p.add_argument("--out", required=True, help="bundle path prefix (.npz/.json)")
    p.add_argument("--filters-csv", default=None,
                   help="also export analog filter responses to this CSV")

    p = sub.add_parser("simulate", help="run one sweep point")
    _common_flags(p, lists=False)
    _sim_flags(p)

    p = sub.add_parser("sweep", help="run a full experiment sweep")
    _common_flags(p, lists=True)
    _sim_flags(p)
    return parser


def _load_config(args):
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xC0F1]))
    config = load_config(args.config, rng=rng)
    if args.eta is not None:
        from dataclasses import replace
        config = replace(config, eta=args.eta)
    return config


def cmd_design(args):
    config = _load_config(args)
    sigma_n = snr_to_noise_variance(snr_db_to_linear(args.snr_db), config)
    config = config.with_noise_variance(sigma_n)
    stats = build_covariances(config, args.k)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0, 1 << 20]))
    compression = build_compression_matrix(rng, config, args.dcr, args.matrix_kind)
    channels = int(np.ceil(compression.rows / config.L))
    levels = levels_from_budget(args.budget_bits, channels, config.L)
    design = design_multitone(stats, compression, channels, levels, config.eta)
    save_design(design, args.out, config)
    if args.filters_csv:
        write_filter_response_csv(design, config, args.filters_csv)
    print(f"design: P={channels} b={levels} gamma={design.support:.6g} "
          f"eps_lmmse={design.lmmse:.6g} eps_emse={design.emse:.6g} -> {args.out}.npz")
    return 0


def _experiment_spec(args, scalar_axes):
    config = _load_config(args)
    axes = dict(budget_bits=args.budget_bits, snr_db=args.snr_db,
                dcr=args.dcr, k=args.k, matrix_kinds=args.matrix_kind)
    if scalar_axes:
        axes = {key: (val,) for key, val in axes.items()}
    return ExperimentSpec(
        config=config, methods=tuple(args.methods), trials=args.trials,
        master_seed=args.seed, coeff_model=args.coeff_model,
        recovery=RecoverySpec(rho_scale=args.rho_scale, max_iter=args.max_iter),
        **axes)


def cmd_simulate(args):
    spec = _experiment_spec(args, scalar_axes=True)
    run_sweep(spec, out_csv=args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args):
    spec = _experiment_spec(args, scalar_axes=False)
    run_sweep(spec, out_csv=args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "design":
        return cmd_design(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
