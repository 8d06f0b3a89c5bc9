"""Command line interface: design / simulate / sweep.

    bitmimo design   --config cfg.json --dcr 2 --budget-bits 1728 --k 4 --out prefix
    bitmimo simulate --config cfg.json --snr-db -10 --trials 50 --out point.csv
    bitmimo sweep    --config cfg.json --snr-db -30,-20,-10,0,10 --out sweep.csv

Every command reads the axis flags as comma-separated lists; `design` and
`simulate` run one sweep point, so they take one value per axis flag. A run
flag left out takes its default from ExperimentSpec or RecoverySpec.
Results go to the CSV named by --out, with provenance (seed, eta, rho rule,
version, numpy version, config hash, wall times) in <out>.meta.json.

An invalid flag or config value is refused before any work: the reason goes
to stderr as an argparse usage error, nothing is written, and the exit code
is 2. Each rule lives where it is enforced: model.checked (every number,
--seed included), model.config_from_dict (the config file's keys),
ExperimentSpec and harness._point_scalars (the axes, methods and trials, and
every point's SNR, k, dcr, budget and eta, through RadarConfig.at_snr,
statistics.compression_block_rows, adc.levels_from_budget and
combiner.waterfill_gain), RecoverySpec (--rho-scale, --max-iter),
_load_config (a --config it cannot read), _check_outputs (the output paths)
and _check_one_point (one value per axis flag on design and simulate).
`design` builds the one-point spec of its flags to get the same checks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .combiner import design_multitone, save_design, write_filter_response_csv
from .harness import METHODS, ExperimentSpec, design_point, run_sweep
from .model import COEFF_MODELS, checked, load_config
from .recovery import RecoverySpec
# design_multitone and these two are unused here: perfbench/spans.py traces them
# on cli, and they go when those spans go
from .statistics import build_compression_matrix, build_covariances


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


# the sweep axes: flag, comma-list type, ExperimentSpec field
AXIS_FLAGS = (("--budget-bits", _ints, "budget_bits"), ("--snr-db", _floats, "snr_db"),
              ("--dcr", _ints, "dcr"), ("--k", _ints, "k"),
              ("--matrix-kind", _names, "matrix_kinds"))
# the fields of the run flags a user gave, passed on by name; a flag left out
# is None here, so the spec's own default holds
SPEC_FLAGS = tuple(field for _, _, field in AXIS_FLAGS) + ("methods", "trials",
                                                           "coeff_model")
RECOVERY_FLAGS = ("rho_scale", "max_iter")


def _join_negative_values(argv):
    """argv with each numeric axis flag and a following value that starts with
    a minus sign, such as `--snr-db -1e1` or `--snr-db -30,-20`, joined into
    `--snr-db=-1e1`: argparse takes such a value for an option unless it is a
    plain negative number. A value that does not parse as the flag's list
    type (`--snr-db --trials`) is left for argparse to refuse."""
    numeric = {flag: listed for flag, listed, _ in AXIS_FLAGS if listed is not _names}
    out = []
    for token in argv:
        listed = numeric.get(out[-1]) if out else None
        if listed is not None and token.startswith("-"):
            try:
                listed(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _common_flags(p):
    p.add_argument("--config", required=True, help="JSON radar config file")
    # the seed draws a random layout before any spec exists, so it keeps a default
    p.add_argument("--seed", type=int, default=0, help="master seed")
    for flag, listed, field in AXIS_FLAGS:
        p.add_argument(flag, type=listed, dest=field)


def _sim_flags(p):
    p.add_argument("--trials", type=int)
    p.add_argument("--methods", type=_names,
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--coeff-model", choices=COEFF_MODELS)
    p.add_argument("--rho-scale", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser():
    # allow_abbrev=False: a flag must be spelled in full, so `--snr -1e1` is
    # refused as unknown rather than read as `--snr-db` with no value
    parser = argparse.ArgumentParser(prog="bitmimo", allow_abbrev=False,
                                     description="bit-limited MIMO radar receiver simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit an acquisition-design bundle",
                       allow_abbrev=False)
    _common_flags(p)
    p.add_argument("--out", required=True, help="bundle path prefix (.npz/.json)")
    p.add_argument("--filters-csv", help="also export analog filter responses to this CSV")

    for command, help_text in (("simulate", "run one sweep point"),
                               ("sweep", "run a full experiment sweep")):
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        _common_flags(p)
        _sim_flags(p)
    return parser


def _load_config(args):
    """The --config file's config, the one source of eta and every other config
    value; ValueError for a file that cannot be read (missing, or a directory)."""
    seed = checked("--seed", args.seed, "int>=0")  # before it seeds the layout rng
    rng = np.random.default_rng([seed, 0xC0F1])  # the layout row of harness's seed table
    try:
        return load_config(args.config, rng=rng)
    except OSError as exc:
        raise ValueError(f"cannot read --config {args.config}: {exc.strerror}") from None


def _check_outputs(args):
    """Refuse, before any work is done, an output file whose directory is
    missing, whose path is a directory, or whose resolved path is the
    --config file or another output of the command (`--filters-csv d.json`
    beside `design --out d`). The outputs are the bundle's <out>.npz and
    <out>.json and the --filters-csv file, or the CSV named by --out and its
    <out>.meta.json."""
    suffixes = (".npz", ".json") if args.command == "design" else ("", ".meta.json")
    paths = [("--out", args.out + suffix) for suffix in suffixes]
    if getattr(args, "filters_csv", None):
        paths.append(("--filters-csv", args.filters_csv))
    taken = {Path(args.config).resolve(): f"--config file {args.config}"}
    for flag, path in paths:
        if not Path(path).parent.is_dir():
            raise ValueError(f"output directory {Path(path).parent} does not exist")
        if Path(path).is_dir():
            raise ValueError(f"output {path} is a directory")
        resolved = Path(path).resolve()
        if resolved in taken:
            raise ValueError(f"{flag} {path} would overwrite the {taken[resolved]}")
        taken[resolved] = f"{flag} file {path}"


def _check_one_point(args):
    """design and simulate run one sweep point: one value per axis flag."""
    for flag, _, field in AXIS_FLAGS:
        values = getattr(args, field) or ()
        if len(values) > 1:
            raise ValueError(f"{args.command} runs one sweep point; {flag} takes one "
                             f"value, got {len(values)} (use sweep for several)")


def _given(args, names):
    """The named flags the user gave, by field name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def cmd_design(args, spec):
    """Write the design bundle (and filter CSV) of the spec's one point."""
    (index, axes), = spec.points()
    config, _, _, design, _ = design_point(spec, index, axes)
    save_design(design, args.out, config)
    if args.filters_csv:
        write_filter_response_csv(design, config, args.filters_csv)
    print(f"design: P={design.channels} b={design.levels} gamma={design.support:.6g} "
          f"eps_lmmse={design.lmmse:.6g} eps_emse={design.emse:.6g} -> {args.out}.npz")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_outputs(args)
        if args.command != "sweep":
            _check_one_point(args)
        config = _load_config(args)
        # `design` builds point 0 of a one-point spec, so its flags get the same checks
        spec = ExperimentSpec(config=config, master_seed=args.seed,
                              recovery=RecoverySpec(**_given(args, RECOVERY_FLAGS)),
                              **_given(args, SPEC_FLAGS))
    except ValueError as exc:  # an invalid flag value: a usage error, exit code 2
        parser.error(str(exc))
    if args.command == "design":
        return cmd_design(args, spec)
    run_sweep(spec, out_csv=args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
