import dataclasses
import json
import re
import runpy
import sys

import numpy as np
import pytest

from bitmimo import cli, harness
from bitmimo.cli import main
from bitmimo.combiner import BUNDLE_ARRAYS, load_design
from bitmimo.dictionary import build_dictionary


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "array": "ula",
        "eta": 2.0, "sigma_alpha_sq": 1.0,
    }))
    return path


def _set_config_key(path, key, value):
    """Rewrite the config file at path with key set to value; json writes a
    float NaN or inf as NaN or Infinity, which load_config reads back."""
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))


def test_design_command(tmp_path, cfg_file, capsys):
    prefix = tmp_path / "bundle"
    filters = tmp_path / "filters.csv"
    rc = main(["design", "--config", str(cfg_file), "--seed", "3",
               "--budget-bits", "36", "--dcr", "2", "--k", "2",
               "--out", str(prefix), "--filters-csv", str(filters)])
    assert rc == 0
    design = load_design(prefix)
    assert design.channels == 3
    assert design.support == pytest.approx(2.0 / np.sqrt(3))
    assert filters.read_text().startswith("p,n,frequency_hz")
    assert "eps_emse" in capsys.readouterr().out


def test_module_run_exits_with_mains_return_code(tmp_path, cfg_file, monkeypatch):
    # `python -m bitmimo.cli` runs main on sys.argv and exits with its code
    prefix = tmp_path / "bundle"
    monkeypatch.setattr(sys, "argv", ["bitmimo", "design", "--config", str(cfg_file),
                                      "--seed", "3", "--budget-bits", "36",
                                      "--out", str(prefix)])
    # runpy warns when the module it runs as __main__ is already imported
    monkeypatch.delitem(sys.modules, "bitmimo.cli")
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("bitmimo.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert (tmp_path / "bundle.npz").exists() and (tmp_path / "bundle.json").exists()


def test_simulate_command(tmp_path, cfg_file):
    out = tmp_path / "point.csv"
    rc = main(["simulate", "--config", str(cfg_file), "--seed", "1",
               "--trials", "2", "--budget-bits", "36", "--snr-db", "10",
               "--dcr", "2", "--k", "1", "--methods", "bilimo,noquan_dr",
               "--max-iter", "40", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 methods
    assert lines[0].startswith("method,budget_bits")
    assert (tmp_path / "point.csv.meta.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--methods", ",", "methods must be nonempty", id="empty-methods"),
    pytest.param("--trials", "0", "trials must be >= 1", id="zero-trials"),
    pytest.param("--methods", "foo", "unknown methods", id="unknown-method"),
    pytest.param("--methods", "bilimo,noquan_dr,bilimo", "methods must not repeat a method",
                 id="repeated-method"),
    pytest.param("--max-iter", "0", "max_iter must be >= 1", id="zero-max-iter"),
    pytest.param("--rho-scale", "-0.5", "rho_scale must be nonnegative and finite",
                 id="rho-scale-negative"),
    pytest.param("--rho-scale", "nan", "rho_scale must be nonnegative and finite",
                 id="rho-scale-nan"),
])
def test_empty_method_list_rejected(tmp_path, cfg_file, capsys, flag, value, message):
    # an invalid flag value is a usage error: exit code 2, the reason on
    # stderr and no CSV
    out = tmp_path / "none.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_file), "--trials", "1",
              flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--budget-bits", "1", "below one bit", id="budget-1"),
    pytest.param("--dcr", "0", "compression ratio", id="dcr-0"),
    pytest.param("--matrix-kind", "foo", "unknown matrix kinds", id="kind-foo"),
    pytest.param("--k", "0", "grid size", id="k-0"),
    pytest.param("--k", "100", "grid size", id="k-100"),
    pytest.param("--snr-db", "nan", "SNR must be finite", id="snr-nan"),
    # 10^(SNR/10) overflows, underflows to 0, or leaves sigma_alpha_sq/SNR infinite
    pytest.param("--snr-db", "3100", "SNR must be finite, with 10^(SNR/10) finite and "
                 "positive", id="snr-3100"),
    pytest.param("--snr-db", "-3300", "got -3300.0 dB", id="snr-minus-3300"),
    pytest.param("--snr-db", "-3100", "sigma_alpha_sq/10^(SNR/10) finite, got -3100.0 dB",
                 id="snr-minus-3100"),
    # "eta" is the config key, written into the config file
    pytest.param("eta", "0", "config key 'eta' must be positive and finite", id="eta-0"),
    pytest.param("eta", "nan", "config key 'eta' must be positive and finite",
                 id="eta-nan"),
    pytest.param("eta", "inf", "config key 'eta' must be positive and finite",
                 id="eta-inf"),
    pytest.param("eta", "1e300", "no mode above the water level", id="eta-1e300"),
    # 1000 and 5555 bits per real sample: past 2**53 levels the quantizer's
    # float64 cell index is not exact
    pytest.param("--budget-bits", "18000", "gives 1000 bits per real sample",
                 id="budget-18000"),
    pytest.param("--budget-bits", "100000", "gives 5555 bits per real sample",
                 id="budget-100000"),
])
@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_invalid_axis_value_is_usage_error(tmp_path, cfg_file, capsys, command,
                                           flag, value, message):
    # checked once by ExperimentSpec, which `design` builds for its one point
    # (and the config's eta first by config_from_dict): exit code 2, the reason
    # on stderr and nothing written. The 36-bit budget (2 bits per real sample
    # on P = 3 channels and L = 3 tones) is the base the flag under test overrides.
    out = tmp_path / "out"
    extra = ["--filters-csv", str(out)] if command == "design" else ["--trials", "1"]
    if flag.startswith("--"):
        override = [flag, value]
    else:
        _set_config_key(cfg_file, flag, float(value))
        override = []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *extra, "--budget-bits", "36",
              *override, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("flag, values", [("--budget-bits", "36,72"), ("--snr-db", "0,10"),
                                          ("--dcr", "1,2"), ("--k", "1,2"),
                                          ("--matrix-kind", "gaussian,dft")])
@pytest.mark.parametrize("command", ["design", "simulate"])
def test_second_sweep_point_is_usage_error(tmp_path, cfg_file, capsys, command, flag,
                                           values):
    # every command reads the axis flags as comma lists, and the one-point
    # commands refuse a second value: exit code 2, the flag named, nothing written
    out = tmp_path / "out"
    extra = ["--trials", "1"] if command == "simulate" else ["--filters-csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *extra, "--budget-bits", "36",
              flag, values, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag} takes one value, got 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_flags_left_out_take_the_spec_defaults(tmp_path, cfg_file, monkeypatch):
    # the CLI restates no default: a run with only the required flags (and a
    # budget the small config can spend) builds the specs' own defaults
    spec = _parsed_spec(monkeypatch, ["simulate", "--config", str(cfg_file),
                                      "--budget-bits", "36", "--out",
                                      str(tmp_path / "p.csv")])
    want = harness.ExperimentSpec(config=spec.config, budget_bits=(36,))
    for field in dataclasses.fields(harness.ExperimentSpec):
        if field.name != "config":
            assert getattr(spec, field.name) == getattr(want, field.name), field.name


@pytest.mark.parametrize("command, eta", [("design", "1e9"), ("simulate", "1e9"),
                                          ("design", "1e-200"), ("sweep", "1e9")])
def test_eta_without_water_level_is_usage_error(tmp_path, cfg_file, capsys, command, eta):
    # the config file's eta passes config_from_dict, but at 36 bits, b = 4
    # levels on P = 3 channels: from eta near 3.5e8 up 1/coef + 1 rounds to
    # within an ulp of 1, and at 1e-200 coef is 0; the sweep fails for its
    # 36-bit budget beside a 1728-bit one
    _set_config_key(cfg_file, "eta", float(eta))
    out = tmp_path / "out"
    budget = "36,1728" if command == "sweep" else "36"
    extra = ["--filters-csv", str(out)] if command == "design" else ["--trials", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *extra, "--budget-bits", budget,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "no mode above the water level" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("args", [
    pytest.param(["simulate", "--trials", "1", "--out", "{missing}/s.csv"], id="simulate-out"),
    pytest.param(["sweep", "--trials", "1", "--out", "{missing}/s.csv"], id="sweep-out"),
    pytest.param(["design", "--out", "{missing}/bundle"], id="design-out"),
    pytest.param(["design", "--out", "{tmp}/bundle", "--filters-csv", "{missing}/f.csv"],
                 id="design-filters-csv"),
])
def test_missing_output_directory_is_usage_error(tmp_path, cfg_file, capsys, monkeypatch,
                                                 args):
    # refused before any design or trial runs: exit code 2 and nothing written
    def no_design(*a, **k):
        raise AssertionError("a design ran")

    monkeypatch.setattr(harness, "design_multitone", no_design)
    argv = [a.format(missing=tmp_path / "nodir", tmp=tmp_path) for a in args]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(cfg_file), "--budget-bits", "36", *argv[1:]])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("args, message", [
    pytest.param(["simulate", "--trials", "1", "--out", "{taken}"],
                 "output {taken} is a directory", id="simulate-out"),
    pytest.param(["sweep", "--trials", "1", "--out", "{taken}/p.csv"],
                 "output {taken}/p.csv.meta.json is a directory", id="sweep-sidecar"),
    pytest.param(["design", "--out", "{taken}/bundle"],
                 "output {taken}/bundle.json is a directory", id="design-bundle"),
    pytest.param(["design", "--out", "{tmp}/bundle", "--filters-csv", "{taken}"],
                 "output {taken} is a directory", id="design-filters-csv"),
])
def test_output_path_that_is_a_directory_is_usage_error(tmp_path, cfg_file, capsys,
                                                        monkeypatch, args, message):
    # every file the command would write is checked before any design or
    # trial runs: exit code 2 and nothing written
    def no_design(*a, **k):
        raise AssertionError("a design ran")

    monkeypatch.setattr(harness, "design_multitone", no_design)
    taken = tmp_path / "taken"
    for name in ("p.csv.meta.json", "bundle.json"):
        (taken / name).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(taken=taken, tmp=tmp_path) for a in args]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(cfg_file), "--budget-bits", "36", *argv[1:]])
    assert exc.value.code == 2
    assert message.format(taken=taken) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("config_name, args, message", [
    pytest.param("cfg.json", ["design", "--out", "{tmp}/d", "--filters-csv", "{tmp}/d.json"],
                 "--filters-csv {tmp}/d.json would overwrite the --out file {tmp}/d.json",
                 id="design-filters-csv-over-bundle-json"),
    pytest.param("cfg.json",
                 ["design", "--out", "{tmp}/d", "--filters-csv", "{tmp}/sub/../d.npz"],
                 "would overwrite the --out file {tmp}/d.npz",
                 id="design-filters-csv-over-bundle-npz"),
    pytest.param("cfg.json", ["design", "--out", "{tmp}/d", "--filters-csv", "{cfg}"],
                 "--filters-csv {cfg} would overwrite the --config file {cfg}",
                 id="design-filters-csv-over-config"),
    pytest.param("cfg.json", ["simulate", "--trials", "1", "--out", "{cfg}"],
                 "--out {cfg} would overwrite the --config file {cfg}",
                 id="simulate-out-over-config"),
    pytest.param("p.csv.meta.json", ["sweep", "--trials", "1", "--out", "{tmp}/p.csv"],
                 "--out {cfg} would overwrite the --config file {cfg}",
                 id="sweep-sidecar-over-config"),
])
def test_output_that_would_overwrite_a_file_of_the_run_is_usage_error(
        tmp_path, cfg_file, capsys, monkeypatch, config_name, args, message):
    # an output whose resolved path is the --config file or another output of
    # the command is refused before any design or trial runs: exit code 2, the
    # config unchanged and nothing written
    def no_design(*a, **k):
        raise AssertionError("a design ran")

    monkeypatch.setattr(harness, "design_multitone", no_design)
    (tmp_path / "sub").mkdir()
    config = cfg_file.rename(tmp_path / config_name)
    config_bytes = config.read_bytes()
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(tmp=tmp_path, cfg=config) for a in args]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(config), "--budget-bits", "36", *argv[1:]])
    assert exc.value.code == 2
    assert message.format(tmp=tmp_path, cfg=config) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert config.read_bytes() == config_bytes


@pytest.mark.parametrize("name, reason", [
    pytest.param("missing.json", "No such file or directory", id="missing"),
    pytest.param("cfg_dir", "Is a directory", id="directory"),
])
@pytest.mark.parametrize("command", ["design", "simulate"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, name, reason):
    # a --config that does not exist or names a directory: exit code 2, the
    # path and the OS reason on stderr, nothing written
    (tmp_path / "cfg_dir").mkdir()
    path, out = tmp_path / name, tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert f"cannot read --config {path}: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg_dir"]


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_negative_seed_is_usage_error(tmp_path, cfg_file, capsys, command):
    # refused by name before the seed draws a layout: exit code 2, nothing written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


ULA_CONFIG = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "array": "ula"}
EXPLICIT_CONFIG = {"M": 1, "N": 2, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0.0, 0.5],
                   "tx_pos": [0.0], "tone_offsets": [0.0]}
POSITIONS_2X3 = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0, 0.5, 1],
                 "tx_pos": [0, 1.5], "tone_offsets": [-5e5, 5e5]}


@pytest.mark.parametrize("config, message", [
    pytest.param(dict(ULA_CONFIG, sigma_alpha_sqq=1e-4),
                 "unknown config key(s): sigma_alpha_sqq", id="misspelled"),
    pytest.param({k: v for k, v in ULA_CONFIG.items() if k != "bandwidth"},
                 "missing config key(s): bandwidth", id="no-bandwidth"),
    pytest.param({"M": 1, "N": 2, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0.0, 0.5],
                  "tone_offsets": [0.0]}, "missing config key(s): tx_pos", id="no-tx-pos"),
    pytest.param(dict(ULA_CONFIG, M="2"), "config key 'M' must be an integer, got '2'",
                 id="string-M"),
    pytest.param(dict(ULA_CONFIG, M=2.5), "config key 'M' must be an integer, got 2.5",
                 id="float-M"),
    pytest.param(dict(ULA_CONFIG, N=True), "config key 'N' must be an integer, got True",
                 id="bool-N"),
    # L = bandwidth*pri and the carrier never enters: neither is a key
    pytest.param(dict(ULA_CONFIG, L=5), "unknown config key(s): L", id="L-key"),
    pytest.param(dict(EXPLICIT_CONFIG, carrier=10e9), "unknown config key(s): carrier",
                 id="carrier-key"),
    pytest.param(dict(ULA_CONFIG, bandwidth=1e308, pri=10),
                 "bandwidth*pri=inf must be finite", id="infinite-tone-count"),
    pytest.param(dict(ULA_CONFIG, pri=4e-6), "must be finite and within 1e-6 (relative) "
                 "of an odd integer", id="even-tone-count"),
    pytest.param(dict(ULA_CONFIG, pri="3e-6"), "config key 'pri' must be a number",
                 id="string-pri"),
    pytest.param(dict(ULA_CONFIG, eta=None), "config key 'eta' must be a number",
                 id="null-eta"),
    pytest.param(dict(EXPLICIT_CONFIG, array="random"),
                 "config key 'array' cannot be given beside explicit", id="array-and-positions"),
    # refused before the ULA generator multiplies the middle band's 0 offset by it
    pytest.param({"M": 3, "N": 2, "bandwidth": float("inf"), "pri": 3e-6},
                 "config key 'bandwidth' must be positive and finite",
                 id="odd-M-infinite-bandwidth"),
    # a position list holds numbers, as a scalar key does: no string, no bool
    pytest.param({**POSITIONS_2X3, "rx_pos": ["0", "0.5", True], "tx_pos": [0, "1.5"]},
                 "config key 'rx_pos' must be a list of numbers", id="string-positions"),
    pytest.param(dict(POSITIONS_2X3, rx_pos=[0, 0.5, True]),
                 "config key 'rx_pos' must be a list of numbers", id="bool-rx-pos"),
    pytest.param(dict(POSITIONS_2X3, tx_pos=[0, "1.5"]),
                 "config key 'tx_pos' must be a list of numbers", id="string-tx-pos"),
    pytest.param(dict(POSITIONS_2X3, tone_offsets=[-5e5, "5e5"]),
                 "config key 'tone_offsets' must be a list of numbers",
                 id="string-tone-offset"),
    pytest.param(dict(POSITIONS_2X3, tone_offsets=False),
                 "config key 'tone_offsets' must be a list of numbers", id="bool-tone-offsets"),
    # U (M x N x MN) past numpy's largest array: refused before a generator
    # allocates M positions
    pytest.param(dict(ULA_CONFIG, M=1 << 40), "config key 'M' is too large: the steering "
                 "matrix U would pass numpy's maximum array size", id="huge-M"),
    pytest.param(dict(ULA_CONFIG, M=10 ** 300, array="random"),
                 "config key 'M' is too large", id="301-digit-M"),
    pytest.param(dict(ULA_CONFIG, N=10 ** 12), "config key 'N' is too large", id="huge-N"),
    pytest.param(dict(EXPLICIT_CONFIG, bandwidth=1000000001, pri=1),
                 "the tone count bandwidth*pri is too large: the steering matrix V",
                 id="huge-tone-count"),
    pytest.param([ULA_CONFIG], "a config must be a JSON object", id="json-array"),
    pytest.param(dict(ULA_CONFIG, array="hex"), "unknown array kind 'hex'", id="hex-array"),
    # the layout checks of RadarConfig, on explicit positions and offsets
    pytest.param(dict(POSITIONS_2X3, rx_pos=[0, 0.5]),
                 "position arrays must have lengths N and M", id="two-rx-positions"),
    pytest.param(dict(POSITIONS_2X3, rx_pos=[0.1, 0.5, 1]),
                 "first rx/tx positions are normalized to 0", id="rx-pos-off-0"),
    pytest.param(dict(POSITIONS_2X3, tone_offsets=[0.0]),
                 "need one tone offset per transmit element", id="one-tone-offset"),
    pytest.param(dict(POSITIONS_2X3, tone_offsets=[0, 5e5]), "tone bands overlap",
                 id="overlapping-bands"),
])
@pytest.mark.parametrize("command", ["design", "simulate"])
def test_bad_config_key_is_usage_error(tmp_path, capsys, command, config, message):
    # a config file is checked like the flags: exit code 2, the key named on
    # stderr and nothing written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    extra = ["--trials", "1"] if command == "simulate" else ["--filters-csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), *extra, "--budget-bits", "36",
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


LAYOUTS = {"ula": ULA_CONFIG, "random": dict(ULA_CONFIG, array="random"),
           "explicit": EXPLICIT_CONFIG}
NOT_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("key, layout", [
    *((key, layout) for key in ("M", "N", "bandwidth", "pri", "eta", "sigma_alpha_sq",
                                "sigma_n_sq") for layout in LAYOUTS),
    *((key, "explicit") for key in ("rx_pos", "tx_pos", "tone_offsets")),
])
@pytest.mark.parametrize("command", ["design", "simulate"])
def test_config_value_without_a_float_is_usage_error(tmp_path, capsys, command, key,
                                                      layout):
    # NaN, +-Infinity (both read by Python's json) and, for a scalar, an
    # integer past float range: exit code 2, the key named, nothing written
    config = LAYOUTS[layout]
    if key in config and isinstance(config[key], list):
        values = [config[key][:-1] + [bad] for bad in NOT_FINITE]
    else:
        values = [*NOT_FINITE, 10 ** 400]
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    extra = ["--trials", "1"] if command == "simulate" else ["--filters-csv", str(out)]
    for value in values:
        path.write_text(json.dumps(dict(config, **{key: value})))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), *extra, "--budget-bits", "36",
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.search(rf"(config key '{key}'|error: {key}) (must be|is too large)",
                         err), (value, err)
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, budgets", [("simulate", "20"), ("sweep", "36,20")])
def test_task_ignorant_budget_is_checked_up_front(tmp_path, cfg_file, capsys, command,
                                                  budgets):
    # 20 bits give bilimo one bit per real sample on P = 3 channels and L = 3
    # tones, but task_ignorant none on its MNL = 18 channels: the spec refuses
    # the budget before the first point runs
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), "--trials", "1", "--budget-bits",
              budgets, "--methods", "bilimo,task_ignorant", "--out", str(out)])
    assert exc.value.code == 2
    assert "task_ignorant: budget 20 is below one bit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_sweep_command_deterministic(tmp_path, cfg_file):
    args = ["sweep", "--config", str(cfg_file), "--seed", "5", "--trials", "2",
            "--budget-bits", "36", "--snr-db", "0,10", "--dcr", "2",
            "--k", "1", "--methods", "bilimo", "--max-iter", "40"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().strip().split("\n")) == 3  # header + 2 snr points


def test_random_array_config_needs_seed_only(tmp_path):
    path = tmp_path / "rnd.json"
    path.write_text(json.dumps({
        "M": 2, "N": 2, "bandwidth": 1e6, "pri": 3e-6, "array": "random",
    }))
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", str(path), "--seed", "2", "--trials", "1",
               "--budget-bits", "24", "--snr-db", "10", "--dcr", "1", "--k", "1",
               "--methods", "bilimo", "--max-iter", "20", "--out", str(out)])
    assert rc == 0


def _parsed_spec(monkeypatch, argv):
    """The ExperimentSpec main builds from argv, without running the sweep."""
    specs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec, out_csv: specs.append(spec))
    assert main(argv) == 0
    return specs[0]


def _assert_same_design(got, want):
    for name in BUNDLE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("emse", "lmmse", "support", "levels", "channels"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.fixture()
def random_cfg_file(tmp_path):
    path = tmp_path / "rnd.json"
    path.write_text(json.dumps({
        "M": 2, "N": 4, "bandwidth": 1e6, "pri": 3e-6, "array": "random",
    }))
    return path


@pytest.mark.parametrize("dcr", [2, 4])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "dft"])
def test_design_bundle_is_sweep_point_zero(tmp_path, random_cfg_file, monkeypatch,
                                          kind, dcr):
    # `bitmimo design` writes the design of point 0 of `simulate` run with the
    # same seed and axis flags
    flags = ["--config", str(random_cfg_file), "--seed", "6", "--budget-bits", "48",
             "--snr-db", "-5", "--dcr", str(dcr), "--k", "2", "--matrix-kind", kind]
    prefix = tmp_path / "bundle"
    assert main(["design", *flags, "--out", str(prefix)]) == 0
    spec = _parsed_spec(monkeypatch, ["simulate", *flags, "--trials", "1",
                                      "--out", str(tmp_path / "p.csv")])
    (index, axes), = spec.points()
    ctx = harness._PointContext(spec, build_dictionary(spec.config), None, index, axes)
    _assert_same_design(load_design(prefix), ctx.design)


def test_sweep_point_design_needs_no_dictionary(tmp_path, random_cfg_file, monkeypatch):
    # a point depends only on (spec, index, axes): every sweep point, not only
    # point 0, holds the design it holds when built without a dictionary or Phi
    spec = _parsed_spec(monkeypatch, [
        "sweep", "--config", str(random_cfg_file), "--seed", "6",
        "--budget-bits", "48", "--snr-db=-5,10", "--dcr", "2,4", "--k", "2",
        "--matrix-kind", "gaussian,dft", "--out", str(tmp_path / "s.csv")])
    index, axes = list(spec.points())[5]
    d = build_dictionary(spec.config)
    in_sweep = harness._PointContext(spec, d, harness._solver_operator(d), index, axes)
    alone = harness._PointContext(spec, None, None, index, axes)
    _assert_same_design(in_sweep.design, alone.design)


def test_design_command_builds_no_dictionary_or_recovery(tmp_path, cfg_file, monkeypatch):
    # `bitmimo design` bypasses the dictionary and recovery: no dictionary, no
    # Phi or M*Phi solver operator and no Gamma
    def refused(*args, **kwargs):
        raise AssertionError("`bitmimo design` built what only a sweep needs")

    for name in ("build_dictionary", "_solver_operator", "lmmse_transform"):
        monkeypatch.setattr(harness, name, refused)
    prefix = tmp_path / "bundle"
    assert main(["design", "--config", str(cfg_file), "--budget-bits", "36",
                 "--out", str(prefix), "--filters-csv", str(tmp_path / "f.csv")]) == 0
    assert load_design(prefix).channels == 3 and (tmp_path / "f.csv").is_file()


@pytest.mark.parametrize("values, want", [
    ("-1e1", (-10.0,)), ("-30,-20", (-30.0, -20.0)), ("-.5", (-0.5,)), ("-10", (-10.0,)),
])
def test_negative_axis_value_without_equals(tmp_path, cfg_file, monkeypatch, values, want):
    # a value after an axis flag that starts with a minus sign is the flag's
    # value, written with or without `=`
    for argv in (["--snr-db", values], [f"--snr-db={values}"]):
        spec = _parsed_spec(monkeypatch, [
            "sweep", "--config", str(cfg_file), "--budget-bits", "36", *argv,
            "--dcr", "2", "--k", "1", "--out", str(tmp_path / "s.csv")])
        assert spec.snr_db == want


def test_negative_axis_value_joined_only_for_numeric_values():
    joined = cli._join_negative_values
    assert joined(["sweep", "--snr-db", "-1e1", "--dcr", "2"]) \
        == ["sweep", "--snr-db=-1e1", "--dcr", "2"]
    assert joined(("--budget-bits", "-36,-72")) == ["--budget-bits=-36,-72"]
    # not joined: another option, a value of another type, a non-axis flag,
    # a name-list flag, a flag at the end
    for argv in (["--snr-db", "--trials", "3"], ["--dcr", "-1.5"], ["--k", "-x"],
                 ["--trials", "-2"], ["--matrix-kind", "-dft"], ["--snr-db"]):
        assert joined(argv) == argv


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_axis_flag_followed_by_option_is_usage_error(tmp_path, cfg_file, capsys, command):
    # `--snr-db --trials 3` gives --snr-db no value: exit code 2, nothing written
    out = tmp_path / "out"
    extra = [] if command == "design" else ["--trials", "3"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), "--snr-db", *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert "--snr-db: expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
@pytest.mark.parametrize("argv", [["--snr", "-1e1"], ["--budget", "36"],
                                  pytest.param(["--eta", "2"], id="eta")])
def test_abbreviated_flag_is_usage_error(tmp_path, cfg_file, capsys, command, argv):
    # flags are spelled in full: a prefix of --snr-db or --budget-bits is an
    # unrecognized argument, exit code 2, nothing written; so is --eta, as
    # only the config file sets eta
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_full_flag_with_negative_value_runs(tmp_path, cfg_file):
    out = tmp_path / "point.csv"
    assert main(["simulate", "--config", str(cfg_file), "--trials", "1",
                 "--budget-bits", "36", "--snr-db", "-1e1", "--dcr", "2", "--k", "1",
                 "--methods", "noquan_dr", "--max-iter", "20", "--out", str(out)]) == 0
    header, row = out.read_text().strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))["snr_db"] == "-10"
