import json

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
    pytest.param("--methods", ",", "at least one method", id="empty-methods"),
    pytest.param("--trials", "0", "at least one trial", id="zero-trials"),
    pytest.param("--methods", "foo", "unknown methods", id="unknown-method"),
    pytest.param("--max-iter", "0", "max_iter must be >= 1", id="zero-max-iter"),
    pytest.param("--rho-scale", "-0.5", "rho_scale must be finite", id="rho-scale-negative"),
    pytest.param("--rho-scale", "nan", "rho_scale must be finite", id="rho-scale-nan"),
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
    pytest.param("--eta", "0", "eta must be positive", id="eta-0"),
    pytest.param("--eta", "nan", "eta must be positive", id="eta-nan"),
    pytest.param("--eta", "inf", "eta must be positive and finite", id="eta-inf"),
    pytest.param("--eta", "1e300", "no mode above the water level", id="eta-1e300"),
])
@pytest.mark.parametrize("command", ["design", "simulate"])
def test_invalid_axis_value_is_usage_error(tmp_path, cfg_file, capsys, command,
                                           flag, value, message):
    # checked once by ExperimentSpec, which `design` builds for its one point
    # (and --eta by the config it overrides): exit code 2, the reason on
    # stderr and nothing written
    out = tmp_path / "out"
    extra = ["--trials", "1"] if command == "simulate" else ["--filters-csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *extra, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("command, eta", [("design", "1e9"), ("simulate", "1e9"),
                                          ("design", "1e-200"), ("sweep", "1e9")])
def test_eta_without_water_level_is_usage_error(tmp_path, cfg_file, capsys, command, eta):
    # at 36 bits, b = 4 levels on P = 3 channels: from eta near 3.5e8 up
    # 1/coef + 1 rounds to within an ulp of 1, and at 1e-200 coef is 0; the
    # sweep fails for its 36-bit budget beside a 1728-bit one
    out = tmp_path / "out"
    budget = "36,1728" if command == "sweep" else "36"
    extra = ["--filters-csv", str(out)] if command == "design" else ["--trials", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_file), *extra, "--budget-bits", budget,
              "--eta", eta, "--out", str(out)])
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


ULA_CONFIG = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "array": "ula"}


@pytest.mark.parametrize("config, message", [
    pytest.param(dict(ULA_CONFIG, sigma_alpha_sqq=1e-4),
                 "unknown config key(s): sigma_alpha_sqq", id="misspelled"),
    pytest.param({k: v for k, v in ULA_CONFIG.items() if k != "bandwidth"},
                 "missing config key(s): bandwidth", id="no-bandwidth"),
    pytest.param({"M": 1, "N": 2, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0.0, 0.5],
                  "tone_offsets": [0.0]}, "missing config key(s): tx_pos", id="no-tx-pos"),
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
    ctx = harness._PointContext(build_dictionary(spec.config), spec.config, spec,
                                index, None, *axes)
    _assert_same_design(load_design(prefix), ctx.design)


def test_sweep_point_design_is_design_point(tmp_path, random_cfg_file, monkeypatch):
    # every sweep point, not only point 0, holds design_point's design
    spec = _parsed_spec(monkeypatch, [
        "sweep", "--config", str(random_cfg_file), "--seed", "6",
        "--budget-bits", "48", "--snr-db=-5,10", "--dcr", "2,4", "--k", "2",
        "--matrix-kind", "gaussian,dft", "--out", str(tmp_path / "s.csv")])
    index, axes = list(spec.points())[5]
    ctx = harness._PointContext(build_dictionary(spec.config), spec.config, spec,
                                index, None, *axes)
    _assert_same_design(ctx.design, harness.design_point(
        spec.config, spec.master_seed, index, *axes)[3])
