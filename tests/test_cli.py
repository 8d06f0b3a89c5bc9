import json

import numpy as np
import pytest

from bitmimo.cli import main
from bitmimo.combiner import load_design


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


def test_empty_method_list_rejected(tmp_path, cfg_file):
    out = tmp_path / "none.csv"
    with pytest.raises(ValueError, match="at least one method"):
        main(["simulate", "--config", str(cfg_file), "--trials", "1",
              "--methods", ",", "--out", str(out)])
    assert not out.exists()


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
