"""The README's schema and config example agree with the code."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from bitmimo import cli
from bitmimo.harness import CSV_COLUMNS
from bitmimo.model import config_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _first_block(after, lang=""):
    """The body of the first ```lang fenced block after the heading `after`."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_readme_csv_header_is_csv_columns():
    header = "".join(_first_block("## Output schema").split())
    assert header == ",".join(CSV_COLUMNS)


def test_readme_config_example_loads():
    example = json.loads(_first_block("## CLI", "json"))
    config = config_from_dict(example, rng=np.random.default_rng(0))
    assert (config.M, config.N, config.L) == (8, 12, 9)


def test_readme_cli_examples_run(tmp_path):
    # the README's bitmimo commands run as written, on its config example, with
    # the outputs in tmp_path and one trial per point
    (tmp_path / "cfg.json").write_text(_first_block("## CLI", "json"))
    block = _first_block("## CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["bitmimo", "design"], ["bitmimo", "simulate"], ["bitmimo", "sweep"]]
    for _, *argv in commands:
        for flag in ("--config", "--out", "--filters-csv"):
            if flag in argv:
                at = argv.index(flag) + 1
                argv[at] = str(tmp_path / argv[at])
        if "--trials" in argv:
            argv[argv.index("--trials") + 1] = "1"
        assert cli.main(argv) == 0
        out = argv[argv.index("--out") + 1]
        written = [out + suffix for suffix in
                   ((".npz", ".json") if argv[0] == "design" else ("", ".meta.json"))]
        if "--filters-csv" in argv:
            written.append(argv[argv.index("--filters-csv") + 1])
        assert all(Path(path).is_file() for path in written), written
