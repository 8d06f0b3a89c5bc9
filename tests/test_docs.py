"""The README's schema and config example agree with the code."""

import json
import re
from pathlib import Path

import numpy as np

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
