"""The README's schema and config example agree with the code."""

import argparse
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import bitmimo
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


def test_readme_module_rows_are_short():
    # a "What's inside" row says what its module is for; the rules, messages
    # and bit-level guarantees live in the docstrings of the code that enforces them
    rows = [line for line in README.splitlines() if line.startswith("| `bitmimo.")]
    words = {row.split("`")[1]: len(row.split()) for row in rows}
    assert sorted(words) == sorted(f"bitmimo.{m.name}"
                                   for m in pkgutil.iter_modules(bitmimo.__path__))
    assert max(words.values()) <= 120, words


def test_readme_dotted_names_resolve():
    # every backticked dotted name that starts at the package, at one of its
    # modules or at a class it exports (`harness.design_point`,
    # `RadarConfig.at_snr`) names something that exists
    modules = {m.name for m in pkgutil.iter_modules(bitmimo.__path__)}
    classes = {name for name, obj in vars(bitmimo).items() if isinstance(obj, type)}
    resolved = []
    for span in re.findall(r"`([^`\n]+)`", README):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if dotted is None:
            continue
        parts = dotted.group().split(".")
        if parts[0] == "bitmimo":
            parts = parts[1:]
        elif parts[0] not in modules | classes:
            continue
        obj = bitmimo
        if parts[0] in modules:
            obj, parts = importlib.import_module(f"bitmimo.{parts[0]}"), parts[1:]
        for part in parts:
            assert hasattr(obj, part), f"README names `{dotted.group()}`; {part} is gone"
            obj = getattr(obj, part)
        resolved.append(dotted.group())
    assert len(set(resolved)) >= 10, resolved


def test_readme_cli_flags_exist():
    # every --flag the README names is an option of some subcommand, except
    # pip's in the install section and the prefixes its "spelled in full"
    # sentence names as refused
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in sub.choices.values() for a in p._actions
               for flag in a.option_strings}

    def flags(text):
        return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))

    refused = re.search(r"Flags\s+must\s+be\s+spelled\s+in\s+full:.*?\.", README, re.S).group()
    for prefix in flags(refused):
        assert prefix not in options and any(o.startswith(prefix) for o in options), prefix
    install = README[README.index("## Install and test"):README.index("## CLI")]
    named = flags(README.replace(install, "").replace(refused, ""))
    assert named <= options, f"README names {sorted(named - options)}, no subcommand takes"
    assert len(named) >= 10, named
