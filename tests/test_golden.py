"""Golden output: every command on the shipped configs, byte for byte.

`tests/golden/` holds the stdout of each case in JSON and in CSV, and
`exit_codes.json` its exit code. A change that is meant to alter an output
re-records the files with

    PYTHONPATH=src:tests python tests/test_golden.py

and the diff of `tests/golden/` shows exactly what moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cacheshare
from cacheshare.cli import main
from cacheshare.model import load_config

CONFIG_DIR = Path(cacheshare.__file__).parent / "configs"
GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv")


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments after --config/--format."""
    cases: dict[str, list[str]] = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        name = path.stem
        config = load_config(str(path))
        for n in dict.fromkeys(config.file_counts):
            for kind in ("auto", "scheme"):
                args = ["tradeoff", "--files", str(n), "--users", str(config.num_users)]
                cases[f"{name}.tradeoff-N{n}-{kind}"] = args + ["--kind", kind]
        cases[f"{name}.allocate"] = ["allocate"]
        cases[f"{name}.allocate-oracle"] = ["allocate", "--oracle-step", "1/10"]
        cases[f"{name}.sweep"] = ["sweep"]
        cases[f"{name}.converse"] = ["converse"]
        cases[f"{name}.simulate-stack"] = ["simulate", "--stack"]
    return cases


CASES = _cases()


def _run(name: str, fmt: str) -> tuple[bytes, int]:
    config = str(CONFIG_DIR / (name.split(".")[0] + ".json"))
    result = CliRunner().invoke(main, ["--config", config, "--format", fmt] + CASES[name])
    return result.stdout_bytes, result.exit_code


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt):
    out, code = _run(name, fmt)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_golden_directory_has_no_stale_files():
    expected = {f"{name}.{fmt}" for name in CASES for fmt in FORMATS} | {"exit_codes.json"}
    assert {p.name for p in GOLDEN.iterdir()} == expected


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        for fmt in FORMATS:
            out, code = _run(name, fmt)
            (GOLDEN / f"{name}.{fmt}").write_bytes(out)
            codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    record()
    sys.exit(0)
