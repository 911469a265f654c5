"""Golden output: every command on the shipped configs, byte for byte.

`tests/golden/` holds the stdout of each case in JSON and in CSV, and
`exit_codes.json` its exit code. It also pins what bad input gets: the
stderr of each error case (`error.<case>.stderr`) with its exit code in
`error_exit_codes.json`, and the `--help` text of each command
(`help.<command>.txt`). A change that is meant to alter an output
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


def _error_cases() -> dict[str, list[str]]:
    """Case name -> full CLI arguments of a call that must be refused."""
    ref = ["--config", str(CONFIG_DIR / "reference.json")]
    unequal = ["--config", str(CONFIG_DIR / "unequal_n.json")]
    explicit = ref + ["simulate", "--alloc", "explicit"]
    return {
        "allocate-no-config": ["allocate"],
        "allocate-kinds-count": ref + ["allocate", "--kinds", "auto,auto,auto"],
        "allocate-kind-shape": unequal + ["allocate", "--kinds", "exact2x2"],
        "oracle-step-zero": ref + ["allocate", "--oracle-step", "0"],
        "oracle-step-zero-denominator": ref + ["allocate", "--oracle-step", "1/0"],
        "sweep-one-sample": ref + ["sweep", "--samples", "1"],
        "simulate-base-size-7": ref + ["simulate", "--base-size", "7"],
        "simulate-base-size-5": ref + ["simulate", "--base-size", "5"],
        "simulate-base-size-0": ref + ["simulate", "--base-size", "0"],
        "simulate-demand-cap": ref + ["simulate", "--demand-cap", "3"],
        "explicit-missing": explicit,
        "explicit-too-few": explicit + ["--explicit", "1/5"],
        "explicit-off-budget": explicit + ["--explicit", "1/3,1/3"],
        "explicit-not-numbers": explicit + ["--explicit", "x,y"],
        "explicit-over-content": explicit + ["--explicit", "1,0"],
        "explicit-negative": explicit + ["--explicit", "-1/5,6/5"],
        "tradeoff-no-files": ["tradeoff", "--files", "0", "--users", "2"],
        "tradeoff-kind-shape": ["tradeoff", "--kind", "exact2x2", "--files", "3", "--users", "2"],
    }


ERROR_CASES = _error_cases()
COMMANDS = ("tradeoff", "allocate", "sweep", "converse", "simulate")


def _invoke(args: list[str]):
    # a fixed name and width, so usage lines and help text do not depend on
    # how the suite is started
    return CliRunner().invoke(main, args, prog_name="cacheshare", terminal_width=80)


def _run(name: str, fmt: str) -> tuple[bytes, int]:
    config = str(CONFIG_DIR / (name.split(".")[0] + ".json"))
    result = _invoke(["--config", config, "--format", fmt] + CASES[name])
    return result.stdout_bytes, result.exit_code


def _run_error(name: str) -> tuple[bytes, bytes, int]:
    result = _invoke(ERROR_CASES[name])
    return result.stdout_bytes, result.stderr_bytes, result.exit_code


def _help(command: str) -> bytes:
    result = _invoke([command, "--help"])
    assert result.exit_code == 0
    return result.stdout_bytes


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt):
    out, code = _run(name, fmt)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_matches_golden(name):
    out, err, code = _run_error(name)
    codes = json.loads((GOLDEN / "error_exit_codes.json").read_text())
    assert code == codes[name]
    assert out == b""
    assert err == (GOLDEN / f"error.{name}.stderr").read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_matches_golden(command):
    assert _help(command) == (GOLDEN / f"help.{command}.txt").read_bytes()


def test_golden_directory_has_no_stale_files():
    expected = {f"{name}.{fmt}" for name in CASES for fmt in FORMATS}
    expected |= {f"error.{name}.stderr" for name in ERROR_CASES}
    expected |= {f"help.{command}.txt" for command in COMMANDS}
    expected |= {"exit_codes.json", "error_exit_codes.json"}
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
    error_codes = {}
    for name in sorted(ERROR_CASES):
        _, err, error_codes[name] = _run_error(name)
        (GOLDEN / f"error.{name}.stderr").write_bytes(err)
    (GOLDEN / "error_exit_codes.json").write_text(json.dumps(error_codes, indent=2) + "\n")
    for command in COMMANDS:
        (GOLDEN / f"help.{command}.txt").write_bytes(_help(command))


if __name__ == "__main__":
    record()
    sys.exit(0)
