"""End-to-end tests of the command line, driven through click's runner."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import cacheshare
import cacheshare.cli as cli
import cacheshare.sim as sim
from cacheshare.cli import main
from util import INEXACT_CONFIG_VALUES, config_with

CONFIG_DIR = Path(cacheshare.__file__).parent / "configs"
EXAMPLE = str(CONFIG_DIR / "reference.json")
UNEQUAL = str(CONFIG_DIR / "unequal_n.json")


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "cacheshare" in result.output


def test_sweep_json_reproduces_reference_curve(runner):
    payload = run_json(runner, ["--config", EXAMPLE, "sweep"])
    result = payload["result"]
    assert result["minimum"] == {"lambda": "2/5", "rate": "1/2"}
    assert result["breakpoints"] == ["0", "1/5", "2/5", "7/10", "4/5", "1"]
    assert result["segments"] == [
        {"start": "0", "end": "1/5", "intercept": "9/10", "slope": "-3/2"},
        {"start": "1/5", "end": "2/5", "intercept": "7/10", "slope": "-1/2"},
        {"start": "2/5", "end": "7/10", "intercept": "3/10", "slope": "1/2"},
        {"start": "7/10", "end": "4/5", "intercept": "-2/5", "slope": "3/2"},
        {"start": "4/5", "end": "1", "intercept": "-4/5", "slope": "2"},
    ]
    record = payload["record"]
    assert record["tool"] == "cacheshare"
    assert record["command"] == "sweep"
    assert record["config_digest"] == "21ba4bebb372c0a8"


def test_sweep_csv_rows(runner):
    result = runner.invoke(main, ["--config", EXAMPLE, "--format", "csv", "sweep"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["lambda", "rate", "lambda_decimal", "rate_decimal"]
    by_share = {row[0]: row[1] for row in rows[1:]}
    assert by_share["0"] == "9/10"
    assert by_share["3/10"] == "11/20"
    assert by_share["2/5"] == "1/2"
    assert by_share["1"] == "6/5"


def test_allocate_with_oracle(runner):
    payload = run_json(runner, ["--config", EXAMPLE, "allocate", "--oracle-step", "1/10"])
    result = payload["result"]
    assert result["allocation"] == ["2/5", "3/5"]
    assert result["rate"] == "1/2"
    assert result["structure_ok"] is True
    assert result["oracle"] == {"rate": "1/2", "allocation": ["2/5", "3/5"]}
    assert [(s["library"], s["delta"]) for s in result["steps"]] == [
        (1, "1/5"),
        (2, "3/10"),
        (1, "1/5"),
        (2, "3/10"),
    ]


def test_converse_unequal_payload(runner):
    result = run_json(runner, ["--config", UNEQUAL, "converse"])["result"]
    assert result["achievable"] == "3/4"
    assert result["converse"] == "1/2"
    assert result["gap"] == "1/4"
    assert result["status"] == "open"
    assert result["converse_kind"] == "cutset"
    assert result["stack"] == {
        "betas": ["4/3", "2/3"],
        "library_order": [1, 2],
        "scale": "4/3",
    }


def test_simulate_reports_rates_and_stack(runner):
    result = run_json(runner, ["--config", EXAMPLE, "simulate", "--stack"])["result"]
    assert result["demands_checked"] == 16
    assert result["base_size"] == 10
    assert result["allocation"] == ["2/5", "3/5"]
    assert result["measured_rate"] == "1/2" == result["formula_rate"]
    assert result["decode_ok"] is True
    assert result["stack"] == {
        "demands_checked": 4,
        "stacked_file_bits": [10, 10],
        "cache_bits": 10,
        "max_total_bits": 5,
    }


def test_simulate_explicit_allocation(runner):
    result = run_json(
        runner,
        ["--config", EXAMPLE, "simulate", "--alloc", "explicit", "--explicit", "1/5,4/5"],
    )["result"]
    assert result["measured_rate"] == "7/10" == result["formula_rate"]


def test_simulate_reports_the_claimed_rate_next_to_the_realized_one(runner, tmp_path):
    # on {N=2, K=2, M=1/2} allocate promises 1 from the exact 2x2 curve, while
    # the scheme the simulator runs realizes 5/4
    network = tmp_path / "n2k2.json"
    network.write_text(
        json.dumps(
            {"libraries": [{"num_files": 2, "alpha": "1"}], "num_users": 2, "cache_size": "1/2"}
        )
    )
    promised = run_json(runner, ["--config", str(network), "allocate"])["result"]["rate"]
    result = run_json(runner, ["--config", str(network), "simulate"])["result"]
    assert promised == result["claimed_rate"] == "1"
    assert result["measured_rate"] == "5/4" == result["formula_rate"]
    for args in (["--kinds", "scheme"], ["--alloc", "proportional", "--kinds", "scheme"]):
        result = run_json(runner, ["--config", str(network), "simulate"] + args)["result"]
        assert result["claimed_rate"] == "5/4" == result["measured_rate"]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        {"s": "tab\t quote\" é ✓", "n": [0, -7, 10**30], "flags": [True, False, None]},
        {"x": 1.5, "nested": [[{"deep": [1, [2, []]]}], ("t", 3)]},
        "top",
        12,
        None,
    ],
)
def test_json_writer_matches_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_tradeoff_csv_corners(runner):
    result = runner.invoke(
        main, ["--format", "csv", "tradeoff", "--files", "2", "--users", "2", "--kind", "exact2x2"]
    )
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["memory", "rate", "memory_decimal", "rate_decimal"]
    assert [row[:2] for row in rows[1:]] == [
        ["0", "2"],
        ["1/2", "1"],
        ["1", "1/2"],
        ["2", "0"],
    ]


def test_tradeoff_json_segments(runner):
    result = run_json(runner, ["tradeoff", "--files", "2", "--users", "2"])["result"]
    assert result["label"] == "exact2x2"
    assert result["exact"] is True
    assert result["segments"][0] == {
        "start": "0",
        "end": "1/2",
        "intercept": "2",
        "slope": "-2",
    }


def test_output_is_deterministic(runner):
    args = ["--config", EXAMPLE, "simulate"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "sweep.json"
    result = runner.invoke(main, ["--config", EXAMPLE, "--out", str(target), "sweep"])
    assert result.exit_code == 0
    assert result.output == ""
    payload = json.loads(target.read_text())
    assert payload["record"]["command"] == "sweep"


def test_missing_config_is_usage_error(runner):
    result = runner.invoke(main, ["allocate"])
    assert result.exit_code == 2
    assert "needs --config" in result.output


def test_nonexistent_config_path(runner, tmp_path):
    result = runner.invoke(main, ["--config", str(tmp_path / "nope.json"), "allocate"])
    assert result.exit_code == 2


def test_invalid_config_contents(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "libraries": [{"num_files": 2, "alpha": "1/2"}],
                "num_users": 2,
                "cache_size": "0",
            }
        )
    )
    result = runner.invoke(main, ["--config", str(bad), "allocate"])
    assert result.exit_code == 2
    assert "invalid config" in result.output
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    result = runner.invoke(main, ["--config", str(garbage), "allocate"])
    assert result.exit_code == 2
    assert "cannot load config" in result.output


def test_bad_kind_for_library_shape(runner):
    result = runner.invoke(main, ["--config", UNEQUAL, "allocate", "--kinds", "exact2x2"])
    assert result.exit_code == 2


def test_kinds_count_mismatch(runner):
    result = runner.invoke(
        main, ["--config", EXAMPLE, "allocate", "--kinds", "auto,auto,auto"]
    )
    assert result.exit_code == 2
    assert "3 entries for 2 libraries" in result.output


def test_sweep_needs_two_libraries(runner, tmp_path):
    three = tmp_path / "three.json"
    three.write_text(
        json.dumps(
            {
                "libraries": [
                    {"num_files": 2, "alpha": "1/5"},
                    {"num_files": 2, "alpha": "2/5"},
                    {"num_files": 2, "alpha": "2/5"},
                ],
                "num_users": 2,
                "cache_size": "1",
            }
        )
    )
    result = runner.invoke(main, ["--config", str(three), "sweep"])
    assert result.exit_code == 2


def test_bad_explicit_allocations(runner):
    base = ["--config", EXAMPLE, "simulate", "--alloc", "explicit"]
    result = runner.invoke(main, base)
    assert result.exit_code == 2
    assert "needs --explicit" in result.output
    result = runner.invoke(main, base + ["--explicit", "1/5"])
    assert result.exit_code == 2
    result = runner.invoke(main, base + ["--explicit", "1/3,1/3"])
    assert result.exit_code == 2
    assert "budget" in result.output
    result = runner.invoke(main, base + ["--explicit", "x,y"])
    assert result.exit_code == 2


def test_unusable_base_size(runner):
    result = runner.invoke(main, ["--config", EXAMPLE, "simulate", "--base-size", "7"])
    assert result.exit_code == 2
    assert "use a multiple of" in result.output


def test_demand_cap_exceeded(runner):
    result = runner.invoke(main, ["--config", EXAMPLE, "simulate", "--demand-cap", "3"])
    assert result.exit_code == 2


def test_decode_mismatch_exits_one(runner, monkeypatch):
    real = sim.decode

    def corrupted(placement, parts, row, config, user, library):
        return real(placement, parts, row, config, user, library).flip(0)

    monkeypatch.setattr(sim, "decode", corrupted)
    result = runner.invoke(main, ["--config", EXAMPLE, "simulate"])
    assert result.exit_code == 1
    assert "decoded library" in result.output


def test_simulate_reports_served_rows(runner):
    result = run_json(runner, ["--config", EXAMPLE, "simulate"])["result"]
    assert list(result)[:2] == ["demands_checked", "demand_vectors_run"]
    assert (result["demands_checked"], result["demand_vectors_run"]) == (16, 8)
    csv_out = runner.invoke(main, ["--config", EXAMPLE, "--format", "csv", "simulate"])
    rows = list(csv.reader(io.StringIO(csv_out.output)))
    assert rows[1:3] == [["demands_checked", "16"], ["demand_vectors_run", "8"]]


def test_simulate_stack_places_caches_once(runner, monkeypatch):
    calls = []
    real = sim.place

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sim, "place", counted)
    monkeypatch.setattr(cli, "place", counted)
    run_json(runner, ["--config", EXAMPLE, "simulate", "--stack"])
    assert len(calls) == 1


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_oracle_step_not_positive_is_usage_error(runner, step):
    result = runner.invoke(main, ["--config", EXAMPLE, "allocate", "--oracle-step", step])
    assert result.exit_code == 2
    assert f"grid step {step} must be positive" in result.output


@pytest.mark.parametrize("field", ["alpha", "cache_size"])
def test_zero_denominator_in_config_is_usage_error(runner, tmp_path, field):
    data = {"libraries": [{"num_files": 2, "alpha": "1"}], "num_users": 2, "cache_size": "1"}
    if field == "alpha":
        data["libraries"][0]["alpha"] = "1/0"
    else:
        data["cache_size"] = "1/0"
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["--config", str(bad), "allocate"])
    assert result.exit_code == 2
    assert "cannot load config" in result.output
    assert "malformed network config" in result.output


@pytest.mark.parametrize("field, value, message", INEXACT_CONFIG_VALUES)
def test_inexact_count_or_boolean_in_config_is_usage_error(
    runner, tmp_path, field, value, message
):
    bad = tmp_path / "inexact.json"
    bad.write_text(json.dumps(config_with(field, value)))
    result = runner.invoke(main, ["--config", str(bad), "allocate"])
    assert result.exit_code == 2
    assert "malformed network config" in result.output
    assert message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_csv_rows_are_built_only_for_csv(runner, monkeypatch):
    calls = []
    real = cli.format_decimal
    monkeypatch.setattr(cli, "format_decimal", lambda v: calls.append(v) or real(v))
    run_json(runner, ["tradeoff", "--files", "3", "--users", "40"])
    run_json(runner, ["--config", EXAMPLE, "sweep"])
    assert calls == []
    run_json(runner, ["--config", EXAMPLE, "allocate"])
    assert len(calls) == 1  # the result's rate_decimal only
    result = runner.invoke(main, ["--format", "csv", "tradeoff", "--files", "3", "--users", "40"])
    assert result.exit_code == 0
    assert len(calls) > 1


def test_allocate_builds_each_curve_shape_once(runner, monkeypatch, tmp_path):
    built = []
    real = cli.build_by_kind
    monkeypatch.setattr(cli, "build_by_kind", lambda *a: built.append(a) or real(*a))
    network = tmp_path / "repeat.json"
    network.write_text(
        json.dumps(
            {
                "libraries": [
                    {"num_files": 2, "alpha": "1/4"},
                    {"num_files": 3, "alpha": "1/4"},
                    {"num_files": 2, "alpha": "1/4"},
                    {"num_files": 2, "alpha": "1/4"},
                ],
                "num_users": 3,
                "cache_size": "1",
            }
        )
    )
    run_json(runner, ["--config", str(network), "allocate"])
    assert sorted(built) == [("auto", 2, 3), ("auto", 3, 3)]
    run_json(runner, ["--config", str(network), "converse", "--kinds", "scheme,auto,auto,auto"])
    assert sorted(built[2:]) == [("auto", 2, 3), ("auto", 3, 3), ("scheme", 2, 3)]
