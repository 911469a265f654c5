"""End-to-end tests of the command line, driven through click's runner."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
import random
import re
import sys
import time
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import cacheshare
import cacheshare.cli as cli
import cacheshare.sim as sim
import cacheshare.tradeoff as tradeoff
from cacheshare.cli import main
from cacheshare.model import format_decimal
from util import INEXACT_CONFIG_VALUES, config_with, faulty_place, reference_decimal

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


@pytest.mark.parametrize("seed", range(3))
def test_csv_decimals_are_those_of_the_printed_fractions(runner, tmp_path, seed):
    """`tradeoff` and `sweep` print their CSV decimals from int pairs; each
    must be `format_decimal` of the Fraction its exact text names, on large
    seeded shapes."""
    rng = random.Random(f"csv-decimals:{seed}")
    files, users = rng.randint(10, 50), rng.randint(1000, 3000)
    shape = ["tradeoff", "--files", str(files), "--users", str(users)]
    network = _bench_like_network(tmp_path / "net.json", seed, 2, rng.randint(1, 7))
    for args in (shape, ["--config", network, "sweep", "--samples", "101"]):
        result = runner.invoke(main, ["--format", "csv", *args])
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(io.StringIO(result.output)))[1:]
        assert len(rows) > 100
        for text, value, text_decimal, value_decimal in rows:
            assert text_decimal == format_decimal(Fraction(text))
            assert value_decimal == format_decimal(Fraction(value))


@pytest.mark.parametrize(
    "case, columns",
    [
        ("tradeoff-overflow", [(0, 2), (1, 3)]),
        ("allocate-overflow", [(3, 4), (5, 6)]),
        ("allocate-underflow", [(3, 4), (5, 6)]),
    ],
)
def test_csv_decimals_beyond_float_range(runner, tmp_path, case, columns):
    """A decimal column of a value past the float's range is the exact value
    to 17 digits, and one inside it is still `%.17g` of the float."""
    big = 10**320
    if case == "tradeoff-overflow":
        args = ["tradeoff", "--files", str(big), "--users", "2"]
    else:
        network = {"libraries": [{"num_files": big, "alpha": "1"}], "cache_size": str(big // 10)}
        if case == "allocate-underflow":
            libraries = [{"num_files": 2, "alpha": "1/2"}, {"num_files": 3, "alpha": "1/2"}]
            network = {"libraries": libraries, "cache_size": f"1/{10**400}"}
        path = tmp_path / "net.json"
        path.write_text(json.dumps({**network, "num_users": 2}))
        args = ["--config", str(path), "allocate"]
    result = runner.invoke(main, ["--format", "csv", *args])
    assert result.exit_code == 0, result.output
    outside = 0
    for row in list(csv.reader(io.StringIO(result.output)))[1:]:
        for exact, decimal in columns:
            value = Fraction(row[exact])
            if not value or sys.float_info.min <= abs(value) <= sys.float_info.max:
                assert row[decimal] == f"{float(value):.17g}"
            else:
                outside += 1
                assert Decimal(row[decimal]) == reference_decimal(value) != 0
    assert outside > 0


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


def test_oracle_step_only_turns_the_oracle_on(runner):
    # the step no longer sets a grid, so no step is too fine
    args = ["--config", EXAMPLE, "allocate", "--oracle-step"]
    coarse = run_json(runner, [*args, "1/10"])["result"]
    fine = run_json(runner, [*args, "1/1000000"])["result"]
    assert fine["oracle"] == coarse["oracle"] == {"rate": "1/2", "allocation": ["2/5", "3/5"]}


def test_greedy_rate_off_the_oracle_rate_is_a_failed_check(runner, monkeypatch):
    real = cli.greedy_allocate

    def one_off(config, curves):
        trace = real(config, curves)
        return dataclasses.replace(trace, rate=trace.rate + 1)

    monkeypatch.setattr(cli, "greedy_allocate", one_off)
    result = runner.invoke(main, ["--config", EXAMPLE, "allocate", "--oracle-step", "1/10"])
    assert result.exit_code == 1
    assert "greedy rate 3/2 differs from oracle rate 1/2 at split ['2/5', '3/5']" in result.output


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


def test_simulate_csv_reports_the_claimed_rate_and_the_stack(runner):
    path = str(CONFIG_DIR / "unequal_n.json")
    result = runner.invoke(main, ["--config", path, "--format", "csv", "simulate", "--stack"])
    assert result.exit_code == 0
    rows = dict(list(csv.reader(io.StringIO(result.output)))[1:])
    # the greedy's promise next to what the scheme realizes
    assert (rows["claimed_rate"], rows["measured_rate"], rows["formula_rate"]) == (
        "3/4", "7/8", "7/8"
    )
    assert {key: value for key, value in rows.items() if key.startswith("stack_")} == {
        "stack_demands_checked": "4",
        "stack_stacked_file_bits": "8 4",
        "stack_cache_bits": "4",
        "stack_max_total_bits": "7",
    }
    plain = runner.invoke(main, ["--config", path, "--format", "csv", "simulate"])
    assert "claimed_rate,3/4" in plain.output
    assert "stack_" not in plain.output


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
        [{"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": 3}],
        "top",
        12,
        None,
    ],
)
def test_json_writer_matches_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


ESCAPED = ['q"uote', "back\\slash", "nul\x00", "line\nbreak", "\x1f", "é", "✓", "\U0001f600"]

# (keys, rows, whether the array is written by the template); every other
# array must take the generic path and still give json.dumps' bytes. `Rows`
# takes the rows' columns (`_columns`).
ROW_ARRAYS = [
    (("a", "b"), [("1/2", 3), ("-7", -4)], True),
    (None, [("0", "2"), ("1/2", "1")], True),
    (("n",), [(0,), (-1,), (10**30,), (-(10**30),)], True),
    (("p%", "%s", "a%%b", "%d%"), [("50%", "%s", "%%", "%d")], True),
    (None, [("%", 1, "%(x)s")], True),
    (("k",), [("only",)], True),
    (('"q"', "é\n"), [(1, "x"), (2, "y")], True),
    (("library", "segment"), [], False),
    (None, [], False),
    (None, [("tab\t", 1), ("x", 2)], False),
    ((), [], False),
    (("s",), [(text,) for text in ESCAPED], False),
    (("plain", "s"), [("ok", text) for text in ESCAPED], False),
    (None, [("a", [1]), ("b", [])], False),
    (None, [(1, "x"), (2, 3)], False),
    (("v",), [(1,), ("1",)], False),
    (("v",), [(1,), (True,)], False),
    (("v",), [(True,), (False,)], False),
    (("v",), [(0,), (None,)], False),
    (("v",), [("x",), (None,)], False),
    (("v",), [(1.5,), (2.5,)], False),
    (None, [([1, 2], {"a": "b"}), ((), {})], False),
    (("a", "a"), [(1, 2)], False),
]


def _columns(keys, rows) -> list[list]:
    """The rows' columns; with no rows, one empty column per key."""
    if not rows:
        return [[] for _ in keys or ()]
    return [list(column) for column in zip(*rows, strict=True)]


def _nest(value, depth: int):
    """`value` `depth` levels down, inside dicts and lists with other leaves."""
    for level in range(depth):
        value = {"pad": level, "inner": value} if level % 2 else ["x", value, None]
    return value


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("keys, rows, templated", ROW_ARRAYS)
def test_row_arrays_match_indented_json_dumps(monkeypatch, keys, rows, templated, depth):
    value = cli.Rows(keys, _columns(keys, rows))
    expected = json.dumps(_nest(value.plain(), depth), indent=2)
    calls = []
    real = cli._json
    monkeypatch.setattr(cli, "_json", lambda *a: calls.append(a[0]) or real(*a))
    assert real(_nest(value, depth)) == expected
    if depth == 0:
        # the template writes the whole array without calling the writer again
        assert (calls == []) is templated


# per column: free text, digits and signs as in the CLI's arrays, ints, or any leaf
COLUMNS = st.sampled_from(
    [
        st.text(),
        st.text(alphabet="0123456789/-%"),
        st.integers(),
        st.one_of(st.text(), st.integers(), st.booleans(), st.none()),
    ]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_row_arrays_match_indented_json_dumps(data):
    width, length = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 6))
    keys = data.draw(st.none() | st.lists(st.text(), min_size=width, max_size=width).map(tuple))
    leaves = [data.draw(COLUMNS) for _ in range(width)]
    columns = [data.draw(st.lists(leaf, min_size=length, max_size=length)) for leaf in leaves]
    depth = data.draw(st.integers(0, 3))
    value = cli.Rows(keys, columns)
    assert cli._json(_nest(value, depth)) == json.dumps(_nest(value.plain(), depth), indent=2)


def test_row_arrays_reject_rows_that_do_not_fit_their_keys():
    # three columns, one column, and columns of different lengths, for two keys
    for columns in ([["a"], ["b"], ["c"]], [["a"]], [["a", "c"], ["b"]]):
        with pytest.raises(ValueError):
            cli._json(cli.Rows(("x", "y"), columns))
    for columns in ([["a", "b"], ["c"]], [[1], [2, 3]]):  # arrays of no keys too
        with pytest.raises(ValueError):
            cli._json(cli.Rows(None, columns))


def _bench_like_network(path: Path, seed: int, libraries: int, budget_eighths: int) -> str:
    """L libraries, K=200, N_l in 1..20, alpha numerators 1..9, and a budget of
    `budget_eighths`/8 of the content."""
    rng = random.Random(f"writer-network:{seed}")
    counts = [rng.randint(1, 20) for _ in range(libraries)]
    weights = [rng.randint(1, 9) for _ in range(libraries)]
    content = Fraction(sum(n * w for n, w in zip(counts, weights)), sum(weights))
    network = {
        "libraries": [
            {"num_files": n, "alpha": str(Fraction(w, sum(weights)))}
            for n, w in zip(counts, weights)
        ],
        "num_users": 200,
        "cache_size": str(content * budget_eighths / 8),
    }
    path.write_text(json.dumps(network))
    return str(path)


def assert_indented_json(output: str) -> dict:
    payload = json.loads(output)
    assert output == json.dumps(payload, indent=2) + "\n"
    return payload


@pytest.mark.parametrize("seed, budget_eighths", [(1, 0), (2, 1), (3, 4), (4, 7)])
def test_allocate_prints_json_dumps_bytes(runner, tmp_path, seed, budget_eighths):
    network = _bench_like_network(tmp_path / "net.json", seed, 20, budget_eighths)
    result = runner.invoke(main, ["--config", network, "allocate"])
    assert result.exit_code == 0, result.output
    steps = assert_indented_json(result.output)["result"]["steps"]
    assert (steps == []) is (budget_eighths == 0)


@pytest.mark.parametrize(
    "args",
    [
        ["--files", "1", "--users", "1"],
        ["--files", "7", "--users", "3"],
        ["--files", "2", "--users", "2", "--kind", "exact2x2"],
        ["--files", "20", "--users", "3000"],
    ],
)
def test_tradeoff_prints_json_dumps_bytes(runner, args):
    result = runner.invoke(main, ["tradeoff", *args])
    assert result.exit_code == 0, result.output
    assert assert_indented_json(result.output)["result"]["segments"]


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_prints_json_dumps_bytes(runner, tmp_path, seed):
    network = _bench_like_network(tmp_path / "net.json", seed, 2, 3)
    result = runner.invoke(main, ["--config", network, "sweep", "--samples", "101"])
    assert result.exit_code == 0, result.output
    assert len(assert_indented_json(result.output)["result"]["points"]) >= 101


def test_writer_calls_do_not_grow_with_allocate_steps(runner, monkeypatch, tmp_path):
    calls = []
    real = cli._json
    monkeypatch.setattr(cli, "_json", lambda *a: calls.append(a[0]) or real(*a))
    counts, steps = [], []
    for eighths in (1, 7):
        calls.clear()
        network = _bench_like_network(tmp_path / f"net{eighths}.json", 5, 50, eighths)
        payload = run_json(runner, ["--config", network, "allocate"])
        counts.append(len(calls))
        steps.append(len(payload["result"]["steps"]))
    assert steps[1] > steps[0] + 1000
    assert counts[0] == counts[1]


def test_allocate_texts_each_distinct_step_delta_once(runner, monkeypatch, tmp_path):
    """Each step's total is texted, and each distinct delta once: the steps
    repeat few deltas, and texting them twice per step doubles the work. The
    steps reach the writer as the greedy's columns: no `AllocationStep` is built."""
    calls, built = [], []
    real, step_init = cli.ratio_text, cacheshare.AllocationStep.__init__
    monkeypatch.setattr(cli, "ratio_text", lambda *v: calls.append(v) or real(*v))
    monkeypatch.setattr(
        cacheshare.AllocationStep, "__init__", lambda s, *a: built.append(a) or step_init(s, *a)
    )
    network = _bench_like_network(tmp_path / "net.json", 6, 50, 3)
    for fmt in ("json", "csv"):
        calls.clear()
        result = runner.invoke(main, ["--config", network, "--format", fmt, "allocate"])
        assert result.exit_code == 0, result.output
        if fmt == "json":
            deltas = [step["delta"] for step in json.loads(result.output)["result"]["steps"]]
        else:
            deltas = [row[3] for row in csv.reader(io.StringIO(result.output))][1:]
        distinct = set(deltas)
        assert len(deltas) > 1000 and len(distinct) < len(deltas) // 2
        assert len(calls) <= len(deltas) + len(distinct), fmt
    assert built == []
    cacheshare.AllocationStep(1, 0, 1, 1, 1)  # the guard sees a step when one is built
    assert len(built) == 1


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


@pytest.mark.parametrize(
    "args, options",
    [
        (
            ["allocate", "--oracle-step", "1/10", "--kinds", "auto"],
            {"kinds": "auto", "oracle_step": "1/10"},
        ),
        # no --base-size: the record names the size the run chose
        (
            ["simulate", "--stack", "--demand-cap", "20000", "--alloc", "greedy"],
            {
                "alloc": "greedy",
                "explicit": None,
                "kinds": "auto",
                "base_size": 10,
                "demand_cap": 20000,
                "stack": True,
            },
        ),
    ],
)
def test_record_lists_options_in_declaration_order(runner, args, options):
    payload = run_json(runner, ["--config", EXAMPLE] + args)
    assert list(payload["record"]["options"].items()) == list(options.items())
    if "base_size" in options:
        assert payload["result"]["base_size"] == options["base_size"]


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "sweep.json"
    result = runner.invoke(main, ["--config", EXAMPLE, "--out", str(target), "sweep"])
    assert result.exit_code == 0
    assert result.output == ""
    payload = json.loads(target.read_text())
    assert payload["record"]["command"] == "sweep"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "args",
    [
        ["tradeoff", "--files", "3", "--users", "4"],
        ["allocate", "--oracle-step", "1/10"],
        ["sweep"],
        ["converse"],
        ["simulate", "--stack"],
    ],
    ids=lambda args: args[0],
)
def test_out_file_holds_the_stdout_bytes(runner, tmp_path, fmt, args):
    head = ["--config", EXAMPLE, "--format", fmt]
    printed = runner.invoke(main, head + args)
    target = tmp_path / "out"
    written = runner.invoke(main, head + ["--out", str(target)] + args)
    assert printed.exit_code == written.exit_code == 0
    assert written.stdout_bytes == b""
    assert target.read_bytes() == printed.stdout_bytes


@pytest.mark.parametrize("case", ["tradeoff-json", "allocate-csv", "warning"])
def test_in_process_calls_keep_no_output_stream_alive(tmp_path, case):
    """A caller that runs commands in its own process, each with fresh stdout
    and stderr buffers, gets every buffer freed once it drops it."""
    # a cache of 7 over a content of 5/2 is clamped, with a warning on stderr
    big = tmp_path / "big.json"
    libraries = [{"num_files": 2, "alpha": "1/2"}, {"num_files": 3, "alpha": "1/2"}]
    big.write_text(json.dumps({"libraries": libraries, "num_users": 2, "cache_size": "7"}))
    args = {
        "tradeoff-json": ["tradeoff", "--files", "3", "--users", "40"],
        "allocate-csv": ["--config", EXAMPLE, "--format", "csv", "allocate"],
        "warning": ["--config", str(big), "allocate"],
    }[case]
    refs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args, prog_name="cacheshare", standalone_mode=False)
        assert out.getvalue().endswith("\n")
        assert err.getvalue().startswith("warning: ") == (case == "warning")
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_out_that_cannot_be_opened_is_usage_error(runner, tmp_path):
    target = tmp_path / "missing" / "sweep.json"
    result = runner.invoke(main, ["--config", EXAMPLE, "--out", str(target), "sweep"])
    assert result.exit_code == 2
    assert f"Error: cannot write --out {target}: No such file or directory\n" in result.stderr
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


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


def test_oversized_cache_is_clamped_with_a_plain_warning(runner, tmp_path):
    # content 1/2 * 2 + 1/2 * 3 = 5/2: a cache of 7 is clamped to it
    network = {"libraries": [{"num_files": 2, "alpha": "1/2"}, {"num_files": 3, "alpha": "1/2"}]}
    big, fitted = tmp_path / "big.json", tmp_path / "fitted.json"
    big.write_text(json.dumps({**network, "num_users": 2, "cache_size": "7"}))
    fitted.write_text(json.dumps({**network, "num_users": 2, "cache_size": "5/2"}))
    result = runner.invoke(main, ["--config", str(big), "allocate"])
    assert result.exit_code == 0
    assert result.stderr == "warning: cache size 7 exceeds total content 5/2; clamping\n"
    clamped = runner.invoke(main, ["--config", str(fitted), "allocate"])
    assert (clamped.exit_code, clamped.stderr) == (0, "")
    assert result.stdout == clamped.stdout


def test_bad_kind_for_library_shape(runner):
    result = runner.invoke(main, ["--config", UNEQUAL, "allocate", "--kinds", "exact2x2"])
    assert result.exit_code == 2


def test_kinds_count_mismatch(runner):
    result = runner.invoke(
        main, ["--config", EXAMPLE, "allocate", "--kinds", "auto,auto,auto"]
    )
    assert result.exit_code == 2
    assert "3 entries for 2 libraries" in result.output


@pytest.mark.parametrize("kinds", ["auto,,auto", "auto,,scheme", "auto,", ",auto", " "])
def test_kinds_with_an_empty_entry_is_bad_input(runner, kinds):
    # the example config has two libraries: dropping the empty entry would
    # leave a count that fits, or one kind for both
    result = runner.invoke(main, ["--config", EXAMPLE, "allocate", "--kinds", kinds])
    assert result.exit_code == 2
    assert "--kinds" in result.stderr and "empty" in result.stderr


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


@pytest.mark.parametrize("alloc", [[], ["--alloc", "greedy"], ["--alloc", "proportional"]])
def test_explicit_without_alloc_explicit_is_refused(runner, alloc):
    # it used to run the other split while the record listed the --explicit memories
    args = ["--config", EXAMPLE, "simulate", *alloc, "--explicit", "1/2,1/2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Error: --explicit needs --alloc explicit\n" in result.stderr
    assert result.stdout == ""


def test_unusable_base_size(runner):
    result = runner.invoke(main, ["--config", EXAMPLE, "simulate", "--base-size", "7"])
    assert result.exit_code == 2
    assert "use a multiple of" in result.output


def test_a_base_size_too_wide_to_draw_is_refused_before_any_bits(runner, monkeypatch):
    # 3/5 of 6 * 10^10 bits is wider than one `random.getrandbits` call draws
    def drawn(*_):
        raise AssertionError("file bits were drawn")

    monkeypatch.setattr(sim, "random_bits", drawn)
    args = ["--config", EXAMPLE, "simulate", "--base-size", "60000000000"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.endswith(
        "Error: base size 60000000000 bits gives library 2 files of 36000000000 bits; "
        "at most 2147483647 bits can be drawn per file\n"
    )
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, message",
    [
        (["allocate"], r"greedy would take \d+ steps, cap is 250000"),
        (["simulate"], "demand enumeration needs {factors} vectors, cap is 4096"),
        (["simulate", "--alloc", "proportional", "--stack"],
         "demand enumeration needs {factors} vectors, cap is 4096"),
    ],
)
def test_a_network_of_a_trillion_users_is_refused_at_once(runner, tmp_path, command, message):
    # files 3 and 5, K = 10^12: the greedy's steps and the demand count are
    # counted, not built, and each refusal is a message with exit 2
    k = 10**12
    data = {
        "libraries": [{"num_files": 3, "alpha": "1/2"}, {"num_files": 5, "alpha": "1/2"}],
        "num_users": k,
        "cache_size": "1",
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    result = runner.invoke(main, ["--config", str(path), *command])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    pattern = message.format(factors=re.escape(f"3^{k}·5^{k}"))
    assert re.fullmatch(rf"(?s).*\nError: {pattern}\n", result.stderr), result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("size", ["0", "-5"])
def test_base_size_not_positive_is_named(runner, size):
    # 0 and -5 are multiples of 5: the problem is the sign, not divisibility
    result = runner.invoke(main, ["--config", EXAMPLE, "simulate", "--base-size", size])
    assert result.exit_code == 2
    assert f"Error: base size {size} bits must be positive\n" in result.stderr
    assert "multiple" not in result.stderr


def test_negative_explicit_memory_is_named_exactly(runner):
    args = ["--config", EXAMPLE, "simulate", "--alloc", "explicit", "--explicit", "-1/5,6/5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Error: library 1 gets negative memory -1/5\n" in result.stderr
    assert "Fraction(" not in result.stderr


def test_zero_denominator_in_explicit_is_named(runner):
    args = ["--config", EXAMPLE, "simulate", "--alloc", "explicit", "--explicit", "1/0,1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Error: bad --explicit: 1/0 has a zero denominator\n" in result.stderr
    assert "Fraction(" not in result.stderr


def test_sweep_samples_past_the_cap_exit_two(runner):
    result = runner.invoke(main, ["--config", EXAMPLE, "sweep", "--samples", "250001"])
    assert result.exit_code == 2
    assert "Error: sweep would take 250001 samples, cap is 250000\n" in result.stderr


def test_demand_cap_exceeded(runner, monkeypatch):
    # refused before the store is drawn or the caches placed, with or without --stack
    def unreachable(*args):
        raise AssertionError("set-up ran on an over-cap network")

    monkeypatch.setattr(cli, "random_file_store", unreachable)
    monkeypatch.setattr(cli, "place", unreachable)
    for stack in ([], ["--stack"]):
        args = ["--config", EXAMPLE, "simulate", "--demand-cap", "3"] + stack
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: demand enumeration needs 16 vectors, cap is 3\n")


def test_decode_mismatch_exits_one(runner, monkeypatch):
    # user 1 misreads library 1 whenever user 2 asks for file 1
    faulty_place(monkeypatch, [(1, 0, 2, 1, 1)], cli)
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


@pytest.mark.parametrize("name", ["reference", "equal_n3", "unequal_n"])
def test_simulate_builds_each_scheme_shape_once(runner, monkeypatch, name):
    # the split is planned once, on one scheme envelope per distinct file count
    calls = []
    real = sim.build_scheme_tradeoff

    def counted(num_files, num_users):
        calls.append((num_files, num_users))
        return real(num_files, num_users)

    monkeypatch.setattr(sim, "build_scheme_tradeoff", counted)
    path = CONFIG_DIR / f"{name}.json"
    run_json(runner, ["--config", str(path), "simulate", "--stack"])
    config = cacheshare.load_config(path)
    assert sorted(calls) == sorted((n, config.num_users) for n in set(config.file_counts))


@pytest.mark.parametrize("name", ["reference", "equal_n3", "unequal_n"])
def test_simulate_decodes_only_witness_users(runner, monkeypatch, name):
    # rows are checked without decoding; a failure decodes its witness alone
    calls = []
    real = sim.decode

    def counted(placement, parts, row, user, library):
        calls.append((user, library))
        return real(placement, parts, row, user, library)

    monkeypatch.setattr(sim, "decode", counted)
    args = ["--config", str(CONFIG_DIR / f"{name}.json"), "simulate", "--stack"]
    run_json(runner, args)
    assert calls == []
    # user 2 misreads library 2 whenever it asks for file 1: one bit of its
    # decode image of its own share of file 1 in the plan's coded part (after
    # a t = 0 part on unequal_n) is wrong
    part = 1 if name == "unequal_n" else 0
    faulty_place(monkeypatch, [(2, part, 2, 1, 2)], cli)
    # the witness is delivered from the row pass's tables: files are cut once
    # by `place` and once by the row pass, send images laid out once
    cuts = Counter()

    def counting(helper):
        real_helper = getattr(sim, helper)

        def counted_helper(*args):
            cuts[helper] += 1
            return real_helper(*args)

        return counted_helper

    for helper in ("_split_files", "_library_send_images"):
        monkeypatch.setattr(sim, helper, counting(helper))
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "user 2 decoded library 2 incorrectly" in result.output
    assert calls == [(2, 2)]
    libraries = cacheshare.load_config(CONFIG_DIR / f"{name}.json").num_libraries
    assert cuts == {"_split_files": 2 * libraries, "_library_send_images": libraries}


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


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "the config must be a JSON object with libraries, num_users and cache_size"),
        (
            {"libraries": [{"num_files": 2, "alpha": "1"}], "num_users": 2},
            "the config must be a JSON object with libraries, num_users and cache_size",
        ),
        (
            {"libraries": [3], "num_users": 2, "cache_size": "1"},
            "library 1 must be an object with num_files and alpha",
        ),
        (
            {"libraries": None, "num_users": 2, "cache_size": "1"},
            "libraries must be a list of objects",
        ),
        (
            {
                "libraries": [{"num_files": 2, "alpha": "1"}, {"num_files": 2}],
                "num_users": 2,
                "cache_size": "1",
            },
            "library 2 must be an object with num_files and alpha",
        ),
    ],
)
def test_malformed_config_shape_names_the_expected_shape(runner, tmp_path, data, message):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["--config", str(bad), "allocate"])
    assert result.exit_code == 2
    assert f"malformed network config: {message}\n" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


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
    for name in ("format_decimal", "ratio_decimal"):  # decimals of Fractions and of pairs
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *v, real=real: calls.append(v) or real(*v))
    run_json(runner, ["tradeoff", "--files", "3", "--users", "40"])
    run_json(runner, ["--config", EXAMPLE, "sweep"])
    assert calls == []
    run_json(runner, ["--config", EXAMPLE, "allocate"])
    assert len(calls) == 1  # the result's rate_decimal only
    result = runner.invoke(main, ["--format", "csv", "tradeoff", "--files", "3", "--users", "40"])
    assert result.exit_code == 0
    assert len(calls) > 1


def test_allocate_builds_each_curve_shape_once(runner, monkeypatch, tmp_path):
    # each distinct (kind, file count) is built once, by kind; allocate and
    # converse read the scheme curves in closed form and shape-check none, while
    # tradeoff and sweep materialize, and so check, each distinct curve once
    built, checked = [], []
    real = cli.build_by_kind
    monkeypatch.setattr(cli, "build_by_kind", lambda *a: built.append(a) or real(*a))
    check = cacheshare.PiecewiseLinearTradeoff.__post_init__
    monkeypatch.setattr(
        cacheshare.PiecewiseLinearTradeoff,
        "__post_init__",
        lambda curve: checked.append(curve.label) or check(curve),
    )

    def network(counts, users):
        path = tmp_path / f"{len(counts)}-{users}.json"
        libraries = [{"num_files": n, "alpha": f"1/{len(counts)}"} for n in counts]
        path.write_text(json.dumps({"libraries": libraries, "num_users": users, "cache_size": "1"}))
        return str(path)

    def command(*args):
        built.clear()
        checked.clear()
        run_json(runner, list(args))
        return len(built), sorted(checked)

    repeat = network((2, 3, 2, 2), 3)
    assert command("--config", repeat, "allocate") == (2, [])
    # "scheme" and "auto" are distinct kinds, though both give the scheme curve
    kinds = ["--kinds", "scheme,auto,auto,auto"]
    assert command("--config", repeat, "converse", *kinds) == (3, [])
    # "auto" at N = K = 2 is the exact curve, built by kind and checked once
    assert command("--config", network((2, 3, 2), 2), "allocate") == (2, ["exact2x2"])
    assert command("--config", network((2, 2), 3), "sweep") == (1, ["scheme(N=2,K=3)"])
    assert command("--config", network((3, 2), 2), "sweep", "--kinds", "scheme,exact2x2") == (
        2,
        ["exact2x2", "scheme(N=3,K=2)"],
    )
    assert command("tradeoff", "--files", "3", "--users", "5") == (1, ["scheme(N=3,K=5)"])


@pytest.mark.parametrize("name", ["sim-deep", "sim-multi"])
def test_simulate_materializes_no_curve(runner, monkeypatch, tmp_path, name):
    # the greedy split, the claimed rate and the plan all read closed-form curves
    networks = {
        "sim-deep": ([(2, "1")], 8, "7/8"),
        "sim-multi": ([(4, "1/5"), (3, "2/5"), (2, "2/5")], 3, "3/2"),
    }
    libraries, users, cache = networks[name]
    path = tmp_path / "network.json"
    libraries = [{"num_files": n, "alpha": alpha} for n, alpha in libraries]
    path.write_text(json.dumps({"libraries": libraries, "num_users": users, "cache_size": cache}))

    def unreachable(curve):
        raise AssertionError(f"{curve.label} was materialized")

    monkeypatch.setattr(cacheshare.PiecewiseLinearTradeoff, "__post_init__", unreachable)
    args = ["--config", str(path), "simulate", "--stack", "--demand-cap", "20000"]
    assert run_json(runner, args)["result"]["decode_ok"] is True


def test_tradeoff_refuses_segments_past_the_cap_before_building(runner, monkeypatch):
    class Built(Exception):
        pass

    def stop(*_):  # the list build of a materialized scheme curve
        raise Built

    monkeypatch.setattr(tradeoff.SchemeCurve, "head", stop)
    # N >= K: K segments
    result = runner.invoke(main, ["tradeoff", "--files", "250001", "--users", "250001"])
    assert result.exit_code == 2
    message = "curve scheme(N=250001,K=250001) would take 250001 segments, cap is 250000\n"
    assert "Error: " + message in result.stderr
    result = runner.invoke(main, ["tradeoff", "--files", "250000", "--users", "250000"])
    assert isinstance(result.exception, Built)  # at the cap it goes on to build
    # N < K: K - t* + 1 segments, refused before a list of about K pairs is built
    result = runner.invoke(main, ["tradeoff", "--files", "3", "--users", "100000000"])
    assert result.exit_code == 2
    assert "segments, cap is 250000\n" in result.stderr
