"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import answers
import inputs
import run
import spans

sys.path.insert(0, str(run.SRC))

import cacheshare  # noqa: E402
from cacheshare import bits, cli, tradeoff  # noqa: E402

REFERENCE = run.SRC / "cacheshare" / "configs" / "reference.json"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    rounds = inputs.write_inputs(workload, 7, first)
    assert inputs.write_inputs(workload, 7, second) == rounds
    assert _files(first) == _files(second)
    inputs.write_inputs(workload, 8, other)
    assert _files(other) != _files(first)


def _module_bindings() -> dict:
    snapshot = {}
    for name, module in sys.modules.items():
        if name.split(".")[0] == "cacheshare":
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    for cls in (bits.BitString, tradeoff.PiecewiseLinearTradeoff):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_wrappers_cover_rebindings_and_restore_everything():
    before = _module_bindings()
    tracer = spans.Tracer()
    with tracer.spans_installed():
        assert cacheshare.cli.verify_all is not before[("cacheshare.sim", "verify_all")]
        assert cacheshare.cli.verify_all is cacheshare.sim.verify_all
        assert cacheshare.sim.build_scheme_tradeoff is cacheshare.tradeoff.build_scheme_tradeoff
        assert cacheshare.sim.build_scheme_tradeoff is not before[
            ("cacheshare.tradeoff", "build_scheme_tradeoff")
        ]
    assert _module_bindings() == before
    with tracer.counters_installed():
        assert bits.BitString.__xor__ is not before[("BitString", "__xor__")]
        assert cacheshare.sim.concat is not before[("cacheshare.bits", "concat")]
    assert _module_bindings() == before


def test_reference_simulate_stack_counts():
    tracer = spans.Tracer()
    argv = ["--config", str(REFERENCE), "simulate", "--stack"]
    with tracer.spans_installed(), tracer.command_span():
        _, code, payload, error = run.run_command(cli.main, argv)
    assert code == 0, error
    assert payload["result"]["decode_ok"] is True
    calls = tracer.totals()["calls"]
    assert calls["sim.place"] == 2
    assert calls["sim.deliver"] == 20
    assert calls["sim.decode"] == 80
    assert tracer.counts["model.enumerate_demands.yielded"] == 16


def test_answer_check_flags_a_doctored_rate():
    _, code, payload, _ = run.run_command(
        cli.main, ["--config", str(REFERENCE), "simulate", "--stack"]
    )
    assert code == 0
    result = payload["result"]
    stored = answers.answer("simulate", result)
    assert stored["measured_rate"] == "1/2"
    assert answers.check("simulate", result, stored) == []
    doctored = dict(result, measured_rate="3/5")
    assert answers.check("simulate", doctored, stored) == [
        "measured_rate: got '3/5', stored '1/2'"
    ]
    assert answers.check("simulate", {k: v for k, v in result.items() if k != "stack"}, stored)


def test_stored_answers_cover_every_scheduled_command(tmp_path):
    expected = answers.load_expected()
    for workload in inputs.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        for rnd in inputs.write_inputs(workload, 0, directory):
            assert all(c.key in expected for c in rnd.commands)
