"""cacheshare benchmark: end-to-end command timings and a traced per-layer run.

Usage, from the repository root (stdlib only; the package need not be installed):

    python3 bench/run.py --workload sim-multi --seed 1 --seconds 30 --trace 0

Commands go through the public `cacheshare.cli.main` in this process; cold
start is timed in fresh interpreters. Human-readable lines come first; the
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). Full reports, and the spans of traced runs, are
written under `.bench_out/`. See bench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import click

import answers
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TRACE_ROUNDS = {"sim-multi": 2, "sim-deep": 2, "analytic": 4}
# Every run makes at least this many rounds, and peak memory is read after
# them, so that it does not depend on how many rounds a run fits in. On
# `analytic` that is one visit to each budget group.
MIN_ROUNDS = {"sim-multi": 4, "sim-deep": 4, "analytic": inputs.STRATA}
REFERENCE_UNITS = 60

# Child of the set-up measurement: a fresh interpreter imports the CLI and
# writes the workload's inputs; it prints the import time alone.
SETUP_CODE = """\
import shutil, sys, tempfile, time
t0 = time.perf_counter()
import cacheshare.cli
t1 = time.perf_counter()
import inputs
workdir = tempfile.mkdtemp(dir=sys.argv[3])
try:
    inputs.write_inputs(sys.argv[1], int(sys.argv[2]), workdir)
finally:
    shutil.rmtree(workdir)
print(t1 - t0)
"""


def reference_seconds(units: int) -> float:
    """Wall time of REFERENCE_UNITS passes of a fixed pure-Python loop in the
    program's own mix of work (exact fractions, integer bit operations, small
    tuples), scaled from a timing of `units` passes.

    It runs between commands; a command's time divided by the mean of the
    loop times on either side of it cancels the machine's speed at that
    moment, which on a shared host swings by 1.7x over minutes. Never change
    it: the ratios of two versions compare only when both used the same loop.
    """
    start = time.perf_counter()
    for _ in range(units):
        acc, bits = Fraction(0), 0
        for i in range(1, 400):
            acc += Fraction(i, i + 7)
            for j, k in [(j, i) for j in range(40)]:
                bits ^= (bits << 1 | j ^ k) & 0xFFFFFFFFFFFF
    return (time.perf_counter() - start) * REFERENCE_UNITS / units


def run_command(cli_main, argv: list[str]) -> tuple[float, int, dict | None, str]:
    """Invoke the CLI in-process; return (wall seconds, exit code, JSON output, error)."""
    buf = io.StringIO()
    code, error = 0, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rv = cli_main.main(argv, prog_name="cacheshare", standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except click.ClickException as exc:
        code, error = exc.exit_code, exc.format_message()
    except Exception as exc:  # a crash is a failed command, not the end of the run
        code, error = 1, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    payload = None
    if code == 0:
        try:
            payload = json.loads(buf.getvalue())
        except json.JSONDecodeError as exc:
            code, error = 1, f"output is not JSON: {exc}"
    return wall, code, payload, error


class Pass:
    """Timings and failures of the commands one pass ran."""

    def __init__(self) -> None:
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[float] = []
        self.groups: list[int] = []
        # with reference timing on: reference_seconds() before the first
        # command and after each, and per round the sum over its commands of
        # the command's time over the mean reference time on either side of it
        self.references: list[float] = []
        self.per_ref: list[float] = []
        self.covered = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run_round(
        self, cli_main, rnd, workdir: Path, expected: dict, wrap=None, reference=False
    ) -> None:
        # a round spends REFERENCE_UNITS passes on the reference loop however
        # many commands it has
        units = REFERENCE_UNITS // len(rnd.commands)
        if reference and not self.references:
            self.references.append(reference_seconds(units))
        total = normalized = 0.0
        for command in rnd.commands:
            with wrap() if wrap else contextlib.nullcontext():
                wall, code, payload, error = run_command(cli_main, command.argv(workdir))
            total += wall
            if reference:
                self.references.append(reference_seconds(units))
                normalized += wall / ((self.references[-2] + self.references[-1]) / 2)
            self.attempted += 1
            self.by_kind[command.kind].append(wall)
            self.covered += command.covered
            if code != 0:
                self.failures.append(f"{command.key}: exit {code}: {error}")
                continue
            problems = answers.check(command.kind, payload["result"], expected[command.key])
            if problems:
                self.failures.append(f"{command.key}: " + "; ".join(problems))
        self.rounds.append(total)
        self.groups.append(rnd.group)
        if reference:
            self.per_ref.append(normalized)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of one fresh interpreter setting up, and its import time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, workload, str(seed), str(OUT)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return time.perf_counter() - start, float(done.stdout.strip().splitlines()[-1])


def stamp(seed: int) -> dict:
    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():  # an exported checkout has no history
            return None
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src") if commit else None
    return {
        "commit": commit,
        "src_dirty": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def end_to_end(
    workload: str, untraced: Pass, setup_walls: list[float], peak_rss_mib: float
) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit, samples)."""
    per_ref = defaultdict(list)
    for group, ratio in zip(untraced.groups, untraced.per_ref):
        per_ref[group].append(ratio)
    refs = untraced.references
    metrics = {
        "round_per_ref": (
            statistics.fmean(statistics.median(v) for v in per_ref.values()),
            "ratio",
            len(untraced.rounds),
        ),
        "round_s_p50": (statistics.median(untraced.rounds), "s", len(untraced.rounds)),
        "reference_s_p50": (statistics.median(refs), "s", len(refs)),
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mib": (peak_rss_mib, "MiB", MIN_ROUNDS[workload]),
        "error_rate": (len(untraced.failures) / untraced.attempted, "ratio", untraced.attempted),
    }
    for kind, walls in sorted(untraced.by_kind.items()):
        metrics[f"{kind}_s_p50"] = (statistics.median(walls), "s", len(walls))
    if workload != "analytic":
        busy = sum(untraced.by_kind["simulate"])
        metrics["demands_per_s"] = (untraced.covered / busy, "1/s", len(untraced.rounds))
    return metrics


def per_layer(tracer, counters, traced: Pass, untraced: Pass, imports: list[float]) -> dict:
    """Every per-layer metric, per round of the traced passes: name -> (value, unit)."""
    rounds = len(traced.rounds)
    totals = tracer.totals()
    calls, inclusive, self_time = totals["calls"], totals["inclusive"], totals["self"]
    counts = tracer.counts + counters.counts
    # the same rounds with and without tracing, each in reference units so
    # that the machine's speed drops out
    overhead_share = sum(traced.per_ref) / sum(untraced.per_ref[:rounds]) - 1
    overhead = overhead_share * statistics.fmean(untraced.rounds[:rounds])
    deliveries = calls["sim.deliver"]
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.self_s": (self_time["cli.command"] / rounds, "s"),
        "model.load_config_s": (inclusive["model.load_config"] / rounds, "s"),
        "tradeoff.build_s": (inclusive["tradeoff.build"] / rounds, "s"),
        "tradeoff.build.calls": (calls["tradeoff.build"] / rounds, "count"),
        "tradeoff.build.calls_per_shape": (
            calls["tradeoff.build"] / totals["shapes"] if totals["shapes"] else 0.0, "ratio"
        ),
        "tradeoff.envelope_s": (inclusive["tradeoff.envelope"] / rounds, "s"),
        "allocation.greedy_s": (inclusive["allocation.greedy"] / rounds, "s"),
        "allocation.structure_s": (inclusive["allocation.structure"] / rounds, "s"),
        "allocation.oracle_s": (inclusive["allocation.oracle"] / rounds, "s"),
        "allocation.sweep_s": (inclusive["allocation.sweep"] / rounds, "s"),
        "converse.gap.self_s": (self_time["converse.gap"] / rounds, "s"),
        "converse.bound_s": (inclusive["converse.bound"] / rounds, "s"),
        "converse.concatenate_s": (inclusive["converse.concatenate"] / rounds, "s"),
        "sim.deliver_s": (inclusive["sim.deliver"] / rounds, "s"),
        "sim.deliver.calls": (deliveries / rounds, "count"),
        "sim.deliver_per_covered": (
            deliveries / traced.covered if traced.covered else 0.0, "ratio"
        ),
        "sim.decode_s": (inclusive["sim.decode"] / rounds, "s"),
        "sim.decode.calls": (calls["sim.decode"] / rounds, "count"),
        "sim.place_s": (inclusive["sim.place"] / rounds, "s"),
        "sim.place.calls": (calls["sim.place"] / rounds, "count"),
        "sim.reduction.self_s": (self_time["sim.reduction"] / rounds, "s"),
        "sim.verify_all.self_s": (self_time["sim.verify_all"] / rounds, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    for name in (
        "model.enumerate_demands.yielded",
        "tradeoff.evaluate.calls",
        "allocation.greedy.steps",
        "allocation.rate.calls",
        "allocation.sweep.segments",
        "sim.transcript_bits",
        "bits.bitstring.created",
        "bits.xor.calls",
        "bits.slice.calls",
        "bits.concat.calls",
    ):
        metrics[name] = (counts[name] / rounds, "count")
    return dict(sorted(metrics.items()))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cacheshare" / "cli.py").is_file():
        print(f"bench: no cacheshare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cacheshare import cli

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        expected = answers.load_expected()
        rounds = inputs.write_inputs(args.workload, args.seed, workdir)
        trace_rounds = TRACE_ROUNDS[args.workload]

        # Set-up is timed between rounds, so that its samples spread over the
        # whole run as the round times do.
        untraced = Pass()
        setups = []
        min_rounds = MIN_ROUNDS[args.workload]
        start = time.perf_counter()
        while True:
            setups.append(measure_setup(args.workload, args.seed))
            if len(untraced.rounds) == min_rounds:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(untraced.rounds) >= min_rounds and time.perf_counter() - start >= args.seconds:
                break
            rnd = rounds[len(untraced.rounds) % len(rounds)]
            untraced.run_round(cli.main, rnd, workdir, expected, reference=True)
        setup_walls, imports = zip(*setups)
        e2e = end_to_end(args.workload, untraced, setup_walls, peak_rss)

        passes = [untraced]
        layers = None
        if args.trace:
            tracer, counter = spans.Tracer(), spans.Tracer()
            traced, counted = Pass(), Pass()
            with tracer.spans_installed():
                for rnd in rounds[:trace_rounds]:
                    traced.run_round(
                        cli.main, rnd, workdir, expected, tracer.command_span, reference=True
                    )
            with counter.counters_installed():
                for rnd in rounds[:trace_rounds]:
                    counted.run_round(cli.main, rnd, workdir, expected)
            passes += [traced, counted]
            layers = per_layer(tracer, counter, traced, untraced, imports)
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report = {
        "stamp": stamp(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "samples": {
            "round_s": untraced.rounds,
            "reference_s": untraced.references,
            "setup_s": setup_walls,
            "command_s": untraced.by_kind,
        },
        "per_layer": layers and {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# {tag}: " + " ".join(f"{k}={v}" for k, v in report["stamp"].items()))
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit, samples) in e2e.items():
        print(f"# {name:<20} {value:>14.6g} {unit:<6} n={samples}")
    for name, (value, unit) in (layers or {}).items():
        print(f"# {name:<34} {value:>14.6g} {unit}")

    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    chosen = layers if args.trace else e2e
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
