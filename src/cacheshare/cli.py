"""Command line front end.

Exit codes: 0 on success, 1 when a computed invariant or bit-exact check
fails (decode mismatch, oracle disagreement, measured rate off the formula),
2 on input problems (missing or invalid config, bad flags, unusable sizes).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Iterable

import click

from . import __version__
from .allocation import (
    Allocation,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    lambda_sweep,
    memory_sharing_rate,
    proportional_allocation,
)
from .converse import concatenate, concatenation_scale, conjecture_gap
from .model import (
    CapExceededError,
    NetworkConfig,
    canonical_config_json,
    format_decimal,
    load_config,
    to_fraction,
    validate,
)
from .sim import (
    DecodeMismatchError,
    DivisibilityError,
    RowPass,
    place,
    random_file_store,
    reduction_demo,
    required_base_size,
    verify_all,
)
from .tradeoff import build_by_kind, tradeoff_to_json


class VerificationFailure(click.ClickException):
    """A check the tool promises failed; distinct from bad input."""

    exit_code = 1


@dataclass
class CliState:
    config_path: str | None
    out: str
    fmt: str
    seed: int

    def load(self) -> NetworkConfig:
        if self.config_path is None:
            raise click.UsageError("this command needs --config")
        try:
            config = load_config(self.config_path)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot load config: {exc}") from exc
        problems = validate(config)
        if problems:
            raise click.UsageError("invalid config: " + "; ".join(problems))
        return config


def _record(state: CliState, command: str, config: NetworkConfig | None, **options) -> dict:
    digest = None
    if config is not None:
        digest = hashlib.sha256(canonical_config_json(config).encode()).hexdigest()[:16]
    return {
        "tool": "cacheshare",
        "version": __version__,
        "command": command,
        "seed": state.seed,
        "config_digest": digest,
        "options": options,
    }


_escape = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode  # bool, None and any other scalar


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, without the generator-based encoder that
    json falls back to whenever it indents. `pad` is the newline and indent
    of the line `value` starts on."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        # str leaves, most of every document, skip the call
        if kind is dict:
            items = [
                _escape(k) + ": " + (_escape(v) if type(v) is str else _json(v, inner))
                for k, v in value.items()
            ]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        items = [_escape(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _scalar(value)


def _emit(state: CliState, record: dict, result: dict, header: list, rows: Iterable) -> None:
    """Write JSON (record + result) or CSV (header, rows) to --out. `rows` is
    lazy and consumed only for CSV."""
    if state.fmt == "json":
        text = _json({"record": record, "result": result})
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    if state.out == "-":
        click.echo(text)
    else:
        with open(state.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


def _curves(config: NetworkConfig, kinds: str, built: dict | None = None):
    """One curve per library. Each distinct (kind, file count) is built once
    and kept in `built`, a dict that lives for one command only."""
    names = [part.strip() for part in kinds.split(",") if part.strip()]
    if len(names) == 1:
        names = names * config.num_libraries
    if len(names) != config.num_libraries:
        raise click.UsageError(
            f"--kinds lists {len(names)} entries for {config.num_libraries} libraries"
        )
    shapes = list(zip(names, config.file_counts))
    if built is None:
        built = {}
    try:
        for shape in dict.fromkeys(shapes):
            if shape not in built:
                built[shape] = build_by_kind(*shape, config.num_users)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return [built[s] for s in shapes]


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Network description (JSON).",
)
@click.option("--out", default="-", show_default=True, help="Output path; '-' is stdout.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="Output format.",
)
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed for file contents.")
@click.version_option(version=__version__, prog_name="cacheshare")
@click.pass_context
def main(ctx: click.Context, config_path: str | None, out: str, fmt: str, seed: int) -> None:
    """Memory-rate tradeoffs and bit-exact simulation for multi-library caching."""
    ctx.obj = CliState(config_path=config_path, out=out, fmt=fmt, seed=seed)


@main.command("tradeoff")
@click.option("--files", type=int, required=True, help="Files in the library.")
@click.option("--users", type=int, required=True, help="Users served.")
@click.option(
    "--kind",
    type=click.Choice(["auto", "scheme", "exact2x2"]),
    default="auto",
    show_default=True,
)
@click.pass_obj
def cmd_tradeoff(state: CliState, files: int, users: int, kind: str) -> None:
    """Print one library's memory-rate curve (corners and exact segments)."""
    if files < 1 or users < 1:
        raise click.UsageError("--files and --users must be at least 1")
    try:
        curve = build_by_kind(kind, files, users)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    corners = tradeoff_to_json(curve)
    result = {
        "label": curve.label,
        "exact": curve.exact,
        "corners": corners,
        "segments": [
            {
                "start": str(curve.breakpoints[i]),
                "end": str(curve.breakpoints[i + 1]),
                "intercept": str(curve.intercepts[i]),
                "slope": str(-curve.slopes[i]),
            }
            for i in range(curve.num_segments)
        ],
    }
    rows = (
        [m, r, format_decimal(to_fraction(m)), format_decimal(to_fraction(r))]
        for m, r in corners
    )
    record = _record(state, "tradeoff", None, files=files, users=users, kind=kind)
    _emit(state, record, result, ["memory", "rate", "memory_decimal", "rate_decimal"], rows)


@main.command("allocate")
@click.option("--kinds", default="auto", show_default=True, help="Per-library curve kinds (comma list or one for all).")
@click.option(
    "--oracle-step",
    default=None,
    help="Cross-check against exhaustive search on this grid step (exact fraction).",
)
@click.pass_obj
def cmd_allocate(state: CliState, kinds: str, oracle_step: str | None) -> None:
    """Split the cache budget across libraries greedily and rate the result."""
    config = state.load()
    curves = _curves(config, kinds)
    trace = greedy_allocate(config, curves)
    problems = corner_structure_violations(config, curves, trace.final)
    if problems:
        raise VerificationFailure("allocation structure broken: " + "; ".join(problems))
    oracle = None
    if oracle_step is not None:
        try:
            step = to_fraction(oracle_step)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise click.UsageError(f"bad --oracle-step: {exc}") from exc
        try:
            best_alloc, best_rate = brute_force_allocate(config, curves, step)
        except ValueError as exc:  # a step that is not positive, or too many splits
            raise click.UsageError(str(exc)) from exc
        if best_rate != trace.rate:
            raise VerificationFailure(
                f"greedy rate {trace.rate} differs from oracle rate {best_rate} "
                f"at split {[str(m) for m in best_alloc.per_library]}"
            )
        oracle = {
            "rate": str(best_rate),
            "allocation": [str(m) for m in best_alloc.per_library],
        }
    result = {
        "allocation": [str(m) for m in trace.final.per_library],
        "rate": str(trace.rate),
        "rate_decimal": format_decimal(trace.rate),
        "labels": list(trace.tradeoff_labels),
        "steps": [
            {
                "library": s.library,
                "segment": s.segment,
                "delta": str(s.delta),
                "allocated_total": str(s.allocated_total),
            }
            for s in trace.steps
        ],
        "structure_ok": True,
    }
    if oracle is not None:
        result["oracle"] = oracle
    rows = (
        [
            i + 1,
            s.library,
            s.segment,
            str(s.delta),
            format_decimal(s.delta),
            str(s.allocated_total),
            format_decimal(s.allocated_total),
        ]
        for i, s in enumerate(trace.steps)
    )
    record = _record(state, "allocate", config, kinds=kinds, oracle_step=oracle_step)
    header = [
        "step",
        "library",
        "segment",
        "delta",
        "delta_decimal",
        "allocated_total",
        "allocated_total_decimal",
    ]
    _emit(state, record, result, header, rows)


@main.command("sweep")
@click.option("--samples", type=int, default=11, show_default=True, help="Grid sample count.")
@click.option("--kinds", default="auto", show_default=True)
@click.pass_obj
def cmd_sweep(state: CliState, samples: int, kinds: str) -> None:
    """Sweep the first library's budget share from 0 to 1 (two libraries only)."""
    config = state.load()
    curves = _curves(config, kinds)
    try:
        result = lambda_sweep(config, curves, num_samples=samples)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    share, rate = result.minimum()
    payload = {
        "points": [[str(s), str(r)] for s, r in result.points],
        "breakpoints": [str(b) for b in result.breakpoints],
        "segments": [
            {
                "start": str(seg.start),
                "end": str(seg.end),
                "intercept": str(seg.intercept),
                "slope": str(seg.slope),
            }
            for seg in result.segments
        ],
        "minimum": {"lambda": str(share), "rate": str(rate)},
    }
    rows = ([str(s), str(r), format_decimal(s), format_decimal(r)] for s, r in result.points)
    record = _record(state, "sweep", config, samples=samples, kinds=kinds)
    _emit(state, record, payload, ["lambda", "rate", "lambda_decimal", "rate_decimal"], rows)


@main.command("converse")
@click.option("--kinds", default="auto", show_default=True)
@click.pass_obj
def cmd_converse(state: CliState, kinds: str) -> None:
    """Lower-bound the rate via the stacked library and report the gap."""
    config = state.load()
    curves = _curves(config, kinds)
    report = conjecture_gap(config, curves)
    if report.gap < 0:
        raise VerificationFailure(
            f"converse {report.converse} exceeds achievable {report.achievable}"
        )
    stack = concatenate(config)
    payload = report.to_json()
    payload["stack"] = {
        "betas": [str(b) for b in stack.betas],
        "library_order": list(stack.permutation),
        "scale": str(concatenation_scale(config)),
    }
    record = _record(state, "converse", config, kinds=kinds)
    _emit(state, record, payload, ["key", "value"], report.to_json().items())


@main.command("simulate")
@click.option(
    "--alloc",
    type=click.Choice(["greedy", "proportional", "explicit"]),
    default="greedy",
    show_default=True,
)
@click.option("--explicit", default=None, help="Comma-separated per-library memories (fractions).")
@click.option("--kinds", default="auto", show_default=True, help="Curves for the greedy split and claimed_rate.")
@click.option("--base-size", type=int, default=None, help="Total bits per size unit (default: smallest usable).")
@click.option("--demand-cap", type=int, default=4096, show_default=True)
@click.option("--stack/--no-stack", default=False, help="Also serve every stacked-library demand.")
@click.pass_obj
def cmd_simulate(
    state: CliState,
    alloc: str,
    explicit: str | None,
    kinds: str,
    base_size: int | None,
    demand_cap: int,
    stack: bool,
) -> None:
    """Run the scheme bit for bit over every demand and verify decoding."""
    config = state.load()
    built: dict = {}
    claimed = None  # the split's rate on the --kinds curves
    if alloc == "greedy":
        curves = _curves(config, kinds, built)
        trace = greedy_allocate(config, curves)
        allocation, claimed = trace.final, trace.rate
        # a greedy curve that is not exact is its library's scheme curve
        built.update({("scheme", c.num_files): c for c in curves if not c.exact})
    elif alloc == "proportional":
        allocation = proportional_allocation(config)
    else:
        if explicit is None:
            raise click.UsageError("--alloc explicit needs --explicit")
        try:
            parts = tuple(to_fraction(p.strip()) for p in explicit.split(","))
            allocation = Allocation(parts)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise click.UsageError(f"bad --explicit: {exc}") from exc
        if len(parts) != config.num_libraries:
            raise click.UsageError(
                f"--explicit lists {len(parts)} memories for {config.num_libraries} libraries"
            )
        if allocation.total != config.cache_size:
            raise click.UsageError(
                f"--explicit totals {allocation.total}, budget is {config.cache_size}"
            )
    if claimed is None:
        claimed = memory_sharing_rate(config, allocation, _curves(config, kinds, built))
    scheme = _curves(config, "scheme", built)  # the curves the simulator runs
    try:
        needed = required_base_size(config, allocation, scheme)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    chosen = base_size if base_size is not None else needed
    try:
        store = random_file_store(config, chosen, state.seed)
        placement = place(store, config, allocation, scheme)
        row_pass = RowPass(store, config, placement)
        report = verify_all(row_pass, demand_cap)
    except DivisibilityError as exc:
        raise click.UsageError(str(exc)) from exc
    except CapExceededError as exc:
        raise click.UsageError(str(exc)) from exc
    except DecodeMismatchError as exc:
        raise VerificationFailure(str(exc)) from exc
    if report.measured_rate != report.formula_rate:
        raise VerificationFailure(
            f"measured rate {report.measured_rate} != formula rate {report.formula_rate}"
        )
    payload = report.to_json()
    payload["claimed_rate"] = str(claimed)
    payload["decode_ok"] = True
    if stack:
        try:
            stack_report = reduction_demo(row_pass, demand_cap)
        except CapExceededError as exc:
            raise click.UsageError(str(exc)) from exc
        except DecodeMismatchError as exc:
            raise VerificationFailure(str(exc)) from exc
        payload["stack"] = stack_report.to_json()
    rows = [
        ["demands_checked", report.demands_checked],
        ["demand_vectors_run", report.demand_vectors_run],
        ["base_size", report.base_size],
        ["measured_rate", str(report.measured_rate)],
        ["measured_rate_decimal", format_decimal(report.measured_rate)],
        ["formula_rate", str(report.formula_rate)],
        ["max_total_bits", report.max_total_bits],
    ]
    record = _record(
        state,
        "simulate",
        config,
        alloc=alloc,
        explicit=explicit,
        kinds=kinds,
        base_size=chosen,
        demand_cap=demand_cap,
        stack=stack,
    )
    _emit(state, record, payload, ["key", "value"], rows)


if __name__ == "__main__":
    main()
