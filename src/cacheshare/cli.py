"""Command line front end.

Exit codes: 0 on success, 1 when a computed invariant or bit-exact check
fails (decode mismatch, oracle disagreement, measured rate off the formula),
2 on input problems (missing or invalid config, bad flags, unusable sizes).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Sequence

import click

from . import __version__
from .allocation import (
    Allocation,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    greedy_split,
    lambda_sweep,
    memory_sharing_rate,
    proportional_allocation,
)
from .converse import conjecture_gap
from .model import (
    DEFAULT_DEMAND_CAP,
    NetworkConfig,
    canonical_config_json,
    check_demand_cap,
    format_decimal,
    load_config,
    ratio_decimal,
    ratio_text,
    reduced_texts,
    to_fraction,
    validate,
)
from .sim import (
    DecodeMismatchError,
    RowPass,
    place,
    plan_split,
    random_file_store,
    reduction_demo,
    verify_all,
)
from .tradeoff import SEGMENT_KEYS, build_by_kind, corner_rates, tradeoff_rows


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
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                config = load_config(self.config_path)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot load config: {exc}") from exc
        for warning in caught:  # an oversized cache, clamped
            click.echo(f"warning: {warning.message}", file=sys.stderr)
        problems = validate(config)
        if problems:
            raise click.UsageError("invalid config: " + "; ".join(problems))
        return config


_escape = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode  # bool, None and any other scalar


@dataclass(frozen=True, slots=True)
class Rows:
    """A JSON array of rows: objects with the keys `keys`, in that order, or
    arrays when `keys` is None. `columns` holds the values, a sequence per field."""

    keys: tuple[str, ...] | None
    columns: Sequence[Sequence]

    def plain(self) -> list:
        """The array as dicts or tuples, as `json.dumps` takes it."""
        rows = list(zip(*self.columns, strict=True))
        if self.keys is None:
            return rows
        return [dict(zip(self.keys, row, strict=True)) for row in rows]


def _rows(value: Rows, pad: str) -> str:
    """`_json(value.plain(), pad)`. When the columns are of one length and each
    holds only int leaves or only str leaves that need no escaping, the whole
    array is one `%` of a template built from `pad`, the keys and the length,
    with the columns' values in place; any other array takes the generic path."""
    keys, columns = value.keys, value.columns
    specs = []  # each column's placeholder; a bool is not an int here
    for column in columns:
        kinds = set(map(type, column))
        if kinds == {int}:
            specs.append("%d")
        # escaping maps each character on its own, so a column needs none
        # exactly when its concatenation needs none
        elif kinds == {str} and len(_escape(text := "".join(column))) == len(text) + 2:
            specs.append('"%s"')
        else:
            break
    # keys must be distinct, as in the dicts `plain()` makes
    if len(specs) != len(columns) or len(set(map(len, columns))) != 1 or (
        keys is not None and not len(set(keys)) == len(keys) == len(specs)
    ):
        return _json(value.plain(), pad)
    inner, cell = pad + "  ", pad + "    "
    if keys is None:
        row = "[" + cell + ("," + cell).join(specs) + inner + "]"
    else:
        fields = [_escape(k).replace("%", "%%") + ": " + spec for k, spec in zip(keys, specs)]
        row = "{" + cell + ("," + cell).join(fields) + inner + "}"
    template = "[" + inner + ("," + inner).join([row] * len(columns[0])) + pad + "]"
    return template % tuple(chain.from_iterable(zip(*columns)))


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, without the generator-based encoder that
    json falls back to whenever it indents, with a `Rows` written as its
    `plain()` array. `pad` is the newline and indent of the line `value`
    starts on."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Rows:
        return _rows(value, pad)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        # str and int leaves, most of every document, skip the call
        if kind is dict:
            items = [
                _escape(k) + ": " + (
                    _escape(v) if (leaf := type(v)) is str
                    else int.__repr__(v) if leaf is int else _json(v, inner)
                )
                for k, v in value.items()
            ]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        items = [
            _escape(v) if (leaf := type(v)) is str
            else int.__repr__(v) if leaf is int else _json(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _scalar(value)


def _emit(state: CliState, record: dict, result: dict, header: list, rows: Iterable) -> None:
    """Write JSON (record + result) or CSV (header, rows) to --out. `rows` is
    lazy and consumed only for CSV. Each destination is written with its own
    `write`: `click.echo` keeps every stdout it sees, and its text, alive."""
    if state.fmt == "json":
        text = _json({"record": record, "result": result})
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    if state.out == "-":
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    else:
        with open(state.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


def _curves(config: NetworkConfig, kinds: str):
    """One curve per library; each distinct (kind, file count) is built once."""
    names = [part.strip() for part in kinds.split(",")]
    if "" in names:
        raise click.UsageError(f"--kinds entry {names.index('') + 1} of {kinds!r} is empty")
    if len(names) == 1:
        names = names * config.num_libraries
    if len(names) != config.num_libraries:
        raise click.UsageError(
            f"--kinds lists {len(names)} entries for {config.num_libraries} libraries"
        )
    shapes = list(zip(names, config.file_counts))
    built = {shape: build_by_kind(*shape, config.num_users) for shape in dict.fromkeys(shapes)}
    return [built[s] for s in shapes]


def _fraction(text: str, flag: str) -> Fraction:
    """An exact fraction given to `flag`; anything else is bad input naming the flag."""
    try:
        return to_fraction(text)
    except ZeroDivisionError as exc:
        raise click.UsageError(f"bad {flag}: {text} has a zero denominator") from exc
    except ValueError as exc:
        raise click.UsageError(f"bad {flag}: {exc}") from exc


def _print_and_exit(text: Callable[[click.Context], str]) -> Callable:
    """The callback of an eager flag that prints `text(ctx)` and exits. It
    writes with the destination's own `write`, as `_emit` does."""

    def callback(ctx: click.Context, _param: click.Parameter, value: bool) -> None:
        if value and not ctx.resilient_parsing:
            sys.stdout.write(text(ctx) + "\n")
            sys.stdout.flush()
            ctx.exit()

    return callback


class _Command(click.Command):
    """A command whose --help is printed by `_print_and_exit`."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _print_and_exit(click.Context.get_help)
        return option


class _Group(click.Group, _Command):
    command_class = _Command


@click.group(cls=_Group)
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
@click.option(
    "--version",
    is_flag=True,
    expose_value=False,
    is_eager=True,
    help="Show the version and exit.",
    callback=_print_and_exit(lambda _ctx: f"cacheshare, version {__version__}"),
)
@click.pass_context
def main(ctx: click.Context, config_path: str | None, out: str, fmt: str, seed: int) -> None:
    """Memory-rate tradeoffs and bit-exact simulation for multi-library caching."""
    ctx.obj = CliState(config_path=config_path, out=out, fmt=fmt, seed=seed)


def _command(name: str):
    """Register a command on `main`. This is the CLI's one error boundary.

    The body takes the CLI state and its options and returns (config, result,
    header, rows), optionally followed by a dict of option values to record in
    place of the given ones. The scaffold records every declared option in
    declaration order, writes the output, and maps library errors to exit
    codes: a ValueError (DivisibilityError and CapExceededError among them) or
    an --out that cannot be written is bad input and exits 2; a
    DecodeMismatchError is a failed check and exits 1.
    """

    def register(body):
        @functools.wraps(body)
        def run(**params) -> None:
            ctx = click.get_current_context()
            state: CliState = ctx.obj
            try:
                config, result, header, rows, *used = body(state, **params)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
            except DecodeMismatchError as exc:
                raise VerificationFailure(str(exc)) from exc
            options = {p.name: params[p.name] for p in ctx.command.params}
            options.update(*used)
            digest = None
            if config is not None:
                digest = hashlib.sha256(canonical_config_json(config).encode()).hexdigest()[:16]
            record = {
                "tool": "cacheshare",
                "version": __version__,
                "command": name,
                "seed": state.seed,
                "config_digest": digest,
                "options": options,
            }
            try:
                _emit(state, record, result, header, rows)
            except OSError as exc:
                raise click.UsageError(f"cannot write --out {state.out}: {exc.strerror}") from exc

        return main.command(name)(run)

    return register


@_command("tradeoff")
@click.option("--files", type=int, required=True, help="Files in the library.")
@click.option("--users", type=int, required=True, help="Users served.")
@click.option(
    "--kind",
    type=click.Choice(["auto", "scheme", "exact2x2"]),
    default="auto",
    show_default=True,
)
def cmd_tradeoff(state: CliState, files: int, users: int, kind: str) -> tuple:
    """Print one library's memory-rate curve (corners and exact segments)."""
    if files < 1 or users < 1:
        raise click.UsageError("--files and --users must be at least 1")
    curve = build_by_kind(kind, files, users).materialize()
    corners, segments = tradeoff_rows(curve)
    result = {
        "label": curve.label,
        "exact": curve.exact,
        "corners": Rows(None, corners),
        "segments": Rows(SEGMENT_KEYS, segments),
    }

    def rows():  # read for CSV only
        for m, r, memory, rate in zip(*corners, curve.breakpoint_ratios, corner_rates(curve)):
            yield [m, r, ratio_decimal(*memory), ratio_decimal(*rate)]

    return None, result, ["memory", "rate", "memory_decimal", "rate_decimal"], rows()


@_command("allocate")
@click.option("--kinds", default="auto", show_default=True, help="Per-library curve kinds (comma list or one for all).")
@click.option(
    "--oracle-step",
    default=None,
    help=(
        "Cross-check the greedy rate against the slope-threshold oracle; "
        "any positive fraction turns it on."
    ),
)
def cmd_allocate(state: CliState, kinds: str, oracle_step: str | None) -> tuple:
    """Split the cache budget across libraries greedily and rate the result."""
    config = state.load()
    curves = _curves(config, kinds)
    trace = greedy_allocate(config, curves)
    problems = corner_structure_violations(config, curves, trace.final)
    if problems:
        raise VerificationFailure("allocation structure broken: " + "; ".join(problems))
    # each step's memories as text, straight from its integer units: the
    # totals in one pass, and each distinct delta once
    scale = trace.scale
    delta_texts = {d: ratio_text(d, scale) for d in set(trace.delta_units)}
    deltas = [delta_texts[d] for d in trace.delta_units]
    totals = [ratio_text(t, scale) for t in trace.total_units]
    keys = ("library", "segment", "delta", "allocated_total")
    result = {
        "allocation": [str(m) for m in trace.final.per_library],
        "rate": str(trace.rate),
        "rate_decimal": format_decimal(trace.rate),
        "labels": list(trace.tradeoff_labels),
        "steps": Rows(keys, (trace.libraries, trace.segments, deltas, totals)),
        "structure_ok": True,
    }
    if oracle_step is not None:
        step = _fraction(oracle_step, "--oracle-step")
        if step <= 0:
            raise ValueError(f"grid step {step} must be positive")
        best_alloc, best_rate = brute_force_allocate(config, curves)
        split = [str(m) for m in best_alloc.per_library]
        if best_rate != trace.rate:
            raise VerificationFailure(
                f"greedy rate {trace.rate} differs from oracle rate {best_rate} at split {split}"
            )
        result["oracle"] = {"rate": str(best_rate), "allocation": split}

    def rows():  # read for CSV only
        decimals = {d: ratio_decimal(d, scale) for d in delta_texts}
        columns = trace.libraries, trace.segments, trace.delta_units, totals, trace.total_units
        for i, (library, segment, d, total, t) in enumerate(zip(*columns), start=1):
            yield [i, library, segment, delta_texts[d], decimals[d], total, ratio_decimal(t, scale)]

    header = ["step", *keys[:3], "delta_decimal", keys[3], "allocated_total_decimal"]
    return config, result, header, rows()


@_command("sweep")
@click.option("--samples", type=int, default=11, show_default=True, help="Grid sample count.")
@click.option("--kinds", default="auto", show_default=True)
def cmd_sweep(state: CliState, samples: int, kinds: str) -> tuple:
    """Sweep the first library's budget share from 0 to 1 (two libraries only)."""
    config = state.load()
    curves = _curves(config, kinds)
    result = lambda_sweep(config, curves, num_samples=samples)
    # every value is a pair in lowest terms, so it is texted with no gcd
    points = [reduced_texts(column) for column in zip(*result.points)]
    share, rate = reduced_texts(result.minimum())
    payload = {
        "points": Rows(None, points),
        "breakpoints": reduced_texts(result.breakpoints),
        "segments": Rows(SEGMENT_KEYS, [reduced_texts(c) for c in zip(*result.segments)]),
        "minimum": {"lambda": share, "rate": rate},
    }
    texts = zip(*points, result.points)
    rows = ([a, b, ratio_decimal(*s), ratio_decimal(*r)] for a, b, (s, r) in texts)
    return config, payload, ["lambda", "rate", "lambda_decimal", "rate_decimal"], rows


@_command("converse")
@click.option("--kinds", default="auto", show_default=True)
def cmd_converse(state: CliState, kinds: str) -> tuple:
    """Lower-bound the rate via the stacked library and report the gap."""
    config = state.load()
    curves = _curves(config, kinds)
    report = conjecture_gap(config, curves)
    if report.gap < 0:
        raise VerificationFailure(
            f"converse {report.converse} exceeds achievable {report.achievable}"
        )
    stack = report.stack
    payload = report.to_json()
    rows = list(payload.items())  # the CSV rows: the gap fields alone
    payload["stack"] = {
        "betas": [str(b) for b in stack.betas],
        "library_order": list(stack.permutation),
        "scale": str(stack.scale),
    }
    return config, payload, ["key", "value"], rows


@_command("simulate")
@click.option(
    "--alloc",
    type=click.Choice(["greedy", "proportional", "explicit"]),
    default="greedy",
    show_default=True,
)
@click.option("--explicit", default=None, help="Comma-separated per-library memories (fractions).")
@click.option("--kinds", default="auto", show_default=True, help="Curves for the greedy split and claimed_rate.")
@click.option("--base-size", type=int, default=None, help="Total bits per size unit (default: smallest usable).")
@click.option("--demand-cap", type=int, default=DEFAULT_DEMAND_CAP, show_default=True)
@click.option("--stack/--no-stack", default=False, help="Also serve every stacked-library demand.")
def cmd_simulate(
    state: CliState,
    alloc: str,
    explicit: str | None,
    kinds: str,
    base_size: int | None,
    demand_cap: int,
    stack: bool,
) -> tuple:
    """Run the scheme bit for bit over every demand and verify decoding."""
    config = state.load()
    if explicit is not None and alloc != "explicit":
        raise click.UsageError("--explicit needs --alloc explicit")
    claimed = None  # the split's rate on the --kinds curves
    if alloc == "greedy":
        allocation, claimed = greedy_split(config, _curves(config, kinds))
    elif alloc == "proportional":
        allocation = proportional_allocation(config)
    else:
        if explicit is None:
            raise click.UsageError("--alloc explicit needs --explicit")
        parts = tuple(_fraction(p, "--explicit") for p in explicit.split(","))
        allocation = Allocation(parts)
        if len(parts) != config.num_libraries:
            raise click.UsageError(
                f"--explicit lists {len(parts)} memories for {config.num_libraries} libraries"
            )
        if allocation.total != config.cache_size:
            raise click.UsageError(
                f"--explicit totals {allocation.total}, budget is {config.cache_size}"
            )
    if claimed is None:
        claimed = memory_sharing_rate(config, allocation, _curves(config, kinds))
    # the one count check, before any bits are laid out; N_max^K, N_l^|F| <= prod N_l^K
    check_demand_cap(config, demand_cap)
    plan = plan_split(config, allocation)
    if base_size is None:
        base_size = plan.base_unit
    store = random_file_store(config, base_size, state.seed)
    placement = place(store, plan)
    row_pass = RowPass(store, placement)
    report = verify_all(row_pass)
    if report.measured_rate != report.formula_rate:
        raise VerificationFailure(
            f"measured rate {report.measured_rate} != formula rate {report.formula_rate}"
        )
    payload = report.to_json()
    payload["claimed_rate"] = str(claimed)
    payload["decode_ok"] = True
    rows = [
        ["demands_checked", report.demands_checked],
        ["demand_vectors_run", report.demand_vectors_run],
        ["base_size", report.base_size],
        ["measured_rate", str(report.measured_rate)],
        ["measured_rate_decimal", format_decimal(report.measured_rate)],
        ["formula_rate", str(report.formula_rate)],
        ["max_total_bits", report.max_total_bits],
        ["claimed_rate", str(claimed)],
    ]
    if stack:
        payload["stack"] = stack_json = reduction_demo(row_pass).to_json()
        # one row per field; a list's entries joined by spaces
        rows += [
            ["stack_" + key, " ".join(map(str, value)) if type(value) is list else value]
            for key, value in stack_json.items()
        ]
    return config, payload, ["key", "value"], rows, {"base_size": base_size}


if __name__ == "__main__":
    main()
