"""Property tests: the integer kernels give the Fraction references' answers.

`greedy_allocate` sorts slopes g/h on the int rank -(g * S // h) with
S = (max h)**2 and counts memory as an integer over a common denominator;
`PiecewiseLinearTradeoff` keeps its shape as (numerator, denominator) pairs,
validates, locates, evaluates and prints on them; `lower_convex_envelope`
runs its orientation test and edges on integers; `brute_force_allocate`
counts candidate memories in 1/D units and rates each candidate as a sum of
ints. Each must match its plain-Fraction reference in `util` exactly: same
steps, same accept/reject with the same message, same curve, same segment,
rate and strings, same split and rate.
"""

from __future__ import annotations

import csv
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cacheshare.allocation import (
    Allocation,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
)
from cacheshare.cli import main
from cacheshare.model import (
    LibrarySpec,
    NetworkConfig,
    config_to_json,
    format_decimal,
    total_content,
)
from cacheshare.tradeoff import (
    PiecewiseLinearTradeoff,
    build_by_kind,
    build_scheme_tradeoff,
    lower_convex_envelope,
    tradeoff_rows,
)
from util import (
    FractionCurve,
    fraction_curve,
    fractions,
    make_config,
    random_weights,
    reference_check_curve,
    reference_corners_json,
    reference_envelope,
    reference_evaluate,
    reference_greedy,
    reference_segment_of,
    reference_segments_json,
    reference_structure_violations,
    reference_tabulated_oracle,
    ratios,
)

F = Fraction
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def networks(draw):
    """A network and its curves. Libraries draw their file counts from a pool
    of at most three, so several share a curve and tie on every slope (as one
    object or as equal copies); at K = 2, libraries of two files may run the
    exact 2x2 curve, whose slope 1/2 ties with the scheme curve's."""
    k = draw(
        st.just(2) | st.integers(1, 12) | st.integers(13, 200) | st.sampled_from([1000, 3000])
    )
    num_libraries = draw(st.integers(1, 6 if k <= 200 else 3))
    pool = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    counts = [draw(st.sampled_from(pool)) for _ in range(num_libraries)]
    raw = draw(st.lists(st.integers(1, 6), min_size=num_libraries, max_size=num_libraries))
    libraries = tuple(LibrarySpec(n, F(w, sum(raw))) for n, w in zip(counts, raw))
    kinds = [
        draw(st.sampled_from(["scheme", "exact2x2"])) if (n, k) == (2, 2) else "scheme"
        for n in counts
    ]
    if draw(st.booleans()):
        shared = {s: build_by_kind(*s, k) for s in set(zip(kinds, counts))}
        curves = [shared[s] for s in zip(kinds, counts)]
    else:
        curves = [build_by_kind(kind, n, k) for kind, n in zip(kinds, counts)]
    grain = draw(st.sampled_from([1, 2, 3, 7, 16, 97]))
    share = F(draw(st.integers(0, grain)), grain)
    config = NetworkConfig(libraries, k, F(0))
    config = NetworkConfig(libraries, k, share * total_content(config))
    return config, curves


@PROPERTY
@given(networks())
def test_integer_greedy_matches_scan_step_for_step(network):
    config, curves = network
    assert greedy_allocate(config, curves) == reference_greedy(config, curves)


def two_segment_curve(n: int, first: Fraction, second: Fraction) -> PiecewiseLinearTradeoff:
    """The convex curve on corners 0, 1, n with slopes `first` then `second`."""
    return PiecewiseLinearTradeoff(
        n,
        ratios((0, 1, n)),
        ratios((first, second)),
        ratios((second * n + first - second, second * n)),
    )


@pytest.mark.parametrize("whole", [True, False])
def test_greedy_orders_slopes_one_over_h_h_prime_apart(whole):
    """20/7 and 17/6 are Farey neighbours at the network's two largest slope
    denominators: 20 * 6 - 17 * 7 = 1, so they differ by exactly 1/(7 * 6),
    just above 1/S = 1/49. At scale 49 // 2 both floor to 68, and the tie would
    hand the shallower 17/6 of library 2 the first step. Libraries 2 and 4 run
    equal but distinct curves, and the exact 2x2 curve of library 3 ties with
    library 1's scheme curve at slope 1/2."""
    shallow, twin = (two_segment_curve(2, F(17, 6), F(1, 3)) for _ in range(2))
    steep = two_segment_curve(3, F(20, 7), F(5, 4))
    scheme, exact = build_scheme_tradeoff(2, 2), build_by_kind("exact2x2", 2, 2)
    curves = [scheme, shallow, exact, twin, steep]
    assert twin == shallow and twin is not shallow
    assert sorted({h for curve in curves for _, h in curve.slope_ratios})[-2:] == [6, 7]
    weights = (F(1, 10), F(2, 10), F(3, 10), F(2, 10), F(2, 10))
    config = make_config(counts=(2, 2, 2, 2, 3), weights=weights, users=2, cache=F(0))
    content = total_content(config)
    # without the whole content, stop halfway along the exact curve's last
    # segment and leave the 1/3 segments unbought
    alphas = config.alphas
    budget = content if whole else content - alphas[2] / 2 - alphas[1] - alphas[3]
    config = NetworkConfig(config.libraries, 2, budget)
    trace = greedy_allocate(config, curves)
    assert trace == reference_greedy(config, curves)
    # (library, segment) by slope: 20/7, 17/6 twice, 2, 3/2, 5/4, 1, 1/2 twice, 1/3 twice
    order = [(5, 0), (2, 0), (4, 0), (3, 0), (1, 0), (5, 1), (3, 1), (1, 1), (3, 2)]
    order += [(2, 1), (4, 1)] if whole else []
    assert [(step.library, step.segment) for step in trace.steps] == order
    assert trace.steps[-1].allocated_total == budget


def test_greedy_matches_scan_at_three_thousand_users():
    rng = random.Random("greedy:L20:K3000")
    counts = [rng.randint(1, 20) for _ in range(20)]
    config = make_config(counts=counts, weights=random_weights(rng, 20), users=3000, cache=F(0))
    config = NetworkConfig(config.libraries, 3000, total_content(config) / 2)
    shapes = {n: build_scheme_tradeoff(n, 3000) for n in set(counts)}
    curves = [shapes[n] for n in counts]
    assert greedy_allocate(config, curves) == reference_greedy(config, curves)


CHECKS = ("increasing", "positive", "decreasing", "continuity", "zero")
MESSAGES = {
    "increasing": "breakpoints must be strictly increasing",
    "positive": "slopes must be positive",
    "decreasing": "slopes must be strictly decreasing",
    "continuity": "discontinuity at breakpoint",
    "zero": "curve must hit zero",
}


@st.composite
def perturbed_curves(draw):
    """(num_files, breakpoints, slopes, intercepts, check): a valid curve, or
    one changed so that `check` is the first check it fails; "any" nudges one
    entry, whichever check that trips."""
    if draw(st.booleans()):
        curve = build_scheme_tradeoff(draw(st.integers(1, 8)), draw(st.integers(1, 40)))
    else:
        curve = build_by_kind("exact2x2", 2, 2)
    view = fraction_curve(curve)
    bp, sl, ic = list(view.breakpoints), list(view.slopes), list(view.intercepts)
    r = len(sl)
    check = draw(st.sampled_from(("valid", "any") + CHECKS))
    nudge = F(draw(st.integers(1, 20)), draw(st.integers(1, 12)))
    if check in ("increasing", "decreasing", "continuity"):
        assume(r >= 2)
    if check == "increasing":
        i = draw(st.integers(1, r - 1))
        bp[i] = bp[i + 1] if draw(st.booleans()) else bp[i + 1] + nudge
    elif check == "positive":
        sl[draw(st.integers(0, r - 1))] = -nudge if draw(st.booleans()) else F(0)
    elif check == "decreasing":
        i = draw(st.integers(0, r - 2))
        sl[i + 1] = sl[i] + (nudge if draw(st.booleans()) else 0)
    elif check == "continuity":
        ic[draw(st.integers(0, r - 1))] += nudge if draw(st.booleans()) else -nudge
    elif check == "zero":
        # lower the last slope by d and its intercept by d * theta_{r-1}: still
        # continuous, positive and convex, but no longer zero at N
        d = sl[-1] / (nudge.numerator + 1)
        sl[-1] -= d
        ic[-1] -= d * bp[-2]
    elif check == "any":
        entries = draw(st.sampled_from((bp, sl, ic)))
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] += nudge if draw(st.booleans()) else -nudge
    return curve.num_files, bp, sl, ic, check


def outcome(check_fn, *args) -> str | None:
    try:
        check_fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(perturbed_curves())
def test_integer_validator_matches_fraction_validator(case):
    n, *parts, check = case
    bp, sl, ic = map(tuple, parts)
    expected = outcome(reference_check_curve, n, bp, sl, ic)
    got = outcome(PiecewiseLinearTradeoff, n, *map(ratios, (bp, sl, ic)))
    assert got == expected
    if check == "valid":
        assert expected is None
    elif check in MESSAGES:
        assert expected is not None and expected.startswith(MESSAGES[check])


@pytest.mark.parametrize("check", CHECKS)
def test_each_check_is_reached_with_the_same_message(check):
    # theta = (0, 1/2, 1, 2), gamma = (2, 1, 1/2), zeta = (2, 3/2, 1): the exact 2x2 curve
    bp, sl, ic = [F(0), F(1, 2), F(1), F(2)], [F(2), F(1), F(1, 2)], [F(2), F(3, 2), F(1)]
    if check == "increasing":
        bp[1] = F(1)
    elif check == "positive":
        sl[2] = F(-1, 2)
    elif check == "decreasing":
        sl[2] = F(1)
    elif check == "continuity":
        ic[1] = F(7, 5)
    else:
        sl[2], ic[2] = F(1, 4), F(3, 4)
    bp, sl, ic = tuple(bp), tuple(sl), tuple(ic)
    expected = outcome(reference_check_curve, 2, bp, sl, ic)
    assert expected.startswith(MESSAGES[check])
    assert outcome(PiecewiseLinearTradeoff, 2, *map(ratios, (bp, sl, ic))) == expected


@st.composite
def point_sets(draw):
    """Anchored (memory, rate) points with distinct memories, some of them on
    a shared line so that collinear merging is exercised."""
    n = draw(st.integers(1, 6))
    grain = draw(st.integers(1, 12))
    inner = st.sets(st.integers(1, n * grain - 1), max_size=12) if n * grain > 1 else st.just(set())
    memories = draw(inner)
    pts = [(F(0), F(draw(st.integers(0, 40)), draw(st.integers(1, 9)))), (F(n), F(0))]
    for j in sorted(memories):
        m = F(j, grain)
        if draw(st.booleans()):
            rate = pts[0][1] * (1 - m / n)  # on the chord between the anchors
        else:
            rate = F(draw(st.integers(0, 40)), draw(st.integers(1, 9)))
        pts.append((m, rate))
    return n, draw(st.permutations(pts))


@PROPERTY
@given(point_sets())
def test_integer_hull_matches_fraction_hull(case):
    n, pts = case
    assert outcome(lower_convex_envelope, pts, n) == outcome(reference_envelope, pts, n)
    try:
        expected = reference_envelope(pts, n)
    except ValueError:
        return
    assert lower_convex_envelope(pts, n) == expected


@pytest.mark.parametrize(
    "pts, n",
    [
        ([(F(0), F(1)), (F(1, 2), F(1)), (F(1, 2), F(0)), (F(1), F(0))], 1),
        ([(F(1, 3), F(1)), (F(1), F(0))], 1),
        ([(F(0), F(1)), (F(1), F(1, 2))], 1),
        ([(F(0), F(1)), (F(1, 2), F(-1, 3)), (F(1), F(0))], 1),
        ([(F(0), F(1))], 1),
    ],
)
def test_integer_hull_rejects_like_fraction_hull(pts, n):
    expected = outcome(reference_envelope, pts, n)
    assert expected is not None
    assert outcome(lower_convex_envelope, pts, n) == expected


def _oracle_network(rng: random.Random, L: int, kind: str):
    """A seeded network of L libraries and its curves. `exact2x2` runs every
    two-file library at K = 2 on the exact curve, the others on scheme."""
    k = 2 if kind == "exact2x2" else rng.randint(1, 5)
    counts = [rng.choice((1, 2, 3)) for _ in range(L)]
    libs = tuple(LibrarySpec(n, w) for n, w in zip(counts, random_weights(rng, L)))
    config = NetworkConfig(libs, k, F(0))
    config = NetworkConfig(libs, k, F(rng.randint(0, 12), 12) * total_content(config))
    if kind == "exact2x2":
        curves = [build_by_kind("exact2x2" if n == 2 else "scheme", n, k) for n in counts]
    else:
        curves = [build_by_kind(kind, n, k) for n in counts]
    return config, curves


@pytest.mark.parametrize("kind", ["auto", "scheme", "exact2x2"])
@pytest.mark.parametrize("L", [2, 3])
def test_integer_oracle_matches_fraction_oracle(L, kind):
    rng = random.Random(f"oracle:{L}:{kind}")
    for _ in range(30):
        config, curves = _oracle_network(rng, L, kind)
        budget = config.cache_size
        # a step that divides the budget, often with a prime (7, 11, 13) that
        # no corner's denominator has, and steps that need not divide it
        step = budget / rng.choice((2, 7, 11, 13)) if budget else F(1, 7)
        for grid_step in (step, F(1, 10), F(3, 7)):
            expected = reference_tabulated_oracle(config, curves, grid_step)
            assert brute_force_allocate(config, curves, grid_step) == expected


def test_integer_oracle_skips_the_grid_when_the_step_does_not_divide_the_budget():
    config = make_config(counts=(2, 3), weights=(F(1, 3), F(2, 3)), users=3, cache=F(1))
    curves = [build_by_kind("scheme", n, 3) for n in (2, 3)]
    step = F(3, 10)
    assert (config.cache_size / step).denominator != 1
    assert brute_force_allocate(config, curves, step) == reference_tabulated_oracle(
        config, curves, step
    )


@pytest.mark.parametrize("L", [1, 2, 3])
def test_integer_oracle_keeps_a_remainder_equal_to_the_free_content(L):
    # the whole content as budget, and a step that skips the grid: the only
    # feasible split fills every library, the free one to exactly its content
    weights = (F(1, 7), F(2, 7), F(4, 7))[:L]
    config = make_config(counts=(2, 3, 1)[:L], weights=weights, users=3, cache=F(0))
    config = NetworkConfig(config.libraries, 3, total_content(config))
    curves = [build_by_kind("auto", lib.num_files, 3) for lib in config.libraries]
    step = config.cache_size / F(5, 2)
    alloc, rate = brute_force_allocate(config, curves, step)
    assert (alloc, rate) == reference_tabulated_oracle(config, curves, step)
    assert alloc.per_library == tuple(lib.alpha * lib.num_files for lib in config.libraries)
    assert rate == 0


@pytest.mark.parametrize(
    "counts, cache, step",
    [((2, 2), F(1), F(1, 20)), ((2, 2, 2), F(3, 2), F(1, 20)), ((3, 3), F(3, 2), F(1, 6))],
)
def test_integer_oracle_breaks_ties_to_the_smallest_split(counts, cache, step):
    # equal libraries on one curve: many splits rate the same
    L = len(counts)
    config = make_config(counts=counts, weights=(F(1, L),) * L, users=3, cache=cache)
    curves = [build_by_kind("auto", counts[0], 3)] * L
    alloc, rate = brute_force_allocate(config, curves, step)
    assert (alloc, rate) == reference_tabulated_oracle(config, curves, step)
    mirrored = tuple(reversed(alloc.per_library))
    assert alloc.per_library < mirrored  # the tie is real and went to the smaller split


def test_integer_oracle_at_three_thousand_users():
    config = make_config(counts=(5, 20), weights=(F(2, 7), F(5, 7)), users=3000, cache=F(3, 2))
    curves = [build_by_kind("auto", n, 3000) for n in (5, 20)]
    step = F(1, 40)
    assert brute_force_allocate(config, curves, step) == reference_tabulated_oracle(
        config, curves, step
    )


def probe_memories(curve: FractionCurve) -> list[Fraction]:
    """0, every breakpoint, every midpoint, N and beyond N."""
    bp, n = curve.breakpoints, curve.num_files
    midpoints = [(a + b) / 2 for a, b in zip(bp, bp[1:])]
    return [F(0), *bp, *midpoints, F(n), n + F(1, 3), F(n + 1), F(2 * n)]


def assert_pair_kernels_match_fractions(curve: PiecewiseLinearTradeoff) -> None:
    view = fraction_curve(curve)
    for m in probe_memories(view):
        assert curve.segment_of(*m.as_integer_ratio()) == reference_segment_of(view, m)
        assert curve.evaluate(m) == reference_evaluate(view, m)
    below = F(-1, 3)
    assert outcome(curve.segment_of, -1, 3) == outcome(reference_segment_of, view, below)
    assert outcome(curve.evaluate, below) == outcome(reference_evaluate, view, below)
    assert tradeoff_rows(curve) == (reference_corners_json(view), reference_segments_json(view))


@pytest.mark.parametrize(
    "shape", [(50, 3000), (30, 3000), (17, 1234), (3000, 50), (1, 1), "exact2x2"]
)
def test_pair_kernels_match_fraction_bisect(shape):
    if shape == "exact2x2":
        curve = build_by_kind("exact2x2", 2, 2)
    else:
        curve = build_scheme_tradeoff(*shape)
    assert_pair_kernels_match_fractions(curve)


@PROPERTY
@given(point_sets())
def test_pair_kernels_match_fraction_bisect_on_hulls(case):
    n, pts = case
    assume(outcome(lower_convex_envelope, pts, n) is None)
    assert_pair_kernels_match_fractions(lower_convex_envelope(pts, n))


@PROPERTY
@given(networks(), st.data())
def test_pair_structure_check_matches_fraction_check(network, data):
    """On any split of corners and points inside segments, the check on slope
    pairs reports what the Fraction check reports."""
    config, curves = network
    split = []
    for lib, curve in zip(config.libraries, curves):
        bp = fractions(curve.breakpoint_ratios)
        i = data.draw(st.integers(0, len(bp) - 1))
        if i < len(bp) - 1 and data.draw(st.booleans()):
            split.append(lib.alpha * (bp[i] + bp[i + 1]) / 2)
        else:
            split.append(lib.alpha * bp[i])
    allocation = Allocation(tuple(split))
    expected = reference_structure_violations(config, curves, allocation)
    assert corner_structure_violations(config, curves, allocation) == expected


def assert_printed_steps(config: NetworkConfig, curves) -> tuple:
    """`allocate` prints each step's delta and running total, in JSON and in
    CSV, as str() and `format_decimal` of the reference greedy's Fractions.
    Returns the reference steps."""
    steps = reference_greedy(config, curves).steps
    kinds = ",".join("exact2x2" if curve.exact else "scheme" for curve in curves)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        path.write_text(json.dumps(config_to_json(config)), encoding="utf-8")
        args = ["--config", str(path)]
        as_json = runner.invoke(main, [*args, "allocate", "--kinds", kinds])
        as_csv = runner.invoke(main, [*args, "--format", "csv", "allocate", "--kinds", kinds])
    assert (as_json.exit_code, as_csv.exit_code) == (0, 0)
    printed = json.loads(as_json.stdout)["result"]["steps"]
    assert [(s["delta"], s["allocated_total"]) for s in printed] == [
        (str(s.delta), str(s.allocated_total)) for s in steps
    ]
    rows = list(csv.reader(io.StringIO(as_csv.stdout)))[1:]
    assert rows == [
        [
            str(i + 1),
            str(s.library),
            str(s.segment),
            str(s.delta),
            format_decimal(s.delta),
            str(s.allocated_total),
            format_decimal(s.allocated_total),
        ]
        for i, s in enumerate(steps)
    ]
    return steps


@PROPERTY
@given(networks())
def test_printed_step_strings_are_the_fraction_strings(network):
    assert_printed_steps(*network)


@pytest.mark.parametrize("share", [F(0), F(1), F(1, 3)])
def test_printed_step_strings_at_zero_full_and_partial_budgets(share):
    libraries = (LibrarySpec(2, F(2, 7)), LibrarySpec(3, F(5, 7)))
    content = total_content(NetworkConfig(libraries, 5, F(0)))
    config = NetworkConfig(libraries, 5, share * content)
    curves = [build_scheme_tradeoff(n, 5) for n in (2, 3)]
    steps = assert_printed_steps(config, curves)
    if share == 0:
        assert steps == ()
        return
    last = steps[-1]
    lib = config.libraries[last.library - 1]
    bp = fractions(curves[last.library - 1].breakpoint_ratios)
    width = lib.alpha * (bp[last.segment + 1] - bp[last.segment])
    assert last.allocated_total == share * content
    # the full budget ends on the last corner; a third of it stops mid-segment
    assert (last.delta == width) == (share == 1)
