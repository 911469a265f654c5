"""Property tests: the integer kernels give the Fraction references' answers.

`greedy_split` and `greedy_allocate` rank slopes g/h on the int
-(g * S // h) with S = (max h)**2, count memory as an integer over a common
denominator and find where the budget runs out by a binary search on rank;
`greedy_allocate` then sorts only the segments ranked up to that point,
on one int rank * L + library each;
`PiecewiseLinearTradeoff` keeps its shape as (numerator, denominator) pairs,
validates, locates, evaluates and prints on them; `lower_convex_envelope`
runs its orientation test and edges on integers; `brute_force_allocate`
bisects the slopes for the threshold that holds the optimal splits; `lambda_sweep`,
`split_rate` and `concatenated_cut_set_bound` work on int pairs over common
denominators, and `corner_structure_violations` walks the consumed slopes
only past the flattest. Each must match its plain-Fraction reference in
`util` exactly: same steps, same accept/reject with the same message, same
curve, same segment, rate and strings, same split and rate (the exhaustive
grid-and-corner search's, for the oracle), same sweep and bound. `greedy_split` must end on the
reference greedy's final split and rate.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cacheshare.allocation import (
    Allocation,
    _greedy_cut,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    greedy_rate,
    greedy_split,
    lambda_sweep,
    memory_sharing_rate,
    split_rate,
)
from cacheshare.cli import main
from cacheshare.converse import concatenate, concatenated_cut_set_bound, converse_bound
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
    fractions_built,
    curves_for,
    make_config,
    random_weights,
    ratios,
    reference_betas,
    reference_brute_force,
    reference_check_curve,
    reference_cut_set_bound,
    reference_corners_json,
    reference_envelope,
    reference_evaluate,
    reference_greedy,
    reference_lambda_sweep,
    reference_segment_of,
    reference_segments_json,
    reference_split_rate,
    reference_structure_violations,
    step_delta,
    step_total,
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
    reference = reference_greedy(config, curves)
    assert greedy_allocate(config, curves) == reference
    assert greedy_split(config, curves) == (reference.final, reference.rate)
    # the steps the cap counts before any is built are the steps bought
    assert _greedy_cut(config, curves)[-3] == len(reference.steps)


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
    denominators = {h for curve in curves for _, h in curve.materialize().slope_ratios}
    assert sorted(denominators)[-2:] == [6, 7]
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
    assert greedy_split(config, curves) == (trace.final, trace.rate)
    # (library, segment) by slope: 20/7, 17/6 twice, 2, 3/2, 5/4, 1, 1/2 twice, 1/3 twice
    order = [(5, 0), (2, 0), (4, 0), (3, 0), (1, 0), (5, 1), (3, 1), (1, 1), (3, 2)]
    order += [(2, 1), (4, 1)] if whole else []
    assert [(step.library, step.segment) for step in trace.steps] == order
    assert step_total(trace.steps[-1]) == budget


def test_greedy_matches_scan_at_three_thousand_users():
    rng = random.Random("greedy:L20:K3000")
    counts = [rng.randint(1, 20) for _ in range(20)]
    config = make_config(counts=counts, weights=random_weights(rng, 20), users=3000, cache=F(0))
    config = NetworkConfig(config.libraries, 3000, total_content(config) / 2)
    shapes = {n: build_scheme_tradeoff(n, 3000) for n in set(counts)}
    curves = [shapes[n] for n in counts]
    reference = reference_greedy(config, curves)
    assert greedy_allocate(config, curves) == reference
    assert greedy_split(config, curves) == (reference.final, reference.rate)
    # the steps the cap counts before any is built are the steps bought
    assert _greedy_cut(config, curves)[-3] == len(reference.steps)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize(
    "budget, split",
    [(F(0), (0, 0)), (F(1, 2), (F(1, 3), F(1, 6))), (F(2), (F(2, 3), F(4, 3)))],
    ids=["zero", "inside-tie", "full"],
)
def test_greedy_split_at_zero_full_and_tied_budgets(budget, split, shared):
    """Two libraries on equal curves tie at slope 2 on their first segments,
    which together hold memory 1/3 + 2/3. A budget of 1/2 runs out inside
    that tied rank: library 1 takes its whole segment first, library 2 the
    rest. The curves are one object or two equal copies."""
    first = two_segment_curve(2, F(2), F(1, 2))
    curves = [first, first if shared else two_segment_curve(2, F(2), F(1, 2))]
    config = make_config(counts=(2, 2), weights=(F(1, 3), F(2, 3)), users=2, cache=budget)
    reference = reference_greedy(config, curves)
    assert reference.final.per_library == split
    assert greedy_split(config, curves) == (reference.final, reference.rate)
    assert greedy_allocate(config, curves) == reference


def tied_curve(rng: random.Random, n: int) -> PiecewiseLinearTradeoff:
    """A hand-built convex curve on [0, n] with up to four slopes drawn from
    one small pool, so curves of different file counts tie on some slopes."""
    slopes = sorted(rng.sample((F(3), F(2), F(3, 2), F(1), F(1, 2), F(1, 3)), rng.randint(1, 4)))
    cuts = sorted(rng.sample(range(1, 4 * n), len(slopes) - 1))
    bp = [F(n), *(F(c, 4) for c in reversed(cuts)), F(0)]
    rates = [F(0)]  # from memory n back to 0, the flattest slope last
    for g, end, start in zip(slopes, bp, bp[1:]):
        rates.append(rates[-1] + g * (end - start))
    return lower_convex_envelope(zip(bp, rates), n, label=f"tied(N={n})")


@pytest.mark.parametrize("seed, libraries", [(0, 60), (1, 60), (2, 59), (3, 41), (4, 23), (5, 7)])
def test_int_key_greedy_matches_scan_on_many_libraries(seed, libraries):
    """Up to 60 libraries, ranked on one int rank * L + library each: scheme
    curves shared by several libraries as one object, equal copies of them,
    and hand-built curves of different file counts that tie on a slope. The
    steps, final split and rate are the scan's."""
    rng = random.Random(f"greedy:int-key:{seed}")
    k = rng.randint(2, 30)
    pool = rng.sample(range(1, 13), 4)
    shared = {n: build_scheme_tradeoff(n, k) for n in pool}
    hand = {n: tied_curve(rng, n) for n in pool}
    curves = []
    for _ in range(libraries):
        n = rng.choice(pool)
        curves.append(rng.choice((shared[n], hand[n], build_scheme_tradeoff(n, k))))
    counts = [curve.num_files for curve in curves]
    config = make_config(counts=counts, weights=random_weights(rng, libraries), users=k, cache=0)
    share = F(1) if seed == 0 else F(rng.randint(1, 15), 16)
    config = NetworkConfig(config.libraries, k, share * total_content(config))
    reference = reference_greedy(config, curves)
    trace = greedy_allocate(config, curves)
    # the int key must order a tie between curves of different file counts
    bought = [(curves[step.library - 1], step.segment) for step in trace.steps]
    assert any(
        a.slope(i) == b.slope(j) and a.num_files != b.num_files
        for (a, i), (b, j) in zip(bought, bought[1:])
    )
    assert trace.steps == reference.steps
    assert (trace.final, trace.rate) == (reference.final, reference.rate)


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


def faulty_curve(*faults):
    """The scheme curve N=3, K=6, theta = (0, 1, 3/2, 2, 5/2, 3),
    gamma = (5/3, 7/6, 7/10, 7/15, 1/3), zeta = (3, 5/2, 9/5, 4/3, 1), with
    each (check, end) fault: end 0 fails the check at the first pair of
    segments (or the first segment), end -1 at the last. A breakpoint or
    slope fault keeps the curve continuous where it can, so that no other
    check but the zero at N sees it."""
    view = fraction_curve(build_scheme_tradeoff(3, 6))
    bp, sl, ic = list(view.breakpoints), list(view.slopes), list(view.intercepts)
    for check, end in faults:
        if check == "increasing" and end == 0:
            bp[1], ic[0] = F(0), ic[1]
        elif check == "increasing":
            bp[-2] = bp[-1]
            ic[-1] = ic[-2] - (sl[-2] - sl[-1]) * bp[-2]
        elif check == "positive":
            sl[end] = -sl[end] if end else F(0)
        elif check == "decreasing" and end == 0:
            sl[0], ic[0] = sl[1], ic[1]
        elif check == "decreasing":
            sl[-1], ic[-1] = sl[-2], ic[-2]
        else:
            ic[end] += F(1, 7)
    return tuple(bp), tuple(sl), tuple(ic)


@pytest.mark.parametrize(
    "first, later",
    [
        ((a, at), (b, -1 - at))
        for i, a in enumerate(CHECKS[:4])
        for b in CHECKS[i + 1 : 4]
        for at in (0, -1)
    ],
    ids=lambda fault: f"{fault[0]}@{'first' if fault[1] == 0 else 'last'}",
)
def test_two_faults_keep_the_first_listed_checks_message(first, later):
    """A check listed earlier fails at one end of the curve and one listed
    later at the other, so the later check's fault can come first along the
    curve; the message is still the earlier check's, as in the reference."""
    expected = {}
    for faults in ((first,), (later,), (first, later)):
        bp, sl, ic = faulty_curve(*faults)
        expected[faults] = outcome(reference_check_curve, 3, bp, sl, ic)
        got = outcome(PiecewiseLinearTradeoff, 3, *map(ratios, (bp, sl, ic)))
        assert got == expected[faults]
    assert expected[(first,)].startswith(MESSAGES[first[0]])
    assert expected[(later,)].startswith(MESSAGES[later[0]])
    assert expected[(first, later)] == expected[(first,)]


def test_a_pair_with_a_negative_denominator_keeps_its_message():
    """Pairs are meant to have positive denominators, but the constructor does
    not reduce them. The slope -1/-4 reads as non-positive to the ordered
    checks, and on these pairs only that check fails: the pass must not let
    the curve through."""
    slopes, intercepts = ((-1, -4), (1, 1)), ((5, 4), (2, 1))
    got = outcome(PiecewiseLinearTradeoff, 2, ratios((0, 1, 2)), slopes, intercepts)
    assert got == "slopes must be positive"


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
    two-file library at K = 2 on the exact curve, the others on scheme. One in
    four networks gives every library one file count, weight and curve, so
    optimal splits tie along a whole face; its budget, as in every network,
    is often 0 or the whole content."""
    k = 2 if kind == "exact2x2" else rng.randint(1, 5)
    counts = [rng.choice((1, 2, 3)) for _ in range(L)]
    weights = random_weights(rng, L)
    if rng.random() < 0.25:
        counts, weights = [counts[0]] * L, [F(1, L)] * L
    libs = tuple(LibrarySpec(n, w) for n, w in zip(counts, weights))
    config = NetworkConfig(libs, k, F(0))
    config = NetworkConfig(libs, k, F(rng.randint(0, 12), 12) * total_content(config))
    if kind == "exact2x2":
        curves = [build_by_kind("exact2x2" if n == 2 else "scheme", n, k) for n in counts]
    else:
        curves = [build_by_kind(kind, n, k) for n in counts]
    if counts == [counts[0]] * L:
        curves = [curves[0]] * L
    return config, curves


@pytest.mark.parametrize("kind", ["auto", "scheme", "exact2x2"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_integer_oracle_matches_fraction_oracle(L, kind):
    # 90 networks per case, 1080 in all: the threshold split must be the
    # split the exhaustive grid-and-corner reference picks, and its rate
    rng = random.Random(f"oracle:{L}:{kind}")
    tied = empty = full = 0
    for _ in range(90):
        config, curves = _oracle_network(rng, L, kind)
        budget = config.cache_size
        tied += len(set(map(id, curves))) == 1 < L
        empty += budget == 0
        full += budget == total_content(config)
        # a step that divides the budget, often with a prime (7, 11, 13) that
        # no corner's denominator has, or one that need not divide it
        step = rng.choice((budget / rng.choice((2, 7, 11, 13)) if budget else F(1, 7), F(3, 7)))
        found = brute_force_allocate(config, curves)
        assert found == reference_brute_force(config, curves, step)
        assert found[0].total == budget
    assert (L == 1 or tied >= 10) and empty and full


def test_integer_oracle_skips_the_grid_when_the_step_does_not_divide_the_budget():
    # the reference has no grid split at this step, only its corner family
    config = make_config(counts=(2, 3), weights=(F(1, 3), F(2, 3)), users=3, cache=F(1))
    curves = [build_by_kind("scheme", n, 3) for n in (2, 3)]
    step = F(3, 10)
    assert (config.cache_size / step).denominator != 1
    assert brute_force_allocate(config, curves) == reference_brute_force(config, curves, step)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_integer_oracle_keeps_a_remainder_equal_to_the_free_content(L):
    # the whole content as budget: the only feasible split fills every
    # library, the last one to exactly its content
    weights = (F(1, 7), F(2, 7), F(4, 7))[:L]
    config = make_config(counts=(2, 3, 1)[:L], weights=weights, users=3, cache=F(0))
    config = NetworkConfig(config.libraries, 3, total_content(config))
    curves = [build_by_kind("auto", lib.num_files, 3) for lib in config.libraries]
    step = config.cache_size / F(5, 2)
    alloc, rate = brute_force_allocate(config, curves)
    assert (alloc, rate) == reference_brute_force(config, curves, step)
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
    alloc, rate = brute_force_allocate(config, curves)
    assert (alloc, rate) == reference_brute_force(config, curves, step)
    mirrored = tuple(reversed(alloc.per_library))
    assert alloc.per_library < mirrored  # the tie is real and went to the smaller split


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_integer_oracle_at_budget_zero(L):
    # every library at its zero corner
    config = make_config(counts=(3, 1, 2, 5)[:L], weights=(F(1, L),) * L, users=4, cache=F(0))
    curves = curves_for(config)
    alloc, rate = brute_force_allocate(config, curves)
    for step in (F(1, 10), F(2, 3)):
        assert (alloc, rate) == reference_brute_force(config, curves, step)
    assert alloc.per_library == (F(0),) * L


@pytest.mark.parametrize(
    "counts, weights",
    [((1, 3), (F(1, 10), F(9, 10))), ((1, 2, 3, 1), (F(1, 20), F(1, 20), F(3, 5), F(3, 10)))],
)
def test_integer_oracle_rates_grid_memories_past_a_librarys_content(counts, weights):
    # library one holds 1/10 or 1/20 of a unit; the reference's grid puts up
    # to the whole budget there, where its share of the rate is 0
    config = make_config(counts=counts, weights=weights, users=3, cache=F(1))
    curves = curves_for(config, "scheme")
    step = F(1, 20)
    assert config.cache_size > config.libraries[0].alpha * counts[0] + step
    assert brute_force_allocate(config, curves) == reference_brute_force(config, curves, step)


@pytest.mark.parametrize("step", [F(1, 4), F(1, 6)])
def test_integer_oracle_breaks_a_tie_between_a_grid_and_a_corner_split(step):
    # two equal libraries on the N=2, K=3 scheme curve, corners at memory 0,
    # 1/3, 2/3 and 1 each: at budget 1 every split from (1/3, 2/3) to
    # (2/3, 1/3) rates the same. The corner-aligned (1/3, 2/3) wins; the grid
    # split (1/2, 1/2) ties it at both steps, and step 1/6 has it on the grid
    config = make_config(counts=(2, 2), weights=(F(1, 2),) * 2, users=3, cache=F(1))
    curves = [build_scheme_tradeoff(2, 3)] * 2
    alloc, rate = brute_force_allocate(config, curves)
    assert (alloc, rate) == reference_brute_force(config, curves, step)
    assert alloc.per_library == (F(1, 3), F(2, 3))
    assert memory_sharing_rate(config, Allocation((F(1, 2), F(1, 2))), curves) == rate


def _counted_locates(monkeypatch) -> list[int]:
    """Count `segment_of` calls into the returned one-entry list."""
    locate, calls = PiecewiseLinearTradeoff.segment_of, [0]

    def counted(curve, p, q):
        calls[0] += 1
        return locate(curve, p, q)

    monkeypatch.setattr(PiecewiseLinearTradeoff, "segment_of", counted)
    return calls


def test_oracle_locates_each_distinct_memory_once_per_library(monkeypatch):
    # four libraries, where a 1/100 grid has 176851 splits: the oracle bisects
    # slopes, so it locates only its answer's memory, once per library
    libs = tuple(LibrarySpec(n, F(w, 10)) for n, w in zip((3, 5, 7, 2), (1, 2, 3, 4)))
    config = NetworkConfig(libs, 6, F(1))
    curves = curves_for(config)
    calls = _counted_locates(monkeypatch)
    tracemalloc.start()
    try:
        alloc, rate = brute_force_allocate(config, curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [len(libs)]
    assert peak < 2**16
    monkeypatch.undo()
    assert rate == greedy_allocate(config, curves).rate
    assert corner_structure_violations(config, curves, alloc) == []


@pytest.mark.parametrize("cache", [F(0), F(5, 2), F(4)])
def test_oracle_rates_one_librarys_grid_split_alone(cache, monkeypatch):
    # one library takes the whole budget, the reference's one grid split at
    # any step that divides it, and its memory is located once
    config = make_config(counts=(4,), weights=(F(1),), users=3, cache=cache)
    curves = curves_for(config)
    calls = _counted_locates(monkeypatch)
    found = brute_force_allocate(config, curves)
    assert calls == [1]
    monkeypatch.undo()
    assert found == reference_brute_force(config, curves, cache or F(1))
    assert found[0].per_library == (cache,)


def test_integer_oracle_at_three_thousand_users():
    config = make_config(counts=(5, 20), weights=(F(2, 7), F(5, 7)), users=3000, cache=F(3, 2))
    curves = [build_by_kind("auto", n, 3000) for n in (5, 20)]
    step = F(1, 40)
    assert brute_force_allocate(config, curves) == reference_brute_force(config, curves, step)


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
        bp = fractions(curve.materialize().breakpoint_ratios)
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
        (str(step_delta(s)), str(step_total(s))) for s in steps
    ]
    rows = list(csv.reader(io.StringIO(as_csv.stdout)))[1:]
    assert rows == [
        [
            str(i + 1),
            str(s.library),
            str(s.segment),
            str(step_delta(s)),
            format_decimal(step_delta(s)),
            str(step_total(s)),
            format_decimal(step_total(s)),
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
    bp = fractions(curves[last.library - 1].materialize().breakpoint_ratios)
    width = lib.alpha * (bp[last.segment + 1] - bp[last.segment])
    assert step_total(last) == share * content
    # the full budget ends on the last corner; a third of it stops mid-segment
    assert (step_delta(last) == width) == (share == 1)


LARGE_PRIMES = (7919, 7927, 7933, 7937, 7949, 7951, 7963)


def _alphas(rng: random.Random, count: int, coprime: bool) -> list[Fraction]:
    """Size weights summing to 1: small random ones, or ones over distinct large
    primes, the last over their product."""
    if not coprime:
        return random_weights(rng, count)
    primes = rng.sample(LARGE_PRIMES, count - 1)
    alphas = [F(rng.randint(p // (2 * count), p // count), p) for p in primes]
    return alphas + [1 - sum(alphas, F(0))]


def _edge_network(rng: random.Random, count: int) -> tuple[NetworkConfig, list]:
    """A seeded network at the edges the integer paths must get right: one-file
    libraries, K = 1 or K above N_max, alphas over large coprime denominators,
    and a budget of 0, the whole content or a share over a large prime."""
    counts = [rng.choice((1, 1, 2, 3, 5)) for _ in range(count)]
    k = rng.choice((1, 2, 3, max(counts) + rng.randint(1, 4)))
    libraries = tuple(
        LibrarySpec(n, a) for n, a in zip(counts, _alphas(rng, count, rng.random() < 0.5))
    )
    content = total_content(NetworkConfig(libraries, k, F(0)))
    share = rng.choice((F(0), F(1), F(rng.randint(1, 7918), 7919), F(rng.randint(1, 7), 8)))
    config = NetworkConfig(libraries, k, share * content)
    return config, curves_for(config, rng.choice(("auto", "scheme")))


def test_edge_networks_reach_every_edge():
    rng = random.Random(2301)
    seen = set()
    for _ in range(400):
        config, _ = _edge_network(rng, rng.randint(1, 3))
        seen.add(("budget 0", config.cache_size == 0))
        seen.add(("whole content", config.cache_size == total_content(config)))
        seen.add(("K = 1", config.num_users == 1))
        seen.add(("K > N_max", config.num_users > max(config.file_counts)))
        seen.add(("one-file library", 1 in config.file_counts))
        seen.add(("large denominator", max(a.denominator for a in config.alphas) > 7000))
    assert all((edge, True) in seen for edge, _ in seen)


@pytest.mark.parametrize("seed", range(4))
def test_integer_sweep_matches_fraction_sweep(seed):
    rng = random.Random(f"sweep:{seed}")
    for _ in range(40):
        config, curves = _edge_network(rng, 2)
        samples = rng.choice((2, 3, 11, 101))
        result = lambda_sweep(config, curves, num_samples=samples)
        expected = reference_lambda_sweep(config, curves, samples)
        assert tuple(map(fractions, result.points)) == expected.points
        assert fractions(result.breakpoints) == expected.breakpoints
        assert tuple(map(fractions, result.segments)) == expected.segments
        # every pair is in lowest terms with a positive denominator
        pairs = [*result.breakpoints, *(x for point in result.points for x in point)]
        pairs += [x for seg in result.segments for x in seg]
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in pairs)
        share, rate = fractions(result.minimum())
        assert (rate, share) == min((r, s) for s, r in expected.points)


@pytest.mark.parametrize("seed", range(4))
def test_integer_cut_set_bound_matches_fraction_bound(seed):
    rng = random.Random(f"cutset:{seed}")
    for _ in range(60):
        n = rng.randint(1, 8)
        betas = [F(rng.randint(1, 3 * p), p) for p in rng.choices(LARGE_PRIMES + (1, 2, 3), k=n)]
        if rng.random() < 0.5:
            betas.sort(reverse=True)  # the stack's order
        k = rng.choice((1, rng.randint(1, n), n + rng.randint(1, 5)))
        memory = rng.choice((F(0), sum(betas, F(0)), F(rng.randint(0, 40 * 7907), 7907)))
        got = concatenated_cut_set_bound(tuple(betas), k, memory)
        assert got == reference_cut_set_bound(betas, k, memory), (betas, k, memory)
    for _ in range(40):
        config, curves = _edge_network(rng, rng.randint(1, 3))
        stack = concatenate(config)
        assert stack.betas == reference_betas(config)
        c = stack.scale
        expected = reference_cut_set_bound(stack.betas, config.num_users, c * config.cache_size) / c
        assert converse_bound(config, stack=stack) == expected


@pytest.mark.parametrize("seed", range(4))
def test_integer_split_rate_matches_fraction_rate(seed):
    rng = random.Random(f"rate:{seed}")
    for _ in range(60):
        config, curves = _edge_network(rng, rng.randint(1, 4))
        # any split, memories up to half again past each library's content
        split = Allocation(tuple(
            lib.alpha * lib.num_files * F(rng.randint(0, 3 * q), 2 * q)
            for lib, q in zip(config.libraries, rng.choices((1, 4, 7919), k=config.num_libraries))
        ))
        assert split_rate(config, split, curves) == reference_split_rate(config, curves, split)
        final, rate = greedy_split(config, curves)
        assert rate == reference_split_rate(config, curves, final)
        assert memory_sharing_rate(config, final, curves) == rate
        assert greedy_rate(config, curves) == rate


@pytest.mark.parametrize("alpha", [F(0), F(-1, 2)])
def test_split_rate_refuses_a_non_positive_alpha(alpha):
    libraries = (LibrarySpec(2, F(1)), LibrarySpec(3, alpha))
    config = NetworkConfig(libraries, 2, F(0))
    curves = curves_for(config)
    with pytest.raises(ValueError, match=f"^library 2: alpha = {alpha} <= 0$"):
        split_rate(config, Allocation((F(0), F(0))), curves)


def test_sweep_builds_no_more_fractions_for_more_samples():
    config = NetworkConfig((LibrarySpec(7, F(2, 7)), LibrarySpec(4, F(5, 7))), 9, F(3))
    curves = curves_for(config)
    built = [
        fractions_built(lambda: lambda_sweep(config, curves, num_samples=samples))
        for samples in (11, 1001)
    ]
    assert built[0] == built[1]


def test_greedy_rate_builds_no_more_fractions_for_more_libraries():
    # the final split is rated from its int units: no Fraction per library
    built = []
    for count in (2, 40):
        config = make_config(
            counts=[1 + i % 7 for i in range(count)],
            weights=random_weights(random.Random(count), count),
            users=12,
            cache="1",
        )
        curves = curves_for(config)
        built.append(fractions_built(lambda: greedy_rate(config, curves)))
    assert built[0] == built[1]


def test_cut_set_bound_builds_no_more_fractions_for_more_users():
    stack = concatenate(
        NetworkConfig((LibrarySpec(9, F(3, 8)), LibrarySpec(20, F(5, 8))), 1, F(0))
    )
    built = [
        fractions_built(lambda: concatenated_cut_set_bound(stack.betas, k, F(7, 3)))
        for k in (1, 20, 400)
    ]
    assert built[0] == built[1] == built[2]


def test_structure_check_matches_fraction_check_with_zero_one_and_several_violations():
    """Greedy splits hold the structure; moving libraries a corner off them
    breaks it once or many times. The check compares each gain with the
    flattest consumed slope and walks the pairs only past it, which must
    give the reference's messages in its order."""
    rng = random.Random(2302)
    found = set()
    for _ in range(120):
        count, k = rng.choice((2, 3, 8, 40)), rng.randint(2, 12)
        libraries = tuple(
            LibrarySpec(rng.choice((1, 2, 3, 6)), a) for a in random_weights(rng, count)
        )
        content = total_content(NetworkConfig(libraries, k, F(0)))
        config = NetworkConfig(libraries, k, F(rng.randint(0, 16), 16) * content)
        curves = curves_for(config)
        final, _ = greedy_split(config, curves)
        split = list(final.per_library)
        moved = min(config.num_libraries, rng.choice((0, 1, 1, 2, 5)))
        for lib in rng.sample(range(config.num_libraries), moved):
            alpha, bp = config.alphas[lib], fractions(curves[lib].materialize().breakpoint_ratios)
            split[lib] = alpha * rng.choice(bp)
        allocation = Allocation(tuple(split))
        expected = reference_structure_violations(config, curves, allocation)
        assert corner_structure_violations(config, curves, allocation) == expected
        found.add(min(len(expected), 2))
    assert found == {0, 1, 2}
