"""Property tests: the integer kernels give the Fraction references' answers.

`greedy_allocate` compares slopes cross-multiplied and counts memory as an
integer over a common denominator; `PiecewiseLinearTradeoff` validates on
(numerator, denominator) pairs; `lower_convex_envelope` runs its orientation
test and edges on integers. Each must match its plain-Fraction reference in
`util` exactly: same steps, same accept/reject with the same message, same
curve.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cacheshare.allocation import greedy_allocate
from cacheshare.model import LibrarySpec, NetworkConfig, total_content
from cacheshare.tradeoff import (
    PiecewiseLinearTradeoff,
    build_by_kind,
    build_scheme_tradeoff,
    lower_convex_envelope,
)
from util import reference_check_curve, reference_envelope, reference_greedy

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
    bp, sl, ic = list(curve.breakpoints), list(curve.slopes), list(curve.intercepts)
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
    got = outcome(PiecewiseLinearTradeoff, n, bp, sl, ic)
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
    assert outcome(PiecewiseLinearTradeoff, 2, bp, sl, ic) == expected


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
