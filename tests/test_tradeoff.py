import dataclasses
import math
import random
from fractions import Fraction

import pytest

import cacheshare.cli as cli
from cacheshare.converse import concatenated_cut_set_bound
from cacheshare.model import LibrarySpec, NetworkConfig
from cacheshare.tradeoff import (
    PiecewiseLinearTradeoff,
    _first_corner,
    build_by_kind,
    build_exact_two_by_two,
    build_scheme_tradeoff,
    build_scheme_tradeoffs,
    lower_convex_envelope,
    tradeoff_rows,
)
from util import (
    fractions,
    ratios,
    reference_first_corner,
    reference_scheme_tradeoff,
    scheme_corner_points,
)

F = Fraction


def test_exact_two_by_two_corners():
    curve = build_exact_two_by_two()
    corners, _ = tradeoff_rows(curve)
    assert corners == [["0", "1/2", "1", "2"], ["2", "1", "1/2", "0"]]
    assert curve.exact
    assert curve.label == "exact2x2"
    assert fractions(curve.slope_ratios) == (F(2), F(1), F(1, 2))


def test_exact_two_by_two_evaluations():
    curve = build_exact_two_by_two()
    assert curve.evaluate(F(0)) == 2
    assert curve.evaluate(F(1, 4)) == F(3, 2)
    assert curve.evaluate(F(1, 2)) == 1
    assert curve.evaluate(F(1)) == F(1, 2)
    assert curve.evaluate(F(5, 3)) == F(1, 6)
    assert curve.evaluate(F(2)) == 0
    assert curve.evaluate(F(7, 2)) == 0
    with pytest.raises(ValueError):
        curve.evaluate(F(-1, 10))


def test_scheme_corners_two_files_two_users():
    assert scheme_corner_points(2, 2) == (
        (F(0), F(2)),
        (F(1), F(1, 2)),
        (F(2), F(0)),
    )
    env = build_scheme_tradeoff(2, 2)
    assert fractions(env.breakpoint_ratios) == (F(0), F(1), F(2))
    assert fractions(env.slope_ratios) == (F(3, 2), F(1, 2))
    assert not env.exact
    assert env.label == "scheme(N=2,K=2)"


def test_scheme_envelope_drops_dominated_corners():
    # two files, four users: the t=1 corner (1/2, 3/2) lies above the hull
    pts = scheme_corner_points(2, 4)
    assert (F(1, 2), F(3, 2)) in pts
    env = build_scheme_tradeoff(2, 4)
    assert fractions(env.breakpoint_ratios) == (F(0), F(1), F(3, 2), F(2))
    assert env.evaluate(F(1, 2)) == F(4, 3)


def test_scheme_envelope_merges_collinear_corners():
    # a single file is always served at rate 1 - m, whatever the user count
    for k in (1, 2, 3, 4):
        env = build_scheme_tradeoff(1, k)
        assert fractions(env.breakpoint_ratios) == (F(0), F(1))
        assert fractions(env.slope_ratios) == (F(1),)


def test_segment_of_and_slope_ratios():
    curve = build_exact_two_by_two()
    assert curve.segment_of(0, 1) == 0
    assert curve.segment_of(1, 2) == 1
    assert curve.segment_of(3, 4) == 1
    assert curve.segment_of(2, 1) == 3 == curve.num_segments
    assert curve.slope_ratios[1] == (1, 1)


def test_envelope_requires_anchors():
    with pytest.raises(ValueError, match="anchor"):
        lower_convex_envelope([(F(1), F(1)), (F(2), F(0))], 2)
    with pytest.raises(ValueError, match="anchor"):
        lower_convex_envelope([(F(0), F(1)), (F(2), F(1, 8))], 2)
    with pytest.raises(ValueError, match="duplicate"):
        lower_convex_envelope([(F(0), F(1)), (F(0), F(2)), (F(2), F(0))], 2)
    with pytest.raises(ValueError, match="negative"):
        lower_convex_envelope([(F(0), F(1)), (F(1), F(-1, 2)), (F(2), F(0))], 2)


def test_envelope_sits_under_every_input_point():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        pts = [(F(0), F(rng.randint(1, 8))), (F(n), F(0))]
        for _ in range(rng.randint(0, 6)):
            m = F(rng.randint(0, 4 * n), 4)
            if m >= n or m == 0:
                continue
            pts.append((m, F(rng.randint(1, 32), 4)))
        dedup = {}
        for m, r in pts:
            dedup[m] = min(r, dedup.get(m, r))
        pts = sorted(dedup.items())
        env = lower_convex_envelope(pts, n)
        for m, r in pts:
            assert env.evaluate(m) <= r


def curve_of(num_files, breakpoints, slopes, intercepts) -> PiecewiseLinearTradeoff:
    return PiecewiseLinearTradeoff(num_files, *map(ratios, (breakpoints, slopes, intercepts)))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="strictly increasing"):
        curve_of(2, (F(0), F(0), F(2)), (F(2), F(1)), (F(2), F(2)))
    with pytest.raises(ValueError, match="positive"):
        curve_of(2, (F(0), F(2)), (F(-1),), (F(-2),))
    with pytest.raises(ValueError, match="decreasing"):
        curve_of(2, (F(0), F(1), F(2)), (F(1), F(1)), (F(2), F(2)))
    with pytest.raises(ValueError, match="discontinuity"):
        curve_of(2, (F(0), F(1), F(2)), (F(2), F(1)), (F(2), F(2)))
    with pytest.raises(ValueError, match="zero"):
        curve_of(2, (F(0), F(2)), (F(1, 2),), (F(3, 2),))


def unit_cut_set_bound(num_files: int, num_users: int, memory: Fraction) -> Fraction:
    """The cut bound on N unit files: s users served b rounds need
    R >= (s*b - s*M) / b, clamped at 0."""
    return concatenated_cut_set_bound((F(1),) * num_files, num_users, memory)


def test_cut_set_bound_examples():
    assert unit_cut_set_bound(2, 2, F(0)) == 2
    assert unit_cut_set_bound(2, 2, F(1)) == F(1, 2)
    assert unit_cut_set_bound(2, 2, F(2)) == 0
    # four files, two users: the two-user cut reuses the cache twice
    assert unit_cut_set_bound(4, 2, F(1)) == 1
    assert unit_cut_set_bound(4, 2, F(0)) == 2
    with pytest.raises(ValueError):
        unit_cut_set_bound(2, 2, F(-1))
    # the best round count is floor(N/s), so the bound is the closed form
    # max over s <= min(N, K) of s - s*M / floor(N/s), clamped at 0
    for n in range(1, 9):
        for k in range(1, 9):
            for j in range(0, 4 * n + 1):
                m = F(j, 4)
                cuts = (s - F(s, n // s) * m for s in range(1, min(n, k) + 1))
                assert unit_cut_set_bound(n, k, m) == max(F(0), *cuts), (n, k, m)


def test_cut_set_never_exceeds_scheme_envelope():
    rng = random.Random(11)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        env = build_scheme_tradeoff(n, k)
        for j in range(0, 4 * n + 1):
            m = F(j, 4)
            assert unit_cut_set_bound(n, k, m) <= env.evaluate(m)


def test_corner_serialization_round_trip():
    env = build_scheme_tradeoff(3, 2)
    corners = [(F(m), F(r)) for m, r in zip(*tradeoff_rows(env)[0])]
    again = lower_convex_envelope(corners, env.num_files, label=env.label)
    assert again.breakpoint_ratios == env.breakpoint_ratios
    assert again.slope_ratios == env.slope_ratios
    assert again.intercept_ratios == env.intercept_ratios


def test_build_by_kind():
    assert build_by_kind("auto", 2, 2).exact
    assert not build_by_kind("auto", 3, 2).exact
    assert build_by_kind("scheme", 2, 2).label == "scheme(N=2,K=2)"
    with pytest.raises(ValueError, match="exact2x2"):
        build_by_kind("exact2x2", 3, 2)
    with pytest.raises(ValueError, match="unknown"):
        build_by_kind("best", 2, 2)


def test_closed_form_scheme_curve_equals_envelope_of_all_corners():
    # covers N >= K, N = 1 and K = 1
    for n in range(1, 41):
        for k in range(1, 121):
            assert build_scheme_tradeoff(n, k) == reference_scheme_tradeoff(n, k), (n, k)


def large_shapes() -> list[tuple[int, int]]:
    rng = random.Random("scheme:large-shapes")
    shapes = [(50, 3000), (30, 3000), (17, 1234), (3000, 50)]
    return shapes + [(rng.randint(1, 60), rng.randint(60, 3000)) for _ in range(6)]


def test_closed_form_scheme_curve_on_large_shapes():
    for n, k in large_shapes():
        assert build_scheme_tradeoff(n, k) == reference_scheme_tradeoff(n, k), (n, k)


def test_first_corner_in_closed_form_matches_the_scan():
    for k in range(2, 400):
        for n in range(1, k):
            assert _first_corner(n, k) == reference_first_corner(n, k), (n, k)
    for n, k in large_shapes() + [(1, 1), (5, 5), (9, 4)]:
        assert _first_corner(n, k) == reference_first_corner(n, k), (n, k)


@pytest.mark.parametrize("seed", range(4))
def test_shared_table_builds_equal_the_envelope_of_all_corners(seed):
    rng = random.Random(f"scheme-tables:{seed}")
    k = rng.choice((1, 2, 3, 12, 60, 210))
    sets = [
        [],
        [1],
        [rng.randint(1, 9)] * 3,  # one count repeated
        [k, k + 1, 2 * k + 3],  # N >= K only
        [rng.randint(1, 3 * k) for _ in range(8)],  # repeats likely at small K
        [1, k, 6, 10, 15, 4, 4, 1],  # shared factors with K and K + 1
    ]
    for counts in sets:
        curves = build_scheme_tradeoffs(counts, k)
        # curves compare on every field: label, `exact` and `corner_ts` too
        assert curves == [reference_scheme_tradeoff(n, k) for n in counts], (counts, k)
        first = {}  # a repeated count gets the same curve
        assert all(first.setdefault(n, c) is c for n, c in zip(counts, curves))
    assert build_scheme_tradeoffs([1], 1) == [reference_scheme_tradeoff(1, 1)]
    with pytest.raises(ValueError, match="at least one file"):
        build_scheme_tradeoffs([3, 0], k)


@pytest.mark.parametrize(
    "kinds, counts, users",
    [
        ("auto", (2, 3, 2, 1), 2),  # "auto" at N = K = 2 is the exact curve
        ("scheme", (2, 3, 2, 1), 2),
        ("scheme,auto,exact2x2,auto", (2, 2, 2, 5), 2),  # mixed kinds
        ("auto,scheme,scheme,auto,scheme", (7, 7, 40, 1, 13), 30),
    ],
)
def test_command_curves_equal_one_build_per_library(kinds, counts, users):
    libraries = tuple(LibrarySpec(n, Fraction(1, len(counts))) for n in counts)
    config = NetworkConfig(libraries, users, Fraction(1))
    names = kinds.split(",")
    names = names * len(counts) if len(names) == 1 else names
    expected = [
        build_exact_two_by_two()
        if kind == "exact2x2" or kind == "auto" and n == users == 2
        else reference_scheme_tradeoff(n, users)
        for kind, n in zip(names, counts)
    ]
    assert cli._curves(config, kinds) == expected


def test_corner_ts_are_empty_or_one_per_breakpoint():
    # the scheme tags its anchor t = 0, then t* to K (t* = 1 when N >= K;
    # with N = 1 < K only the corner t = K lies on the envelope)
    assert build_scheme_tradeoff(2, 2).corner_ts == (0, 1, 2)
    assert build_scheme_tradeoff(1, 3).corner_ts == (0, 3)
    assert build_scheme_tradeoff(3, 2).corner_ts == (0, 1, 2)
    assert build_scheme_tradeoff(2, 4).corner_ts == (0, 2, 3, 4)
    assert build_scheme_tradeoff(3, 8).corner_ts == (0, 3, 4, 5, 6, 7, 8)
    # hulls of given corners know no delivery
    assert build_exact_two_by_two().corner_ts == ()
    assert lower_convex_envelope(scheme_corner_points(2, 4), 2).corner_ts == ()
    curve = build_scheme_tradeoff(2, 2)
    for ts in ((0, 1), (0, 1, 2, 2)):
        with pytest.raises(ValueError, match="one per breakpoint"):
            dataclasses.replace(curve, corner_ts=ts)
    # the tags are no part of what a curve prints
    assert tradeoff_rows(curve) == tradeoff_rows(dataclasses.replace(curve, corner_ts=()))


def test_corner_rows_match_evaluate():
    curves = [build_exact_two_by_two(), build_scheme_tradeoff(1, 1), build_scheme_tradeoff(7, 30)]
    for curve in curves:
        (memory_texts, rate_texts), _ = tradeoff_rows(curve)
        memories = fractions(curve.breakpoint_ratios)
        assert [F(m) for m in memory_texts] == list(memories)
        assert [F(r) for r in rate_texts] == [curve.evaluate(m) for m in memories]


def assert_pairs_in_lowest_terms(curve: PiecewiseLinearTradeoff) -> None:
    """The constructor takes its pairs as given, so every builder must hand
    it lowest terms with positive denominators."""
    for pairs in (curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios):
        assert type(pairs) is tuple
        for n, d in pairs:
            assert type(n) is int and type(d) is int, (curve.label, n, d)
            assert d > 0 and math.gcd(n, d) == 1, (curve.label, n, d)


def test_builders_hand_over_pairs_in_lowest_terms():
    rng = random.Random("pairs:lowest-terms")
    shapes = [(1, 1), (2, 2), (3, 2), (50, 3000), (3000, 50), (17, 1234)]
    shapes += [(rng.randint(1, 60), rng.randint(1, 3000)) for _ in range(40)]
    for n, k in shapes:
        assert_pairs_in_lowest_terms(build_scheme_tradeoff(n, k))
    assert_pairs_in_lowest_terms(build_exact_two_by_two())
    for _ in range(300):
        n = rng.randint(1, 8)
        grain = rng.randint(1, 12)
        pts = {F(0): F(rng.randint(0, 60), rng.randint(1, 9)), F(n): F(0)}
        for _ in range(rng.randint(0, 10)):
            m = F(rng.randint(1, n * grain), grain)
            if m < n:
                pts[m] = F(rng.randint(0, 60), rng.randint(1, 9))
        try:
            env = lower_convex_envelope(pts.items(), n)
        except ValueError as exc:  # a hull that rises somewhere is no curve
            assert "slopes must be positive" in str(exc)
            continue
        assert_pairs_in_lowest_terms(env)
