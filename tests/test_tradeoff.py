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
    env = build_scheme_tradeoff(2, 2).materialize()
    assert fractions(env.breakpoint_ratios) == (F(0), F(1), F(2))
    assert fractions(env.slope_ratios) == (F(3, 2), F(1, 2))
    assert not env.exact
    assert env.label == "scheme(N=2,K=2)"


def test_scheme_envelope_drops_dominated_corners():
    # two files, four users: the t=1 corner (1/2, 3/2) lies above the hull
    pts = scheme_corner_points(2, 4)
    assert (F(1, 2), F(3, 2)) in pts
    env = build_scheme_tradeoff(2, 4).materialize()
    assert fractions(env.breakpoint_ratios) == (F(0), F(1), F(3, 2), F(2))
    assert env.evaluate(F(1, 2)) == F(4, 3)


def test_scheme_envelope_merges_collinear_corners():
    # a single file is always served at rate 1 - m, whatever the user count
    for k in (1, 2, 3, 4):
        env = build_scheme_tradeoff(1, k).materialize()
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
    env = build_scheme_tradeoff(3, 2).materialize()
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


def corner_ts(curve) -> tuple[int, ...]:
    """The closed-form curve's t at every corner (`SchemeCurve.corner_t`)."""
    return tuple(map(curve.corner_t, range(curve.num_segments + 1)))


def test_closed_form_scheme_curve_equals_envelope_of_all_corners():
    # covers N >= K, N = 1 and K = 1
    for n in range(1, 41):
        for k in range(1, 121):
            curve = build_scheme_tradeoff(n, k)
            assert (curve.materialize(), corner_ts(curve)) == reference_scheme_tradeoff(n, k), (n, k)


def large_shapes() -> list[tuple[int, int]]:
    rng = random.Random("scheme:large-shapes")
    shapes = [(50, 3000), (30, 3000), (17, 1234), (3000, 50)]
    return shapes + [(rng.randint(1, 60), rng.randint(60, 3000)) for _ in range(6)]


def test_closed_form_scheme_curve_on_large_shapes():
    for n, k in large_shapes():
        curve = build_scheme_tradeoff(n, k)
        assert (curve.materialize(), corner_ts(curve)) == reference_scheme_tradeoff(n, k), (n, k)


def test_first_corner_in_closed_form_matches_the_scan():
    for k in range(2, 400):
        for n in range(1, k):
            assert _first_corner(n, k) == reference_first_corner(n, k), (n, k)
    for n, k in large_shapes() + [(1, 1), (5, 5), (9, 4)]:
        assert _first_corner(n, k) == reference_first_corner(n, k), (n, k)


def corner(n: int, k: int, t: int) -> tuple[Fraction, Fraction]:
    """Corner t of the scheme, or the anchor (0, min(N, K)) at t = 0."""
    return (F(t * n, k), F(k - t, 1 + t)) if t else (F(0), F(min(n, k)))


def assert_closed_form_queries(curve, indices, *wholes) -> None:
    """`curve`'s queries at each segment in `indices` equal the envelope's,
    the anchor then the corners t*..K with t* from the scan
    `reference_first_corner`, and each tuple-held curve's in `wholes`: the
    breakpoints, slope and intercept; `segment_of` at the first breakpoint,
    between and just short of the next, and beyond N; `evaluate` between
    them; and the steepness count at, just above and just below the slope.
    The curve's corner t is checked against the envelope's too."""
    n, k = curve.num_files, curve.num_users
    first = reference_first_corner(n, k)
    ts = [0, *range(first or 1, k + 1)]
    r = len(ts) - 1
    views = (curve, *wholes)
    assert [view.num_segments for view in views] == [r] * len(views)
    M = curve.slope_bound + 1  # above every slope denominator
    for i in indices:
        (m0, r0), (m1, r1) = corner(n, k, ts[i]), corner(n, k, ts[i + 1])
        slope = (r0 - r1) / (m1 - m0)
        g, h = slope.as_integer_ratio()
        assert h < M and curve.breakpoint_lcm % m0.denominator == 0, (n, k, i)
        assert curve.corner_t(i) == ts[i], (n, k, i)
        zeta, mid = r0 + slope * m0, (m0 + m1) / 2
        expected = tuple(v.as_integer_ratio() for v in (m0, m1, slope, zeta))
        inside = [m.as_integer_ratio() for m in (m0, mid, m1 - (m1 - m0) / 1000)]
        for view in views:
            got = (view.breakpoint(i), view.breakpoint(i + 1), view.slope(i), view.intercept(i))
            assert got == expected, (n, k, i, type(view).__name__)
            assert [view.segment_of(*m) for m in inside] == [i] * 3, (n, k, i)
            assert view.evaluate(mid) == zeta - slope * mid, (n, k, i)
            around = ((g, h), (g * M + 1, h * M), (g * M - 1, h * M))  # at, above, below
            steep = [view.steep_segments(*q) for q in around]
            assert steep == [i + 1, i, i + 1], (n, k, i, type(view).__name__)
    for view in views:
        assert view.segment_of(n, 1) == view.segment_of(3 * n + 1, 3) == r
        assert view.evaluate(F(n)) == 0 and view.steep_segments(0, 1) == r
        with pytest.raises(ValueError, match="< 0"):
            view.segment_of(-1, 3)


def test_closed_form_queries_match_the_materialized_and_reference_curves():
    # every segment of N < K, N >= K, N = 1 and K = 1 shapes and the large shapes
    shapes = [(n, k) for k in range(1, 21) for n in range(1, 25)] + large_shapes()
    for n, k in shapes:
        curve = build_scheme_tradeoff(n, k)
        reference, ts = reference_scheme_tradeoff(n, k)
        assert curve.materialize() == reference and corner_ts(curve) == ts, (n, k)
        assert_closed_form_queries(curve, range(curve.num_segments), curve.materialize(), reference)
        assert curve.breakpoint_lcm == math.lcm(*(q for _, q in reference.breakpoint_ratios))
        assert curve.evaluate(F(0)) == min(n, k)
        r = curve.num_segments
        for count in {0, 1, r // 2, r}:  # prefixes, as the greedy reads them
            assert [list(part) for part in curve.head(count)] == [
                list(part) for part in reference.head(count)
            ], (n, k, count)
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="at least one file"):
            build_scheme_tradeoff(*shape)


def test_closed_form_anchor_segment_of_every_small_shape():
    # materializing all 79401 shapes with N < K < 400 would take minutes; the
    # anchor's segment, which ends at corner t*, is checked on every one
    for k in range(2, 400):
        for n in range(1, k):
            assert_closed_form_queries(build_scheme_tradeoff(n, k), [0])


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
        else reference_scheme_tradeoff(n, users)[0]
        for kind, n in zip(names, counts)
    ]
    curves = cli._curves(config, kinds)
    assert [curve.materialize() for curve in curves] == expected
    first = {}  # a repeated (kind, count) gets the same curve
    assert all(first.setdefault(s, c) is c for s, c in zip(zip(names, counts), curves))


def test_corner_t_is_one_per_breakpoint():
    # the scheme tags its anchor t = 0, then t* to K (t* = 1 when N >= K;
    # with N = 1 < K only the corner t = K lies on the envelope)
    for shape, ts in [
        ((2, 2), (0, 1, 2)),
        ((1, 3), (0, 3)),
        ((3, 2), (0, 1, 2)),
        ((2, 4), (0, 2, 3, 4)),
        ((3, 8), (0, 3, 4, 5, 6, 7, 8)),
    ]:
        curve = build_scheme_tradeoff(*shape)
        assert len(curve.materialize().breakpoint_ratios) == len(ts)
        assert corner_ts(curve) == ts == reference_scheme_tradeoff(*shape)[1]


def test_corner_rows_match_evaluate():
    curves = [build_exact_two_by_two(), build_scheme_tradeoff(1, 1), build_scheme_tradeoff(7, 30)]
    for curve in (c.materialize() for c in curves):
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
        assert_pairs_in_lowest_terms(build_scheme_tradeoff(n, k).materialize())
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
