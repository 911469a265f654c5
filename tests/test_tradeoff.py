import random
from fractions import Fraction

import pytest

from cacheshare.converse import concatenated_cut_set_bound
from cacheshare.tradeoff import (
    PiecewiseLinearTradeoff,
    build_by_kind,
    build_exact_two_by_two,
    build_scheme_tradeoff,
    lower_convex_envelope,
    tradeoff_to_json,
)
from util import reference_scheme_tradeoff, scheme_corner_points

F = Fraction


def test_exact_two_by_two_corners():
    curve = build_exact_two_by_two()
    assert tradeoff_to_json(curve) == [("0", "2"), ("1/2", "1"), ("1", "1/2"), ("2", "0")]
    assert curve.exact
    assert curve.label == "exact2x2"
    assert curve.slopes == (F(2), F(1), F(1, 2))


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
    assert env.breakpoints == (F(0), F(1), F(2))
    assert env.slopes == (F(3, 2), F(1, 2))
    assert not env.exact
    assert env.label == "scheme(N=2,K=2)"


def test_scheme_envelope_drops_dominated_corners():
    # two files, four users: the t=1 corner (1/2, 3/2) lies above the hull
    pts = scheme_corner_points(2, 4)
    assert (F(1, 2), F(3, 2)) in pts
    env = build_scheme_tradeoff(2, 4)
    assert env.breakpoints == (F(0), F(1), F(3, 2), F(2))
    assert env.evaluate(F(1, 2)) == F(4, 3)


def test_scheme_envelope_merges_collinear_corners():
    # a single file is always served at rate 1 - m, whatever the user count
    for k in (1, 2, 3, 4):
        env = build_scheme_tradeoff(1, k)
        assert env.breakpoints == (F(0), F(1))
        assert env.slopes == (F(1),)


def test_segment_index_and_right_slope():
    curve = build_exact_two_by_two()
    assert curve.segment_index(F(0)) == 0
    assert curve.segment_index(F(1, 2)) == 1
    assert curve.segment_index(F(3, 4)) == 1
    assert curve.segment_index(F(2)) == 3
    assert curve.right_slope(1) == 1
    assert curve.right_slope(3) == 0


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


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinearTradeoff(2, (F(0), F(0), F(2)), (F(2), F(1)), (F(2), F(2)))
    with pytest.raises(ValueError, match="positive"):
        PiecewiseLinearTradeoff(2, (F(0), F(2)), (F(-1),), (F(-2),))
    with pytest.raises(ValueError, match="decreasing"):
        PiecewiseLinearTradeoff(
            2, (F(0), F(1), F(2)), (F(1), F(1)), (F(2), F(2))
        )
    with pytest.raises(ValueError, match="discontinuity"):
        PiecewiseLinearTradeoff(
            2, (F(0), F(1), F(2)), (F(2), F(1)), (F(2), F(2))
        )
    with pytest.raises(ValueError, match="zero"):
        PiecewiseLinearTradeoff(2, (F(0), F(2)), (F(1, 2),), (F(3, 2),))


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
    corners = [(F(m), F(r)) for m, r in tradeoff_to_json(env)]
    again = lower_convex_envelope(corners, env.num_files, label=env.label)
    assert again.breakpoints == env.breakpoints
    assert again.slopes == env.slopes
    assert again.intercepts == env.intercepts


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


def test_closed_form_scheme_curve_on_large_shapes():
    for n, k in [(50, 3000), (30, 3000), (17, 1234), (3000, 50)]:
        assert build_scheme_tradeoff(n, k) == reference_scheme_tradeoff(n, k), (n, k)


def test_corner_points_match_evaluate():
    curves = [build_exact_two_by_two(), build_scheme_tradeoff(1, 1), build_scheme_tradeoff(7, 30)]
    for curve in curves:
        corners = curve.corner_points()
        assert [p.memory for p in corners] == list(curve.breakpoints)
        assert [p.rate for p in corners] == [curve.evaluate(m) for m in curve.breakpoints]
