"""Piecewise-linear memory-rate curves for a single file library.

A curve is stored in segment form: breakpoints 0 = theta_0 < ... < theta_r = N
on the memory axis and, on each segment [theta_i, theta_{i+1}], the line
R = zeta_i - gamma_i * m with slope magnitudes gamma_0 > ... > gamma_{r-1} > 0.
That shape (convex, strictly decreasing, hitting zero exactly at m = N) is
enforced at construction, so downstream code can lean on it. Every value is an
integer (numerator, denominator) pair; `lower_convex_envelope` builds a curve
from Fraction corner points.

The scheme's curve (`SchemeCurve`) answers the same queries in closed form,
and builds its tuples only when something reads it whole (`materialize`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .model import CAP, CapExceededError, ratio_text, reduce_ratio, reduced_texts, to_fraction

Ratio = tuple[int, int]  # (numerator, denominator): lowest terms, denominator > 0


@dataclass(frozen=True)
class PiecewiseLinearTradeoff:
    """Convex decreasing memory-rate curve on [0, N], zero at N.

    `label` names the construction (for traces and reports); `exact` marks
    curves known to be the true optimum rather than just achievable.

    The breakpoints, slopes and intercepts are integer (numerator,
    denominator) pairs, each in lowest terms with a positive denominator;
    the constructor checks the shape on them as given, without reducing
    them, and every method works on them. Denominators are positive, so
    a/b < c/d exactly when a*d < c*b: the same exact answers as Fraction
    arithmetic, with no Fraction built on the way.
    """

    num_files: int
    breakpoint_ratios: tuple[Ratio, ...]
    slope_ratios: tuple[Ratio, ...]
    intercept_ratios: tuple[Ratio, ...]
    label: str = "custom"
    exact: bool = False

    def __post_init__(self) -> None:
        num_files, bpr = self.num_files, self.breakpoint_ratios
        slr, icr = self.slope_ratios, self.intercept_ratios
        if num_files < 1:
            raise ValueError(f"num_files = {num_files} < 1")
        if len(bpr) < 2 or len(slr) != len(bpr) - 1 or len(icr) != len(slr):
            raise ValueError("need r >= 1 segments with matching slope/intercept counts")
        if bpr[0] != (0, 1) or bpr[-1] != (num_files, 1):
            got = tuple(Fraction(n, d) for n, d in bpr)
            raise ValueError(f"breakpoints must run from 0 to {num_files}, got {got}")
        # `_name_fault`'s checks in one pass: theta_1 and the last slope, then each pair
        # of segments i, i+1; continuity at theta = p/q: zeta_i - zeta_{i+1} == (gamma_i
        # - gamma_{i+1}) * theta, with zeta = z/w and gamma = g/h, times w_i w_{i+1} h_i h_{i+1} q
        fault = bpr[1][0] <= 0 or slr[-1][0] <= 0
        pairs = zip(bpr[1:], bpr[2:], slr, slr[1:], icr, icr[1:])
        for (p, q), (c, d), (g0, h0), (g1, h1), (z0, w0), (z1, w1) in pairs:
            turn = g0 * h1 - g1 * h0  # (gamma_i - gamma_{i+1}) h_i h_{i+1}
            if p * d >= c * q or g0 <= 0 or turn <= 0 or (
                (z0 * w1 - z1 * w0) * h0 * h1 * q != turn * p * w0 * w1
            ):
                fault = True
                break
        if fault:
            self._name_fault()
            raise AssertionError("the shape pass found a fault that no ordered check names")
        (z, w), (g, h), (p, q) = icr[-1], slr[-1], bpr[-1]
        if z * h * q != g * p * w:
            raise ValueError(f"curve must hit zero at memory {num_files}")

    def _name_fault(self) -> None:
        """Raise the first failed shape check's message, checking in the order
        increasing breakpoints, positive slopes, convexity, continuity."""
        bpr, slr, icr = self.breakpoint_ratios, self.slope_ratios, self.intercept_ratios
        if any(a * d >= c * b for (a, b), (c, d) in zip(bpr, bpr[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(g <= 0 for g, _ in slr):
            raise ValueError("slopes must be positive")
        if any(a * d <= c * b for (a, b), (c, d) in zip(slr, slr[1:])):
            raise ValueError("slopes must be strictly decreasing (convexity)")
        pairs = zip(icr, icr[1:], slr, slr[1:], bpr[1:])
        for (z0, w0), (z1, w1), (g0, h0), (g1, h1), (p, q) in pairs:
            if (z0 * w1 - z1 * w0) * h0 * h1 * q != (g0 * h1 - g1 * h0) * p * w0 * w1:
                theta = Fraction(p, q)
                left = Fraction(z0, w0) - Fraction(g0, h0) * theta
                right = Fraction(z1, w1) - Fraction(g1, h1) * theta
                raise ValueError(f"discontinuity at breakpoint {theta}: {left} != {right}")

    @property
    def num_segments(self) -> int:
        return len(self.slope_ratios)

    def breakpoint(self, i: int) -> Ratio:
        return self.breakpoint_ratios[i]

    def slope(self, i: int) -> Ratio:
        return self.slope_ratios[i]

    def intercept(self, i: int) -> Ratio:
        return self.intercept_ratios[i]

    @property
    def breakpoint_lcm(self) -> int:
        """The lcm of the breakpoint denominators."""
        return math.lcm(*(q for _, q in self.breakpoint_ratios))

    @property
    def slope_bound(self) -> int:
        """A bound on every slope denominator: here the largest."""
        return max(h for _, h in self.slope_ratios)

    def steep_segments(self, c: int, s: int) -> int:
        """How many segments are at least as steep as c/s, s > 0: the slopes
        fall, so a bisect."""
        return bisect_left(self.slope_ratios, True, key=lambda slope: slope[0] * s < c * slope[1])

    def head(self, count: int) -> tuple[Sequence[Ratio], Sequence[Ratio]]:
        """The first `count` segments' end breakpoints and slopes."""
        return self.breakpoint_ratios[1 : count + 1], self.slope_ratios[:count]

    def materialize(self) -> PiecewiseLinearTradeoff:
        """The curve itself: it holds its tuples already."""
        return self

    def segment_of(self, p: int, q: int) -> int:
        """Index of the segment containing the memory p/q, q > 0; num_segments
        when full: a bisect for the last breakpoint at or below p/q."""
        if p < 0:
            raise ValueError(f"memory {Fraction(p, q)} < 0")
        if p >= self.num_files * q:
            return self.num_segments
        return bisect_right(self.breakpoint_ratios, False, key=lambda b: b[0] * q > p * b[1]) - 1

    def evaluate(self, memory: Fraction) -> Fraction:
        """Rate at the given memory; zero for any memory at or beyond N."""
        p, q = to_fraction(memory).as_integer_ratio()
        i = self.segment_of(p, q)
        if i == self.num_segments:
            return Fraction(0)
        (z, w), (g, h) = self.intercept(i), self.slope(i)
        return Fraction(z * h * q - g * p * w, w * h * q)


def lower_convex_envelope(
    points: Iterable[tuple[Fraction, Fraction]],
    num_files: int,
    label: str = "envelope",
    exact: bool = False,
) -> PiecewiseLinearTradeoff:
    """Largest convex curve under the given (memory, rate) points.

    Requires anchor points at memory 0 and at (num_files, 0); every input
    point must satisfy 0 <= memory <= num_files and rate >= 0. Collinear
    interior points are merged away, so the result has strictly decreasing
    slopes.
    """
    pts = sorted((to_fraction(m), to_fraction(r)) for m, r in points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    # Each point as integers (x, x', y, y'): memory x/x' and rate y/y', in
    # lowest terms with x', y' > 0. Every test and every edge below is exact
    # integer arithmetic on these, with the denominators multiplied through.
    ratios = [m.as_integer_ratio() + r.as_integer_ratio() for m, r in pts]
    for (m1, _), (x1, x1d, _, _), (x2, x2d, _, _) in zip(pts, ratios, ratios[1:]):
        if x1 == x2 and x1d == x2d:
            raise ValueError(f"duplicate memory value {m1}")
    if pts[0][0] != 0:
        raise ValueError("missing anchor point at memory 0")
    if pts[-1] != (Fraction(num_files), Fraction(0)):
        raise ValueError(f"missing anchor point ({num_files}, 0)")
    for (m, r), (_, _, y, _) in zip(pts, ratios):
        if y < 0:
            raise ValueError(f"negative rate {r} at memory {m}")

    hull: list[int] = []  # indices into pts
    for i, (px, pxd, py, pyd) in enumerate(ratios):
        # pop the middle point b while it sits on or above the chord from a to p:
        # (by - ay)(px - bx) >= (py - by)(bx - ax), times ay' ax' by' bx' py' px'
        while len(hull) >= 2:
            ax, axd, ay, ayd = ratios[hull[-2]]
            bx, bxd, by, byd = ratios[hull[-1]]
            rise_ab, run_bp = by * ayd - ay * byd, px * bxd - bx * pxd
            rise_bp, run_ab = py * byd - by * pyd, bx * axd - ax * bxd
            if rise_ab * run_bp * pyd * axd >= rise_bp * run_ab * ayd * pxd:
                hull.pop()
            else:
                break
        hull.append(i)

    slopes = []
    intercepts = []
    # edge (m1, r1)-(m2, r2): gamma = (r1 - r2)/(m2 - m1), zeta = r1 + gamma m1
    corners = [ratios[i] for i in hull]
    for (x1, x1d, y1, y1d), (x2, x2d, y2, y2d) in zip(corners, corners[1:]):
        run = (x2 * x1d - x1 * x2d) * y1d * y2d
        slopes.append(reduce_ratio((y1 * y2d - y2 * y1d) * x1d * x2d, run))
        intercepts.append(reduce_ratio(y1 * y2d * x2 * x1d - y2 * y1d * x2d * x1, run))
    return PiecewiseLinearTradeoff(
        num_files,
        tuple((x, xd) for x, xd, _, _ in corners),
        tuple(slopes),
        tuple(intercepts),
        label=label,
        exact=exact,
    )


def _first_corner(n: int, k: int) -> int:
    """t* of `build_scheme_tradeoff`, 0 when N >= K: the smallest t >= 1 whose
    corner is below the chord from the anchor to corner t + 1, (N(1+t) -
    (K-t))(t+2) > (K+1)t, capped at K. That is f(t) = at^2 - bt - c > 0 with
    a = 1+N, b = 2K-3N-1, c = 2(K-N); f(0) < 0, so t* = floor(r) + 1 for f's
    positive root r, and s = isqrt(b^2 + 4ac) gives (b + s) // 2a <= r < it + 1."""
    if n >= k:
        return 0
    a, b, c = 1 + n, 2 * k - 3 * n - 1, 2 * (k - n)
    return min((b + math.isqrt(b * b + 4 * a * c)) // (2 * a) + 1, k)


@dataclass(frozen=True)
class SchemeCurve:
    """The subset-coded scheme's curve for N files and K users, held as (N, K, t*).

    The corners (tN/K, (K-t)/(1+t)), t >= 1, are strictly convex, so the hull
    of them and the anchor (0, min(N, K)) is the anchor, then corners t*..K
    (`_first_corner`; t* = 0 when N >= K: the anchor is corner 0). Breakpoint
    i is corner `corner_t(i)`, delivered at that t; the segment from corner t
    has slope K(K+1) / (N(t+1)(t+2)) and intercept (2K - t)/(t + 2), after
    the anchor's own when t* >= 1. Each query is O(1) and answers as
    `PiecewiseLinearTradeoff`'s does on the tuples of `materialize`.
    """

    num_files: int
    num_users: int
    first: int
    exact = False  # only achievable

    @property
    def label(self) -> str:
        return f"scheme(N={self.num_files},K={self.num_users})"

    @cached_property
    def _shift(self) -> int:  # corner_t(i) - i for i >= 1
        return max(self.first - 1, 0)

    @property
    def num_segments(self) -> int:
        return self.num_users - self._shift

    def corner_t(self, i: int) -> int:
        return i + self._shift if i else 0

    def breakpoint(self, i: int) -> Ratio:
        k = self.num_users
        x = (i + self._shift) * self.num_files if i else 0
        g = math.gcd(x, k)
        return x // g, k // g

    def slope(self, i: int) -> Ratio:
        n, k, first = self.num_files, self.num_users, self.first
        if first and not i:  # the anchor (0, N) to corner t*
            return reduce_ratio((n * (1 + first) - (k - first)) * k, (1 + first) * first * n)
        t = self.corner_t(i)
        return reduce_ratio(k * (k + 1), n * (t + 1) * (t + 2))

    def intercept(self, i: int) -> Ratio:
        if self.first and not i:
            return self.num_files, 1
        t = self.corner_t(i)
        return reduce_ratio(2 * self.num_users - t, t + 2)

    @property
    def breakpoint_lcm(self) -> int:
        """The last breakpoint before N's denominator: K / gcd(N, K) at corner
        K - 1, which every corner's divides, or 1 at the anchor when t* = K."""
        return self.breakpoint(self.num_segments - 1)[1]

    @property
    def slope_bound(self) -> int:
        """N K (K + 1): (t+1)(t+2) and (1 + t*) t* are at most K(K + 1)."""
        return self.num_files * self.num_users * (self.num_users + 1)

    def steep_segments(self, c: int, s: int) -> int:
        """How many segments are at least as steep as c/s, s > 0: corner t's is
        when (t+1)(t+2) <= X = floor(K(K+1)s / (cN)), so when t + 1 <= u =
        (isqrt(4X + 1) - 1) // 2. The anchor's, the steepest, is checked alone."""
        if c <= 0:
            return self.num_segments
        n, k, first = self.num_files, self.num_users, self.first
        u = (math.isqrt(4 * (k * (k + 1) * s // (c * n)) + 1) - 1) // 2
        coded = max(min(u, k) - first, 0)
        if first and not coded:
            g, h = self.slope(0)
            return int(g * s >= c * h)
        return coded + (first > 0)

    def segment_of(self, p: int, q: int) -> int:
        """As `PiecewiseLinearTradeoff.segment_of`: corner floor(pK / (qN)) is the
        last at or below p/q, and any memory short of corner t* is on the anchor's."""
        if p < 0:
            raise ValueError(f"memory {Fraction(p, q)} < 0")
        n = self.num_files
        if p >= n * q:
            return self.num_segments
        return max(p * self.num_users // (q * n) - self._shift, 0)

    evaluate = PiecewiseLinearTradeoff.evaluate  # reads only the queries above

    def head(self, count: int) -> tuple[list[Ratio], list[Ratio]]:
        """The first `count` segments' end breakpoints and slopes, each reduced
        with one gcd: the anchor's, when t* >= 1, then corner t's from t*."""
        n, k, first = self.num_files, self.num_users, self.first
        lead = 1 if first and count else 0
        gcd, rise, high = math.gcd, k * (k + 1), first + count - lead
        steps = range((first + 1) * n, (high + 1) * n, n)  # (t + 1)N, t = t*..high-1
        ends = [(x // (g := gcd(x, k)), k // g) for x in steps]
        runs = map(mul, steps, range(first + 2, high + 2))  # N(t + 1)(t + 2)
        slopes = [(rise // (g := gcd(rise, x)), x // g) for x in runs]
        if lead:
            return [self.breakpoint(1), *ends], [self.slope(0), *slopes]
        return ends, slopes

    def materialize(self) -> PiecewiseLinearTradeoff:
        """The curve as tuples, shape-checked, built on the first call. More
        than `CAP` segments are refused before any is built."""
        return self._tuples

    @cached_property
    def _tuples(self) -> PiecewiseLinearTradeoff:
        n, k, first = self.num_files, self.num_users, self.first
        if (r := self.num_segments) > CAP:
            raise CapExceededError(f"curve {self.label} would take {r} segments, cap is {CAP}")
        ends, slopes = self.head(r)
        coded = zip(range(2 * k - first, k, -1), range(first + 2, k + 2))  # 2K - t, t + 2 from t*
        intercepts = [(x // (g := math.gcd(x, y)), y // g) for x, y in coded]
        return PiecewiseLinearTradeoff(
            n,
            ((0, 1), *ends),
            tuple(slopes),
            ((n, 1), *intercepts) if first else tuple(intercepts),
            label=self.label,
        )


Curve = PiecewiseLinearTradeoff | SchemeCurve


def build_scheme_tradeoff(num_files: int, num_users: int) -> SchemeCurve:
    """The subset-coded scheme's curve for one library, in closed form."""
    if num_files < 1 or num_users < 1:
        raise ValueError("need at least one file and one user")
    return SchemeCurve(num_files, num_users, _first_corner(num_files, num_users))


def build_exact_two_by_two() -> PiecewiseLinearTradeoff:
    """Optimal curve for two files and two users: corners (0,2), (1/2,1), (1,1/2), (2,0)."""
    pts = [
        (Fraction(0), Fraction(2)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(2), Fraction(0)),
    ]
    return lower_convex_envelope(pts, 2, label="exact2x2", exact=True)


SEGMENT_KEYS = ("start", "end", "intercept", "slope")


def corner_rates(curve: PiecewiseLinearTradeoff) -> list[Ratio]:
    """Each corner's rate zeta - gamma * theta of a materialized curve, as a
    pair over w h q, not reduced."""
    bpr, slr, icr = curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios
    rates = [(z * h * q - g * p * w, w * h * q) for (p, q), (g, h), (z, w) in zip(bpr, slr, icr)]
    return rates + [(0, 1)]  # the last corner, N


def tradeoff_rows(curve: Curve) -> tuple[list[list[str]], list[list[str]]]:
    """The curve, materialized, as columns of exact strings: its corners'
    (memory, rate) and its segments' (start, end, intercept, slope) in
    `SEGMENT_KEYS` order, each segment's line being rate = intercept + slope *
    memory with the slope the negated magnitude. The corner memories are the
    breakpoints, texted once."""
    curve = curve.materialize()
    bpr, slr, icr = curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios
    bp, ic, sl = map(reduced_texts, (bpr, icr, slr))
    rates = [ratio_text(n, d) for n, d in corner_rates(curve)]
    # magnitudes are positive, so "-" before one negates it
    return [bp, rates], [bp[:-1], bp[1:], ic, ["-" + slope for slope in sl]]


def build_by_kind(kind: str, num_files: int, num_users: int) -> Curve:
    """Construct a named curve: 'scheme', 'exact2x2', or 'auto' (exact when known)."""
    if kind == "scheme" or kind == "auto" and not num_files == num_users == 2:
        return build_scheme_tradeoff(num_files, num_users)
    if kind == "auto" or kind == "exact2x2":
        if num_files != 2 or num_users != 2:
            raise ValueError("exact2x2 applies only to two files and two users")
        return build_exact_two_by_two()
    raise ValueError(f"unknown tradeoff kind {kind!r}")
