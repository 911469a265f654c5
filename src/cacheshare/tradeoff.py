"""Piecewise-linear memory-rate curves for a single file library.

A curve is stored in segment form: breakpoints 0 = theta_0 < ... < theta_r = N
on the memory axis and, on each segment [theta_i, theta_{i+1}], the line
R = zeta_i - gamma_i * m with slope magnitudes gamma_0 > ... > gamma_{r-1} > 0.
That shape (convex, strictly decreasing, hitting zero exactly at m = N) is
enforced at construction, so downstream code can lean on it. Every value is an
integer (numerator, denominator) pair; `lower_convex_envelope` builds a curve
from Fraction corner points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .model import ratio_text, reduce_ratio, reduced_texts, to_fraction

Ratio = tuple[int, int]  # (numerator, denominator): lowest terms, denominator > 0


@dataclass(frozen=True)
class PiecewiseLinearTradeoff:
    """Convex decreasing memory-rate curve on [0, N], zero at N.

    `label` names the construction (for traces and reports); `exact` marks
    curves known to be the true optimum rather than just achievable;
    `corner_ts` is empty or holds, per breakpoint, the subset-coding t whose
    delivery reaches that corner (`build_scheme_tradeoff` sets it).

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
    corner_ts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        num_files, bpr = self.num_files, self.breakpoint_ratios
        slr, icr = self.slope_ratios, self.intercept_ratios
        if num_files < 1:
            raise ValueError(f"num_files = {num_files} < 1")
        if len(bpr) < 2 or len(slr) != len(bpr) - 1 or len(icr) != len(slr):
            raise ValueError("need r >= 1 segments with matching slope/intercept counts")
        if self.corner_ts and len(self.corner_ts) != len(bpr):
            raise ValueError(f"need no corner t or one per breakpoint, got {len(self.corner_ts)}")
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

    def segment_of(self, p: int, q: int) -> int:
        """Index of the segment containing the memory p/q, q > 0; num_segments
        when full."""
        if p < 0:
            raise ValueError(f"memory {Fraction(p, q)} < 0")
        bp = self.breakpoint_ratios
        hi = len(bp) - 1
        if p >= self.num_files * q:
            return hi
        lo = 0  # bp[lo] <= p/q < bp[hi]: the last breakpoint at or below p/q
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a, b = bp[mid]
            if a * q <= p * b:
                lo = mid
            else:
                hi = mid
        return lo

    def evaluate(self, memory: Fraction) -> Fraction:
        """Rate at the given memory; zero for any memory at or beyond N."""
        p, q = to_fraction(memory).as_integer_ratio()
        i = self.segment_of(p, q)
        if i == self.num_segments:
            return Fraction(0)
        (z, w), (g, h) = self.intercept_ratios[i], self.slope_ratios[i]
        return Fraction(z * h * q - g * p * w, w * h * q)


def shared_curve(tradeoffs: Sequence[PiecewiseLinearTradeoff]) -> PiecewiseLinearTradeoff | None:
    """The first curve if all have its file count, breakpoints, slopes and intercepts."""
    first = tradeoffs[0]
    shape = (first.num_files, first.breakpoint_ratios, first.slope_ratios, first.intercept_ratios)
    same = all(
        c is first
        or (c.num_files, c.breakpoint_ratios, c.slope_ratios, c.intercept_ratios) == shape
        for c in tradeoffs
    )
    return first if same else None


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


def _scheme_tables(k: int, low: int, unit: int) -> tuple[list, list, list]:
    """The scheme's segments from corner t to t + 1, t = low..K-1, for N = u:
    corner t + 1 sits at (t + 1)u/K, and the segment has slope K(K+1) /
    (u(t+1)(t+2)) and intercept (2K - t)/(t + 2), which does not depend on N.
    Returns the breakpoints, slopes and intercepts, each reduced with one gcd."""
    gcd, rise = math.gcd, k * (k + 1)
    steps, twos = range((low + 1) * unit, k * unit + 1, unit), range(low + 2, k + 2)
    return (
        [(x // (g := gcd(x, k)), k // g) for x in steps],
        [(rise // (g := gcd(rise, x)), x // g) for x in map(mul, steps, twos)],
        [(x // (g := gcd(x, y)), y // g) for x, y in zip(range(2 * k - low, k, -1), twos)],
    )


def _scheme_curve(
    n: int, k: int, first: int, breakpoints: Sequence, slopes: Sequence, intercepts: Sequence
) -> PiecewiseLinearTradeoff:
    """The scheme curve of N files from its segments t*..K-1 (`_scheme_tables`
    at N, from t*), with the anchor's segment put in front."""
    if first:
        # the anchor (0, N) lies below corner 0; its segment runs to corner t*
        # with slope (N - (K - t*)/(1 + t*)) / (t* N / K)
        x, y = (n * (1 + first) - (k - first)) * k, (1 + first) * first * n
        bp = ((0, 1), reduce_ratio(first * n, k), *breakpoints)
        sl, ic = (reduce_ratio(x, y), *slopes), ((n, 1), *intercepts)
    else:
        bp, sl, ic = ((0, 1), *breakpoints), tuple(slopes), tuple(intercepts)
    return PiecewiseLinearTradeoff(
        n, bp, sl, ic, label=f"scheme(N={n},K={k})", corner_ts=(0, *range(first or 1, k + 1))
    )


def build_scheme_tradeoffs(
    file_counts: Sequence[int], num_users: int
) -> list[PiecewiseLinearTradeoff]:
    """`build_scheme_tradeoff` of each count at one K, in order; a repeated
    count gets the same curve. The counts share one `_scheme_tables` from the
    smallest t*, built for u = gcd of the counts. A count N = mu slices them
    at its own t* and scales the breakpoints by m and the slopes by 1/m, with
    one gcd per value. Each curve is shape-checked."""
    built = dict.fromkeys(file_counts)
    if num_users < 1 or built and min(built) < 1:
        raise ValueError("need at least one file and one user")
    if not built:
        return []
    k, gcd = num_users, math.gcd
    firsts = [_first_corner(n, k) for n in built]
    low, unit = min(firsts), gcd(*built)
    breakpoints, slopes, intercepts = _scheme_tables(k, low, unit)
    for n, first in zip(built, firsts):
        cut, m = first - low, n // unit
        bp, sl = breakpoints[cut:], slopes[cut:]
        if m > 1:  # p/q and g/h are in lowest terms, so gcd(pm, q) = gcd(m, q)
            bp = [(p * (m // (g := gcd(m, q))), q // g) for p, q in bp]
            sl = [(g // (d := gcd(g, m)), h * (m // d)) for g, h in sl]
        built[n] = _scheme_curve(n, k, first, bp, sl, intercepts[cut:])
    return [built[n] for n in file_counts]


def build_scheme_tradeoff(num_files: int, num_users: int) -> PiecewiseLinearTradeoff:
    """Envelope of the subset-coded scheme's corners for one library, in closed form.

    For t >= 1 the corners (tN/K, (K-t)/(1+t)) are strictly convex: the slope
    magnitude from t to t+1 is K(K+1) / (N(t+1)(t+2)). The envelope is therefore
    the anchor (0, min(N, K)) followed by the corners t*..K, where t* = 0 when
    N >= K and otherwise the first corner lying strictly below the chord from
    the anchor to the next corner (K when there is none). This equals the
    lower convex envelope of the anchor and all K corners. The anchor is
    delivered uncoded (t = 0), so the corner ts are (0, t*, ..., K), or
    (0, 1, ..., K) when the anchor is corner 0. The one-count case of
    `build_scheme_tradeoffs`: its tables built at N from t*, used as they are.
    """
    if num_files < 1 or num_users < 1:
        raise ValueError("need at least one file and one user")
    first = _first_corner(num_files, num_users)
    tables = _scheme_tables(num_users, first, num_files)
    return _scheme_curve(num_files, num_users, first, *tables)


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
    """Each corner's rate zeta - gamma * theta as a pair over w h q, not reduced."""
    bpr, slr, icr = curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios
    rates = [(z * h * q - g * p * w, w * h * q) for (p, q), (g, h), (z, w) in zip(bpr, slr, icr)]
    return rates + [(0, 1)]  # the last corner, N


def tradeoff_rows(curve: PiecewiseLinearTradeoff) -> tuple[list[list[str]], list[list[str]]]:
    """The curve as columns of exact strings: its corners' (memory, rate) and
    its segments' (start, end, intercept, slope) in `SEGMENT_KEYS` order, each
    segment's line being rate = intercept + slope * memory with the slope the
    negated magnitude. The corner memories are the breakpoints, texted once."""
    bpr, slr, icr = curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios
    bp, ic, sl = map(reduced_texts, (bpr, icr, slr))
    rates = [ratio_text(n, d) for n, d in corner_rates(curve)]
    # magnitudes are positive, so "-" before one negates it
    return [bp, rates], [bp[:-1], bp[1:], ic, ["-" + slope for slope in sl]]


def is_scheme_kind(kind: str, num_files: int, num_users: int) -> bool:
    """Whether `build_by_kind` gives this shape the scheme curve: 'scheme',
    and 'auto' wherever no exact curve is known."""
    return kind == "scheme" or kind == "auto" and not num_files == num_users == 2


def build_by_kind(kind: str, num_files: int, num_users: int) -> PiecewiseLinearTradeoff:
    """Construct a named curve: 'scheme', 'exact2x2', or 'auto' (exact when known)."""
    if is_scheme_kind(kind, num_files, num_users):
        return build_scheme_tradeoff(num_files, num_users)
    if kind == "auto" or kind == "exact2x2":
        if num_files != 2 or num_users != 2:
            raise ValueError("exact2x2 applies only to two files and two users")
        return build_exact_two_by_two()
    raise ValueError(f"unknown tradeoff kind {kind!r}")
