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
from typing import Iterable, Sequence

from .model import ratio_text, reduce_ratio, reduced_texts, to_fraction

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
        if any(a * d >= c * b for (a, b), (c, d) in zip(bpr, bpr[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(g <= 0 for g, _ in slr):
            raise ValueError("slopes must be positive")
        if any(a * d <= c * b for (a, b), (c, d) in zip(slr, slr[1:])):
            raise ValueError("slopes must be strictly decreasing (convexity)")
        # continuity at theta = p/q: zeta_i - zeta_{i+1} == (gamma_i - gamma_{i+1}) * theta,
        # with zeta = z/w and gamma = g/h, times w_i w_{i+1} h_i h_{i+1} q
        pairs = zip(icr, icr[1:], slr, slr[1:], bpr[1:])
        for (z0, w0), (z1, w1), (g0, h0), (g1, h1), (p, q) in pairs:
            if (z0 * w1 - z1 * w0) * h0 * h1 * q != (g0 * h1 - g1 * h0) * p * w0 * w1:
                theta = Fraction(p, q)
                left = Fraction(z0, w0) - Fraction(g0, h0) * theta
                right = Fraction(z1, w1) - Fraction(g1, h1) * theta
                raise ValueError(f"discontinuity at breakpoint {theta}: {left} != {right}")
        (z, w), (g, h), (p, q) = icr[-1], slr[-1], bpr[-1]
        if z * h * q != g * p * w:
            raise ValueError(f"curve must hit zero at memory {num_files}")

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


def build_scheme_tradeoff(num_files: int, num_users: int) -> PiecewiseLinearTradeoff:
    """Envelope of the subset-coded scheme's corners for one library, in closed form.

    For t >= 1 the corners (tN/K, (K-t)/(1+t)) are strictly convex: the slope
    magnitude from t to t+1 is K(K+1) / (N(t+1)(t+2)). The envelope is therefore
    the anchor (0, min(N, K)) followed by the corners t*..K, where t* = 0 when
    N >= K and otherwise the first corner lying strictly below the chord from
    the anchor to the next corner (K when there is none). This equals the
    lower convex envelope of the anchor and all K corners.
    """
    if num_files < 1 or num_users < 1:
        raise ValueError("need at least one file and one user")
    n, k = num_files, num_users
    breakpoints, slopes, intercepts = [(0, 1)], [], []
    first = 0
    if n < k:
        # the anchor (0, N) lies below corner 0; corner t is a hull vertex iff the
        # anchor-to-t slope beats the t-to-(t+1) slope: (N(1+t) - (K-t))(t+2) > (K+1)t
        first = next(
            (t for t in range(1, k) if (k - t - n - n * t) * (t + 2) < -(k + 1) * t), k
        )
        # slope (N - (K - t*)/(1 + t*)) / (t* N / K)
        breakpoints.append(reduce_ratio(first * n, k))
        slopes.append(reduce_ratio((n * (1 + first) - (k - first)) * k, (1 + first) * first * n))
        intercepts.append((n, 1))
    # corner t + 1 sits at (t + 1)N/K; the segment from corner t to t + 1 has
    # slope K(K+1) / (N(t+1)(t+2)) and intercept (2Kt + 2K - t^2 - t) / ((t+1)(t+2)),
    # which is (2K - t)/(t + 2). Each value is reduced with one gcd.
    ts = range(first, k)
    gcd = math.gcd
    breakpoints += [(x // (g := gcd(x, k)), k // g) for x in range((first + 1) * n, k * n + 1, n)]
    rise = k * (k + 1)
    slopes += [(rise // (g := gcd(rise, x)), x // g) for x in (n * (t + 1) * (t + 2) for t in ts)]
    intercepts += [(x // (g := gcd(x, y)), y // g) for x, y in ((2 * k - t, t + 2) for t in ts)]
    return PiecewiseLinearTradeoff(
        n,
        tuple(breakpoints),
        tuple(slopes),
        tuple(intercepts),
        label=f"scheme(N={num_files},K={num_users})",
        exact=False,
    )


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


def tradeoff_rows(
    curve: PiecewiseLinearTradeoff,
) -> tuple[list[tuple[str, str]], list[tuple[str, ...]]]:
    """The curve as exact strings: its corners as (memory, rate) and its
    segments as (start, end, intercept, slope) in `SEGMENT_KEYS` order, each
    segment's line being rate = intercept + slope * memory with the slope the
    negated magnitude. The corner memories are the breakpoints, texted once."""
    bpr, slr, icr = curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios
    bp, ic, sl = map(reduced_texts, (bpr, icr, slr))
    rates = [
        ratio_text(z * h * q - g * p * w, w * h * q)
        for (p, q), (g, h), (z, w) in zip(bpr, slr, icr)
    ]
    rates.append("0")
    # magnitudes are positive, so "-" before one negates it
    return list(zip(bp, rates)), list(zip(bp, bp[1:], ic, ["-" + slope for slope in sl]))


def build_by_kind(kind: str, num_files: int, num_users: int) -> PiecewiseLinearTradeoff:
    """Construct a named curve: 'scheme', 'exact2x2', or 'auto' (exact when known)."""
    if kind == "auto":
        if num_files == 2 and num_users == 2:
            return build_exact_two_by_two()
        return build_scheme_tradeoff(num_files, num_users)
    if kind == "scheme":
        return build_scheme_tradeoff(num_files, num_users)
    if kind == "exact2x2":
        if num_files != 2 or num_users != 2:
            raise ValueError("exact2x2 applies only to two files and two users")
        return build_exact_two_by_two()
    raise ValueError(f"unknown tradeoff kind {kind!r}")
