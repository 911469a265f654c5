"""Piecewise-linear memory-rate curves for a single file library.

A curve is stored in segment form: breakpoints 0 = theta_0 < ... < theta_r = N
on the memory axis and, on each segment [theta_i, theta_{i+1}], the line
R = zeta_i - gamma_i * m with slope magnitudes gamma_0 > ... > gamma_{r-1} > 0.
That shape (convex, strictly decreasing, hitting zero exactly at m = N) is
enforced at construction, so downstream code can lean on it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import to_fraction


@dataclass(frozen=True)
class CornerPoint:
    memory: Fraction
    rate: Fraction


@dataclass(frozen=True)
class PiecewiseLinearTradeoff:
    """Convex decreasing memory-rate curve on [0, N], zero at N.

    `label` names the construction (for traces and reports); `exact` marks
    curves known to be the true optimum rather than just achievable.
    """

    num_files: int
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...]
    label: str = "custom"
    exact: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(map(to_fraction, self.breakpoints)))
        object.__setattr__(self, "slopes", tuple(map(to_fraction, self.slopes)))
        object.__setattr__(self, "intercepts", tuple(map(to_fraction, self.intercepts)))
        if self.num_files < 1:
            raise ValueError(f"num_files = {self.num_files} < 1")
        bp, sl, ic = self.breakpoints, self.slopes, self.intercepts
        if len(bp) < 2 or len(sl) != len(bp) - 1 or len(ic) != len(sl):
            raise ValueError("need r >= 1 segments with matching slope/intercept counts")
        if bp[0] != 0 or bp[-1] != self.num_files:
            raise ValueError(f"breakpoints must run from 0 to {self.num_files}, got {bp}")
        # The shape checks run on (numerator, denominator) pairs. Denominators
        # are positive, so a/b < c/d exactly when a*d < c*b: the same exact
        # answers as Fraction arithmetic, with no Fraction built on the way.
        bpr = list(map(Fraction.as_integer_ratio, bp))
        slr = list(map(Fraction.as_integer_ratio, sl))
        icr = list(map(Fraction.as_integer_ratio, ic))
        if any(a * d >= c * b for (a, b), (c, d) in zip(bpr, bpr[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(g <= 0 for g, _ in slr):
            raise ValueError("slopes must be positive")
        if any(a * d <= c * b for (a, b), (c, d) in zip(slr, slr[1:])):
            raise ValueError("slopes must be strictly decreasing (convexity)")
        # continuity at theta = p/q: zeta_i - zeta_{i+1} == (gamma_i - gamma_{i+1}) * theta,
        # with zeta = z/w and gamma = g/h, times w_i w_{i+1} h_i h_{i+1} q
        pairs = zip(icr, icr[1:], slr, slr[1:], bpr[1:])
        for i, ((z0, w0), (z1, w1), (g0, h0), (g1, h1), (p, q)) in enumerate(pairs):
            if (z0 * w1 - z1 * w0) * h0 * h1 * q != (g0 * h1 - g1 * h0) * p * w0 * w1:
                left = ic[i] - sl[i] * bp[i + 1]
                right = ic[i + 1] - sl[i + 1] * bp[i + 1]
                raise ValueError(f"discontinuity at breakpoint {bp[i + 1]}: {left} != {right}")
        (z, w), (g, h), (p, q) = icr[-1], slr[-1], bpr[-1]
        if z * h * q != g * p * w:
            raise ValueError(f"curve must hit zero at memory {self.num_files}")

    @property
    def num_segments(self) -> int:
        return len(self.slopes)

    def segment_index(self, memory: Fraction) -> int:
        """Index of the segment containing `memory`; num_segments when full."""
        memory = to_fraction(memory)
        if memory < 0:
            raise ValueError(f"memory {memory} < 0")
        if memory >= self.num_files:
            return self.num_segments
        return bisect_right(self.breakpoints, memory) - 1

    def evaluate(self, memory: Fraction) -> Fraction:
        """Rate at the given memory; zero for any memory at or beyond N."""
        i = self.segment_index(memory)
        if i == self.num_segments:
            return Fraction(0)
        return self.intercepts[i] - self.slopes[i] * to_fraction(memory)

    def right_slope(self, segment: int) -> Fraction:
        """Magnitude of the decrease on segment `segment`; zero past the end."""
        if segment >= self.num_segments:
            return Fraction(0)
        return self.slopes[segment]

    def corner_points(self) -> tuple[CornerPoint, ...]:
        bp, sl, ic = self.breakpoints, self.slopes, self.intercepts
        pts = [CornerPoint(bp[i], ic[i] - sl[i] * bp[i]) for i in range(len(sl))]
        pts.append(CornerPoint(bp[-1], Fraction(0)))
        return tuple(pts)


def shared_curve(tradeoffs: Sequence[PiecewiseLinearTradeoff]) -> PiecewiseLinearTradeoff | None:
    """The first curve if all have its file count, breakpoints, slopes and intercepts."""
    first = tradeoffs[0]
    shape = (first.num_files, first.breakpoints, first.slopes, first.intercepts)
    same = all(
        c is first or (c.num_files, c.breakpoints, c.slopes, c.intercepts) == shape
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

    breakpoints = tuple(pts[i][0] for i in hull)
    slopes = []
    intercepts = []
    # edge (m1, r1)-(m2, r2): gamma = (r1 - r2)/(m2 - m1), zeta = r1 + gamma m1
    corners = [ratios[i] for i in hull]
    for (x1, x1d, y1, y1d), (x2, x2d, y2, y2d) in zip(corners, corners[1:]):
        run = (x2 * x1d - x1 * x2d) * y1d * y2d
        slopes.append(Fraction((y1 * y2d - y2 * y1d) * x1d * x2d, run))
        intercepts.append(Fraction(y1 * y2d * x2 * x1d - y2 * y1d * x2d * x1, run))
    return PiecewiseLinearTradeoff(
        num_files=num_files,
        breakpoints=breakpoints,
        slopes=tuple(slopes),
        intercepts=tuple(intercepts),
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
    breakpoints, slopes, intercepts = [Fraction(0)], [], []
    first = 0
    if n < k:
        # the anchor (0, N) lies below corner 0; corner t is a hull vertex iff the
        # anchor-to-t slope beats the t-to-(t+1) slope: (N(1+t) - (K-t))(t+2) > (K+1)t
        first = next(
            (t for t in range(1, k) if (k - t - n - n * t) * (t + 2) < -(k + 1) * t), k
        )
        breakpoints.append(Fraction(first * n, k))
        slopes.append((n - Fraction(k - first, 1 + first)) * k / (first * n))
        intercepts.append(Fraction(n))
    for t in range(first, k):
        denominator = (t + 1) * (t + 2)
        breakpoints.append(Fraction((t + 1) * n, k))
        slopes.append(Fraction(k * (k + 1), n * denominator))
        intercepts.append(Fraction(2 * k * t + 2 * k - t * t - t, denominator))
    return PiecewiseLinearTradeoff(
        num_files=n,
        breakpoints=tuple(breakpoints),
        slopes=tuple(slopes),
        intercepts=tuple(intercepts),
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


def tradeoff_to_json(curve: PiecewiseLinearTradeoff) -> list[list[str]]:
    """Corner-list serialization: [[memory, rate], ...] as exact strings."""
    return [[str(p.memory), str(p.rate)] for p in curve.corner_points()]


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
