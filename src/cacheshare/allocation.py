"""Splitting one cache budget across libraries and rating the result.

Serving each library with its own single-library scheme on a slice of the
cache gives total rate sum_l alpha_l * R_l(M_l / alpha_l) for any split
(M_1, ..., M_L) of the budget. The functions here evaluate that rate, find
the best split (greedy, provably optimal; the slope threshold as an
independent oracle) and sweep two-library splits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Sequence

from .model import (
    CAP,
    CapExceededError,
    NetworkConfig,
    ratio_sum,
    reduce_ratio,
    to_fraction,
    total_content,
)
from .tradeoff import Curve, Ratio


@dataclass(frozen=True)
class Allocation:
    """Per-library cache memory, in the same units as the cache budget."""

    per_library: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_library", tuple(map(to_fraction, self.per_library)))
        for library, m in enumerate(self.per_library, start=1):
            if m < 0:
                raise ValueError(f"library {library} gets negative memory {m}")

    @property
    def total(self) -> Fraction:
        return Fraction(*ratio_sum(map(Fraction.as_integer_ratio, self.per_library)))


@dataclass(slots=True, eq=False)
class AllocationStep:
    """One greedy step: library chosen (1-based), its segment before the step,
    memory added, and the running total afterwards.

    The greedy counts memory in integer units of 1/scale, and a step keeps its
    two memories that way. Steps are equal when their library, segment and
    both memories in lowest terms are, whatever the scale.
    """

    library: int
    segment: int
    delta_units: int
    total_units: int
    scale: int

    def _values(self) -> tuple:
        scale = self.scale
        delta, total = reduce_ratio(self.delta_units, scale), reduce_ratio(self.total_units, scale)
        return self.library, self.segment, delta, total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationStep):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


@dataclass(frozen=True, eq=False)
class AllocationTrace:
    """The greedy's buying order as four int columns over one scale, an entry
    per step, as in `AllocationStep`. Traces are equal when their steps, final
    split, rate and labels are, whatever their scales."""

    libraries: Sequence[int]
    segments: Sequence[int]
    delta_units: Sequence[int]
    total_units: Sequence[int]
    scale: int
    final: Allocation
    rate: Fraction
    tradeoff_labels: tuple[str, ...]

    @cached_property
    def steps(self) -> tuple[AllocationStep, ...]:
        """The columns as one `AllocationStep` per step, built on first read."""
        columns = self.libraries, self.segments, self.delta_units, self.total_units
        return tuple(AllocationStep(*step, self.scale) for step in zip(*columns, strict=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationTrace):
            return NotImplemented
        fields = ("steps", "final", "rate", "tradeoff_labels")
        return all(getattr(self, f) == getattr(other, f) for f in fields)


def check_pairing(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> None:
    """Each library needs a curve built for its own file count."""
    if len(tradeoffs) != config.num_libraries:
        raise ValueError(
            f"{len(tradeoffs)} tradeoffs for {config.num_libraries} libraries"
        )
    for idx, (lib, curve) in enumerate(zip(config.libraries, tradeoffs), start=1):
        if curve.num_files != lib.num_files:
            raise ValueError(
                f"library {idx} holds {lib.num_files} files but its tradeoff "
                f"covers {curve.num_files}"
            )


def split_rate(
    config: NetworkConfig, allocation: Allocation, tradeoffs: Sequence[Curve]
) -> Fraction:
    """Total delivery rate sum_l alpha_l * R_l(M_l / alpha_l) of any split,
    whatever it totals: library l, with alpha_l = a/b and M_l = p/q on segment
    (z/w, g/h), adds the int pair az/(bw) - gp/(hq), or nothing past its content,
    and only the sum is a Fraction. An alpha that is not positive is refused."""
    check_pairing(config, tradeoffs)
    if len(allocation.per_library) != config.num_libraries:
        raise ValueError(
            f"allocation has {len(allocation.per_library)} entries for "
            f"{config.num_libraries} libraries"
        )
    memories = map(Fraction.as_integer_ratio, allocation.per_library)
    return _pairs_rate(config, memories, tradeoffs)


def _pairs_rate(
    config: NetworkConfig, memories: Iterable[Ratio], tradeoffs: Sequence[Curve]
) -> Fraction:
    """`split_rate` of the split whose memories are the pairs p/q, q > 0, not
    necessarily in lowest terms, one per library, on curves already paired."""
    terms = []
    for idx, (lib, (p, q), curve) in enumerate(zip(config.libraries, memories, tradeoffs)):
        a, b = lib.alpha.as_integer_ratio()
        if a <= 0:
            raise ValueError(f"library {idx + 1}: alpha = {lib.alpha} <= 0")
        seg = curve.segment_of(p * b, q * a)
        if seg < curve.num_segments:
            (z, w), (g, h) = curve.intercept(seg), curve.slope(seg)
            terms.append((a * z * h * q - g * p * b * w, b * w * h * q))
    return Fraction(*ratio_sum(terms))


def memory_sharing_rate(
    config: NetworkConfig, allocation: Allocation, tradeoffs: Sequence[Curve]
) -> Fraction:
    """`split_rate` of a split that uses the whole budget exactly."""
    rate = split_rate(config, allocation, tradeoffs)
    if allocation.total != config.cache_size:
        raise ValueError(
            f"allocation totals {allocation.total}, budget is {config.cache_size}"
        )
    return rate


def proportional_allocation(config: NetworkConfig) -> Allocation:
    """Split the budget in proportion to each library's share of total content."""
    total = total_content(config)
    if total == 0:
        raise ValueError("network has no content")
    return Allocation(
        tuple(config.cache_size * lib.alpha * lib.num_files / total for lib in config.libraries)
    )


def _greedy_cut(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> tuple:
    """Where the greedy stops, with no ordering: (scale, limit, weight, S,
    counts, steps, filled, rate) as in `greedy_allocate`: the budget `limit`
    and each `weight[l]` alpha_l in units of 1/scale; `counts[l]` library l's
    segments ranked at most `top`, the rank of the last one bought; `steps`
    the segments bought; `filled[l]` its memory in the split the greedy ends
    on, which must total `limit`; and that split's rate, read from the int
    units.

    A library's segments ranked <= r are its first `steep_segments(-r, S)`;
    the memory they hold grows with r, and `top` is the smallest r at which
    it reaches the budget. Between a rank below `top` and one at or above it,
    the search probes the median rank of each curve's middle segment ranked
    between them. Segments ranked below `top` are bought whole; those ranked
    `top`, at most one per library, fill in library order.
    """
    check_pairing(config, tradeoffs)
    budget = config.cache_size
    shares = [alpha.as_integer_ratio() for alpha in config.alphas]
    scale = math.lcm(
        budget.denominator, *(d * curve.breakpoint_lcm for (_, d), curve in zip(shares, tradeoffs))
    )
    limit = budget.numerator * (scale // budget.denominator)
    weight = [n * (scale // d) for n, d in shares]  # alpha_l * scale, an int
    # every alpha_l * corner is whole in units of 1/scale, so the libraries on
    # one curve pool their weights and a probe reads each distinct curve once
    distinct = {id(curve): curve for curve in tradeoffs}
    curves, index = list(distinct.values()), dict(zip(distinct, range(len(distinct))))
    pool_of = [index[id(curve)] for curve in tradeoffs]
    pooled = [0] * len(curves)
    for w, i in zip(weight, pool_of):
        pooled[i] += w
    S = max(curve.slope_bound for curve in curves) ** 2

    def rank(slope: Ratio) -> int:
        g, h = slope
        return -(g * S // h)

    def probe(r: int) -> tuple[list[int], int]:  # each curve's segments ranked <= r, their memory
        counts = [curve.steep_segments(-r, S) for curve in curves]
        memory = 0
        for curve, w, count in zip(curves, pooled, counts):
            p, q = curve.breakpoint(count)
            memory += w * p // q
        return counts, memory

    below, held = [0] * len(curves), 0  # nothing is bought below every rank, at lo
    hi = max(rank(curve.slope(curve.num_segments - 1)) for curve in curves)
    above, memory = probe(hi)  # everything is bought at hi
    if memory < limit:
        raise ValueError(f"budget {budget} exceeds total content")
    while True:  # held, the memory at lo, < limit <= the memory at hi, or limit is 0
        # each curve's middle segment ranked in (lo, hi], if any; its rank is below
        # hi unless that segment is its only one there
        mids = [c.slope((a + b - 1) // 2) for c, a, b in zip(curves, below, above) if a < b]
        ranks = sorted({rank(slope) for slope in mids} - {hi})
        if not ranks:  # every segment ranked in (lo, hi] ranks hi: hi is `top`
            break
        counts, memory = probe(r := ranks[len(ranks) // 2])
        if memory < limit:
            below, held = counts, memory  # r is the new lo
        else:
            hi, above = r, counts
    left = limit - held  # the budget for the segments ranked `top`
    filled = []
    steps = 0
    for w, i, curve in zip(weight, pool_of, tradeoffs):
        p, q = curve.breakpoint(below[i])
        memory = w * p // q
        steps += below[i]
        if left > 0 and above[i] > below[i]:  # its segment below[i] ranks `top`
            p, q = curve.breakpoint(below[i] + 1)
            delta = min(w * p // q - memory, left)
            memory += delta
            left -= delta
            steps += 1
        filled.append(memory)
    if sum(filled) != limit:
        raise ValueError(
            f"allocation totals {Fraction(sum(filled), scale)}, budget is {budget}"
        )
    rate = _pairs_rate(config, [(m, scale) for m in filled], tradeoffs)
    return scale, limit, weight, S, [above[i] for i in pool_of], steps, filled, rate


def greedy_rate(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> Fraction:
    """The rate of the split `greedy_allocate` ends on, without the split."""
    return _greedy_cut(config, tradeoffs)[-1]


def greedy_split(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> tuple[Allocation, Fraction]:
    """The split `greedy_allocate` ends on and its rate, without its steps."""
    scale, *_, filled, rate = _greedy_cut(config, tradeoffs)
    return Allocation(tuple(Fraction(m, scale) for m in filled)), rate


def greedy_allocate(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> AllocationTrace:
    """Fill the budget segment by segment, always into the library whose next
    segment lowers the total rate fastest per unit of cache.

    Library l sitting on segment i contributes alpha_l * R_l(M_l / alpha_l)
    to the rate, so one more unit of cache there buys a reduction of exactly
    gamma_i — the alpha weight and the per-library memory rescaling cancel.
    The ranking key is therefore the raw segment slope, and the buying order is
    by (-slope, library): ties go to the smallest library index, and each
    curve's strictly decreasing slopes keep its segments in order. The last
    step may stop mid-segment; every other library ends exactly on a corner.
    Only the segments ranked at or before the last one bought (`_greedy_cut`)
    are sorted.

    A slope g/h sorts on the int rank -(g * S // h), where S = B**2 for a
    bound B on every slope denominator (each curve's `slope_bound`): two
    different slopes differ by at least 1/(h * h') >= 1/S, so their floors at
    scale S differ, and equal slopes get equal ranks. Any such S gives the
    same order. Each segment sorts on the one int rank * L + library: a
    library's ranks strictly ascend, so that int orders as (rank, library),
    and a count per library names the segment.

    Memory is counted in integer units of 1/scale, where scale is the lcm of
    the budget's denominator and of each alpha_l's denominator times the lcm
    of its curve's breakpoint denominators: every alpha_l * breakpoint and the
    budget are whole there, so the running total is an int, and the trace
    keeps each step's memories as ints over scale. More than `CAP` steps are
    refused before any is built.
    """
    scale, limit, weight, S, counts, steps, filled, rate = _greedy_cut(config, tradeoffs)
    if steps > CAP:
        raise CapExceededError(f"greedy would take {steps} steps, cap is {CAP}")
    L = len(tradeoffs)
    # each distinct curve's ranks and corners, up to its last segment ranked <= top
    read = {}
    for curve, count in zip(tradeoffs, counts):
        if id(curve) not in read:
            ends, slopes = curve.head(count)
            read[id(curve)] = [-(g * S // h) for g, h in slopes], ends
    order = sorted(
        rank * L + lib for lib, curve in enumerate(tradeoffs) for rank in read[id(curve)][0]
    )
    corners = [read[id(curve)][1] for curve in tradeoffs]
    libraries, segments, deltas, totals = [], [], [], []
    total = 0
    bought = [0] * L  # each library's segments bought so far: the index of its next
    reached = [0] * L  # each library's memory at the end of its last step
    for key in order:
        if total >= limit:
            break
        lib = key % L
        seg = bought[lib]
        bought[lib] = seg + 1
        p, q = corners[lib][seg]
        end = weight[lib] * p // q
        delta = end - reached[lib]
        if total + delta > limit:
            delta = limit - total  # the last step, partial
        reached[lib] = end
        total += delta
        libraries.append(lib + 1)
        segments.append(seg)
        deltas.append(delta)
        totals.append(total)
    final = Allocation(tuple(Fraction(m, scale) for m in filled))
    labels = tuple(curve.label for curve in tradeoffs)
    return AllocationTrace(libraries, segments, deltas, totals, scale, final, rate, labels)


def brute_force_allocate(
    config: NetworkConfig, tradeoffs: Sequence[Curve]
) -> tuple[Allocation, Fraction]:
    """The oracle: the lexicographically smallest optimal split, found by its
    slope threshold without the greedy, and its rate.

    Library l's share alpha_l * R_l(M_l / alpha_l) is convex and piecewise
    linear in M_l, with the curve's slopes, so a split of the budget is optimal
    exactly when one threshold lam holds it (the KKT condition of a separable
    convex allocation): library l holds every segment steeper than lam, lo_l
    of memory, and at most its segment of slope lam, up to hi_l. lam is the
    steepest slope at which the hi_l reach the budget. Library l, in order,
    then takes the least the libraries after it leave room for:
    M_l = max(lo_l, rest - sum of hi_j over j > l). So every library but one
    sits on a corner. It reads every segment, so it materializes each curve.
    """
    check_pairing(config, tradeoffs)
    tradeoffs = [curve.materialize() for curve in tradeoffs]
    budget = config.cache_size
    # each curve's slopes negated, so they ascend: a bisect on -lam counts the
    # segments strictly steeper than lam (left) or at least as steep (right)
    climbs = [[-Fraction(g, h) for g, h in curve.slope_ratios] for curve in tradeoffs]
    libraries = list(zip(config.alphas, climbs, tradeoffs))

    def held(lam: Fraction, side) -> list[Fraction]:
        """Each library's memory at the corner after the segments `side` counts."""
        return [
            alpha * Fraction(*curve.breakpoint_ratios[side(climb, -lam)])
            for alpha, climb, curve in libraries
        ]

    # the hi_l grow as the slope flattens: the first slope, steepest first,
    # whose hi_l reach the budget
    slopes = sorted({-s for climb in climbs for s in climb}, reverse=True)
    reach = bisect_left(slopes, True, key=lambda lam: sum(held(lam, bisect_right)) >= budget)
    lo, hi = held(slopes[reach], bisect_left), held(slopes[reach], bisect_right)
    split, rest, room = [], budget, sum(hi)
    for low, high in zip(lo, hi):
        room -= high
        split.append(max(low, rest - room))
        rest -= split[-1]
    allocation = Allocation(tuple(split))
    return allocation, split_rate(config, allocation, tradeoffs)


def corner_structure_violations(
    config: NetworkConfig, tradeoffs: Sequence[Curve], allocation: Allocation
) -> list[str]:
    """Check the shape an optimal split must have; empty list means it holds.

    At most one library may sit strictly inside a segment, and no library's
    next-segment gain may beat a segment somebody already consumed, nor the
    gain still available where the partially filled library stopped.
    """
    check_pairing(config, tradeoffs)
    L = config.num_libraries
    index: list[int] = []
    inside: list[int] = []
    gains: list[tuple[int, int]] = []  # next-segment slopes as pairs, (0, 1) past the end
    for lib, (m, alpha, curve) in enumerate(zip(allocation.per_library, config.alphas, tradeoffs)):
        p, q = (m / alpha).as_integer_ratio()
        seg = curve.segment_of(p, q)
        index.append(seg)
        if seg == curve.num_segments:
            gains.append((0, 1))
        else:
            gains.append(curve.slope(seg))
            if curve.breakpoint(seg) != (p, q):
                inside.append(lib)

    def beats(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[0] * b[1] > b[0] * a[1]

    violations: list[str] = []
    if len(inside) > 1:
        violations.append(
            f"libraries {[lib + 1 for lib in inside]} all sit strictly inside a segment"
        )
    if inside:
        pivot = inside[0]
    else:
        pivot = 0  # the steepest gain, ties to the smallest library
        for lib in range(1, L):
            if beats(gains[lib], gains[pivot]):
                pivot = lib
    pivot_gain = gains[pivot]
    consumed = [
        (other, tradeoffs[other].slope(index[other] - 1))
        for other in range(L)
        if index[other] > 0
    ]
    # a gain beats some consumed slope exactly when it beats the flattest one
    # (1/0, steeper than any, when none is consumed): only then are pairs walked
    flattest = reduce(lambda f, s: s if beats(f, s) else f, (s for _, s in consumed), (1, 0))
    for lib, gain in enumerate(gains):
        if beats(gain, pivot_gain):
            violations.append(
                f"library {lib + 1} next gain {Fraction(*gain)} beats stopping gain "
                f"{Fraction(*pivot_gain)}"
            )
        for other, slope in consumed if beats(gain, flattest) else ():
            if beats(gain, slope):
                violations.append(
                    f"library {lib + 1} next gain {Fraction(*gain)} beats consumed segment "
                    f"of library {other + 1} ({Fraction(*slope)})"
                )
    return violations


class SweepSegment(NamedTuple):
    """Rate as intercept + slope * share on [start, end], as `SweepResult` pairs."""

    start: Ratio
    end: Ratio
    intercept: Ratio
    slope: Ratio


@dataclass(frozen=True)
class SweepResult:
    """Values as int pairs (n, d) in lowest terms, d > 0; `points` ascend in share."""

    points: tuple[tuple[Ratio, Ratio], ...]
    breakpoints: tuple[Ratio, ...]
    segments: tuple[SweepSegment, ...]

    def minimum(self) -> tuple[Ratio, Ratio]:
        """(share, rate) of the lowest sampled point; ties to the smallest share."""
        best = self.points[0]
        for point in self.points:  # in ascending share, so a tie keeps the smaller
            if point[1][0] * best[1][1] < best[1][0] * point[1][1]:
                best = point
        return best


def lambda_sweep(
    config: NetworkConfig, tradeoffs: Sequence[Curve], num_samples: int = 11
) -> SweepResult:
    """Rate of a two-library network as the first library's budget share runs 0..1.

    Share l puts l * M into library one and the rest into library two. The
    sampled points always include every breakpoint of the piecewise-linear
    rate, and `segments` gives the exact line on each stretch between them.
    Every value is an int pair (see `SweepResult`); no Fraction is built.
    More than `CAP` samples are refused before anything is built; then each
    curve is materialized.
    """
    check_pairing(config, tradeoffs)
    if config.num_libraries != 2:
        raise ValueError(f"sweep needs exactly two libraries, got {config.num_libraries}")
    if num_samples < 2:
        raise ValueError("need at least two samples")
    if num_samples > CAP:
        raise CapExceededError(f"sweep would take {num_samples} samples, cap is {CAP}")
    (P, Q), (A1, B1), (A2, B2) = (
        value.as_integer_ratio() for value in (config.cache_size, *config.alphas)
    )
    t1, t2 = tradeoffs = [curve.materialize() for curve in tradeoffs]
    # Memory in integer units of 1/E, as in greedy_allocate: E clears the budget
    # and every alpha_l * breakpoint, so each library's corners are whole.
    E = math.lcm(Q, B1 * t1.breakpoint_lcm, B2 * t2.breakpoint_lcm)
    total = P * (E // Q)
    corners1 = [A1 * (E // B1) * p // q for p, q in t1.breakpoint_ratios]
    corners2 = [A2 * (E // B2) * p // q for p, q in t2.breakpoint_ratios]
    # Shares are ints over den: share s puts s * total / den units into library
    # one and the rest into library two. den is the budget in units, or 1 when
    # the budget is empty and every share puts nothing anywhere.
    den = total or 1
    cuts = sorted(
        {0, den}
        | {c for c in corners1 if 0 < c < total}
        | {total - c for c in corners2 if 0 < c < total}
    )

    # each segment's (intercept, slope) pairs, and a zero line past the end
    line1, line2 = ([*zip(c.intercept_ratios, c.slope_ratios), ((0, 1), (0, 1))] for c in tradeoffs)
    # No corner lies strictly between two cuts, so on (lo, hi) library one sits
    # on the segment of its memory at lo and library two on that of its memory
    # at hi: the count of corners past 0 at or below that memory.
    lines = []
    for lo, hi in zip(cuts, cuts[1:]):
        i = bisect_right(corners1, lo * total // den) - 1
        j = bisect_right(corners2, (den - hi) * total // den) - 1
        (z1, w1), (g1, h1) = line1[i]
        (z2, w2), (g2, h2) = line2[j]
        # rate = alpha_1 zeta_1 + alpha_2 zeta_2 - gamma_2 M + (gamma_2 - gamma_1) M * share
        intercept = reduce_ratio(
            (A1 * z1 * B2 * w2 + A2 * z2 * B1 * w1) * h2 * Q - g2 * P * B1 * w1 * B2 * w2,
            B1 * w1 * B2 * w2 * h2 * Q,
        )
        slope = reduce_ratio((g2 * h1 - g1 * h2) * P, h1 * h2 * Q)
        if lines and lines[-1][2:] == (intercept, slope):
            lines[-1] = (lines[-1][0], hi, intercept, slope)
        else:
            lines.append((lo, hi, intercept, slope))
    segments = tuple(
        SweepSegment(reduce_ratio(lo, den), reduce_ratio(hi, den), ic, sl)
        for lo, hi, ic, sl in lines
    )
    breakpoints = (segments[0].start,) + tuple(seg.end for seg in segments)

    # every breakpoint and sample share as an int over D = den * (num_samples - 1);
    # the segments' starts and the last sample, share 1, are the breakpoints
    parts = num_samples - 1
    D = den * parts
    starts = [lo * parts for lo, _, _, _ in lines]
    shares = set(starts) | set(range(0, D + 1, den))
    # each point on its segment's line; the rate is continuous, so a share on
    # a breakpoint reads the same from either side
    points = []
    for u in sorted(shares):
        _, _, (a, b), (c, d) = lines[bisect_right(starts, u) - 1]
        points.append((reduce_ratio(u, D), reduce_ratio(a * d * D + c * u * b, b * d * D)))
    return SweepResult(points=tuple(points), breakpoints=breakpoints, segments=segments)
