"""Splitting one cache budget across libraries and rating the result.

Serving each library with its own single-library scheme on a slice of the
cache gives total rate sum_l alpha_l * R_l(M_l / alpha_l) for any split
(M_1, ..., M_L) of the budget. The functions here evaluate that rate, find
the best split (greedy, provably optimal; brute force as an oracle) and
sweep two-library splits.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product, repeat
from typing import Sequence

from .model import CapExceededError, NetworkConfig, to_fraction, total_content
from .tradeoff import PiecewiseLinearTradeoff


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
        return sum(self.per_library, Fraction(0))


@dataclass(frozen=True)
class AllocationStep:
    """One greedy step: library chosen (1-based), its segment before the step,
    memory added, and the running total afterwards."""

    library: int
    segment: int
    delta: Fraction
    allocated_total: Fraction


@dataclass(frozen=True)
class AllocationTrace:
    steps: tuple[AllocationStep, ...]
    final: Allocation
    rate: Fraction
    tradeoff_labels: tuple[str, ...]


def check_pairing(
    config: NetworkConfig, tradeoffs: Sequence[PiecewiseLinearTradeoff]
) -> None:
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
    config: NetworkConfig,
    allocation: Allocation,
    tradeoffs: Sequence[PiecewiseLinearTradeoff],
) -> Fraction:
    """Total delivery rate sum_l alpha_l * R_l(M_l / alpha_l) of any split,
    whatever it totals: library l runs on allocation.per_library[l], and rates
    are weighted by each library's size share."""
    check_pairing(config, tradeoffs)
    if len(allocation.per_library) != config.num_libraries:
        raise ValueError(
            f"allocation has {len(allocation.per_library)} entries for "
            f"{config.num_libraries} libraries"
        )
    rate = Fraction(0)
    for lib, m, curve in zip(config.libraries, allocation.per_library, tradeoffs):
        rate += lib.alpha * curve.evaluate(m / lib.alpha)
    return rate


def memory_sharing_rate(
    config: NetworkConfig,
    allocation: Allocation,
    tradeoffs: Sequence[PiecewiseLinearTradeoff],
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


class _Steeper:
    """Heap key of one curve segment: steeper slope first, ties to the smaller
    library index.

    The slope is held as its integer (numerator, denominator) with the
    denominator positive, so g/h beats g'/h' exactly when g*h' > g'*h: one
    integer comparison per heap step, no Fraction arithmetic.
    """

    __slots__ = ("num", "den", "lib", "seg")

    def __init__(self, slope: Fraction, lib: int, seg: int) -> None:
        self.num, self.den = slope.as_integer_ratio()
        self.lib = lib
        self.seg = seg

    def __lt__(self, other: "_Steeper") -> bool:
        mine, theirs = self.num * other.den, other.num * self.den
        return mine > theirs or (mine == theirs and self.lib < other.lib)


def greedy_allocate(
    config: NetworkConfig, tradeoffs: Sequence[PiecewiseLinearTradeoff]
) -> AllocationTrace:
    """Fill the budget segment by segment, always into the library whose next
    segment lowers the total rate fastest per unit of cache.

    Library l sitting on segment i contributes alpha_l * R_l(M_l / alpha_l)
    to the rate, so one more unit of cache there buys a reduction of exactly
    gamma_i — the alpha weight and the per-library memory rescaling cancel.
    The ranking key is therefore the raw segment slope, and since each curve's
    slopes strictly decrease, the buying order is a k-way merge of the curves on
    (-slope, library, segment): ties go to the smallest library index. The last
    step may stop mid-segment; every other library ends exactly on a corner.

    Memory is counted in integer units of 1/scale, where scale is the lcm of
    the budget's denominator and of each alpha_l's denominator times the lcm
    of its curve's breakpoint denominators: every alpha_l * breakpoint and the
    budget are whole there, so the running total is an int and the steps'
    Fractions are built only for the trace.
    """
    check_pairing(config, tradeoffs)
    budget = config.cache_size
    shares = [alpha.as_integer_ratio() for alpha in config.alphas]
    distinct = {id(curve): curve for curve in tradeoffs}  # libraries often share a curve
    spacing = {
        key: math.lcm(*(b.denominator for b in curve.breakpoints))
        for key, curve in distinct.items()
    }
    scale = math.lcm(
        budget.denominator, *(d * spacing[id(curve)] for (_, d), curve in zip(shares, tradeoffs))
    )
    limit = budget.numerator * (scale // budget.denominator)
    weight = [n * (scale // d) for n, d in shares]  # alpha_l * scale, an int
    filled = [0] * config.num_libraries  # alpha_l * (breakpoint at the cursor) * scale
    steps: list[AllocationStep] = []
    total = 0
    inside = None  # library whose last step stopped inside a segment
    order = heapq.merge(
        *(map(_Steeper, curve.slopes, repeat(lib), count()) for lib, curve in enumerate(tradeoffs))
    )
    for key in order:
        if total >= limit:
            break
        lib, seg = key.lib, key.seg
        p, q = tradeoffs[lib].breakpoints[seg + 1].as_integer_ratio()
        end = weight[lib] * p // q
        delta = end - filled[lib]
        if total + delta <= limit:
            filled[lib] = end
        else:
            delta, inside = limit - total, lib
        total += delta
        steps.append(AllocationStep(lib + 1, seg, Fraction(delta, scale), Fraction(total, scale)))
    if total < limit:
        # every curve exhausted; cannot happen while total < total content
        raise ValueError(f"budget {budget} exceeds total content")
    if inside is not None:
        filled[inside] += delta  # the partial step is always the last one
    final = Allocation(tuple(Fraction(m, scale) for m in filled))
    rate = memory_sharing_rate(config, final, tradeoffs)
    return AllocationTrace(
        steps=tuple(steps),
        final=final,
        rate=rate,
        tradeoff_labels=tuple(curve.label for curve in tradeoffs),
    )


def brute_force_allocate(
    config: NetworkConfig,
    tradeoffs: Sequence[PiecewiseLinearTradeoff],
    grid_step: Fraction,
    cap: int = 250_000,
) -> tuple[Allocation, Fraction]:
    """Exhaustive oracle over grid splits plus corner-aligned splits.

    Grid: every split whose entries are multiples of grid_step. Corner-aligned:
    for each choice of one free library, every combination of the others'
    corner memories, remainder to the free library (kept when it fits inside
    that library's content). The best split has at most one library off a
    corner, so the corner-aligned family contains an optimum; the grid adds
    interior probes. Ties resolve to the lexicographically smallest split.

    The search runs on integers and stays exact: memories are counted in 1/D
    units and each library's rate share is tabulated once per memory, then
    cleared to an int over a common denominator Q, so a candidate's rate is a
    sum of ints. Only the winner becomes Fractions again.
    """
    check_pairing(config, tradeoffs)
    grid_step = to_fraction(grid_step)
    if grid_step <= 0:
        raise ValueError(f"grid step {grid_step} must be positive")
    L = config.num_libraries
    budget = config.cache_size
    alphas = config.alphas

    ratio = budget / grid_step
    grid_count = 0
    if ratio.denominator == 1:
        grid_count = math.comb(int(ratio) + L - 1, L - 1)
    corner_count = 0
    for free in range(L):
        combo = 1
        for lib in range(L):
            if lib != free:
                combo *= len(tradeoffs[lib].breakpoints)
        corner_count += combo
    if grid_count + corner_count > cap:
        raise CapExceededError(
            f"oracle would evaluate {grid_count + corner_count} splits, cap is {cap}"
        )

    # every candidate memory as an int count of 1/D units: D clears the
    # budget, the step and every corner alpha_l * breakpoint
    corners = [
        [(a * p, b * q) for p, q in map(Fraction.as_integer_ratio, curve.breakpoints)]
        for (a, b), curve in zip(map(Fraction.as_integer_ratio, alphas), tradeoffs)
    ]
    D = math.lcm(
        budget.denominator,
        grid_step.denominator,
        *(q // math.gcd(p, q) for axis in corners for p, q in axis),
    )
    corner_units = [[p * D // q for p, q in axis] for axis in corners]
    total = budget.numerator * (D // budget.denominator)

    candidates: list[tuple[int, ...]] = []
    if ratio.denominator == 1:
        # grid splits in lexicographic order: (prefix, units left) grows by one
        # library at a time, and the last library takes what is left
        unit = grid_step.numerator * (D // grid_step.denominator)
        rows = [((), total)]
        for _ in range(L - 1):
            rows = [
                (prefix + (m,), left - m)
                for prefix, left in rows
                for m in range(0, left + 1, unit)
            ]
        candidates = [prefix + (left,) for prefix, left in rows]
    for free in range(L):
        content_free = corner_units[free][-1]  # alpha_free * N_free
        others = corner_units[:free] + corner_units[free + 1 :]
        for combo in product(*others):
            remainder = total - sum(combo)
            if 0 <= remainder <= content_free:
                candidates.append(combo[:free] + (remainder,) + combo[free:])
    if not candidates:
        raise ValueError("no feasible split on the grid")

    # library l's share alpha_l * R_l(m / alpha_l) of the rate, once per memory
    # m, then cleared to ints over Q, the lcm of the shares' denominators
    columns = list(zip(*candidates))
    shares = [
        {m: alpha * curve.evaluate(Fraction(m, D) / alpha) for m in set(column)}
        for alpha, curve, column in zip(alphas, tradeoffs, columns)
    ]
    Q = math.lcm(*(r.denominator for share in shares for r in share.values()))
    cleared = [
        map({m: r.numerator * (Q // r.denominator) for m, r in share.items()}.__getitem__, column)
        for share, column in zip(shares, columns)
    ]
    rates = map(sum, zip(*cleared))
    # the lowest rate, ties to the lexicographically smallest split: int
    # tuples over one D order as the Fraction splits do
    best_rate, best_split = min(zip(rates, candidates))
    best = Allocation(tuple(Fraction(m, D) for m in best_split))
    return best, memory_sharing_rate(config, best, tradeoffs)


def corner_structure_violations(
    config: NetworkConfig,
    tradeoffs: Sequence[PiecewiseLinearTradeoff],
    allocation: Allocation,
) -> list[str]:
    """Check the shape an optimal split must have; empty list means it holds.

    At most one library may sit strictly inside a segment, and no library's
    next-segment gain may beat a segment somebody already consumed, nor the
    gain still available where the partially filled library stopped.
    """
    check_pairing(config, tradeoffs)
    alphas = config.alphas
    L = config.num_libraries
    index: list[int] = []
    interior: list[bool] = []
    for lib in range(L):
        m = allocation.per_library[lib] / alphas[lib]
        curve = tradeoffs[lib]
        seg = curve.segment_index(m)
        at_corner = seg == curve.num_segments or curve.breakpoints[seg] == m
        index.append(seg)
        interior.append(not at_corner)

    violations: list[str] = []
    inside = [lib for lib in range(L) if interior[lib]]
    if len(inside) > 1:
        violations.append(
            f"libraries {[lib + 1 for lib in inside]} all sit strictly inside a segment"
        )
    if inside:
        pivot = inside[0]
    else:
        pivot = max(range(L), key=lambda lib: tradeoffs[lib].right_slope(index[lib]))
    pivot_gain = tradeoffs[pivot].right_slope(index[pivot])
    for lib in range(L):
        gain = tradeoffs[lib].right_slope(index[lib])
        if gain > pivot_gain:
            violations.append(
                f"library {lib + 1} next gain {gain} beats stopping gain {pivot_gain}"
            )
        for other in range(L):
            if index[other] == 0:
                continue
            consumed = tradeoffs[other].slopes[index[other] - 1]
            if gain > consumed:
                violations.append(
                    f"library {lib + 1} next gain {gain} beats consumed segment "
                    f"of library {other + 1} ({consumed})"
                )
    return violations


@dataclass(frozen=True)
class SweepSegment:
    """Rate as intercept + slope * share on [start, end]."""

    start: Fraction
    end: Fraction
    intercept: Fraction
    slope: Fraction


@dataclass(frozen=True)
class SweepResult:
    points: tuple[tuple[Fraction, Fraction], ...]
    breakpoints: tuple[Fraction, ...]
    segments: tuple[SweepSegment, ...]

    def minimum(self) -> tuple[Fraction, Fraction]:
        """(share, rate) of the lowest sampled point; ties to the smallest share."""
        best = min(self.points, key=lambda p: (p[1], p[0]))
        return best


def lambda_sweep(
    config: NetworkConfig,
    tradeoffs: Sequence[PiecewiseLinearTradeoff],
    num_samples: int = 11,
) -> SweepResult:
    """Rate of a two-library network as the first library's budget share runs 0..1.

    Share l puts l * M into library one and the rest into library two. The
    sampled points always include every breakpoint of the piecewise-linear
    rate, and `segments` gives the exact line on each stretch between them.
    """
    check_pairing(config, tradeoffs)
    if config.num_libraries != 2:
        raise ValueError(f"sweep needs exactly two libraries, got {config.num_libraries}")
    if num_samples < 2:
        raise ValueError("need at least two samples")
    budget = config.cache_size
    a1, a2 = config.alphas
    t1, t2 = tradeoffs

    def line_at(share: Fraction) -> tuple[Fraction, Fraction]:
        # rate = intercept + slope * share on the segment containing `share`
        i = t1.segment_index(share * budget / a1)
        j = t2.segment_index((1 - share) * budget / a2)
        z1, g1 = (
            (t1.intercepts[i], t1.slopes[i]) if i < t1.num_segments else (Fraction(0),) * 2
        )
        z2, g2 = (
            (t2.intercepts[j], t2.slopes[j]) if j < t2.num_segments else (Fraction(0),) * 2
        )
        intercept = a1 * z1 + a2 * z2 - g2 * budget
        slope = (g2 - g1) * budget
        return intercept, slope

    cuts = {Fraction(0), Fraction(1)}
    if budget > 0:
        for theta in t1.breakpoints[1:]:
            share = theta * a1 / budget
            if 0 < share < 1:
                cuts.add(share)
        for theta in t2.breakpoints[1:]:
            share = 1 - theta * a2 / budget
            if 0 < share < 1:
                cuts.add(share)
    cut_list = sorted(cuts)

    segments: list[SweepSegment] = []
    for lo, hi in zip(cut_list, cut_list[1:]):
        intercept, slope = line_at((lo + hi) / 2)
        if segments and (segments[-1].intercept, segments[-1].slope) == (intercept, slope):
            last = segments.pop()
            segments.append(SweepSegment(last.start, hi, intercept, slope))
        else:
            segments.append(SweepSegment(lo, hi, intercept, slope))
    breakpoints = tuple(
        [segments[0].start] + [seg.end for seg in segments]
    )

    shares = set(breakpoints)
    for k in range(num_samples):
        shares.add(Fraction(k, num_samples - 1))
    # each point on its segment's line; the rate is continuous, so a share on
    # a breakpoint reads the same from either side
    points = []
    for s in sorted(shares):
        seg = segments[bisect_right(breakpoints, s, hi=len(segments)) - 1]
        points.append((s, seg.intercept + seg.slope * s))
    return SweepResult(points=tuple(points), breakpoints=breakpoints, segments=tuple(segments))
