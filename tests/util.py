"""Shared builders for the test suite: fixed networks and seeded random ones."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

import cacheshare.sim as sim
from cacheshare.allocation import (
    Allocation,
    AllocationStep,
    AllocationTrace,
    memory_sharing_rate,
    split_rate,
)
from cacheshare.bits import BitString, concat
from cacheshare.converse import concatenate, sort_by_library_size, subfile_level
from cacheshare.model import DemandVector, LibrarySpec, NetworkConfig, enumerate_demands
from cacheshare.tradeoff import (
    PiecewiseLinearTradeoff,
    build_by_kind,
    build_scheme_tradeoff,
    lower_convex_envelope,
)


def fractions(pairs) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, d) for n, d in pairs)


def ratios(values) -> tuple[tuple[int, int], ...]:
    """Each exact value as a (numerator, denominator) pair in lowest terms."""
    return tuple(Fraction(v).as_integer_ratio() for v in values)


class FractionCurve(NamedTuple):
    """A curve's breakpoints, slopes and intercepts as Fractions, the form the
    plain-Fraction references below read."""

    num_files: int
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...]

    @property
    def num_segments(self) -> int:
        return len(self.slopes)


def fraction_curve(curve: PiecewiseLinearTradeoff) -> FractionCurve:
    pairs = (curve.breakpoint_ratios, curve.slope_ratios, curve.intercept_ratios)
    return FractionCurve(curve.num_files, *map(fractions, pairs))


def make_config(*, counts, weights, users, cache) -> NetworkConfig:
    libs = tuple(
        LibrarySpec(num_files=n, alpha=Fraction(w)) for n, w in zip(counts, weights)
    )
    return NetworkConfig(libraries=libs, num_users=users, cache_size=Fraction(cache))


def reference_config(cache: Fraction | str = "1") -> NetworkConfig:
    return make_config(
        counts=(2, 2), weights=(Fraction(2, 5), Fraction(3, 5)), users=2, cache=cache
    )


def unequal_config(cache: Fraction | str = "1/2") -> NetworkConfig:
    return make_config(
        counts=(1, 2), weights=(Fraction(1, 2), Fraction(1, 2)), users=2, cache=cache
    )


# (field, value, message): inputs that used to be truncated or read as 1
INEXACT_CONFIG_VALUES = [
    ("num_files", 2.7, "num_files must be an integer, got 2.7"),
    ("num_files", True, "num_files must be an integer, got True"),
    ("num_users", 2.7, "num_users must be an integer, got 2.7"),
    ("num_users", True, "num_users must be an integer, got True"),
    ("alpha", True, "refusing boolean True"),
    ("cache_size", True, "refusing boolean True"),
]


def config_with(field, value) -> dict:
    """A one-library network document with `field` (top level or library) set to `value`."""
    data = {"libraries": [{"num_files": 2, "alpha": "1"}], "num_users": 2, "cache_size": "1"}
    if field in data:
        data[field] = value
    else:
        data["libraries"][0][field] = value
    return data


def random_weights(rng: random.Random, count: int) -> list[Fraction]:
    raw = [rng.randint(1, 6) for _ in range(count)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def random_equal_n_config(rng: random.Random) -> NetworkConfig:
    L = rng.randint(1, 4)
    n = rng.randint(1, 4)
    k = rng.randint(1, 4)
    weights = random_weights(rng, L)
    # total content is n, so pick the budget on an eighths grid of it
    cache = Fraction(rng.randint(0, 8), 8) * n
    libs = tuple(LibrarySpec(n, w) for w in weights)
    return NetworkConfig(libraries=libs, num_users=k, cache_size=cache)


def random_config(rng: random.Random, max_libraries: int = 4) -> NetworkConfig:
    L = rng.randint(1, max_libraries)
    k = rng.randint(1, 4)
    weights = random_weights(rng, L)
    libs = tuple(LibrarySpec(rng.randint(1, 4), w) for w in weights)
    total = sum((lib.alpha * lib.num_files for lib in libs), Fraction(0))
    cache = Fraction(rng.randint(0, 8), 8) * total
    return NetworkConfig(libraries=libs, num_users=k, cache_size=cache)


def random_sim_config(rng: random.Random) -> NetworkConfig:
    # small enough to enumerate every demand vector
    while True:
        L = rng.randint(1, 3)
        k = rng.randint(1, 3)
        counts = [rng.randint(1, 4) for _ in range(L)]
        product = 1
        for n in counts:
            product *= n**k
        if product <= 1024:
            break
    weights = random_weights(rng, L)
    libs = tuple(LibrarySpec(n, w) for n, w in zip(counts, weights))
    return NetworkConfig(libraries=libs, num_users=k, cache_size=Fraction(0))


def curves_for(config: NetworkConfig, kind: str = "auto") -> list[PiecewiseLinearTradeoff]:
    return [
        build_by_kind(kind, lib.num_files, config.num_users) for lib in config.libraries
    ]


def random_corner_allocation(
    rng: random.Random, config: NetworkConfig
) -> tuple[NetworkConfig, Allocation]:
    """Pick one scheme-envelope vertex per library; returns the config rebuilt
    with the matching budget plus the allocation itself."""
    picks = []
    for lib in config.libraries:
        env = build_scheme_tradeoff(lib.num_files, config.num_users)
        theta = rng.choice(fractions(env.breakpoint_ratios))
        picks.append(theta * lib.alpha)
    total = sum(picks, Fraction(0))
    rebuilt = NetworkConfig(
        libraries=config.libraries, num_users=config.num_users, cache_size=total
    )
    return rebuilt, Allocation(tuple(picks))


def flip(bits: BitString, index: int) -> BitString:
    """A copy of `bits` with the bit at `index` toggled; index 0 is the most
    significant bit, as in `BitString.slice`."""
    if not 0 <= index < bits.width:
        raise ValueError(f"bit index {index} outside width {bits.width}")
    return BitString(bits.width, bits.value ^ (1 << (bits.width - 1 - index)))


def row_pass(store: sim.FileStore, config: NetworkConfig, allocation: Allocation) -> sim.RowPass:
    """A fresh row pass over the store placed with `allocation`."""
    return sim.RowPass(store, config, sim.place(store, config, allocation))


def reference_decode(placement, transcript, user: int, library: int):
    """`sim.decode` of one library read off a full delivery transcript."""
    parts = transcript.per_library[library - 1]
    row = transcript.demand.rows[library - 1]
    return sim.decode(placement, parts, row, user, library)


def reference_verify(
    store: sim.FileStore, config: NetworkConfig, allocation: Allocation
) -> sim.VerificationReport:
    """The full product loop: deliver and decode every demand vector end to end
    through the public `sim.deliver`/`sim.decode`, raising on the first failure."""
    placement = sim.place(store, config, allocation)
    L = config.num_libraries
    max_total = 0
    per_lib_max = [0] * L
    count = 0
    for demand in enumerate_demands(config):
        transcript = sim.deliver(store, config, placement, demand)
        max_total = max(max_total, transcript.total_bits)
        for lib, parts in enumerate(transcript.per_library):
            per_lib_max[lib] = max(per_lib_max[lib], sum(part.bits for part in parts))
        for user in range(1, config.num_users + 1):
            for lib in range(1, L + 1):
                actual = reference_decode(placement, transcript, user, lib)
                expected = store.files[lib - 1][demand.rows[lib - 1][user - 1] - 1]
                if actual != expected:
                    raise sim.DecodeMismatchError(demand, user, lib, expected, actual)
        count += 1
    return sim.VerificationReport(
        demands_checked=count,
        demand_vectors_run=count,
        base_size=store.base_size,
        allocation=allocation,
        formula_rate=split_rate(config, allocation, curves_for(config, "scheme")),
        measured_rate=Fraction(max_total, store.base_size),
        max_total_bits=max_total,
        per_library_max_bits=tuple(per_lib_max),
    )


def reference_file_subfiles(files, plan: sim.LibraryPlan, num_users: int):
    """One library's files cut with `BitString.slice`: per plan part, per file,
    subfile i of the part is the i-th slice of `subfile_bits` bits after the
    part's offset, in lexicographic subset order (t = 0: one slice, the part)."""
    table = []
    offset = 0
    for part in plan.parts:
        sub = part.subfile_bits
        table.append(
            tuple(
                tuple(
                    content.slice(offset + i * sub, offset + (i + 1) * sub)
                    for i in range(math.comb(num_users, part.t))
                )
                for content in files
            )
        )
        offset += part.file_bits
    return tuple(table)


def reference_library_transcript(table, plan: sim.LibraryPlan, num_users: int, row):
    """One library's transcript XORed one subfile at a time from its server
    subfile table: each size-(t + 1) group's message XORs, member by member,
    the subfile of that member's request indexed by the group without it."""
    parts = []
    for part, per_file in zip(plan.parts, table):
        if part.t == 0:
            messages = tuple(per_file[n - 1][0] for n in sorted(set(row)))
        else:
            rank = {s: i for i, s in enumerate(combinations(range(1, num_users + 1), part.t))}
            messages = []
            for group in combinations(range(1, num_users + 1), part.t + 1):
                msg = 0
                for member in group:
                    msg ^= per_file[row[member - 1] - 1][rank[tuple(x for x in group if x != member)]]
                messages.append(msg)
            messages = tuple(messages)
        parts.append(sim.PartTranscript(t=part.t, subfile_bits=part.subfile_bits, messages=messages))
    return tuple(parts)


def reference_subfile_decode(placement: sim.PlacementState, parts, row, user: int, library: int):
    """`user`'s decode rebuilt one subfile at a time from its own subfile table
    (`cached_subfiles`): a cached subfile is read, any other subfile S is the
    message of group S + {user} XORed with every other member's cached piece."""
    k = len(row)
    table = placement.cached_subfiles[user - 1][library - 1]
    value = width = 0
    for part, part_tr, per_file in zip(placement.plans[library - 1].parts, parts, table):
        sub = part.subfile_bits
        width += part.file_bits
        if part.t == 0:
            value = (value << sub) | part_tr.messages[sorted(set(row)).index(row[user - 1])]
            continue
        subsets = list(combinations(range(1, k + 1), part.t))
        position = {s: p for p, s in enumerate(s for s in subsets if user in s)}
        group_rank = {g: i for i, g in enumerate(combinations(range(1, k + 1), part.t + 1))}
        for subset in subsets:
            if user in subset:
                piece = per_file[row[user - 1] - 1][position[subset]]
            else:
                group = tuple(sorted(subset + (user,)))
                piece = part_tr.messages[group_rank[group]]
                for member in group:
                    if member != user:
                        rest = tuple(x for x in group if x != member)
                        piece ^= per_file[row[member - 1] - 1][position[rest]]
            value = (value << sub) | piece
    return BitString(width, value)


def reference_betas(config: NetworkConfig) -> tuple[Fraction, ...]:
    """Stacked file sizes summed level by level through `subfile_level`."""
    sorted_config, _ = sort_by_library_size(config)
    total = sum((lib.alpha * lib.num_files for lib in config.libraries), Fraction(0))
    scale = Fraction(max(config.file_counts)) / total
    return tuple(
        sum(
            (lib.alpha for lib in sorted_config.libraries[subfile_level(sorted_config, n) - 1 :]),
            Fraction(0),
        )
        * scale
        for n in range(1, max(config.file_counts) + 1)
    )


def reference_reduction(
    store: sim.FileStore, config: NetworkConfig, placement: sim.PlacementState
) -> sim.ReductionReport:
    """Serve every stacked demand with its own full delivery and decodes."""
    sorted_config, permutation = sort_by_library_size(config)
    n_max = concatenate(config).num_files
    k = config.num_users
    max_total = 0
    checked = 0
    for prime in product(range(1, n_max + 1), repeat=k):
        induced = DemandVector(tuple(tuple(min(x, n) for x in prime) for n in config.file_counts))
        transcript = sim.deliver(store, config, placement, induced)
        max_total = max(max_total, transcript.total_bits)
        for user, n in enumerate(prime, start=1):
            level = subfile_level(sorted_config, n)
            keep = [permutation[pos] for pos in range(level - 1, config.num_libraries)]
            actual = concat(
                reference_decode(placement, transcript, user, orig) for orig in keep
            )
            expected = concat(store.files[orig - 1][n - 1] for orig in keep)
            if actual != expected:
                raise sim.DecodeMismatchError(induced, user, 0, expected, actual)
        checked += 1
    stacked_bits = tuple(
        sum(
            int(lib.alpha * store.base_size)
            for lib in sorted_config.libraries[subfile_level(sorted_config, n) - 1 :]
        )
        for n in range(1, n_max + 1)
    )
    return sim.ReductionReport(
        demands_checked=checked,
        stacked_file_bits=stacked_bits,
        cache_bits=placement.cache_bits(1),
        max_total_bits=max_total,
    )


def scheme_corner_points(num_files: int, num_users: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Achievable (memory, rate) corners of the subset-coded broadcast scheme.

    For cache parameter t = 0..K the scheme stores t/K of each file and
    serves any demand at rate (K - t)/(1 + t), capped for t = 0 by sending
    each of the at most min(N, K) distinct requested files whole.
    """
    if num_files < 1 or num_users < 1:
        raise ValueError("need at least one file and one user")
    n, k = num_files, num_users
    pts = [(Fraction(0), Fraction(min(n, k)))]
    for t in range(1, k + 1):
        pts.append((Fraction(t * n, k), Fraction(k - t, 1 + t)))
    return tuple(pts)


def reference_scheme_tradeoff(num_files: int, num_users: int) -> PiecewiseLinearTradeoff:
    """The scheme curve as the hull of all K + 1 corners."""
    return lower_convex_envelope(
        scheme_corner_points(num_files, num_users),
        num_files,
        label=f"scheme(N={num_files},K={num_users})",
    )


def reference_greedy(config: NetworkConfig, tradeoffs) -> AllocationTrace:
    """Greedy split by rescanning every library for the steepest next segment
    on each step; ties to the smallest library index."""
    alphas = config.alphas
    budget = config.cache_size
    views = [fraction_curve(curve) for curve in tradeoffs]
    cursor = [0] * config.num_libraries
    filled = [Fraction(0)] * config.num_libraries
    steps = []
    total = Fraction(0)
    while total < budget:
        best, best_slope = -1, Fraction(-1)
        for lib in range(config.num_libraries):
            seg = cursor[lib]
            if seg < views[lib].num_segments and views[lib].slopes[seg] > best_slope:
                best, best_slope = lib, views[lib].slopes[seg]
        if best < 0:
            raise ValueError(f"budget {budget} exceeds total content")
        bp = views[best].breakpoints
        seg = cursor[best]
        width = alphas[best] * (bp[seg + 1] - bp[seg])
        delta = min(width, budget - total)
        filled[best] += delta
        total += delta
        # the step's memories as ints over the lcm of their denominators
        scale = math.lcm(delta.denominator, total.denominator)
        steps.append(AllocationStep(best + 1, seg, int(delta * scale), int(total * scale), scale))
        if delta == width:
            cursor[best] += 1
    final = Allocation(tuple(filled))
    return AllocationTrace(
        steps=tuple(steps),
        final=final,
        rate=memory_sharing_rate(config, final, tradeoffs),
        tradeoff_labels=tuple(curve.label for curve in tradeoffs),
    )


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _oracle_candidates(config: NetworkConfig, tradeoffs, grid_step: Fraction) -> list:
    """The oracle's grid and corner-aligned splits, as Fractions, in its order."""
    L = config.num_libraries
    budget = config.cache_size
    alphas = config.alphas
    ratio = budget / grid_step
    candidates = []
    if ratio.denominator == 1:
        for comp in _compositions(int(ratio), L):
            candidates.append(tuple(k * grid_step for k in comp))
    for free in range(L):
        axes = [
            [bp * alphas[lib] for bp in fractions(tradeoffs[lib].breakpoint_ratios)]
            for lib in range(L)
            if lib != free
        ]
        for combo in product(*axes):
            remainder = budget - sum(combo, Fraction(0))
            if 0 <= remainder <= alphas[free] * tradeoffs[free].num_files:
                split = list(combo)
                split.insert(free, remainder)
                candidates.append(tuple(split))
    return candidates


def reference_brute_force(
    config: NetworkConfig, tradeoffs, grid_step: Fraction
) -> tuple[Allocation, Fraction]:
    """Every grid and corner-aligned split rated on its own by
    `memory_sharing_rate`; ties to the lexicographically smallest split."""
    best_split, best_rate = None, None
    for split in _oracle_candidates(config, tradeoffs, grid_step):
        rate = memory_sharing_rate(config, Allocation(split), tradeoffs)
        if best_rate is None or (rate, split) < (best_rate, best_split):
            best_split, best_rate = split, rate
    return Allocation(best_split), best_rate


def reference_tabulated_oracle(
    config: NetworkConfig, tradeoffs, grid_step: Fraction
) -> tuple[Allocation, Fraction]:
    """The oracle on Fractions: each library's rate share tabulated once per
    Fraction memory, candidates rated as Fraction sums; ties to the
    lexicographically smallest split."""
    alphas = config.alphas
    parts: list[dict[Fraction, Fraction]] = [{} for _ in alphas]
    best_split, best_rate = None, None
    for split in _oracle_candidates(config, tradeoffs, grid_step):
        for lib, m in enumerate(split):
            if m not in parts[lib]:
                parts[lib][m] = alphas[lib] * tradeoffs[lib].evaluate(m / alphas[lib])
        rate = sum(part[m] for part, m in zip(parts, split))
        if best_rate is None or rate < best_rate or (rate == best_rate and split < best_split):
            best_split, best_rate = split, rate
    if best_split is None:
        raise ValueError("no feasible split on the grid")
    best = Allocation(best_split)
    return best, memory_sharing_rate(config, best, tradeoffs)


def reference_check_curve(num_files: int, bp, sl, ic) -> None:
    """The shape checks of `PiecewiseLinearTradeoff`, in Fraction arithmetic:
    raise the same ValueError for the same first violation, else return."""
    if num_files < 1:
        raise ValueError(f"num_files = {num_files} < 1")
    if len(bp) < 2 or len(sl) != len(bp) - 1 or len(ic) != len(sl):
        raise ValueError("need r >= 1 segments with matching slope/intercept counts")
    if bp[0] != 0 or bp[-1] != num_files:
        raise ValueError(f"breakpoints must run from 0 to {num_files}, got {bp}")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if any(g <= 0 for g in sl):
        raise ValueError("slopes must be positive")
    if any(a <= b for a, b in zip(sl, sl[1:])):
        raise ValueError("slopes must be strictly decreasing (convexity)")
    for i in range(len(sl) - 1):
        left = ic[i] - sl[i] * bp[i + 1]
        right = ic[i + 1] - sl[i + 1] * bp[i + 1]
        if left != right:
            raise ValueError(f"discontinuity at breakpoint {bp[i + 1]}: {left} != {right}")
    if ic[-1] - sl[-1] * bp[-1] != 0:
        raise ValueError(f"curve must hit zero at memory {num_files}")


def reference_envelope(points, num_files: int, label: str = "envelope") -> PiecewiseLinearTradeoff:
    """Lower convex envelope with Fraction orientation tests and Fraction edges."""
    pts = sorted((Fraction(m), Fraction(r)) for m, r in points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    for (m1, _), (m2, _) in zip(pts, pts[1:]):
        if m1 == m2:
            raise ValueError(f"duplicate memory value {m1}")
    if pts[0][0] != 0:
        raise ValueError("missing anchor point at memory 0")
    if pts[-1] != (Fraction(num_files), Fraction(0)):
        raise ValueError(f"missing anchor point ({num_files}, 0)")
    for m, r in pts:
        if r < 0:
            raise ValueError(f"negative rate {r} at memory {m}")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (by - ay) * (p[0] - bx) >= (p[1] - by) * (bx - ax):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes, intercepts = [], []
    for (m1, r1), (m2, r2) in zip(hull, hull[1:]):
        gamma = (r1 - r2) / (m2 - m1)
        slopes.append(gamma)
        intercepts.append(r1 + gamma * m1)
    return PiecewiseLinearTradeoff(
        num_files=num_files,
        breakpoint_ratios=ratios(m for m, _ in hull),
        slope_ratios=ratios(slopes),
        intercept_ratios=ratios(intercepts),
        label=label,
    )


def reference_segment_of(curve: FractionCurve, memory: Fraction) -> int:
    """`segment_of` by a bisect over the curve's Fraction breakpoints."""
    if memory < 0:
        raise ValueError(f"memory {memory} < 0")
    if memory >= curve.num_files:
        return curve.num_segments
    return bisect_right(curve.breakpoints, memory) - 1


def reference_evaluate(curve: FractionCurve, memory: Fraction) -> Fraction:
    """`evaluate` in Fraction arithmetic on the bisected segment."""
    i = reference_segment_of(curve, memory)
    if i == curve.num_segments:
        return Fraction(0)
    return curve.intercepts[i] - curve.slopes[i] * memory


def reference_right_slope(curve: FractionCurve, segment: int) -> Fraction:
    return curve.slopes[segment] if segment < curve.num_segments else Fraction(0)


def reference_corners_json(curve: FractionCurve) -> list[tuple[str, str]]:
    """`tradeoff_rows`' corners: str() of each corner's Fraction memory and rate."""
    bp, sl, ic = curve.breakpoints, curve.slopes, curve.intercepts
    corners = [(str(m), str(z - g * m)) for m, g, z in zip(bp, sl, ic)]
    return corners + [(str(bp[-1]), "0")]


def reference_segments_json(curve: FractionCurve) -> list[tuple[str, ...]]:
    """`tradeoff_rows`' segments: str() of each segment's Fraction start,
    end, intercept and negated slope."""
    bp, sl, ic = curve.breakpoints, curve.slopes, curve.intercepts
    return [
        (str(bp[i]), str(bp[i + 1]), str(ic[i]), str(-sl[i]))
        for i in range(curve.num_segments)
    ]


def reference_structure_violations(
    config: NetworkConfig, tradeoffs, allocation: Allocation
) -> list[str]:
    """`corner_structure_violations` in Fraction arithmetic: the same
    messages, in the same order."""
    views = [fraction_curve(curve) for curve in tradeoffs]
    index, interior = [], []
    for m, alpha, curve in zip(allocation.per_library, config.alphas, views):
        seg = reference_segment_of(curve, m / alpha)
        index.append(seg)
        interior.append(seg < curve.num_segments and curve.breakpoints[seg] != m / alpha)
    gains = [reference_right_slope(curve, seg) for curve, seg in zip(views, index)]
    violations = []
    inside = [lib for lib, flag in enumerate(interior) if flag]
    if len(inside) > 1:
        violations.append(
            f"libraries {[lib + 1 for lib in inside]} all sit strictly inside a segment"
        )
    pivot = inside[0] if inside else max(range(len(gains)), key=gains.__getitem__)
    for lib, gain in enumerate(gains):
        if gain > gains[pivot]:
            violations.append(
                f"library {lib + 1} next gain {gain} beats stopping gain {gains[pivot]}"
            )
        for other, seg in enumerate(index):
            if seg > 0 and gain > views[other].slopes[seg - 1]:
                violations.append(
                    f"library {lib + 1} next gain {gain} beats consumed segment "
                    f"of library {other + 1} ({views[other].slopes[seg - 1]})"
                )
    return violations
