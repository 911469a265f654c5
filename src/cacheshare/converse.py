"""Lower bounds on the delivery rate via a single concatenated library.

Stacking the libraries into one library of N_max files (file n of the stack
concatenates file n of every library large enough to have one, libraries
sorted by ascending file count) turns any multi-library scheme into a
single-library scheme for the stack. Bounds for the stacked network therefore
bound the original one, after translating units: stacked files average size
sum(alpha_l * N_l) / N_max rather than 1, so memory scales up and rate scales
down by c = N_max / sum(alpha_l * N_l) when crossing over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .model import NetworkConfig, to_fraction, total_content
from .tradeoff import Curve


@dataclass(frozen=True)
class ConcatenatedLibrary:
    """The stacked library: file n has relative size betas[n-1].

    `permutation[i]` is the original 1-based index of the i-th library after
    sorting by file count; `scale` is the sorted network's
    `concatenation_scale`.
    """

    permutation: tuple[int, ...]
    betas: tuple[Fraction, ...]
    scale: Fraction

    @property
    def num_files(self) -> int:
        return len(self.betas)


def sort_by_library_size(config: NetworkConfig) -> tuple[NetworkConfig, tuple[int, ...]]:
    """Stable-sort libraries by ascending file count; returns (config, permutation)."""
    order = sorted(range(config.num_libraries), key=lambda i: config.libraries[i].num_files)
    sorted_config = NetworkConfig(
        libraries=tuple(config.libraries[i] for i in order),
        num_users=config.num_users,
        cache_size=config.cache_size,
    )
    return sorted_config, tuple(i + 1 for i in order)


def subfile_level(config: NetworkConfig, n: int) -> int:
    """1-based index of the smallest library still holding a file numbered n.

    Requires libraries sorted by ascending file count; stacked file n draws
    one piece from every library at this level or above.
    """
    counts = config.file_counts
    if any(a > b for a, b in zip(counts, counts[1:])):
        raise ValueError(f"libraries must be sorted by file count, got {counts}")
    if not 1 <= n <= counts[-1]:
        raise ValueError(f"file index {n} out of range 1..{counts[-1]}")
    for idx, count in enumerate(counts, start=1):
        if n <= count:
            return idx
    raise AssertionError("unreachable")


def concatenate(config: NetworkConfig) -> ConcatenatedLibrary:
    """Stack all libraries into one of N_max files, sizes normalized so that
    the stack's total content equals N_max file-size units."""
    sorted_config, permutation = sort_by_library_size(config)
    scale = concatenation_scale(sorted_config)
    # stacked file n draws on every library holding at least n files, so its
    # size is the scale times a suffix sum of the sorted alphas, as ints over
    # their lcm B: walking down from the largest, library i adds its alpha and
    # sizes the stacked files above the next smaller library's count
    counts, alphas = sorted_config.file_counts, sorted_config.alphas
    B = math.lcm(*(alpha.denominator for alpha in alphas))
    c, d = scale.as_integer_ratio()
    betas: list[Fraction] = []
    raw = 0
    for i in range(len(counts) - 1, -1, -1):
        raw += alphas[i].numerator * (B // alphas[i].denominator)
        below = counts[i - 1] if i else 0
        betas += [Fraction(raw * c, B * d)] * (counts[i] - below)
    betas.reverse()
    return ConcatenatedLibrary(permutation=permutation, betas=tuple(betas), scale=scale)


def concatenation_scale(config: NetworkConfig) -> Fraction:
    """Unit conversion factor c = N_max / total content (1 for equal sizes)."""
    total = total_content(config)
    if total == 0:
        raise ValueError("network has no content")
    return Fraction(max(config.file_counts)) / total


def concatenated_cut_set_bound(
    betas: Sequence[Fraction], num_users: int, memory: Fraction
) -> Fraction:
    """Cut bound for one library whose files have the given relative sizes.

    A group of s users demanding b rounds of fresh files receives b payloads
    plus s caches covering the first s*b files in the given order, so
    R >= (beta_1 + ... + beta_{s*b} - s*M) / b for every s, b; clamped at 0.
    Sound for any order; strongest when sizes come largest first, which is the
    stack's natural order. The sums are ints over one lcm D and candidates
    are compared by cross-multiplying; only the bound returned is a Fraction.
    """
    memory = to_fraction(memory)
    if memory < 0:
        raise ValueError(f"memory {memory} < 0")
    n = len(betas)
    D = math.lcm(memory.denominator, *(beta.denominator for beta in betas))
    m = memory.numerator * (D // memory.denominator)
    prefix = [0, *accumulate(beta.numerator * (D // beta.denominator) for beta in betas)]
    best, best_rounds = 0, 1  # the bound is best / (best_rounds * D), at least 0
    for s in range(1, min(num_users, n) + 1):  # a larger group has no full round
        for rounds in range(1, n // s + 1):
            value = prefix[s * rounds] - s * m
            if value * best_rounds > best * rounds:
                best, best_rounds = value, rounds
    return Fraction(best, best_rounds * D)


def converse_bound(
    config: NetworkConfig,
    single_library_bound: Callable[[Fraction], Fraction] | None = None,
    stack: ConcatenatedLibrary | None = None,
) -> Fraction:
    """Lower bound on the network's rate from its stacked single library.

    `single_library_bound(m)` must lower-bound the rate of ANY scheme for the
    stacked library at per-user memory m (in stacked-file units where files
    average size 1). Default: the cut bound on the stack. The crossing scale
    c converts the network's budget into stack units and the stack's rate
    back. `stack` is `concatenate(config)`, built here unless passed in.
    """
    if stack is None:
        stack = concatenate(config)
    c = stack.scale
    memory = c * config.cache_size
    if single_library_bound is None:
        value = concatenated_cut_set_bound(stack.betas, config.num_users, memory)
    else:
        value = single_library_bound(memory)
    return value / c


@dataclass(frozen=True)
class GapReport:
    """Best known achievable rate vs best converse, and whether they meet;
    `stack` is the stacked library the converse was computed on."""

    achievable: Fraction
    converse: Fraction
    gap: Fraction
    status: str
    converse_kind: str
    stack: ConcatenatedLibrary

    def to_json(self) -> dict:
        return {
            "achievable": str(self.achievable),
            "converse": str(self.converse),
            "gap": str(self.gap),
            "status": self.status,
            "converse_kind": self.converse_kind,
        }


def conjecture_gap(config: NetworkConfig, tradeoffs: Sequence[Curve]) -> GapReport:
    """Compare the greedy split's rate against the best available converse.

    Equal-size libraries sharing one exact curve: the stacked network IS
    that library and the curve is optimal for it, so the curve is the
    converse (kind "exact"). Any other curve is only achievable, and a better
    scheme may beat it, so otherwise the converse is the cut bound on the
    stack (kind "cutset"). Status is "tight" exactly when the gap is zero.
    """
    from .allocation import greedy_rate  # local import, avoids a cycle

    achievable = greedy_rate(config, tradeoffs)
    curve = tradeoffs[0]
    stack = concatenate(config)
    if curve.exact and all(other == curve for other in tradeoffs):
        converse, kind = converse_bound(config, curve.evaluate, stack), "exact"
    else:
        converse, kind = converse_bound(config, stack=stack), "cutset"
    gap = achievable - converse
    return GapReport(
        achievable=achievable,
        converse=converse,
        gap=gap,
        status="tight" if gap == 0 else "open",
        converse_kind=kind,
        stack=stack,
    )
