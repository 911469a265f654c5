"""Bit-exact placement, delivery, and decoding of the subset-coded scheme.

Files are integer bit strings. A library running at per-library memory m
splits between the two adjacent vertices of its scheme envelope: each file is
cut into one or two parts, part p run at integer cache parameter t_p, and a
part is divided into C(K, t_p) subfiles indexed by the size-t_p user subsets
in lexicographic order. User k caches exactly the subfiles whose subset
contains k. Delivery XORs, per size-(t_p + 1) subset S, the subfiles
wanted-by/unknown-to each member of S; the uncoded part (t = 0) sends each
distinct requested part once. Decoding uses only the user's own cache and the
transcript.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

from .allocation import Allocation, split_rate
from .bits import BitString, concat, random_bits
from .converse import sort_by_library_size, subfile_level
from .model import (
    DEFAULT_DEMAND_CAP,
    CapExceededError,
    DemandVector,
    NetworkConfig,
    check_demand_cap,
)
from .tradeoff import PiecewiseLinearTradeoff, build_scheme_tradeoff


class DivisibilityError(ValueError):
    """The base size cannot be cut into the integer subfiles the plan needs."""


class DecodeMismatchError(Exception):
    """A user failed to reconstruct its requested file, with the witness."""

    def __init__(
        self,
        demand: DemandVector,
        user: int,
        library: int,
        expected: BitString,
        actual: BitString,
    ) -> None:
        self.demand = demand
        self.user = user
        self.library = library
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"user {user} decoded library {library} incorrectly under demand {demand.rows}"
        )


@dataclass(frozen=True)
class FileStore:
    """Concrete file contents: files[library][file_id - 1], all bits."""

    base_size: int
    files: tuple[tuple[BitString, ...], ...]


@dataclass(frozen=True)
class SchemePart:
    t: int
    file_bits: int
    subfile_bits: int


@dataclass(frozen=True)
class LibraryPlan:
    parts: tuple[SchemePart, ...]

    @property
    def file_bits(self) -> int:
        return sum(p.file_bits for p in self.parts)


@dataclass(frozen=True)
class PlacementState:
    """Per-user caches, one segment per library: caches[user - 1][library - 1].

    `formula_rate` is the split's rate on the scheme envelopes, the value
    delivery must realize."""

    allocation: Allocation
    plans: tuple[LibraryPlan, ...]
    caches: tuple[tuple[BitString, ...], ...]
    formula_rate: Fraction

    def cache_bits(self, user: int) -> int:
        return sum(seg.width for seg in self.caches[user - 1])


@dataclass(frozen=True)
class PartTranscript:
    """One plan part's messages: for t = 0 each distinct requested file's part
    in id order, else one XOR per size-(t + 1) user subset in lexicographic order."""

    t: int
    messages: tuple[BitString, ...]

    @property
    def bits(self) -> int:
        return sum(m.width for m in self.messages)


@dataclass(frozen=True)
class DeliveryTranscript:
    demand: DemandVector
    per_library: tuple[tuple[PartTranscript, ...], ...]

    @property
    def total_bits(self) -> int:
        return sum(part.bits for parts in self.per_library for part in parts)


def library_bit_requirement(config: NetworkConfig) -> int:
    """Base sizes must be multiples of this just to give files integer bits."""
    req = 1
    for lib in config.libraries:
        req = math.lcm(req, lib.alpha.denominator)
    return req


def random_file_store(config: NetworkConfig, base_size: int, seed: int) -> FileStore:
    """Independent uniform file contents; library l files get alpha_l * base_size bits."""
    req = library_bit_requirement(config)
    if base_size < 1 or base_size % req:
        raise DivisibilityError(
            f"base size {base_size} bits leaves fractional files; use a multiple of {req}"
        )
    rng = random.Random(seed)
    files = tuple(
        tuple(
            random_bits(int(lib.alpha * base_size), rng) for _ in range(lib.num_files)
        )
        for lib in config.libraries
    )
    return FileStore(base_size=base_size, files=files)


def scheme_curves(
    config: NetworkConfig, curves: Sequence[PiecewiseLinearTradeoff] | None = None
) -> Sequence[PiecewiseLinearTradeoff]:
    """Each library's scheme envelope, built once per distinct file count.

    Given `curves`, check that they are those envelopes and return them as is,
    so a command can build them once and pass them to every step.
    """
    k = config.num_users
    if curves is not None:
        if [c.label for c in curves] != [f"scheme(N={n},K={k})" for n in config.file_counts]:
            raise ValueError("the simulator needs each library's own scheme curve")
        return curves
    built = {n: build_scheme_tradeoff(n, k) for n in dict.fromkeys(config.file_counts)}
    return [built[n] for n in config.file_counts]


def _plan_weights(
    config: NetworkConfig,
    allocation: Allocation,
    curves: Sequence[PiecewiseLinearTradeoff] | None,
) -> list[list[tuple[int, Fraction]]]:
    """Per library, the (t, fraction-of-file) parts realizing its memory slice."""
    if len(allocation.per_library) != config.num_libraries:
        raise ValueError(
            f"allocation has {len(allocation.per_library)} entries for "
            f"{config.num_libraries} libraries"
        )
    k = config.num_users
    out: list[list[tuple[int, Fraction]]] = []
    for idx, (lib, budget, env) in enumerate(
        zip(config.libraries, allocation.per_library, scheme_curves(config, curves)), start=1
    ):
        m = budget / lib.alpha
        n = lib.num_files
        if m > n:
            raise ValueError(
                f"library {idx} gets memory {budget}, more than its content {lib.alpha * n}"
            )
        seg = env.segment_index(m) if m < n else env.num_segments
        parts: list[tuple[int, Fraction]]
        if seg == env.num_segments or env.breakpoints[seg] == m:
            theta = m
            t = theta * k / n
            assert t.denominator == 1
            parts = [(int(t), Fraction(1))]
        else:
            lo, hi = env.breakpoints[seg], env.breakpoints[seg + 1]
            t_lo, t_hi = lo * k / n, hi * k / n
            assert t_lo.denominator == 1 and t_hi.denominator == 1
            u = (hi - m) / (hi - lo)
            parts = [(int(t_lo), u), (int(t_hi), 1 - u)]
        out.append(parts)
    return out


def _base_requirement(config: NetworkConfig, weights: list[list[tuple[int, Fraction]]]) -> int:
    req = library_bit_requirement(config)
    k = config.num_users
    for lib, parts in zip(config.libraries, weights):
        for t, weight in parts:
            per_subfile = lib.alpha * weight / math.comb(k, t)
            req = math.lcm(req, per_subfile.denominator)
    return req


def required_base_size(
    config: NetworkConfig,
    allocation: Allocation,
    curves: Sequence[PiecewiseLinearTradeoff] | None = None,
) -> int:
    """Smallest base size (total bits) this split can run at; valid sizes are
    its multiples. Covers whole-bit files, parts, and subfiles. Pass the
    libraries' scheme curves as `curves` to skip building them."""
    return _base_requirement(config, _plan_weights(config, allocation, curves))


def build_plans(
    config: NetworkConfig,
    allocation: Allocation,
    base_size: int,
    curves: Sequence[PiecewiseLinearTradeoff] | None = None,
) -> tuple[LibraryPlan, ...]:
    weights = _plan_weights(config, allocation, curves)
    req = _base_requirement(config, weights)
    if base_size < 1 or base_size % req:
        raise DivisibilityError(
            f"base size {base_size} bits cannot realize this split; "
            f"use a multiple of {req}"
        )
    k = config.num_users
    plans = []
    for lib, parts in zip(config.libraries, weights):
        scheme_parts = []
        for t, weight in parts:
            sub = lib.alpha * weight * base_size / math.comb(k, t)
            assert sub.denominator == 1
            scheme_parts.append(
                SchemePart(t=t, file_bits=int(sub) * math.comb(k, t), subfile_bits=int(sub))
            )
        plans.append(LibraryPlan(parts=tuple(scheme_parts)))
    return tuple(plans)


@lru_cache(maxsize=None)
def _subsets(num_users: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, num_users + 1), size))


@lru_cache(maxsize=None)
def _subset_rank(num_users: int, size: int) -> dict:
    return {s: i for i, s in enumerate(_subsets(num_users, size))}


@lru_cache(maxsize=None)
def _user_subset_ranks(num_users: int, size: int, user: int) -> tuple[int, ...]:
    """Lexicographic ranks of the size-`size` subsets containing `user`: the
    subfiles of one file that user caches, in cache order."""
    return tuple(i for i, s in enumerate(_subsets(num_users, size)) if user in s)


@lru_cache(maxsize=None)
def _delivery_table(num_users: int, t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per size-(t + 1) group, in lexicographic order: (member, rank of the
    group without that member) for each member, the subfiles its message XORs."""
    rank = _subset_rank(num_users, t)
    return tuple(
        tuple((member, rank[tuple(x for x in group if x != member)]) for member in group)
        for group in _subsets(num_users, t + 1)
    )


@lru_cache(maxsize=None)
def _decode_table(
    num_users: int, t: int, user: int
) -> tuple[tuple[int, tuple[tuple[int, int], ...] | None], ...]:
    """How `user` recovers each size-t subfile, subsets in lexicographic order.

    (p, None): the subfile sits at position p of the user's cached block.
    (m, pairs): XOR message m (the rank of subset + {user}) with the cached
    subfile at each (member, position) of pairs, read from that member's file.
    """
    position = {s: p for p, s in enumerate(s for s in _subsets(num_users, t) if user in s)}
    group_rank = _subset_rank(num_users, t + 1)
    table = []
    for subset in _subsets(num_users, t):
        if user in subset:
            table.append((position[subset], None))
            continue
        group = tuple(sorted(subset + (user,)))
        pairs = tuple(
            (member, position[tuple(x for x in group if x != member)])
            for member in group
            if member != user
        )
        table.append((group_rank[group], pairs))
    return tuple(table)


def place(
    store: FileStore,
    config: NetworkConfig,
    allocation: Allocation,
    curves: Sequence[PiecewiseLinearTradeoff] | None = None,
) -> PlacementState:
    """Fill every user's cache; deterministic given the store and the split.

    Cache layout per (user, library): parts in plan order, files in id order,
    cached subsets in lexicographic order. `curves` are the libraries' scheme
    curves; None builds them.
    """
    curves = scheme_curves(config, curves)
    plans = build_plans(config, allocation, store.base_size, curves)
    k = config.num_users
    caches = []
    for user in range(1, k + 1):
        segments = []
        for files, plan in zip(store.files, plans):
            value = width = offset = 0
            for part in plan.parts:
                sub = part.subfile_bits
                if part.t:
                    mask = (1 << sub) - 1
                    ranks = _user_subset_ranks(k, part.t, user)
                    for content in files:
                        top = content.width - offset - sub
                        for rank in ranks:
                            value = (value << sub) | ((content.value >> (top - rank * sub)) & mask)
                    width += len(files) * len(ranks) * sub
                offset += part.file_bits
            segments.append(BitString(width, value))
        caches.append(tuple(segments))
    return PlacementState(
        allocation=allocation,
        plans=plans,
        caches=tuple(caches),
        formula_rate=split_rate(config, allocation, curves),
    )


def _library_transcript(
    files: tuple[BitString, ...], plan: LibraryPlan, num_users: int, row: tuple[int, ...]
) -> tuple[PartTranscript, ...]:
    """One library's share of the broadcast for one demand row, XORed on raw ints."""
    parts = []
    offset = 0
    for part in plan.parts:
        sub = part.subfile_bits
        if part.t == 0:
            messages = tuple(files[n - 1].slice(offset, offset + sub) for n in sorted(set(row)))
            parts.append(PartTranscript(t=0, messages=messages))
        else:
            mask = (1 << sub) - 1
            top = files[0].width - offset - sub
            requested = [files[n - 1].value for n in row]
            messages = []
            for group in _delivery_table(num_users, part.t):
                msg = 0
                for member, rank in group:
                    msg ^= (requested[member - 1] >> (top - rank * sub)) & mask
                messages.append(BitString(sub, msg))
            parts.append(PartTranscript(t=part.t, messages=tuple(messages)))
        offset += part.file_bits
    return tuple(parts)


def deliver(
    store: FileStore,
    config: NetworkConfig,
    placement: PlacementState,
    demand: DemandVector,
) -> DeliveryTranscript:
    """Broadcast transcript serving every user's request in one shot."""
    demand.validate_for(config)
    k = config.num_users
    per_library = tuple(
        _library_transcript(files, plan, k, row)
        for files, plan, row in zip(store.files, placement.plans, demand.rows)
    )
    return DeliveryTranscript(demand=demand, per_library=per_library)


def decode(
    placement: PlacementState,
    parts: Sequence[PartTranscript],
    row: tuple[int, ...],
    config: NetworkConfig,
    user: int,
    library: int,
) -> BitString:
    """Reconstruct the file `user` requested from `library` (both 1-based),
    using only that user's cache and the library's transcript `parts` for
    demand row `row`."""
    lib_idx = library - 1
    k = config.num_users
    n = config.libraries[lib_idx].num_files
    want = row[user - 1]
    segment = placement.caches[user - 1][lib_idx]
    cache = segment.value
    # shifting the segment right by `top - i * sub` leaves subfile i of the
    # current part's cached block in the low bits
    top = segment.width
    value = width = 0
    for part, part_tr in zip(placement.plans[lib_idx].parts, parts):
        sub = part.subfile_bits
        width += part.file_bits
        if part.t == 0:
            msg = part_tr.messages[sorted(set(row)).index(want)]
            value = (value << sub) | msg.value
            continue
        per_file = math.comb(k - 1, part.t - 1)
        mask = (1 << sub) - 1
        top -= sub
        messages = part_tr.messages
        for pos, pairs in _decode_table(k, part.t, user):
            if pairs is None:
                piece = (cache >> (top - ((want - 1) * per_file + pos) * sub)) & mask
            else:
                piece = messages[pos].value
                for member, p in pairs:
                    piece ^= (cache >> (top - ((row[member - 1] - 1) * per_file + p) * sub)) & mask
            value = (value << sub) | piece
        top -= (n * per_file - 1) * sub
    return BitString(width, value)


@dataclass(frozen=True)
class RowOutcome:
    """One library serving one demand row: its transcript bits, every user's
    decode of that library, and the users whose decode differs from the file."""

    bits: int
    decoded: tuple[BitString, ...]
    failed: tuple[int, ...]


class RowPass:
    """Library-by-library delivery and decoding, each (library, row) served once.

    Libraries never interact: the library-l transcript and every library-l
    decode read only row l of the demand and segment l of each cache. Serving a
    row delivers that library once, decodes every user once and compares each
    decode with the stored file; the outcome is kept, so `verify_all` and
    `reduction_demo` can read the same rows without serving them twice. The
    row pass is the one context of a run: both read the store, the network
    and the placement from it.
    """

    def __init__(self, store: FileStore, config: NetworkConfig, placement: PlacementState):
        self.store = store
        self.config = config
        self.placement = placement
        self.outcomes: tuple[dict[tuple[int, ...], RowOutcome], ...] = tuple(
            {} for _ in config.libraries
        )

    @property
    def served(self) -> int:
        """Library rows served so far."""
        return sum(len(rows) for rows in self.outcomes)

    def serve(self, library: int, row: tuple[int, ...]) -> RowOutcome:
        known = self.outcomes[library - 1]
        outcome = known.get(row)
        if outcome is None:
            outcome = known[row] = self._serve(library, row)
        return outcome

    def _serve(self, library: int, row: tuple[int, ...]) -> RowOutcome:
        config = self.config
        lib_idx = library - 1
        files = self.store.files[lib_idx]
        parts = _library_transcript(files, self.placement.plans[lib_idx], config.num_users, row)
        decoded = tuple(
            decode(self.placement, parts, row, config, user, library)
            for user in range(1, config.num_users + 1)
        )
        failed = tuple(
            user
            for user, (actual, want) in enumerate(zip(decoded, row), start=1)
            if actual != files[want - 1]
        )
        return RowOutcome(bits=sum(part.bits for part in parts), decoded=decoded, failed=failed)


@dataclass(frozen=True)
class VerificationReport:
    demands_checked: int
    demand_vectors_run: int
    base_size: int
    allocation: Allocation
    formula_rate: Fraction
    measured_rate: Fraction
    max_total_bits: int
    per_library_max_bits: tuple[int, ...]

    def to_json(self) -> dict:
        from .model import format_decimal

        return {
            "demands_checked": self.demands_checked,
            "demand_vectors_run": self.demand_vectors_run,
            "base_size": self.base_size,
            "allocation": [str(m) for m in self.allocation.per_library],
            "formula_rate": str(self.formula_rate),
            "measured_rate": str(self.measured_rate),
            "measured_rate_decimal": format_decimal(self.measured_rate),
            "max_total_bits": self.max_total_bits,
            "per_library_max_bits": list(self.per_library_max_bits),
        }


def verify_all(rows: RowPass, cap: int = DEFAULT_DEMAND_CAP) -> VerificationReport:
    """Verify every demand vector, library by library; raise DecodeMismatchError
    with the lexicographically first witness, else report exact rates.

    Libraries never interact (see `RowPass`), so each library is served over
    its own N_l^K rows and every combination of per-library rows is a demand
    vector. A vector decodes exactly when each of its rows does, and its
    transcript length is the sum of its rows' lengths, so the worst case over
    all vectors is the sum of the per-library maxima. The measured rate is
    that sum divided by the base size; it must equal the formula rate bit for
    bit. `demands_checked` counts the vectors covered, the product of N_l^K;
    `demand_vectors_run` counts the library rows served, the sum of N_l^K.
    `cap` still bounds the covered vectors, with enumeration's error message.
    """
    config, store, placement = rows.config, rows.store, rows.placement
    covered = check_demand_cap(config, cap)
    k = config.num_users
    per_lib_max = []
    first_failing: list[tuple[int, ...] | None] = []
    for library, lib in enumerate(config.libraries, start=1):
        most, failing = 0, None
        for row in product(range(1, lib.num_files + 1), repeat=k):
            outcome = rows.serve(library, row)
            most = max(most, outcome.bits)
            if failing is None and outcome.failed:
                failing = row
        per_lib_max.append(most)
        first_failing.append(failing)
    if any(first_failing):
        raise _first_witness(rows, first_failing)
    max_total = sum(per_lib_max)
    return VerificationReport(
        demands_checked=covered,
        demand_vectors_run=rows.served,
        base_size=store.base_size,
        allocation=placement.allocation,
        formula_rate=placement.formula_rate,
        measured_rate=Fraction(max_total, store.base_size),
        max_total_bits=max_total,
        per_library_max_bits=tuple(per_lib_max),
    )


def _first_witness(
    rows: RowPass, first_failing: list[tuple[int, ...] | None]
) -> DecodeMismatchError:
    """The failure a full product enumeration would meet first.

    Vectors run in lexicographic order, the last library's row fastest. So the
    first failing vector is all ones if any library fails on its all-ones row;
    otherwise it is all ones with the last failing library's first failing row
    put in. At that vector users are checked in turn, each over all libraries.
    """
    config = rows.config
    ones = (1,) * config.num_users
    witness = [ones] * config.num_libraries
    if ones not in first_failing:
        last = max(i for i, row in enumerate(first_failing) if row is not None)
        witness[last] = first_failing[last]
    for user in range(1, config.num_users + 1):
        for lib_idx, row in enumerate(witness):
            outcome = rows.serve(lib_idx + 1, row)
            if user in outcome.failed:
                expected = rows.store.files[lib_idx][row[user - 1] - 1]
                return DecodeMismatchError(
                    DemandVector(tuple(witness)),
                    user,
                    lib_idx + 1,
                    expected,
                    outcome.decoded[user - 1],
                )
    raise AssertionError("a failing row has no failing user")


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of serving stacked-library demands with the multi-library scheme."""

    demands_checked: int
    stacked_file_bits: tuple[int, ...]
    cache_bits: int
    max_total_bits: int

    def to_json(self) -> dict:
        return {
            "demands_checked": self.demands_checked,
            "stacked_file_bits": list(self.stacked_file_bits),
            "cache_bits": self.cache_bits,
            "max_total_bits": self.max_total_bits,
        }


def reduction_demo(rows: RowPass, cap: int = DEFAULT_DEMAND_CAP) -> ReductionReport:
    """Serve the stacked single library with the unchanged multi-library scheme.

    A stack demand gives each user one file id in 1..N_max; each library serves
    the id clamped to its own file count, and users at levels below the
    requested file's discard their decode. Every user must recover the full
    stacked file (the pieces of every library large enough to hold it, in
    ascending-file-count order) from the same caches and a transcript no longer
    than the multi-library worst case.

    Each library's clamped row is read from `rows`, so rows `verify_all`
    already served are not served again.
    """
    config, store, placement = rows.config, rows.store, rows.placement
    sorted_config, permutation = sort_by_library_size(config)
    k = config.num_users
    cache_bits = placement.cache_bits(1)
    for user in range(2, k + 1):
        if placement.cache_bits(user) != cache_bits:
            raise ValueError(
                f"user {user} caches {placement.cache_bits(user)} bits and user 1 "
                f"{cache_bits}; the stacked library needs equal caches"
            )
    n_max = sorted_config.file_counts[-1]
    total = n_max**k
    if total > cap:
        raise CapExceededError(f"stack enumeration needs {total} vectors, cap is {cap}")

    counts = config.file_counts
    max_total = 0
    for prime in product(range(1, n_max + 1), repeat=k):
        induced = tuple(tuple(min(x, n) for x in prime) for n in counts)
        outcomes = [rows.serve(library, row) for library, row in enumerate(induced, start=1)]
        max_total = max(max_total, sum(outcome.bits for outcome in outcomes))
        for user, n in enumerate(prime, start=1):
            level = subfile_level(sorted_config, n)
            keep = [permutation[pos] for pos in range(level - 1, config.num_libraries)]
            actual = concat(outcomes[orig - 1].decoded[user - 1] for orig in keep)
            expected = concat(store.files[orig - 1][n - 1] for orig in keep)
            if actual != expected:
                raise DecodeMismatchError(DemandVector(induced), user, 0, expected, actual)

    stacked_bits = []
    for n in range(1, n_max + 1):
        level = subfile_level(sorted_config, n)
        width = sum(
            int(lib.alpha * store.base_size) for lib in sorted_config.libraries[level - 1 :]
        )
        stacked_bits.append(width)
    return ReductionReport(
        demands_checked=total,
        stacked_file_bits=tuple(stacked_bits),
        cache_bits=cache_bits,
        max_total_bits=max_total,
    )
