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

`BitString` marks the bit-layer boundary: stored files, cache segments and
decoded files. Inside, everything is plain ints. A `PlacementState` cuts
each cache segment into its subfile table once, when it is built, and checks
its width against the plan; messages are ints of their part's subfile width.

The scheme is linear over GF(2), so delivery and decoding XOR whole images,
wide ints of subfile-wide slots laid out once per run, instead of one subfile
at a time. Send images (`RowPass.send_images`, from the server's subfile
table): per part, member and file, the member's share of every message at
its group's slot, so a row's messages are the XOR of its K members' images,
cut at the slots. Decode images (`PlacementState.decode_images`, from one
user's own subfile table only): per part, member and file, in file order,
the user's own pieces for itself and, for any other member, that member's
share of each message the user reads. A decode XORs its K images, one per
member's request, and the messages it reads, each at its subfile's slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
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
    format_decimal,
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
    num_files: int

    def cache_bits(self, num_users: int) -> int:
        """Bits one user caches: C(K - 1, t - 1) subfiles per file and part."""
        return self.num_files * sum(
            math.comb(num_users - 1, p.t - 1) * p.subfile_bits for p in self.parts if p.t
        )


# per plan part, per file: subfile ints in lexicographic subset order
SubfileTable = tuple[tuple[tuple[int, ...], ...], ...]

# per plan part (None for t = 0, whose messages are whole parts), per member,
# per file: one wide int of subfile-wide slots (`_images`)
ImageTable = tuple[tuple[tuple[int, ...], ...] | None, ...]

# (message rank, shift) pairs: where a decode puts each message it reads
ReadSlots = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PlacementState:
    """Per-user caches, one segment per library: caches[user - 1][library - 1].

    `formula_rate` is the split's rate on the scheme envelopes, the value
    delivery must realize. `cached_subfiles[user - 1][library - 1]` is that
    segment cut into subfile ints (`_split_segment`) when the state is built,
    and `decode_images[user - 1][library - 1]` lays those ints out as the
    user's decode images (`_decode_sources`), built from nothing else; a copy
    made with `dataclasses.replace` cuts and lays out its own caches.
    `read_slots[user - 1][library - 1]` is, per plan part with t >= 1, where
    each message the user reads goes in its decode (`_read_slots`)."""

    allocation: Allocation
    plans: tuple[LibraryPlan, ...]
    caches: tuple[tuple[BitString, ...], ...]
    formula_rate: Fraction
    cached_subfiles: tuple[tuple[SubfileTable, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    decode_images: tuple[tuple[ImageTable, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    read_slots: tuple[tuple[tuple[ReadSlots | None, ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        k = len(self.caches)
        tables, images, reads = [], [], []
        for user, segments in enumerate(self.caches, start=1):
            user_tables, user_images, user_reads = [], [], []
            for library, (segment, plan) in enumerate(zip(segments, self.plans), start=1):
                table = _split_segment(segment, plan, k, user, library)
                part_images, part_reads = [], []
                for part, per_file in zip(plan.parts, table):
                    if part.t:
                        sources = _decode_sources(k, part.t, user)
                        part_images.append(_images(per_file, sources, part.subfile_bits))
                        part_reads.append(_read_slots(k, part.t, user, part.subfile_bits))
                    else:
                        part_images.append(None)
                        part_reads.append(None)
                user_tables.append(table)
                user_images.append(tuple(part_images))
                user_reads.append(tuple(part_reads))
            tables.append(tuple(user_tables))
            images.append(tuple(user_images))
            reads.append(tuple(user_reads))
        object.__setattr__(self, "cached_subfiles", tuple(tables))
        object.__setattr__(self, "decode_images", tuple(images))
        object.__setattr__(self, "read_slots", tuple(reads))

    def cache_bits(self, user: int) -> int:
        return sum(seg.width for seg in self.caches[user - 1])


@dataclass(frozen=True)
class PartTranscript:
    """One plan part's messages, ints of `subfile_bits` bits: for t = 0 each
    distinct requested file's part in id order, else one XOR per
    size-(t + 1) user subset in lexicographic order."""

    t: int
    subfile_bits: int
    messages: tuple[int, ...]

    @property
    def bits(self) -> int:
        return len(self.messages) * self.subfile_bits


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


def _check_positive(base_size: int) -> None:
    if base_size < 1:
        raise DivisibilityError(f"base size {base_size} bits must be positive")


def random_file_store(config: NetworkConfig, base_size: int, seed: int) -> FileStore:
    """Independent uniform file contents; library l files get alpha_l * base_size bits."""
    _check_positive(base_size)
    req = library_bit_requirement(config)
    if base_size % req:
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


def scheme_curves(config: NetworkConfig) -> list[PiecewiseLinearTradeoff]:
    """Each library's scheme envelope, built once per distinct file count."""
    k = config.num_users
    built = {n: build_scheme_tradeoff(n, k) for n in dict.fromkeys(config.file_counts)}
    return [built[n] for n in config.file_counts]


def _plan_weights(
    config: NetworkConfig,
    allocation: Allocation,
    curves: Sequence[PiecewiseLinearTradeoff],
) -> list[list[tuple[int, Fraction]]]:
    """Per library, the (t, fraction-of-file) parts realizing its memory slice
    on its scheme curve in `curves`."""
    if len(allocation.per_library) != config.num_libraries:
        raise ValueError(
            f"allocation has {len(allocation.per_library)} entries for "
            f"{config.num_libraries} libraries"
        )
    k = config.num_users
    out: list[list[tuple[int, Fraction]]] = []
    for idx, (lib, budget, env) in enumerate(
        zip(config.libraries, allocation.per_library, curves), start=1
    ):
        m = budget / lib.alpha
        n = lib.num_files
        if m > n:
            raise ValueError(
                f"library {idx} gets memory {budget}, more than its content {lib.alpha * n}"
            )
        p, q = m.as_integer_ratio()
        seg = env.segment_of(p, q)
        bp = env.breakpoint_ratios
        parts: list[tuple[int, Fraction]]
        if seg == env.num_segments or bp[seg] == (p, q):
            t = m * k / n
            assert t.denominator == 1
            parts = [(int(t), Fraction(1))]
        else:
            lo, hi = Fraction(*bp[seg]), Fraction(*bp[seg + 1])
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


def required_base_size(config: NetworkConfig, allocation: Allocation) -> int:
    """Smallest base size (total bits) this split can run at; valid sizes are
    its multiples. Covers whole-bit files, parts, and subfiles."""
    return _base_requirement(config, _plan_weights(config, allocation, scheme_curves(config)))


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


# per member: (slot, index) pairs, slots counted from the low end of an image
Sources = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def _send_sources(num_users: int, t: int) -> Sources:
    """Per member, per size-(t + 1) group holding it: the group's slot (groups
    in transcript order, the first highest) and the rank of the group without
    the member among the size-t subsets, the subfile of the member's request
    that the group's message XORs."""
    groups = _subsets(num_users, t + 1)
    rank = _subset_rank(num_users, t)
    return tuple(
        tuple(
            (len(groups) - 1 - g, rank[tuple(x for x in group if x != member)])
            for g, group in enumerate(groups)
            if member in group
        )
        for member in range(1, num_users + 1)
    )


@lru_cache(maxsize=None)
def _decode_sources(num_users: int, t: int, user: int) -> Sources:
    """Per member, per size-t subset S that `user` fills from that member's
    request: the slot of S (subsets in file order, the first highest) and the
    position in `user`'s cached block of the piece it puts there.

    The user itself: S, for every S holding `user` (its own pieces).
    Any other member: S + {user} - {member}, for every S holding that member
    but not `user` (the member's share of the message of group S + {user}).
    """
    subsets = _subsets(num_users, t)
    top = len(subsets) - 1
    position = {s: p for p, s in enumerate(s for s in subsets if user in s)}
    return tuple(
        tuple((top - i, position[s]) for i, s in enumerate(subsets) if user in s)
        if member == user
        else tuple(
            (top - i, position[tuple(sorted({user, *s} - {member}))])
            for i, s in enumerate(subsets)
            if member in s and user not in s
        )
        for member in range(1, num_users + 1)
    )


@lru_cache(maxsize=None)
def _send_shifts(num_users: int, t: int, slot_bits: int) -> tuple[int, ...]:
    """Per size-(t + 1) group, in transcript order: the shift of its slot in
    a send image of `slot_bits`-bit slots."""
    return tuple(i * slot_bits for i in reversed(range(math.comb(num_users, t + 1))))


@lru_cache(maxsize=None)
def _read_slots(num_users: int, t: int, user: int, slot_bits: int) -> ReadSlots:
    """Per size-t subset S without `user`: (rank of group S + {user}, the
    message `user` reads for subfile S; shift of slot S in a file-order image
    of `slot_bits`-bit slots)."""
    subsets = _subsets(num_users, t)
    group_rank = _subset_rank(num_users, t + 1)
    return tuple(
        (group_rank[tuple(sorted(subset + (user,)))], (len(subsets) - 1 - i) * slot_bits)
        for i, subset in enumerate(subsets)
        if user not in subset
    )


def _images(
    per_file: tuple[tuple[int, ...], ...], sources: Sources, slot_bits: int
) -> tuple[tuple[int, ...], ...]:
    """Per member, per file: one wide int of `slot_bits`-bit slots holding
    the file's pieces[index] at each (slot, index) of the member's sources,
    zeros elsewhere. `per_file` is one part's subfile ints: the server's
    (`_send_sources`) or one user's cached ones (`_decode_sources`)."""
    images = []
    for member_sources in sources:
        member_images = []
        for pieces in per_file:
            value = 0
            for slot, index in member_sources:
                value |= pieces[index] << (slot * slot_bits)
            member_images.append(value)
        images.append(tuple(member_images))
    return tuple(images)


def _split_files(
    files: tuple[BitString, ...], plan: LibraryPlan, num_users: int
) -> SubfileTable:
    """One library's files cut into subfile ints: per plan part, per file, all
    C(K, t) subfiles in lexicographic subset order (t = 0: the whole part)."""
    table = []
    offset = 0
    for part in plan.parts:
        sub = part.subfile_bits
        mask = (1 << sub) - 1
        count = math.comb(num_users, part.t)
        per_file = []
        for content in files:
            # shifting right by `top - i * sub` leaves subfile i in the low bits
            top = content.width - offset - sub
            per_file.append(tuple([(content.value >> (top - i * sub)) & mask for i in range(count)]))
        table.append(tuple(per_file))
        offset += part.file_bits
    return tuple(table)


def _split_segment(
    segment: BitString, plan: LibraryPlan, num_users: int, user: int, library: int
) -> SubfileTable:
    """`user`'s cache segment of `library` cut back into the subfiles `place`
    put in it: per plan part, per file, the cached subsets in lexicographic
    order (no pieces for t = 0). A width other than the plan's is an error."""
    top = plan.cache_bits(num_users)
    if segment.width != top:
        raise ValueError(
            f"user {user} library {library} cache segment has {segment.width} bits; "
            f"its plan places {top}"
        )
    table = []
    for part in plan.parts:
        sub = part.subfile_bits
        mask = (1 << sub) - 1
        count = math.comb(num_users - 1, part.t - 1) if part.t else 0
        per_file = []
        for _ in range(plan.num_files):
            top -= count * sub
            block = segment.value >> top  # this file's pieces, the last in the low bits
            per_file.append(tuple([(block >> (i * sub)) & mask for i in reversed(range(count))]))
        table.append(tuple(per_file))
    return tuple(table)


def place(store: FileStore, config: NetworkConfig, allocation: Allocation) -> PlacementState:
    """Plan the split on the libraries' scheme curves and fill every user's
    cache; deterministic given the store and the split.

    Cache layout per (user, library): parts in plan order, files in id order,
    cached subsets in lexicographic order.
    """
    base_size = store.base_size
    _check_positive(base_size)
    curves = scheme_curves(config)
    weights = _plan_weights(config, allocation, curves)
    req = _base_requirement(config, weights)
    if base_size % req:
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
        plans.append(LibraryPlan(parts=tuple(scheme_parts), num_files=lib.num_files))
    tables = [_split_files(files, plan, k) for files, plan in zip(store.files, plans)]
    caches = []
    for user in range(1, k + 1):
        segments = []
        for table, plan in zip(tables, plans):
            value = 0
            for part, per_file in zip(plan.parts, table):
                if part.t:
                    sub = part.subfile_bits
                    ranks = _user_subset_ranks(k, part.t, user)
                    for pieces in per_file:
                        for rank in ranks:
                            value = (value << sub) | pieces[rank]
            segments.append(BitString(plan.cache_bits(k), value))
        caches.append(tuple(segments))
    return PlacementState(
        allocation=allocation,
        plans=tuple(plans),
        caches=tuple(caches),
        formula_rate=split_rate(config, allocation, curves),
    )


def _library_send_images(table: SubfileTable, plan: LibraryPlan, num_users: int) -> ImageTable:
    """One library's send images (`_send_sources`), per plan part, from its
    subfile table: a row's messages of a part are the XOR of its members'
    images for their requested files."""
    return tuple(
        _images(per_file, _send_sources(num_users, part.t), part.subfile_bits) if part.t else None
        for part, per_file in zip(plan.parts, table)
    )


def _library_transcript(
    table: SubfileTable, images: ImageTable, plan: LibraryPlan, row: tuple[int, ...]
) -> tuple[PartTranscript, ...]:
    """One library's share of the broadcast for one demand row: t = 0 parts
    send whole parts from the subfile table (`_split_files`); every other part
    XORs its members' send images (`_library_send_images`) and cuts the
    result into its messages."""
    parts = []
    for part, per_file, by_member in zip(plan.parts, table, images):
        sub = part.subfile_bits
        if part.t == 0:
            messages = tuple(per_file[n - 1][0] for n in sorted(set(row)))
        else:
            wide = 0
            for member_images, n in zip(by_member, row):
                wide ^= member_images[n - 1]
            mask = (1 << sub) - 1
            shifts = _send_shifts(len(row), part.t, sub)
            # a list, not a generator: cheaper on the many tiny transcripts of small K
            messages = tuple([(wide >> shift) & mask for shift in shifts])
        parts.append(PartTranscript(t=part.t, subfile_bits=sub, messages=messages))
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
    per_library = []
    for files, plan, row in zip(store.files, placement.plans, demand.rows):
        table = _split_files(files, plan, k)
        images = _library_send_images(table, plan, k)
        per_library.append(_library_transcript(table, images, plan, row))
    return DeliveryTranscript(demand=demand, per_library=tuple(per_library))


def decode(
    placement: PlacementState,
    parts: Sequence[PartTranscript],
    row: tuple[int, ...],
    user: int,
    library: int,
) -> BitString:
    """Reconstruct the file `user` requested from `library` (both 1-based),
    using only that user's cache and the library's transcript `parts` for
    demand row `row` (one file id per user).

    Per part with t >= 1: the XOR of the user's decode images for every
    member's request holds its own pieces and cancels the other members'
    shares; the messages it reads, put at their subfiles' slots, complete it.
    """
    want = row[user - 1]
    images = placement.decode_images[user - 1][library - 1]
    reads = placement.read_slots[user - 1][library - 1]
    value = width = 0
    for part, part_tr, by_member, slots in zip(
        placement.plans[library - 1].parts, parts, images, reads
    ):
        width += part.file_bits
        messages = part_tr.messages
        if part.t == 0:
            # sent in id order: count the distinct requests below `want`
            piece = messages[len({n for n in row if n < want})]
        else:
            piece = 0
            for member_images, n in zip(by_member, row):
                piece ^= member_images[n - 1]
            for group, shift in slots:
                piece ^= messages[group] << shift
        value = (value << part.file_bits) | piece
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
    and the placement from it. `subfiles[l - 1]` is library l's files cut
    into subfile ints once (`_split_files`); t = 0 deliveries read it whole.
    `send_images[l - 1]` lays that table out once per part, member and file
    as the member's share of every message (`_library_send_images`); every
    other delivery XORs one image per member.
    """

    def __init__(self, store: FileStore, config: NetworkConfig, placement: PlacementState):
        self.store = store
        self.config = config
        self.placement = placement
        self.subfiles = tuple(
            _split_files(files, plan, config.num_users)
            for files, plan in zip(store.files, placement.plans)
        )
        self.send_images = tuple(
            _library_send_images(table, plan, config.num_users)
            for table, plan in zip(self.subfiles, placement.plans)
        )
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
        parts = _library_transcript(
            self.subfiles[lib_idx], self.send_images[lib_idx], self.placement.plans[lib_idx], row
        )
        decoded = tuple(
            decode(self.placement, parts, row, user, library)
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
    already served are not served again. A library kept for stacked file n
    holds at least n files, so it serves file n itself, and its row outcome
    already says which users decoded their piece wrongly.
    """
    config, store, placement = rows.config, rows.store, rows.placement
    sorted_config, permutation = sort_by_library_size(config)
    k = config.num_users
    n_max = sorted_config.file_counts[-1]
    total = n_max**k
    if total > cap:
        raise CapExceededError(f"stack enumeration needs {total} vectors, cap is {cap}")

    # per stacked file, the libraries (original 1-based indices) holding a piece of it
    keeps = [permutation[subfile_level(sorted_config, n) - 1 :] for n in range(1, n_max + 1)]
    # per library, clamp[x] = min(x, N_l) for every stacked file id x
    clamps = [[min(x, n) for x in range(n_max + 1)] for n in config.file_counts]
    libraries = range(1, config.num_libraries + 1)
    serve = rows.serve
    max_total = 0
    for prime in product(range(1, n_max + 1), repeat=k):
        induced = tuple([tuple(map(clamp.__getitem__, prime)) for clamp in clamps])
        outcomes = [serve(library, row) for library, row in zip(libraries, induced)]
        max_total = max(max_total, sum([outcome.bits for outcome in outcomes]))
        if not any([outcome.failed for outcome in outcomes]):
            continue
        for user, n in enumerate(prime, start=1):
            keep = keeps[n - 1]
            if any(user in outcomes[orig - 1].failed for orig in keep):
                actual = concat(outcomes[orig - 1].decoded[user - 1] for orig in keep)
                expected = concat(store.files[orig - 1][n - 1] for orig in keep)
                raise DecodeMismatchError(DemandVector(induced), user, 0, expected, actual)

    stacked_bits = [
        sum(store.files[orig - 1][n - 1].width for orig in keep)
        for n, keep in enumerate(keeps, start=1)
    ]
    return ReductionReport(
        demands_checked=total,
        stacked_file_bits=tuple(stacked_bits),
        cache_bits=placement.cache_bits(1),
        max_total_bits=max_total,
    )
