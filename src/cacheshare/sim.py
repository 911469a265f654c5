"""Bit-exact placement, delivery, and decoding of the subset-coded scheme.

Files are integer bit strings. A library running at per-library memory m
splits between the two adjacent vertices of its scheme envelope, each of which
carries the t that delivers it (`plan_split`, once per split): each file is
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

The scheme is linear over GF(2), so delivery and verification XOR whole
images, wide ints of subfile-wide slots laid out once per run, instead of one
subfile at a time. Slots follow the transcript: one per size-(t + 1) group,
the first highest. Send images (`RowPass.send_images`, from the server's
subfile table): per part, member and file, the member's share W_n(G - member)
at the slot of every group G holding it, so a row's broadcast is the XOR of
its K members' images. Verification images hold K blocks of such slots side
by side, user u's block (u - 1) blocks up. Decode images
(`PlacementState.decode_images`): per part, member and file, each user's own
cached copy of the member's share at every group holding both. `_recover`
copies a broadcast into all K blocks, masks it to each user's groups and
XORs one decode image per member, which leaves each user's recovered pieces.
Every index these images use at one (K, t), the users' cached subset ranks
and the send and decode sources, is one cached record (`IndexTable`);
`_blocks` adds what depends on the slot width.
Copy and mask distribute over XOR, so the row check folds each member's
send, decode and wanted pieces into one residual image per part, member and
file (`RowPass.residuals`): a row's K residual images XOR to zero exactly
when every user recovers every piece it lacks. Each user's own cached
pieces, and the server table's rejoin into each stored file, are checked
once per run. So `decode`, which puts one user's recovered (`_recover`) and
cached pieces in file order, runs only to name the decoded file of a
failure.

A library's N^K rows are judged from its fault set (`RowPass.faulty`): the
members with a nonzero residual image and the users the once-per-run checks
name. No other request changes a row's verdict, so on a correct placement,
where every residual image is zero by itself and the checks find nothing, no
row is built. Otherwise a row is judged when asked for, and the first failing
row is found among the fault set's N^|F| requests. A t = 0 part sends each
distinct request's part whole, so its rows need no check: the rejoin check
covers them. A row's bits are structural, one slot per group per coded part
and one whole part per distinct request per t = 0 part, so a library's worst
row (`LibraryLayout.max_row_bits`) is read off its layout.
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
from .tradeoff import build_scheme_tradeoff


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
class LibraryLayout:
    parts: tuple[SchemePart, ...]
    num_files: int

    def cache_bits(self, num_users: int) -> int:
        """Bits one user caches: C(K - 1, t - 1) subfiles per file and part."""
        return self.num_files * sum(
            math.comb(num_users - 1, p.t - 1) * p.subfile_bits for p in self.parts if p.t
        )

    def max_row_bits(self, num_users: int) -> int:
        """Bits of the library's longest share of a broadcast: one subfile per
        size-(t + 1) group of a coded part, and one whole t = 0 part per
        distinct request, of which a row holds at most min(N, K)."""
        return sum(
            (math.comb(num_users, p.t + 1) if p.t else min(self.num_files, num_users))
            * p.subfile_bits
            for p in self.parts
        )


# per plan part, per file: subfile ints in lexicographic subset order
SubfileTable = tuple[tuple[tuple[int, ...], ...], ...]

# per plan part (None for t = 0, whose messages are whole parts), per member,
# per file: one wide int of subfile-wide slots (`_images`)
ImageTable = tuple[tuple[tuple[int, ...], ...] | None, ...]


@dataclass(frozen=True)
class PlacementState:
    """Per-user caches, one segment per library: caches[user - 1][library - 1].

    `plan` is the split the caches were filled from (`plan_split`): its
    allocation and its formula rate, the value delivery must realize.
    `layouts[library - 1]` is that library's bit layout at the store's base
    size. `cached_subfiles[user - 1][library - 1]` is a cache segment cut
    into subfile ints (`_split_segment`) when the state is built, and
    `decode_images[library - 1]` lays every user's table out in its own block
    of the decode images (`IndexTable.decode_sources`), each block built from
    that user's cache alone; a copy made with `dataclasses.replace` cuts and
    lays out its own caches."""

    plan: Plan
    layouts: tuple[LibraryLayout, ...]
    caches: tuple[tuple[BitString, ...], ...]
    cached_subfiles: tuple[tuple[SubfileTable, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    decode_images: tuple[ImageTable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.caches)
        tables = tuple(
            tuple(
                _split_segment(segment, layout, k, user, library)
                for library, (segment, layout) in enumerate(zip(segments, self.layouts), start=1)
            )
            for user, segments in enumerate(self.caches, start=1)
        )
        images = []
        for library, layout in enumerate(self.layouts):
            part_images = []
            for index, part in enumerate(layout.parts):
                if part.t:
                    # per file: every user's cached pieces laid end to end
                    per_file = [
                        tuple(piece for table in tables for piece in table[library][index][n])
                        for n in range(layout.num_files)
                    ]
                    sources = _index_table(k, part.t).decode_sources
                    part_images.append(_images(per_file, sources, part.subfile_bits))
                else:
                    part_images.append(None)
            images.append(tuple(part_images))
        object.__setattr__(self, "cached_subfiles", tables)
        object.__setattr__(self, "decode_images", tuple(images))

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
    return math.lcm(*(lib.alpha.denominator for lib in config.libraries))


def _check_positive(base_size: int) -> None:
    if base_size < 1:
        raise DivisibilityError(f"base size {base_size} bits must be positive")


MAX_FILE_BITS = 2**31 - 1  # the widest file `random.getrandbits` draws in one call


def random_file_store(config: NetworkConfig, base_size: int, seed: int) -> FileStore:
    """Independent uniform file contents; library l files get alpha_l * base_size bits."""
    _check_positive(base_size)
    req = library_bit_requirement(config)
    if base_size % req:
        raise DivisibilityError(
            f"base size {base_size} bits leaves fractional files; use a multiple of {req}"
        )
    widths = [int(lib.alpha * base_size) for lib in config.libraries]
    if (widest := max(widths)) > MAX_FILE_BITS:
        raise ValueError(
            f"base size {base_size} bits gives library {widths.index(widest) + 1} files of "
            f"{widest} bits; at most {MAX_FILE_BITS} bits can be drawn per file"
        )
    rng = random.Random(seed)
    files = tuple(
        tuple(random_bits(width, rng) for _ in range(lib.num_files))
        for lib, width in zip(config.libraries, widths)
    )
    return FileStore(base_size=base_size, files=files)


@dataclass(frozen=True)
class Plan:
    """A split planned on the libraries' scheme envelopes (`plan_split`).

    `parts[l - 1]` holds library l's (t, fraction-of-file) parts; `base_unit`
    is the smallest base size (total bits) giving whole-bit files, parts and
    subfiles, and valid sizes are its multiples; `formula_rate` is the split's
    rate on the envelopes, the value delivery must realize."""

    config: NetworkConfig
    allocation: Allocation
    parts: tuple[tuple[tuple[int, Fraction], ...], ...]
    base_unit: int
    formula_rate: Fraction


def plan_split(config: NetworkConfig, allocation: Allocation) -> Plan:
    """Plan the split on the libraries' scheme envelopes, one per file count:
    each library runs at the corner its memory slice sits on, or shares its
    files between the two corners around it, at the ts the corners carry."""
    k = config.num_users
    built = {n: build_scheme_tradeoff(n, k) for n in dict.fromkeys(config.file_counts)}
    curves = [built[n] for n in config.file_counts]
    formula_rate = split_rate(config, allocation, curves)
    base_unit = library_bit_requirement(config)
    per_library = []
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
        if seg == env.num_segments or env.breakpoint(seg) == (p, q):
            parts = ((env.corner_t(seg), Fraction(1)),)
        else:
            lo, hi = Fraction(*env.breakpoint(seg)), Fraction(*env.breakpoint(seg + 1))
            u = (hi - m) / (hi - lo)
            parts = ((env.corner_t(seg), u), (env.corner_t(seg + 1), 1 - u))
        for t, weight in parts:
            base_unit = math.lcm(base_unit, (lib.alpha * weight / math.comb(k, t)).denominator)
        per_library.append(parts)
    return Plan(config, allocation, tuple(per_library), base_unit, formula_rate)


# per member: (slot, index) pairs, slots counted from the low end of an image
Sources = tuple[tuple[tuple[int, int], ...], ...]

# a failing demand row of one library, with the users who fail it
Failure = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class IndexTable:
    """The scheme's index tables at one (K, t) (`_index_table`): size-t
    subsets ranked in lexicographic order, size-(t + 1) groups one slot each
    in transcript order, the first highest.

    `cached_ranks`: per user, the ranks of the subsets holding it, the
    subfiles of a file it caches, in cache order. `send_sources`: per member,
    per group G holding it, G's slot and the rank of G - member, the subfile
    of the member's request that G's message XORs. `decode_sources`: per
    member, per other user u, per group G holding both, G's slot in u's block
    (user u's block u - 1 blocks up) and the index of u's copy of the share
    W(G - member) among every user's cached pieces of a file laid end to end;
    entries go user by user, so `_images` fills an image from its low end up."""

    num_groups: int
    cached_ranks: tuple[tuple[int, ...], ...]
    send_sources: Sources
    decode_sources: Sources


@lru_cache(maxsize=None)
def _index_table(num_users: int, t: int) -> IndexTable:
    """One walk over the subsets and one over the groups; the users holding
    W(G - member) are the members of G - member, so each member's decode
    sources come from its send sources. Only the tables outlive the call."""
    users = range(1, num_users + 1)
    subsets = list(combinations(users, t))
    rank = {subset: i for i, subset in enumerate(subsets)}
    cached: list[list[int]] = [[] for _ in users]
    per_user = math.comb(num_users - 1, t - 1)
    # (user, rank of a cached subset) -> its piece's index among every user's pieces
    index = {}
    for i, subset in enumerate(subsets):
        for user in subset:
            index[user, i] = (user - 1) * per_user + len(cached[user - 1])
            cached[user - 1].append(i)
    groups = list(combinations(users, t + 1))
    send: list[list[tuple[int, int]]] = [[] for _ in users]
    for g, group in enumerate(groups):
        slot = len(groups) - 1 - g
        for member in group:
            send[member - 1].append((slot, rank[tuple(x for x in group if x != member)]))
    decode = []
    for member_sources in send:
        by_user: list[list[tuple[int, int]]] = [[] for _ in users]
        for slot, i in member_sources:
            for user in subsets[i]:
                by_user[user - 1].append(((user - 1) * len(groups) + slot, index[user, i]))
        decode.append(tuple(entry for entries in by_user for entry in entries))
    return IndexTable(
        num_groups=len(groups),
        cached_ranks=tuple(map(tuple, cached)),
        send_sources=tuple(map(tuple, send)),
        decode_sources=tuple(decode),
    )


@lru_cache(maxsize=None)
def _blocks(num_users: int, t: int, slot_bits: int) -> tuple[int, int, int, tuple[int, ...]]:
    """One coded part's layout at `slot_bits`-bit slots: (width of a
    verification block, one slot per size-(t + 1) group, so also the bits
    the part sends per row; the spread that copies a send-image-wide int into
    every block; the mask keeping, in each user's block, the slots of the
    groups holding that user, read off its send sources; per group, in
    transcript order, the shift of its slot in a send image)."""
    table = _index_table(num_users, t)
    width = table.num_groups * slot_bits
    piece = (1 << slot_bits) - 1
    spread = masks = 0
    for user, sources in enumerate(table.send_sources):
        base = user * width
        spread |= 1 << base
        for slot, _ in sources:
            masks |= piece << (base + slot * slot_bits)
    return width, spread, masks, tuple(i * slot_bits for i in reversed(range(table.num_groups)))


def _images(
    per_file: tuple[tuple[int, ...], ...], sources: Sources, slot_bits: int
) -> tuple[tuple[int, ...], ...]:
    """Per member, per file: one wide int of `slot_bits`-bit slots holding
    the file's pieces[index] at each (slot, index) of the member's sources,
    zeros elsewhere. `per_file` is one part's subfile ints: the server's, at
    the send sources, or every user's cached ones, at the decode sources
    (`IndexTable`)."""
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
    files: tuple[BitString, ...], layout: LibraryLayout, num_users: int
) -> SubfileTable:
    """One library's files cut into subfile ints: per plan part, per file, all
    C(K, t) subfiles in lexicographic subset order (t = 0: the whole part)."""
    table = []
    offset = 0
    for part in layout.parts:
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
    segment: BitString, layout: LibraryLayout, num_users: int, user: int, library: int
) -> SubfileTable:
    """`user`'s cache segment of `library` cut back into the subfiles `place`
    put in it: per plan part, per file, the cached subsets in lexicographic
    order (no pieces for t = 0). A width other than the layout's is an error."""
    top = layout.cache_bits(num_users)
    if segment.width != top:
        raise ValueError(
            f"user {user} library {library} cache segment has {segment.width} bits; "
            f"its plan places {top}"
        )
    table = []
    for part in layout.parts:
        sub = part.subfile_bits
        mask = (1 << sub) - 1
        count = math.comb(num_users - 1, part.t - 1) if part.t else 0
        per_file = []
        for _ in range(layout.num_files):
            top -= count * sub
            block = segment.value >> top  # this file's pieces, the last in the low bits
            per_file.append(tuple([(block >> (i * sub)) & mask for i in reversed(range(count))]))
        table.append(tuple(per_file))
    return tuple(table)


def place(store: FileStore, plan: Plan) -> PlacementState:
    """Fill every user's cache with the planned split; deterministic given
    the store and the plan.

    Cache layout per (user, library): parts in plan order, files in id order,
    cached subsets in lexicographic order.
    """
    base_size = store.base_size
    _check_positive(base_size)
    if base_size % plan.base_unit:
        raise DivisibilityError(
            f"base size {base_size} bits cannot realize this split; "
            f"use a multiple of {plan.base_unit}"
        )
    config = plan.config
    k = config.num_users
    layouts = []
    for lib, parts in zip(config.libraries, plan.parts):
        scheme_parts = []
        for t, weight in parts:
            sub = lib.alpha * weight * base_size / math.comb(k, t)
            assert sub.denominator == 1
            scheme_parts.append(
                SchemePart(t=t, file_bits=int(sub) * math.comb(k, t), subfile_bits=int(sub))
            )
        layouts.append(LibraryLayout(parts=tuple(scheme_parts), num_files=lib.num_files))
    tables = [_split_files(files, layout, k) for files, layout in zip(store.files, layouts)]
    caches = []
    for user in range(1, k + 1):
        segments = []
        for table, layout in zip(tables, layouts):
            value = 0
            for part, per_file in zip(layout.parts, table):
                if part.t:
                    sub = part.subfile_bits
                    ranks = _index_table(k, part.t).cached_ranks[user - 1]
                    for pieces in per_file:
                        for rank in ranks:
                            value = (value << sub) | pieces[rank]
            segments.append(BitString(layout.cache_bits(k), value))
        caches.append(tuple(segments))
    return PlacementState(plan=plan, layouts=tuple(layouts), caches=tuple(caches))


def _library_send_images(
    table: SubfileTable, layout: LibraryLayout, num_users: int
) -> ImageTable:
    """One library's send images (`IndexTable.send_sources`), per plan part,
    from its subfile table: a row's messages of a part are the XOR of its
    members' images for their requested files."""
    return tuple(
        _images(per_file, _index_table(num_users, part.t).send_sources, part.subfile_bits)
        if part.t
        else None
        for part, per_file in zip(layout.parts, table)
    )


def _library_residuals(
    send_images: ImageTable, decode_images: ImageTable, layout: LibraryLayout, num_users: int
) -> ImageTable:
    """One library's residual images, per plan part, member and file: the
    send image copied into every block and masked to each user's groups
    (`_blocks`), XORed with the decode image and with the send image moved
    into the member's own block, the pieces W(G - member) it wants. Copy and
    mask distribute over XOR, so a row's residual images XOR to every user's
    recovered pieces XOR wanted ones: zero exactly when every user decodes."""
    residuals = []
    for part, by_member, by_member_decode in zip(layout.parts, send_images, decode_images):
        if part.t:
            width, spread, masks, _ = _blocks(num_users, part.t, part.subfile_bits)
            by_member = tuple(
                tuple(
                    ((image * spread) & masks) ^ own ^ (image << (member * width))
                    for image, own in zip(images, owns)
                )
                for member, (images, owns) in enumerate(zip(by_member, by_member_decode))
            )
        residuals.append(by_member)
    return tuple(residuals)


def _library_transcript(
    table: SubfileTable, images: ImageTable, layout: LibraryLayout, row: tuple[int, ...]
) -> tuple[PartTranscript, ...]:
    """One library's share of the broadcast for one demand row: t = 0 parts
    send whole parts from the subfile table (`_split_files`); every other part
    XORs its members' send images (`_library_send_images`) and cuts the
    result into its messages."""
    parts = []
    for part, per_file, by_member in zip(layout.parts, table, images):
        sub = part.subfile_bits
        if part.t == 0:
            messages = tuple(per_file[n - 1][0] for n in sorted(set(row)))
        else:
            wide = 0
            for member_images, n in zip(by_member, row):
                wide ^= member_images[n - 1]
            mask = (1 << sub) - 1
            shifts = _blocks(len(row), part.t, sub)[3]
            # a list, not a generator: cheaper on the many tiny transcripts of small K
            messages = tuple([(wide >> shift) & mask for shift in shifts])
        parts.append(PartTranscript(t=part.t, subfile_bits=sub, messages=messages))
    return tuple(parts)


def deliver(
    store: FileStore, placement: PlacementState, demand: DemandVector
) -> DeliveryTranscript:
    """Broadcast transcript serving every user's request in one shot, on the
    network the placement was planned for."""
    config = placement.plan.config
    demand.validate_for(config)
    k = config.num_users
    per_library = []
    for files, layout, row in zip(store.files, placement.layouts, demand.rows):
        table = _split_files(files, layout, k)
        images = _library_send_images(table, layout, k)
        per_library.append(_library_transcript(table, images, layout, row))
    return DeliveryTranscript(demand=demand, per_library=tuple(per_library))


def _recover(
    placement: PlacementState, library: int, part: int, row: tuple[int, ...], wide: int
) -> int:
    """Every user's recovered pieces of plan part `part` (an index, t >= 1) of
    `library` under demand row `row`, in the users' blocks (`_blocks`): the
    step of `decode`.

    `wide` is the part's broadcast, each message at its group's slot. Copied
    into every block and masked to the user's groups, it is XORed with one
    decode image per member's request: at each group G holding user u, block
    u then holds the message of G with every other member's share, from u's
    own cache, cancelled, which is u's piece W(G - u). The row check reads
    the same decode images through the residual images
    (`_library_residuals`) and never calls this."""
    layout_part = placement.layouts[library - 1].parts[part]
    _, spread, masks, _ = _blocks(len(row), layout_part.t, layout_part.subfile_bits)
    blocks = (wide * spread) & masks
    for member_images, n in zip(placement.decode_images[library - 1][part], row):
        blocks ^= member_images[n - 1]
    return blocks


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

    Per part with t >= 1: the messages, each at its group's slot, give the
    user's recovered pieces (`_recover`), the piece of each size-t subset S
    without the user at the slot of group S + {user}; they and the user's own
    cached pieces go in file order, placed by subset rank from the user's
    cached ranks and its own send sources (`IndexTable`). A t = 0 part is the
    message of the user's request, sent in id order among the distinct
    requests.
    """
    k = len(row)
    want = row[user - 1]
    value = width = 0
    cached = placement.cached_subfiles[user - 1][library - 1]
    for index, (part, part_tr, per_file) in enumerate(
        zip(placement.layouts[library - 1].parts, parts, cached)
    ):
        sub = part.subfile_bits
        width += part.file_bits
        if part.t == 0:
            value = (value << sub) | part_tr.messages[sorted(set(row)).index(want)]
            continue
        block_bits, _, _, shifts = _blocks(k, part.t, sub)
        wide = 0
        for message, shift in zip(part_tr.messages, shifts):
            wide |= message << shift
        block = _recover(placement, library, index, row, wide) >> ((user - 1) * block_bits)
        mask = (1 << sub) - 1
        table = _index_table(k, part.t)
        pieces = [0] * math.comb(k, part.t)  # by subset rank
        for rank, piece in zip(table.cached_ranks[user - 1], per_file[want - 1]):
            pieces[rank] = piece
        for slot, rank in table.send_sources[user - 1]:
            pieces[rank] = (block >> (slot * sub)) & mask
        for piece in pieces:
            value = (value << sub) | piece
    return BitString(width, value)


def _unrecoverable(
    files: tuple[BitString, ...], table: SubfileTable, placement: PlacementState, library: int
) -> frozenset[tuple[int, int]]:
    """The (user, file id) pairs of one library that fail whatever the row:
    every user's for a file the server's subfile table does not rejoin into,
    and one user's for a file whose cached pieces differ from the server's."""
    layout = placement.layouts[library - 1]
    k = len(placement.caches)
    bad = set()
    for n, content in enumerate(files, start=1):
        value = 0
        for part, per_file in zip(layout.parts, table):
            for piece in per_file[n - 1]:
                value = (value << part.subfile_bits) | piece
        if value != content.value:
            bad.update((user, n) for user in range(1, k + 1))
    for user, tables in enumerate(placement.cached_subfiles, start=1):
        for part, theirs, mine in zip(layout.parts, table, tables[library - 1]):
            if part.t:
                ranks = _index_table(k, part.t).cached_ranks[user - 1]
                for n, (pieces, cached) in enumerate(zip(theirs, mine), start=1):
                    if cached != tuple([pieces[i] for i in ranks]):
                        bad.add((user, n))
    return frozenset(bad)


def _fault_set(residuals: ImageTable, bad: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """One library's faulty users, sorted: the members with a nonzero residual
    image, of any part and file, and the users `_unrecoverable` names."""
    users = {user for user, _ in bad}
    for by_member in residuals:
        if by_member is not None:
            users.update(m for m, by_file in enumerate(by_member, start=1) if any(by_file))
    return tuple(sorted(users))


class RowPass:
    """Library-by-library delivery and verification, each library judged
    from its fault set.

    Libraries never interact: the library-l transcript and every library-l
    decode read only row l of the demand and segment l of each cache. So a
    library is judged on its own, over its N_l^K rows. The row pass is the
    one context of a run: `verify_all` and `reduction_demo` read the store,
    the network and the placement from it; the network is the one the
    placement was planned for (`placement.plan.config`).
    `subfiles[l - 1]` is library l's files cut into subfile ints once
    (`_split_files`). `send_images[l - 1]` lays that table out once per
    part, member and file as the member's share of every message
    (`_library_send_images`), so a row's broadcast of a coded part is the XOR
    of one image per member. `residuals[l - 1]` holds one residual image per
    part, member and file (`_library_residuals`): a row's users all decode
    exactly when its members' residual images XOR to zero.
    `unrecoverable[l - 1]` holds the checks made once per run
    (`_unrecoverable`), among them the table's rejoin into each stored file,
    so a row's users fail exactly when `decode` would not give their files.
    `faulty[l - 1]` is library l's fault set (`_fault_set`): only those
    users' requests can fail a row, so a library with none is proved from its
    K·N_l residual images alone. Nothing changes after construction; each
    verdict is computed from its row when asked for.
    """

    def __init__(self, store: FileStore, placement: PlacementState):
        self.store = store
        self.config = config = placement.plan.config
        self.placement = placement
        k = config.num_users
        self.subfiles = tuple(
            _split_files(files, layout, k) for files, layout in zip(store.files, placement.layouts)
        )
        self.send_images = tuple(
            _library_send_images(table, layout, k)
            for table, layout in zip(self.subfiles, placement.layouts)
        )
        self.residuals = tuple(
            _library_residuals(images, decode_images, layout, k)
            for images, decode_images, layout in zip(
                self.send_images, placement.decode_images, placement.layouts
            )
        )
        self.unrecoverable = tuple(
            _unrecoverable(files, table, placement, library)
            for library, (files, table) in enumerate(zip(store.files, self.subfiles), start=1)
        )
        self.faulty = tuple(
            _fault_set(residuals, bad) for residuals, bad in zip(self.residuals, self.unrecoverable)
        )

    def failed(self, library: int, row: tuple[int, ...]) -> tuple[int, ...]:
        """The users who fail to decode `library` under demand row `row`: per
        coded part, those whose block of the faulty members' residual images
        XORed is nonzero, and those asking for an unrecoverable file."""
        faulty = self.faulty[library - 1]
        if not faulty:
            return ()
        k, layout = self.config.num_users, self.placement.layouts[library - 1]
        users = {u for u in faulty if (u, row[u - 1]) in self.unrecoverable[library - 1]}
        for part, residual in zip(layout.parts, self.residuals[library - 1]):
            if part.t:
                blocks = 0
                for member in faulty:
                    blocks ^= residual[member - 1][row[member - 1] - 1]
                if blocks:
                    width = _blocks(k, part.t, part.subfile_bits)[0]
                    mask = (1 << width) - 1
                    users.update(u for u in range(1, k + 1) if (blocks >> (u - 1) * width) & mask)
        return tuple(sorted(users))

    def first_failing(self, library: int) -> Failure | None:
        """`library`'s lexicographically first failing row with its failing
        users, or None. A row's verdict reads only the requests of the fault
        set, so a failing row with every other request reset to file 1 still
        fails and comes no later: the fault set's N^|F| requests are walked in
        product order, every other user asking for file 1, and no row is built
        for a library without faulty users."""
        faulty = self.faulty[library - 1]
        if not faulty:
            return None
        row = [1] * self.config.num_users
        files = range(1, self.placement.layouts[library - 1].num_files + 1)
        for requests in product(files, repeat=len(faulty)):
            for member, n in zip(faulty, requests):
                row[member - 1] = n
            if users := self.failed(library, tuple(row)):
                return tuple(row), users
        return None


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

    Libraries never interact (see `RowPass`), so each library is judged over
    its own N_l^K rows: a clean one, with no faulty user, at once, and any
    other over the requests of its fault set (`RowPass.first_failing`). Every
    combination of per-library rows is a demand vector. A vector decodes
    exactly when each of its rows does, and its transcript length is the sum
    of its rows' lengths, so the worst case over all vectors is the sum of
    the per-library maxima, each read off the library's layout
    (`LibraryLayout.max_row_bits`). The measured rate is that sum divided by
    the base size; it must equal the formula rate bit for bit.
    `demands_checked` counts the vectors covered, the product of N_l^K;
    `demand_vectors_run` counts the library rows judged, the sum of N_l^K.
    `cap` still bounds the covered vectors, with enumeration's error message,
    and is checked before any row is judged.
    """
    config, store, placement = rows.config, rows.store, rows.placement
    covered = check_demand_cap(config, cap)
    first_failing = [rows.first_failing(lib) for lib in range(1, config.num_libraries + 1)]
    if any(first_failing):
        raise _first_witness(rows, first_failing)
    k = config.num_users
    per_lib_max = [layout.max_row_bits(k) for layout in placement.layouts]
    max_total = sum(per_lib_max)
    return VerificationReport(
        demands_checked=covered,
        demand_vectors_run=sum(n**k for n in config.file_counts),
        base_size=store.base_size,
        allocation=placement.plan.allocation,
        formula_rate=placement.plan.formula_rate,
        measured_rate=Fraction(max_total, store.base_size),
        max_total_bits=max_total,
        per_library_max_bits=tuple(per_lib_max),
    )


def _first_witness(rows: RowPass, first_failing: list[Failure | None]) -> DecodeMismatchError:
    """The failure a full product enumeration would meet first.

    Vectors run in lexicographic order, the last library's row fastest. So the
    first failing vector is all ones if any library fails on its all-ones row,
    and those libraries fail there; otherwise it is all ones with the last
    failing library's first failing row put in, and only that library fails.
    Users are checked in turn, each over all libraries, so the witness is the
    least user failing there, at the first library it fails.
    """
    config = rows.config
    ones = (1,) * config.num_users
    failing = {i: first for i, first in enumerate(first_failing) if first and first[0] == ones}
    if not failing:
        last = max(i for i, first in enumerate(first_failing) if first)
        failing = {last: first_failing[last]}
    witness = [failing[i][0] if i in failing else ones for i in range(config.num_libraries)]
    user = min(users[0] for _, users in failing.values())
    lib_idx = next(i for i, (_, users) in failing.items() if user in users)
    row, demand = witness[lib_idx], DemandVector(tuple(witness))
    expected = rows.store.files[lib_idx][row[user - 1] - 1]
    parts = deliver(rows.store, rows.placement, demand).per_library[lib_idx]
    actual = decode(rows.placement, parts, row, user, lib_idx + 1)
    return DecodeMismatchError(demand, user, lib_idx + 1, expected, actual)


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

    A library kept for stacked file n holds at least n files, so it serves
    file n itself, and its row verdicts (`RowPass.failed`) say which users
    decoded their piece wrongly. When some library has a failing row
    (`RowPass.first_failing`), the least such row is the first failing stack
    demand (`_first_stack_witness`), and no stack demand is walked. Otherwise
    the worst stacked transcript is the multi-library worst case, the sum of
    the libraries' longest rows: the stack demand (1, 2, …, min(N_max, K)) is
    clamped to min(N_l, K) distinct requests in library l, its longest row,
    and no stack demand's rows sum to more.
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
    first_failing = [rows.first_failing(lib) for lib in range(1, config.num_libraries + 1)]
    if any(first_failing):
        raise _first_stack_witness(rows, keeps, first_failing)
    max_total = sum(layout.max_row_bits(k) for layout in placement.layouts)

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


def _first_stack_witness(
    rows: RowPass, keeps: list[tuple[int, ...]], first_failing: list[Failure | None]
) -> DecodeMismatchError:
    """The failure a walk over the stack demands in product order meets
    first, with the kept libraries' decodes of its delivery joined as the
    actual file. Clamping only lowers requests, so a stack demand failing in
    library l clamps to a failing row of l no later than itself; and l's
    first failing row, read as a stack demand, fails in l for a user l is
    kept for. So the first failing stack demand is the least of those rows,
    and only its L rows are judged."""
    config, store, placement = rows.config, rows.store, rows.placement
    prime = min(first[0] for first in first_failing if first)
    induced = tuple(tuple(min(x, n) for x in prime) for n in config.file_counts)
    failed = [rows.failed(library, row) for library, row in enumerate(induced, start=1)]
    user, n = next(
        (user, n) for user, n in enumerate(prime, start=1)
        if any(user in failed[orig - 1] for orig in keeps[n - 1])
    )
    demand, keep = DemandVector(induced), keeps[n - 1]
    parts = deliver(store, placement, demand).per_library
    actual = concat(decode(placement, parts[o - 1], induced[o - 1], user, o) for o in keep)
    expected = concat(store.files[o - 1][n - 1] for o in keep)
    return DecodeMismatchError(demand, user, 0, expected, actual)
