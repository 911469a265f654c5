"""Shared builders for the test suite: fixed networks and seeded random ones."""

from __future__ import annotations

import copy
import math
import random
from bisect import bisect_right
from decimal import Decimal
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


def reference_decimal(value: Fraction) -> Decimal:
    """`value` rounded half to even to 17 significant digits, by integer
    arithmetic alone."""
    magnitude = abs(value)
    if not magnitude:
        return Decimal(0)
    e = len(str(magnitude.numerator)) - len(str(magnitude.denominator)) - 16
    while magnitude >= Fraction(10) ** (e + 17):
        e += 1
    while magnitude < Fraction(10) ** (e + 16):
        e -= 1
    digits = round(magnitude / Fraction(10) ** e)
    return Decimal(digits if value > 0 else -digits).scaleb(e)


def ratios(values) -> tuple[tuple[int, int], ...]:
    """Each exact value as a (numerator, denominator) pair in lowest terms."""
    return tuple(Fraction(v).as_integer_ratio() for v in values)


def step_delta(step: AllocationStep) -> Fraction:
    """The memory a greedy step adds, as an exact Fraction."""
    return Fraction(step.delta_units, step.scale)


def step_total(step: AllocationStep) -> Fraction:
    """The memory allocated after a greedy step, as an exact Fraction."""
    return Fraction(step.total_units, step.scale)


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


def fraction_curve(curve) -> FractionCurve:
    curve = curve.materialize()
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


def curves_for(config: NetworkConfig, kind: str = "auto") -> list:
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
        theta = rng.choice(fractions(env.materialize().breakpoint_ratios))
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


def _with_decode_image(placement, library: int, part: int, member: int, file_id: int, image: int):
    """A copy of `placement` whose decode image of `member`'s share of file
    `file_id`, plan part `part` (an index) of `library`, is `image`."""

    def put(items, index, value):
        return items[:index] + (value,) + items[index + 1 :]

    by_part = placement.decode_images[library - 1]
    by_member = by_part[part]
    by_file = put(by_member[member - 1], file_id - 1, image)
    by_part = put(by_part, part, put(by_member, member - 1, by_file))
    changed = copy.copy(placement)
    object.__setattr__(
        changed, "decode_images", put(placement.decode_images, library - 1, by_part)
    )
    return changed


def flip_decode_image(
    placement: sim.PlacementState, library: int, part: int, member: int, file_id: int, user: int
) -> sim.PlacementState:
    """A copy of `placement` with one bit of one decode image flipped: the
    top bit of `user`'s copy of `member`'s share of file `file_id` at the
    first group holding both (plan part `part`, an index, of `library`).

    Both the row check (through `RowPass.residuals`) and `sim.decode` read
    that image, so `user` fails exactly the rows of `library` in which
    `member` asks for `file_id`. With `member == user` the bit sits where
    `user`'s own share is recovered: it fails when it asks for the file
    itself. A decode image has one block per user, user 1's lowest; a block
    has one subfile-wide slot per size-(t + 1) group in transcript order,
    the first highest."""
    layout_part = placement.layouts[library - 1].parts[part]
    k, sub = len(placement.caches), layout_part.subfile_bits
    groups = list(combinations(range(1, k + 1), layout_part.t + 1))
    holding = [g for g, group in enumerate(groups) if member in group and user in group]
    if not layout_part.t or not holding:
        raise ValueError(f"no group of part {part} holds users {member} and {user}")
    slot = len(groups) - 1 - holding[0]
    bit = 1 << ((user - 1) * len(groups) * sub + slot * sub + sub - 1)
    image = placement.decode_images[library - 1][part][member - 1][file_id - 1]
    return _with_decode_image(placement, library, part, member, file_id, image ^ bit)


def wrong_file_decode_image(
    placement: sim.PlacementState, library: int, part: int, member: int, file_id: int, other: int
) -> sim.PlacementState:
    """A copy of `placement` whose decode image of `member`'s share of file
    `file_id` is that of file `other`: when `member` asks for `file_id`, every
    other user cancels the wrong file's share from the messages it shares
    with `member`, and fails unless the two files' shares agree."""
    image = placement.decode_images[library - 1][part][member - 1][other - 1]
    return _with_decode_image(placement, library, part, member, file_id, image)


def faulty_place(monkeypatch, faults, module=sim) -> None:
    """Patch `module.place` to apply `faults`, a list of
    (library, part, member, file_id, user) decode-image bit flips
    (`flip_decode_image`), to every placement it makes."""
    real = sim.place

    def place(store, plan):
        placement = real(store, plan)
        for fault in faults:
            placement = flip_decode_image(placement, *fault)
        return placement

    monkeypatch.setattr(module, "place", place)


def row_pass(store: sim.FileStore, config: NetworkConfig, allocation: Allocation) -> sim.RowPass:
    """A fresh row pass over the store placed with `allocation`."""
    return sim.RowPass(store, sim.place(store, sim.plan_split(config, allocation)))


def library_demand(config: NetworkConfig, library: int, row) -> DemandVector:
    """The demand vector asking `row` of `library` and file 1 of every other."""
    rows = [(1,) * config.num_users] * config.num_libraries
    rows[library - 1] = row
    return DemandVector(tuple(rows))


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
    rows = row_pass(store, config, allocation)
    placement = rows.placement
    L = config.num_libraries
    max_total = 0
    per_lib_max = [0] * L
    count = 0
    for demand in enumerate_demands(config):
        transcript = sim.deliver(rows, demand)
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


def reference_file_subfiles(files, layout: sim.LibraryLayout, num_users: int):
    """One library's files cut with `BitString.slice`: per plan part, per file,
    subfile i of the part is the i-th slice of `subfile_bits` bits after the
    part's offset, in lexicographic subset order (t = 0: one slice, the part)."""
    table = []
    offset = 0
    for part in layout.parts:
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


def reference_library_transcript(table, layout: sim.LibraryLayout, num_users: int, row):
    """One library's transcript XORed one subfile at a time from its server
    subfile table: each size-(t + 1) group's message XORs, member by member,
    the subfile of that member's request indexed by the group without it."""
    parts = []
    for part, per_file in zip(layout.parts, table):
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


def cached_subfiles(placement: sim.PlacementState, user: int, library: int):
    """`user`'s cached subfiles of `library`, per plan part, per file: its
    slices of the placement's cached pieces, laid end to end user by user."""
    k = len(placement.caches)
    return tuple(
        tuple(every[(user - 1) * (c := part.cached(k)) : user * c] for every in per_file)
        for part, per_file in zip(
            placement.layouts[library - 1].parts, placement.cached_pieces[library - 1]
        )
    )


def reference_subfile_decode(placement: sim.PlacementState, parts, row, user: int, library: int):
    """`user`'s decode rebuilt one subfile at a time from its own subfile table
    (`cached_subfiles`): a cached subfile is read, any other subfile S is the
    message of group S + {user} XORed with every other member's cached piece."""
    k = len(row)
    table = cached_subfiles(placement, user, library)
    value = width = 0
    for part, part_tr, per_file in zip(placement.layouts[library - 1].parts, parts, table):
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


class RowOutcome(NamedTuple):
    """One library serving one demand row: its transcript bits and the users
    who fail to decode their request."""

    bits: int
    failed: tuple[int, ...]


def reference_serve(rows: sim.RowPass, library: int, row: tuple[int, ...]) -> RowOutcome:
    """One library row served on its own, the way the row pass once served
    each row: its transcript delivered (`sim.deliver`, file 1 asked of every
    other library) and its bits counted; per coded part, the row's messages
    put at their groups' slots, copied into every block and masked to each
    user's groups (`sim._blocks`), XORed with one decode image per member's
    request, and with each member's send image moved into its own block as
    the pieces it wants; per t = 0 part, each user's message read back at its
    request's place among those sent."""
    lib_idx = library - 1
    k = len(row)
    layout, table, images = (
        rows.placement.layouts[lib_idx], rows.subfiles[lib_idx], rows.send_images[lib_idx]
    )
    parts = sim.deliver(rows, library_demand(rows.config, library, row)).per_library[lib_idx]
    bits = sum(part.bits for part in parts)
    failed = []
    for part, per_file, send, own, sent_part in zip(
        layout.parts, table, images, rows.placement.decode_images[lib_idx], parts
    ):
        if part.t == 0:
            sent = sorted(set(row))
            failed += [
                user for user, n in enumerate(row, start=1)
                if sent_part.messages[sent.index(n)] != per_file[n - 1][0]
            ]
            continue
        width, spread, masks, *_ = sim._blocks(k, part.t, part.subfile_bits)
        wide = 0
        for message in sent_part.messages:  # the first group's message highest
            wide = wide << part.subfile_bits | message
        blocks = (wide * spread) & masks
        for member, (member_images, member_own, n) in enumerate(zip(send, own, row)):
            blocks ^= member_own[n - 1] ^ (member_images[n - 1] << (member * width))
        if blocks:
            block = (1 << width) - 1
            failed += [
                user for user in range(1, k + 1) if (blocks >> ((user - 1) * width)) & block
            ]
    bad = rows.unrecoverable[lib_idx]
    failed += [user for user, n in enumerate(row, start=1) if (user, n) in bad]
    return RowOutcome(bits=bits, failed=tuple(sorted(set(failed))))


def reference_cached_ranks(num_users: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Per user, by a scan over every size-t subset: the lexicographic ranks
    of those holding the user (`sim.IndexTable.cached_ranks`)."""
    subsets = list(combinations(range(1, num_users + 1), t))
    return tuple(
        tuple(i for i, subset in enumerate(subsets) if user in subset)
        for user in range(1, num_users + 1)
    )


def reference_send_sources(num_users: int, t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The send sources by a scan, as (slot, rank) pairs: per member, every
    size-(t + 1) group from the lowest slot up (the first group highest) is
    tested for holding it, and each one that does gives its slot and the
    rank of the group rebuilt without the member."""
    groups = list(combinations(range(1, num_users + 1), t + 1))
    rank = {subset: i for i, subset in enumerate(combinations(range(1, num_users + 1), t))}
    return tuple(
        tuple(
            (len(groups) - 1 - g, rank[tuple(x for x in group if x != member)])
            for g, group in reversed(list(enumerate(groups)))
            if member in group
        )
        for member in range(1, num_users + 1)
    )


def source_pairs(sources: sim.Sources) -> tuple[tuple[tuple[int, int], ...], ...]:
    """`sim.IndexTable` sources, kept in flat arrays, as (slot, index) pairs."""
    return tuple(tuple(zip(slots, indices)) for slots, indices in sources)


def reference_blocks(num_users: int, t: int, slot_bits: int) -> tuple[int, int, int]:
    """`sim._blocks`' width, spread and masks by a scan: per user, every
    size-(t + 1) group is tested for holding it, and each one that does is
    masked in the user's block."""
    groups = list(combinations(range(1, num_users + 1), t + 1))
    width = len(groups) * slot_bits
    piece = (1 << slot_bits) - 1
    spread = masks = 0
    for user in range(1, num_users + 1):
        base = (user - 1) * width
        spread |= 1 << base
        for g, group in enumerate(groups):
            if user in group:
                masks |= piece << (base + (len(groups) - 1 - g) * slot_bits)
    return width, spread, masks


def reference_decode_sources(num_users: int, t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The decode sources by a scan, as (slot, index) pairs: per member, per
    other user, every size-(t + 1) group from the lowest slot up is tested
    for holding both, and each one that does is rebuilt without the member
    to find the user's cached copy of that share. `sim._index_table` walks
    each member's send sources once instead."""
    groups = list(combinations(range(1, num_users + 1), t + 1))
    subsets = list(combinations(range(1, num_users + 1), t))
    per_user = math.comb(num_users - 1, t - 1)
    index = {}
    for user in range(1, num_users + 1):
        cached = [subset for subset in subsets if user in subset]
        for p, subset in enumerate(cached):
            index[user, subset] = (user - 1) * per_user + p
    top = len(groups) - 1
    return tuple(
        tuple(
            (
                (user - 1) * len(groups) + top - g,
                index[user, tuple(x for x in group if x != member)],
            )
            for user in range(1, num_users + 1)
            if user != member
            for g, group in reversed(list(enumerate(groups)))
            if member in group and user in group
        )
        for member in range(1, num_users + 1)
    )


def reference_layout(rows: sim.RowPass) -> tuple:
    """The row pass's laid-out tables rebuilt one piece at a time, each piece
    a bit slice of a stored file or a cache segment and each slot found by a
    scan over the groups: per library, per plan part, per file, every user's
    cached pieces, user by user (`PlacementState.cached_pieces`); and per
    member, per file, the send, decode and residual images (None for t = 0),
    as `(cached_pieces, send_images, decode_images, residuals)`."""
    placement, k = rows.placement, rows.config.num_users
    users = range(1, k + 1)
    tables: tuple[list, list, list, list] = ([], [], [], [])
    for lib_idx, (files, layout) in enumerate(zip(rows.store.files, placement.layouts)):
        segments = [caches[lib_idx] for caches in placement.caches]
        by_part: tuple[list, list, list, list] = ([], [], [], [])
        file_offset = cache_offset = 0
        for part in layout.parts:
            w, t, n_files = part.subfile_bits, part.t, layout.num_files
            subsets = list(combinations(users, t))
            mine = {u: [s for s in subsets if u in s] for u in users}  # in cache order

            def server(n, subset):
                start = file_offset + subsets.index(subset) * w
                return files[n - 1].slice(start, start + w).value

            def cached(u, n, subset):
                start = cache_offset + ((n - 1) * len(mine[u]) + mine[u].index(subset)) * w
                return segments[u - 1].slice(start, start + w).value

            by_part[0].append(tuple(
                tuple(cached(u, n, s) for u in users for s in mine[u]) for n in range(1, n_files + 1)
            ))
            if t == 0:
                for images in by_part[1:]:
                    images.append(None)
            else:
                groups = list(combinations(users, t + 1))
                send, decode, residual = ([[0] * n_files for _ in users] for _ in range(3))
                for m, n, (g, group) in product(users, range(1, n_files + 1), enumerate(groups)):
                    if m not in group:
                        continue
                    share, slot = tuple(x for x in group if x != m), len(groups) - 1 - g
                    send[m - 1][n - 1] |= server(n, share) << (slot * w)
                    for u in group:
                        # in u's block: the send image copied and masked, XOR
                        # u's decode image or, in the member's own, its wanted piece
                        other = cached(u, n, share) if u != m else server(n, share)
                        if u != m:
                            decode[m - 1][n - 1] |= other << ((u - 1) * len(groups) + slot) * w
                        term = server(n, share) ^ other
                        residual[m - 1][n - 1] |= term << ((u - 1) * len(groups) + slot) * w
                for images, built in zip(by_part[1:], (send, decode, residual)):
                    images.append(tuple(map(tuple, built)))
            file_offset += part.file_bits
            cache_offset += n_files * len(mine[1]) * w
        for table, built in zip(tables, by_part):
            table.append(tuple(built))
    return tuple(map(tuple, tables))


def reference_reduction(rows: sim.RowPass) -> sim.ReductionReport:
    """The stack walk one stacked demand at a time: each library's clamped
    row served on its own (`reference_serve`), the bits summed per demand,
    and the first user failing a library kept for its stacked file raised
    with every kept library's decode joined."""
    config, store = rows.config, rows.store
    sorted_config, permutation = sort_by_library_size(config)
    k = config.num_users
    n_max = sorted_config.file_counts[-1]
    keeps = [permutation[subfile_level(sorted_config, n) - 1 :] for n in range(1, n_max + 1)]
    served = {}
    max_total = 0
    for prime in product(range(1, n_max + 1), repeat=k):
        induced = tuple(tuple(min(x, n) for x in prime) for n in config.file_counts)
        outcomes = []
        for library, row in enumerate(induced, start=1):
            if (library, row) not in served:
                served[library, row] = reference_serve(rows, library, row)
            outcomes.append(served[library, row])
        max_total = max(max_total, sum(outcome.bits for outcome in outcomes))
        for user, n in enumerate(prime, start=1):
            keep = keeps[n - 1]
            if any(user in outcomes[orig - 1].failed for orig in keep):
                demand = DemandVector(induced)
                transcript = sim.deliver(rows, demand)
                decoded = (reference_decode(rows.placement, transcript, user, o) for o in keep)
                actual = concat(decoded)
                expected = concat(store.files[orig - 1][n - 1] for orig in keep)
                raise sim.DecodeMismatchError(demand, user, 0, expected, actual)
    return sim.ReductionReport(
        demands_checked=n_max**k,
        stacked_file_bits=tuple(
            sum(store.files[orig - 1][n - 1].width for orig in keep)
            for n, keep in enumerate(keeps, start=1)
        ),
        cache_bits=rows.placement.cache_bits(1),
        max_total_bits=max_total,
    )


def reference_stack_delivery(rows: sim.RowPass) -> sim.ReductionReport:
    """Serve every stacked demand with its own full delivery and decodes."""
    config, store, placement = rows.config, rows.store, rows.placement
    sorted_config, permutation = sort_by_library_size(config)
    n_max = concatenate(config).num_files
    k = config.num_users
    max_total = 0
    checked = 0
    for prime in product(range(1, n_max + 1), repeat=k):
        induced = DemandVector(tuple(tuple(min(x, n) for x in prime) for n in config.file_counts))
        transcript = sim.deliver(rows, induced)
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


def reference_scheme_tradeoff(
    num_files: int, num_users: int
) -> tuple[PiecewiseLinearTradeoff, tuple[int, ...]]:
    """The scheme curve as the hull of all K + 1 corners, and each corner's
    t = m * K / N, which must be a whole number."""
    hull = lower_convex_envelope(
        scheme_corner_points(num_files, num_users),
        num_files,
        label=f"scheme(N={num_files},K={num_users})",
    )
    ts = [divmod(p * num_users, q * num_files) for p, q in hull.breakpoint_ratios]
    assert all(rest == 0 for _, rest in ts), (num_files, num_users)
    return hull, tuple(t for t, _ in ts)


def reference_first_corner(num_files: int, num_users: int) -> int:
    """t* of the scheme curve by scanning t = 1, 2, ...: the first corner
    below the chord from the anchor (0, N) to the next corner, or K; 0 when
    N >= K."""
    n, k = num_files, num_users
    if n >= k:
        return 0
    return next((t for t in range(1, k) if (k - t - n - n * t) * (t + 2) < -(k + 1) * t), k)


def reference_plan_weights(
    config: NetworkConfig, allocation: Allocation
) -> list[list[tuple[int, Fraction]]]:
    """Per library, the (t, fraction-of-file) parts realizing its memory slice
    on its scheme envelope, each corner's t recovered as m * K / N."""
    if len(allocation.per_library) != config.num_libraries:
        raise ValueError(
            f"allocation has {len(allocation.per_library)} entries for "
            f"{config.num_libraries} libraries"
        )
    k = config.num_users
    out: list[list[tuple[int, Fraction]]] = []
    for idx, (lib, budget) in enumerate(zip(config.libraries, allocation.per_library), start=1):
        env = build_scheme_tradeoff(lib.num_files, k)
        m = budget / lib.alpha
        n = lib.num_files
        if m > n:
            raise ValueError(
                f"library {idx} gets memory {budget}, more than its content {lib.alpha * n}"
            )
        p, q = m.as_integer_ratio()
        seg = env.segment_of(p, q)
        bp = env.materialize().breakpoint_ratios
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


def reference_base_requirement(
    config: NetworkConfig, weights: list[list[tuple[int, Fraction]]]
) -> int:
    """Smallest base size giving whole-bit files, parts and subfiles."""
    req = sim.library_bit_requirement(config)
    k = config.num_users
    for lib, parts in zip(config.libraries, weights):
        for t, weight in parts:
            per_subfile = lib.alpha * weight / math.comb(k, t)
            req = math.lcm(req, per_subfile.denominator)
    return req


def reference_greedy(config: NetworkConfig, tradeoffs) -> AllocationTrace:
    """Greedy split by rescanning every library for the steepest next segment
    on each step; ties to the smallest library index."""
    alphas = config.alphas
    budget = config.cache_size
    views = [fraction_curve(curve) for curve in tradeoffs]
    cursor = [0] * config.num_libraries
    filled = [Fraction(0)] * config.num_libraries
    libraries, segments, deltas, totals = [], [], [], []
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
        libraries.append(best + 1)
        segments.append(seg)
        deltas.append(delta)
        totals.append(total)
        if delta == width:
            cursor[best] += 1
    final = Allocation(tuple(filled))
    # the memories as ints over the lcm of their denominators, which need not
    # be the greedy's scale: traces compare their steps by value
    scale = math.lcm(*(m.denominator for m in deltas + totals))
    return AllocationTrace(
        libraries,
        segments,
        [int(m * scale) for m in deltas],
        [int(m * scale) for m in totals],
        scale,
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
            [bp * alphas[lib] for bp in fractions(tradeoffs[lib].materialize().breakpoint_ratios)]
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


def reference_corners_json(curve: FractionCurve) -> list[list[str]]:
    """`tradeoff_rows`' corner columns: str() of each corner's Fraction memory,
    and of its rate."""
    bp, sl, ic = curve.breakpoints, curve.slopes, curve.intercepts
    rates = [str(z - g * m) for m, g, z in zip(bp, sl, ic)]
    return [[str(m) for m in bp], rates + ["0"]]


def reference_segments_json(curve: FractionCurve) -> list[list[str]]:
    """`tradeoff_rows`' segment columns: str() of each segment's Fraction
    start, end, intercept and negated slope."""
    bp, sl, ic = curve.breakpoints, curve.slopes, curve.intercepts
    return [
        [str(m) for m in bp[: curve.num_segments]],
        [str(m) for m in bp[1:]],
        [str(z) for z in ic],
        [str(-g) for g in sl],
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


def reference_split_rate(config: NetworkConfig, tradeoffs, allocation: Allocation) -> Fraction:
    """`split_rate` in Fraction arithmetic: each library's alpha times its
    curve's rate at its memory over alpha, summed one Fraction at a time."""
    rate = Fraction(0)
    for lib, m, curve in zip(config.libraries, allocation.per_library, tradeoffs):
        rate += lib.alpha * reference_evaluate(fraction_curve(curve), m / lib.alpha)
    return rate


def reference_cut_set_bound(betas, num_users: int, memory: Fraction) -> Fraction:
    """`concatenated_cut_set_bound` in Fraction arithmetic: every (s, b) with
    s up to K, each candidate (beta_1 + ... + beta_{s*b} - s*M) / b a Fraction."""
    n = len(betas)
    prefix = [Fraction(0)]
    for b in betas:
        prefix.append(prefix[-1] + b)
    best = Fraction(0)
    for s in range(1, num_users + 1):
        for rounds in range(1, n // s + 1):
            best = max(best, (prefix[s * rounds] - s * memory) / rounds)
    return best


class FractionSweep(NamedTuple):
    """A sweep as Fractions: (share, rate) points, breakpoints and
    (start, end, intercept, slope) segments."""

    points: tuple[tuple[Fraction, Fraction], ...]
    breakpoints: tuple[Fraction, ...]
    segments: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]


def reference_lambda_sweep(
    config: NetworkConfig, tradeoffs, num_samples: int = 11
) -> FractionSweep:
    """`lambda_sweep` in Fraction arithmetic. The cuts are the shares at which
    either library's memory reaches one of its corners; on each stretch both
    libraries sit on the segment holding their memory at its midpoint, which
    gives the line, and equal lines in a row merge. Every point is rated on
    its own by `reference_split_rate`."""
    budget = config.cache_size
    (a1, a2), (v1, v2) = config.alphas, [fraction_curve(curve) for curve in tradeoffs]
    cuts = {Fraction(0), Fraction(1)}
    if budget > 0:
        cuts |= {a1 * t / budget for t in v1.breakpoints if 0 < a1 * t < budget}
        cuts |= {1 - a2 * t / budget for t in v2.breakpoints if 0 < a2 * t < budget}
    cuts = sorted(cuts)

    def line(curve: FractionCurve, memory: Fraction) -> tuple[Fraction, Fraction]:
        seg = reference_segment_of(curve, memory)
        if seg == curve.num_segments:
            return Fraction(0), Fraction(0)
        return curve.intercepts[seg], curve.slopes[seg]

    segments: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        z1, g1 = line(v1, mid * budget / a1)
        z2, g2 = line(v2, (1 - mid) * budget / a2)
        # a1 (z1 - g1 s M / a1) + a2 (z2 - g2 (1 - s) M / a2)
        intercept, slope = a1 * z1 + a2 * z2 - g2 * budget, (g2 - g1) * budget
        if segments and segments[-1][2:] == (intercept, slope):
            segments[-1] = (segments[-1][0], hi, intercept, slope)
        else:
            segments.append((lo, hi, intercept, slope))
    samples = {Fraction(k, num_samples - 1) for k in range(num_samples)}
    shares = sorted({seg[0] for seg in segments} | samples)
    points = tuple(
        (s, reference_split_rate(config, tradeoffs, Allocation((s * budget, (1 - s) * budget))))
        for s in shares
    )
    breakpoints = (segments[0][0],) + tuple(seg[1] for seg in segments)
    return FractionSweep(points, breakpoints, tuple(segments))


def fractions_built(call) -> int:
    """How many Fractions `call()` constructs, anywhere: `Fraction.__new__`
    counts while it runs, arithmetic results included."""
    original = vars(Fraction)["__new__"]
    count = 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        call()
    finally:
        Fraction.__new__ = original
    return count
