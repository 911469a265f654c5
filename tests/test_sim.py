"""Tests for bit-exact placement, delivery, decoding, and the stack reduction."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import cacheshare.sim as sim
from cacheshare.allocation import Allocation, greedy_allocate, split_rate
from cacheshare.bits import BitString, concat
from cacheshare.model import CapExceededError, DemandVector
from cacheshare.sim import (
    DecodeMismatchError,
    DivisibilityError,
    FileStore,
    LibraryLayout,
    RowPass,
    SchemePart,
    decode,
    deliver,
    library_bit_requirement,
    place,
    plan_split,
    random_file_store,
    reduction_demo,
    verify_all,
)

from cacheshare.tradeoff import build_scheme_tradeoff

from util import (
    curves_for,
    faulty_place,
    flip,
    flip_decode_image,
    fractions,
    make_config,
    random_corner_allocation,
    random_sim_config,
    reference_base_requirement,
    reference_blocks,
    reference_cached_ranks,
    reference_config,
    reference_decode,
    reference_decode_sources,
    reference_file_subfiles,
    reference_library_transcript,
    reference_plan_weights,
    reference_reduction,
    reference_send_sources,
    reference_serve,
    reference_stack_delivery,
    reference_subfile_decode,
    reference_verify,
    row_pass,
    unequal_config,
    wrong_file_decode_image,
)

F = Fraction


def single_library_config(cache="1"):
    return make_config(counts=(2,), weights=(F(1),), users=2, cache=cache)


def test_library_bit_requirement_and_store_sizes():
    config = reference_config()
    assert library_bit_requirement(config) == 5
    store = random_file_store(config, 40, seed=1)
    assert [f.width for f in store.files[0]] == [16, 16]
    assert [f.width for f in store.files[1]] == [24, 24]
    with pytest.raises(DivisibilityError, match="use a multiple of 5"):
        random_file_store(config, 7, seed=1)
    for size in (0, -5):
        with pytest.raises(DivisibilityError, match=f"^base size {size} bits must be positive$"):
            random_file_store(config, size, seed=1)


def test_required_base_size_frozen_examples():
    config = reference_config()
    assert plan_split(config, Allocation((F(2, 5), F(3, 5)))).base_unit == 10
    assert plan_split(config, Allocation((F(1, 5), F(4, 5)))).base_unit == 10
    unequal = unequal_config()
    assert plan_split(unequal, Allocation((F(1, 4), F(1, 4)))).base_unit == 8


def test_plan_split_matches_the_reference_planner():
    # the corners' ts give the parts, base unit and rate that recovering each
    # t as m * K / N gave
    rng = random.Random(1016)
    seen = {"one_part": 0, "two_parts": 0}
    for seed in range(80):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        weights = reference_plan_weights(config, allocation)
        assert [list(parts) for parts in plan.parts] == weights, seed
        assert plan.base_unit == reference_base_requirement(config, weights), seed
        curves = curves_for(config, "scheme")
        assert plan.formula_rate == split_rate(config, allocation, curves), seed
        assert (plan.config, plan.allocation) == (config, allocation)
        for parts in plan.parts:
            seen["two_parts" if len(parts) == 2 else "one_part"] += 1
    assert min(seen.values()) > 20, seen


def layouts_at(config, allocation, base_size):
    store = random_file_store(config, base_size, seed=1)
    return place(store, plan_split(config, allocation)).layouts


def test_corner_plans_match_hand_layout():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    layouts = layouts_at(config, allocation, 40)
    assert layouts[0] == LibraryLayout(
        parts=(SchemePart(t=1, file_bits=16, subfile_bits=8),), num_files=2
    )
    assert layouts[1] == LibraryLayout(
        parts=(SchemePart(t=1, file_bits=24, subfile_bits=12),), num_files=2
    )


def test_split_plans_share_between_adjacent_vertices():
    config = reference_config()
    layouts = layouts_at(config, Allocation((F(1, 5), F(4, 5))), 10)
    # library one runs halfway between t=0 and t=1
    assert layouts[0] == LibraryLayout(
        parts=(SchemePart(t=0, file_bits=2, subfile_bits=2), SchemePart(t=1, file_bits=2, subfile_bits=1)),
        num_files=2,
    )
    # library two runs a third of the way from t=1 to t=2
    assert layouts[1] == LibraryLayout(
        parts=(SchemePart(t=1, file_bits=4, subfile_bits=2), SchemePart(t=2, file_bits=2, subfile_bits=2)),
        num_files=2,
    )


def test_place_rejects_indivisible_base_size():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    with pytest.raises(DivisibilityError, match="use a multiple of 10"):
        layouts_at(config, allocation, 15)


def test_allocation_beyond_library_content_is_rejected():
    config = reference_config(cache="2")
    with pytest.raises(ValueError, match="more than its content"):
        layouts_at(config, Allocation((F(9, 10), F(11, 10))), 40)
    with pytest.raises(ValueError, match="^allocation has 3 entries for 2 libraries$"):
        plan_split(config, Allocation((F(1, 2), F(1, 2), F(1))))


@pytest.mark.parametrize("size", [0, -10])
def test_place_names_a_base_size_that_is_not_positive(size):
    # a hand-built store skips random_file_store's check; place gives the same message
    config = reference_config()
    store = FileStore(base_size=size, files=((), ()))
    with pytest.raises(DivisibilityError, match=f"^base size {size} bits must be positive$"):
        place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))


def test_place_accepts_exactly_the_multiples_of_the_required_base_size():
    rng = random.Random(8117)
    rejected = 0
    for seed in range(40):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        need = plan.base_unit
        for size in (need, 2 * need):
            layouts = place(random_file_store(config, size, seed), plan).layouts
            for lib, layout in zip(config.libraries, layouts):
                assert sum(part.file_bits for part in layout.parts) == lib.alpha * size
        # sizes that give whole-bit files but not whole-bit subfiles, if any
        files_only = library_bit_requirement(config)
        assert need % files_only == 0
        if need > files_only:
            rejected += 1
            for bad in (files_only, need + files_only):
                with pytest.raises(DivisibilityError, match=f"use a multiple of {need}$"):
                    place(random_file_store(config, bad, seed), plan)
    assert rejected > 0


def test_cache_layout_is_store_slices_in_declared_order():
    config = single_library_config()
    store = random_file_store(config, 4, seed=3)
    placement = place(store, plan_split(config, Allocation((F(1),))))
    file1, file2 = store.files[0]
    # t=1, subfile size 2: user k caches the half indexed by subset {k}
    assert placement.caches[0][0] == concat([file1.slice(0, 2), file2.slice(0, 2)])
    assert placement.caches[1][0] == concat([file1.slice(2, 4), file2.slice(2, 4)])


def test_delivery_message_is_the_cross_xor():
    config = single_library_config()
    store = random_file_store(config, 4, seed=4)
    placement = place(store, plan_split(config, Allocation((F(1),))))
    file1, file2 = store.files[0]
    transcript = deliver(store, placement, DemandVector(((1, 2),)))
    part = transcript.per_library[0][0]
    # user 1 misses its half of file 1, user 2 misses its half of file 2
    assert part.messages == ((file1.slice(2, 4) ^ file2.slice(0, 2)).value,)
    assert transcript.total_bits == 2


def test_decode_uses_only_own_cache_and_transcript():
    config = reference_config()
    store = random_file_store(config, 40, seed=5)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    demand = DemandVector(((1, 2), (2, 1)))
    transcript = deliver(store, placement, demand)
    for library in (1, 2):
        parts, row = transcript.per_library[library - 1], demand.rows[library - 1]
        for user in (1, 2):
            assert decode(placement, parts, row, user, library) == (
                store.files[library - 1][row[user - 1] - 1]
            )
    zeroed = dataclasses.replace(
        placement,
        caches=(
            placement.caches[0],
            tuple(BitString(seg.width, 0) for seg in placement.caches[1]),
        ),
    )
    for library in (1, 2):
        parts, row = transcript.per_library[library - 1], demand.rows[library - 1]
        want = row[0]
        assert decode(zeroed, parts, row, 1, library) == store.files[library - 1][want - 1]
        # the copy cut its own caches: user 2 now sees only zero subfiles, and
        # so are its blocks of the decode images `decode` reads; user 1's
        # blocks, laid out from its own cache alone, are unchanged
        assert {
            piece
            for part in zeroed.cached_subfiles[1][library - 1]
            for pieces in part
            for piece in pieces
        } == {0}
        for part, before, after in zip(
            placement.layouts[library - 1].parts,
            placement.decode_images[library - 1],
            zeroed.decode_images[library - 1],
        ):
            width = sim._blocks(2, part.t, part.subfile_bits)[0]
            for old_images, new_images in zip(before, after):
                for old, new in zip(old_images, new_images):
                    assert new >> width == 0
                    assert new & ((1 << width) - 1) == old & ((1 << width) - 1)
        assert decode(zeroed, parts, row, 2, library) != store.files[library - 1][row[1] - 1]


def library_demand(config, library, row):
    """The demand vector asking `row` of `library` and file 1 of every other."""
    rows = [(1,) * config.num_users] * config.num_libraries
    rows[library - 1] = row
    return DemandVector(tuple(rows))


@pytest.mark.parametrize(
    "config, allocation",
    [
        (reference_config(), Allocation((F(2, 5), F(3, 5)))),
        # t = 1 and t = 2 parts: user 2's pieces also cancel others' shares
        (make_config(counts=(2,), weights=(F(1),), users=3, cache="1"), Allocation((F(1),))),
    ],
)
def test_flipping_one_cached_bit_changes_only_that_users_decode(config, allocation):
    plan = plan_split(config, allocation)
    store = random_file_store(config, plan.base_unit, seed=7)
    placement = place(store, plan)
    k = config.num_users
    for library, lib in enumerate(config.libraries, start=1):
        rows = list(product(range(1, lib.num_files + 1), repeat=k))
        transcripts = [
            deliver(store, placement, library_demand(config, library, row)).per_library[
                library - 1
            ]
            for row in rows
        ]
        for index in range(placement.caches[1][library - 1].width):
            segment = flip(placement.caches[1][library - 1], index)
            tampered = tampered_segment(placement, 2, library, segment)
            changed = set()
            for row, parts in zip(rows, transcripts):
                for user in range(1, k + 1):
                    before = decode(placement, parts, row, user, library)
                    after = decode(tampered, parts, row, user, library)
                    assert before == store.files[library - 1][row[user - 1] - 1]
                    if after != before:
                        changed.add(user)
            assert changed == {2}, (library, index)


def test_flipping_a_bit_of_a_users_own_cache_fails_that_user():
    config = reference_config()
    store = random_file_store(config, 40, seed=5)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    report = verify_all(RowPass(store, placement))
    assert report.measured_rate == placement.plan.formula_rate
    for library in (1, 2):
        for index in (0, placement.caches[0][library - 1].width - 1):
            segments = list(placement.caches[0])
            segments[library - 1] = flip(segments[library - 1], index)
            tampered = dataclasses.replace(
                placement, caches=(tuple(segments),) + placement.caches[1:]
            )
            with pytest.raises(DecodeMismatchError) as info:
                verify_all(RowPass(store, tampered))
            assert (info.value.user, info.value.library) == (1, library)


def test_verify_reference_corner_run():
    config = reference_config()
    store = random_file_store(config, 40, seed=2026)
    report = verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    assert report.demands_checked == 16
    assert report.max_total_bits == 20
    assert report.per_library_max_bits == (8, 12)
    assert report.measured_rate == F(1, 2)
    assert report.formula_rate == F(1, 2)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    assert placement.cache_bits(1) == 40
    assert placement.cache_bits(2) == 40


def test_verify_split_allocation_run():
    config = reference_config()
    store = random_file_store(config, 10, seed=77)
    report = verify_all(row_pass(store, config, Allocation((F(1, 5), F(4, 5)))))
    assert report.measured_rate == F(7, 10) == report.formula_rate
    assert report.per_library_max_bits == (5, 2)
    placement = place(store, plan_split(config, Allocation((F(1, 5), F(4, 5)))))
    # envelope-vertex sharing uses the budget exactly, never just within rounding
    assert placement.cache_bits(1) == 10


def test_verify_zero_memory_sends_each_distinct_request_once():
    config = reference_config(cache="0")
    store = random_file_store(config, 5, seed=8)
    report = verify_all(row_pass(store, config, Allocation((F(0), F(0)))))
    assert report.measured_rate == F(2) == report.formula_rate
    assert report.per_library_max_bits == (4, 6)
    assert place(store, plan_split(config, Allocation((F(0), F(0))))).cache_bits(1) == 0


def test_verify_full_cache_sends_nothing():
    config = reference_config(cache="2")
    store = random_file_store(config, 10, seed=9)
    report = verify_all(row_pass(store, config, Allocation((F(4, 5), F(6, 5)))))
    assert report.measured_rate == 0 == report.formula_rate
    assert report.max_total_bits == 0
    assert place(store, plan_split(config, Allocation((F(4, 5), F(6, 5))))).cache_bits(1) == 20


def test_verify_honours_demand_cap():
    config = reference_config()
    store = random_file_store(config, 10, seed=10)
    with pytest.raises(CapExceededError):
        verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))), cap=3)


def test_libraries_do_not_interact():
    config = reference_config()
    store = random_file_store(config, 10, seed=11)
    # flip a bit of library 2 file 1 inside the subfile indexed by subset {2}
    tampered = FileStore(
        base_size=10,
        files=(store.files[0], (flip(store.files[1][0], 3), store.files[1][1])),
    )
    allocation = Allocation((F(2, 5), F(3, 5)))
    demand = DemandVector(((1, 1), (1, 2)))
    plan = plan_split(config, allocation)
    before = place(store, plan)
    after = place(tampered, plan)
    assert before.caches[0][0] == after.caches[0][0]
    assert before.caches[1][0] == after.caches[1][0]
    assert before.caches[0][1] == after.caches[0][1]
    assert before.caches[1][1] != after.caches[1][1]
    t_before = deliver(store, before, demand)
    t_after = deliver(tampered, after, demand)
    assert t_before.per_library[0] == t_after.per_library[0]
    assert t_before.per_library[1] != t_after.per_library[1]


def test_decode_failure_reports_first_witness(monkeypatch):
    config = reference_config()
    store = random_file_store(config, 10, seed=12)
    # user 1 misreads user 2's share of library 1's file 1
    faulty_place(monkeypatch, [(1, 0, 2, 1, 1)])
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    err = info.value
    assert err.demand.rows == ((1, 1), (1, 1))
    assert err.user == 1
    assert err.library == 1
    assert err.expected == store.files[0][0]
    # user 1 caches subfile {1} (bits 0-1) and recovers {2}, whose top bit is bit 2
    assert err.actual == flip(err.expected, 2)


def test_formula_rate_matches_memory_sharing_on_scheme_curves():
    config = reference_config()
    trace = greedy_allocate(config, curves_for(config, "scheme"))
    plan = plan_split(config, trace.final)
    store = random_file_store(config, plan.base_unit, seed=1)
    assert place(store, plan).plan.formula_rate == trace.rate


def test_reduction_demo_equal_sizes():
    config = reference_config()
    store = random_file_store(config, 40, seed=13)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    report = reduction_demo(RowPass(store, placement))
    assert report.demands_checked == 4
    assert report.stacked_file_bits == (40, 40)
    assert report.cache_bits == 40
    assert report.max_total_bits == 20


def test_reduction_demo_unequal_sizes():
    config = unequal_config()
    store = random_file_store(config, 8, seed=14)
    placement = place(store, plan_split(config, Allocation((F(1, 4), F(1, 4)))))
    report = reduction_demo(RowPass(store, placement))
    assert report.demands_checked == 4
    assert report.stacked_file_bits == (8, 4)
    assert report.cache_bits == 4
    # worst stacked transcript can be no longer than the multi-library worst case
    assert F(report.max_total_bits, 8) <= placement.plan.formula_rate


def test_reduction_demo_honours_demand_cap(monkeypatch):
    config = reference_config()
    store = random_file_store(config, 10, seed=15)
    rows = row_pass(store, config, Allocation((F(2, 5), F(3, 5))))
    # the cap is checked before any verdict is asked for
    forbid_verdicts(monkeypatch, "failed", "first_failing")
    with pytest.raises(CapExceededError, match="stack enumeration needs 4 vectors, cap is 3"):
        reduction_demo(rows, cap=3)


def test_verify_counts_covered_vectors_and_served_rows():
    config = reference_config()
    store = random_file_store(config, 40, seed=2026)
    report = verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    assert report.demands_checked == 16
    assert report.demand_vectors_run == 8
    payload = report.to_json()
    assert list(payload)[:2] == ["demands_checked", "demand_vectors_run"]
    assert payload["demand_vectors_run"] == 8


def random_split_allocation(rng, config):
    """Run each library strictly between two adjacent envelope vertices, so
    its plan has two parts; returns the rebuilt config and the split."""
    picks = []
    for lib in config.libraries:
        env = build_scheme_tradeoff(lib.num_files, config.num_users)
        seg = rng.randrange(env.num_segments)
        lo, hi = fractions((env.breakpoint(seg), env.breakpoint(seg + 1)))
        picks.append((lo + rng.choice((F(1, 3), F(1, 2))) * (hi - lo)) * lib.alpha)
    total = sum(picks, F(0))
    rebuilt = dataclasses.replace(config, cache_size=total)
    return rebuilt, Allocation(tuple(picks))


def test_row_pass_agrees_with_full_product_reference():
    rng = random.Random(4102)
    for seed in range(30):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        expected = reference_verify(store, config, allocation)
        placement = place(store, plan)
        rows = RowPass(store, placement)
        report = verify_all(rows)
        for field in ("demands_checked", "measured_rate", "max_total_bits", "per_library_max_bits"):
            assert getattr(report, field) == getattr(expected, field), (seed, field)
        assert report.measured_rate == report.formula_rate
        assert report.demand_vectors_run == sum(
            n**config.num_users for n in config.file_counts
        )
        stack = reduction_demo(rows)
        assert stack == reference_stack_delivery(store, config, placement)


def test_subfile_tables_are_file_slices_and_cut_the_caches_exactly():
    rng = random.Random(5120)
    seen = {"two_parts": 0, "t0": 0}
    for seed in range(40):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        placement = place(store, plan)
        rows = RowPass(store, placement)
        k = config.num_users
        for library, (files, layout) in enumerate(zip(store.files, placement.layouts), start=1):
            seen["two_parts"] += len(layout.parts) == 2
            seen["t0"] += any(part.t == 0 for part in layout.parts)
            slices = reference_file_subfiles(files, layout, k)
            server = rows.subfiles[library - 1]
            assert server == tuple(
                tuple(tuple(piece.value for piece in pieces) for pieces in per_file)
                for per_file in slices
            ), (seed, library)
            for user in range(1, k + 1):
                cached = placement.cached_subfiles[user - 1][library - 1]
                assert placement.caches[user - 1][library - 1] == concat(
                    BitString(part.subfile_bits, piece)
                    for part, per_file in zip(layout.parts, cached)
                    for pieces in per_file
                    for piece in pieces
                ), (seed, library, user)
                # the user holds the server's subfiles of the subsets it is in
                for part, mine, theirs in zip(layout.parts, cached, server):
                    ranks = [
                        i
                        for i, subset in enumerate(combinations(range(1, k + 1), part.t))
                        if user in subset
                    ]
                    assert mine == tuple(
                        tuple(pieces[i] for i in ranks) for pieces in theirs
                    ), (seed, library, user)
            # every message served for every row of this library is an int of
            # its part's subfile width (the other libraries ask for file 1)
            for row in product(range(1, len(files) + 1), repeat=k):
                transcript = deliver(store, placement, library_demand(config, library, row))
                for part in transcript.per_library[library - 1]:
                    assert all(
                        type(m) is int and 0 <= m < 1 << part.subfile_bits
                        for m in part.messages
                    ), (seed, library, row)
                    assert part.bits == len(part.messages) * part.subfile_bits
    assert seen["two_parts"] and seen["t0"], seen


def three_library_run():
    config = make_config(
        counts=(2, 2, 2), weights=(F(1, 5), F(2, 5), F(2, 5)), users=2, cache="1"
    )
    allocation = Allocation((F(1, 5), F(2, 5), F(2, 5)))
    return config, allocation, random_file_store(config, 10, seed=21)


@pytest.mark.parametrize(
    "failing, witness_rows, user, library",
    [
        # (library, part, member, file, user): `user` misreads `member`'s share
        # of `file`, so it fails every row of `library` where `member` asks for it.
        # Only library 2 fails, off its all-ones row, and only for user 2
        ([(2, 0, 1, 2, 2)], ((1, 1), (2, 1), (1, 1)), 2, 2),
        # the last failing library's first failing row is put in
        ([(1, 0, 2, 2, 1), (2, 0, 1, 2, 2), (2, 0, 1, 2, 1)], ((1, 1), (2, 1), (1, 1)), 1, 2),
        # an all-ones failure wins; user-major order picks library 3 for user 1
        ([(2, 0, 2, 2, 1), (2, 0, 1, 1, 2), (3, 0, 2, 1, 1)], ((1, 1), (1, 1), (1, 1)), 1, 3),
        # an all-ones failure also beats a later library's failure off all-ones
        ([(1, 0, 1, 1, 2), (3, 0, 1, 2, 1)], ((1, 1), (1, 1), (1, 1)), 2, 1),
    ],
)
def test_witness_matches_full_product_reference(monkeypatch, failing, witness_rows, user, library):
    config, allocation, store = three_library_run()
    faulty_place(monkeypatch, failing)
    with pytest.raises(DecodeMismatchError) as reference:
        reference_verify(store, config, allocation)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(row_pass(store, config, allocation))
    want, got = reference.value, info.value
    assert (got.demand, got.user, got.library, got.expected, got.actual) == (
        want.demand, want.user, want.library, want.expected, want.actual
    )
    assert got.demand.rows == witness_rows
    assert (got.user, got.library) == (user, library)


def test_stack_reads_the_rows_verification_served(monkeypatch):
    config = make_config(counts=(2,), weights=(F(1),), users=3, cache="1")
    allocation = Allocation((F(1),))
    store = random_file_store(config, plan_split(config, allocation).base_unit, seed=16)
    rows = row_pass(store, config, allocation)
    assert verify_all(rows).demand_vectors_run == 8
    calls = count_verdicts(monkeypatch)
    report = reduction_demo(rows)
    assert report.demands_checked == 8
    # the library has no faulty user, so no row of it is judged again
    assert calls == []


def stack_run():
    # unsorted file counts, so the stacked files draw on different library sets
    config = make_config(counts=(3, 1, 2), weights=(F(1, 3),) * 3, users=2, cache="1")
    allocation = Allocation((F(1, 2), F(1, 6), F(1, 3)))
    store = random_file_store(config, plan_split(config, allocation).base_unit, seed=22)
    return config, allocation, store


@pytest.mark.parametrize(
    "mutant, witness_rows, user",
    [
        # user 2 misreads its own share of library 3's file 2: stacked file 2
        # draws on libraries 3 and 1, so user 2 fails at stack demand (1, 2)
        ("flip", ((1, 2), (1, 1), (1, 2)), 2),
        # user 1 cancels file 1's share where user 2 asks for library 1's file 3:
        # library 1 holds a piece of every stacked file, so user 1 fails at
        # stack demand (1, 3)
        ("wrong_file", ((1, 3), (1, 1), (1, 2)), 1),
    ],
)
def test_stack_witness_matches_full_delivery_reference(mutant, witness_rows, user):
    config, allocation, store = stack_run()
    placement = place(store, plan_split(config, allocation))
    if mutant == "flip":
        placement = flip_decode_image(placement, 3, 0, 2, 2, 2)
    else:
        placement = wrong_file_decode_image(placement, 1, 0, 2, 3, 1)
    with pytest.raises(DecodeMismatchError) as reference:
        reference_stack_delivery(store, config, placement)
    with pytest.raises(DecodeMismatchError) as info:
        reduction_demo(RowPass(store, placement))
    want, got = reference.value, info.value
    assert (got.demand, got.user, got.library, got.expected, got.actual) == (
        want.demand, want.user, want.library, want.expected, want.actual
    )
    assert (got.demand.rows, got.user, got.library) == (witness_rows, user, 0)
    assert got.actual != got.expected


def tampered_segment(placement, user, library, segment):
    """A copy of `placement` with one cache segment replaced."""
    caches = [list(segments) for segments in placement.caches]
    caches[user - 1][library - 1] = segment
    return dataclasses.replace(placement, caches=tuple(map(tuple, caches)))


def test_placement_names_a_segment_wider_or_narrower_than_its_plan():
    config = reference_config()
    store = random_file_store(config, 10, seed=5)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    segment = placement.caches[1][0]
    assert segment.width == 4
    # one trailing zero bit more, one bit less: both are named, neither is decoded
    for changed in (BitString(5, segment.value << 1), segment.slice(0, 3)):
        with pytest.raises(
            ValueError,
            match=f"^user 2 library 1 cache segment has {changed.width} bits; its plan places 4$",
        ):
            tampered_segment(placement, 2, 1, changed)


def test_reduction_demo_rejects_uneven_caches():
    # uneven caches can no longer reach the stack: the width check stops the copy
    config = reference_config()
    store = random_file_store(config, 10, seed=18)
    placement = place(store, plan_split(config, Allocation((F(2, 5), F(3, 5)))))
    segment = placement.caches[1][0]
    with pytest.raises(
        ValueError, match="^user 2 library 1 cache segment has 3 bits; its plan places 4$"
    ):
        tampered_segment(placement, 2, 1, segment.slice(0, segment.width - 1))


def test_image_delivery_and_decode_match_the_per_subfile_reference():
    rng = random.Random(6131)
    seen = dict.fromkeys(("t0", "tK", "two_parts", "one_user", "one_file"), 0)
    for seed in range(60):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        placement = place(store, plan)
        rows = RowPass(store, placement)
        k = config.num_users
        seen["one_user"] += k == 1
        for library, (files, layout) in enumerate(zip(store.files, placement.layouts), start=1):
            seen["t0"] += any(part.t == 0 for part in layout.parts)
            seen["tK"] += any(part.t == k for part in layout.parts)
            seen["two_parts"] += len(layout.parts) == 2
            seen["one_file"] += layout.num_files == 1
            table = rows.subfiles[library - 1]
            for row in product(range(1, layout.num_files + 1), repeat=k):
                expected = reference_library_transcript(table, layout, k, row)
                parts = sim._library_transcript(table, rows.send_images[library - 1], layout, row)
                assert parts == expected, (seed, library, row)
                delivered = deliver(store, placement, library_demand(config, library, row))
                assert delivered.per_library[library - 1] == expected, (seed, library, row)
                for part in parts:
                    if part.t == k:  # every user caches the whole part: nothing is sent
                        assert part.messages == ()
                for user in range(1, k + 1):
                    got = decode(placement, parts, row, user, library)
                    assert got == reference_subfile_decode(placement, parts, row, user, library)
                    assert got == files[row[user - 1] - 1], (seed, library, row, user)
    assert all(seen.values()), seen


def test_decode_sources_match_the_group_scan_builder():
    # the one-pass builder gives every field of the scans, entries in the
    # scans' order, and `_blocks` reads the scan's masks off the send sources
    for k in range(1, 9):
        for t in range(1, k + 1):
            assert sim._index_table(k, t) == sim.IndexTable(
                num_groups=math.comb(k, t + 1),
                cached_ranks=reference_cached_ranks(k, t),
                send_sources=reference_send_sources(k, t),
                decode_sources=reference_decode_sources(k, t),
            ), (k, t)
            for slot_bits in (1, 3, 8):
                expected = reference_blocks(k, t, slot_bits)
                assert sim._blocks(k, t, slot_bits) == expected, (k, t, slot_bits)


def assert_rows_agree(rows, library):
    """Every row of `library`: the one-pass check fails exactly the users
    whose decode differs from their file; returns the users that failed."""
    files = rows.store.files[library - 1]
    config, k = rows.config, rows.config.num_users
    failing = set()
    for row in product(range(1, len(files) + 1), repeat=k):
        transcript = deliver(rows.store, rows.placement, library_demand(config, library, row))
        wrong = {
            user
            for user in range(1, k + 1)
            if reference_decode(rows.placement, transcript, user, library)
            != files[row[user - 1] - 1]
        }
        assert set(rows.failed(library, row)) == wrong, (library, row)
        failing |= wrong
    return failing


def test_one_pass_check_fails_exactly_the_users_whose_decode_fails():
    rng = random.Random(7340)
    seen = dict.fromkeys(("t0", "tK", "two_parts", "one_user", "one_file"), 0)
    for seed in range(40):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        placement = place(store, plan)
        k = config.num_users
        seen["one_user"] += k == 1
        for layout in placement.layouts:
            seen["t0"] += any(part.t == 0 for part in layout.parts)
            seen["tK"] += any(part.t == k for part in layout.parts)
            seen["two_parts"] += len(layout.parts) == 2
            seen["one_file"] += layout.num_files == 1
        rows = RowPass(store, placement)
        for library in range(1, config.num_libraries + 1):
            assert assert_rows_agree(rows, library) == set(), (seed, library)
        # each cached bit of one user, flipped alone, fails that user only
        user = rng.randint(1, k)
        for library in range(1, config.num_libraries + 1):
            segment = placement.caches[user - 1][library - 1]
            for index in range(segment.width):
                tampered = tampered_segment(placement, user, library, flip(segment, index))
                failing = assert_rows_agree(RowPass(store, tampered), library)
                assert failing == {user}, (seed, library, index)
    assert all(seen.values()), seen


def test_a_mis_cut_file_fails_verification(monkeypatch):
    # caches and broadcast both come from the mis-cut table, so every piece
    # matches the server's: only the once-per-run rejoin check can catch it
    config = reference_config()
    store = random_file_store(config, 40, seed=5)
    first = store.files[0][0]
    halves = first.slice(0, 8), first.slice(8, 16)
    assert halves[0] != halves[1]
    real = sim._split_files

    def mis_cut(files, layout, num_users):
        table = real(files, layout, num_users)
        if files is not store.files[0]:
            return table
        (one, two), *rest = table[0]
        return (((two, one), *rest),) + table[1:]

    monkeypatch.setattr(sim, "_split_files", mis_cut)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    err = info.value
    assert (err.demand.rows, err.user, err.library) == (((1, 1), (1, 1)), 1, 1)
    assert err.expected == first
    assert err.actual == concat([halves[1], halves[0]])


def batched_pass_networks(rng):
    """Seeded (config, allocation) pairs for the batched row pass: one-library
    networks of several row batches, at a corner and between two corners, the
    `sim-multi` bench network at its greedy split, then small random networks
    (K = 1, N = 1, t = 0 and two-part plans occur)."""
    for counts, users in (((2,), 11), ((3,), 7)):
        shape = make_config(counts=counts, weights=(F(1),), users=users, cache="0")
        yield random_corner_allocation(rng, shape)
        yield random_split_allocation(rng, shape)
    multi = make_config(
        counts=(4, 3, 2), weights=(F(1, 5), F(2, 5), F(2, 5)), users=3, cache="3/2"
    )
    yield multi, greedy_allocate(multi, curves_for(multi, "scheme")).final
    for seed in range(30):
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        yield pick(rng, random_sim_config(rng))


def random_decode_faults(rng, placement, count):
    """`placement` with `count` seeded decode-image faults: each flips one
    bit of a random user's copy of a random member's share
    (`flip_decode_image`) or, where the library has two files or more, gives
    a member's share the decode image of another file
    (`wrong_file_decode_image`). Only coded parts with t < K have groups to
    fault; a placement with none is returned unchanged."""
    k = len(placement.caches)
    sites = [
        (library, index, layout.num_files)
        for library, layout in enumerate(placement.layouts, start=1)
        for index, part in enumerate(layout.parts)
        if 1 <= part.t < k
    ]
    for _ in range(count if sites else 0):
        library, index, n = rng.choice(sites)
        member, file_id = rng.randint(1, k), rng.randint(1, n)
        if n > 1 and rng.random() < 0.25:
            other = rng.choice([x for x in range(1, n + 1) if x != file_id])
            placement = wrong_file_decode_image(placement, library, index, member, file_id, other)
        else:
            user = rng.randint(1, k)
            placement = flip_decode_image(placement, library, index, member, file_id, user)
    return placement


def test_batched_pass_matches_the_per_row_reference():
    # the residual judgement against `reference_serve`, which calls
    # `sim._recover` on each row, clean and with faults in the decode images
    # both read; the closed-form worst row against every row's transcript
    rng = random.Random(8190)
    seen = dict.fromkeys(("many_rows", "t0", "two_parts", "one_user", "one_file", "failed"), 0)
    for seed, (config, allocation) in enumerate(batched_pass_networks(rng)):
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        clean = place(store, plan)
        k = config.num_users
        all_rows = [list(product(range(1, n + 1), repeat=k)) for n in config.file_counts]
        seen["one_user"] += k == 1
        for layout, rows_of in zip(clean.layouts, all_rows):
            seen["many_rows"] += len(rows_of) > 1024
            seen["t0"] += any(part.t == 0 for part in layout.parts)
            seen["two_parts"] += len(layout.parts) == 2
            seen["one_file"] += layout.num_files == 1
        for placement in (clean, random_decode_faults(rng, clean, 3)):
            rows = RowPass(store, placement)
            for library, (layout, rows_of) in enumerate(zip(placement.layouts, all_rows), start=1):
                expected = [reference_serve(rows, library, row) for row in rows_of]
                got = [rows.failed(library, row) for row in rows_of]
                assert got == [o.failed for o in expected], (seed, library, placement is clean)
                # the first failing row in product order, the least, with its users
                first = rows.first_failing(library)
                failing = ((row, o.failed) for row, o in zip(rows_of, expected) if o.failed)
                assert first == next(failing, None), (seed, library, placement is clean)
                assert layout.max_row_bits(k) == max(o.bits for o in expected), (seed, library)
                seen["failed"] += bool(first)
    assert all(seen.values()), seen


def forbid_verdicts(monkeypatch, *names):
    """Make any call of the named `RowPass` verdict methods fail the test."""

    def judged(self, library, *args):
        raise AssertionError(f"a row of library {library} was judged")

    for name in names:
        monkeypatch.setattr(RowPass, name, judged)


def count_verdicts(monkeypatch):
    """Record the (library, row) of every `RowPass.failed` call, the walk of
    `RowPass.first_failing` included, in the returned list."""
    calls = []
    real = RowPass.failed

    def failed(self, library, row):
        calls.append((library, row))
        return real(self, library, row)

    monkeypatch.setattr(RowPass, "failed", failed)
    return calls


def test_a_clean_run_is_proved_from_its_residual_images(monkeypatch):
    # every residual image of a correct placement is zero by itself, so no
    # user is faulty, no row is judged, and every row passes the per-row walk
    forbid_verdicts(monkeypatch, "failed")
    rng = random.Random(4417)
    seen = dict.fromkeys(("t0", "two_parts", "coded"), 0)
    for seed in range(40):
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, random_sim_config(rng))
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        rows = RowPass(store, place(store, plan))
        k = config.num_users
        for library, layout in enumerate(rows.placement.layouts, start=1):
            seen["t0"] += any(part.t == 0 for part in layout.parts)
            seen["two_parts"] += len(layout.parts) == 2
            residuals = rows.residuals[library - 1]
            for part, by_member in zip(layout.parts, residuals):
                if part.t:
                    seen["coded"] += 1
                    assert all(image == 0 for images in by_member for image in images), seed
            assert rows.unrecoverable[library - 1] == frozenset()
            every_row = list(product(range(1, layout.num_files + 1), repeat=k))
            expected = [reference_serve(rows, library, row) for row in every_row]
            assert all(outcome.failed == () for outcome in expected), (seed, library)
            assert rows.faulty[library - 1] == (), (seed, library)
        report = verify_all(rows)
        assert report.measured_rate == report.formula_rate, seed
    assert all(seen.values()), seen


def test_decode_faults_that_cancel_fail_exactly_the_walks_rows(monkeypatch):
    # group (1, 2, 3) holds user 1 and members 2 and 3, so both faults flip
    # the same bit of user 1's block: their residual images cancel on the
    # rows where members 2 and 3 both ask for file 1
    config = make_config(counts=(3,), weights=(F(1),), users=4, cache="3/2")
    allocation = Allocation((F(3, 2),))
    plan = plan_split(config, allocation)
    assert plan.parts == (((2, F(1)),),)
    store = random_file_store(config, plan.base_unit, seed=31)
    faulty_place(monkeypatch, [(1, 0, 2, 1, 1), (1, 0, 3, 1, 1)])
    rows = RowPass(store, sim.place(store, plan))
    residual = rows.residuals[0][0]
    assert residual[1][0] == residual[2][0] != 0
    every_row = list(product(range(1, 4), repeat=4))
    outcomes = [reference_serve(rows, 1, row) for row in every_row]
    walked = {row: outcome.failed for row, outcome in zip(every_row, outcomes) if outcome.failed}
    assert walked == {row: (1,) for row in every_row if (row[1] == 1) != (row[2] == 1)}
    assert rows.faulty == ((2, 3),)
    assert [rows.failed(1, row) for row in every_row] == [walked.get(row, ()) for row in every_row]
    assert rows.first_failing(1) == (min(walked), walked[min(walked)])
    with pytest.raises(DecodeMismatchError) as reference:
        reference_verify(store, config, allocation)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(rows)
    want, got = reference.value, info.value
    assert (got.demand, got.user, got.library, got.expected, got.actual) == (
        want.demand, want.user, want.library, want.expected, want.actual
    )
    assert (got.demand.rows, got.user) == (((1, 1, 2, 1),), 1)


def test_a_clean_run_at_scale_walks_no_row(monkeypatch):
    # N = 3, K = 13: 1594323 rows, all proved with no user faulty and none judged
    forbid_verdicts(monkeypatch, "failed")
    config = make_config(counts=(3,), weights=(F(1),), users=13, cache="1")
    allocation = Allocation((F(1),))
    store = random_file_store(config, plan_split(config, allocation).base_unit, seed=13)
    rows = row_pass(store, config, allocation)
    assert rows.faulty == ((),)
    report = verify_all(rows, cap=10**9)
    assert report.demands_checked == report.demand_vectors_run == 1594323
    assert report.measured_rate == report.formula_rate
    stack = reduction_demo(rows, cap=10**9)
    assert stack.demands_checked == 1594323
    assert stack.max_total_bits == report.max_total_bits


def one_fault_at_scale():
    """N = 3, K = 12: 531441 rows, 177147 of them failing (member 2 asks for
    file 3, and user 5 misreads its share of that file); the store and the
    row pass."""
    config = make_config(counts=(3,), weights=(F(1),), users=12, cache="1")
    allocation = Allocation((F(1),))
    plan = plan_split(config, allocation)
    assert [t for t, _ in plan.parts[0]] == [0, 5]
    store = random_file_store(config, plan.base_unit, seed=18)
    rows = RowPass(store, flip_decode_image(place(store, plan), 1, 1, 2, 3, 5))
    assert rows.faulty == ((2,),)
    return store, rows


def test_one_fault_at_scale_is_judged_over_its_members_requests(monkeypatch):
    # member 2 alone is faulty, so its 3 requests are all that is judged
    store, rows = one_fault_at_scale()
    calls = count_verdicts(monkeypatch)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(rows, cap=10**9)
    err = info.value
    assert (err.demand.rows, err.user, err.library) == (((1, 3) + (1,) * 10,), 5, 1)
    # user 5 asks for file 1 and misreads member 2's share of file 3
    assert err.expected == store.files[0][0] != err.actual
    assert len(calls) <= 3


def test_one_fault_at_scale_gives_the_stack_witness_from_the_first_failing_row(monkeypatch):
    # 3^12 stack demands; the first failing one is the library's first failing
    # row, so the 3 requests of member 2 and that demand's one row are judged
    store, rows = one_fault_at_scale()
    calls = count_verdicts(monkeypatch)
    with pytest.raises(DecodeMismatchError) as info:
        reduction_demo(rows, cap=10**9)
    err = info.value
    assert (err.demand.rows, err.user, err.library) == (((1, 3) + (1,) * 10,), 5, 0)
    # one library holds every stacked file; one flipped bit of user 5's decode
    assert err.expected == store.files[0][0]
    assert bin(err.expected.value ^ err.actual.value).count("1") == 1
    assert len(calls) <= 4


def test_a_corrupted_t0_piece_fails_through_the_rejoin_check(monkeypatch):
    # the broadcast sends the corrupted piece and no cache holds t = 0 parts,
    # so only the once-per-run rejoin of the table into each file can catch it
    config = single_library_config(cache="1/2")
    allocation = Allocation((F(1, 2),))
    plan = plan_split(config, allocation)
    assert [t for t, _ in plan.parts[0]] == [0, 1]
    store = random_file_store(config, 8, seed=7)
    real = sim._split_files

    def corrupted(files, layout, num_users):
        (uncoded, *coded) = real(files, layout, num_users)
        (piece,) = uncoded[1]
        return (uncoded[0], (piece ^ 1,)), *coded

    monkeypatch.setattr(sim, "_split_files", corrupted)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(RowPass(store, place(store, plan)))
    err = info.value
    # the first row asking for file 2 is (1, 2): user 2 reads the bad piece
    assert (err.demand.rows, err.user, err.library) == (((1, 2),), 2, 1)
    assert err.expected == store.files[0][1]
    # the t = 0 part is the file's first 4 bits; the flipped bit is its last
    assert err.actual == flip(err.expected, 3)


def reduction_or_witness(run):
    """`run()`'s report, or the fields of the DecodeMismatchError it raises."""
    try:
        return run()
    except DecodeMismatchError as err:
        return (err.demand, err.user, err.library, err.expected, err.actual)


def stack_networks(rng, count):
    """Seeded (config, allocation) pairs for the stack walk: unsorted file
    counts, 3^7 stack demands whose rows span several batches (each library
    with a t = 0 part, so the rows' bits differ), then `count` small random
    networks."""
    deep = make_config(counts=(3, 2), weights=(F(1, 2), F(1, 2)), users=7, cache="0")
    picks = [
        F(*build_scheme_tradeoff(lib.num_files, 7).breakpoint(1)) / 2 * lib.alpha
        for lib in deep.libraries
    ]
    networks = [
        stack_run()[:2],
        (dataclasses.replace(deep, cache_size=sum(picks, F(0))), Allocation(tuple(picks))),
    ]
    for seed in range(count):
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        networks.append(pick(rng, random_sim_config(rng)))
    return networks


def test_reduction_demo_matches_the_per_row_walk():
    # the closed-form stack witness against the walk over every stack demand,
    # clean and with 1, 2 and 4 decode faults
    rng = random.Random(9273)
    keys = ("many_rows", "unsorted", "one_user", "one_file", "failed", "least_not_last")
    seen = dict.fromkeys(keys, 0)
    for seed, (config, allocation) in enumerate(stack_networks(rng, 40)):
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        clean = place(store, plan)
        counts = list(config.file_counts)
        seen["many_rows"] += max(counts) ** config.num_users > 1024
        seen["unsorted"] += counts != sorted(counts)
        seen["one_user"] += config.num_users == 1
        seen["one_file"] += config.num_libraries > 1 and 1 in counts
        for faults in (0, 1, 2, 4):
            placement = random_decode_faults(rng, clean, faults)
            want = reduction_or_witness(lambda: reference_reduction(RowPass(store, placement)))
            rows = RowPass(store, placement)
            got = reduction_or_witness(lambda: reduction_demo(rows))
            assert got == want, (seed, faults)
            seen["failed"] += type(want) is tuple
            # several libraries fail, and the least first failing row is not
            # the last failing library's, the row `verify_all` puts in
            firsts = [rows.first_failing(library) for library in range(1, len(counts) + 1)]
            firsts = [first[0] for first in firsts if first]
            seen["least_not_last"] += len(firsts) > 1 and min(firsts) != firsts[-1]
    assert all(seen.values()), seen


def test_stack_walk_reads_each_demands_clamped_rows():
    # the closed-form stack worst case against every stack demand's clamped
    # rows, each row's bits counted from its own transcript
    rng = random.Random(9516)
    for seed, (config, allocation) in enumerate(stack_networks(rng, 10)):
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        rows = RowPass(store, place(store, plan))
        bits = {}
        worst = 0
        for prime in product(range(1, max(config.file_counts) + 1), repeat=config.num_users):
            total = 0
            for library, n in enumerate(config.file_counts, start=1):
                row = tuple(min(x, n) for x in prime)
                if (library, row) not in bits:
                    bits[library, row] = reference_serve(rows, library, row).bits
                total += bits[library, row]
            worst = max(worst, total)
        assert reduction_demo(rows).max_total_bits == worst, seed


def test_stack_worst_case_equals_the_multi_library_worst_case():
    """The stack's worst transcript is the multi-library worst case.

    The stack demand asking for files 1, 2, …, K (capped at N_max) is clamped
    to min(x, N_l) in library l, so it gives every library min(K, N_l)
    distinct requests at once, the most any of its rows can hold. Only a
    t = 0 part's bits vary with the row (one message per distinct request),
    so that one demand reaches every library's largest row at once, and
    `reduction_demo` and `verify_all` report the same worst case."""
    rng = random.Random(1120)
    varied = 0
    for seed in range(120):
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, random_sim_config(rng))
        plan = plan_split(config, allocation)
        store = random_file_store(config, plan.base_unit, seed)
        rows = RowPass(store, place(store, plan))
        report = verify_all(rows)
        assert reduction_demo(rows).max_total_bits == report.max_total_bits, seed
        # networks whose rows differ in bits, so the equality says something
        k = config.num_users
        spreads = [
            {reference_serve(rows, library, row).bits for row in product(range(1, n + 1), repeat=k)}
            for library, n in enumerate(config.file_counts, start=1)
        ]
        varied += any(len(bits) > 1 for bits in spreads)
    assert varied >= 20, varied
