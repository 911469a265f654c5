"""Tests for bit-exact placement, delivery, decoding, and the stack reduction."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import cacheshare.sim as sim
from cacheshare.allocation import Allocation, greedy_allocate
from cacheshare.bits import BitString, concat
from cacheshare.model import CapExceededError, DemandVector
from cacheshare.sim import (
    DecodeMismatchError,
    DivisibilityError,
    FileStore,
    LibraryPlan,
    RowPass,
    SchemePart,
    decode,
    deliver,
    library_bit_requirement,
    place,
    random_file_store,
    reduction_demo,
    required_base_size,
    verify_all,
)

from cacheshare.tradeoff import build_scheme_tradeoff

from util import (
    curves_for,
    flip,
    fractions,
    make_config,
    random_corner_allocation,
    random_sim_config,
    reference_config,
    reference_file_subfiles,
    reference_library_transcript,
    reference_reduction,
    reference_subfile_decode,
    reference_verify,
    row_pass,
    unequal_config,
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
    assert required_base_size(config, Allocation((F(2, 5), F(3, 5)))) == 10
    assert required_base_size(config, Allocation((F(1, 5), F(4, 5)))) == 10
    unequal = unequal_config()
    assert required_base_size(unequal, Allocation((F(1, 4), F(1, 4)))) == 8


def plans_at(config, allocation, base_size):
    return place(random_file_store(config, base_size, seed=1), config, allocation).plans


def test_corner_plans_match_hand_layout():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    plans = plans_at(config, allocation, 40)
    assert plans[0] == LibraryPlan(
        parts=(SchemePart(t=1, file_bits=16, subfile_bits=8),), num_files=2
    )
    assert plans[1] == LibraryPlan(
        parts=(SchemePart(t=1, file_bits=24, subfile_bits=12),), num_files=2
    )


def test_split_plans_share_between_adjacent_vertices():
    config = reference_config()
    plans = plans_at(config, Allocation((F(1, 5), F(4, 5))), 10)
    # library one runs halfway between t=0 and t=1
    assert plans[0] == LibraryPlan(
        parts=(SchemePart(t=0, file_bits=2, subfile_bits=2), SchemePart(t=1, file_bits=2, subfile_bits=1)),
        num_files=2,
    )
    # library two runs a third of the way from t=1 to t=2
    assert plans[1] == LibraryPlan(
        parts=(SchemePart(t=1, file_bits=4, subfile_bits=2), SchemePart(t=2, file_bits=2, subfile_bits=2)),
        num_files=2,
    )


def test_place_rejects_indivisible_base_size():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    with pytest.raises(DivisibilityError, match="use a multiple of 10"):
        plans_at(config, allocation, 15)


def test_allocation_beyond_library_content_is_rejected():
    config = reference_config(cache="2")
    with pytest.raises(ValueError, match="more than its content"):
        plans_at(config, Allocation((F(9, 10), F(11, 10))), 40)


@pytest.mark.parametrize("size", [0, -10])
def test_place_names_a_base_size_that_is_not_positive(size):
    # a hand-built store skips random_file_store's check; place gives the same message
    config = reference_config()
    store = FileStore(base_size=size, files=((), ()))
    with pytest.raises(DivisibilityError, match=f"^base size {size} bits must be positive$"):
        place(store, config, Allocation((F(2, 5), F(3, 5))))


def test_place_accepts_exactly_the_multiples_of_the_required_base_size():
    rng = random.Random(8117)
    rejected = 0
    for seed in range(40):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        need = required_base_size(config, allocation)
        for size in (need, 2 * need):
            plans = place(random_file_store(config, size, seed), config, allocation).plans
            for lib, plan in zip(config.libraries, plans):
                assert sum(part.file_bits for part in plan.parts) == lib.alpha * size
        # sizes that give whole-bit files but not whole-bit subfiles, if any
        files_only = library_bit_requirement(config)
        assert need % files_only == 0
        if need > files_only:
            rejected += 1
            for bad in (files_only, need + files_only):
                with pytest.raises(DivisibilityError, match=f"use a multiple of {need}$"):
                    place(random_file_store(config, bad, seed), config, allocation)
    assert rejected > 0


def test_cache_layout_is_store_slices_in_declared_order():
    config = single_library_config()
    store = random_file_store(config, 4, seed=3)
    placement = place(store, config, Allocation((F(1),)))
    file1, file2 = store.files[0]
    # t=1, subfile size 2: user k caches the half indexed by subset {k}
    assert placement.caches[0][0] == concat([file1.slice(0, 2), file2.slice(0, 2)])
    assert placement.caches[1][0] == concat([file1.slice(2, 4), file2.slice(2, 4)])


def test_delivery_message_is_the_cross_xor():
    config = single_library_config()
    store = random_file_store(config, 4, seed=4)
    placement = place(store, config, Allocation((F(1),)))
    file1, file2 = store.files[0]
    transcript = deliver(store, config, placement, DemandVector(((1, 2),)))
    part = transcript.per_library[0][0]
    # user 1 misses its half of file 1, user 2 misses its half of file 2
    assert part.messages == ((file1.slice(2, 4) ^ file2.slice(0, 2)).value,)
    assert transcript.total_bits == 2


def test_decode_uses_only_own_cache_and_transcript():
    config = reference_config()
    store = random_file_store(config, 40, seed=5)
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    demand = DemandVector(((1, 2), (2, 1)))
    transcript = deliver(store, config, placement, demand)
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
        # so are the decode images `decode` reads laid out from them
        assert {
            piece
            for part in zeroed.cached_subfiles[1][library - 1]
            for pieces in part
            for piece in pieces
        } == {0}
        assert {
            image
            for by_member in zeroed.decode_images[1][library - 1]
            for per_file in by_member
            for image in per_file
        } == {0}
        assert zeroed.decode_images[0] == placement.decode_images[0]
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
    store = random_file_store(config, required_base_size(config, allocation), seed=7)
    placement = place(store, config, allocation)
    k = config.num_users
    for library, lib in enumerate(config.libraries, start=1):
        rows = list(product(range(1, lib.num_files + 1), repeat=k))
        transcripts = [
            deliver(store, config, placement, library_demand(config, library, row)).per_library[
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
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    assert verify_all(RowPass(store, config, placement)).measured_rate == placement.formula_rate
    for library in (1, 2):
        for index in (0, placement.caches[0][library - 1].width - 1):
            segments = list(placement.caches[0])
            segments[library - 1] = flip(segments[library - 1], index)
            tampered = dataclasses.replace(
                placement, caches=(tuple(segments),) + placement.caches[1:]
            )
            with pytest.raises(DecodeMismatchError) as info:
                verify_all(RowPass(store, config, tampered))
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
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    assert placement.cache_bits(1) == 40
    assert placement.cache_bits(2) == 40


def test_verify_split_allocation_run():
    config = reference_config()
    store = random_file_store(config, 10, seed=77)
    report = verify_all(row_pass(store, config, Allocation((F(1, 5), F(4, 5)))))
    assert report.measured_rate == F(7, 10) == report.formula_rate
    assert report.per_library_max_bits == (5, 2)
    placement = place(store, config, Allocation((F(1, 5), F(4, 5))))
    # envelope-vertex sharing uses the budget exactly, never just within rounding
    assert placement.cache_bits(1) == 10


def test_verify_zero_memory_sends_each_distinct_request_once():
    config = reference_config(cache="0")
    store = random_file_store(config, 5, seed=8)
    report = verify_all(row_pass(store, config, Allocation((F(0), F(0)))))
    assert report.measured_rate == F(2) == report.formula_rate
    assert report.per_library_max_bits == (4, 6)
    assert place(store, config, Allocation((F(0), F(0)))).cache_bits(1) == 0


def test_verify_full_cache_sends_nothing():
    config = reference_config(cache="2")
    store = random_file_store(config, 10, seed=9)
    report = verify_all(row_pass(store, config, Allocation((F(4, 5), F(6, 5)))))
    assert report.measured_rate == 0 == report.formula_rate
    assert report.max_total_bits == 0
    assert place(store, config, Allocation((F(4, 5), F(6, 5)))).cache_bits(1) == 20


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
    before = place(store, config, allocation)
    after = place(tampered, config, allocation)
    assert before.caches[0][0] == after.caches[0][0]
    assert before.caches[1][0] == after.caches[1][0]
    assert before.caches[0][1] == after.caches[0][1]
    assert before.caches[1][1] != after.caches[1][1]
    t_before = deliver(store, config, before, demand)
    t_after = deliver(tampered, config, after, demand)
    assert t_before.per_library[0] == t_after.per_library[0]
    assert t_before.per_library[1] != t_after.per_library[1]


def test_decode_failure_reports_first_witness(monkeypatch):
    config = reference_config()
    store = random_file_store(config, 10, seed=12)
    real = sim.decode

    def corrupted(placement, parts, row, user, library):
        return flip(real(placement, parts, row, user, library), 0)

    monkeypatch.setattr(sim, "decode", corrupted)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    err = info.value
    assert err.demand.rows == ((1, 1), (1, 1))
    assert err.user == 1
    assert err.library == 1
    assert err.expected == store.files[0][0]
    assert err.actual == flip(err.expected, 0)


def test_formula_rate_matches_memory_sharing_on_scheme_curves():
    config = reference_config()
    trace = greedy_allocate(config, curves_for(config, "scheme"))
    store = random_file_store(config, required_base_size(config, trace.final), seed=1)
    assert place(store, config, trace.final).formula_rate == trace.rate


def test_reduction_demo_equal_sizes():
    config = reference_config()
    store = random_file_store(config, 40, seed=13)
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    report = reduction_demo(RowPass(store, config, placement))
    assert report.demands_checked == 4
    assert report.stacked_file_bits == (40, 40)
    assert report.cache_bits == 40
    assert report.max_total_bits == 20


def test_reduction_demo_unequal_sizes():
    config = unequal_config()
    store = random_file_store(config, 8, seed=14)
    placement = place(store, config, Allocation((F(1, 4), F(1, 4))))
    report = reduction_demo(RowPass(store, config, placement))
    assert report.demands_checked == 4
    assert report.stacked_file_bits == (8, 4)
    assert report.cache_bits == 4
    # worst stacked transcript can be no longer than the multi-library worst case
    assert F(report.max_total_bits, 8) <= placement.formula_rate


def test_reduction_demo_honours_demand_cap():
    config = reference_config()
    store = random_file_store(config, 10, seed=15)
    rows = row_pass(store, config, Allocation((F(2, 5), F(3, 5))))
    with pytest.raises(CapExceededError, match="stack enumeration needs 4 vectors, cap is 3"):
        reduction_demo(rows, cap=3)
    assert rows.served == 0


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
        lo, hi = fractions(env.breakpoint_ratios[seg : seg + 2])
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
        store = random_file_store(config, required_base_size(config, allocation), seed)
        expected = reference_verify(store, config, allocation)
        placement = place(store, config, allocation)
        rows = RowPass(store, config, placement)
        report = verify_all(rows)
        for field in ("demands_checked", "measured_rate", "max_total_bits", "per_library_max_bits"):
            assert getattr(report, field) == getattr(expected, field), (seed, field)
        assert report.measured_rate == report.formula_rate
        assert report.demand_vectors_run == sum(
            n**config.num_users for n in config.file_counts
        )
        stack = reduction_demo(rows)
        assert stack == reference_reduction(store, config, placement)
        # every clamped stack row is a library row verification already served
        assert rows.served == report.demand_vectors_run


def test_subfile_tables_are_file_slices_and_cut_the_caches_exactly():
    rng = random.Random(5120)
    seen = {"two_parts": 0, "t0": 0}
    for seed in range(40):
        shape = random_sim_config(rng)
        pick = random_corner_allocation if seed % 2 else random_split_allocation
        config, allocation = pick(rng, shape)
        store = random_file_store(config, required_base_size(config, allocation), seed)
        placement = place(store, config, allocation)
        rows = RowPass(store, config, placement)
        k = config.num_users
        for library, (files, plan) in enumerate(zip(store.files, placement.plans), start=1):
            seen["two_parts"] += len(plan.parts) == 2
            seen["t0"] += any(part.t == 0 for part in plan.parts)
            slices = reference_file_subfiles(files, plan, k)
            server = rows.subfiles[library - 1]
            assert server == tuple(
                tuple(tuple(piece.value for piece in pieces) for pieces in per_file)
                for per_file in slices
            ), (seed, library)
            for user in range(1, k + 1):
                cached = placement.cached_subfiles[user - 1][library - 1]
                assert placement.caches[user - 1][library - 1] == concat(
                    BitString(part.subfile_bits, piece)
                    for part, per_file in zip(plan.parts, cached)
                    for pieces in per_file
                    for piece in pieces
                ), (seed, library, user)
                # the user holds the server's subfiles of the subsets it is in
                for part, mine, theirs in zip(plan.parts, cached, server):
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
                transcript = deliver(store, config, placement, library_demand(config, library, row))
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
        # only library 2 fails, off its all-ones row, and only for user 2
        ({2: {(2, 1): {2}}}, ((1, 1), (2, 1), (1, 1)), 2, 2),
        # the last failing library's first failing row is put in
        ({1: {(1, 2): {1}}, 2: {(2, 2): {1, 2}}}, ((1, 1), (2, 2), (1, 1)), 1, 2),
        # an all-ones failure wins; user-major order picks library 3 for user 1
        ({2: {(1, 2): {1}, (1, 1): {2}}, 3: {(1, 1): {1}}}, ((1, 1), (1, 1), (1, 1)), 1, 3),
        # an all-ones failure also beats a later library's failure off all-ones
        ({1: {(1, 1): {2}}, 3: {(2, 1): {1}}}, ((1, 1), (1, 1), (1, 1)), 2, 1),
    ],
)
def test_witness_matches_full_product_reference(
    monkeypatch, failing, witness_rows, user, library
):
    config, allocation, store = three_library_run()
    real = sim.decode

    def corrupted(placement, parts, row, u, lib):
        out = real(placement, parts, row, u, lib)
        bad_users = failing.get(lib, {}).get(row, ())
        return flip(out, 0) if u in bad_users else out

    monkeypatch.setattr(sim, "decode", corrupted)
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


def test_stack_reads_the_rows_verification_served():
    config = make_config(counts=(2,), weights=(F(1),), users=3, cache="1")
    allocation = Allocation((F(1),))
    store = random_file_store(config, required_base_size(config, allocation), seed=16)
    rows = row_pass(store, config, allocation)
    assert verify_all(rows).demand_vectors_run == 8
    report = reduction_demo(rows)
    assert report.demands_checked == 8
    assert rows.served == 8


def stack_run():
    # unsorted file counts, so the stacked files draw on different library sets
    config = make_config(counts=(3, 1, 2), weights=(F(1, 3),) * 3, users=2, cache="1")
    allocation = Allocation((F(1, 2), F(1, 6), F(1, 3)))
    store = random_file_store(config, required_base_size(config, allocation), seed=22)
    return config, allocation, store


@pytest.mark.parametrize(
    "mutant, witness_rows, user",
    [
        # library 3 flips a bit for user 2 asking for its file 2: stacked file 2
        # draws on libraries 3 and 1, so user 2 fails at stack demand (1, 2)
        ("flip", ((1, 2), (1, 1), (1, 2)), 2),
        # library 1 hands user 1 file 1 for file 3: stacked file 3 lies in
        # library 1 alone, so user 1 fails at stack demand (3, 1)
        ("wrong_file", ((3, 1), (1, 1), (2, 1)), 1),
    ],
)
def test_stack_witness_matches_full_delivery_reference(monkeypatch, mutant, witness_rows, user):
    config, allocation, store = stack_run()
    real = sim.decode

    def corrupted(placement, parts, row, u, lib):
        out = real(placement, parts, row, u, lib)
        want = row[u - 1]
        if mutant == "flip" and (lib, u, want) == (3, 2, 2):
            return flip(out, 0)
        if mutant == "wrong_file" and (lib, u, want) == (1, 1, 3):
            return store.files[0][0]
        return out

    monkeypatch.setattr(sim, "decode", corrupted)
    placement = place(store, config, allocation)
    with pytest.raises(DecodeMismatchError) as reference:
        reference_reduction(store, config, placement)
    with pytest.raises(DecodeMismatchError) as info:
        reduction_demo(RowPass(store, config, placement))
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
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
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
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
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
        store = random_file_store(config, required_base_size(config, allocation), seed)
        placement = place(store, config, allocation)
        rows = RowPass(store, config, placement)
        k = config.num_users
        seen["one_user"] += k == 1
        for library, (files, plan) in enumerate(zip(store.files, placement.plans), start=1):
            seen["t0"] += any(part.t == 0 for part in plan.parts)
            seen["tK"] += any(part.t == k for part in plan.parts)
            seen["two_parts"] += len(plan.parts) == 2
            seen["one_file"] += plan.num_files == 1
            table = rows.subfiles[library - 1]
            for row in product(range(1, plan.num_files + 1), repeat=k):
                expected = reference_library_transcript(table, plan, k, row)
                parts = sim._library_transcript(table, rows.send_images[library - 1], plan, row)
                assert parts == expected, (seed, library, row)
                delivered = deliver(store, config, placement, library_demand(config, library, row))
                assert delivered.per_library[library - 1] == expected, (seed, library, row)
                for part in parts:
                    if part.t == k:  # every user caches the whole part: nothing is sent
                        assert part.messages == ()
                for user in range(1, k + 1):
                    got = decode(placement, parts, row, user, library)
                    assert got == reference_subfile_decode(placement, parts, row, user, library)
                    assert got == files[row[user - 1] - 1], (seed, library, row, user)
    assert all(seen.values()), seen
