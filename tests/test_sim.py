"""Tests for bit-exact placement, delivery, decoding, and the stack reduction."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

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
    build_plans,
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
    make_config,
    random_corner_allocation,
    random_sim_config,
    reference_config,
    reference_reduction,
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
    with pytest.raises(DivisibilityError):
        random_file_store(config, 0, seed=1)


def test_required_base_size_frozen_examples():
    config = reference_config()
    assert required_base_size(config, Allocation((F(2, 5), F(3, 5)))) == 10
    assert required_base_size(config, Allocation((F(1, 5), F(4, 5)))) == 10
    unequal = unequal_config()
    assert required_base_size(unequal, Allocation((F(1, 4), F(1, 4)))) == 8


def test_corner_plans_match_hand_layout():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    plans = build_plans(config, allocation, 40)
    assert plans[0] == LibraryPlan(parts=(SchemePart(t=1, file_bits=16, subfile_bits=8),))
    assert plans[1] == LibraryPlan(parts=(SchemePart(t=1, file_bits=24, subfile_bits=12),))


def test_split_plans_share_between_adjacent_vertices():
    config = reference_config()
    plans = build_plans(config, Allocation((F(1, 5), F(4, 5))), 10)
    # library one runs halfway between t=0 and t=1
    assert plans[0] == LibraryPlan(
        parts=(SchemePart(t=0, file_bits=2, subfile_bits=2), SchemePart(t=1, file_bits=2, subfile_bits=1))
    )
    # library two runs a third of the way from t=1 to t=2
    assert plans[1] == LibraryPlan(
        parts=(SchemePart(t=1, file_bits=4, subfile_bits=2), SchemePart(t=2, file_bits=2, subfile_bits=2))
    )


def test_build_plans_rejects_indivisible_base_size():
    config = reference_config()
    allocation = Allocation((F(2, 5), F(3, 5)))
    with pytest.raises(DivisibilityError, match="use a multiple of 10"):
        build_plans(config, allocation, 15)


def test_allocation_beyond_library_content_is_rejected():
    config = reference_config(cache="2")
    with pytest.raises(ValueError, match="more than its content"):
        build_plans(config, Allocation((F(9, 10), F(11, 10))), 40)


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
    assert part.messages == (file1.slice(2, 4) ^ file2.slice(0, 2),)
    assert transcript.total_bits == 2


def test_decode_uses_only_own_cache_and_transcript():
    config = reference_config()
    store = random_file_store(config, 40, seed=5)
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    demand = DemandVector(((1, 2), (2, 1)))
    transcript = deliver(store, config, placement, demand)
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
        assert decode(zeroed, parts, row, config, 1, library) == store.files[library - 1][want - 1]


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
        files=(store.files[0], (store.files[1][0].flip(3), store.files[1][1])),
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

    def corrupted(placement, parts, row, cfg, user, library):
        return real(placement, parts, row, cfg, user, library).flip(0)

    monkeypatch.setattr(sim, "decode", corrupted)
    with pytest.raises(DecodeMismatchError) as info:
        verify_all(row_pass(store, config, Allocation((F(2, 5), F(3, 5)))))
    err = info.value
    assert err.demand.rows == ((1, 1), (1, 1))
    assert err.user == 1
    assert err.library == 1
    assert err.expected == store.files[0][0]
    assert err.actual == err.expected.flip(0)


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
        lo, hi = env.breakpoints[seg], env.breakpoints[seg + 1]
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

    def corrupted(placement, parts, row, cfg, u, lib):
        out = real(placement, parts, row, cfg, u, lib)
        bad_users = failing.get(lib, {}).get(row, ())
        return out.flip(0) if u in bad_users else out

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


def test_reduction_demo_rejects_uneven_caches():
    config = reference_config()
    store = random_file_store(config, 10, seed=18)
    placement = place(store, config, Allocation((F(2, 5), F(3, 5))))
    segment = placement.caches[1][0]
    uneven = dataclasses.replace(
        placement,
        caches=(
            placement.caches[0],
            (segment.slice(0, segment.width - 1), placement.caches[1][1]),
        ),
    )
    with pytest.raises(ValueError, match="user 2 caches 9 bits and user 1 10"):
        reduction_demo(RowPass(store, config, uneven))
