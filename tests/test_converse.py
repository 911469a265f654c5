"""Tests for the stacked-library lower bounds and gap reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cacheshare.allocation import greedy_allocate
from cacheshare.converse import (
    concatenate,
    concatenated_cut_set_bound,
    concatenation_scale,
    conjecture_gap,
    converse_bound,
    sort_by_library_size,
    subfile_level,
)
from cacheshare.tradeoff import build_exact_two_by_two

from util import (
    curves_for,
    make_config,
    random_config,
    reference_betas,
    reference_config,
    unequal_config,
)

F = Fraction


def test_sort_by_library_size_orders_and_reports_permutation():
    config = make_config(
        counts=(3, 1, 2), weights=(F(1, 2), F(1, 4), F(1, 4)), users=2, cache=0
    )
    sorted_config, permutation = sort_by_library_size(config)
    assert sorted_config.file_counts == (1, 2, 3)
    assert permutation == (2, 3, 1)
    assert sorted_config.libraries[2].alpha == F(1, 2)


def test_sort_is_stable_on_equal_counts():
    config = reference_config()
    sorted_config, permutation = sort_by_library_size(config)
    assert permutation == (1, 2)
    assert sorted_config.alphas == (F(2, 5), F(3, 5))


def test_subfile_level_examples():
    config, _ = sort_by_library_size(
        make_config(counts=(1, 2, 4), weights=(F(1, 3),) * 3, users=2, cache=0)
    )
    assert subfile_level(config, 1) == 1
    assert subfile_level(config, 2) == 2
    assert subfile_level(config, 3) == 3
    assert subfile_level(config, 4) == 3
    # equal counts: the first of them is the smallest library holding the file
    ties = make_config(counts=(2, 2, 3, 3), weights=(F(1, 4),) * 4, users=2, cache=0)
    assert [subfile_level(ties, n) for n in range(1, 4)] == [1, 1, 3]


def test_subfile_level_rejects_unsorted_and_out_of_range():
    unsorted = make_config(counts=(2, 1), weights=(F(1, 2), F(1, 2)), users=2, cache=0)
    with pytest.raises(ValueError, match="sorted"):
        subfile_level(unsorted, 1)
    config = unequal_config()
    for bad in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            subfile_level(config, bad)


def test_concatenate_equal_sizes_gives_unit_files():
    stack = concatenate(reference_config())
    assert stack.betas == (F(1), F(1))
    assert stack.permutation == (1, 2)
    assert stack.num_files == 2


def test_concatenate_unequal_sizes():
    stack = concatenate(unequal_config())
    assert stack.betas == (F(4, 3), F(2, 3))
    assert stack.permutation == (1, 2)


def test_concatenation_scale_examples():
    assert concatenation_scale(reference_config()) == 1
    assert concatenation_scale(unequal_config()) == F(4, 3)


def test_betas_sum_to_file_count_and_never_increase():
    rng = random.Random(20260816)
    for _ in range(200):
        config = random_config(rng)
        stack = concatenate(config)
        n_max = max(config.file_counts)
        assert sum(stack.betas, F(0)) == n_max
        assert all(a >= b for a, b in zip(stack.betas, stack.betas[1:]))
        assert all(beta > 0 for beta in stack.betas)


def test_betas_match_level_by_level_sums():
    rng = random.Random(20261018)
    configs = [reference_config(), unequal_config()] + [random_config(rng) for _ in range(200)]
    configs.append(
        make_config(counts=(3, 1, 3, 2, 1), weights=(F(1, 5),) * 5, users=2, cache=0)
    )
    for config in configs:
        stack = concatenate(config)
        assert stack.betas == reference_betas(config), config
        assert stack.scale == concatenation_scale(config)


def test_gap_report_carries_the_stack_its_bound_used():
    for config in (reference_config(), unequal_config()):
        report = conjecture_gap(config, curves_for(config))
        assert report.stack == concatenate(config)
        assert report.converse == converse_bound(
            config, None if report.converse_kind == "cutset" else curves_for(config)[0].evaluate
        )


def test_cut_bound_single_unit_library():
    # one file of size 1: R >= 1 - M
    assert concatenated_cut_set_bound((F(1),), 3, F(0)) == 1
    assert concatenated_cut_set_bound((F(1),), 3, F(1, 4)) == F(3, 4)
    assert concatenated_cut_set_bound((F(1),), 3, F(2)) == 0


def test_cut_bound_two_files_two_users():
    betas = (F(1), F(1))
    # s=2, b=1 dominates at small memory; s=1, b=2 at large
    assert concatenated_cut_set_bound(betas, 2, F(0)) == 2
    assert concatenated_cut_set_bound(betas, 2, F(1, 2)) == 1
    assert concatenated_cut_set_bound(betas, 2, F(3, 2)) == F(1, 4)


def test_cut_bound_rejects_negative_memory():
    with pytest.raises(ValueError, match="< 0"):
        concatenated_cut_set_bound((F(1),), 1, F(-1))


def test_cut_bound_is_positively_homogeneous():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        sizes = sorted((F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)), reverse=True)
        users = rng.randint(1, 4)
        memory = F(rng.randint(0, 10), 4)
        scale = F(rng.randint(1, 9), rng.randint(1, 3))
        base = concatenated_cut_set_bound(tuple(sizes), users, memory)
        scaled = concatenated_cut_set_bound(
            tuple(scale * s for s in sizes), users, scale * memory
        )
        assert scaled == scale * base


def test_converse_bound_equal_sizes_with_exact_curve():
    config = reference_config(cache="1")
    curve = build_exact_two_by_two()
    assert converse_bound(config, curve.evaluate) == F(1, 2)
    full = reference_config(cache="2")
    assert converse_bound(full, curve.evaluate) == 0


def test_converse_bound_default_cut_bound_unequal():
    # at zero memory the stack still has to ship every distinct file once
    assert converse_bound(unequal_config(cache="0")) == F(3, 2)
    assert converse_bound(unequal_config(cache="1/2")) == F(1, 2)


def test_converse_bound_zero_memory_equals_uncoded_delivery():
    # with no caches the bound meets the rate of sending every distinct
    # requested file once, so the sandwich closes at M = 0 for every network
    rng = random.Random(99)
    for _ in range(50):
        config = random_config(rng)
        zero = make_config(
            counts=config.file_counts,
            weights=config.alphas,
            users=config.num_users,
            cache=0,
        )
        expected = sum(
            (lib.alpha * min(lib.num_files, zero.num_users) for lib in zero.libraries),
            F(0),
        )
        assert converse_bound(zero) == expected


def test_gap_report_equal_sizes_is_tight_and_exact():
    config = reference_config(cache="1")
    curves = [build_exact_two_by_two(), build_exact_two_by_two()]
    report = conjecture_gap(config, curves)
    assert report.achievable == F(1, 2)
    assert report.converse == F(1, 2)
    assert report.gap == 0
    assert report.status == "tight"
    assert report.converse_kind == "exact"


def test_gap_report_equal_sizes_scheme_curves():
    config = make_config(
        counts=(3, 3), weights=(F(1, 3), F(2, 3)), users=2, cache="3/2"
    )
    report = conjecture_gap(config, curves_for(config, "scheme"))
    assert report.gap == 0
    assert report.status == "tight"
    # a scheme curve is only achievable; the cut bound happens to meet it here
    assert report.converse_kind == "cutset"


def test_gap_report_never_uses_an_inexact_shared_curve_as_converse():
    # on the stack (N=K=3) memory sharing between the coded-placement corner
    # (1/3, 2) and the scheme corner (1, 1) reaches 7/4 at M=1/2, below the
    # scheme curve's 2, so 2 is no lower bound; the cut bound there is 3/2
    config = make_config(counts=(3, 3), weights=(F(1, 2), F(1, 2)), users=3, cache="1/2")
    report = conjecture_gap(config, curves_for(config))
    assert report.achievable == 2
    assert report.converse == F(3, 2) == converse_bound(config)
    assert report.gap == F(1, 2)
    assert report.status == "open"
    assert report.converse_kind == "cutset"
    assert report.converse <= F(7, 4)


def test_gap_report_unequal_sizes_stays_open():
    config = unequal_config(cache="1/2")
    report = conjecture_gap(config, curves_for(config))
    assert report.achievable == F(3, 4)
    assert report.converse == F(1, 2)
    assert report.gap == F(1, 4)
    assert report.status == "open"
    assert report.converse_kind == "cutset"


def test_gap_report_serializes_to_strings():
    report = conjecture_gap(unequal_config(), curves_for(unequal_config()))
    payload = report.to_json()
    assert payload == {
        "achievable": "3/4",
        "converse": "1/2",
        "gap": "1/4",
        "status": "open",
        "converse_kind": "cutset",
    }


def test_converse_never_exceeds_greedy_rate():
    rng = random.Random(424242)
    for _ in range(150):
        config = random_config(rng)
        curves = curves_for(config)
        rate = greedy_allocate(config, curves).rate
        assert converse_bound(config) <= rate
        assert conjecture_gap(config, curves).achievable == rate
