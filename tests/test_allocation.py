import random
from fractions import Fraction

import pytest

from cacheshare import allocation
from cacheshare.allocation import (
    Allocation,
    AllocationStep,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    lambda_sweep,
    memory_sharing_rate,
    proportional_allocation,
    split_rate,
)
from cacheshare.model import CapExceededError, LibrarySpec, NetworkConfig, total_content
from cacheshare.tradeoff import build_exact_two_by_two, build_scheme_tradeoff
from util import (
    curves_for,
    fractions,
    make_config,
    random_config,
    random_weights,
    reference_brute_force,
    reference_config,
    reference_greedy,
    step_delta,
    step_total,
    unequal_config,
)

F = Fraction


def reference_curves():
    return [build_exact_two_by_two(), build_exact_two_by_two()]


def test_allocation_rejects_negative():
    with pytest.raises(ValueError, match="^library 2 gets negative memory -1/2$"):
        Allocation((F(3, 2), F(-1, 2)))


def test_rate_at_reference_split():
    cfg = reference_config()
    rate = memory_sharing_rate(cfg, Allocation((F(2, 5), F(3, 5))), reference_curves())
    assert rate == F(1, 2)


def test_rate_at_skewed_splits():
    cfg = reference_config()
    curves = reference_curves()
    assert memory_sharing_rate(cfg, Allocation((F(0), F(1))), curves) == F(9, 10)
    assert memory_sharing_rate(cfg, Allocation((F(1), F(0))), curves) == F(6, 5)
    assert memory_sharing_rate(cfg, Allocation((F(3, 10), F(7, 10))), curves) == F(11, 20)


def test_rate_requires_exact_budget():
    cfg = reference_config()
    with pytest.raises(ValueError, match="totals"):
        memory_sharing_rate(cfg, Allocation((F(1, 2), F(1, 4))), reference_curves())
    with pytest.raises(ValueError, match="entries"):
        memory_sharing_rate(cfg, Allocation((F(1),)), reference_curves())


def test_split_rate_rates_any_split_and_checks_the_rest():
    cfg = reference_config()
    curves = reference_curves()
    short = Allocation((F(1, 2), F(1, 4)))  # totals 3/4, budget is 1
    a1, a2 = cfg.alphas
    expected = a1 * curves[0].evaluate(F(1, 2) / a1) + a2 * curves[1].evaluate(F(1, 4) / a2)
    assert split_rate(cfg, short, curves) == expected
    full = Allocation((F(2, 5), F(3, 5)))
    assert split_rate(cfg, full, curves) == memory_sharing_rate(cfg, full, curves)
    with pytest.raises(ValueError, match="entries"):
        split_rate(cfg, Allocation((F(1),)), curves)
    with pytest.raises(ValueError, match="tradeoffs for"):
        split_rate(cfg, full, curves[:1])


def test_rate_requires_matching_curves():
    cfg = reference_config()
    with pytest.raises(ValueError, match="tradeoff"):
        memory_sharing_rate(
            cfg,
            Allocation((F(2, 5), F(3, 5))),
            [build_scheme_tradeoff(3, 2), build_exact_two_by_two()],
        )


def test_greedy_reference_trace():
    trace = greedy_allocate(reference_config(), reference_curves())
    assert [(s.library, s.segment, step_delta(s), step_total(s)) for s in trace.steps] == [
        (1, 0, F(1, 5), F(1, 5)),
        (2, 0, F(3, 10), F(1, 2)),
        (1, 1, F(1, 5), F(7, 10)),
        (2, 1, F(3, 10), F(1)),
    ]
    assert trace.final.per_library == (F(2, 5), F(3, 5))
    assert trace.rate == F(1, 2)
    assert trace.tradeoff_labels == ("exact2x2", "exact2x2")


def test_steps_compare_by_value_whatever_the_scale():
    step = AllocationStep(2, 1, 3, 9, 12)  # 1/4 added, 3/4 in all
    same = AllocationStep(2, 1, 1, 3, 4)
    assert step == same and hash(step) == hash(same)
    assert step != AllocationStep(2, 1, 3, 8, 12)
    assert step != AllocationStep(2, 1, 2, 9, 12)
    assert step != AllocationStep(1, 1, 3, 9, 12)
    assert step != AllocationStep(2, 0, 3, 9, 12)
    assert len({step, same, AllocationStep(2, 1, 6, 18, 24)}) == 1


def test_greedy_zero_budget():
    trace = greedy_allocate(reference_config(cache=0), reference_curves())
    assert trace.steps == ()
    assert trace.final.per_library == (F(0), F(0))
    assert trace.rate == 2


def test_greedy_full_budget():
    trace = greedy_allocate(reference_config(cache=2), reference_curves())
    assert trace.final.per_library == (F(4, 5), F(6, 5))
    assert trace.rate == 0


def test_greedy_tie_breaks_to_first_library():
    cfg = make_config(counts=(2, 2), weights=(F(1, 2), F(1, 2)), users=2, cache=F(1, 4))
    trace = greedy_allocate(cfg, [build_exact_two_by_two()] * 2)
    assert trace.steps[0].library == 1


def test_greedy_partial_segment_stops_midway():
    cfg = reference_config(cache=F(2, 5))
    trace = greedy_allocate(cfg, reference_curves())
    assert trace.final.per_library == (F(1, 5), F(1, 5))
    assert step_delta(trace.steps[-1]) == F(1, 5)
    # library two stopped inside its first segment
    assert trace.steps[-1].library == 2
    assert trace.rate == F(2, 5) * 1 + F(3, 5) * build_exact_two_by_two().evaluate(F(1, 3))


def test_brute_force_matches_reference():
    cfg = reference_config()
    alloc, rate = brute_force_allocate(cfg, reference_curves())
    assert alloc.per_library == (F(2, 5), F(3, 5))
    assert rate == F(1, 2)


def test_brute_force_single_library():
    cfg = make_config(counts=(4,), weights=(F(1),), users=2, cache=1)
    curves = curves_for(cfg)
    alloc, rate = brute_force_allocate(cfg, curves)
    assert alloc.per_library == (F(1),)
    assert rate == curves[0].evaluate(F(1))


def test_proportional_allocation():
    assert proportional_allocation(reference_config()).per_library == (F(2, 5), F(3, 5))
    assert proportional_allocation(unequal_config()).per_library == (F(1, 6), F(1, 3))


def test_greedy_matches_brute_force_on_random_configs():
    rng = random.Random(424242)
    for _ in range(60):
        cfg = random_config(rng, max_libraries=3)
        curves = curves_for(cfg)
        trace = greedy_allocate(cfg, curves)
        _, best = brute_force_allocate(cfg, curves)
        assert trace.rate == best
        assert corner_structure_violations(cfg, curves, trace.final) == []


def test_structure_check_flags_two_interior_libraries():
    cfg = reference_config()
    bad = Allocation((F(1, 10), F(9, 10)))
    problems = corner_structure_violations(cfg, reference_curves(), bad)
    assert any("inside a segment" in p for p in problems)


def test_greedy_rate_is_monotone_in_budget():
    rng = random.Random(7)
    for _ in range(20):
        cfg = random_config(rng, max_libraries=3)
        curves = curves_for(cfg)
        total = total_content(cfg)
        rates = []
        for j in range(9):
            cfg_j = NetworkConfig(cfg.libraries, cfg.num_users, total * F(j, 8))
            rates.append(greedy_allocate(cfg_j, curves).rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0


def test_greedy_rate_is_permutation_invariant():
    rng = random.Random(13)
    for _ in range(20):
        cfg = random_config(rng, max_libraries=4)
        curves = curves_for(cfg)
        rate = greedy_allocate(cfg, curves).rate
        order = list(range(cfg.num_libraries))
        rng.shuffle(order)
        permuted = NetworkConfig(
            tuple(cfg.libraries[i] for i in order), cfg.num_users, cfg.cache_size
        )
        permuted_curves = [curves[i] for i in order]
        assert greedy_allocate(permuted, permuted_curves).rate == rate


def test_sweep_reproduces_reference_segments():
    result = lambda_sweep(reference_config(), reference_curves(), num_samples=11)
    assert fractions(result.breakpoints) == (F(0), F(1, 5), F(2, 5), F(7, 10), F(4, 5), F(1))
    assert [fractions((s.intercept, s.slope)) for s in result.segments] == [
        (F(9, 10), F(-3, 2)),
        (F(7, 10), F(-1, 2)),
        (F(3, 10), F(1, 2)),
        (F(-2, 5), F(3, 2)),
        (F(-4, 5), F(2)),
    ]
    assert fractions(result.minimum()) == (F(2, 5), F(1, 2))
    rates = dict(map(fractions, result.points))
    assert rates[F(0)] == F(9, 10)
    assert rates[F(3, 10)] == F(11, 20)
    assert rates[F(1)] == F(6, 5)


def test_sweep_zero_budget_is_flat():
    result = lambda_sweep(reference_config(cache=0), reference_curves(), num_samples=5)
    assert len(result.segments) == 1
    assert fractions([result.segments[0].slope]) == (0,)
    assert all(r == 2 for _, r in map(fractions, result.points))


def test_sweep_needs_two_libraries():
    cfg = make_config(counts=(2,), weights=(F(1),), users=2, cache=1)
    with pytest.raises(ValueError, match="two"):
        lambda_sweep(cfg, [build_exact_two_by_two()], num_samples=5)


def test_sweep_refuses_samples_past_its_cap_before_building(monkeypatch):
    class Built(Exception):
        pass

    def stop(*_):  # the first call that builds the sweep's lines
        raise Built

    monkeypatch.setattr(allocation, "reduce_ratio", stop)
    with pytest.raises(CapExceededError, match="250001 samples, cap is 250000"):
        lambda_sweep(reference_config(), reference_curves(), num_samples=250_001)
    with pytest.raises(Built):  # at the cap it goes on to build
        lambda_sweep(reference_config(), reference_curves(), num_samples=250_000)


def test_greedy_refuses_steps_past_its_cap_before_building(monkeypatch):
    # K = 10^12 users: each scheme curve has about 10^12 segments to buy
    config = make_config(counts=(3, 5), weights=(F(1, 2), F(1, 2)), users=10**12, cache="1")
    curves = [build_scheme_tradeoff(n, config.num_users) for n in config.file_counts]
    message = r"^greedy would take \d+ steps, cap is 250000$"
    with pytest.raises(CapExceededError, match=message) as info:
        greedy_allocate(config, curves)
    assert int(str(info.value).split()[3]) > 10**9
    # at the cap itself the greedy runs: one network's steps against a lowered cap
    small = make_config(counts=(3, 5), weights=(F(1, 2), F(1, 2)), users=6, cache="2")
    curves = curves_for(small, "scheme")
    steps = len(greedy_allocate(small, curves).steps)
    assert steps > 2
    monkeypatch.setattr(allocation, "CAP", steps)
    assert len(greedy_allocate(small, curves).steps) == steps
    monkeypatch.setattr(allocation, "CAP", steps - 1)
    message = f"^greedy would take {steps} steps, cap is {steps - 1}$"
    with pytest.raises(CapExceededError, match=message):
        greedy_allocate(small, curves)


def test_sweep_endpoints_match_rate_function():
    rng = random.Random(31)
    for _ in range(25):
        cfg = random_config(rng, max_libraries=2)
        if cfg.num_libraries != 2:
            continue
        curves = curves_for(cfg)
        result = lambda_sweep(cfg, curves, num_samples=7)
        points = [fractions(point) for point in result.points]
        for share, rate in points:
            alloc = Allocation((share * cfg.cache_size, (1 - share) * cfg.cache_size))
            assert rate == memory_sharing_rate(cfg, alloc, curves)
        # each sampled point lies on its segment's line
        for seg in result.segments:
            start, end, intercept, slope = fractions((seg.start, seg.end, seg.intercept, seg.slope))
            for share, rate in points:
                if start <= share <= end:
                    assert rate == intercept + slope * share


def _shared_curve_network(rng: random.Random, max_libraries: int, max_users: int):
    """Libraries drawn from a few file counts, so that several share one curve:
    every slope of a shared curve ties across those libraries. Half the shared
    curves are one object, half equal copies built separately."""
    L = rng.randint(1, max_libraries)
    counts = [rng.choice((1, 2, 3, 5)) for _ in range(L)]
    libs = tuple(LibrarySpec(n, w) for n, w in zip(counts, random_weights(rng, L)))
    k = rng.randint(1, max_users)
    content = sum((lib.alpha * lib.num_files for lib in libs), F(0))
    cfg = NetworkConfig(libs, k, F(rng.randint(0, 16), 16) * content)
    if rng.random() < 0.5:
        shapes = {n: build_scheme_tradeoff(n, k) for n in set(counts)}
        curves = [shapes[n] for n in counts]
    else:
        curves = curves_for(cfg)
    return cfg, curves


def test_greedy_equals_scan_on_random_networks():
    rng = random.Random(31337)
    for _ in range(150):
        cfg, curves = _shared_curve_network(rng, max_libraries=8, max_users=12)
        assert greedy_allocate(cfg, curves) == reference_greedy(cfg, curves)
    for _ in range(60):
        cfg = random_config(rng, max_libraries=4)
        curves = curves_for(cfg)
        assert greedy_allocate(cfg, curves) == reference_greedy(cfg, curves)


def test_tabulated_oracle_equals_per_candidate_rating():
    rng = random.Random(8080)
    for L in (2, 3):
        for _ in range(25):
            libs = tuple(
                LibrarySpec(rng.choice((1, 2, 3)), w) for w in random_weights(rng, L)
            )
            content = sum((lib.alpha * lib.num_files for lib in libs), F(0))
            cfg = NetworkConfig(libs, rng.randint(1, 4), F(rng.randint(0, 8), 8) * content)
            curves = curves_for(cfg, rng.choice(("auto", "scheme")))
            step = cfg.cache_size / rng.choice((3, 6, 10)) if cfg.cache_size > 0 else F(1, 4)
            assert brute_force_allocate(cfg, curves) == reference_brute_force(cfg, curves, step)


def test_tabulated_oracle_keeps_tie_break_on_tied_optima():
    # equal libraries sharing one curve: every split of the budget along the
    # same segments rates the same, and the smallest split must win
    for counts, cache in (((2, 2), F(1)), ((2, 2, 2), F(3, 2)), ((3, 3), F(2))):
        L = len(counts)
        cfg = make_config(counts=counts, weights=(F(1, L),) * L, users=3, cache=cache)
        curves = curves_for(cfg)
        step = F(1, 20)
        alloc, rate = brute_force_allocate(cfg, curves)
        assert (alloc, rate) == reference_brute_force(cfg, curves, step)
        assert rate == greedy_allocate(cfg, curves).rate
