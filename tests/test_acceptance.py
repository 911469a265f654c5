"""Acceptance checklist: the eight promises the package ships under.

Each test prints one verdict line (run with `-s` to see them) and enforces
its own runtime budget where one applies. Everything is exact rational
arithmetic; no tolerances anywhere.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import cacheshare
from cacheshare.allocation import (
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    memory_sharing_rate,
    proportional_allocation,
)
from cacheshare.cli import main
from cacheshare.converse import (
    concatenate,
    concatenated_cut_set_bound,
    conjecture_gap,
    converse_bound,
)
from cacheshare.sim import random_file_store, required_base_size, verify_all
from cacheshare.tradeoff import (
    build_exact_two_by_two,
    build_scheme_tradeoff,
    lower_convex_envelope,
    tradeoff_rows,
)

from util import (
    curves_for,
    make_config,
    random_config,
    random_equal_n_config,
    random_corner_allocation,
    random_sim_config,
    reference_config,
    row_pass,
    unequal_config,
)

F = Fraction
CONFIG_DIR = Path(cacheshare.__file__).parent / "configs"


def _verdict(index: int, label: str, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"check {index} took {elapsed:.2f}s, budget {budget:.0f}s"
        timing = f"{elapsed:.2f}s < {budget:.0f}s"
    else:
        timing = f"{elapsed:.2f}s, no budget"
    print(f"\nACCEPTANCE {index}/8 PASS — {label} ({timing})")


def test_shipped_sweep_reproduces_reference_curve():
    started = time.perf_counter()
    result = CliRunner().invoke(
        main, ["--config", str(CONFIG_DIR / "reference.json"), "sweep"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["result"]
    assert payload["segments"] == [
        {"start": "0", "end": "1/5", "intercept": "9/10", "slope": "-3/2"},
        {"start": "1/5", "end": "2/5", "intercept": "7/10", "slope": "-1/2"},
        {"start": "2/5", "end": "7/10", "intercept": "3/10", "slope": "1/2"},
        {"start": "7/10", "end": "4/5", "intercept": "-2/5", "slope": "3/2"},
        {"start": "4/5", "end": "1", "intercept": "-4/5", "slope": "2"},
    ]
    assert payload["breakpoints"] == ["0", "1/5", "2/5", "7/10", "4/5", "1"]
    assert payload["minimum"] == {"lambda": "2/5", "rate": "1/2"}
    _verdict(1, "shipped sweep yields the exact five-segment curve", started, 1.0)


def test_reference_budget_split_optimum():
    started = time.perf_counter()
    config = reference_config()
    curves = curves_for(config)
    trace = greedy_allocate(config, curves)
    assert trace.rate == F(1, 2)
    assert trace.final.per_library == (F(2, 5), F(3, 5))
    alloc, rate = brute_force_allocate(config, curves, F(1, 100))
    assert rate == F(1, 2)
    assert alloc.per_library == (F(2, 5), F(3, 5))
    _verdict(2, "greedy and 1/100-grid search agree on rate 1/2 at (2/5, 3/5)", started, 1.0)


def test_equal_library_counts_make_pooling_optimal():
    started = time.perf_counter()
    rng = random.Random(3001)
    # the shipped pair and three equal libraries with skewed sizes, both at rate
    # 1/2 on the exact 2x2 curve, which exhaustive search confirms
    three = make_config(counts=(2, 2, 2), weights=(F(1, 5), F(2, 5), F(2, 5)), users=2, cache=1)
    fixed = [reference_config(), three]
    checked = 0
    for config in fixed + [random_equal_n_config(rng) for _ in range(120)]:
        curves = curves_for(config)
        curve = curves[0]
        pooled = curve.evaluate(config.cache_size)
        proportional = memory_sharing_rate(config, proportional_allocation(config), curves)
        greedy = greedy_allocate(config, curves).rate
        bound = converse_bound(config, curve.evaluate)
        assert proportional == pooled == greedy == bound
        if config in fixed:
            assert pooled == F(1, 2) == brute_force_allocate(config, curves, F(1, 10))[1]
        checked += 1
    assert checked >= 100
    _verdict(
        3,
        f"proportional = pooled = greedy = bound on {checked} equal-count networks",
        started,
        10.0,
    )


def test_greedy_structure_and_exhaustive_oracle():
    started = time.perf_counter()
    rng = random.Random(3002)
    suite = [reference_config(), unequal_config()]
    suite += [random_config(rng) for _ in range(120)]
    for config in suite:
        curves = curves_for(config)
        trace = greedy_allocate(config, curves)
        assert corner_structure_violations(config, curves, trace.final) == []
        interior = 0
        for lib, share, curve in zip(config.libraries, trace.final.per_library, curves):
            m = share / lib.alpha
            p, q = m.as_integer_ratio()
            seg = curve.segment_of(p, q)
            if seg != curve.num_segments and curve.breakpoint_ratios[seg] != (p, q):
                interior += 1
        assert interior <= 1
        step = config.cache_size / 6 if config.cache_size else F(1)
        _, best_rate = brute_force_allocate(config, curves, step)
        assert trace.rate == best_rate
    _verdict(
        4,
        f"greedy splits are corner-structured and match exhaustive search on {len(suite)} networks",
        started,
        30.0,
    )


def test_stacked_library_size_coefficients():
    started = time.perf_counter()
    rng = random.Random(3003)
    for _ in range(60):
        stack = concatenate(random_equal_n_config(rng))
        assert all(beta == 1 for beta in stack.betas)
    assert concatenate(unequal_config()).betas == (F(4, 3), F(2, 3))
    for _ in range(120):
        config = random_config(rng)
        stack = concatenate(config)
        n_max = max(config.file_counts)
        assert sum(stack.betas, F(0)) == n_max
    _verdict(5, "stacked file sizes average exactly one", started, None)


def test_bit_exact_delivery_and_decoding():
    started = time.perf_counter()
    result = CliRunner().invoke(
        main, ["--config", str(CONFIG_DIR / "reference.json"), "simulate"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["result"]
    assert payload["demands_checked"] == 16
    assert payload["decode_ok"] is True
    assert payload["measured_rate"] == "1/2" == payload["formula_rate"]
    assert payload["max_total_bits"] * 2 == payload["base_size"]
    rng = random.Random(3006)
    runs = 0
    for seed in range(25):
        shape = random_sim_config(rng)
        config, allocation = random_corner_allocation(rng, shape)
        base = required_base_size(config, allocation)
        store = random_file_store(config, base, seed)
        report = verify_all(row_pass(store, config, allocation))
        assert report.measured_rate == report.formula_rate
        runs += 1
    assert runs >= 20
    _verdict(
        6,
        f"every demand decodes bit-exactly on the shipped network and {runs} random ones",
        started,
        60.0,
    )


def test_lower_bound_never_exceeds_achievable_rate():
    started = time.perf_counter()
    rng = random.Random(3007)
    worst_gap = F(0)
    for _ in range(80):
        config = random_equal_n_config(rng)
        curves = curves_for(config)
        rate = greedy_allocate(config, curves).rate
        bound = converse_bound(config)
        assert bound <= rate
        n = config.file_counts[0]
        if curves[0].exact or n == 1:
            assert bound == rate
    for _ in range(80):
        config = random_config(rng)
        curves = curves_for(config)
        rate = greedy_allocate(config, curves).rate
        assert converse_bound(config) <= rate
        report = conjecture_gap(config, curves)
        assert report.gap >= 0
        assert (report.status == "tight") == (report.gap == 0)
        worst_gap = max(worst_gap, report.gap)
    _verdict(
        7,
        f"bound <= rate everywhere, tight on exact equal-count cases; worst open gap {worst_gap}",
        started,
        None,
    )


def test_curve_algebra_properties():
    started = time.perf_counter()
    rng = random.Random(3008)
    for _ in range(1000):
        n = rng.randint(1, 6)
        k = rng.randint(1, 6)
        curve = (
            build_exact_two_by_two()
            if n == 2 and k == 2 and rng.random() < 0.5
            else build_scheme_tradeoff(n, k)
        )
        a = F(rng.randint(0, 12 * n), 12)
        b = F(rng.randint(0, 12 * n), 12)
        lo, hi = min(a, b), max(a, b)
        assert curve.evaluate(lo) >= curve.evaluate(hi)
        mid = (lo + hi) / 2
        assert 2 * curve.evaluate(mid) <= curve.evaluate(lo) + curve.evaluate(hi)
        again = lower_convex_envelope(
            [(F(m), F(r)) for m, r in tradeoff_rows(curve)[0]], n
        )
        assert again.breakpoint_ratios == curve.breakpoint_ratios
        assert again.slope_ratios == curve.slope_ratios
        assert again.intercept_ratios == curve.intercept_ratios
        assert concatenated_cut_set_bound((F(1),) * n, k, lo) <= curve.evaluate(lo)
    _verdict(
        8,
        "curves are convex, monotone, envelope-stable, and dominate the cut bound",
        started,
        10.0,
    )
