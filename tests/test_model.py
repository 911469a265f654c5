import json
import random
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheshare.model import (
    CapExceededError,
    DemandVector,
    LibrarySpec,
    NetworkConfig,
    canonical_config_json,
    check_demand_cap,
    config_from_json,
    config_to_json,
    demand_count,
    enumerate_demands,
    format_decimal,
    load_config,
    ratio_decimal,
    to_fraction,
    total_content,
    validate,
)
from util import (
    INEXACT_CONFIG_VALUES,
    config_with,
    make_config,
    random_config,
    reference_config,
    reference_decimal,
    unequal_config,
)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(10**320, 3),  # past the float's maximum: the division overflows
        Fraction(10**400 + 1, 10**80),
        Fraction(1, 10**400),  # rounds to the float 0
        Fraction(-7, 10**330),
        Fraction(2, 3 * 10**310),  # subnormal: fewer than 17 digits survive
    ],
)
def test_decimal_outside_float_range_is_the_exact_value_to_17_digits(value):
    assert Decimal(format_decimal(value)) == reference_decimal(value)
    assert Decimal(ratio_decimal(value.numerator, value.denominator)) == reference_decimal(value)


@pytest.mark.parametrize(
    "value", [Fraction(0), Fraction(2), Fraction(-2, 3), Fraction(10**300, 7), Fraction(1, 10**300)]
)
def test_decimal_inside_float_range_is_that_of_the_float(value):
    assert sys.float_info.min <= abs(value) <= sys.float_info.max or not value
    assert format_decimal(value) == f"{float(value):.17g}"


def test_to_fraction_accepts_exact_forms():
    assert to_fraction("2/5") == Fraction(2, 5)
    assert to_fraction("3") == 3
    assert to_fraction(7) == 7
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_to_fraction_returns_a_fraction_unchanged():
    value = Fraction(3, 7)
    assert to_fraction(value) is value


def test_to_fraction_rejects_float():
    with pytest.raises(TypeError):
        to_fraction(0.4)


def test_to_fraction_rejects_booleans():
    for value in (True, False):
        with pytest.raises(TypeError, match="boolean"):
            to_fraction(value)


@pytest.mark.parametrize("field, value, message", INEXACT_CONFIG_VALUES)
def test_config_refuses_inexact_counts_and_booleans(field, value, message):
    with pytest.raises(ValueError, match="malformed network config") as err:
        config_from_json(config_with(field, value))
    assert message in str(err.value)


def test_config_accepts_integer_strings_for_counts():
    cfg = config_from_json(
        {"libraries": [{"num_files": "3", "alpha": "1"}], "num_users": "2", "cache_size": "1"}
    )
    assert (cfg.file_counts, cfg.num_users) == ((3,), 2)


def test_reference_config_is_clean():
    assert validate(reference_config()) == []


def test_single_library_zero_cache_is_clean():
    cfg = make_config(counts=(3,), weights=(Fraction(1),), users=1, cache=0)
    assert validate(cfg) == []


def test_validate_reports_each_problem():
    cfg = NetworkConfig(
        libraries=(LibrarySpec(0, Fraction(-1, 2)), LibrarySpec(2, Fraction(1, 2))),
        num_users=0,
        cache_size=Fraction(-1),
    )
    problems = validate(cfg)
    assert any("num_files = 0" in p for p in problems)
    assert any("alpha = -1/2" in p for p in problems)
    assert any("num_users = 0" in p for p in problems)
    assert any("cache_size = -1" in p for p in problems)


def test_normalization_violation_names_the_sum():
    cfg = make_config(
        counts=(1, 1), weights=(Fraction(1, 2), Fraction(1, 3)), users=1, cache=0
    )
    problems = validate(cfg)
    assert problems == ["normalization sum = 5/6 != 1"]


def test_oversized_cache_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        cfg = reference_config(cache=Fraction(5))
    assert cfg.cache_size == 2
    assert validate(cfg) == []


def test_clamping_warning_names_the_callers_line(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config_with("cache_size", "7")))
    with pytest.warns(UserWarning, match="clamping") as caught:
        load_config(str(path))
        NetworkConfig((LibrarySpec(2, 1),), 2, 5)
    # the filename `warnings` reports is the code object's, which a copied
    # tree holding stale bytecode may record apart from `__file__`
    here = test_clamping_warning_names_the_callers_line.__code__.co_filename
    assert [w.filename for w in caught] == [here, here]
    assert caught[1].lineno == caught[0].lineno + 1  # each names its own line


def test_total_content():
    assert total_content(reference_config()) == 2
    assert total_content(unequal_config()) == Fraction(3, 2)


def test_demand_enumeration_is_lexicographic_and_complete():
    cfg = reference_config()
    demands = list(enumerate_demands(cfg))
    assert len(demands) == demand_count(cfg) == 16
    assert demands[0].rows == ((1, 1), (1, 1))
    assert demands[-1].rows == ((2, 2), (2, 2))
    assert len(set(demands)) == 16
    # library-major order: the last user of the last library varies fastest
    assert demands[1].rows == ((1, 1), (1, 2))


def test_demand_cap_error_names_the_count():
    with pytest.raises(CapExceededError, match="16"):
        list(enumerate_demands(reference_config(), cap=10))


def test_demand_cap_is_decided_factor_by_factor_with_the_full_count_named():
    # every count the product gives in full: returned at the cap, named above it
    rng = random.Random(4300)
    for _ in range(300):
        cfg = random_config(rng)
        count = demand_count(cfg)
        for cap in (count - 1, count, count + 1, 0, -1, 1, 4096):
            if count <= cap:
                assert check_demand_cap(cfg, cap) == count
            else:
                message = f"^demand enumeration needs {count} vectors, cap is {cap}$"
                with pytest.raises(CapExceededError, match=message):
                    check_demand_cap(cfg, cap)


@pytest.mark.parametrize(
    "counts, users, named",
    [
        # 10^4299 has 4300 digits, the most Python prints: named in full
        ((10,), 4299, "1" + "0" * 4299),
        ((10,), 4300, "10^4300"),
        ((3, 5), 10**4, "3^10000·5^10000"),
        ((1, 3, 5), 10**12, "1^1000000000000·3^1000000000000·5^1000000000000"),
    ],
)
def test_a_count_too_long_to_print_is_named_by_its_factors(counts, users, named):
    weights = (Fraction(1, len(counts)),) * len(counts)
    cfg = make_config(counts=counts, weights=weights, users=users, cache="0")
    with pytest.raises(CapExceededError) as info:
        check_demand_cap(cfg, 4096)
    assert str(info.value) == f"demand enumeration needs {named} vectors, cap is 4096"


def test_demand_validation():
    cfg = reference_config()
    DemandVector(((1, 2), (2, 1))).validate_for(cfg)
    with pytest.raises(ValueError, match="rows"):
        DemandVector(((1, 2),)).validate_for(cfg)
    with pytest.raises(ValueError, match="entries"):
        DemandVector(((1,), (2,))).validate_for(cfg)
    with pytest.raises(ValueError, match="out of range"):
        DemandVector(((1, 3), (2, 1))).validate_for(cfg)
    with pytest.raises(ValueError, match="out of range"):
        DemandVector(((1, 0), (2, 1))).validate_for(cfg)


def test_json_round_trip():
    cfg = reference_config()
    data = config_to_json(cfg)
    assert data["cache_size"] == "1"
    assert data["libraries"][0] == {"num_files": 2, "alpha": "2/5"}
    again = config_from_json(json.loads(json.dumps(data)))
    assert again == cfg
    assert canonical_config_json(again) == canonical_config_json(cfg)


def test_malformed_json_is_a_value_error():
    with pytest.raises(ValueError, match="malformed"):
        config_from_json({"libraries": [{"num_files": 2}], "num_users": 1, "cache_size": "0"})
    with pytest.raises(ValueError, match="malformed"):
        config_from_json(
            {"libraries": [{"num_files": 2, "alpha": "1/0"}], "num_users": 1, "cache_size": "0"}
        )
    with pytest.raises(ValueError, match="malformed"):
        config_from_json(
            {"libraries": [{"num_files": 2, "alpha": "1"}], "num_users": 1, "cache_size": "1/0"}
        )
    with pytest.raises(ValueError, match="inexact float"):
        config_from_json({"libraries": [], "num_users": 1, "cache_size": 0.25})


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 40)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(alphabet="0123456789/-.x", max_size=6)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["num_files", "num_users", "alpha", "cache_size"]), JSON_SCALARS)
def test_config_fields_are_read_exactly_or_refused(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an oversized cache is clamped with a warning
        try:
            cfg = config_from_json(config_with(field, value))
        except ValueError as exc:
            assert str(exc).startswith("malformed network config")
            return
    # accepted: the value was an int or a string, read without rounding
    assert not isinstance(value, (bool, float, type(None)))
    read = {
        "num_files": cfg.file_counts[0],
        "num_users": cfg.num_users,
        "alpha": cfg.libraries[0].alpha,
        "cache_size": cfg.cache_size,
    }[field]
    expected = Fraction(value)
    if field == "cache_size":
        expected = min(expected, total_content(cfg))
    assert read == expected


def test_random_configs_validate_clean():
    rng = random.Random(2024)
    for _ in range(200):
        cfg = random_config(rng)
        assert validate(cfg) == []
        assert 0 <= cfg.cache_size <= total_content(cfg)


def test_random_demand_spaces_enumerate_exactly():
    rng = random.Random(99)
    for _ in range(50):
        cfg = random_config(rng, max_libraries=2)
        count = demand_count(cfg)
        if count > 4096:
            continue
        demands = list(enumerate_demands(cfg))
        assert len(demands) == count
        for d in demands[:5]:
            d.validate_for(cfg)
