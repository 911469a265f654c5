"""Network description: file libraries, users, caches, and demands.

Every analytical quantity (size weights, cache budget, rates) is a
`fractions.Fraction`, so comparisons and breakpoints are decided exactly.
Floats are refused at the boundary rather than silently truncated.
"""

from __future__ import annotations

import decimal
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

DEFAULT_DEMAND_CAP = 4096
CAP = 250_000  # the most samples a sweep takes, and segments a curve materializes
PRINTED_DIGITS = 4300  # the longest count a message prints, Python's int-to-str limit


class CapExceededError(ValueError):
    """An enumeration would exceed its configured cap."""


def to_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce exact input (int, "p/q" or "n" string) to Fraction; a Fraction passes as is.

    Floats are rejected: 0.4 is not 2/5, and a silently inexact size weight
    would poison every downstream comparison. Booleans are rejected too: JSON
    `true` is not the number 1.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string like '2/5'")
    if isinstance(value, bool):
        raise TypeError(f"refusing boolean {value!r} as a number")
    return Fraction(value)


def _to_count(value: int | str, name: str) -> int:
    """Coerce an exact integer (int or integer string) for the count `name`.

    Floats and booleans are rejected rather than truncated: a file count of
    2.7 is not 2, and `true` is not 1.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def format_decimal(value: Fraction) -> str:
    """Render a rational as a decimal string with 17 significant digits."""
    return ratio_decimal(value.numerator, value.denominator)


_WIDE = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def ratio_decimal(numerator: int, denominator: int) -> str:
    """numerator/denominator to 17 significant digits, as `%.17g` of the float
    (int true division rounds correctly, as a Fraction's float does). A value
    that overflows the float, or falls below its normal range, has the exact
    quotient rounded to 17 digits by `decimal` instead."""
    try:
        value = numerator / denominator
    except OverflowError:
        value = math.inf
    if sys.float_info.min <= abs(value) <= sys.float_info.max or not numerator:
        return f"{value:.17g}"
    exact = _WIDE.divide(decimal.Decimal(numerator), decimal.Decimal(denominator))
    return f"{exact.normalize(_WIDE):.17g}"


def reduce_ratio(numerator: int, denominator: int) -> tuple[int, int]:
    """numerator/denominator in lowest terms; the denominator must be positive."""
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def ratio_text(numerator: int, denominator: int) -> str:
    """`str(Fraction(numerator, denominator))` for a positive denominator,
    without building the Fraction: one gcd, then "n/d", or "n" when the
    denominator divides."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


def reduced_texts(ratios: Iterable[tuple[int, int]]) -> list[str]:
    """`ratio_text` of each pair, for pairs already in lowest terms: no gcd."""
    return [str(n) if d == 1 else f"{n}/{d}" for n, d in ratios]


def ratio_sum(ratios: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of pairs (n, d), d > 0, as a pair over the lcm of the d's, not reduced."""
    ratios = list(ratios)
    common = math.lcm(*(d for _, d in ratios))
    return sum(n * (common // d) for n, d in ratios), common


def _caller_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for the function that calls this one, of
    the nearest frame outside the package, so that a warning names the line of
    the caller's own code that led to it (the dataclass-generated `__init__`
    runs in the package's namespace too)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").startswith("cacheshare."):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class LibrarySpec:
    """One file library: how many files it holds and its size weight."""

    num_files: int
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", to_fraction(self.alpha))


@dataclass(frozen=True)
class NetworkConfig:
    """A broadcast caching network: libraries, user count, per-user cache size.

    Construction is permissive (bad values are reported by `validate`, not
    raised), with one exception: a cache larger than the total content is
    clamped down to it, with a warning, because extra cache can never help.
    """

    libraries: tuple[LibrarySpec, ...]
    num_users: int
    cache_size: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "libraries", tuple(self.libraries))
        cache = to_fraction(self.cache_size)
        total = total_content(self)
        if cache > total:
            warnings.warn(
                f"cache size {cache} exceeds total content {total}; clamping",
                stacklevel=_caller_stacklevel(),
            )
            cache = total
        object.__setattr__(self, "cache_size", cache)

    @property
    def num_libraries(self) -> int:
        return len(self.libraries)

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return tuple(lib.alpha for lib in self.libraries)

    @property
    def file_counts(self) -> tuple[int, ...]:
        return tuple(lib.num_files for lib in self.libraries)


@dataclass(frozen=True)
class DemandVector:
    """One request per (library, user): rows[library][user], file ids 1-based."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))

    def validate_for(self, config: NetworkConfig) -> None:
        """Raise ValueError unless this demand fits the config's shape and ranges."""
        if len(self.rows) != config.num_libraries:
            raise ValueError(
                f"demand has {len(self.rows)} rows, config has {config.num_libraries} libraries"
            )
        for lib_idx, row in enumerate(self.rows):
            if len(row) != config.num_users:
                raise ValueError(
                    f"demand row {lib_idx + 1} has {len(row)} entries, "
                    f"config has {config.num_users} users"
                )
            n = config.libraries[lib_idx].num_files
            for entry in row:
                if not 1 <= entry <= n:
                    raise ValueError(
                        f"demand entry {entry} out of range 1..{n} in library {lib_idx + 1}"
                    )


def validate(config: NetworkConfig) -> list[str]:
    """Return human-readable violations; an empty list means the config is sound."""
    violations: list[str] = []
    if config.num_libraries == 0:
        violations.append("no libraries")
    for idx, lib in enumerate(config.libraries, start=1):
        if lib.num_files < 1:
            violations.append(f"library {idx}: num_files = {lib.num_files} < 1")
        if lib.alpha <= 0:
            violations.append(f"library {idx}: alpha = {lib.alpha} <= 0")
    alpha_sum = ratio_sum(map(Fraction.as_integer_ratio, config.alphas))
    if config.libraries and alpha_sum[0] != alpha_sum[1]:
        violations.append(f"normalization sum = {ratio_text(*alpha_sum)} != 1")
    if config.num_users < 1:
        violations.append(f"num_users = {config.num_users} < 1")
    if config.cache_size < 0:
        violations.append(f"cache_size = {config.cache_size} < 0")
    return violations


def total_content(config: NetworkConfig) -> Fraction:
    """Combined size of all files across libraries, in file-size units."""
    shares = ((s.alpha.numerator * s.num_files, s.alpha.denominator) for s in config.libraries)
    return Fraction(*ratio_sum(shares))


def demand_count(config: NetworkConfig) -> int:
    count = 1
    for lib in config.libraries:
        count *= lib.num_files**config.num_users
    return count


def check_demand_cap(config: NetworkConfig, cap: int) -> int:
    """Return the number of demand vectors; raise CapExceededError, naming it,
    when it exceeds `cap`.

    On a valid network every factor N_l^K is at least 1, so the product is
    decided factor by factor and stops once it is over the cap; a factor
    with N_l >= 2 and 2^K > cap is over it whatever the others, and is never
    built. A count of more than `PRINTED_DIGITS` digits is named by its
    factors."""
    k = config.num_users
    count = 1
    for n in config.file_counts:
        count = cap + 1 if n > 1 and k >= max(cap, 1).bit_length() else count * n**k
        if count > cap:
            break
    else:
        return count
    # 2^(bit_length - 1) <= N_l, so at 4 * PRINTED_DIGITS floor bits the count
    # is at least 16^PRINTED_DIGITS, too long to print; below, it is cheap to build
    floor_bits = sum(k * (n.bit_length() - 1) for n in config.file_counts if n > 1)
    if floor_bits < 4 * PRINTED_DIGITS and (total := demand_count(config)) < 10**PRINTED_DIGITS:
        text = str(total)
    else:
        text = "·".join(f"{n}^{k}" for n in config.file_counts)
    raise CapExceededError(f"demand enumeration needs {text} vectors, cap is {cap}")


def enumerate_demands(
    config: NetworkConfig, cap: int = DEFAULT_DEMAND_CAP
) -> Iterator[DemandVector]:
    """Yield every demand vector in lexicographic order (library-major, then user).

    Raises CapExceededError up front, naming the count, when the full space
    would exceed `cap`.
    """
    check_demand_cap(config, cap)
    k = config.num_users
    ranges = [range(1, lib.num_files + 1) for lib in config.libraries for _ in range(k)]
    for flat in product(*ranges):
        rows = tuple(flat[i * k : (i + 1) * k] for i in range(config.num_libraries))
        yield DemandVector(rows)


def config_to_json(config: NetworkConfig) -> dict:
    return {
        "libraries": [
            {"num_files": lib.num_files, "alpha": str(lib.alpha)} for lib in config.libraries
        ],
        "num_users": config.num_users,
        "cache_size": str(config.cache_size),
    }


def config_from_json(data: dict) -> NetworkConfig:
    try:
        if not isinstance(data, dict) or not {"libraries", "num_users", "cache_size"} <= data.keys():
            raise TypeError(
                "the config must be a JSON object with libraries, num_users and cache_size"
            )
        if not isinstance(data["libraries"], list):
            raise TypeError("libraries must be a list of objects")
        for i, lib in enumerate(data["libraries"], start=1):
            if not isinstance(lib, dict) or not {"num_files", "alpha"} <= lib.keys():
                raise TypeError(f"library {i} must be an object with num_files and alpha")
        libraries = tuple(
            LibrarySpec(
                num_files=_to_count(lib["num_files"], "num_files"), alpha=to_fraction(lib["alpha"])
            )
            for lib in data["libraries"]
        )
        return NetworkConfig(
            libraries=libraries,
            num_users=_to_count(data["num_users"], "num_users"),
            cache_size=to_fraction(data["cache_size"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed network config: {exc}") from exc


def load_config(path: str) -> NetworkConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_json(data)


def canonical_config_json(config: NetworkConfig) -> str:
    """Stable compact serialization, used for digests in run records."""
    return json.dumps(config_to_json(config), sort_keys=True, separators=(",", ":"))
