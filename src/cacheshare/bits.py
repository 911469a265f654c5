"""Fixed-width bit strings backed by Python integers, bit 0 first.

Slicing is MSB-first: bit index 0 is the most significant bit of `value`,
so slice(0, w) of a width-w string is the string itself and concatenation
appends on the right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BitString:
    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"negative width {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    def __xor__(self, other: "BitString") -> "BitString":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return BitString(self.width, self.value ^ other.value)

    def slice(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self.width:
            raise ValueError(f"slice {start}:{stop} outside width {self.width}")
        width = stop - start
        return BitString(width, (self.value >> (self.width - stop)) & ((1 << width) - 1))


def concat(parts: Iterable[BitString]) -> BitString:
    width = 0
    value = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
    return BitString(width, value)


def random_bits(width: int, rng: random.Random) -> BitString:
    return BitString(width, rng.getrandbits(width) if width else 0)

