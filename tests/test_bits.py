"""Tests for fixed-width bit strings."""

from __future__ import annotations

import random

import pytest

from cacheshare.bits import BitString, concat, random_bits

from util import flip


def test_constructor_bounds():
    BitString(0, 0)
    BitString(3, 7)
    with pytest.raises(ValueError, match="does not fit"):
        BitString(3, 8)
    with pytest.raises(ValueError, match="does not fit"):
        BitString(2, -1)
    with pytest.raises(ValueError, match="negative width"):
        BitString(-1, 0)


def test_xor_requires_equal_widths():
    a = BitString(4, 0b1100)
    b = BitString(4, 0b1010)
    assert (a ^ b) == BitString(4, 0b0110)
    assert (a ^ a).value == 0
    with pytest.raises(ValueError, match="width mismatch"):
        a ^ BitString(5, 0)


def test_slice_is_msb_first():
    s = BitString(8, 0b1011_0001)
    assert s.slice(0, 8) == s
    assert s.slice(0, 4) == BitString(4, 0b1011)
    assert s.slice(4, 8) == BitString(4, 0b0001)
    assert s.slice(2, 5) == BitString(3, 0b110)
    assert s.slice(3, 3) == BitString(0, 0)
    with pytest.raises(ValueError, match="outside width"):
        s.slice(5, 9)
    with pytest.raises(ValueError, match="outside width"):
        s.slice(-1, 2)


def test_bit_and_flip():
    s = BitString(5, 0b10010)
    assert [s.slice(i, i + 1).value for i in range(5)] == [1, 0, 0, 1, 0]
    flipped = flip(s, 1)
    assert flipped == BitString(5, 0b11010)
    assert flip(flipped, 1) == s
    with pytest.raises(ValueError, match="outside width"):
        flip(s, 5)
    with pytest.raises(ValueError, match="outside width"):
        flip(s, -1)


def test_concat_appends_on_the_right():
    parts = [BitString(3, 0b101), BitString(2, 0b01), BitString(0, 0), BitString(1, 1)]
    joined = concat(parts)
    assert joined == BitString(6, 0b101011)
    assert joined.slice(0, 3) == parts[0]
    assert joined.slice(3, 5) == parts[1]
    assert concat([]) == BitString(0, 0)


def test_random_bits_fit_and_are_reproducible():
    rng = random.Random(11)
    again = random.Random(11)
    for width in (0, 1, 7, 64, 200):
        s = random_bits(width, rng)
        assert s.width == width
        assert s == random_bits(width, again)

