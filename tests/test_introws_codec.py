"""Round trips through ``introws._codec``, the one packed-row format of
the integer echelon, the packed product and the F_p elimination.

A row of width entries is one integer of w-byte slots, column 0 in the
highest slot: unsigned, each slot is an entry in [0, 256**w); signed,
each slot is a digit in [-2**(s-1), 2**(s-1)) for s = 8 * w, and the
integer is sum(x_c * 2**(s*(width-1-c))).  Widths of 1 to 12 bytes run
both the ``struct`` path (1, 2, 4 and 8 bytes) and the slot-at-a-time
path (the rest), on rows of 1, 64 and 97 entries that hold the extreme
digits and slots; a slot one byte too narrow does not round-trip.
"""

import random
import struct

import pytest

from dualkit.introws import _FORMATS, _codec

SLOT_BYTES = range(1, 13)
ROW_WIDTHS = (1, 64, 97)


def entry_range(w, signed):
    s = 8 * w
    return (-(1 << s - 1), (1 << s - 1) - 1) if signed else (0, (1 << s) - 1)


def extreme_rows(w, width, signed):
    """Rows of all lowest and all highest entries, of the two alternating
    and of random entries with the extremes and zero among them."""
    lo, hi = entry_range(w, signed)
    rng = random.Random(f"{w}-{width}-{signed}")
    return [[lo] * width, [hi] * width,
            [(lo, hi)[c % 2] for c in range(width)],
            [(hi, lo)[c % 2] for c in range(width)],
            [rng.choice((lo, hi, 0, rng.randint(lo, hi)))
             for _ in range(width)]]


def test_the_machine_widths_take_the_struct_path():
    assert sorted(_FORMATS) == [1, 2, 4, 8]
    for w, fmt in _FORMATS.items():
        assert struct.calcsize(">" + fmt) == w


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("width", ROW_WIDTHS)
@pytest.mark.parametrize("w", SLOT_BYTES)
def test_rows_round_trip(w, width, signed):
    pack, unpack = _codec(w, width, signed)
    s = 8 * w
    for row in extreme_rows(w, width, signed):
        x = pack(row)
        # column 0 in the highest slot; a signed row is its digits'
        # weighted sum, an unsigned one its slots'
        assert x == sum(e << s * (width - 1 - c) for c, e in enumerate(row))
        back = unpack(x)
        assert back == row
        assert type(back) is list and all(type(e) is int for e in back)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("w", [2, 3, 9, 10])
def test_a_slot_one_byte_too_narrow_does_not_round_trip(w, signed):
    width = 64
    row = extreme_rows(w, width, signed)[1]
    x = _codec(w, width, signed)[0](row)
    pack, unpack = _codec(w - 1, width, signed)
    # the row's entries do not fit the narrower slots ...
    with pytest.raises((OverflowError, struct.error)):
        pack(row)
    # ... and the integer of the wider slots does not unpack to the row
    try:
        back = unpack(x)
    except OverflowError:
        back = None
    assert back != row
