"""Trajectory CSV text from float64 arrays, byte for byte as ``'%.17g'``.

:func:`format_block` turns a (rows, columns) block into CSV lines whose
every value is what Python's ``'%.17g' % x`` prints.  ``'%.17g'`` prints the
17 digits D = round_half_even(|x| 10^k), k = 16 - E, where E is the decimal
exponent of |x|.  For 1e-11 <= |x| < 1e15, k lies in [2, 27] and x = m 2^q
(m < 2^53) gives D = m 5^k / 2^-(q+k) with a shift of 1 to 63 bits;
m 5^k < 2^116 is formed exactly as two uint64 words from 32-bit limbs.
Every other value, and any value whose digits fail the range checks, is
formatted by Python, so the bytes are Python's for every double.

Every uint64 operand is an explicit np.uint64, because numpy 1.x promotes
uint64 with a Python int to float64.  The tables below cost about 1 MiB of
memory and a millisecond at import, so only commands that write a
trajectory import this module.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_LOW32, _32, _64, _ONE = _U64(0xFFFFFFFF), _U64(32), _U64(64), _U64(1)
_E16, _E17 = _U64(10**16), _U64(10**17)
_K_MIN, _K_MAX = 2, 27
_POW5 = np.array([5**k for k in range(_K_MAX + 1)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _32

# A value is laid out in 32 bytes, read as four little-endian uint64 words
# (byte j is bits 8(j % 8).. of word j // 8), and pad bytes are 0:
#   bytes 0-5    prefix: '-', and the '0.000' of 1e-4 <= |x| < 1
#   bytes 7-24   digit slots 0-17, the point inserted among them
#   bytes 25-28  'e-NN'
#   byte 29      separator
_WORD = np.dtype("<u8")
_SLOT0 = 7


def _words(layout: np.ndarray) -> np.ndarray:
    """A (rows, 32) uint8 table as its four (rows,) uint64 word columns."""
    return np.ascontiguousarray(layout.view(_WORD).T)


def _placed(table: np.ndarray, start: int) -> np.ndarray:
    """The (rows, 32) layout with ``table``'s columns from byte ``start``."""
    layout = np.zeros((len(table), 32), dtype=np.uint8)
    layout[:, start:start + table.shape[1]] = table
    return layout


# The four ASCII digits of each of 0..9999 as bytes 0-3 of a word, and, for
# group i of the 16 digits after the first, the index of its last nonzero
# digit in those 17 (0 for 0000).  Small dtypes keep the import fast.
_GROUP_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
_GROUPS = (np.ascontiguousarray(_GROUP_DIGITS.T + np.uint8(ord("0")))
           .view("<u4").ravel().astype(_WORD))
_GROUP_PLACE = np.max((_GROUP_DIGITS != 0) * np.arange(1, 5, dtype=np.int8)[:, None], axis=0)
_GROUP_LAST = (_GROUP_PLACE + np.arange(0, 16, 4, dtype=np.int8)[:, None]) * (_GROUP_PLACE > 0)
del _GROUP_DIGITS, _GROUP_PLACE
_PREFIXES = _words(_placed(np.array(
    [list((sign + lead).ljust(6, b"\0")) for sign in (b"", b"-")
     for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")], dtype=np.uint8), 0))[0]
_EXPONENTS = _words(_placed(np.array(
    [list(b"e-%02d" % e if e >= 5 else b"\0" * 4) for e in range(12)], dtype=np.uint8), 25))[3]
_COMMA, _NEWLINE = _U64(ord(",") << 40), _U64(ord("\n") << 40)
# Digit slot j holds digit j before the point at slot `at`, digit j - 1
# after it, and nothing past slot `end`; at = 18 puts no point among the
# digits.  Row at * 18 + end of each table is the mask (0xFF bytes) or the
# point for that (at, end).  A value has E <= 14, so at <= 15 and the point
# lies in words 1-2; the digits before it lie in words 0-2, those after in 1-3.
_SLOT, _AT, _END = np.arange(18), np.arange(19)[:, None, None], np.arange(18)[None, :, None]


def _slot_table(selected: np.ndarray, byte: int) -> np.ndarray:
    """The word columns of the (at, end) rows with ``byte`` in the selected slots."""
    return _words(_placed((selected * byte).astype(np.uint8).reshape(-1, 18), _SLOT0))


_BEFORE = _slot_table((_SLOT < _AT) & (_SLOT <= _END), 0xFF)
_AFTER = _slot_table((_SLOT > _AT) & (_SLOT <= _END), 0xFF)
_POINT = _slot_table((_SLOT == _AT) & (_SLOT <= _END), ord("."))
_NO_POINT = 18
del _SLOT, _AT, _END
_PLACEHOLDER = 1


def _scaled(m: np.ndarray, k: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m 5^k / 2^shift`` truncated, and rounded half to even, as uint64.

    ``m < 2^53``, ``k`` in [0, 27] and ``shift`` in [1, 63] (uint64); a
    quotient of 2^64 or more comes back as 2^64 - 1 truncated.
    """
    p_lo, p_hi = _POW5_LO[k], _POW5_HI[k]
    m_lo, m_hi = m & _LOW32, m >> _32
    lo_lo = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo + (lo_lo >> _32)
    high = m_hi * p_hi + (mid >> _32)
    low = (mid << _32) | (lo_lo & _LOW32)
    floor = np.where((high >> shift) != 0, _U64(2**64 - 1),
                     (high << (_64 - shift)) | (low >> shift))
    rest = low & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    up = (rest > half) | ((rest == half) & ((floor & _ONE) == _ONE))
    return floor, floor + up


def _digits(m: np.ndarray, q: np.ndarray, exponent: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether ``k = 16 - exponent`` is in range for ``m 2^q``, and
    ``m 2^q 10^k`` truncated and rounded (see :func:`_scaled`)."""
    k = 16 - exponent
    shift = -(q + k)
    ok = (k >= _K_MIN) & (k <= _K_MAX) & (shift >= 1) & (shift <= 63)
    return ok, *_scaled(m, np.where(ok, k, _K_MIN), np.where(ok, shift, 1).astype(np.uint64))


def decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the array path formats the float64 values ``x``, and there their
    decimal exponent E and 17 digits D: ``'%.16e' % x`` is D with a point
    after its first digit, then ``e`` and E.  Elsewhere E = 0, D = 10^16."""
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-11) & (magnitude < 1e15)
    magnitude = np.where(fast, magnitude, 1.0)
    bits = magnitude.view(np.uint64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    exponent = np.clip(np.floor(np.log10(magnitude)), 16 - _K_MAX, 16 - _K_MIN).astype(np.int64)

    ok, floor, rounded = _digits(m, q, exponent)
    # log10 can put E one off next to a power of ten: re-scale those values.
    off = np.flatnonzero(ok & ((floor < _E16) | (floor >= _E17)))
    if off.size:
        exponent[off] += np.where(floor[off] < _E16, -1, 1)
        ok[off], floor[off], rounded[off] = _digits(m[off], q[off], exponent[off])
    # Digits that round up to 10^17 (a carry into E + 1) go to Python too; no
    # double in the range has them.  A value Python formats is laid out as 1
    # (D = 10^16, E = 0), then blanked.
    ok &= fast & (floor >= _E16) & (rounded < _E17)
    return ok, np.where(ok, exponent, 0), np.where(ok, rounded, _E16)


def format_block(block: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float64 block: each row is
    ``','.join('%.17g' % x for x in row) + '\\n'``, byte for byte."""
    rows, columns = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    ok, exponent, d = decimal_digits(x)

    # The 17 digits in slots 0-16 (bytes 7-23), the first alone and the
    # others as four groups of four: A has digit j in slot j, B in slot j + 1.
    first = d // _E16
    rest = (d - first * _E16).astype(np.intp)
    upper, lower = rest // 10**8, rest % 10**8
    groups = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    a0 = (first + _U64(ord("0"))) << _U64(56)
    a1 = _GROUPS.take(groups[0]) | (_GROUPS.take(groups[1]) << _32)
    a2 = _GROUPS.take(groups[2]) | (_GROUPS.take(groups[3]) << _32)
    b1 = (a1 << _U64(8)) | (a0 >> _U64(56))
    b2 = (a2 << _U64(8)) | (a1 >> _U64(56))
    b3 = a2 >> _U64(56)
    last = np.maximum(np.maximum(_GROUP_LAST[0].take(groups[0]), _GROUP_LAST[1].take(groups[1])),
                      np.maximum(_GROUP_LAST[2].take(groups[2]), _GROUP_LAST[3].take(groups[3])))

    # '%.17g' writes E < -4 as d.ddde-NN and -4 <= E < 0 as 0.000ddd; digits
    # 0..last_int stand before the point (none below one, where the prefix
    # holds '0.' and its zeros), and trailing zeros after it are dropped.
    scientific = exponent < -4
    below_one = (exponent < 0) & ~scientific
    last_int = np.where(exponent >= 0, exponent, np.where(scientific, 0, -1))
    at = np.where(below_one, _NO_POINT, last_int + 1)
    end = np.where(last > last_int, last + ~below_one, last_int)
    row = at * 18 + end
    out = np.empty((4, d.size), dtype=_WORD)
    out[0] = (a0 & _BEFORE[0].take(row)) | _PREFIXES.take(5 * (x < 0) - exponent * below_one)
    out[1] = (a1 & _BEFORE[1].take(row)) | (b1 & _AFTER[1].take(row)) | _POINT[1].take(row)
    out[2] = (a2 & _BEFORE[2].take(row)) | (b2 & _AFTER[2].take(row)) | _POINT[2].take(row)
    out[3] = (b3 & _AFTER[3].take(row)) | _EXPONENTS.take(-exponent * scientific)
    # A value Python formats becomes one placeholder byte, split on below.
    slow = ~ok
    if slow.any():
        out[:, slow] = 0
        out[0, slow] = _PLACEHOLDER
    separators = out[3].reshape(rows, columns)
    separators[:, :-1] |= _COMMA
    separators[:, -1] |= _NEWLINE
    text = out.T.tobytes().translate(None, b"\0")
    if not slow.any():
        return text
    pieces = text.split(bytes([_PLACEHOLDER]))
    spliced = [b""] * (2 * len(pieces) - 1)
    spliced[::2] = pieces
    spliced[1::2] = [b"%.17g" % v for v in x[slow].tolist()]
    return b"".join(spliced)
