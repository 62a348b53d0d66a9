"""The exact text of ``"%.17g" % v`` for each element of a float64 array,
computed by array operations instead of one ``%`` per element.

For finite nonzero v = f 2^e (``frexp``) with decimal exponent k, the
17-digit integer of ``%`` is round(y) for y = |v| 10^(16-k), which lies in
[1e16, 1e17).  y is formed as a double-double: a Dekker two-product of f with
a table of 10^(16-k) to 106 bits, built from integers.  Its error is below
2^-46, so round(y) is exact unless y's fraction lies within TIE_BAND of one
half, as at the exact ties ``%`` rounds half to even.  Those elements, nan,
+-inf and +-0 are spelled by ``%`` itself.

Each value is spelled in a row of WIDTH bytes: a prefix (the "-" and the
"0.000" of k in [-4, -1]), a body of the 17 digits with a decimal point
inserted, and a suffix ("e", the exponent's sign and digits), as C's ``%g``
rules choose them from the sign, k and the last nonzero digit.  Every byte
that ``%`` does not write is 0, the only padding, so a row read without its
zero bytes is the text.  ``runner.ResultTable`` spells a table of
VECTOR_ROWS rows or more in chunks taken across block boundaries, one call
per chunk, its rows beside the other cells in one zero-padded matrix.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

PRECISION = 17
TIE_BAND = 2.0 ** -40
# the exponents k of finite nonzero doubles, padded by one on each side
_K_LOW, _K_HIGH = -325, 309
_FIXED = range(-4, PRECISION)       # the k that %g writes without exponent
_SPLIT = 2.0 ** 27 + 1
_PREFIX = b"-0.000"
_BODY = slice(len(_PREFIX), len(_PREFIX) + PRECISION + 1)
WIDTH = _BODY.stop + len(b"e-308")
# byte masks on a 24-byte window of the digits, by the index p of the digit
# that the point follows: the digits before the point, the digits after it
# (read one column to the left) and the point itself
_WINDOW = np.arange(24)
_P = np.arange(PRECISION + 1)[:, None]
_HEAD = np.where(_WINDOW <= _P, 255, 0).astype(np.uint8)
_TAIL = np.where(_WINDOW > _P + 1, 255, 0).astype(np.uint8)
_POINT = np.where(_WINDOW == _P + 1, ord("."), 0).astype(np.uint8)


@lru_cache(maxsize=None)
def _powers():
    """10^(16-k) = (hi + lo) 2^s for each k, hi + lo in [1, 2) to 106 bits;
    hi comes with its Dekker halves."""
    his, los, shifts = [], [], []
    for k in range(_K_LOW, _K_HIGH + 1):
        j = PRECISION - 1 - k
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        s = num.bit_length() - den.bit_length()
        if (num << max(0, -s)) < (den << max(0, s)):
            s -= 1
        scaled = (num << (105 - s)) // den if s <= 105 else \
            num // (den << (s - 105))
        head = scaled >> 53
        his.append(float(head) * 2.0 ** -52)
        los.append(float(scaled - (head << 53)) * 2.0 ** -105)
        shifts.append(s)
    hi = np.array(his)
    return (hi, *_split(hi)), np.array(los), np.array(shifts, dtype=np.int32)


@lru_cache(maxsize=None)
def _affixes():
    """Each (k, sign)'s row of the bytes written outside the body, 0 at the
    rest."""
    text = np.zeros((_K_HIGH - _K_LOW + 1, 2, WIDTH), dtype=np.uint8)
    for row, k in enumerate(range(_K_LOW, _K_HIGH + 1)):
        if k not in _FIXED:
            suffix = b"e%+03d" % k
            text[row, :, _BODY.stop:_BODY.stop + len(suffix)] = list(suffix)
        elif k < 0:
            text[row, :, 1:2 - k] = list(_PREFIX[1:2 - k])   # "0." and zeros
        text[row, 1, 0] = ord("-")
    return text.reshape(-1, WIDTH)


@lru_cache(maxsize=None)
def _quads():
    """The 4 ASCII digits of each integer below 10^4 as one uint32."""
    digits = np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(f, e, k):
    """y = f 2^e 10^(16-k) as an unevaluated sum of two doubles."""
    (his, hhs, hls), los, shifts = _powers()
    row = k - _K_LOW
    p = f * np.take(his, row)
    fh, fl = _split(f)
    hh, hl = np.take(hhs, row), np.take(hls, row)
    q = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * np.take(los, row)
    shift = e + np.take(shifts, row)
    return np.ldexp(p, shift), np.ldexp(q, shift)


def _quarter(a):
    """Floor division of integers below 2^53 by 10^4, exact in floats."""
    upper = np.floor(a / 1e4)
    return upper, a - upper * 1e4


def _digits(n):
    """The 17 ASCII digits of each n in [1e16, 1e17) as two (len(n), 24)
    windows, whose column c holds digit c and digit c - 1, and the index of
    the last nonzero digit."""
    high = n // 10 ** 8
    upper, middle = _quarter(high)
    groups = _quarter(upper) + (middle,) + _quarter(n - high * 10 ** 8)
    # per n, six uint32 of 4 ASCII digits: "000" and the first digit, four
    # groups of 4, then a pad that the windows read, as is an extra last row
    words = np.zeros((len(n) + 1, 6), dtype=np.uint32)
    for column, group in enumerate(groups):
        words[:-1, column] = np.take(_quads(), group.astype(np.intp))
    ascii = words.view(np.uint8).ravel()
    shape = (len(n), 24)
    digits = ascii[3:3 + 24 * len(n)].reshape(shape)
    nonzero = digits[:, PRECISION - 1::-1] != ord("0")
    return digits, ascii[2:2 + 24 * len(n)].reshape(shape), \
        PRECISION - 1 - np.argmax(nonzero, axis=1)


def g17(values) -> np.ndarray:
    """A uint8 matrix of shape (len(values), WIDTH) whose row i, read without
    its zero bytes, is ``"%.17g" % values[i]``."""
    x = np.asarray(values, dtype=float)
    magnitude = np.abs(x)
    exact = (magnitude > 0) & (magnitude < np.inf)
    magnitude[~exact] = 1.0
    f, e = np.frexp(magnitude)
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    p, q = _scaled(f, e, k)
    # log10 may miss k by one next to a power of ten
    shift = ((p - 1e17) + q >= 0).astype(np.int64) - ((p - 1e16) + q < 0)
    moved = np.flatnonzero(shift)
    if len(moved):
        k[moved] += shift[moved]
        p[moved], q[moved] = _scaled(f[moved], e[moved], k[moved])
    whole = np.floor(q)
    fraction = q - whole
    exact &= np.abs(fraction - 0.5) >= TIE_BAND
    n = p.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = n == 10 ** PRECISION
    n[carry] = 10 ** (PRECISION - 1)
    k += carry
    digits, shifted, last = _digits(n)
    # the fixed form's point follows digit k and the exponent form's digit 0;
    # it is written only before a nonzero digit, and k < 0 writes none
    fixed = (k >= _FIXED.start) & (k < _FIXED.stop)
    point = np.where(fixed, np.where(k < 0, last, k), 0)
    length = np.where(last > point, last + 2, point + 1)
    body = ((digits & np.take(_HEAD, point, axis=0))
            | np.take(_POINT, point, axis=0)
            | (shifted & np.take(_TAIL, point, axis=0))) \
        & np.take(_HEAD, length - 1, axis=0)
    text = np.take(_affixes(), 2 * (k - _K_LOW) + (x < 0), axis=0)
    text[:, _BODY] = body[:, :_BODY.stop - _BODY.start]
    for i in np.flatnonzero(~exact):
        spelled = ("%.17g" % x[i]).encode().ljust(WIDTH, b"\0")
        text[i] = np.frombuffer(spelled, np.uint8)
    return text
