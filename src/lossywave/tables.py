"""The one writer of every CSV table and JSON document the package produces.

JSON is indented by 2, ends with a newline and has null for inf and nan.
CSV files start with an optional `# comment` line and the column names;
every value is written as f"{x:.17g}" (round-trip safe), so identical
inputs give byte-identical files.  Rows are formatted one block of
_BLOCK_ROWS at a time and written as they go, so memory stays flat
however long the columns are.

A block of fewer than _KERNEL_ROWS rows is formatted by one `%`
operation.  A larger block goes through a numpy kernel that produces
the same bytes: for each value it computes the 17-digit decimal
significand D = round(|x| * 10**(16 - E)) in double-double arithmetic
and lays out sign, digits, point and exponent by table lookups.  The
kernel takes every finite x with 1e-270 <= |x| <= 1e270 whose scaled
value is not within 1e-6 of a decimal tie (those must round half to
even); the rest (zeros, subnormals, inf, nan, ties and magnitudes
beyond that range) are formatted by `%` one value at a time.

Timed per block with the kernel's tables built, `%` and the kernel break
even at 190 to 256 rows of 2 columns and near 128 rows of 3; at 601 rows
of 3 the kernel takes 0.9 ms against 1.3 ms.  _KERNEL_ROWS is 256, where
the kernel was not the slower in any run.  Its tables are built once per
process, on first use, in 1 to 2 ms.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import accumulate, repeat
from operator import mul, sub, truediv
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["write_json", "write_table"]

_BLOCK_ROWS = 8192
_KERNEL_ROWS = 256  # the measured crossover, see above: smaller blocks take one `%`

_MAGNITUDES = (1e-270, 1e270)  # |x| the kernel takes; their decimal exponents e lie within +-272
_POWERS = range(16 - 280, 16 + 281)  # the k = 16 - e of the 10**k the kernel scales by
_EXPONENTS = range(-300, 301)  # exponents of the "e+XX" table
_TIE = 1e-6  # scaled values this close to a decimal tie go to `%`
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant

# Slots of one value, 48 bytes = six uint64 words:
#   0       '-'
#   1-5     "0.000", the prefix of 1e-4 <= |x| < 1
#   6-39    d0 . d1 . d2 . ... d16 .   digit j at 6 + 2j, the point after it at 7 + 2j
#   40-44   'e', the exponent's sign and its 2 or 3 digits
#   45      the separator: ',' or the newline after a row's last value
# A table of keep-masks, one per sign, exponent class and count of
# significant digits (1 to 17), selects the slots of each value's text.
_SLOTS = 48
_SEP = 45
# exponents with a layout of their own: each fixed-point one, then 17 for every
# exponent written with 2 digits and 100 for every one written with 3
_CLASSES = (*range(-4, 17), 17, 100)


def _printf(template, values):
    """`template % tuple(values)`: every CSV byte the kernel does not produce."""
    return template % tuple(values)


def _split(a):
    """Dekker split of a into hi + lo, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(strings):
    """Byte strings of at most 8 bytes as uint64 words, zero padded."""
    return np.array(strings, "S8").view(np.uint64)


def _pow10():
    """hi and lo per k in _POWERS with hi + lo = 10**k to about 2**-106 relative.

    hi = 10**k and lo = 10**k - hi, each rounded to nearest from exact
    Python ints (int to float conversion and int true division are
    correctly rounded).
    """
    ten = list(accumulate(repeat(10, _POWERS.stop - 1), mul, initial=1))  # 10**0 ... 10**296
    up, down = ten[:_POWERS.stop], ten[-_POWERS.start:0:-1]  # 10**k for k >= 0, 10**-k for k < 0
    hi_up = list(map(float, up))
    lo_up = map(float, map(sub, up, map(int, hi_up)))
    hi_down = list(map(truediv, repeat(1), down))
    # 1/d - a/b = (b - a*d) / d / b, with b a power of two: the last division is exact
    a, b = zip(*map(float.as_integer_ratio, hi_down))
    lo_down = map(truediv, map(truediv, map(sub, b, map(mul, a, down)), down), b)
    return np.array([*hi_down, *hi_up]), np.array([*lo_down, *lo_up])


def _keep_table():
    """Kept slots of every value, by sign, exponent class and count of significant digits.

    Row 18 * (len(_CLASSES) * negative + class) + digits, class the index in
    _CLASSES.  A slot is kept where the value has at least need[class, slot]
    significant digits (18: never); the '-' where it is negative.
    """
    need = np.full((len(_CLASSES), _SLOTS), 18)
    need[:, _SEP] = 0
    need[:, 6:40:2] = np.arange(1, 18)  # digit j at 6 + 2j
    for c, e in enumerate(_CLASSES):
        if e < 0:  # 0.000ddd
            need[c, 1:2 - e] = 0
        elif e <= 16:  # ddd.ddd, integer digits kept even where zero
            need[c, 6:8 + 2 * e:2] = 0
            need[c, 7 + 2 * e] = e + 2
        else:  # d.ddde+XX
            need[c, 7] = 2
            need[c, 40:44 + (e >= 100)] = 0
    keep = np.arange(18)[:, None] >= need[:, None, :]
    return np.concatenate([keep, keep | (np.arange(_SLOTS) == 0)]).reshape(-1, _SLOTS)


@functools.cache
def _tables():
    """Lookup tables of the kernel, built on first use (1 to 2 ms) to keep import fast.

    pow10[k - _POWERS.start] = (hi, hi's Dekker halves, lo), see _pow10.
    """
    hi, lo = _pow10()
    # "a.b.c.d." and the place of the last nonzero digit (0 for 0000) of each 4-digit group abcd
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quad = np.full((10, 10, 10, 10, 4, 2), ord("."), np.uint8)
    quad[..., 0, 0] = digit[:, None, None, None]
    quad[..., 1, 0] = digit[:, None, None]
    quad[..., 2, 0] = digit[:, None]
    quad[..., 3, 0] = digit
    sig4 = np.zeros((10,) * 4, np.int64)
    sig4[1:] = 1
    sig4[:, 1:] = 2
    sig4[:, :, 1:] = 3
    sig4[:, :, :, 1:] = 4
    exponent = np.arange(_EXPONENTS.start, _EXPONENTS.stop)
    return SimpleNamespace(
        pow10=np.column_stack([hi, *_split(hi), lo]),
        lead=_words([b"-0.000%d." % d for d in range(10)]),
        quad=quad.reshape(-1, 8).view(np.uint64).ravel(),
        sig4=sig4.ravel(),
        expo=_words([b"e%+03d" % e for e in _EXPONENTS]),
        keep=_keep_table(),
        # the row of `keep` for a positive value with 0 digits, per exponent in _EXPONENTS
        row0=18 * np.where((-4 <= exponent) & (exponent <= 16), exponent - _CLASSES[0],
                           _CLASSES.index(17) + (np.abs(exponent) >= 100)),
    )


def _scaled(ax, e, pow10):
    """Integer part and fraction of ax * 10**(16 - e), good to about 1e-14 absolute.

    ax * hi is split exactly into a double p and its rounding error
    (Dekker's product); ax * lo adds the rest of 10**k.
    """
    h, hh, hl, lo = np.take(pow10, 16 - e - _POWERS.start, axis=0).T
    p = ax * h
    xh, xl = _split(ax)
    t = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + ax * lo
    whole = np.floor(p)
    s = (p - whole) + t
    carry = np.floor(s)
    return whole.astype(np.int64) + carry.astype(np.int64), s - carry


def _kernel(values, ncols):
    """CSV bytes of `values` (a block, row-major, ncols per row): f"{x:.17g}" each."""
    tb = _tables()
    ax = np.abs(values)
    fast = (ax >= _MAGNITUDES[0]) & (ax <= _MAGNITUDES[1])
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, e, tb.pow10)
    # log10 can miss the decimal exponent by one next to a power of ten
    low, high = whole < 10**16, whole >= 10**17
    moved = np.flatnonzero(low | high)
    e[moved] += high[moved].astype(np.int64) - low[moved]
    whole[moved], frac[moved] = _scaled(ax[moved], e[moved], tb.pow10)
    d = whole + (frac > 0.5)
    fast &= (d >= 10**16) & (d <= 10**17) & (np.abs(frac - 0.5) >= _TIE)
    d[~fast] = 10**16  # any valid significand: `%` overwrites these values
    carry = d == 10**17  # 99999999999999999.5 rounds up to 1e17
    d[carry] = 10**16
    e += carry

    top = d // 10**8
    bottom = (d - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    groups = [(top // 10**4) % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4]
    words = np.empty((len(values), _SLOTS // 8), np.uint64)
    words[:, 0] = tb.lead[top // 10**8]
    for i, g in enumerate(groups):
        words[:, 1 + i] = tb.quad[g]
    words[:, 5] = tb.expo[e - _EXPONENTS.start]
    chars = words.view(np.uint8)
    separators = np.frombuffer(b"," * (ncols - 1) + b"\n", np.uint8)
    chars[:, _SEP] = np.tile(separators, len(values) // ncols)

    # significant digits, up to the last nonzero one: d0 never is zero
    digits = 1
    for i, g in enumerate(groups):
        digits = np.where(g != 0, 1 + 4 * i + tb.sig4[g], digits)
    row = tb.row0[e - _EXPONENTS.start] + digits
    keep = np.take(tb.keep, np.where(values < 0, row + len(tb.keep) // 2, row), axis=0)

    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = _printf(b"%.17g\n" * len(slow), values[slow].tolist()).split(b"\n")
        for i, text in zip(slow, texts):
            chars[i, :len(text)] = np.frombuffer(text, np.uint8)
            keep[i, :_SEP] = np.arange(_SEP) < len(text)
    return np.compress(keep.ravel(), chars.ravel()).tobytes()


def _json_safe(doc):
    """doc with every non-finite float replaced by None."""
    if isinstance(doc, dict):
        return {key: _json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(value) for value in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def write_json(path, doc):
    """Write a document of dicts, lists and scalars as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")
    return path


def write_table(path, colnames, columns, comment=None, fmt="csv"):
    """Write equal-length columns as CSV, or as JSON {"comment": ..., "rows": [row objects]}.

    The file gets the suffix of `fmt` ("csv" or "json"); returns its path.
    Values are converted to float.  The comment is the CSV file's first
    line without its "# ", or the JSON document's "comment".
    """
    path = Path(path).with_suffix("." + fmt)
    cols = [np.asarray(c, dtype=float) for c in columns]
    if fmt == "json":
        rows = zip(*(c.tolist() for c in cols))
        return write_json(path, {"comment": comment,
                                 "rows": [dict(zip(colnames, row)) for row in rows]})
    row_fmt = b",".join([b"%.17g"] * len(cols)) + b"\n"
    with open(path, "wb") as fh:
        if comment:
            fh.write(f"# {comment}\n".encode("utf-8"))
        fh.write((",".join(colnames) + "\n").encode("utf-8"))
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            if len(block) < _KERNEL_ROWS:
                fh.write(_printf(row_fmt * len(block), block.ravel().tolist()))
            else:
                fh.write(_kernel(block.ravel(), len(cols)))
    return path
