"""The one writer of every CSV table and JSON document the package produces.

JSON is indented by 2, ends with a newline and has null for inf and nan.
CSV files start with an optional `# comment` line and the column names;
every value is written as f"{x:.17g}" (round-trip safe), so identical
inputs give byte-identical files.  CSV and JSON tables alike are
formatted one block of _BLOCK_ROWS rows at a time and written as they
go: besides the columns it is given, the writer holds one block's text
and buffers, however long the columns are (a 2**18 x 2 table peaks at
2.7 MB traced as CSV and 3.2 MB as JSON).

A block of fewer than _KERNEL_ROWS rows is formatted by one `%`
operation.  A larger block goes through a numpy kernel that produces
the same bytes: for each value it computes the 17-digit decimal
significand D = round(|x| * 10**(16 - E)) in double-double arithmetic
and lays out sign, digits, point and exponent by table lookups.  The
kernel takes every finite x with 1e-270 <= |x| <= 1e270 whose scaled
value is not within 1e-6 of a decimal tie (those must round half to
even); the rest (zeros, subnormals, inf, nan, ties and magnitudes
beyond that range) are formatted by `%` one value at a time.

The kernel gives each value 48 byte slots, six uint64 words (see _SLOTS
below): a lead word "-0.000d." for the sign, the prefix of small values
and d0, four words "a.b.c.d." for the 4-digit groups of d1 ... d16, each
digit followed by a slot for the point, and a word for "e+XX" and the
separator (a comma from the exponent table, turned into a newline for
the last value of each row).  Each word is ANDed with a 0xFF/0x00 mask,
one per sign, exponent class and count of significant digits, derived
from the keep table.  Every slot a value's text does not use is then
NUL, and no kept slot holds a NUL byte, so deleting every NUL byte
leaves the block's CSV text without building an index of kept bytes.
A value left to `%` is written left-aligned into its slots, the rest of
them up to the separator zeroed.  The kernel's buffers are allocated
once per table, sized to its first block, and every block reuses them
through `out=`.

The deletion works byte by byte, so it runs over pieces of _PIECE bytes
of the slot memory, wherever they split a value: each piece is copied
to `bytes`, translated and written as it is made.
Alternated in fresh processes, it compacts a block of 16,384 pulse
values in 0.63 to 1.05 ms (median 0.66) where `bytearray.translate` of
the whole block took 1.00 to 1.39 ms (median 1.01), and a 961 x 3 block
in 97 to 159 us (median 107) instead of 133 to 210 us (median 160).
The transient result is one piece instead of a block (786 KB).

Timed per block with the kernel's tables built (and the buffers of a
one-block table allocated), alternated in fresh processes, the kernel
is as fast as `%` at 128 to 144 rows of 2 columns and at 64 to 96 of 3.
At 160 rows it takes 0.76 to 0.92 times the time of `%` (0.59 to 0.63
with 3 columns), at 501 rows 0.47 to 0.53 (0.34 to 0.35).  _KERNEL_ROWS
is 160: over two sets of ten such runs of 2 columns the kernel was the
slower in 2 of 20 at 144 rows and in none from 160 rows on.  On a 2**18 x 2
table `write_table` costs 3.7 to 4.0 times less per value than `%`
(six fresh processes).  The tables are built once per process, on first
use, in 1.0 to 1.7 ms (eight fresh processes).

The writer is single-threaded.  Each block runs about 100 short ufuncs
and the GIL changes hands around each one, so on a 2-core machine a
helper thread that compacted while the next block was formatted made a
2**18 x 2 table slower (63-66 ms to 73-74 ms), two worker threads
slower still (66-76 ms to 78-93 ms), and an earlier two-thread writer
raised the peak RSS of the time-domain benchmark by 9% through glibc's
per-thread malloc arenas.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat
from operator import mul, sub, truediv
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["write_json", "write_table"]

_BLOCK_ROWS = 8192
_KERNEL_ROWS = 160  # the measured crossover, see above: smaller blocks take one `%`
_PIECE = 2**16  # bytes of slot memory compacted at a time

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
    """Lookup tables of the kernel, built on first use to keep import fast.

    pow10[k - _POWERS.start] = (hi, hi's Dekker halves, lo), see _pow10;
    the kernel reads its columns, each stored contiguous.  `mask` is
    `keep` as six words per row, 0xFF in each kept slot and 0 elsewhere.
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
    sig4 = sig4.ravel()
    # sig12[offset[j] + g]: the significant digits of d0 d1 ... d12 where g, the
    # group j of d1-d4, d5-d8 and d9-d12, is their last nonzero one (1 for 0000)
    sig12 = sig4.astype(np.int8) + np.arange(1, 12, 4, dtype=np.int8)[:, None]
    sig12[:, 0] = 1
    exponent = np.arange(_EXPONENTS.start, _EXPONENTS.stop)
    pow10 = np.column_stack([hi, *_split(hi), lo])
    keep = _keep_table()
    return SimpleNamespace(
        pow10=pow10,
        columns=[c.copy() for c in pow10.T],
        lead=_words([b"-0.000%d." % d for d in range(10)]),
        quad=quad.reshape(-1, 8).view(np.uint64).ravel(),
        sig4=sig4,
        sig12=sig12.ravel(),
        scale=np.array([10**8, 10**4, 1])[:, None],
        offset=10**4 * np.arange(3)[:, None],
        # "e+XX" and the separator of a value that is not the last of its row
        expo=_words([b"e%+03d" % e for e in _EXPONENTS]) | np.uint64(ord(",") << 8 * (_SEP - 40)),
        keep=keep,
        mask=(keep * np.uint8(0xFF)).view(np.uint64),
        # the row of `keep` for a positive value with 0 digits, per exponent in _EXPONENTS
        row0=18 * np.where((-4 <= exponent) & (exponent <= 16), exponent - _CLASSES[0],
                           _CLASSES.index(17) + (np.abs(exponent) >= 100)),
    )


def _buffers(n):
    """The buffers of _kernel for blocks of up to n values.

    `slots` holds a block's slots, six words per value, in the bytearray
    `data`.  The float and int rows share one allocation: apart they left
    the worker of the time-domain benchmark 1 MB more resident at its peak.
    """
    data = bytearray(n * _SLOTS)
    rows = np.empty((12, n))
    return SimpleNamespace(floats=rows[:7], ints=rows[7:].view(np.int64),
                           flags=np.empty((3, n), bool), data=data,
                           slots=np.frombuffer(data, np.uint64).reshape(n, _SLOTS // 8))


def _scaled(ax, e, pow10, f, k, whole):
    """Integer part and fraction of ax * 10**(16 - e), good to about 1e-14 absolute.

    ax * hi is split exactly into a double p and its rounding error
    (Dekker's product); ax * lo adds the rest of 10**k.  pow10 holds the
    columns hi, hh, hl, lo.  The integer part goes to `whole`; the
    fraction is returned in f[1].  f (six float rows) and k (ints) are
    work space.
    """
    hi, hh, hl, lo = pow10
    h, p, xh, xl, t, w = f
    np.subtract(16 - _POWERS.start, e, out=k)
    np.take(hi, k, out=h, mode="clip")
    np.multiply(ax, h, out=p)
    np.multiply(ax, _SPLIT, out=xh)  # Dekker's split: xh = c - (c - ax), xl = ax - xh
    np.subtract(xh, ax, out=xl)
    xh -= xl
    np.subtract(ax, xh, out=xl)
    # t = (((xh*hh - p) + xh*hl + xl*hh) + xl*hl) + ax*lo, added in that order
    np.take(hh, k, out=h, mode="clip")
    np.take(hl, k, out=w, mode="clip")
    np.multiply(xh, h, out=t)
    t -= p
    xh *= w
    t += xh
    h *= xl
    t += h
    w *= xl
    t += w
    np.take(lo, k, out=w, mode="clip")
    w *= ax
    t += w
    np.floor(p, out=h)
    p -= h
    p += t
    np.floor(p, out=w)  # the carry of (p - whole) + t
    p -= w
    np.copyto(whole, h, casting="unsafe")
    np.copyto(k, w, casting="unsafe")
    whole += k
    return whole, p


def _kernel(values, ncols, s, write):
    """Write the CSV bytes of `values` (a block, row-major, ncols per row): f"{x:.17g}" each.

    s: what _buffers(n) made, for some n >= len(values).  Every
    np.take has mode="clip" (no index is out of range): with the default
    "raise" it writes to `out` through a buffer.
    """
    tb = _tables()
    n = len(values)
    f, (e, top, d, index, digits) = s.floats[:, :n], s.ints[:, :n]
    fast, slow, flag = s.flags[:, :n]
    ax = np.abs(values, out=f[6])
    np.greater_equal(ax, _MAGNITUDES[0], out=fast)
    np.less_equal(ax, _MAGNITUDES[1], out=flag)
    fast &= flag
    np.logical_not(fast, out=slow)
    ax[slow] = 1.0
    np.log10(ax, out=f[0])
    np.floor(f[0], out=f[0])
    np.copyto(e, f[0], casting="unsafe")
    whole, frac = _scaled(ax, e, tb.columns, f[:6], top, d)
    # log10 can miss the decimal exponent by one next to a power of ten
    np.subtract(whole, 10**16, out=top)
    np.greater_equal(top.view(np.uint64), 9 * 10**16, out=flag)
    moved = np.flatnonzero(flag)
    if len(moved):
        e[moved] += (whole[moved] >= 10**17).astype(np.int64) - (whole[moved] < 10**16)
        m = len(moved)
        whole[moved], frac[moved] = _scaled(ax[moved], e[moved], tb.columns, np.empty((6, m)),
                                            np.empty(m, np.int64), np.empty(m, np.int64))
    np.greater(frac, 0.5, out=flag)
    d += flag  # d = whole + (frac > 0.5), in the buffer of whole
    frac -= 0.5
    np.abs(frac, out=frac)
    np.greater_equal(frac, _TIE, out=flag)
    fast &= flag
    np.subtract(d, 10**16, out=top)
    np.less_equal(top.view(np.uint64), 9 * 10**16, out=flag)
    fast &= flag
    np.logical_not(fast, out=slow)
    d[slow] = 10**16  # any valid significand: `%` overwrites these values
    np.equal(d, 10**17, out=flag)  # 99999999999999999.5 rounds up to 1e17
    d[flag] = 10**16
    e += flag

    # the 4-digit groups, peeled off d from the last one; each word a row of the float buffers
    words = f[:6].view(np.uint64)
    rest, group = top, index
    for i in range(4, 0, -1):
        np.floor_divide(d, 10**4, out=rest)
        np.multiply(rest, 10**4, out=group)
        np.subtract(d, group, out=group)
        if i == 4:  # significant digits, up to the last nonzero one (d0 never is zero)
            np.take(tb.sig4, group, out=digits, mode="clip")
            digits += 13
            np.equal(digits, 13, out=flag)
            short = np.flatnonzero(flag)  # the last group is 0000
            if len(short):  # its other groups d1-d4, d5-d8 and d9-d12 as rows, looked up at once
                g = rest[short] // tb.scale
                g %= 10**4
                g += tb.offset
                digits[short] = np.take(tb.sig12, g).max(axis=0)
        np.take(tb.quad, group, out=words[i], mode="clip")
        d, rest = rest, d
    np.take(tb.lead, d, out=words[0], mode="clip")  # d is d0 now
    e -= _EXPONENTS.start
    np.take(tb.expo, e, out=words[5], mode="clip")
    last = words[5][ncols - 1::ncols]  # a row's last value ends in a newline, not a comma
    np.bitwise_xor(last, np.uint64((ord(",") ^ ord("\n")) << 8 * (_SEP - 40)), out=last)
    row = np.take(tb.row0, e, out=index, mode="clip")
    row += digits
    np.less(values, 0, out=flag)
    np.multiply(flag, len(tb.keep) // 2, out=top)
    row += top

    # each value's six words ANDed with its mask, into its 48 bytes of s.data
    out = s.slots[:n]
    np.take(tb.mask, row, axis=0, out=out, mode="clip")
    np.bitwise_and(out, words.T, out=out)
    slow = np.flatnonzero(slow)
    if len(slow):  # left-aligned, the rest of the slots up to the separator zeroed
        texts = _printf(b"%.17g\n" * len(slow), values[slow].tolist()).split(b"\n")[:-1]
        chars = np.array(texts, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
        out.view(np.uint8)[slow, :_SEP] = chars
    # no kept slot holds a NUL byte: deleting every NUL leaves the text, a byte at a
    # time, so the pieces may split a value anywhere
    view = memoryview(s.data)[:n * _SLOTS]
    for lo in range(0, len(view), _PIECE):
        write(bytes(view[lo:lo + _PIECE]).translate(None, b"\0"))


def _json_safe(doc):
    """doc with every non-finite float replaced by None."""
    if isinstance(doc, dict):
        return {key: _json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(value) for value in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def write_json(path, doc):
    """Write a document of dicts, lists and scalars as JSON; returns the path."""
    import json  # here, not at import: `import lossywave` needs no json

    path = Path(path)
    path.write_text(json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")
    return path


def _write_json_rows(path, colnames, cols, comment):
    """The JSON table of `write_table`, written block by block.

    Its bytes are those of write_json(path, {"comment": comment, "rows":
    [one object per row]}): the opening text, the rows of each block as
    one `%` of the row template, and the closing text.  A finite value
    is its repr, as in `json.dumps`; a non-finite one is null.
    """
    import json  # here, not at import: `import lossywave` needs no json

    rows = len(cols[0]) if cols else 0
    fields = ",".join(f"\n      {json.dumps(name).replace('%', '%%')}: %s" for name in colnames)
    row = f"\n    {{{fields}\n    }}"
    with open(path, "wb") as fh:
        fh.write(f'{{\n  "comment": {json.dumps(comment)},\n  "rows": ['.encode())
        for start in range(0, rows, _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols]).ravel()
            texts = list(map(float.__repr__, block.tolist()))
            for i in np.flatnonzero(~np.isfinite(block)).tolist():
                texts[i] = "null"
            if start:
                fh.write(b",")
            fh.write((",".join([row] * (len(block) // len(cols))) % tuple(texts)).encode())
        fh.write(b"\n  ]\n}\n" if rows else b"]\n}\n")
    return path


def write_table(path, colnames, columns, comment=None, fmt="csv"):
    """Write equal-length columns as CSV, or as JSON {"comment": ..., "rows": [row objects]}.

    The file gets the suffix of `fmt` ("csv" or "json"); returns its path.
    Column names are distinct strings and values are converted to float.
    The comment is the CSV file's first line without its "# ", or the
    JSON document's "comment".
    """
    path = Path(path).with_suffix("." + fmt)
    cols = [np.asarray(c, dtype=float) for c in columns]
    if fmt == "json":
        return _write_json_rows(path, colnames, cols, comment)
    row_fmt = b",".join([b"%.17g"] * len(cols)) + b"\n"
    with open(path, "wb") as fh:
        if comment:
            fh.write(f"# {comment}\n".encode("utf-8"))
        fh.write((",".join(colnames) + "\n").encode("utf-8"))
        buffers = None
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            if len(block) < _KERNEL_ROWS:
                fh.write(_printf(row_fmt * len(block), block.ravel().tolist()))
            else:
                buffers = buffers or _buffers(block.size)  # the first block is the largest
                _kernel(block.ravel(), len(cols), buffers, fh.write)
    return path
