import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lossywave import cli, tables, write_table
from lossywave.tables import _BLOCK_ROWS, _CLASSES, _KERNEL_ROWS, _POWERS, _SEP, _SLOTS

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: without it only the property test is left out
    given = None

# signed zero, the smallest subnormal, huge and tiny magnitudes, integers
# (written through float) and values whose 17-digit form is not their repr
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308, 3, -7,
           2**53, 0.1, 1.0 / 3.0, math.pi, 123456789.125, 1e-5, 1e16, math.inf, -math.inf]


def _expected_rows(columns):
    return [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]


def test_rows_match_per_value_format_across_block_boundaries(tmp_path):
    n = 2 * _BLOCK_ROWS + 3
    a = [AWKWARD[i % len(AWKWARD)] for i in range(n)]
    b = [AWKWARD[(7 * i + 3) % len(AWKWARD)] for i in range(n)]
    path = write_table(tmp_path / "awkward", ["a", "b"], [a, b], comment="note")
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[:2] == ["# note", "a,b"]
    assert lines[-1] == ""  # the file ends with a newline
    assert lines[2:-1] == _expected_rows([a, b])


def test_single_column_nan_and_no_comment(tmp_path):
    values = [math.nan, -0.0, 5e-324]
    path = write_table(tmp_path / "one.csv", ["x"], [values])
    assert path.read_text(encoding="utf-8") == "x\nnan\n-0\n4.9406564584124654e-324\n"


def test_empty_columns_write_the_header(tmp_path):
    path = write_table(tmp_path / "empty", ["a", "b"], [[], []], comment="none")
    assert path.read_text(encoding="utf-8") == "# none\na,b\n"


def test_json_rows(tmp_path):
    path = write_table(tmp_path / "rows", ["gamma", "bound"], [np.array([1.5, 2.0]), [1e4, 3]],
                       comment="tau0=1e-06", fmt="json")
    assert path.name == "rows.json"
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "comment": "tau0=1e-06",
        "rows": [{"gamma": 1.5, "bound": 1e4}, {"gamma": 2.0, "bound": 3.0}]}


def _one_dump(colnames, columns, comment):
    """The JSON table as one document dumped whole, the form the block writer reproduces."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    doc = {"comment": comment, "rows": [dict(zip(colnames, row)) for row in rows]}
    return (json.dumps(tables._json_safe(doc), indent=2, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize("rows", [0, 1, 5, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
@pytest.mark.parametrize("comment", [None, 'say "hi", 100% \\ caf\u00e9 \u2192 \u03c9'])
def test_json_table_streams_the_bytes_of_one_dump(tmp_path, rows, comment):
    values = [math.nan, *AWKWARD]  # nan, +-inf, -0.0, 5e-324 and 1e300 among them
    a = [values[i % len(values)] for i in range(rows)]
    b = [values[(5 * i + 2) % len(values)] for i in range(rows)]
    names = ["a", 'b "%s" \u03c9']
    path = write_table(tmp_path / "t", names, [a, b], comment, fmt="json")
    assert path.read_bytes() == _one_dump(names, [a, b], comment)


def test_json_table_peak_memory(tmp_path):
    """A 2**16 x 2 JSON table peaks at 3.15 MB traced, one block at a time; dumped whole, 67 MB.

    The peak is that of one block of _BLOCK_ROWS rows, whatever the length of the columns.
    """
    rng = np.random.default_rng(7)
    columns = [rng.standard_normal(2**16), rng.standard_normal(2**16)]
    write_table(tmp_path / "warm", ["a", "b"], [c[:10] for c in columns], fmt="json")
    tracemalloc.start()
    try:
        write_table(tmp_path / "memory", ["a", "b"], columns, fmt="json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


# the writer's numpy kernel against per-value `%`

def _data_lines(path):
    return path.read_text(encoding="utf-8").split("\n")[1:-1]


@pytest.fixture
def printed(monkeypatch):
    """The values each `%` call of the writer formats, one list per call."""
    calls = []

    def counting(template, values):
        calls.append(list(values))
        return real(template, values)

    real = tables._printf
    monkeypatch.setattr(tables, "_printf", counting)
    return calls


def _is_decimal_tie(x):
    """True where x lies exactly halfway between two 17-digit decimals."""
    digits = "".join(map(str, Decimal(x).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def _kernel_table(path, values):
    """A one-column table of at least _KERNEL_ROWS rows holding `values`."""
    column = np.resize(np.asarray(values, dtype=float), max(len(values), _KERNEL_ROWS))
    return write_table(path, ["x"], [column]), column


# exact decimal ties at the 18th significant digit: the 17th digit is even and odd in turn
TIES = [1 + 2**-17, 3 + 5 * 2**-17, 9.5 + 2**-17] + [1 + j * 2**-17 for j in range(3, 64, 2)]
NEAR_POWERS = [v for k in range(-300, 301) for p in [10.0**k]
               for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]
EDGES = [1e16 - 1, 1e16 + 2, 99999999999999998.0, 9.9999999999999995e-07, 1e-4, 9.9999999999999e-5,
         1e-270, 1e270, 2**-1022, 2**-1074, 2.5e-310, 0.0, math.inf, math.nan]


def test_decimal_ties_round_half_to_even(tmp_path):
    path, column = _kernel_table(tmp_path / "ties", TIES + [-t for t in TIES])
    assert _data_lines(path) == [f"{x:.17g}" for x in column]
    assert {f"{x:.17g}" for x in TIES[:3]} == {"1.0000076293945312", "3.0000381469726562",
                                               "9.5000076293945312"}


def test_neighbours_of_powers_of_ten_take_the_kernel(tmp_path, printed):
    values = [v for v in NEAR_POWERS if 1e-270 <= v <= 1e270]
    path, column = _kernel_table(tmp_path / "powers", values + [-v for v in values])
    assert _data_lines(path) == [f"{x:.17g}" for x in column]
    # the exponent is corrected in the kernel; only exact decimal ties are left to `%`
    assert all(_is_decimal_tie(x) for call in printed for x in call)


def test_edges_zeros_subnormals_and_non_finite(tmp_path):
    values = NEAR_POWERS + EDGES + [-x for x in NEAR_POWERS + EDGES]
    path, column = _kernel_table(tmp_path / "edges", values)
    assert _data_lines(path) == [f"{x:.17g}" for x in column]


def test_seam_between_kernel_and_printf_blocks(tmp_path, printed):
    n = _BLOCK_ROWS + _KERNEL_ROWS - 1
    t = 1e-3 * math.pi * np.arange(n)
    value = np.sin(0.01 * np.arange(n)) * np.exp(-1e-4 * np.arange(n)) - 0.25
    columns = [t, value, -1e-200 * value]
    path = write_table(tmp_path / "seam", ["t", "value", "tiny"], columns)
    assert _data_lines(path) == _expected_rows(columns)
    # the zero t[0] goes to `%` alone; the short last block goes to `%` whole
    assert [len(c) for c in printed] == [1, 3 * (_KERNEL_ROWS - 1)]


# values the kernel refuses, and short texts it writes, paired at the same row of adjacent blocks
REFUSED = [0.0, -0.0, 5e-324, math.nan, -math.inf, *TIES, 1e300]
SHORT = [1.0, -2.5, 1e-4, 1e16]


@pytest.mark.parametrize("tail", [5, _KERNEL_ROWS + 5], ids=["printf-tail", "kernel-tail"])
def test_block_seams_leave_no_stale_or_dropped_bytes(tmp_path, printed, tail):
    """Block buffers are reused: a short text must not keep the bytes of a longer one before it.

    Column a has the refused values in block 1 and short kernel texts at
    the same rows of block 2; column b has them in blocks 2 and 3.  With
    `tail` = _KERNEL_ROWS + 5 the third block is a short kernel block.
    """
    n = 2 * _BLOCK_ROWS + tail
    i = np.arange(n)
    a = -math.pi * 10.0 ** (i % 40 - 20)  # 17 significant digits, fixed and exponent forms
    b = math.e * 10.0 ** (i % 37 - 18)
    rows = 3 * np.arange(len(REFUSED)) + 1
    a[rows] = REFUSED
    a[_BLOCK_ROWS + rows] = np.resize(SHORT, len(rows))
    rows = rows[rows < tail]
    b[_BLOCK_ROWS + rows] = REFUSED[:len(rows)]
    b[2 * _BLOCK_ROWS + rows] = np.resize(SHORT, len(rows))
    path = write_table(tmp_path / "seams", ["a", "b"], [a, b])
    assert _data_lines(path) == _expected_rows([a, b])
    if tail < _KERNEL_ROWS:  # `%` formats the short last block whole
        assert len(printed.pop()) == 2 * tail
    assert all(_refused(x) for call in printed for x in call)


@pytest.mark.parametrize("piece", [1, 47, 48, 49, 4095])
def test_compaction_pieces_may_split_values_anywhere(tmp_path, monkeypatch, piece):
    """NUL bytes are deleted a byte at a time: pieces of any size give the same text.

    Refused values, short texts and decimal ties sit among 17-digit ones in
    every block, the last of them a short kernel block.
    """
    monkeypatch.setattr(tables, "_PIECE", piece)
    n = 2 * _BLOCK_ROWS + 200
    assert n % _BLOCK_ROWS >= _KERNEL_ROWS
    i = np.arange(n)
    columns = [-math.pi * 10.0 ** (i % 40 - 20), math.e * 10.0 ** (i % 37 - 18),
               10.0 ** (i % 29 - 14) / 7]
    for k, column in enumerate(columns):
        column[k::61] = np.resize(REFUSED + SHORT + TIES, len(column[k::61]))
    path = write_table(tmp_path / "pieces", ["a", "b", "c"], columns)
    assert _data_lines(path) == _expected_rows(columns)


def test_writer_peak_memory(tmp_path):
    """Peak traced memory of a 2**18 x 2 table: 2.69 MB, against 3.34 MB compacting whole blocks.

    With the tables built, the first kernel (a 48-byte keep mask per
    value and `np.compress`, which builds an int64 index of every kept
    byte, and fresh temporaries per block) peaked at 6.07 MB, the one that
    deleted the NUL bytes of a whole block at once at 3.34 MB, and this
    one, compacting _PIECE bytes at a time, at 2.69 MB.  The bound is that
    peak plus 4%: a block-sized compaction result or slot buffer (0.79 MB)
    would cross it.
    """
    rng = np.random.default_rng(7)
    columns = [rng.standard_normal(2**18), rng.standard_normal(2**18)]
    tables._tables()
    tracemalloc.start()
    try:
        write_table(tmp_path / "memory", ["a", "b"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6, peak


def test_pulse_table_takes_the_kernel(tmp_path, printed):
    n = 2**18
    code = cli.main(["pulse", "--kind", "gaussian-pulse", "--samples", str(n),
                     "--out", str(tmp_path)])
    assert code == 0
    assert len(_data_lines(tmp_path / "pulse.csv")) == n + 1  # the column names, then n rows
    assert sum(len(c) for c in printed) <= 0.01 * 2 * n


def _refused(x):
    """True for a value the kernel leaves to `%`: zero, subnormal, non-finite, huge, a tie."""
    return not (math.isfinite(x) and 1e-270 <= abs(x) <= 1e270) or _is_decimal_tie(x)


@pytest.mark.parametrize("command,rows", [("fig1", [601, 600]), ("fig2", [961, 961]),
                                          ("fig3", [100, 501])], ids=["fig1", "fig2", "fig3"])
def test_figure_tables_take_the_kernel(tmp_path, capsys, printed, command, rows):
    args = cli.build_parser().parse_args([command])
    tables_of = {name: [np.asarray(c, dtype=float) for c in columns.values()]
                 for name, columns, _ in args.func(args)}
    assert [len(cols[0]) for cols in tables_of.values()] == rows
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    short = []
    for name, cols in tables_of.items():
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").split("\n")
        assert lines[2:-1] == _expected_rows(cols)  # after the comment and the column names
        if len(cols[0]) < _KERNEL_ROWS:
            short.append([x for row in zip(*cols) for x in row])
    # `%` formats the blocks below _KERNEL_ROWS whole (fig3's 100 band edges only),
    # and of the rest what the kernel refuses
    assert len(short) == (command == "fig3")
    assert [call for call in printed if call in short] == short
    assert all(_refused(x) for call in printed if call not in short for x in call)


def _keep_mask(negative, e, digits):
    """Kept slots of a value with decimal exponent e and `digits` significant digits."""
    row = np.zeros(_SLOTS, bool)
    row[0] = negative
    row[_SEP] = True
    if -4 <= e < 0:  # 0.000ddd
        row[1:2 - e] = True
        row[6:6 + 2 * digits:2] = True
    elif 0 <= e <= 16:  # ddd.ddd, integer digits kept even where zero
        row[6:6 + 2 * max(digits, e + 1):2] = True
        row[7 + 2 * e] = digits > e + 1
    else:  # d.ddde+XX
        row[6:6 + 2 * digits:2] = True
        row[7] = digits > 1
        row[40:44 + (abs(e) >= 100)] = True
    return row


def test_keep_table_matches_the_slot_layout():
    rows = [_keep_mask(neg, e, digits) for neg in (False, True) for e in _CLASSES
            for digits in range(18)]
    keep = tables._tables().keep
    assert keep.shape == (len(rows), _SLOTS)
    for i, row in enumerate(rows):
        assert np.array_equal(keep[i], row), i


def test_powers_of_ten_to_2_to_the_minus_106():
    pow10 = tables._tables().pow10
    assert len(pow10) == len(_POWERS)
    for k, (hi, hi_big, hi_small, lo) in zip(_POWERS, pow10.tolist()):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106, k
        assert abs(Fraction(hi) - exact) <= Fraction(math.ulp(hi)) / 2, k  # hi rounded to nearest
        assert hi_big + hi_small == hi


def test_import_leaves_the_kernel_tables_unbuilt():
    src = str(Path(tables.__file__).parents[1])
    probe = "import lossywave; print(lossywave.tables._tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


if given is not None:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400))
    def test_kernel_matches_printf_on_raw_bit_patterns(tmp_path_factory, patterns):
        column = np.array(patterns, dtype=np.uint64).view(np.float64)
        path, column = _kernel_table(tmp_path_factory.mktemp("bits") / "bits", column)
        assert _data_lines(path) == [f"{x:.17g}" for x in column]
