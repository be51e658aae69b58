import json
import math

import numpy as np

from lossywave import write_table
from lossywave.tables import _BLOCK_ROWS

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
                       fmt="json")
    assert path.name == "rows.json"
    assert json.loads(path.read_text(encoding="utf-8")) == [
        {"gamma": 1.5, "bound": 1e4}, {"gamma": 2.0, "bound": 3.0}]
