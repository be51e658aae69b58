"""The one writer of every CSV/JSON table the package produces.

CSV files start with an optional `# comment` line and the column names;
every value is written as f"{x:.17g}" (round-trip safe), so identical
inputs give byte-identical files.  Rows are formatted one block at a
time with a single `%` operation per block and written as they go, so
memory stays flat however long the columns are.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["write_table"]

_BLOCK_ROWS = 8192


def write_table(path, colnames, columns, comment=None, fmt="csv"):
    """Write equal-length columns as CSV, or as a JSON list of row objects.

    The file gets the suffix of `fmt` ("csv" or "json"); returns its path.
    Values are converted to float.
    """
    path = Path(path).with_suffix("." + fmt)
    cols = [np.asarray(c, dtype=float) for c in columns]
    if fmt == "json":
        rows = zip(*(c.tolist() for c in cols))
        payload = [dict(zip(colnames, row)) for row in rows]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(colnames) + "\n")
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return path
