"""Reference forms of the result CSV writer (test-only oracles).

``ResultTable.to_csv`` picks one formatter per column and formats each
distinct value of a repeating float or bool block once.  ``to_csv`` writes
every value through the per-value rule, ``to_csv_by_column`` formats every
cell through its column's formatter; the property tests compare the bytes.
"""

from pathlib import Path

import numpy as np


def fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def to_csv(table, path) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(table.provenance.items())]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def to_csv_by_column(table, path) -> None:
    """The column-at-a-time writer that formats every cell of a block through
    its column's %-spec, repeats or not."""
    from itertools import chain

    from volterra_smp.harness import _column_spec, _values

    header = [f"# {k}={v}" for k, v in sorted(table.provenance.items())]
    header.append(",".join(table.columns))
    specs = [_column_spec(col) for col in table.data]
    row = ",".join(spec for spec, _ in specs)
    n_rows = len(table.data[0]) if table.data else 0
    with Path(path).open("w") as fh:
        fh.write("\n".join(header) + "\n")
        for lo in range(0, n_rows, 4096):
            cells = [_values(col[lo:lo + 4096]) for col in table.data]
            cells = [c if pre is None else list(map(pre, c))
                     for (_, pre), c in zip(specs, cells)]
            text = "\n".join([row] * len(cells[0])) + "\n"
            fh.write(text % tuple(chain.from_iterable(zip(*cells))))
