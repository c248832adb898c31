"""Reference per-value form of the result CSV writer (test-only oracle).

``ResultTable.to_csv`` picks one formatter per column; this writes every
value through the per-value rule it replaces, and the property tests compare
the bytes of the two.
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
