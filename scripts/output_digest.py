#!/usr/bin/env python3
"""Digest output trees, or list the files in which two trees differ.

    python scripts/output_digest.py OUT_DIR
    python scripts/output_digest.py OUT_A OUT_B [--tol REL]

With one directory: one line per file, ``<sha256>  <path relative to OUT_DIR>``,
sorted by path.  With two: one line per file whose bytes differ
(``differs  <path>``) or that only one side has (``only in A  <path>``,
``only in B  <path>``), sorted by path; the exit code is 1 if there is any
such line, else 0.  Under a CSV that differs, one indented line per numeric
column gives the largest absolute deviation of its cells
(``  <column>  max |dev| <value>``; NaN against NaN counts as equal), or one
line gives the two shapes when the columns or the row counts differ.  Under
a ``summary.json`` that differs, one indented line per check whose pass flag
or detail changed gives both details
(``  <experiment>/<check>  <old detail> -> <new detail>``): each prefixed
by ``[PASS]`` or ``[FAIL]`` when the flag changed, ``(none)`` for a side
without that check.
``timings.json`` holds wall-clock values and is left out in both modes, so
two runs whose outputs are byte-identical print the same digests and no
differences.

With ``--tol REL`` the listing is the same, but the exit code compares the
trees by verdict and by tolerance instead of by bytes: it is 0 when no file
is in only one tree, every CSV that differs keeps its shape, its text cells
and, in each numeric column, every cell within REL times the column's
scale (NaN equal to NaN), and every ``summary.json`` that differs keeps
each check's pass flag; else 1.  Any other file that differs fails.  A
column's scale is max(1, its largest finite |value| in either tree), so a
column of roundoff near 0 is held to REL itself.  This is the comparison
across machines and BLAS builds, where the last bits of a result may move.
"""

import hashlib
import json
import math
import sys
from pathlib import Path


def _hashes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "timings.json"}


def digests(root: Path) -> list:
    return [f"{digest}  {rel}" for rel, digest in sorted(_hashes(root).items())]


def _table(path: Path) -> tuple:
    """The column names and the rows of a result CSV, past its # header."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return (lines[0].split(",") if lines else []), [line.split(",") for line in lines[1:]]


def _deviation(a: float, b: float) -> float:
    return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)


def deviations(path_a: Path, path_b: Path) -> list:
    """The largest absolute deviation of each numeric column of two CSVs."""
    (cols_a, rows_a), (cols_b, rows_b) = _table(path_a), _table(path_b)
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        return [f"  shape {len(cols_a)} x {len(rows_a)} -> {len(cols_b)} x {len(rows_b)}"]
    lines = []
    for j, name in enumerate(cols_a):
        try:
            devs = [_deviation(float(ra[j]), float(rb[j])) for ra, rb in zip(rows_a, rows_b)]
        except (ValueError, IndexError):
            continue                  # a column of text
        dev = math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)
        lines.append(f"  {name}  max |dev| {dev:.3e}")
    return lines


def within(path_a: Path, path_b: Path, tol: float) -> bool:
    """Whether two CSVs have one shape, equal text cells and, per numeric
    column, every cell within ``tol`` times max(1, the column's largest
    finite |value|)."""
    (cols_a, rows_a), (cols_b, rows_b) = _table(path_a), _table(path_b)
    if cols_a != cols_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False
    for j in range(len(cols_a)):
        col_a, col_b = [r[j] for r in rows_a], [r[j] for r in rows_b]
        try:
            num_a, num_b = [float(c) for c in col_a], [float(c) for c in col_b]
        except ValueError:
            if col_a != col_b:        # a column of text
                return False
            continue
        scale = max(1.0, max((abs(v) for v in num_a + num_b if math.isfinite(v)), default=0.0))
        if any(not _deviation(a, b) <= tol * scale for a, b in zip(num_a, num_b)):
            return False
    return True


def _checks(path: Path) -> dict:
    return {f"{exp}/{check['name']}": (check["passed"], check["detail"])
            for exp, res in json.loads(path.read_text()).items() for check in res["checks"]}


def check_changes(path_a: Path, path_b: Path) -> list:
    """The checks of two summary.json files whose pass flag or detail changed."""
    a, b = _checks(path_a), _checks(path_b)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        old, new = a.get(key), b.get(key)
        if old == new:
            continue
        flagged = old is None or new is None or old[0] != new[0]
        old_text, new_text = ("(none)" if side is None
                              else f"[{'PASS' if side[0] else 'FAIL'}] {side[1]}" if flagged
                              else side[1] for side in (old, new))
        lines.append(f"  {key}  {old_text} -> {new_text}")
    return lines


def differences(root_a: Path, root_b: Path, tol: float | None = None) -> tuple:
    """The listing of the files that differ, and whether the trees agree: in
    bytes, or with ``tol`` by verdict and within that tolerance."""
    a, b = _hashes(root_a), _hashes(root_b)
    lines = []
    agree = True
    for rel in sorted(a.keys() | b.keys()):
        fa, fb = root_a / rel, root_b / rel
        if rel not in b or rel not in a:
            lines.append(f"only in {'A' if rel in a else 'B'}  {rel}")
            agree = False
        elif a[rel] != b[rel]:
            lines.append(f"differs  {rel}")
            if rel.endswith(".csv"):
                lines += deviations(fa, fb)
                agree = agree and tol is not None and within(fa, fb, tol)
            elif Path(rel).name == "summary.json":
                lines += check_changes(fa, fb)
                flags_a, flags_b = ({k: v[0] for k, v in _checks(f).items()} for f in (fa, fb))
                agree = agree and tol is not None and flags_a == flags_b
            else:
                agree = False
    return lines, agree


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    tol = None
    if "--tol" in args:
        i = args.index("--tol")
        try:
            tol = float(args[i + 1])
        except (IndexError, ValueError):
            tol = math.nan
        del args[i:i + 2]
    if (len(args) not in (1, 2) or not all(Path(a).is_dir() for a in args)
            or (tol is not None and not (len(args) == 2 and tol >= 0))):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(args) == 1:
        for line in digests(Path(args[0])):
            print(line)
        return 0
    lines, agree = differences(Path(args[0]), Path(args[1]), tol)
    for line in lines:
        print(line)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
