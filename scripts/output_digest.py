#!/usr/bin/env python3
"""Digest output trees, or list the files in which two trees differ.

    python scripts/output_digest.py OUT_DIR
    python scripts/output_digest.py OUT_A OUT_B

With one directory: one line per file, ``<sha256>  <path relative to OUT_DIR>``,
sorted by path.  With two: one line per file whose bytes differ
(``differs  <path>``) or that only one side has (``only in A  <path>``,
``only in B  <path>``), sorted by path; the exit code is 1 if there is any
such line, else 0.  ``timings.json`` holds wall-clock values and is left out
in both modes, so two runs whose outputs are byte-identical print the same
digests and no differences.
"""

import hashlib
import sys
from pathlib import Path


def _hashes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "timings.json"}


def digests(root: Path) -> list:
    return [f"{digest}  {rel}" for rel, digest in sorted(_hashes(root).items())]


def differences(root_a: Path, root_b: Path) -> list:
    a, b = _hashes(root_a), _hashes(root_b)
    lines = []
    for rel in sorted(a.keys() | b.keys()):
        if rel not in b:
            lines.append(f"only in A  {rel}")
        elif rel not in a:
            lines.append(f"only in B  {rel}")
        elif a[rel] != b[rel]:
            lines.append(f"differs  {rel}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2) or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(args) == 1:
        for line in digests(Path(args[0])):
            print(line)
        return 0
    lines = differences(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
