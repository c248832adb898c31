#!/usr/bin/env python3
"""Print a sha256 digest for every output file under OUT_DIR.

    python scripts/output_digest.py OUT_DIR

One line per file, ``<sha256>  <path relative to OUT_DIR>``, sorted by path.
``timings.json`` holds wall-clock values and is left out, so two runs whose
outputs are byte-identical print the same lines (compare them with diff).
"""

import hashlib
import sys
from pathlib import Path


def digests(root: Path) -> list:
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "timings.json")
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for line in digests(Path(args[0])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
