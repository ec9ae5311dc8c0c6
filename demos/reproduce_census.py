#!/usr/bin/env python3
"""Reproduce the connected-domination census over plane triangulations.

Generates every triangulation of orders 5..11 (pass --extended for 12..13),
classifies each one, prints the count table and diffs it against the
built-in reference counts.  The gamma_c = 1 and 2 cells of orders 8 and 12
are known misprints in the published source, with known counts; the script
exits 1 if any other cell differs, or one of those four has another count.
"""

import argparse
import sys

import tridom as td

# The exact diff lines of the four misprinted cells; any other line, or one of
# these cells with a different count, is unexpected.
KNOWN_MISPRINTS = frozenset({
    "n=8 gamma_c=1: got 4, reference 3",
    "n=8 gamma_c=2: got 10, reference 11",
    "n=12 gamma_c=1: got 228, reference 226",
    "n=12 gamma_c=2: got 5189, reference 5191",
})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--extended", action="store_true", help="include orders 12 and 13")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    n_max = 13 if args.extended else 11
    print(f"generating and classifying all triangulations of orders 5..{n_max} ...")
    rows = td.census_rows(td.classified(5, n_max, workers=args.workers))  # keeps no record

    print(f"\n{'n':>4} {'total':>8} " + " ".join(f"{'gc=' + str(v):>8}" for v in (1, 2, 3, 4, 5)))
    for row in rows:
        cells = " ".join(f"{row.count(v):>8}" for v in (1, 2, 3, 4, 5))
        print(f"{row.n:>4} {row.total:>8} {cells}   ({row.wall_time:.2f}s)")

    diff = td.compare_reference(rows)
    if diff.ok:
        print("\nevery cell matches the reference table")
        return 0
    print("\ncells differing from the published reference:")
    unexpected = [line for line in diff.mismatches if line not in KNOWN_MISPRINTS]
    for line in diff.mismatches:
        print("  " + line + ("   UNEXPECTED" if line in unexpected else "   (known misprint)"))
    print("see README.md: the gamma_c=1 column equals the polygon-cone count "
          "4, 12, 27, 82, 228, 733 for orders 8..13")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
