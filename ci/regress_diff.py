#!/usr/bin/env python3
"""regress_diff — compare two `regress` reports on their deterministic fields.

Two runs of the same suite with the same flags must produce the same
floorplans, whatever the thread count or build: every leg of every scenario
must agree on the fields `ci/serve_smoke.py` checks for served == inline
parity (legality, temperatures, wirelength, reward, work). Timing fields are
ignored. Exits 1 on any difference, 0 when every leg matches.

Usage:
  regress_diff.py A.json B.json
"""

import argparse
import json
import sys

from serve_smoke import DETERMINISTIC_LEG_FIELDS

LEGS = ("sa", "rl")


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        return {row["name"]: row for row in json.load(f)["scenarios"]}


def diff_reports(a_rows, b_rows):
    """Returns (error strings, number of legs compared)."""
    errors = []
    legs = 0
    for name in sorted(a_rows.keys() ^ b_rows.keys()):
        errors.append(f"{name}: present in one report only")
    for name in sorted(a_rows.keys() & b_rows.keys()):
        a, b = a_rows[name], b_rows[name]
        if a.get("error") != b.get("error"):
            errors.append(f"{name}: error {a.get('error')!r} vs "
                          f"{b.get('error')!r}")
        for leg in LEGS:
            a_leg, b_leg = a.get(leg), b.get(leg)
            if (a_leg is None) != (b_leg is None):
                errors.append(f"{name}.{leg}: present in one report only")
                continue
            if a_leg is None:
                continue
            legs += 1
            for field in DETERMINISTIC_LEG_FIELDS:
                if a_leg.get(field) != b_leg.get(field):
                    errors.append(f"{name}.{leg}.{field}: "
                                  f"{a_leg.get(field)!r} vs "
                                  f"{b_leg.get(field)!r}")
    return errors, legs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a", help="first regress report (JSON)")
    parser.add_argument("b", help="second regress report (JSON)")
    args = parser.parse_args()

    errors, legs = diff_reports(load_rows(args.a), load_rows(args.b))
    if errors:
        for error in errors:
            print(f"[regress_diff] {error}", file=sys.stderr)
        print(f"[regress_diff] {len(errors)} difference(s) over {legs} legs",
              file=sys.stderr)
        return 1
    print(f"[regress_diff] all {legs} legs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
