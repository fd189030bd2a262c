#!/usr/bin/env python3
"""Fingerprint a `metasrl run` export directory, and measure its drift.

With one directory, prints the SHA-256 over its files in sorted name order,
each file contributing its name and then its bytes. With a second
directory, prints that directory's digest too, then for every file name the
largest absolute difference between the numbers of the two versions, taken
in reading order. A file whose text differs apart from its numbers, or
that exists on one side only, is reported as such, and the exit code is
then 1.

Example:
    metasrl run --config examples/test09.json --seed 0 --out a
    (on another checkout)   ... --out b
    python3 scripts/export_digest.py a b
"""

import argparse
import hashlib
import math
import os
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)",
                    re.IGNORECASE)


def digest(directory):
    """SHA-256 hex digest over sorted file names and their bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _split(text):
    """(text with every number replaced by '#', the numbers as floats)."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def number_drift(text_a, text_b):
    """Largest |a - b| over the numbers of two texts, paired in reading
    order; None when the texts differ apart from their numbers."""
    skeleton_a, nums_a = _split(text_a)
    skeleton_b, nums_b = _split(text_b)
    if skeleton_a != skeleton_b:
        return None
    drift = 0.0
    for a, b in zip(nums_a, nums_b):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            drift = max(drift, abs(a - b))
    return drift


def drift_report(dir_a, dir_b):
    """{file name: largest number drift, None if the text differs, or
    'missing' if the file exists in one directory only}."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    report = {}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            report[name] = "missing"
            continue
        with open(os.path.join(dir_a, name)) as fa, \
                open(os.path.join(dir_b, name)) as fb:
            report[name] = number_drift(fa.read(), fb.read())
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir")
    parser.add_argument("dir2", nargs="?")
    args = parser.parse_args(argv)
    print(f"sha256 {digest(args.dir)} {args.dir}")
    if args.dir2 is None:
        return 0
    print(f"sha256 {digest(args.dir2)} {args.dir2}")
    report = drift_report(args.dir, args.dir2)
    width = max(len(name) for name in report)
    for name, drift in report.items():
        if isinstance(drift, float):
            drift = f"{drift:.3g}"
        print(f"{name:<{width}}  {'text differs' if drift is None else drift}")
    numeric = [d for d in report.values() if isinstance(d, float)]
    print(f"{'max':<{width}}  {max(numeric, default=0.0):.3g}")
    return 0 if len(numeric) == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
