#!/usr/bin/env python3
"""Fingerprint a `metasrl run` export directory, and measure its drift.

With one directory, prints the SHA-256 over its files in sorted name order,
each file contributing its name and then its bytes, then the directory and,
as the line's last field, the OpenBLAS core that numpy runs on in this
process (`blas_core`). A digest holds for one numpy build and BLAS kernel,
so run the script with the environment (OPENBLAS_CORETYPE included) that
made the export. With a second directory, prints that directory's line
too, then for every file name the largest absolute difference between the
numbers of the two versions, taken in reading order, and their `max`. A
file whose text differs apart from its numbers, or that exists on one side
only, is reported as such, and the exit code is then 1.

Example:
    metasrl run --config examples/test09.json --seed 0 --out a
    (on another checkout)   ... --out b
    python3 scripts/export_digest.py a b
"""

import argparse
import ctypes
import glob
import hashlib
import math
import os
import re
import sys

import numpy as np

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


def blas_core():
    """The name of the OpenBLAS core (kernel) that numpy's bundled library
    picked, as `scipy_openblas_get_corename64_` reports it (SkylakeX,
    Haswell, ...), or "unknown" where that library or function is missing.
    numpy's matrix products run on this kernel, and kernels round apart."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


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
    core = blas_core()
    print(f"sha256 {digest(args.dir)} {args.dir} {core}")
    if args.dir2 is None:
        return 0
    print(f"sha256 {digest(args.dir2)} {args.dir2} {core}")
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
