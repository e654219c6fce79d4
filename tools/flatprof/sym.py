#!/usr/bin/env python3
"""Resolve a flatprof sample file against a binary's symbol table.

usage: sym.py BINARY SAMPLES [TOP]
"""
import bisect
import collections
import os
import subprocess
import sys

binary, samples_path = os.path.realpath(sys.argv[1]), sys.argv[2]
top = int(sys.argv[3]) if len(sys.argv) > 3 else 30

# Load base: the lowest mapping of the binary (file offset 0), and the end of
# its last mapping; a sample outside that range is in a shared library.
base, end, addresses = None, 0, []
for line in open(samples_path):
    kind, _, rest = line.partition(" ")
    if kind == "M" and rest.split()[-1] == binary:
        low, high = (int(x, 16) for x in rest.split()[0].split("-"))
        base, end = (low if base is None else base), high
    elif kind == "S":
        addresses.append(int(rest, 16))
if base is None:
    sys.exit(f"{binary} is not mapped in {samples_path}")

# A position-independent binary's symbol values are offsets from its load base.
nm = subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                    capture_output=True, text=True, check=True).stdout
symbols = [(int(value, 16), name.rstrip())
           for value, kind, name in (line.split(" ", 2) for line in nm.splitlines())
           if kind in "tTwW"]
starts = [start for start, _ in symbols]

counts = collections.Counter()
for address in addresses:
    if not base <= address < end:
        counts["[outside the binary: libc, vdso, kernel]"] += 1
        continue
    index = bisect.bisect_right(starts, address - base) - 1
    counts[symbols[index][1] if index >= 0 else "[unknown]"] += 1

print(f"{len(addresses)} samples")
for name, hits in counts.most_common(top):
    print(f"{100 * hits / len(addresses):6.2f} %  {hits:7d}  {name}")
