#!/usr/bin/env python3
"""Resolve a flatprof sample file against the symbol tables of the binary and
of every shared object the process had mapped.

usage: sym.py BINARY SAMPLES [TOP]
"""
import bisect
import collections
import os
import subprocess
import sys

binary, samples_path = os.path.realpath(sys.argv[1]), sys.argv[2]
top = int(sys.argv[3]) if len(sys.argv) > 3 else 30

# An object's load base is its lowest mapping (file offset 0); it ends where
# its last mapping does.  Named non-file mappings ([vdso], [heap]) are kept
# so a sample inside one is labelled rather than lost.
spans, addresses = {}, []
for line in open(samples_path):
    kind, _, rest = line.partition(" ")
    fields = rest.split()
    if kind == "M" and len(fields) >= 6:
        low, high = (int(x, 16) for x in fields[0].split("-"))
        base, end = spans.get(fields[5], (low, high))
        spans[fields[5]] = (min(base, low), max(end, high))
    elif kind == "S":
        addresses.append(int(rest, 16))
if binary not in spans:
    sys.exit(f"{binary} is not mapped in {samples_path}")
objects = sorted((base, end, path) for path, (base, end) in spans.items())
bases = [base for base, _, _ in objects]


def symbol_table(path):
    """(starts, names) of `path`'s text symbols, as offsets from its load base.

    The binary has a full symbol table; a shared library is usually stripped
    down to its dynamic one, so only exported functions have names there.
    """
    which = ["-C"] if path == binary else ["-D"]
    nm = subprocess.run(["nm", *which, "--defined-only", "-n", path],
                        capture_output=True, text=True, check=path == binary).stdout
    symbols = [(int(value, 16), name.rstrip())
               for value, kind, name in (line.split(" ", 2) for line in nm.splitlines()
                                         if line.count(" ") >= 2)
               if kind in "tTwWiI"]
    return [start for start, _ in symbols], [name for _, name in symbols]


tables = {}
counts = collections.Counter()
for address in addresses:
    index = bisect.bisect_right(bases, address) - 1
    if index < 0 or address >= objects[index][1]:
        counts["[outside every named mapping: kernel, anonymous memory]"] += 1
        continue
    base, _, path = objects[index]
    if not path.startswith("/"):
        counts[path] += 1
        continue
    if path not in tables:
        tables[path] = symbol_table(path)
    starts, names = tables[path]
    symbol = bisect.bisect_right(starts, address - base) - 1
    name = names[symbol] if symbol >= 0 else "[unknown]"
    counts[name if path == binary else f"{os.path.basename(path)}:{name}"] += 1

print(f"{len(addresses)} samples")
for name, hits in counts.most_common(top):
    print(f"{100 * hits / len(addresses):6.2f} %  {hits:7d}  {name}")
