"""Frozen reference kernel for normalising benchmark timings.

The machine the benchmark runs on changes speed from one moment to the next
(see README.md), so every timing is scaled by how long this kernel takes
right around it. The kernel is graph-shaped pure Python -- tuple pairs,
adjacency dicts of sets, an iterative depth-first search -- like the code it
normalises, and imports nothing from the package under test.

Keep this file byte-identical: any edit changes the kernel's speed and so
re-bases every metric the benchmark has ever reported.
"""

from __future__ import annotations

import time

# Nominal kernel duration: a timing of T seconds measured while the kernel
# took K seconds is reported as T * NOMINAL_S / K.
NOMINAL_S = 0.001

_VERTICES = 320
_EDGES = 800
_ROUNDS = 2
_EXPECTED = 34


def _pairs() -> tuple[tuple[int, int], ...]:
    x = 1
    out = []
    for _ in range(_EDGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % _VERTICES
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % _VERTICES
        if u != v:
            out.append((u, v) if u < v else (v, u))
    return tuple(out)


_PAIRS = _pairs()


def kernel() -> int:
    """One fixed unit of work: build adjacency sets from the edge pairs and
    count connected components by depth-first search, ``_ROUNDS`` times.
    Returns the component count, which never changes."""
    comps = 0
    for _ in range(_ROUNDS):
        adj: dict[int, set[int]] = {}
        for u, v in _PAIRS:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        seen: set[int] = set()
        comps = 0
        for s in range(_VERTICES):
            if s in seen:
                continue
            comps += 1
            seen.add(s)
            stack = [s]
            while stack:
                y = stack.pop()
                for z in sorted(adj.get(y, ())):
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
    return comps


def kernel_seconds() -> float:
    """Wall time of one kernel run, after checking its result."""
    t0 = time.perf_counter()
    got = kernel()
    elapsed = time.perf_counter() - t0
    if got != _EXPECTED:
        raise RuntimeError(f"reference kernel returned {got}, expected {_EXPECTED}")
    return elapsed
