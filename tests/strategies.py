"""Hypothesis strategies for small graphs and instances."""

from __future__ import annotations

import string
from itertools import combinations

from hypothesis import strategies as st

from dpcover import DPInstance, Multigraph, SignedGraph, random_matching


@st.composite
def multigraphs(draw, min_vertices=1, max_vertices=5, max_mult=3, connected=False):
    n = draw(st.integers(min_vertices, max_vertices))
    verts = tuple(string.ascii_lowercase[:n])
    pairs = list(combinations(verts, 2))
    mult = {}
    for p in pairs:
        m = draw(st.integers(0, max_mult))
        if m:
            mult[p] = m
    g = Multigraph(verts, mult)
    if connected and not g.is_connected():
        comps = g.components()
        extra = dict(g.mult)
        for a, b in zip(comps, comps[1:]):
            extra[(a[0], b[0])] = extra.get((a[0], b[0]), 0) + 1
        g = Multigraph(verts, extra)
    return g


@st.composite
def simple_graphs(draw, min_vertices=1, max_vertices=6, connected=False):
    return draw(multigraphs(min_vertices, max_vertices, max_mult=1, connected=connected))


@st.composite
def instances(draw, min_vertices=1, max_vertices=5, extra_colors=2, connected=True):
    """Instances with lists of size degree..degree+extra and seeded matchings."""
    g = draw(multigraphs(min_vertices, max_vertices, connected=connected))
    lists = {}
    for u in g.vertices:
        size = g.degree(u) + draw(st.integers(0, extra_colors))
        lists[u] = frozenset(range(1, size + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return DPInstance(g, lists, random_matching(g, lists, seed, density))


@st.composite
def signed_graphs(draw, min_vertices=1, max_vertices=5, max_mult=2, connected=True):
    g = draw(multigraphs(min_vertices, max_vertices, max_mult, connected=connected))
    signs = {}
    for p, m in g.mult.items():
        signs[p] = tuple(draw(st.sampled_from([1, -1])) for _ in range(m))
    return SignedGraph(g, signs)
