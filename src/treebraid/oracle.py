"""
Brute-force construction of the discretized configuration space UD_nT
and its Z/2 homology.

This is deliberately independent of the Morse-theoretic modules: cells
are enumerated directly as sets of n pairwise-disjoint closed vertices
and edges of a subdivided tree, each held as an int key, boundary
matrices are assembled from the face maps (replace each edge by either
endpoint), and Betti numbers come from GF(2) elimination on int-bitmask
columns.  A cell is decoded into an ExplicitCell only where it is read
as one.  Used to validate the critical-cell counts and the d = delta
identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb
from typing import NamedTuple

from . import tree as _tree


class BudgetExceeded(RuntimeError):
    def __init__(self, estimate, budget):
        super().__init__(
            "estimated %d cells exceeds budget %d" % (estimate, budget))
        self.estimate = estimate
        self.budget = budget


class CubeComplex:
    """Cells of UD_nT by dimension, with face maps.

    A cell is an int key: bit 2v marks an occupied vertex v and bit
    2e+1 an occupied edge e.  keys[k] lists the dimension-k cells, and
    faces[k][i] the 2k codim-1 face indices of cell i (faces[0] is
    None).  cells_by_dim[k] shows keys[k] as a read-only sequence of
    ExplicitCell, each decoded when it is read.  Boundary columns are
    int bitmasks of face indices.
    """

    def __init__(self, t, keys, faces):
        self.tree = t
        self.keys = keys
        self.faces = faces
        self.cells_by_dim = [CellView(ks) for ks in keys]

    def boundary_columns(self, k):
        """Mod-2 boundary columns of the dimension-k cells, made one at
        a time, as int bitmasks of face indices (faces appearing an even
        number of times cancel)."""
        return map(_column, self.faces[k])


class ExplicitCell(NamedTuple):
    """A cell of UD_nT: its occupied vertices and its occupied edges,
    each edge named by its endpoint farther from * (see tree.py)."""

    vertices: frozenset
    edges: frozenset


def decode_cell(key):
    """The ExplicitCell whose int key is key (see CubeComplex)."""
    vertices, edges = [], []
    while key:
        low = key & -key
        bit = low.bit_length() - 1
        (edges if bit & 1 else vertices).append(bit >> 1)
        key ^= low
    return ExplicitCell(frozenset(vertices), frozenset(edges))


class CellView(Sequence):
    """The cells of a list of int keys as a read-only sequence of
    ExplicitCell.  len reads no key; indexing and iteration decode."""

    __slots__ = ("keys",)

    def __init__(self, keys):
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i):
        return decode_cell(self.keys[i])

    def __iter__(self):
        return map(decode_cell, self.keys)


def _column(row):
    col = 0
    for f in row:
        col ^= 1 << f
    return col


def subdivide_exact(t, n):
    """Minimal subdivision sufficient for n strands (Abrams' condition:
    every essential path has >= n-1 edges).  The oracle needs only this,
    not the Morse modules' n+2."""
    if _tree.is_sufficiently_subdivided(t, n):
        return t
    return _tree._subdivide(t, n - 1)


def _estimate_cells(t, n, max_dim):
    V = len(t)
    E = V - 1
    return sum(
        comb(E, k) * comb(max(V - 2 * k, 0), n - k)
        for k in range(0, min(max_dim, n) + 1))


def build_complex(t, n, max_dim=3, budget=5_000_000):
    """Enumerate all cells of UD_nT up to dimension max_dim.

    t must be sufficiently subdivided for n strands.  The cells of
    dimension k come in blocks, one per set of k edges with pairwise
    disjoint closures, in the order of combinations of the edges; a
    block's cells place the other n - k strands on its free vertices in
    the order of their combinations.  The face that moves edge e of a
    cell to its endpoint u has key key - (2 << 2e) + (1 << 2u); each
    cell lists these for e in the block's frozenset of edges and u in
    (e, parent[e]), looked up in a key -> index dict of the dimension
    below.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not _tree.is_sufficiently_subdivided(t, n):
        raise ValueError("tree is not sufficiently subdivided for n strands")
    est = _estimate_cells(t, n, max_dim)
    if est > budget:
        raise BudgetExceeded(est, budget)
    parent = t.parent
    top = min(max_dim, n)
    keys = []
    faces = [None]
    lower = None  # key -> index of the cells one dimension down
    for k in range(top + 1):
        cells = []
        rows = []
        for esub in combinations(t.edges(), k):
            closure = {*esub, *(parent[e] for e in esub)}
            if len(closure) < 2 * k:
                continue
            free = [1 << 2 * v for v in range(len(t)) if v not in closure]
            ekey = sum(2 << 2 * e for e in esub)
            block = list(map(ekey.__add__,
                             map(sum, combinations(free, n - k))))
            cells += block
            if k:
                rows += map(list, zip(*[
                    map(lower.__getitem__,
                        map(((1 << 2 * u) - (2 << 2 * e)).__add__, block))
                    for e in frozenset(esub) for u in (e, parent[e])]))
        keys.append(cells)
        if k:
            faces.append(rows)
        if k < top:
            lower = dict(zip(cells, range(len(cells))))
    return CubeComplex(t, keys, faces)


def _rank_gf2(columns):
    """Rank of a GF(2) matrix given as int-bitmask columns (bit i is row
    i), by persistence-style column reduction.  Columns are taken one at
    a time and only the pivots are kept."""
    pivots = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            col ^= piv
    return len(pivots)


def _rank_incidence(t_complex):
    """Rank of d_1 (2 entries per column): #0-cells minus #components of
    the 1-skeleton, via union-find."""
    n0 = len(t_complex.keys[0])
    parent = list(range(n0))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for row in t_complex.faces[1]:
        a, b = find(row[0]), find(row[1])
        if a != b:
            parent[a] = b
            merges += 1
    return merges, n0 - merges  # (rank d_1, #components)


def betti(complex_):
    """(b_0, b_1, b_2) over GF(2).

    Requires the complex built through dimension min(3, n) so that the
    image of d_3 is available for b_2 (d_3 is zero when absent).
    """
    dims = list(map(len, complex_.keys))
    if len(dims) < 2:
        return (1 if dims[0] else 0), 0, 0
    rank1, components = _rank_incidence(complex_)
    rank2 = _rank_gf2(complex_.boundary_columns(2)) if len(dims) > 2 else 0
    rank3 = _rank_gf2(complex_.boundary_columns(3)) if len(dims) > 3 else 0
    b0 = components
    b1 = dims[1] - rank1 - rank2
    b2 = (dims[2] - rank2 - rank3) if len(dims) > 2 else 0
    return b0, b1, b2


def verify_morse_counts(t, n, budget=5_000_000):
    """Compare oracle Betti numbers against the Morse-theoretic critical
    cell counts.  Returns a JSON-ready report dict; on budget overflow
    the report says skipped."""
    from . import cells as _cells

    t_oracle = subdivide_exact(t, n)
    t_morse = _tree.subdivide_for(t, n)
    c1, c2 = _cells.count_critical_cells(t_morse, n)
    report = {
        "tree": _tree.to_text(t),
        "n": n,
        "morse": [c1, c2],
    }
    try:
        cx = build_complex(t_oracle, n, max_dim=3, budget=budget)
    except BudgetExceeded as exc:
        report["skipped"] = str(exc)
        report["pass"] = None
        return report
    b0, b1, b2 = betti(cx)
    report["b"] = [b0, b1, b2]
    report["cells"] = list(map(len, cx.keys))
    report["pass"] = (b0 == 1 and b1 == c1 and b2 == c2)
    return report


def verify_d_equals_delta(t, n, forms_sample, rng=None):
    """Check d(omega) = delta(omega) for sampled basic forms.

    t is the base (unsubdivided) tree; the complex is built on the
    n+2-subdivided tree so that form and complex vertices agree.
    forms_sample is the number of basic 1-forms to sample (all basic
    0-forms over essential vertices are always checked); a negative
    one raises ValueError.  Returns a report dict; on budget overflow
    the report says skipped.
    """
    import random

    from . import cells as _cells
    from . import forms as _forms

    if forms_sample < 0:
        raise ValueError("forms sample must be >= 0, got %d" % forms_sample)
    rng = rng or random.Random(0)
    ts = _tree.subdivide_for(t, n)
    try:
        cx = build_complex(ts, n, max_dim=2)
    except BudgetExceeded as exc:
        return {"tree": _tree.to_text(t), "n": n, "skipped": str(exc),
                "pass": None}
    index = _forms.OracleIndex(ts, cx)
    all_cells = _cells.enumerate_reduced_1cells(ts, n)
    checked = 0
    failures = []

    def check(form):
        nonlocal checked
        ok = _forms.coboundary_oracle_check(form, ts, cx, index)
        checked += 1
        if not ok:
            failures.append(form)

    for form in _forms.basic_0forms(all_cells):
        check(form)
    pairs = [
        (c, c1) for c in all_cells for c1 in all_cells if c.a != c1.a]
    rng.shuffle(pairs)
    for c, c1 in pairs[:forms_sample]:
        check(_forms.BasicForm((c.a, c.x), (c1,)))
    return {
        "tree": _tree.to_text(t),
        "n": n,
        "checked": checked,
        "pass": not failures,
        "failures": [str(f) for f in failures[:5]],
    }
