"""Shared fixtures: the tree corpus and small named trees.

The corpus contains one plane-tree string per homeomorphism type of tree
with at most 4 essential vertices, every essential degree between 3 and
5.  Shapes: radial (1 essential), one edge (2), path (3 and 4), and the
3-star (4).  Degree assignments are enumerated up to the symmetry of the
shape and deduplicated by canonical form.
"""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import strategies as st

from treebraid import cells as C, delta as D, tree as T

DEGREES = (3, 4, 5)

T_MIN = "((()((()())(()()))))"


def radial_tree(degree):
    return "((" + "()" * (degree - 1) + "))"


def path_tree(degs):
    """Linear tree whose essential vertices along the path have the
    given degrees; basepoint at a leaf of the first."""

    def emit(i):
        if i == len(degs) - 1:
            return "(" + "()" * (degs[i] - 1) + ")"
        return "(" + emit(i + 1) + "()" * (degs[i] - 2) + ")"

    return "(" + emit(0) + ")"


def star_tree(center_deg, outer_degs):
    """3-star: a central essential vertex adjacent to three essential
    vertices; basepoint at a leaf of the first outer vertex."""
    o1, o2, o3 = outer_degs
    arm = lambda d: "(" + "()" * (d - 1) + ")"
    center = ("(" + arm(o2) + arm(o3) + "()" * (center_deg - 3) + ")")
    return "(" + "(" + center + "()" * (o1 - 2) + ")" + ")"


def caterpillar(k):
    """Path of k degree-3 vertices, nested k deep, each carrying a leaf
    (the last one two).  Built as a string: a recursive builder would
    itself exceed the default recursion limit at the depths used."""
    return "(" + "(" * (k - 1) + "(()())" + "())" * (k - 1) + ")"


@st.composite
def trees(draw, min_essential, max_essential, min_degree, max_degree):
    """Plane trees with min_essential to max_essential essential vertices
    of degrees min_degree to max_degree: each vertex after the first
    takes a leaf slot of an earlier one."""
    degs = draw(st.lists(st.integers(min_degree, max_degree),
                         min_size=min_essential, max_size=max_essential))
    kids = [[None] * (d - 1) for d in degs]  # None is a leaf
    for v in range(1, len(degs)):
        p, i = draw(st.sampled_from([(p, i) for p in range(v)
                                     for i, u in enumerate(kids[p])
                                     if u is None]))
        kids[p][i] = v

    def emit(v):
        return "(" + "".join("()" if u is None else emit(u)
                             for u in kids[v]) + ")"

    return "(" + emit(0) + ")"


def count_hierarchies(monkeypatch):
    """The list of Deltas each Hierarchy is built for, from now on."""
    built = []
    init = D.Hierarchy.__init__

    def counting(self, delta):
        built.append(delta)
        init(self, delta)

    monkeypatch.setattr(D.Hierarchy, "__init__", counting)
    return built


def twin_classes(edges):
    """The groups of vertices with equal nonempty neighborhoods, sorted,
    ordered by least member."""
    nb = {}
    for e in edges:
        i, j = e
        nb.setdefault(i, set()).add(j)
        nb.setdefault(j, set()).add(i)
    groups = {}
    for v in sorted(nb):
        groups.setdefault(frozenset(nb[v]), []).append(v)
    return sorted(groups.values())


def check_closed_quotient(t, n, cells, edges):
    """Assert that cells.cub_quotient(t, n) is the twin quotient of the
    graph with vertices 0..len(cells)-1, vertex i labelled cells[i], and
    these index-pair edges: the cells whose delta.cub_label names one key
    are one twin class, as many as the key's size; the class edges are
    the key joins; and the other b_1 - (sum of sizes) cells are
    isolated."""
    sizes, joins = C.cub_quotient(t, n)
    classes = {}
    for i, c in enumerate(cells):
        key = (c.a, *D.cub_label(c))
        if key in sizes:
            classes.setdefault(key, []).append(i)
    assert {key: len(members) for key, members in classes.items()} == sizes
    assert sorted(classes.values()) == twin_classes(edges)
    key_of = {i: key for key, members in classes.items() for i in members}
    assert ({frozenset(key_of[i] for i in e) for e in edges}
            == {frozenset((p, q)) for p in joins for q in joins[p]})
    isolated = len(cells) - len({i for e in edges for i in e})
    assert isolated == len(cells) - sum(sizes.values())


def build_corpus():
    out = {}

    def add(text):
        t = T.parse_tree(text)
        out.setdefault(T.canonical_form(t), text)

    for d in DEGREES:
        add(radial_tree(d))
    for d1, d2 in combinations_with_replacement(DEGREES, 2):
        add(path_tree([d1, d2]))
    for mid in DEGREES:
        for d1, d2 in combinations_with_replacement(DEGREES, 2):
            add(path_tree([d1, mid, d2]))
    for degs in product(DEGREES, repeat=4):
        add(path_tree(list(degs)))
    for c in DEGREES:
        for outer in combinations_with_replacement(DEGREES, 3):
            add(star_tree(c, outer))
    return sorted(out.values())


CORPUS = build_corpus()


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture(scope="session")
def tmin():
    return T.parse_tree(T_MIN)
