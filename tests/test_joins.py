"""The Upper-Bound-Lemma joins against the pairwise loops they replace.

count_critical_cells, build_delta and build_complex_K decide each pair
of cells over vertices a < b through cells.template_joins: one decision
per (degree of a, direction from a to b, y0 of the cell over b) and
template position serves every vertex of that degree.
necessary_witnesses decides each run of critical cells over a vertex
b > a with one call, and a critical cell has no witness over b < a.
The reference functions below test every pair of cells, as the package
did before the joins; both must give the same counts, the same Delta
(cells in order, edges and twin classes), the same K, the same
witnesses and the same M.  per_direction_cells is the enumeration
before the per-degree templates.
"""

import pytest

from treebraid import cells as C, delta as D, forms as F, tree as T

from conftest import CORPUS, path_tree, star_tree

TREES = CORPUS + [path_tree([5] * 4), star_tree(5, (5, 5, 5))]


def pairwise_count(t, n):
    cells = [c for c in C.enumerate_reduced_1cells(t, n) if C.is_critical(c)]
    count_2 = 0
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            c1, c2 = cells[i], cells[j]
            if c1.a == c2.a:
                continue
            if C.upper_bound_exists(c1, c2, t) and C.lub_is_critical(c1, c2, t):
                count_2 += 1
    return len(cells), count_2


def per_direction_cells(t, n):
    """The reduced 1-cells with the compositions rebuilt for every
    direction at every essential vertex."""
    out = []
    for a in T.essential_vertices(t):
        deg = t.degree(a)
        for d in range(1, deg):
            for x in C._compositions(n, deg):
                if x[d] < 1:
                    continue
                if not any(x[i] >= 1 for i in range(deg) if i not in (0, d)):
                    continue
                out.append(C.ReducedOneCell(a, d, x))
    return out


def pairwise_delta(t, n):
    # the vertices of Delta are ROrder's critical cells, in its order
    crit = F.ROrder(t, n).critical
    edges = set()
    for i in range(len(crit)):
        for j in range(i + 1, len(crit)):
            if D.m_cup_adjacent(crit[i], crit[j], t, n):
                edges.add(frozenset((i, j)))
    return crit, edges


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


def pairwise_K(t, n):
    cells = C.enumerate_reduced_1cells(t, n)
    edges = set()
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if C.upper_bound_exists(cells[i], cells[j], t):
                edges.add(frozenset((cells[i], cells[j])))
    return cells, edges


def pairwise_witnesses(c, t, n, order):
    out = []
    for c1 in order.critical:
        if c1.a == c.a or not C.upper_bound_exists(c, c1, t):
            continue
        form = F.BasicForm((c.a, c.x), (c1,))
        if F.is_necessary(form, t, n) == c:
            out.append(form)
    return out


def _subdivided(n):
    return [T.subdivide_for(T.parse_tree(s), n) for s in TREES]


@pytest.mark.parametrize("n", [4, 5])
class TestAgainstPairwise:
    def test_count(self, n):
        for t in _subdivided(n):
            assert C.count_critical_cells(t, n) == pairwise_count(t, n)

    def test_delta(self, n):
        for t in _subdivided(n):
            dg = D.build_delta(t, n)
            crit, edges = pairwise_delta(t, n)
            assert dg.cells == crit
            assert dg.num_vertices == len(crit)
            assert dg.edges == edges
            assert dg.classes == twin_classes(edges)

    def test_enumeration(self, n):
        for t in _subdivided(n):
            cells = C.enumerate_reduced_1cells(t, n)
            assert cells == per_direction_cells(t, n)
            # ROrder stamps per-degree templates; the reference sorts
            # every cell at once
            order = F.ROrder(t, n)
            assert order.cells == F.ROrder.sort(cells, n)
            assert order.critical == [c for c in order.cells
                                      if C.is_critical(c)]

    def test_witnesses_and_M(self, n, monkeypatch):
        for t in _subdivided(n):
            order = F.ROrder(t, n)
            expected = {c: pairwise_witnesses(c, t, n, order)
                        for c in order.cells}
            for c in order.cells:
                assert F.necessary_witnesses(c, t, n, order) == expected[c]
            m = F.build_M(t, n, order)
            with monkeypatch.context() as patch:
                patch.setattr(F, "necessary_witnesses",
                              lambda c, t, n, order: expected[c])
                assert F.build_M(t, n, order) == m

    def test_complex_K(self, n):
        for t in _subdivided(n):
            assert F.build_complex_K(t, n) == pairwise_K(t, n)


class TestBuckets:
    @staticmethod
    def _joins(t, n):
        return C.template_joins(t, n, lambda deg: C.degree_template(n, deg),
                                lambda c1, c2: True)

    def test_each_cross_pair_once(self):
        t = T.subdivide_for(T.parse_tree(star_tree(4, (3, 4, 5))), 5)
        cells, joins = self._joins(t, 5)
        assert cells == C.enumerate_reduced_1cells(t, 5)
        seen = [(i + p, j) for i, ps, bucket in joins
                for p in ps for j in bucket]
        assert len(seen) == len(set(seen))
        assert set(seen) == {
            (i, j) for i, c in enumerate(cells) for j, d in enumerate(cells)
            if c.a < d.a}

    def test_bucket_shares_direction_and_y0(self):
        t = T.subdivide_for(T.parse_tree(path_tree([5, 3, 4])), 4)
        cells, joins = self._joins(t, 4)
        for i, ps, bucket in joins:
            a = cells[i].a
            assert all(cells[i + p].a == a for p in ps)
            keys = {(T.direction(t, a, cells[j].a), cells[j].x[0])
                    for j in bucket}
            assert len(keys) == 1

    @staticmethod
    def _path5(k):
        return T.subdivide_for(T.parse_tree(path_tree([5] * k)), 5)

    @staticmethod
    def _count_calls(monkeypatch, t):
        calls = []
        real = C.upper_bound_exists

        def counted(c1, c2, tree):
            calls.append(1)
            return real(c1, c2, tree)

        with monkeypatch.context() as patch:
            patch.setattr(C, "upper_bound_exists", counted)
            counts = C.count_critical_cells(t, 5)
        return counts, len(calls)

    def test_count_calls_bounded(self, monkeypatch):
        # at most one call per (cell, direction, y0), against one per
        # pair of cells (692 440 on this tree) for the pairwise loop
        t = self._path5(8)
        (c1, c2), calls = self._count_calls(monkeypatch, t)
        assert (c1, c2) == (1240, 7728)
        max_degree = max(t.degree(v) for v in range(len(t)))
        assert calls <= c1 * max_degree * (5 + 1)

    def test_count_calls_independent_of_vertex_count(self, monkeypatch):
        # decisions are made per (degree, alpha, y0), not per vertex
        (_, c2_8), calls_8 = self._count_calls(monkeypatch, self._path5(8))
        (_, c2_16), calls_16 = self._count_calls(monkeypatch, self._path5(16))
        assert (c2_8, c2_16) == (7728, 33120)
        assert calls_16 <= calls_8
