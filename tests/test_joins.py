"""The closed CUB quotient and the Upper-Bound-Lemma joins against
pairwise loops.

count_critical_cells reads the essential degrees alone, and build_delta
reads Delta's twin quotient from the tree (cells.cub_quotient); neither
visits a pair of cells.  build_complex_K
decides each pair of cells over vertices a < b through
cells.template_joins: one decision per (degree of a, direction from a
to b, y0 of the cell over b) and template position serves every vertex
of that degree.  necessary_witnesses decides each run of critical cells
over a vertex b > a with one call, and a critical cell has no witness
over b < a.  The reference functions below test every pair of cells;
both sides must give the same counts, the same Delta (cells in order,
edges, twin classes, and the closed quotient as its twin quotient), the
same K, the same witnesses and the same M.  per_direction_cells is the
enumeration without the per-degree templates.
"""

import pytest

from treebraid import cells as C, delta as D, forms as F, tree as T

from conftest import (CORPUS, check_closed_quotient, path_tree, star_tree,
                      twin_classes)

TREES = CORPUS + [path_tree([5] * 4), star_tree(5, (5, 5, 5))]


def pairwise_count(t, n):
    cells = [c for c in C.enumerate_reduced_1cells(t, n) if C.is_critical(c)]
    count_2 = 0
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            c1, c2 = cells[i], cells[j]
            if c1.a == c2.a:
                continue
            if C.upper_bound_exists(c1, c2, t) \
                    and all(C.edge_disrespectful_in_lub(c1, c2, t)):
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
            if D.m_cup_adjacent(crit[i], crit[j], t):
                edges.add(frozenset((i, j)))
    return crit, edges


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
        if F.is_necessary(form, t) == c:
            out.append(form)
    return out


def _subdivided(n):
    return [T.subdivide_for(T.parse_tree(s), n) for s in TREES]


@pytest.mark.parametrize("n", [4, 5])
class TestAgainstPairwise:
    def test_count(self, n):
        for t in _subdivided(n):
            assert C.count_critical_cells(t, n) == pairwise_count(t, n)
        # the closed form holds at every n: n = 4 also runs n = 2 and 3,
        # n = 5 also n = 6, on the trees with at most three essential
        # vertices
        for m in {4: (2, 3), 5: (6,)}[n]:
            for s in CORPUS:
                t = T.parse_tree(s)
                if len(T.essential_vertices(t)) <= 3:
                    t = T.subdivide_for(t, m)
                    assert C.count_critical_cells(t, m) == pairwise_count(t, m)

    def test_delta(self, n):
        for t in _subdivided(n):
            dg = D.build_delta(t, n)
            crit, edges = pairwise_delta(t, n)
            assert dg.cells == crit
            assert dg.num_vertices == len(crit)
            assert set(dg.edges) == edges
            assert dg.classes == twin_classes(edges)
            check_closed_quotient(t, n, crit, edges)

    def test_enumeration(self, n):
        for t in _subdivided(n):
            cells = C.enumerate_reduced_1cells(t, n)
            assert cells == per_direction_cells(t, n)
            # ROrder stamps per-degree templates; the reference sorts
            # every cell at once
            order = F.ROrder(t, n)
            assert order.cells == sorted(cells, key=C.r_key)
            assert order.critical == [c for c in order.cells
                                      if C.is_critical(c)]

    def test_witnesses_and_M(self, n, monkeypatch):
        for t in _subdivided(n):
            order = F.ROrder(t, n)
            expected = {c: pairwise_witnesses(c, t, n, order)
                        for c in order.cells}
            for c in order.cells:
                assert F.necessary_witnesses(c, t, order) == expected[c]
            m = F.build_M(t, n, order)
            with monkeypatch.context() as patch:
                patch.setattr(F, "necessary_witnesses",
                              lambda c, t, order: expected[c])
                assert F.build_M(t, n, order) == m

    def test_complex_K(self, n):
        for t in _subdivided(n):
            cells, pairs = F.build_complex_K(t, n)
            assert all(i < j for i, j in pairs)
            assert len(set(pairs)) == len(pairs)
            edges = {frozenset((cells[i], cells[j])) for i, j in pairs}
            assert (cells, edges) == pairwise_K(t, n)


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
        """(number of vertices of K, number of edges of K), and the
        number of upper_bound_exists calls build_complex_K made."""
        calls = []
        real = C.upper_bound_exists

        def counted(c1, c2, tree):
            calls.append(1)
            return real(c1, c2, tree)

        with monkeypatch.context() as patch:
            patch.setattr(C, "upper_bound_exists", counted)
            cells, edges = F.build_complex_K(t, 5)
        return (len(cells), len(edges)), len(calls)

    def test_count_calls_bounded(self, monkeypatch):
        # at most one call per (cell, direction, y0), against one per
        # pair of cells (2 162 160 on this tree) for the pairwise loop
        t = self._path5(8)
        (cells, edges), calls = self._count_calls(monkeypatch, t)
        assert (cells, edges) == (2080, 43680)
        max_degree = max(t.degree(v) for v in range(len(t)))
        assert calls <= cells * max_degree * (5 + 1)

    def test_count_calls_independent_of_vertex_count(self, monkeypatch):
        # decisions are made per (degree, alpha, y0), not per vertex
        (_, edges_8), calls_8 = self._count_calls(monkeypatch, self._path5(8))
        (_, edges_16), calls_16 = self._count_calls(monkeypatch,
                                                    self._path5(16))
        assert (edges_8, edges_16) == (43680, 187200)
        assert calls_16 <= calls_8

    def test_count_and_delta_visit_no_pair(self, monkeypatch):
        # both read the closed quotient: no pair of cells is decided
        def boom(*args):
            raise AssertionError("a pair of cells was decided")

        for module, name in ((C, "template_joins"), (C, "upper_bound_exists"),
                             (D, "m_cup_adjacent")):
            monkeypatch.setattr(module, name, boom)
        t = self._path5(8)
        assert C.count_critical_cells(t, 5) == (1240, 7728)
        assert len(D.build_delta(t, 5).edges) == 7728
