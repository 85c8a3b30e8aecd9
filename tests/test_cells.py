import json
import tracemalloc
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from treebraid import cells as C, delta as D, oracle as O, tree as T

import explicit as E
from conftest import T_MIN, path_tree, radial_tree, trees


def _cells_of(text, n):
    t = T.subdivide_for(T.parse_tree(text), n)
    return t, C.enumerate_reduced_1cells(t, n)


class TestEnumeration:
    def test_radial3_n4_counts(self):
        t, cells = _cells_of(radial_tree(3), 4)
        assert len(cells) == 12
        per_dir = {d: sum(1 for c in cells if c.d == d) for d in (1, 2)}
        assert per_dir == {1: 6, 2: 6}

    def test_tmin_n4_count(self):
        t, cells = _cells_of(T_MIN, 4)
        assert len(cells) == 48

    def test_all_valid_nonextraneous(self, corpus):
        for s in corpus[:20]:
            t, cells = _cells_of(s, 4)
            for c in cells:
                assert C.is_valid_reduced(c, t)
                # the x-vector counts the edge (in direction d) and all
                # n-1 vertices
                assert sum(c.x) == 4
                assert c.x[c.d] >= 1
                assert any(c.x[i] >= 1 for i in range(len(c.x))
                           if i not in (0, c.d))

    def test_critical_characterization(self):
        t, cells = _cells_of(T_MIN, 5)
        for c in cells:
            assert C.is_critical(c) == any(
                c.x[i] >= 1 for i in range(1, c.d))

    def test_json_round_trip(self):
        # labels are read back where a Delta file is read
        t, cells = _cells_of(T_MIN, 4)
        obj = {"vertices": [{"id": i, "cell": c.to_json()}
                            for i, c in enumerate(cells)], "edges": []}
        back = D.DeltaGraph.from_json(json.loads(json.dumps(obj))).cells
        assert back == cells
        assert {type(c) for c in back} == {C.ReducedOneCell}


class TestExplicit:
    @pytest.mark.parametrize("text,n", [(radial_tree(4), 4), (T_MIN, 4),
                                        (path_tree([3, 4]), 5)])
    def test_round_trip(self, text, n):
        t, cells = _cells_of(text, n)
        for c in cells:
            ex = E.to_explicit(c, t, n)
            assert len(ex.vertices) == n - 1
            assert len(ex.edges) == 1
            assert E.from_explicit(ex, t) == c

    def test_explicit_cells_distinct(self):
        t, cells = _cells_of(T_MIN, 4)
        assert len({E.to_explicit(c, t, 4) for c in cells}) == len(cells)


class TestUpperBounds:
    def test_symmetric(self):
        t, cells = _cells_of(path_tree([3, 3]), 4)
        for c1 in cells:
            for c2 in cells:
                assert (C.upper_bound_exists(c1, c2, t)
                        == C.upper_bound_exists(c2, c1, t))

    def test_same_vertex_never_bounded(self):
        t, cells = _cells_of(T_MIN, 4)
        for c1 in cells:
            for c2 in cells:
                if c1.a == c2.a:
                    assert not C.upper_bound_exists(c1, c2, t)

    @pytest.mark.parametrize("text,n", [(path_tree([3, 4]), 4),
                                        (path_tree([4, 3]), 4), (T_MIN, 5)])
    def test_none_iff_no_upper_bound(self, text, n):
        # the lemma written out: with a <= b and alpha the direction from
        # a to b, x[alpha] + y0 >= n + [d == alpha]
        t, cells = _cells_of(text, n)
        for c1, c2 in product(cells, cells):
            a, b = sorted((c1, c2), key=lambda c: c.a)
            alpha = T.direction(t, a.a, b.a)
            bounded = (a.a != b.a
                       and a.x[alpha] + b.x[0] >= n + (a.d == alpha))
            flags = C.edge_disrespectful_in_lub(c1, c2, t)
            assert (flags is not None) == bounded
            assert C.upper_bound_exists(c1, c2, t) == bounded
            if bounded:
                assert C.edge_disrespectful_in_lub(c2, c1, t) == flags[::-1]

    def test_lub_contains_both_edges(self):
        n = 4
        t, cells = _cells_of(path_tree([3, 3]), n)
        for c1 in cells:
            for c2 in cells:
                if c1.a >= c2.a or not C.upper_bound_exists(c1, c2, t):
                    continue
                s = E.lub_reduced(c1, c2, t, n)
                assert len(s.edges) == 2
                for c in (c1, c2):
                    assert t.children[c.a][c.d - 1] in s.edges

    def test_lub_critical_iff_both_disrespectful(self):
        # an edge e of the explicit least upper bound is disrespectful
        # iff an occupied vertex is a child of tau(e) in a direction
        # between 0 and e's; the first vertex of path [4, 3] has such a
        # direction besides the one toward the second
        n = 4
        for degs in ([3, 4], [4, 3]):
            t, cells = _cells_of(path_tree(degs), n)
            for c1, c2 in product(cells, cells):
                if c1.a >= c2.a or not C.upper_bound_exists(c1, c2, t):
                    continue
                s = E.lub_reduced(c1, c2, t, n)
                flags = tuple(
                    any(t.parent[v] == t.parent[e] and v < e
                        for v in s.vertices)
                    for e in (t.children[c.a][c.d - 1] for c in (c1, c2)))
                assert C.edge_disrespectful_in_lub(c1, c2, t) == flags

    def test_larger_cell_flag_is_criticality(self):
        # the disrespect flag of the <-larger cell equals its own
        # criticality (its edge's local picture is unchanged in the lub)
        n = 4
        t, cells = _cells_of(path_tree([3, 4]), n)
        for c1 in cells:
            for c2 in cells:
                if c1.a >= c2.a or not C.upper_bound_exists(c1, c2, t):
                    continue
                _, f2 = C.edge_disrespectful_in_lub(c1, c2, t)
                assert f2 == C.is_critical(c2)


class TestCounting:
    @pytest.mark.parametrize("deg", [3, 4, 5])
    @pytest.mark.parametrize("n", [4, 5])
    def test_radial_matches_formula(self, deg, n):
        t = T.subdivide_for(T.parse_tree(radial_tree(deg)), n)
        c1, c2 = C.count_critical_cells(t, n)
        assert c1 == C.radial_rank(n, deg)
        assert c1 == sum(C.is_critical(C.ReducedOneCell(0, d, x))
                         for d, x in C.degree_template(n, deg))
        assert c2 == 0

    def test_counts_sum_over_vertices(self, corpus):
        for s in corpus[:15]:
            base = T.parse_tree(s)
            for n in (4, 5):
                t = T.subdivide_for(base, n)
                c1, _ = C.count_critical_cells(t, n)
                assert c1 == sum(
                    C.radial_rank(n, t.degree(a))
                    for a in T.essential_vertices(t))
                assert c1 == sum(map(C.is_critical,
                                     C.enumerate_reduced_1cells(t, n)))

    @given(trees(1, 4, 3, 6), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_any_tree(self, text, n):
        # subdivision keeps degrees and directions, so a tree and its
        # subdivision for n strands have the same counts
        t = T.parse_tree(text)
        assert C.count_critical_cells(t, n) \
            == C.count_critical_cells(T.subdivide_for(t, n), n)

    @given(trees(1, 6, 3, 8), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_is_the_quotient_walk(self, text, n):
        # the reference sums the products of the key sizes over the joins
        # of the CUB quotient, which list each pair of keys from both ends
        t = T.parse_tree(text)
        sizes, joins = C.cub_quotient(t, n)
        want = (sum(C.radial_rank(n, t.degree(a))
                    for a in T.essential_vertices(t)),
                sum(sizes[p] * sizes[q] for p in joins for q in joins[p]) // 2)
        assert C.count_critical_cells(t, n) == want
        if sum(O.swiatkowski_sizes(t, n)) <= O.SWIATKOWSKI_BUDGET:
            assert O.swiatkowski_betti(t, n) == (1, *want)

    def test_count_memory_flat_in_n(self):
        # the CUB quotient of T_MIN at n = 300 holds about 41 MB of joins
        t = T.parse_tree(T_MIN)
        tracemalloc.start()
        try:
            C.count_critical_cells(t, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_radial_rank_closed_form_is_the_sum(self):
        # the sum over directions the closed form replaces
        for n in range(1, 12):
            for x in range(3, 60):
                assert C.radial_rank(n, x) == sum(
                    comb(n + x - 2, n - 1) - comb(n + x - i - 1, n - 1)
                    for i in range(2, x)), (n, x)
        for n, x in ((0, 3), (4, 2)):
            with pytest.raises(ValueError, match="radial_rank requires"):
                C.radial_rank(n, x)

    @given(st.integers(2, 7), st.integers(3, 9))
    @settings(max_examples=40)
    def test_radial_rank_positive_monotone(self, n, x):
        assert C.radial_rank(n, x) >= 1
        assert C.radial_rank(n, x + 1) > C.radial_rank(n, x)
