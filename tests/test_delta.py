import ast
import hashlib
import json
import random
import re
import time
import tracemalloc
from collections import defaultdict
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treebraid import cells as C, delta as D, forms as F, tree as T

import explicit as E
from conftest import (CORPUS, T_MIN, check_closed_quotient, count_hierarchies,
                      path_tree, radial_tree, star_tree, trees)


@pytest.fixture(scope="module")
def tmin4():
    t = T.subdivide_for(T.parse_tree(T_MIN), 4)
    return t, D.build_delta(t, 4)


@pytest.fixture(scope="module")
def tmin5():
    t = T.subdivide_for(T.parse_tree(T_MIN), 5)
    return t, D.build_delta(t, 5)


class TestBuild:
    def test_vertices_are_criticals(self, tmin4):
        t, dg = tmin4
        c1, c2 = C.count_critical_cells(t, 4)
        assert dg.num_vertices == c1 == 24
        assert len(dg.edges) == c2 == 6
        assert all(c is not None for c in dg.cells)

    def test_radial_is_edgeless(self):
        t = T.subdivide_for(T.parse_tree(radial_tree(4)), 4)
        dg = D.build_delta(t, 4)
        assert dg.num_vertices == 26 and not dg.edges

    def test_refuses_n_above_5(self):
        # a critical cell can have two CUB directions at n = 6
        t = T.subdivide_for(T.parse_tree(path_tree([3, 3])), 6)
        with pytest.raises(ValueError, match="n <= 5"):
            D.build_delta(t, 6)

    def test_adjacency_symmetric_irreflexive(self, tmin5):
        t, dg = tmin5
        for c in dg.cells[:15]:
            assert not D.m_cup_adjacent(c, c, t)
            for c2 in dg.cells[:15]:
                assert (D.m_cup_adjacent(c, c2, t)
                        == D.m_cup_adjacent(c2, c, t))

    def test_pair_decided_in_one_call(self, tmin5, monkeypatch):
        def refuse(*args):
            raise AssertionError("called upper_bound_exists")

        t, dg = tmin5
        pairs = list(product(dg.cells, dg.cells))
        want = [D.m_cup_adjacent(c, cp, t) for c, cp in pairs]
        assert any(want)
        monkeypatch.setattr(C, "upper_bound_exists", refuse)
        assert [D.m_cup_adjacent(c, cp, t) for c, cp in pairs] == want


class TestCupConstant:
    def test_zero_outside_range(self, tmin5):
        t, dg = tmin5
        for c in dg.cells[:10]:
            assert C.cup_constant(c, 0) == 0
            assert C.cup_constant(c, c.d + 1) == 0

    def test_type_i_is_zero(self):
        t = T.subdivide_for(T.parse_tree(path_tree([4, 3])), 5)
        cells = C.enumerate_reduced_1cells(t, 5)
        ones = [c for c in cells if C.classify_exceptional(c) == "I"]
        assert ones
        for c in ones:
            assert C.cup_constant(c, c.d) == 0


def _keys(dg):
    """The key (a, delta, k) of each vertex of dg, or (a,) when its cell
    has no CUB label."""
    return [(c.a, *C.cub_label(c)) for c in dg.cells]


class TestCubData:
    @pytest.mark.parametrize("n", [4, 5])
    def test_range_and_direction(self, n, tmin4, tmin5):
        t, dg = tmin4 if n == 4 else tmin5
        keys = _keys(dg)
        cls = {v: k for k, members in enumerate(dg.classes) for v in members}
        for i, c in enumerate(dg.cells):
            if len(keys[i]) == 1:
                assert i not in cls  # no label, no neighbor
                continue
            _, delta, k = keys[i]
            assert 2 <= k <= n - 2
            assert 0 <= delta < t.degree(c.a)
            if C.classify_exceptional(c) == "I":
                assert k == 2
            if i in cls:  # every neighbor lies in the CUB direction
                for j in dg.ns[cls[i]]:
                    for v in dg.classes[j]:
                        assert T.direction(t, c.a, dg.cells[v].a) == delta

    def test_structure_test_matches(self, tmin5):
        # the quotient join decides every pair, whether or not a
        # neighborhood is empty
        t, dg = tmin5
        keys = _keys(dg)
        _, joins = C.cub_quotient(t, 5)
        for i, c in enumerate(dg.cells):
            for j in range(i + 1, dg.num_vertices):
                assert ((keys[j] in joins.get(keys[i], ()))
                        == D.m_cup_adjacent(c, dg.cells[j], t))

    def test_equal_neighborhoods_characterized(self, tmin5):
        t, dg = tmin5
        cls = {v: k for k, members in enumerate(dg.classes) for v in members}
        keys = _keys(dg)
        for i in cls:
            for j in cls:
                assert (cls[i] == cls[j]) == (keys[i] == keys[j])

    def test_maximal_neighborhoods_extremal(self, tmin5):
        t, dg = tmin5
        keys = _keys(dg)
        for k, members in enumerate(dg.classes):
            if any(dg.ns[k] < other for other in dg.ns):
                continue
            for i in members:
                assert E.is_extremal(t, dg.cells[i].a)
                assert keys[i][2] == 5 - 2


@st.composite
def _graphs(draw):
    m = draw(st.integers(0, 12))
    pairs = [frozenset(p) for p in combinations(range(m), 2)]
    return m, draw(st.sets(st.sampled_from(pairs))) if pairs else set()


def critical_template(n, deg):
    """The critical cells of degree_template(n, deg) sorted by r_key:
    filtered, then sorted, where cells.labelled_template filters the
    sorted full template."""
    crit = filter(C.is_critical, (C.ReducedOneCell(0, d, x)
                                  for d, x in C.degree_template(n, deg)))
    return [(c.d, c.x) for c in sorted(crit, key=C.r_key)]


class TestQuotient:
    @given(trees(1, 6, 3, 7), st.sampled_from([4, 5]))
    @settings(max_examples=100, deadline=None)
    def test_closed_quotient_matches_joins(self, text, n):
        # the reference decides m_cup_adjacent through template_joins
        t = T.subdivide_for(T.parse_tree(text), n)
        crit, joins = C.template_joins(
            t, n, lambda deg: critical_template(n, deg),
            lambda c, cp: D.m_cup_adjacent(c, cp, t))
        edges = {frozenset((i + p, j)) for i, ps, bucket in joins
                 for p in ps for j in bucket}
        dg = D.build_delta(t, n)
        assert dg.cells == crit
        assert set(dg.edges) == edges
        assert C.count_critical_cells(t, n) == (len(crit), len(edges))
        check_closed_quotient(t, n, crit, edges)

    @given(_graphs())
    def test_blow_up_is_the_graph(self, graph):
        m, edges = graph
        dg = D.DeltaGraph(m, edges)
        assert set(dg.edges) == edges
        members = [v for cl in dg.classes for v in cl]
        assert sorted(members) == sorted({v for e in edges for v in e})
        assert len(members) == len(set(members))
        for cl in dg.classes:
            assert not any(frozenset(p) in edges
                           for p in combinations(cl, 2))

    @given(_graphs())
    def test_hierarchy_by_definition(self, graph):
        dg = D.DeltaGraph(*graph)
        h, ns = D.hierarchy(dg), dg.ns
        pool = range(len(ns))

        def covers(i):  # the pairwise Hasse scan
            return [j for j in pool if ns[j] < ns[i] and not any(
                ns[j] < ns[k] < ns[i] for k in pool)]

        for i in pool:
            assert h.below[i] == {j for j in pool if ns[j] <= ns[i]}
            assert h.kids[i] == covers(i)
        assert h.maximal == [i for i in pool
                             if not any(ns[i] < ns[j] for j in pool)]

    @pytest.mark.parametrize("text", [T_MIN, path_tree([3, 4, 3])])
    def test_stages_never_expand(self, text, monkeypatch):
        t = T.subdivide_for(T.parse_tree(text), 5)
        dg = D.build_delta(t, 5)

        def boom(self):
            raise AssertionError("Delta expanded after build_delta")

        # edges is a view: counting reads the quotient, iterating expands
        monkeypatch.setattr(type(dg.edges), "__iter__", boom)
        assert T.trees_homeomorphic(D.reconstruct_tree(dg, 5),
                                    T.parse_tree(text))
        assert D.detect_n(dg) == 5
        assert E.hierarchy_to_dot(dg, pruned=True, n=5).startswith("graph H")
        assert D.decide_isomorphic(dg, dg)


class TestHierarchy:
    def test_tmin4_shape(self, tmin4):
        t, dg = tmin4
        h = D.hierarchy(dg)
        # six singleton classes, three maximal (one per extremal vertex)
        assert [len(cl) for cl in h.classes] == [1] * 6
        assert len(h.maximal) == 3

    def test_descendants_contain_self(self, tmin5):
        t, dg = tmin5
        h = D.hierarchy(dg)
        for i in range(len(h.ns)):
            assert i in h.below[i]

    def test_children_are_strict(self, tmin5):
        t, dg = tmin5
        h = D.hierarchy(dg)
        for i in range(len(h.ns)):
            for j in h.kids[i]:
                assert h.ns[j] < h.ns[i]

    @pytest.mark.parametrize("text, dot, pruned, tree", [
        (T_MIN,
         'graph H {\n  p1 [label="p_1"];\n  c0 [label="[3]"];\n'
         '  c1 [label="[6]"];\n  c4 [label="[13]"];\n  c5 [label="[15]"];\n'
         '  c6 [label="[16]"];\n  c7 [label="[19]"];\n  c1 -- p1;\n'
         '  c0 -- c4;\n  c0 -- c5;\n  c0 -- c1;\n  c1 -- c6;\n  c1 -- c7;\n'
         '  c4 -- c6;\n  c5 -- c7;\n}',
         'graph H {\n  p1 [label="p_1"];\n  c1 [label="[6]"];\n'
         '  c6 [label="[16]"];\n  c7 [label="[19]"];\n  c1 -- p1;\n'
         '  c1 -- c6;\n  c1 -- c7;\n}',
         "((((()())(()()))()))"),
        (path_tree([3, 4, 3]),
         'graph H {\n  p1 [label="p_1"];\n  c0 [label="[5]"];\n'
         '  c1 [label="[9]"];\n  c4 [label="[26]"];\n  c5 [label="[45]"];\n'
         '  c1 -- p1;\n  c0 -- c4;\n  c0 -- c1;\n  c1 -- c5;\n'
         '  c4 -- c5;\n}',
         'graph H {\n  p1 [label="p_1"];\n  c1 [label="[9]"];\n'
         '  c5 [label="[45]"];\n  c1 -- p1;\n  c1 -- c5;\n}',
         "((((()())()())()))"),
    ])
    def test_pinned_outputs(self, text, dot, pruned, tree):
        dg = D.build_delta(T.subdivide_for(T.parse_tree(text), 5), 5)
        assert E.hierarchy_to_dot(dg) == dot
        assert E.hierarchy_to_dot(dg, pruned=True, n=5) == pruned
        assert T.to_text(D.reconstruct_tree(dg, 5)) == tree
        assert D.detect_n(dg) == 5


def _unrooted_code(adj):
    """Canonical code of an unrooted tree given as {node: neighbours}."""
    index = {v: i for i, v in enumerate(adj)}
    relabelled = {index[v]: [index[u] for u in adj[v]] for v in adj}
    return min(T._ahu_code(relabelled, c)
               for c in T._centroids(relabelled))


class TestPruning:
    @pytest.mark.parametrize(
        "text", [T_MIN] + [path_tree(list(d))
                           for d in product((3, 4, 5), repeat=3)])
    def test_dot_keeps_what_reconstruction_keeps(self, text):
        # the pruned H of the DOT export, p_1 included, is the tree of
        # essential vertices that reconstruct_tree grows from it
        dg = D.build_delta(T.subdivide_for(T.parse_tree(text), 5), 5)
        dot = E.hierarchy_to_dot(dg, pruned=True, n=5)
        adj = {"p1": []}
        adj.update((v, []) for v in re.findall(r"^  (c\d+) \[", dot, re.M))
        for a, b in re.findall(r"^  (\w+) -- (\w+);", dot, re.M):
            adj[a].append(b)
            adj[b].append(a)
        tr = D.reconstruct_tree(dg, 5)
        ess = E.essential_adjacency(tr)
        assert len(ess) == len(adj)
        assert _unrooted_code(ess) == _unrooted_code(adj)


class TestReconstruct:
    def test_isolated_vertices_radial(self):
        dg = D.DeltaGraph(6, set())
        tr = D.reconstruct_tree(dg, 4)
        assert E.is_radial(tr)
        a = T.essential_vertices(tr)[0]
        assert tr.degree(a) == 3

    def test_isolated_undefined(self):
        with pytest.raises(D.Undefined):
            D.reconstruct_tree(D.DeltaGraph(2, set()), 4)

    def test_random_graphs_refused_or_counted(self):
        # a tree grown from a graph that is no Delta must not be
        # returned: b1 = |V| and b2 = |E| for every tree given back
        rng = random.Random(5)
        for _ in range(200):
            m, p = rng.randint(2, 14), rng.random()
            edges = [e for e in combinations(range(m), 2) if rng.random() < p]
            for n in (4, 5):
                try:
                    tr = D.reconstruct_tree(D.DeltaGraph(m, edges), n)
                except D.Undefined:
                    continue
                assert C.count_critical_cells(T.subdivide_for(tr, n), n) \
                    == (m, len(edges))

    @pytest.mark.parametrize("degree", [65, 100])
    @pytest.mark.parametrize("n", [4, 5])
    def test_large_radial(self, degree, n, monkeypatch):
        # an edgeless Delta is decided from its size: no hierarchy
        m = C.radial_rank(n, degree)
        assert D._solve_Y(n, m) == degree
        monkeypatch.setattr(D, "hierarchy", None)
        tr = D.reconstruct_tree(D.DeltaGraph(m, set(), n=n), n)
        assert E.is_radial(tr)
        assert tr.degree(T.essential_vertices(tr)[0]) == degree
        with pytest.raises(D.Undefined):
            D.reconstruct_tree(D.DeltaGraph(m + 1, set(), n=n), n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_radial_text(self, n):
        # an edgeless Delta of Y_n(deg) vertices grows * - p_1 with
        # deg - 1 leaves
        for deg in range(3, 41):
            dg = D.DeltaGraph(C.radial_rank(n, deg), set())
            assert T.to_text(D.reconstruct_tree(dg, n)) == radial_tree(deg)

    def test_plane_embedding_pinned(self):
        # the plane trees grown, not only their homeomorphism classes:
        # every corpus class at n = 4 and 5, in corpus order
        texts = [T.to_text(D.reconstruct_tree(D.build_delta(
            T.subdivide_for(T.parse_tree(s), n), n), n))
            for s in CORPUS for n in (4, 5)]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == (
            "645ec9514a4d5b6be74a046cfe150eb5dfd003d70277116157748c8f679ebd3b")

    @pytest.mark.parametrize("text", [T_MIN, path_tree([3, 4, 3])])
    @pytest.mark.parametrize("n", [4, 5])
    def test_no_tree_text(self, text, n, monkeypatch):
        # recognition grows PlaneTrees: it neither writes nor parses text
        t = T.subdivide_for(T.parse_tree(text), n)
        dg = D.build_delta(t, n)

        def fresh():  # nothing grown yet, and n unknown
            return D.DeltaGraph(dg.num_vertices, dg.edges)

        def parse_tree(text):
            raise AssertionError("tree text parsed")

        monkeypatch.setattr(T, "parse_tree", parse_tree)
        assert T.trees_homeomorphic(D.reconstruct_tree(fresh(), n), t)
        assert D.detect_n(fresh()) == n
        assert D.decide_isomorphic(fresh(), fresh())

    def test_grow_tree_three_vertex(self):
        # the exceptional n = 5 shape: * - p_1 - x - y, padded with leaves
        for a, yb, cdeg in product(range(2, 8), repeat=3):
            assert T.to_text(D._grow_tree({"p1": ["x"], "x": ["y"]},
                                          {"p1": a, "x": yb, "y": cdeg})) \
                == "(((" + "(" + "()" * (cdeg - 1) + ")" + "()" * (yb - 2) \
                + ")" + "()" * (a - 2) + "))"

    def test_unlabelled_size_free(self):
        # 12 577 026 vertices; a label or a set per vertex would take
        # hundreds of megabytes
        m = C.radial_rank(4, 100)
        tracemalloc.start()
        try:
            dg = D.DeltaGraph(m, set(), n=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        tr = D.reconstruct_tree(dg, 4)
        assert E.is_radial(tr)
        assert tr.degree(T.essential_vertices(tr)[0]) == 100

    def test_tmin_round_trip(self, tmin4):
        t, dg = tmin4
        tr = D.reconstruct_tree(dg, 4)
        assert T.trees_homeomorphic(tr, t)
        assert all(tr.degree(v) != 2 for v in range(len(tr)))

    def test_root_choice_irrelevant(self, tmin5):
        t, dg = tmin5
        h = D.hierarchy(dg)
        codes = {T.canonical_form(D._grow_tree(*D._reconstruct(dg, 5, r)))
                 for r in h.maximal}
        assert len(codes) == 1

    def test_exceptional_linear_case(self):
        # linear trees with three essential vertices take the special
        # three-vertex branch at n = 5
        base = T.parse_tree(path_tree([3, 4, 3]))
        t = T.subdivide_for(base, 5)
        dg = D.build_delta(t, 5)
        tr = D.reconstruct_tree(dg, 5)
        assert T.trees_homeomorphic(tr, base)

    def test_grow_tree_deep(self):
        k = 1200
        children_of = {"p1": [0]}
        children_of.update((i, [i + 1]) for i in range(k - 1))
        pdeg = dict.fromkeys(list(range(k)) + ["p1"], 3)
        tr = D._grow_tree(children_of, pdeg)
        assert len(T.essential_vertices(tr)) == k + 1
        assert E.is_linear(tr)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            D.reconstruct_tree(D.DeltaGraph(6, set()), 6)


class TestDetectN:
    @pytest.mark.parametrize("text", [path_tree([3, 3, 3]),
                                      star_tree(4, (3, 4, 5)), T_MIN,
                                      path_tree([3, 5])])
    @pytest.mark.parametrize("n", [4, 5])
    def test_detects(self, text, n):
        t = T.subdivide_for(T.parse_tree(text), n)
        assert D.detect_n(D.build_delta(t, n)) == n

    def test_unknown_for_free(self):
        assert D.detect_n(D.DeltaGraph(26, set())) == "unknown"

    def test_no_tree_refused(self):
        # the path graph on three vertices is the Delta of no tree
        with pytest.raises(D.Undefined, match="n is neither 4 .* nor 5"):
            D.detect_n(D.DeltaGraph(3, [(0, 1), (1, 2)]))

    def test_refusal_kept(self, monkeypatch):
        dg = D.DeltaGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(D.Undefined) as first:
            D.detect_n(dg)
        monkeypatch.setattr(D, "_reconstruct", None)  # not tried again
        for m in (4, 5):
            with pytest.raises(D.Undefined) as again:
                D.reconstruct_tree(dg, m)
            assert str(again.value) in str(first.value)
        # a fresh exception each time: a stored one would be re-raised
        # with a longer traceback on every call
        with pytest.raises(D.Undefined) as second:
            D.detect_n(dg)
        assert str(second.value) == str(first.value)
        assert second.value is not first.value

    def test_both_grow_refused(self, tmin4, monkeypatch):
        # _grow holds the (b1, b2) check, which refuses one of the two
        # n; stub it so that a tree grows at both
        t, dg = tmin4
        anon = D.DeltaGraph(dg.num_vertices, dg.edges)
        monkeypatch.setattr(D, "_grow", lambda *args: t)
        with pytest.raises(D.Undefined, match="both n = 4 and n = 5"):
            D.detect_n(anon)


class TestDecide:
    def test_free_rank_equality(self):
        r4 = T.parse_tree(radial_tree(4))
        r5 = T.parse_tree(radial_tree(5))
        assert D.decide_isomorphic((r4, 4), (r5, 3))  # both rank 26
        assert not D.decide_isomorphic((r4, 4), (r4, 3))

    def test_free_vs_nonfree(self):
        assert not D.decide_isomorphic(
            (T.parse_tree(radial_tree(4)), 4), (T.parse_tree(T_MIN), 4))

    def test_subdivision_invariant(self):
        t = T.parse_tree(T_MIN)
        assert D.decide_isomorphic((t, 4), (T.subdivide_for(t, 9), 4))

    def test_distinct_trees(self):
        assert not D.decide_isomorphic(
            (T.parse_tree(T_MIN), 4),
            (T.parse_tree(path_tree([3, 3, 3])), 4))

    def test_delta_inputs(self, tmin5):
        t, dg = tmin5
        anon = D.DeltaGraph(dg.num_vertices, dg.edges)  # no labels, no n
        assert D.decide_isomorphic(anon, (T.parse_tree(T_MIN), 5))
        assert not D.decide_isomorphic(
            anon, (T.parse_tree(path_tree([3, 3, 3])), 5))

    def test_one_hierarchy_per_delta(self, tmin5, monkeypatch):
        t, dg = tmin5
        anon = D.DeltaGraph(dg.num_vertices, dg.edges)  # n is detected
        built = count_hierarchies(monkeypatch)
        assert D.decide_isomorphic(anon, (T.parse_tree(T_MIN), 5))
        assert built == [anon]

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_growth_per_delta(self, n, monkeypatch):
        # the ladder sequence: reconstruct, then decide against a tree
        # and against another Delta; then a Delta whose n is detected
        text, other = path_tree([3, 4, 3]), path_tree([4, 4, 3])
        dg, dg2 = (D.build_delta(T.subdivide_for(T.parse_tree(s), n), n)
                   for s in (text, other))
        grow_tree, grown = D._grow_tree, []
        reconstruct, tried = D._reconstruct, []

        def growing(*plan):  # every plan _reconstruct returned
            grown.append(tried[-1])
            return grow_tree(*plan)

        def trying(delta, m, *args):  # every growth, refused or not
            tried.append((delta, m))
            return reconstruct(delta, m, *args)

        monkeypatch.setattr(D, "_grow_tree", growing)
        monkeypatch.setattr(D, "_reconstruct", trying)
        t = D.reconstruct_tree(dg, n)
        assert D.decide_isomorphic((t, n), dg)
        assert not D.decide_isomorphic(dg, dg2)
        assert [d for d, _ in grown if d is dg] == [dg]
        anon = D.DeltaGraph(dg.num_vertices, dg.edges)
        assert D.detect_n(anon) == n
        assert D.reconstruct_tree(anon, n) is D.reconstruct_tree(anon, n)
        assert D.decide_isomorphic(anon, (T.parse_tree(text), n))
        assert [m for d, m in grown if d is anon].count(n) == 1
        # the refused m is tried once too, by the first detection
        assert sorted(m for d, m in tried if d is anon) == [4, 5]

    def test_across_n(self):
        t = T.parse_tree(T_MIN)
        assert not D.decide_isomorphic((t, 4), (t, 5))  # b1 24 against 40
        # b1 = 310 on both sides, b2 276 against 100 (|E| of the Delta)
        p55, p66 = (T.parse_tree(path_tree(d)) for d in ([5, 5], [6, 6]))
        assert not D.decide_isomorphic((p55, 5), (p66, 4))
        assert not D.decide_isomorphic(
            (p55, 5), D.build_delta(T.subdivide_for(p66, 4), 4))

    def test_across_n_equal_betti_refused(self, monkeypatch):
        # no two trees are known to share (b1, b2) across n: pretend
        a, b = (T.parse_tree(path_tree(d)) for d in ([5, 5], [6, 6]))
        dg = D.build_delta(T.subdivide_for(b, 4), 4)
        D.reconstruct_tree(dg, 4)  # grown and kept before the patch
        monkeypatch.setattr(C, "count_critical_cells", lambda t, n: (310, 7))
        with pytest.raises(ValueError, match=r"strand counts is undecided: "
                           r"\(b1, b2\) = \(310, 7\) at n = 5 and at n = 4"):
            D.decide_isomorphic((a, 5), (b, 4))
        # a Delta input, whose grown tree is read, is refused the same way
        with pytest.raises(ValueError, match=r"\(310, 7\) at n = 5"):
            D.decide_isomorphic((a, 5), dg)

    @given(trees(2, 4, 3, 6), trees(2, 4, 3, 6))
    @settings(max_examples=60, deadline=None)
    def test_across_n_by_betti(self, text4, text5):
        # two non-free groups at n = 4 and n = 5: differing (b1, b2)
        # answer False, equal ones are refused, and True is never said
        t4, t5 = T.parse_tree(text4), T.parse_tree(text5)
        same = C.count_critical_cells(t4, 4) == C.count_critical_cells(t5, 5)
        try:
            answer = D.decide_isomorphic((t4, 4), (t5, 5))
        except ValueError:
            assert same
        else:
            assert answer is False and not same

    def test_across_n_large_n_refused_fast(self, monkeypatch):
        # n is checked before b2 is read: b2's closed form at n = 10^6
        # would make about six million radial ranks
        monkeypatch.setattr(C, "count_critical_cells", None)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="requires n in"):
            D.decide_isomorphic((T.parse_tree(path_tree([6, 6])), 4),
                                (T.parse_tree(path_tree([5, 5])), 10 ** 6))
        assert time.perf_counter() - start < 1

    def test_tree_inputs_build_no_delta(self, monkeypatch):
        tmin = T.parse_tree(T_MIN)
        sub = T.subdivide_for(tmin, 9)
        r4, r5 = T.parse_tree(radial_tree(4)), T.parse_tree(radial_tree(5))

        def boom(*args):
            raise AssertionError("tree inputs are decided from the trees")

        monkeypatch.setattr(D, "build_delta", boom)
        monkeypatch.setattr(T, "subdivide_for", boom)
        monkeypatch.setattr(C, "count_critical_cells", boom)
        assert D.decide_isomorphic((tmin, 4), (sub, 4))
        assert not D.decide_isomorphic(
            (tmin, 4), (T.parse_tree(path_tree([3, 3, 3])), 4))
        assert not D.decide_isomorphic((tmin, 4), (tmin, 5))
        assert D.decide_isomorphic((r4, 4), (r5, 3))
        assert D.decide_isomorphic((r4, 6), (r4, 6))
        with pytest.raises(ValueError, match="n must be >= 2"):
            D.decide_isomorphic((tmin, 1), (tmin, 4))
        with pytest.raises(ValueError, match="requires n in"):
            D.decide_isomorphic((tmin, 6), (tmin, 6))

    def test_invariants_match_counts(self):
        # outside n in {4, 5}: free iff no critical 2-cells, and b1 = c1
        for s in CORPUS:
            t = T.parse_tree(s)
            if len(T.essential_vertices(t)) > 3:
                continue
            for n in (2, 3, 6):
                c1, c2 = C.count_critical_cells(T.subdivide_for(t, n), n)
                if c2:
                    with pytest.raises(ValueError, match="requires n in"):
                        D._invariants((t, n))
                else:
                    assert D._invariants((t, n)) == (c1, n, None)


def _expanded(dg):
    """The edges of dg expanded from its quotient into a set, as the
    edges property did before it became a view."""
    return {frozenset((u, v)) for k, members in enumerate(dg.classes)
            for j in dg.ns[k] if k < j
            for u in members for v in dg.classes[j]}


@pytest.fixture(scope="module")
def corpus_deltas():
    built = [D.build_delta(T.subdivide_for(T.parse_tree(s), n), n)
             for n in (4, 5) for s in CORPUS]
    return built + [D.DeltaGraph.from_json(dg.to_json()) for dg in built]


class TestEdgeView:
    def test_view_is_the_expanded_set(self, corpus_deltas):
        for dg in corpus_deltas:
            want, view = _expanded(dg), dg.edges
            listed = list(view)
            assert len(view) == len(listed) == len(set(listed)) == len(want)
            assert set(listed) == want
            assert bool(view) == bool(want)
            assert set(D.DeltaGraph(dg.num_vertices, view).edges) == want

    def test_edgeless(self):
        t = T.subdivide_for(T.parse_tree(radial_tree(4)), 4)
        for dg in (D.build_delta(t, 4), D.DeltaGraph(5, [])):
            assert not dg.edges and len(dg.edges) == 0
            assert list(dg.edges) == []


def _labelled_per_cell(t, n):
    """(cells, classes, ns) of build_delta as it was when every build
    labelled its critical cells with cub_label, once per (d, x)."""
    crit = C.stamp(t, n, lambda deg: critical_template(n, deg))
    _, joins = C.cub_quotient(t, n)
    labels, members = {}, defaultdict(list)
    for i, c in enumerate(crit):
        if (c.d, c.x) not in labels:
            labels[c.d, c.x] = C.cub_label(c)
        key = (c.a, *labels[c.d, c.x])
        if key in joins:
            members[key].append(i)
    cls = {key: j for j, key in enumerate(members)}
    return (crit, list(members.values()),
            [frozenset(cls[q] for q in joins[key]) for key in members])


class TestTemplateCache:
    def test_matches_per_cell_labelling(self):
        C.labelled_template.cache_clear()
        for n in (4, 5, 4):
            for s in CORPUS:
                t = T.subdivide_for(T.parse_tree(s), n)
                dg = D.build_delta(t, n)
                assert (dg.cells, dg.classes, dg.ns) \
                    == _labelled_per_cell(t, n), (s, n)

    def test_second_build_labels_nothing(self, monkeypatch):
        t = T.subdivide_for(T.parse_tree(path_tree([3, 4, 5])), 5)
        label, calls = C.cub_label, []

        def counting(c):
            calls.append(c)
            return label(c)

        monkeypatch.setattr(C, "cub_label", counting)
        C.labelled_template.cache_clear()
        first = D.build_delta(t, 5)
        assert len(calls) == C.radial_rank(5, 3) + C.radial_rank(5, 4) \
            + C.radial_rank(5, 5)  # each degree's template, once
        del calls[:]
        second = D.build_delta(t, 5)
        assert calls == []
        assert (second.cells, second.classes, second.ns) \
            == (first.cells, first.classes, first.ns)

    def test_builds_share_no_lists(self):
        t = T.subdivide_for(T.parse_tree(T_MIN), 5)
        first = D.build_delta(t, 5)
        want = ([list(members) for members in first.classes], list(first.ns),
                list(first.cells))
        for members in first.classes:
            members.append(10 ** 6)
        first.classes.append([10 ** 6 + 1])
        first.cells.append(None)
        second = D.build_delta(t, 5)
        assert (second.classes, second.ns, second.cells) == want


class TestLayers:
    def test_core_imports_only_core(self):
        # tree, cells and delta compute the answers; forms and oracle
        # only check them, and cli prints them
        for name in ("tree", "cells", "delta"):
            source = Path(D.__file__).with_name(name + ".py").read_text()
            targets = set()
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom) and node.level:
                    targets |= ({node.module.split(".")[0]} if node.module
                                else {alias.name for alias in node.names})
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [node.module] if isinstance(
                        node, ast.ImportFrom) else [a.name for a in node.names]
                    targets |= {m.split(".")[1] for m in names
                                if m.startswith("treebraid.")}
            assert targets <= {"tree", "cells"}, (name, targets)

    def test_templates_sorted_once(self, monkeypatch):
        key, calls = C.r_key, []

        def counting(c):
            calls.append(c)
            return key(c)

        monkeypatch.setattr(C, "r_key", counting)
        C.r_template.cache_clear()
        C.labelled_template.cache_clear()
        t = T.subdivide_for(T.parse_tree(path_tree([3, 4, 5])), 5)
        first = F.ROrder(t, 5)
        assert len(calls) == sum(len(C.degree_template(5, deg))
                                 for deg in (3, 4, 5))  # each degree once
        del calls[:]
        second = F.ROrder(t, 5)
        dg = D.build_delta(t, 5)
        assert calls == []
        assert second.cells == first.cells
        assert dg.cells == first.critical


class TestLabelsOnDemand:
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("text", [T_MIN, path_tree([3, 4, 5])])
    def test_queries_make_no_cells(self, text, n, even):
        built = D.build_delta(T.subdivide_for(T.parse_tree(text), n), n)
        obj = built.to_json()
        if even:  # labelled only on even ids
            for v in obj["vertices"][1::2]:
                del v["cell"]
        dg = D.DeltaGraph.from_json(json.loads(json.dumps(obj)))
        D.reconstruct_tree(dg, n)
        assert D.detect_n(dg) == n
        assert D.decide_isomorphic(dg, dg)
        assert "cells" not in dg.__dict__
        assert dg.cells == [None if even and i % 2 else c
                            for i, c in enumerate(built.cells)]

    def test_build_stamps_nothing(self, monkeypatch):
        def boom(*args):
            raise AssertionError("stamped")

        monkeypatch.setattr(C, "stamp", boom)
        for text in (T_MIN, path_tree([3, 4, 5])):
            for n in (4, 5):
                t = T.subdivide_for(T.parse_tree(text), n)
                dg = D.build_delta(t, n)
                assert (dg.num_vertices, len(dg.edges)) \
                    == C.count_critical_cells(t, n)
                assert T.trees_homeomorphic(D.reconstruct_tree(dg, n), t)
                with pytest.raises(AssertionError, match="stamped"):
                    dg.cells

    @pytest.mark.parametrize("n", [4, 5])
    def test_unsubdivided_refused_at_build(self, n):
        with pytest.raises(ValueError, match="not sufficiently subdivided"):
            D.build_delta(T.parse_tree(T_MIN), n)

    def test_given_cells_kept(self):
        c0, c1 = C.ReducedOneCell(0, 1, (0, 1, 1)), None
        dg = D.DeltaGraph(2, [(0, 1)], cells=iter([c0, c1]))
        assert dg.cells == [c0, c1]
        assert D.DeltaGraph(2, [(0, 1)]).cells is None


class TestSerialization:
    def test_json_and_dot_pinned(self):
        # the bytes of both formats, labelled and not, key order included
        h = hashlib.sha256()
        for text in (T_MIN, path_tree([3, 4, 5])):
            for n in (4, 5):
                dg = D.build_delta(T.subdivide_for(T.parse_tree(text), n), n)
                for g in (dg, D.DeltaGraph(dg.num_vertices, dg.edges)):
                    h.update(json.dumps(g.to_json()).encode())
                    h.update(g.to_dot().encode())
        assert h.hexdigest() == \
            "518c7784f3e12e53b115018c4f7b7cb4a0374c492547eb554d80b3bbe368e817"

    def test_json_round_trip(self, tmin4):
        t, dg = tmin4
        obj = json.loads(json.dumps(dg.to_json(), indent=2, sort_keys=True))
        dg2 = D.DeltaGraph.from_json(obj)
        assert set(dg2.edges) == set(dg.edges)
        assert dg2.cells == dg.cells
        assert dg2.n == 4

    def test_cells_optional(self):
        dg = D.DeltaGraph.from_json(
            {"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]})
        assert dg.cells == [None, None] and dg.n is None

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            D.DeltaGraph.from_json({"vertices": [{"id": 1}], "edges": []})
        # JSON true is no vertex id, although True == 1
        with pytest.raises(ValueError, match="vertex ids"):
            D.DeltaGraph.from_json(
                {"vertices": [{"id": 0}, {"id": True}], "edges": []})

    def test_bad_edge_rejected(self):
        # bool is an int subclass, but JSON true and false are no ids
        for edge in [(0, 5), (0, 0), (0, 1, 2), (0, 0.5), (0.0, 1.0),
                     [0, 1, 0], [1, 0, 1, 1], [True, 0], [False, 1], 5]:
            with pytest.raises(ValueError, match="bad edge"):
                D.DeltaGraph(2, [edge])
        with pytest.raises(ValueError, match="bad edge"):
            D.DeltaGraph.from_json(
                {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
                 "edges": [[True, 2], [0, 2]]})
        with pytest.raises(ValueError, match="^bad edge 5$"):
            D.DeltaGraph.from_json({"vertices": [{"id": 0}], "edges": [5]})

    @pytest.mark.parametrize("edge, message", [
        (["a", 0], "bad edge ['a', 0]"),
        ([0, [1]], "bad edge [0, [1]]"),
    ])
    def test_mixed_type_edge_named(self, edge, message):
        # endpoints that do not sort or do not hash are named as given
        with pytest.raises(ValueError) as ei:
            D.DeltaGraph(2, [edge])
        assert str(ei.value) == message

    def test_mixed_type_ids_rejected(self):
        with pytest.raises(ValueError) as ei:
            D.DeltaGraph.from_json(
                {"vertices": [{"id": "a"}, {"id": 0}], "edges": []})
        assert str(ei.value) == "vertex ids must be 0..m-1"

    @pytest.mark.parametrize("cell", [
        {"a": 3.7, "d": 1, "x": [1, 2, 1]},
        {"a": 3, "d": 1.0, "x": [1, 2, 1]},
        {"a": 3, "d": True, "x": [1, 2, 1]},
        {"a": 3, "d": 1, "x": [1, "2", True]},
        {"a": 3, "d": 1, "x": [1, 2.0, 1]},
        {"a": 3, "d": 1, "x": "121"},
        {"a": 3, "d": 1, "x": 121},
        {"a": "3", "d": 1, "x": [1, 2, 1]},
    ])
    def test_label_fields_must_be_integers(self, cell):
        # the other vertex carries a good label, so the bad one is found
        # among others
        verts = [{"id": 0, "cell": {"a": 0, "d": 1, "x": [0, 1, 1]}},
                 {"id": 1, "cell": cell}]
        with pytest.raises(ValueError, match="cell fields"):
            D.DeltaGraph.from_json({"vertices": verts, "edges": []})

    def test_bad_label_shapes_keep_their_errors(self):
        with pytest.raises(KeyError):
            D.DeltaGraph.from_json(
                {"vertices": [{"id": 0, "cell": {"a": 0, "d": 1}}],
                 "edges": []})
        with pytest.raises(TypeError):
            D.DeltaGraph.from_json(
                {"vertices": [{"id": 0, "cell": None}], "edges": []})

    @pytest.mark.parametrize("ids", [[0.0], [0, 1.0]])
    def test_float_ids_rejected(self, ids):
        # 0.0 == 0, but a JSON float is no vertex id
        with pytest.raises(ValueError, match="vertex ids"):
            D.DeltaGraph.from_json(
                {"vertices": [{"id": i} for i in ids], "edges": []})

    @pytest.mark.parametrize("n", [4.0, True, "4", [4]])
    def test_n_must_be_integer(self, n):
        with pytest.raises(ValueError, match="n must be a JSON integer"):
            D.DeltaGraph.from_json(
                {"n": n, "vertices": [{"id": 0}], "edges": []})

    def test_n_absent_or_null_is_unknown(self):
        for obj in [{}, {"n": None}]:
            obj.update(vertices=[{"id": 0}], edges=[])
            assert D.DeltaGraph.from_json(obj).n is None

    @given(st.permutations(range(6)),
           st.lists(st.booleans(), min_size=6, max_size=6))
    def test_labels_land_at_their_ids(self, order, labelled):
        cells = [C.ReducedOneCell(i, 1 + i % 2, (0, i, 1)) for i in range(6)]
        verts = [{"id": i, "cell": cells[i].to_json()} if labelled[i]
                 else {"id": i} for i in order]
        dg = D.DeltaGraph.from_json({"vertices": verts, "edges": []})
        assert dg.cells == [c if on else None
                            for c, on in zip(cells, labelled)]
        assert all(type(c) is C.ReducedOneCell
                   for c in dg.cells if c is not None)

    def test_dot_outputs(self, tmin4):
        _, dg = tmin4
        assert dg.to_dot().startswith("graph Delta {")
        assert E.hierarchy_to_dot(dg).startswith("graph H {")


# ---------------------------------------------------------------------------
# the bulk edge check against the per-edge loop


def _reference_quotient(num_vertices, edges):
    """(classes, ns) by checking each edge before grouping: DeltaGraph's
    constructor as it was before the checks went in bulk, naming an edge
    whose endpoints do not hash or do not sort as given."""

    def name(ends, pair):
        try:
            return sorted(pair if len(pair) != 2 else ends)
        except TypeError:  # endpoints that do not sort are named as given
            return ends

    nb = defaultdict(list)
    for e in edges:
        ends = list(e)  # a non-iterable edge raises TypeError
        try:
            pair = frozenset(ends)
        except TypeError:  # an endpoint that does not hash is no id
            raise ValueError("bad edge %r" % (ends,)) from None
        if len(pair) != 2 or len(ends) != 2:
            raise ValueError("bad edge %r" % (name(ends, pair),))
        i, j = ends
        if not (type(i) is int and 0 <= i < num_vertices
                and type(j) is int and 0 <= j < num_vertices):
            raise ValueError("bad edge %r" % (name(ends, pair),))
        nb[i].append(j)
        nb[j].append(i)
    by_nb = {}
    for v in sorted(nb):
        by_nb.setdefault(frozenset(nb[v]), []).append(v)
    classes = list(by_nb.values())
    cls = {v: k for k, members in enumerate(classes) for v in members}
    return classes, [frozenset(cls[v] for v in vs) for vs in by_nb]


_M = 6  # vertices of the drawn complexes
_ids = st.integers(0, _M - 1)
_pairs = st.lists(_ids, min_size=2, max_size=2, unique=True)
_odd_ids = st.one_of(st.integers(-2, -1), st.integers(_M, _M + 1),
                     st.booleans(), st.sampled_from([0.0, 1.0, 2.5]),
                     st.sampled_from(["0", "a"]))
_endpoints = st.one_of(_ids, _odd_ids)
_bad_edges = st.one_of(
    _ids.map(lambda v: [v, v]),
    st.tuples(_ids, _ids).map(lambda p: [p[0], p[1], p[0]]),
    _ids.map(lambda v: [v]),
    st.lists(_endpoints, min_size=2, max_size=2),
    st.lists(st.one_of(_endpoints, st.lists(_ids, max_size=2)),
             min_size=2, max_size=2),
    st.frozensets(_endpoints, min_size=1, max_size=3),
)


@st.composite
def _edge_lists(draw):
    """Valid pairs (as lists, tuples or frozensets), with up to two
    malformed edges put at drawn positions."""
    good = draw(st.lists(st.one_of(_pairs, _pairs.map(tuple),
                                   _pairs.map(frozenset)), max_size=10))
    for bad in draw(st.lists(_bad_edges, max_size=2)):
        good.insert(draw(st.integers(0, len(good))), bad)
    return good


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


class TestBulkEdgeCheck:
    @settings(max_examples=400)
    @given(_edge_lists(), st.booleans())
    def test_matches_per_edge_loop(self, edges, one_shot):
        want = _outcome(lambda: _reference_quotient(_M, edges))

        def build():
            dg = D.DeltaGraph(_M, iter(edges) if one_shot else edges)
            return dg.classes, dg.ns

        assert _outcome(build) == want

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1], [1, 1], [True, 2]], "bad edge [1]"),
        ([[0, 1], [True, 1]], "bad edge [True]"),
        ([[1, 2], [1.0, 3]], "bad edge [1.0, 3]"),
        ([[0, 1], [2, 0, 2]], "bad edge [0, 2, 2]"),
        ([[0, 1], [0]], "bad edge [0]"),
        ([[0, 6], [-1, 2]], "bad edge [0, 6]"),
    ])
    def test_first_bad_edge_named(self, edges, message):
        with pytest.raises(ValueError) as ei:
            D.DeltaGraph(_M, iter(edges))
        assert str(ei.value) == message
