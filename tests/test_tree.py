import pytest
from hypothesis import given, strategies as st

from treebraid import tree as T

import explicit as E
from conftest import T_MIN, caterpillar, path_tree, radial_tree, star_tree


# random plane trees with at most 3 children per vertex, under the
# basepoint; a leaf is "()", so an inner vertex has 1 to 3 children.
# The median tree drawn has about 9 vertices; a tenth have 25 or more.
def _tree_strategy():
    node = st.recursive(
        st.just("()"),
        lambda node: st.lists(node, min_size=1, max_size=3).map(
            lambda kids: "(" + "".join(kids) + ")"),
        max_leaves=300)
    return node.map(lambda body: "(" + body + ")")


class TestParse:
    def test_smallest(self):
        t = T.parse_tree("(())")
        assert len(t) == 2
        assert t.parent[0] is None
        assert t.degree(0) == 1

    def test_three_vertex_path(self):
        assert len(T.parse_tree("((()))")) == 3

    def test_whitespace_ignored(self):
        assert T.parse_tree(" ( ( ) ) ") == T.parse_tree("(())")

    def test_tmin_shape(self):
        t = T.parse_tree(T_MIN)
        ess = T.essential_vertices(t)
        assert len(ess) == 4
        assert all(t.degree(v) == 3 for v in ess)

    @pytest.mark.parametrize("bad", ["", "()(", "(()", "))", "(a)",
                                     "(()())(())", "(()())"])
    def test_rejects(self, bad):
        # the last case: basepoint must have exactly one child
        with pytest.raises(ValueError):
            T.parse_tree(bad)

    def test_error_position(self):
        with pytest.raises(T.TreeSyntaxError) as ei:
            T.parse_tree("(()x)")
        assert ei.value.position == 3

    @given(_tree_strategy())
    def test_round_trip(self, text):
        t = T.parse_tree(text)
        assert T.to_text(t) == text.replace(" ", "")
        assert T.parse_tree(T.to_text(t)) == t

    @given(_tree_strategy())
    def test_preorder_ids(self, text):
        t = T.parse_tree(text)
        for v in range(len(t)):
            for c in t.children[v]:
                assert c > v
                assert t.parent[c] == v


class TestDirections:
    def test_self_is_zero(self):
        t = T.parse_tree(T_MIN)
        assert all(T.direction(t, v, v) == 0 for v in range(len(t)))

    def test_toward_basepoint_is_zero(self):
        t = T.parse_tree(T_MIN)
        for v in range(1, len(t)):
            assert T.direction(t, v, 0) == 0

    def test_child_directions(self):
        t = T.parse_tree("((()()()))")
        a = 1  # the essential vertex
        for i, c in enumerate(t.children[a]):
            assert T.direction(t, a, c) == i + 1

    @pytest.mark.parametrize("text", [T_MIN, path_tree([5] * 4)])
    def test_rows_match_subtree_scan(self, text):
        t = T.subdivide_for(T.parse_tree(text), 5)
        for a in range(len(t)):
            for v in range(len(t)):
                want = next((i + 1 for i, c in enumerate(t.children[a])
                             if E.in_subtree(t, c, v)), 0)
                assert T.direction(t, a, v) == want

    def test_degree_bound(self):
        t = T.parse_tree(T_MIN)
        for v in range(len(t)):
            for u in range(len(t)):
                assert 0 <= T.direction(t, v, u) < max(t.degree(v), 1) + 1


class TestSubdivision:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sufficient_and_homeomorphic(self, n):
        t = T.parse_tree(T_MIN)
        ts = T.subdivide_for(t, n)
        assert T.is_sufficiently_subdivided(ts, n + 2)
        assert T.trees_homeomorphic(t, ts)

    def test_idempotent_when_sufficient(self):
        t = T.subdivide_for(T.parse_tree(T_MIN), 4)
        assert T.subdivide_for(t, 4) == t

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            T.subdivide_for(T.parse_tree("(())"), 1)


class TestClassification:
    def test_radial(self):
        assert E.is_radial(T.parse_tree(radial_tree(4)))
        assert not E.is_radial(T.parse_tree(T_MIN))

    def test_linear(self):
        assert E.is_linear(T.parse_tree(path_tree([3, 4, 3])))
        assert E.is_linear(T.parse_tree(radial_tree(3)))
        assert not E.is_linear(T.parse_tree(star_tree(3, (3, 3, 3))))
        assert E.is_linear(T.parse_tree(T_MIN)) is False

    def test_extremal(self):
        t = T.parse_tree(path_tree([3, 4, 3]))
        ess = T.essential_vertices(t)
        flags = [E.is_extremal(t, v) for v in ess]
        assert sorted(flags) == [False, True, True]


class TestHomeomorphism:
    def test_subdivision_invariance(self):
        t = T.parse_tree(T_MIN)
        assert T.canonical_form(t) == T.canonical_form(T.subdivide_for(t, 9))

    def test_plane_order_irrelevant(self):
        a = T.parse_tree(path_tree([3, 4, 5]))
        b = T.parse_tree(path_tree([5, 4, 3]))
        assert T.trees_homeomorphic(a, b)

    def test_distinct_degrees_differ(self):
        a = T.parse_tree(path_tree([3, 4, 3]))
        b = T.parse_tree(path_tree([3, 5, 3]))
        assert not T.trees_homeomorphic(a, b)

    def test_leaves_count(self):
        # leaves are part of the homeomorphism type
        assert not T.trees_homeomorphic(
            T.parse_tree(radial_tree(3)), T.parse_tree(radial_tree(4)))

    def test_corpus_strings_pairwise_distinct(self, corpus):
        codes = [T.canonical_form(T.parse_tree(s)) for s in corpus]
        assert len(set(codes)) == len(corpus)

    @given(_tree_strategy())
    def test_self_homeomorphic(self, text):
        t = T.parse_tree(text)
        assert T.trees_homeomorphic(t, t)

    @given(_tree_strategy())
    def test_form_kept_with_tree(self, text):
        def boom(t):
            raise AssertionError("canonical form computed twice")

        t = T.parse_tree(text)
        adj = T._suppressed_adjacency(t)
        fresh = min(T._ahu_code(adj, c) for c in T._centroids(adj))
        assert T.canonical_form(t) == fresh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_suppressed_adjacency", boom)
            assert T.canonical_form(t) == fresh
            assert T.trees_homeomorphic(t, t)


class TestDeep:
    """A caterpillar deeper than the default recursion limit."""

    def test_caterpillar(self):
        s = caterpillar(1200)
        t = T.parse_tree(s)
        assert len(T.essential_vertices(t)) == 1200
        assert T.to_text(t) == s
        assert repr(t) == "PlaneTree(%r)" % s
        assert T.trees_homeomorphic(t, t)
        ts = T.subdivide_for(t, 4)
        assert T.is_sufficiently_subdivided(ts, 6)
        assert T.trees_homeomorphic(t, ts)
