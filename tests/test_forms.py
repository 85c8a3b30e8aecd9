import tracemalloc

import pytest

from treebraid import cells as C, forms as F, tree as T

import explicit as E
from conftest import CORPUS, T_MIN, path_tree, radial_tree


@pytest.fixture(scope="module")
def tmin4():
    t = T.subdivide_for(T.parse_tree(T_MIN), 4)
    return t, C.enumerate_reduced_1cells(t, 4)


@pytest.fixture(scope="module")
def mixed5():
    # a degree-4 / degree-3 tree: exercises all three exceptional types
    t = T.subdivide_for(T.parse_tree(path_tree([4, 3])), 5)
    return t, C.enumerate_reduced_1cells(t, 5)


@pytest.fixture(scope="module")
def p345_terms():
    return term_pairs(path_tree([3, 4, 5]), 4)


def refuse_upper_bound_exists(*args):
    raise AssertionError("called upper_bound_exists")


class TestEval:
    def test_dc_on_own_cell(self, tmin4):
        t, cells = tmin4
        for c in cells:
            ex = E.to_explicit(c, t, 4)
            assert F.eval_form(F.BasicForm(None, (c,)), ex, t) == 1

    def test_dc_distinguishes(self, tmin4):
        t, cells = tmin4
        for c in cells[:10]:
            ex = E.to_explicit(c, t, 4)
            hits = [c2 for c2 in cells
                    if F.eval_form(F.BasicForm(None, (c2,)), ex, t)]
            assert hits == [c]

    def test_repeated_factor_is_zero(self, tmin4):
        t, cells = tmin4
        c = cells[0]
        ex = E.to_explicit(c, t, 4)
        assert F.eval_form(F.BasicForm(None, (c, c)), ex, t) == 0

    def test_profiles_differ_by_edge(self, tmin4):
        t, cells = tmin4
        for c in cells[:20]:
            ex = E.to_explicit(c, t, 4)
            d = list(F._profile(t, c.a, ex, False))
            dbar = list(F._profile(t, c.a, ex, True))
            d[c.d] -= 1
            d[0] += 1
            assert d == dbar


class TestDifferential:
    def test_terms_valid_and_over_a(self, tmin4):
        t, cells = tmin4
        for form in F.basic_0forms(cells):
            a, x = form.base
            for term in F.differential(form, t):
                (u,) = term.factors
                assert u.a == a
                assert C.is_valid_reduced(u, t)

    def test_formal_dd_zero(self, tmin4):
        t, cells = tmin4
        for c in cells[:20]:
            df = F.differential(F.BasicForm((c.a, c.x), ()), t)
            for term in df:
                assert not F.differential(term, t)

    def test_annihilate_subset(self, tmin4):
        t, cells = tmin4
        c0 = cells[0]
        s = F.differential(F.BasicForm((c0.a, c0.x), ()), t)
        other = next(c for c in cells if c.a != c0.a)
        ann = F.annihilate([other], s, t)
        assert ann <= s


class TestNecessary:
    def test_zero_form_cells_noncritical(self, tmin4):
        t, cells = tmin4
        for form in F.basic_0forms(cells):
            nec = F.is_necessary(form, t)
            if nec is not None:
                assert not C.is_critical(nec)
                assert (nec.a, nec.x) == form.base

    def test_one_form_unique_respectful(self, mixed5):
        t, cells = mixed5
        crit = [c for c in cells if C.is_critical(c)]
        hits = 0
        for c in cells:
            for c1 in crit:
                if c1.a == c.a:
                    continue
                nec = F.is_necessary(F.BasicForm((c.a, c.x), (c1,)), t)
                if nec is None:
                    continue
                hits += 1
                own, other = C.edge_disrespectful_in_lub(nec, c1, t)
                assert not own and other
            if hits >= 25:
                break
        assert hits > 0

    def test_one_form_decided_in_one_call(self, tmin4, monkeypatch):
        # every f(a, x)dc_1 with c_1 critical and over another vertex
        t, cells = tmin4
        forms = [F.BasicForm(base, (c1,))
                 for base in dict.fromkeys((c.a, c.x) for c in cells)
                 for c1 in cells if C.is_critical(c1) and c1.a != base[0]]
        want = [F.is_necessary(form, t) for form in forms]
        assert any(want)
        monkeypatch.setattr(C, "upper_bound_exists", refuse_upper_bound_exists)
        assert [F.is_necessary(form, t) for form in forms] == want


class TestExceptional:
    def test_only_at_n5(self, tmin4):
        t, cells = tmin4
        assert all(F.classify_exceptional(c) is None for c in cells)

    def test_all_types_present(self, mixed5):
        t, cells = mixed5
        kinds = {}
        for c in cells:
            k = F.classify_exceptional(c)
            if k:
                kinds[k] = kinds.get(k, 0) + 1
        assert set(kinds) == {"I", "II", "III"}
        assert kinds["I"] == kinds["II"]

    def test_correspondence_involution(self, mixed5):
        t, cells = mixed5
        for c in cells:
            k = F.classify_exceptional(c)
            if k in ("I", "II"):
                c2 = F.corresponding_cell(c)
                assert (c2.a, c2.x) == (c.a, c.x)
                assert c2.d != c.d
                assert F.corresponding_cell(c2) == c
                assert {k, F.classify_exceptional(c2)} == {"I", "II"}

    def test_exceptional_are_critical(self, mixed5):
        t, cells = mixed5
        for c in cells:
            if F.classify_exceptional(c):
                assert C.is_critical(c)


def sort_then_swap(cells, n):
    """<_r as first written: sort by the lexicographic key (a, -x_0, d,
    x), then swap each Type I cell (n = 5) with its corresponding Type
    II cell by position.  cells must hold the partner of each Type I
    cell."""
    cells = sorted(cells, key=lambda c: (c.a, -c.x[0], c.d, c.x))
    if n == 5:
        type_i = [c for c in cells if F.classify_exceptional(c) == "I"]
        pos = {c: i for i, c in enumerate(cells)}
        for c in type_i:
            i, j = pos[c], pos[F.corresponding_cell(c)]
            cells[i], cells[j] = cells[j], cells[i]
    return cells


class TestROrder:
    @pytest.mark.parametrize("n", [4, 5])
    def test_key_matches_sort_then_swap(self, n):
        swaps = 0
        for deg in range(3, 10):
            full = [C.ReducedOneCell(0, d, x)
                    for d, x in C.degree_template(n, deg)]
            for cells in (full, list(filter(C.is_critical, full))):
                want = sort_then_swap(cells, n)
                assert F.ROrder.sort(cells) == want
                assert F.ROrder.sort(reversed(cells)) == want
                swaps += want != sorted(cells, key=lambda c: (
                    c.a, -c.x[0], c.d, c.x))
        # Type I/II pairs exist at n = 5 from degree 4 on, full and critical
        assert swaps == (12 if n == 5 else 0)

    def test_corpus_order_matches_sort_then_swap(self):
        for text in CORPUS:
            t = T.subdivide_for(T.parse_tree(text), 5)
            assert F.ROrder(t, 5).cells == sort_then_swap(
                C.enumerate_reduced_1cells(t, 5), 5)

    def test_partition(self, mixed5):
        t, _ = mixed5
        order = F.ROrder(t, 5)
        assert order.rm == len(order.cells) == len(set(order.cells))
        assert sorted(order.ri.values()) == list(range(order.rm))
        # critical and the noncritical rest split cells
        assert order.critical == [c for c in order.cells if C.is_critical(c)]
        assert 0 < len(order.critical) < order.rm

    def test_type_ii_precedes_type_i(self, mixed5):
        t, _ = mixed5
        order = F.ROrder(t, 5)
        for c in order.cells:
            if F.classify_exceptional(c) == "II":
                assert order.ri[c] < order.ri[F.corresponding_cell(c)]

    def test_sorted_off_exceptional(self, tmin4):
        t, _ = tmin4
        order = F.ROrder(t, 4)
        keys = [(c.a, -c.x[0], c.d, c.x) for c in order.cells]
        assert keys == sorted(keys)


class TestMatrices:
    def test_gf2_helpers(self):
        ident = F.identity_matrix(5)
        assert E.is_lower_triangular(ident)
        assert E.is_invertible(ident)
        cols = [0b00011, 0b00110, 0b01100, 0b11000, 0b10000]
        assert F.mat_mul(ident, cols) == cols
        assert not E.is_lower_triangular([0b11] * 2)
        assert not E.is_invertible([0b1, 0b1])

    def test_m_properties_tmin_n4(self, tmin4):
        t, _ = tmin4
        order = F.ROrder(t, 4)
        ms, mt, m = F.build_M(t, 4, order)
        assert E.is_lower_triangular(ms)
        assert E.is_lower_triangular(mt)
        assert E.is_lower_triangular(m)
        assert E.is_invertible(ms)
        crit_mask = 0
        for c in order.critical:
            crit_mask |= 1 << order.ri[c]
        for c in order.critical:
            # M maps critical classes into the span of critical classes
            assert m[order.ri[c]] & ~crit_mask == 0

    def test_ms_acts_as_mc_on_criticals(self, tmin4):
        t, _ = tmin4
        order = F.ROrder(t, 4)
        ms, _, _ = F.build_M(t, 4, order)
        for c in order.critical:
            assert ms[order.ri[c]] == F._column_M_c(c, t, order)

    def test_witness_independence(self, mixed5):
        t, _ = mixed5
        order = F.ROrder(t, 5)
        for c in order.critical:
            if F.classify_exceptional(c):
                continue
            vecs = {F.u_vector(w, t, order)
                    for w in F.necessary_witnesses(c, t, order)}
            assert len(vecs) <= 1


class TestCup:
    def test_radial_cup_empty(self):
        t = T.subdivide_for(T.parse_tree(radial_tree(4)), 4)
        cells = [c for c in C.enumerate_reduced_1cells(t, 4)
                 if C.is_critical(c)]
        for i, c1 in enumerate(cells):
            for c2 in cells[i + 1:]:
                assert F.cup_normal_form(c1, c2, t, 4) == frozenset()

    def test_normal_form_pairs_critical(self, tmin4):
        t, cells = tmin4
        crit = [c for c in cells if C.is_critical(c)]
        order = F.ROrder(t, 4)
        for i, c1 in enumerate(crit):
            for c2 in crit[i + 1:]:
                nf = F.cup_normal_form(c1, c2, t, 4, order)
                assert nf == F.cup_normal_form(c2, c1, t, 4, order)
                for pair in nf:
                    p, q = tuple(pair)
                    assert C.is_critical(p) and C.is_critical(q)
                    assert all(C.edge_disrespectful_in_lub(p, q, t))

    def test_rewriting_builds_no_order(self, tmin4, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an ROrder")

        t, cells = tmin4
        pairs = rewriting_pairs(cells, t)
        assert pairs
        monkeypatch.setattr(F, "ROrder", refuse)
        for c1, c2 in pairs:
            F.cup_normal_form(c1, c2, t, 4)

    @pytest.mark.parametrize("text", [T_MIN, path_tree([3, 4, 3])])
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_sorted_rewriting(self, text, n):
        # the rewriting pairs, then every pair of critical cells, most of
        # them zero (over one vertex, or with no upper bound)
        t = T.subdivide_for(T.parse_tree(text), n)
        order = F.ROrder(t, n)
        pairs = rewriting_pairs(order.cells, t)
        assert pairs
        crit = order.critical
        pairs += [(c1, c2) for i, c1 in enumerate(crit) for c2 in crit[i + 1:]]
        zero = 0
        for c1, c2 in pairs:
            nf = F.cup_normal_form(c1, c2, t, n, order)
            assert nf == E.sorted_cup_normal_form(c1, c2, t, order), (c1, c2)
            zero += not nf
        assert 0 < zero < len(pairs)

    def test_zero_is_one_object(self, p345_terms):
        t, order, pairs = p345_terms
        results = [F.cup_normal_form(u, v, t, 4, order) for u, v in pairs]
        assert any(results)
        assert len({id(r) for r in results if not r}) == 1

    def test_term_pairs_decided_in_one_call(self, p345_terms, monkeypatch):
        t, order, pairs = p345_terms
        want = [F.cup_normal_form(u, v, t, 4, order) for u, v in pairs]
        monkeypatch.setattr(C, "upper_bound_exists", refuse_upper_bound_exists)
        assert [F.cup_normal_form(u, v, t, 4, order)
                for u, v in pairs] == want

    def test_one_vertex_reads_no_upper_bound(self, tmin4, monkeypatch):
        def refuse(*args):
            raise AssertionError("decided a pair over one vertex")

        t, cells = tmin4
        c1, c2 = [c for c in cells if c.a == cells[0].a][:2]
        monkeypatch.setattr(C, "upper_bound_exists", refuse)
        monkeypatch.setattr(C, "edge_disrespectful_in_lub", refuse)
        assert F.cup_normal_form(c1, c2, t, 4) == frozenset()

    def test_strand_counts_differ(self, tmin4):
        t, cells = tmin4
        c1 = cells[0]
        c2 = next(c for c in cells if c.a != c1.a)
        c2 = c2._replace(x=(c2.x[0] + 1,) + c2.x[1:])
        with pytest.raises(ValueError):
            F.cup_normal_form(c1, c2, t, 4)

    def test_memoized_zeros_hold_no_memory(self):
        # every term pair of path [4, 5] at n = 5 memoized, as criterion 9
        # and the verify pass do: 228 of the 20 944 products are nonzero
        t, order, pairs = term_pairs(path_tree([4, 5]), 5)
        tracemalloc.start()
        try:
            memo = {frozenset(p): F.cup_normal_form(*p, t, 5, order)
                    for p in pairs}
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces(
            [tracemalloc.Filter(True, F.__file__)]).statistics("filename")
        assert len(memo) == 20944
        assert sum(s.size for s in held) < 512 * 1024


def term_pairs(text, n):
    """(t, order, pairs): the tree text subdivided for n, its <_r order,
    and one (u, v) per unordered pair of terms that criterion 9 reads:
    u a term of the M-column of one critical cell, v of a later one."""
    t = T.subdivide_for(T.parse_tree(text), n)
    order = F.ROrder(t, n)
    _, _, m = F.build_M(t, n, order)
    terms = [[order.cells[i] for i in range(order.rm)
              if m[order.ri[c]] >> i & 1] for c in order.critical]
    pairs = {}
    for i, us in enumerate(terms):
        for vs in terms[i + 1:]:
            for u in us:
                for v in vs:
                    pairs.setdefault(frozenset((u, v)), (u, v))
    return t, order, list(pairs.values())


def rewriting_pairs(cells, t):
    """The pairs of cells with an upper bound whose least upper bound is
    not critical."""
    return [(c1, c2) for i, c1 in enumerate(cells) for c2 in cells[i + 1:]
            if C.upper_bound_exists(c1, c2, t)
            and not all(C.edge_disrespectful_in_lub(c1, c2, t))]
