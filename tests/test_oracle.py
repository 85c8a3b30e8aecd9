import random
from collections import Counter
from itertools import combinations
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from treebraid import cells as C, forms as F, oracle as O, tree as T
from treebraid.oracle import ExplicitCell

import explicit as E
from conftest import CORPUS, T_MIN, path_tree, radial_tree, star_tree


def reference_complex(t, n, max_dim=3):
    """cells_by_dim as lists of frozenset ExplicitCells: for each set of
    k edges with pairwise disjoint closures, in combinations order, the
    cells placing the other n - k strands on the free vertices."""
    out = []
    for k in range(0, min(max_dim, n) + 1):
        cells = []
        for esub in combinations(t.edges(), k):
            blocked = set()
            ok = True
            for e in esub:
                if e in blocked or t.parent[e] in blocked:
                    ok = False
                    break
                blocked.add(e)
                blocked.add(t.parent[e])
            if not ok:
                continue
            free = [v for v in range(len(t)) if v not in blocked]
            eset = frozenset(esub)
            for vsub in combinations(free, n - k):
                cells.append(ExplicitCell(frozenset(vsub), eset))
        out.append(cells)
    return out


def reference_betti(cells_by_dim, faces):
    """(b_0, b_1, b_2) from reference_rank of the boundary columns as
    sets (a face listed twice cancels)."""
    ranks = [0]
    for rows in faces[1:]:
        columns = []
        for row in rows:
            col = set()
            for f in row:
                col ^= {f}
            columns.append(col)
        ranks.append(reference_rank(columns))
    ranks.append(0)
    dims = [len(cells) for cells in cells_by_dim]
    return tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(3))


def check_against_reference(t, n):
    """The key-built complex decodes to reference_complex cell for cell,
    and has its faces and Betti numbers."""
    cx = O.build_complex(t, n, max_dim=3)
    ref = reference_complex(t, n)
    assert decoded(cx).cells_by_dim == ref
    ref_faces = reference_faces(t, ref)
    assert cx.faces == ref_faces
    assert O.betti(cx) == reference_betti(ref, ref_faces)


def reference_faces(t, cells_by_dim):
    """faces[k] of the ExplicitCells cells_by_dim of a complex on t,
    found by hashing each face as a frozenset ExplicitCell."""
    out = [None]
    for k in range(1, len(cells_by_dim)):
        index = {c: i for i, c in enumerate(cells_by_dim[k - 1])}
        out.append([
            [index[ExplicitCell(c.vertices | {u}, c.edges - {e})]
             for e in c.edges for u in (e, t.parent[e])]
            for c in cells_by_dim[k]])
    return out


def reference_rank(columns):
    """GF(2) rank by reduction on columns held as sets of row ids."""
    pivots = {}
    for col in columns:
        col = set(col)
        while col:
            piv = pivots.get(max(col))
            if piv is None:
                pivots[max(col)] = col
                break
            col ^= piv
    return len(pivots)


def reference_check(form, t, cx):
    """coboundary_oracle_check by scanning every 2-cell: d(form) and the
    coboundary of form evaluated on it and on its faces."""
    dform = F.differential(form, t, include_extraneous=True)
    one_cells = cx.cells_by_dim[1]
    required = frozenset(t.children[c.a][c.d - 1] for c in form.factors)
    for s, faces in zip(cx.cells_by_dim[2], cx.faces[2]):
        if not required <= s.edges:
            continue
        lhs = rhs = 0
        for term in dform:
            lhs ^= F.eval_form(term, s, t)
        for f in faces:
            rhs ^= F.eval_form(form, one_cells[f], t)
        if lhs != rhs:
            return False
    return True


def decoded(cx):
    """cx with every cell key decoded once into an ExplicitCell, for the
    scanning references."""
    return O.CubeComplex([list(map(O.decode_cell, keys))
                          for keys in cx.cells_by_dim], cx.faces)


def random_tree(picks):
    """The tree in which vertex v + 2 hangs from vertex 1 + picks[v] %
    (v + 1)."""
    kids = [[1], []]
    for v, p in enumerate(picks):
        kids[1 + p % (v + 1)].append(len(kids))
        kids.append([])

    def emit(v):
        return "(" + "".join(emit(u) for u in kids[v]) + ")"

    return T.parse_tree(emit(0))


def forms_to_check(ts, n, sample, seed):
    """Every basic 0-form, then a seeded sample of basic 1-forms (none
    over a single essential vertex)."""
    cells = C.enumerate_reduced_1cells(ts, n)
    pairs = [(c, c1) for c in cells for c1 in cells if c.a != c1.a]
    pairs = random.Random(seed).sample(pairs, min(sample, len(pairs)))
    return F.basic_0forms(cells) + [
        F.BasicForm((c.a, c.x), (c1,)) for c, c1 in pairs]


class TestComplex:
    def test_cell_counts_small(self):
        # 2 strands on the 3-vertex path: 1 way to place 2 disjoint
        # vertices... enumerate explicitly
        t = O.subdivide_exact(T.parse_tree(radial_tree(3)), 2)
        cx = O.build_complex(t, 2, max_dim=2)
        v = len(t)
        assert len(cx.cells_by_dim[0]) == v * (v - 1) // 2

    def test_faces_are_faces(self):
        t = O.subdivide_exact(T.parse_tree(radial_tree(3)), 3)
        cx = decoded(O.build_complex(t, 3, max_dim=2))
        for k in (1, 2):
            for i, c in enumerate(cx.cells_by_dim[k]):
                assert len(cx.faces[k][i]) == 2 * k
                for f in cx.faces[k][i]:
                    face = cx.cells_by_dim[k - 1][f]
                    assert face.edges < c.edges or face.edges == set()

    def test_dd_zero(self):
        for text, n in [(radial_tree(4), 4), (path_tree([3, 3]), 4)]:
            t = O.subdivide_exact(T.parse_tree(text), n)
            cx = O.build_complex(t, n, max_dim=3)
            assert E.check_dd_zero(cx)

    @pytest.mark.parametrize("text,n", [(radial_tree(3), 3),
                                        (path_tree([3, 3]), 3),
                                        (radial_tree(4), 3)])
    def test_int_keyed_faces(self, text, n):
        t = O.subdivide_exact(T.parse_tree(text), n)
        cx = O.build_complex(t, n, max_dim=3)
        assert cx.faces == reference_faces(t, decoded(cx).cells_by_dim)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_on_corpus(self, n):
        # every corpus tree with at most three essential vertices at
        # n = 2, 3; at n = 4 those with at most one (the three-essential
        # ones reach a million cells there, too many for the reference)
        most = 3 if n < 4 else 1
        for text in CORPUS:
            t = T.parse_tree(text)
            if len(T.essential_vertices(t)) <= most:
                check_against_reference(O.subdivide_exact(t, n), n)

    @given(st.lists(st.integers(0, 5), max_size=5), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_trees(self, picks, n):
        check_against_reference(O.subdivide_exact(random_tree(picks), n), n)

    def test_counts_never_decode(self, monkeypatch):
        def refuse(key):
            raise AssertionError("decoded cell %d" % key)

        monkeypatch.setattr(O, "decode_cell", refuse)
        rep = O.verify_morse_counts(T.parse_tree(path_tree([3, 3])), 4)
        assert rep["pass"] is True
        t = O.subdivide_exact(T.parse_tree(radial_tree(4)), 4)
        cx = O.build_complex(t, 4, max_dim=3)
        assert O.betti(cx) == (1, C.radial_rank(4, 4), 0)
        assert E.check_dd_zero(cx)
        assert {type(key) for keys in cx.cells_by_dim for key in keys} \
            == {int}
        # FormCells makes keys without decoding them
        ts = T.subdivide_for(T.parse_tree(radial_tree(3)), 3)
        cells = O.FormCells(ts)
        a = T.essential_vertices(ts)[0]
        ones = list(cells.support(a, (1, 1, 1), frozenset()))
        assert ones
        assert list(cells.over(frozenset({ts.children[a][0]}), a, (1, 1, 1)))
        with pytest.raises(AssertionError, match="decoded cell"):
            cells.cell(ones[0])

    def test_budget(self, monkeypatch):
        t = O.subdivide_exact(T.parse_tree(T_MIN), 5)
        monkeypatch.setattr(O, "COMPLEX_BUDGET", 10)
        with pytest.raises(O.BudgetExceeded):
            O.build_complex(t, 5, max_dim=3)


@given(st.lists(st.frozensets(st.integers(0, 24), max_size=6), max_size=30))
def test_bitmask_rank(columns):
    masks = [sum(1 << i for i in col) for col in columns]
    assert E.rank_gf2(masks) == reference_rank(columns)


class TestBetti:
    def test_connected(self):
        t = O.subdivide_exact(T.parse_tree(radial_tree(3)), 4)
        b0, _, _ = O.betti(O.build_complex(t, 4, max_dim=3))
        assert b0 == 1

    @pytest.mark.parametrize("deg,n", [(3, 4), (4, 4), (3, 5)])
    def test_radial_free(self, deg, n):
        t = O.subdivide_exact(T.parse_tree(radial_tree(deg)), n)
        b0, b1, b2 = O.betti(O.build_complex(t, n, max_dim=3))
        assert (b0, b1, b2) == (1, C.radial_rank(n, deg), 0)

    def test_two_essential(self):
        rep = O.verify_morse_counts(T.parse_tree(path_tree([3, 3])), 4)
        assert rep["pass"] is True
        assert rep["b"][0] == 1

    def test_report_skips_over_budget(self, monkeypatch):
        monkeypatch.setattr(O, "SWIATKOWSKI_BUDGET", 100)
        rep = O.verify_morse_counts(T.parse_tree(T_MIN), 5)
        assert rep["pass"] is None
        assert "skipped" in rep


def test_betti_rows_narrowed(monkeypatch):
    # the columns of d_1 have a row per 0-cell; those of d_2 rows only
    # on the 1-cells off a spanning forest, and those of d_3 only on the
    # 2-cells whose d_2 column is dependent; full width is 12 240 and
    # 13 860 rows
    widths = []
    independent = O._independent

    def record(columns):
        columns = list(columns)
        widths.append(max(map(int.bit_length, columns), default=0))
        return independent(columns)

    monkeypatch.setattr(O, "_independent", record)
    t = T.parse_tree("((()(()())()))")
    cx = O.build_complex(O.subdivide_exact(t, 4), 4, max_dim=3)
    dims = list(map(len, cx.cells_by_dim))
    assert dims == [3876, 12240, 13860, 6682]
    b0, b1, b2 = O.betti(cx)
    rank1 = dims[0] - b0
    rank2 = dims[1] - rank1 - b1
    assert len(widths) == 3
    assert widths[0] == dims[0]
    assert widths[1] <= dims[1] - rank1
    assert widths[2] <= dims[2] - rank2
    assert (b0, b1, b2) == O.swiatkowski_betti(t, 4)


def brute_force_betti(t, n):
    return O.betti(O.build_complex(O.subdivide_exact(t, n), n, max_dim=3))


class TestSwiatkowski:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force_on_corpus(self, n):
        # at n = 4 only trees whose essential degrees sum to at most 8:
        # the brute-force complex of the others takes 1 s or more; the
        # paths with no essential vertex included
        for text in CORPUS + ["(())", "((()))"]:
            t = T.parse_tree(text)
            degrees = [t.degree(v) for v in T.essential_vertices(t)]
            if len(degrees) <= 3 and (n < 4 or sum(degrees) <= 8):
                assert O.swiatkowski_betti(t, n) == brute_force_betti(t, n), \
                    text

    @given(st.lists(st.integers(0, 5), max_size=5), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_trees(self, picks, n):
        # degree-2 vertices and trees with no essential vertex included
        t = random_tree(picks)
        assert O.swiatkowski_betti(t, n) == brute_force_betti(t, n)

    def test_matches_critical_counts_on_corpus(self):
        for text in CORPUS + [T_MIN]:
            t = T.parse_tree(text)
            if len(T.essential_vertices(t)) > 3:
                continue
            for n in (2, 3, 4, 5):
                want = C.count_critical_cells(T.subdivide_for(t, n), n)
                assert O.swiatkowski_betti(t, n) == (1, *want), (text, n)

    @pytest.mark.parametrize("text", [path_tree([3, 4, 5]), T_MIN, "(())"])
    def test_sizes_count_the_cells(self, text):
        n_edges, gens = O._swiatkowski_generators(T.parse_tree(text))
        for n in range(6):
            made = []
            lower = set()
            for k in range(min(3, n) + 1):
                cells = list(O._swiatkowski_cells(n_edges, gens, n, k))
                keys = {key for key, _ in cells}
                assert len(keys) == len(cells)
                for _, faces in cells:
                    assert len(set(faces)) == 2 * k
                    assert lower.issuperset(faces)
                made.append(len(cells))
                lower = keys
            assert O.swiatkowski_sizes(T.parse_tree(text), n) == made

    @pytest.mark.parametrize("text", [path_tree([5] * 4),
                                      star_tree(5, (5, 5, 5))])
    def test_near_budget(self, text):
        # four degree-5 vertices at n = 5: the largest complexes the
        # budget admits, with 230 061 cells, ranked through _homology
        t = T.parse_tree(text)
        assert sum(O.swiatkowski_sizes(t, 5)) == 230_061
        assert O.swiatkowski_betti(t, 5) \
            == (1, *C.count_critical_cells(t, 5)) == (1, 620, 1656)

    def test_budget_checked_before_any_cell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("made a cell")

        monkeypatch.setattr(O, "_swiatkowski_cells", refuse)
        with monkeypatch.context() as m, pytest.raises(
                O.BudgetExceeded,
                match="^estimated 10647 cells exceeds budget 100$"):
            m.setattr(O, "SWIATKOWSKI_BUDGET", 100)
            O.swiatkowski_betti(T.parse_tree(T_MIN), 5)
        # the path of eight degree-5 vertices: 637 945 cells at n = 4
        with pytest.raises(O.BudgetExceeded, match="^estimated 637945 "):
            O.swiatkowski_betti(T.parse_tree(path_tree([5] * 8)), 4)


class TestCoboundary:
    def test_two_essential_forms(self):
        rep = O.verify_d_equals_delta(T.parse_tree(path_tree([3, 3])), 4, 20)
        assert rep["pass"] is True
        assert rep["checked"] > 20

    def test_over_budget_skipped(self):
        rep = O.verify_d_equals_delta(T.parse_tree(T_MIN), 5, 10)
        assert rep["pass"] is None
        assert rep["skipped"].startswith("estimated ")

    def test_skipped_before_subdividing(self, monkeypatch):
        # the subdivision for 3 000 000 strands would not fit in memory,
        # nor would the estimate's 4 090 398 digits take seconds
        def boom(*args):
            raise AssertionError("subdivided")

        monkeypatch.setattr(T, "subdivide_for", boom)
        t = T.parse_tree(T_MIN)
        rep = O.verify_d_equals_delta(t, 3_000_000, 50)
        assert rep["pass"] is None
        assert rep["skipped"] == ("estimated a 4090398-digit number of "
                                  "cells exceeds budget 5000000")
        with pytest.raises(ValueError, match="n must be >= 2"):
            O.verify_d_equals_delta(t, 1, -1)

    def test_subdivided_size(self):
        for text in CORPUS[::7] + [T_MIN, "(())", "((()))"]:
            t = T.parse_tree(text)
            for n in (2, 4, 5, 9):
                assert T.subdivided_size(t, n) == len(T.subdivide_for(t, n))
        with pytest.raises(ValueError, match="n must be >= 2"):
            T.subdivided_size(T.parse_tree(T_MIN), 1)


class TestBudgetMessage:
    def test_digit_count(self):
        for x in [1, 9, 10, 99, 100, 2 ** 64, 10 ** 4299]:
            assert O._digit_count(x) == len(str(x)), x
        for d in [4300, 4301, 5001]:
            for x in [10 ** (d - 1), 7 * 10 ** (d - 1) + 3, 10 ** d - 1]:
                assert O._digit_count(x) == d

    def test_long_estimate_named_by_digits(self):
        assert str(O.BudgetExceeded(10 ** 4300 - 1, 7)) \
            == "estimated %d cells exceeds budget 7" % (10 ** 4300 - 1)
        assert str(O.BudgetExceeded(10 ** 4300, 7)) \
            == "estimated a 4301-digit number of cells exceeds budget 7"

    @pytest.mark.parametrize("n", [3, 50, 700, 4000])
    def test_log_estimate(self, n):
        # the lgamma estimate of the log agrees with the exact count
        size = T.subdivided_size(T.parse_tree(T_MIN), n)
        exact = O._estimate_cells(size, n, 2)
        assert abs(O._log10_estimate(size, n, 2)
                   - O._digit_count(exact) + 1) < 1
        assert O._digit_count(exact) \
            == floor(O._log10_estimate(size, n, 2)) + 1


def assert_check_matches_scan(ts, n, forms, scanned):
    """FormCells' check and reference_check's scan of the whole complex
    (decoded) give every form the same verdict."""
    cells = O.FormCells(ts)
    for form in forms:
        assert F.coboundary_oracle_check(form, cells) \
            == reference_check(form, ts, scanned), form


def assert_cells_match_complex(ts, cx, forms):
    """Every key set FormCells makes for the forms, and the cofaces of
    every 1-cell, are the sets read off the complex cx on ts and its
    faces, each key made once."""
    ones, twos = cx.cells_by_dim[1:3]
    cofaces = {key: set() for key in ones}
    for s, faces in zip(twos, cx.faces[2]):
        for f in faces:
            cofaces[ones[f]].add(s)
    decoded_ = {key: O.decode_cell(key) for key in ones + twos}
    groups = {}  # (dimension, a, bar) -> profile -> the cells with it

    def with_profile(k, es, a, x, bars):
        """The k-cells over the edge set es whose profile at a, D or
        D-bar as bars allow, is x."""
        out = set()
        for bar in bars:
            if (k, a, bar) not in groups:
                by = groups[k, a, bar] = {}
                for key in (ones, twos)[k - 1]:
                    by.setdefault(F._profile(ts, a, decoded_[key], bar),
                                  set()).add(key)
            out |= {key for key in groups[k, a, bar].get(x, ())
                    if es <= decoded_[key].edges}
        return out

    def made(keys):
        keys = list(keys)
        assert len(keys) == len(set(keys))
        return set(keys)

    def edges(form):
        return frozenset(ts.children[c.a][c.d - 1] for c in form.factors)

    cells = O.FormCells(ts)
    for form in forms:
        a, x = form.base
        assert made(cells.support(a, x, edges(form))) \
            == with_profile(1, edges(form), a, x, (False, True))
        for term in F.differential(form, ts, include_extraneous=True):
            c = term.factors[0]
            assert made(cells.over(edges(term), c.a, c.x)) \
                == with_profile(2, edges(term), c.a, c.x, (False,))
    for key in ones:
        assert made(cells.cofaces(decoded_[key])) == cofaces[key]


@pytest.mark.parametrize("text,n", [(path_tree([3, 3]), 4),
                                    (radial_tree(3), 5)])
def test_form_cells_check_matches_scan(text, n):
    # criterion 8's inputs
    ts = T.subdivide_for(T.parse_tree(text), n)
    scanned = decoded(O.build_complex(ts, n, max_dim=2))
    assert_check_matches_scan(ts, n, forms_to_check(ts, n, 20, seed=11),
                              scanned)


@given(st.lists(st.integers(0, 5), max_size=4), st.integers(2, 4),
       st.integers(0, 2 ** 32))
@settings(max_examples=25, deadline=None)
def test_form_cells_on_random_trees(picks, n, seed):
    # degree-2 vertices and trees with no essential vertex (no forms)
    # included; the full scan takes up to a second a form, so it judges
    # three of them
    ts = T.subdivide_for(random_tree(picks), n)
    cx = O.build_complex(ts, n, max_dim=2)
    forms = forms_to_check(ts, n, 5, seed)
    assert_cells_match_complex(ts, cx, forms)
    assert_check_matches_scan(
        ts, n, random.Random(seed).sample(forms, min(3, len(forms))),
        decoded(cx))


def test_form_cells_match_complex():
    ts = T.subdivide_for(T.parse_tree(path_tree([3, 3])), 3)
    forms = forms_to_check(ts, 3, 40, seed=5)
    assert any(form.factors for form in forms)
    assert_cells_match_complex(ts, O.build_complex(ts, 3, max_dim=2), forms)


def test_dropped_term_fails_both(monkeypatch):
    ts = T.subdivide_for(T.parse_tree(radial_tree(3)), 3)
    cells = O.FormCells(ts)
    differential = F.differential

    def drop_one(form, t, include_extraneous=False):
        terms = differential(form, t, include_extraneous)
        return frozenset(sorted(terms, key=str)[1:])

    forms = F.basic_0forms(C.enumerate_reduced_1cells(ts, 3))
    assert forms
    monkeypatch.setattr(F, "differential", drop_one)
    scanned = decoded(O.build_complex(ts, 3, max_dim=2))
    for form in forms:
        assert not F.coboundary_oracle_check(form, cells), form
        assert not reference_check(form, ts, scanned), form


def test_check_decodes_only_what_eval_form_reads(monkeypatch):
    # the check decodes one cell for each eval_form call, and builds no
    # complex
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def refuse(*args, **kwargs):
        raise AssertionError("built the complex")

    monkeypatch.setattr(O, "decode_cell", counting("decode", O.decode_cell))
    monkeypatch.setattr(F, "eval_form", counting("eval", F.eval_form))
    monkeypatch.setattr(O, "build_complex", refuse)
    rep = O.verify_d_equals_delta(T.parse_tree(path_tree([3, 3])), 3, 20)
    assert rep["pass"] is True
    assert calls["decode"] == calls["eval"] > 0
