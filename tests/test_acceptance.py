"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with -v to see the per-criterion lines.  Shared per-tree artifacts
(subdivisions, Delta complexes, change-of-basis matrices) are cached in
a session store so the criteria stay within their time budgets.
"""

import random
import time
from math import comb

import pytest

from treebraid import cells as C, delta as D, forms as F, oracle as O, \
    tree as T

import explicit as E
from conftest import CORPUS, T_MIN, path_tree, radial_tree, star_tree


class Store:
    def __init__(self):
        self._ts = {}
        self._delta = {}
        self._order = {}
        self._m = {}

    def ts(self, s, n):
        key = (s, n)
        if key not in self._ts:
            self._ts[key] = T.subdivide_for(T.parse_tree(s), n)
        return self._ts[key]

    def delta(self, s, n):
        key = (s, n)
        if key not in self._delta:
            self._delta[key] = D.build_delta(self.ts(s, n), n)
        return self._delta[key]

    def order(self, s, n):
        key = (s, n)
        if key not in self._order:
            self._order[key] = F.ROrder(self.ts(s, n), n)
        return self._order[key]

    def matrices(self, s, n):
        key = (s, n)
        if key not in self._m:
            self._m[key] = F.build_M(self.ts(s, n), n, self.order(s, n))
        return self._m[key]


@pytest.fixture(scope="module")
def store():
    return Store()


def _report(num, ok, detail):
    line = "CRITERION %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_radial_ranks():
    t0 = time.time()
    assert C.radial_rank(2, 3) == 1
    assert C.radial_rank(4, 4) == 26
    assert C.radial_rank(3, 5) == 26
    assert C.radial_rank(5, 5) == 155
    assert C.radial_rank(4, 6) == 155
    for x in range(3, 21):
        assert C.radial_rank(2, x) == (x - 1) * (x - 2) // 2
        assert C.radial_rank(3, x) == (x - 2) * comb(x + 1, 2) \
            - comb(x + 1, 3) + 1
    dt = time.time() - t0
    _report(1, dt < 1.0, "exact values and closed forms, %.2fs" % dt)


def test_criterion_02_counting_identities(store):
    t0 = time.time()
    checked = 0
    for s in CORPUS:
        for n in (4, 5):
            t = store.ts(s, n)
            ess = T.essential_vertices(t)
            c1, _ = C.count_critical_cells(t, n)
            dg = store.delta(s, n)  # its vertices are the stamped cells
            assert c1 == dg.num_vertices == sum(
                C.radial_rank(n, t.degree(a)) for a in ess)
            # the cells labelled (a, d, k) by cub_label, against the
            # refined count and the sizes of the closed quotient
            keys = [(c.a, *C.cub_label(c)) for c in dg.cells]
            sizes, _ = C.cub_quotient(t, n)

            def refined(a, d):
                for k in range(2, n - 1):
                    got = sum(1 for key in keys
                              if key[:2] == (a, d) and key[2] >= k)
                    assert got == C.radial_rank(n - k, t.degree(a))
                    assert got == sum(sizes[a, d, j] for j in range(k, n - 1))

            for a in ess:
                for d in range(1, t.degree(a)):
                    child = t.children[a][d - 1]
                    has_ess = any(
                        E.in_subtree(t, child, b) for b in ess if b != a)
                    if not has_ess:
                        continue
                    refined(a, d)
                    checked += n - 3
                # toward the basepoint side (direction 0): essential
                # vertices not below a
                if any(not E.in_subtree(t, a, b) for b in ess if b != a):
                    refined(a, 0)
                    checked += n - 3
    dt = time.time() - t0
    _report(2, dt < 60, "%d refined counts on %d trees, %.1fs"
            % (checked, len(CORPUS), dt))


def test_criterion_03_oracle_agreement():
    t0 = time.time()
    runs = []
    for deg in (3, 4, 5):
        for n in (4, 5):
            runs.append((radial_tree(deg), n))
    for d1 in (3, 4):
        for d2 in (3, 4):
            if d1 <= d2:
                runs.append((path_tree([d1, d2]), 4))
    runs.append((T_MIN, 4))
    done = 0
    for text, n in runs:
        t = T.parse_tree(text)
        rep = O.verify_morse_counts(t, n)
        assert rep["pass"] is True, rep
        # the brute-force complex too, apart from the Świątkowski one
        cx = O.build_complex(O.subdivide_exact(t, n), n, max_dim=3)
        assert list(O.betti(cx)) == [1, *rep["morse"]], (text, n)
        done += 1
    dt = time.time() - t0
    _report(3, dt < 600, "%d homology comparisons, %.1fs" % (done, dt))


def test_criterion_04_round_trip_rigidity(store):
    t0 = time.time()
    trips = decided = 0
    for s in CORPUS:
        base = T.parse_tree(s)
        for n in (4, 5):
            dg = store.delta(s, n)
            h = D.hierarchy(dg)
            roots = h.maximal if h.ns else [None]
            for r in roots:
                tr = D._grow_tree(*D._reconstruct(dg, n, r))
                assert T.trees_homeomorphic(tr, base), (s, n, r)
                trips += 1
            assert D.decide_isomorphic((base, n), dg), (s, n)
            # b1 cannot tell these apart; the trees must
            for other in CORPUS:
                odg = store.delta(other, n)
                if other != s and odg.num_vertices == dg.num_vertices:
                    assert not D.decide_isomorphic((base, n), odg), \
                        (s, other, n)
                    decided += 1
    dt = time.time() - t0
    _report(4, dt < 300, "%d reconstructions, %d same-b1 decisions, %.1fs"
            % (trips, decided, dt))


def test_criterion_05_edge_count(store):
    for s in CORPUS:
        for n in (4, 5):
            t = store.ts(s, n)
            _, c2 = C.count_critical_cells(t, n)
            assert len(store.delta(s, n).edges) == c2, (s, n)
            assert (c2 == 0) == (len(T.essential_vertices(t)) <= 1), (s, n)
    _report(5, True, "edge count = critical 2-cells on %d trees x {4,5}"
            % len(CORPUS))


def test_criterion_06_detect_n(store):
    checked = 0
    for s in CORPUS:
        if len(T.essential_vertices(T.parse_tree(s))) < 2:
            continue  # a free group: Delta has no edges, n is "unknown"
        for n in (4, 5):
            assert D.detect_n(store.delta(s, n)) == n, (s, n)
            checked += 1
    _report(6, True, "%d detections" % checked)


def test_criterion_07_matrix_properties(store):
    t0 = time.time()
    n = 5
    for s in CORPUS:
        t = store.ts(s, n)
        order = store.order(s, n)
        ms, mt, m = store.matrices(s, n)
        for c in order.cells:
            j = order.ri[c]
            col = F._column_M_c(c, t, order)
            assert col & ((1 << j) - 1) == 0, (s, c)  # lower triangular
        assert E.is_invertible(ms), s
        assert E.is_lower_triangular(m), s
        for c in order.critical:
            if C.classify_exceptional(c) == "II":
                ci = C.corresponding_cell(c)
                want = (1 << order.ri[c]) | (1 << order.ri[ci])
                assert m[order.ri[c]] == want, (s, c)  # M dc2 = dc1 + dc2
            elif not C.classify_exceptional(c):
                vecs = {F.u_vector(w, t, order)
                        for w in F.necessary_witnesses(c, t, order)}
                assert len(vecs) <= 1, (s, c)  # witness independence
    dt = time.time() - t0
    _report(7, True, "all corpus trees at n=5, %.1fs" % dt)


def test_criterion_08_analytic_identities(store):
    t0 = time.time()
    # formal d(d(f)) = 0 for every basic 0-form on every corpus tree
    for s in CORPUS:
        for n in (4, 5):
            t = store.ts(s, n)
            for form in F.basic_0forms(C.enumerate_reduced_1cells(t, n)):
                for term in F.differential(form, t):
                    assert not F.differential(term, t)
    # oracle complexes: delta-delta = 0, and d = delta for all 0-forms
    # plus a 200-form sample of 1-forms
    sampled = 0
    for text, n in [(path_tree([3, 3]), 4), (radial_tree(3), 5)]:
        ts = O.subdivide_exact(T.parse_tree(text), n)
        assert E.check_dd_zero(O.build_complex(ts, n, max_dim=3))
        rep = O.verify_d_equals_delta(
            T.parse_tree(text), n, 200, rng=random.Random(7))
        assert rep["pass"] is True, rep
        sampled += rep["checked"]
    dt = time.time() - t0
    _report(8, True, "%d oracle coboundary checks, %.1fs" % (sampled, dt))


def test_criterion_09_cross_characterization(store):
    t0 = time.time()
    pairs = 0
    for s in CORPUS:
        for n in (4, 5):
            t = store.ts(s, n)
            order = store.order(s, n)
            _, _, m = store.matrices(s, n) if n == 5 else \
                F.build_M(t, n, order)
            crit = order.critical
            terms = {}
            for c in crit:
                col = m[order.ri[c]]
                terms[c] = [order.cells[i]
                            for i in range(order.rm) if col >> i & 1]
            _, joins = C.cub_quotient(t, n)
            joined = {key: set(others) for key, others in joins.items()}
            keys = {c: (c.a, *C.cub_label(c)) for c in crit}
            nf_cache = {}

            def nf(u, v):
                key = frozenset((u, v))
                if key not in nf_cache:
                    nf_cache[key] = F.cup_normal_form(u, v, t, n, order)
                return nf_cache[key]

            for i, c1 in enumerate(crit):
                for c2 in crit[i + 1:]:
                    adj = D.m_cup_adjacent(c1, c2, t)
                    acc = set()
                    for u in terms[c1]:
                        for v in terms[c2]:
                            acc ^= nf(u, v)
                    assert adj == bool(acc), (s, n, c1, c2)
                    assert adj == (keys[c2] in joined.get(keys[c1], ())), \
                        (s, n, c1, c2)
                    pairs += 1
    dt = time.time() - t0
    _report(9, True, "%d critical pairs, %.1fs" % (pairs, dt))


def test_criterion_10_scope_note():
    # Full-scale claims (all finite trees, all n) are not enumerable at
    # desk scale.  Acceptance rests on the exhaustive small corpus:
    # every homeomorphism type with <= 4 essential vertices and degrees
    # <= 5, at n in {4, 5}, which instantiates each structural result
    # the preceding criteria exercise.
    shapes = {1: 0, 2: 0, 3: 0, 4: 0}
    for s in CORPUS:
        shapes[len(T.essential_vertices(T.parse_tree(s)))] += 1
    assert shapes == {1: 3, 2: 6, 3: 18, 4: 75}
    assert len(CORPUS) == 102
    _report(10, True,
            "desk-scale corpus: 102 homeomorphism types, shapes %s"
            % shapes)
