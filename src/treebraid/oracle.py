"""
Homology of tree braid groups computed apart from the Morse-theoretic
modules, in two complexes.

The brute-force one is the discretized configuration space UD_nT: cells
are enumerated directly as sets of n pairwise-disjoint closed vertices
and edges of a subdivided tree, each held as an int key, with face maps
(replace each edge by either endpoint).  The d = delta identity is
checked on it without building it: FormCells makes, as keys, only the
cells that one form's check reads, and a cell is decoded into an
ExplicitCell only where a form is evaluated on it.  Only this module
reads or writes key bits.

The reduced Świątkowski complex (swiatkowski_betti) needs no
subdivision and has far fewer cells; the critical-cell counts are
checked against its Betti numbers.

Both complexes get their Betti numbers from one GF(2) rank routine,
_homology: every d_k by one column reduction on int-bitmask columns,
those of d_k+1 narrowed to the k-cells whose d_k column is dependent.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product
from math import comb, exp, floor, lgamma, log, log10
from typing import NamedTuple

from . import cells as _cells
from . import forms as _forms
from . import tree as _tree

# the most cells build_complex makes, and the most that
# verify_d_equals_delta checks forms on
COMPLEX_BUDGET = 5_000_000

# int-to-str conversion refuses an int of more digits than this
# (sys.int_info.default_max_str_digits)
_STR_DIGITS = 4300


class BudgetExceeded(RuntimeError):
    """A complex over its cell budget.  estimate is its cell count, or
    None when only the count's number of digits is known.  A count of
    more than 4300 digits, which int-to-str conversion refuses, is
    named by its digit count."""

    def __init__(self, estimate, budget, digits=None):
        if estimate is not None and estimate >= 10 ** _STR_DIGITS:
            digits = _digit_count(estimate)
        what = "%d" % estimate if digits is None \
            else "a %d-digit number of" % digits
        super().__init__(
            "estimated %s cells exceeds budget %d" % (what, budget))


def _digit_count(x):
    """The number of decimal digits of the int x > 0, without str."""
    d = max(int((x.bit_length() - 1) * log10(2)) - 1, 0)  # <= log10(x)
    while 10 ** (d + 1) <= x:
        d += 1
    return d + 1


class CubeComplex:
    """Cells of UD_nT by dimension, with face maps.

    A cell is an int key: bit 2v marks an occupied vertex v and bit
    2e+1 an occupied edge e.  cells_by_dim[k] lists the keys of the
    dimension-k cells, and faces[k][i] the 2k codim-1 face indices of
    cell i (faces[0] is None).
    """

    def __init__(self, cells_by_dim, faces):
        self.cells_by_dim = cells_by_dim
        self.faces = faces


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


def _estimate_cells(V, n, max_dim):
    """Cells of UD_nT through dimension max_dim on a tree of V vertices,
    counted as k edges times n - k strands on V - 2k vertices for each
    k (an upper bound: it counts edge sets whose closures meet)."""
    E = V - 1
    return sum(
        comb(E, k) * comb(max(V - 2 * k, 0), n - k)
        for k in range(0, min(max_dim, n) + 1))


def _log10_estimate(V, n, max_dim):
    """log10 of _estimate_cells(V, n, max_dim) from lgamma, in time
    that does not grow with n; -inf when the estimate is 0."""
    def lcomb(m, k):
        return lgamma(m + 1) - lgamma(k + 1) - lgamma(m - k + 1)

    terms = [lcomb(V - 1, k) + lcomb(V - 2 * k, n - k)
             for k in range(0, min(max_dim, n) + 1)
             if k <= V - 1 and n - k <= V - 2 * k]
    if not terms:
        return float("-inf")
    top = max(terms)
    return (top + log(sum(exp(x - top) for x in terms))) / log(10)


def _check_budget(V, n, max_dim):
    """Raise BudgetExceeded when _estimate_cells(V, n, max_dim) is over
    COMPLEX_BUDGET, read at call time.  An estimate of more than 4300
    digits is not computed (math.comb takes minutes at a million
    digits): its digit count comes from _log10_estimate, so it may be
    one off where that log lies within about 1e-6 of an integer."""
    log_est = _log10_estimate(V, n, max_dim)
    if log_est >= _STR_DIGITS:
        raise BudgetExceeded(None, COMPLEX_BUDGET, floor(log_est) + 1)
    est = _estimate_cells(V, n, max_dim)
    if est > COMPLEX_BUDGET:
        raise BudgetExceeded(est, COMPLEX_BUDGET)


def build_complex(t, n, max_dim=3):
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
    _check_budget(len(t), n, max_dim)
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
    return CubeComplex(keys, faces)


class FormCells:
    """The cells of UD_nT that forms.coboundary_oracle_check reads, made
    for one form at a time as int keys in build_complex's layout, on a
    tree t sufficiently subdivided for the forms' strand count.

    A D-profile (or D-bar-profile) at a fixes how many strands lie in
    each direction from a; an edge counts in the direction of its
    endpoint farther from * (or nearer to it).  So the cells over given
    edges with a given profile are a product, over the directions, of
    combinations of the free vertices there, and each set the check
    reads is a union of such products over the given edges and at most
    one edge more.
    """

    def __init__(self, t):
        self.t = t
        self._bits = {}  # a -> for each direction at a, its vertex bits
        # for each vertex v and neighbour w, the key change that moves
        # the strand on v onto the edge vw, named by its larger end
        self._moves = [
            [(w, (2 << 2 * max(v, w)) - (1 << 2 * v))
             for w in (*t.children[v], t.parent[v]) if w is not None]
            for v in range(len(t))]

    def cell(self, key):
        """The ExplicitCell of a key (decode_cell)."""
        return decode_cell(key)

    def support(self, a, x, edges):
        """Keys of the 1-cells whose edge is in the set edges (any edge
        when it is empty) and whose D- or D-bar-profile at a is x, each
        once.  The two profiles differ only where the edge joins a to a
        child, and there no cell has both."""
        t = self.t
        dirs = t.directions(a)
        for es in self._edge_sets(edges, 1):
            e = es[0]
            for i in {dirs[e], dirs[t.parent[e]]}:
                yield from self._placed(es, a, x, [i])

    def over(self, edges, a, x):
        """Keys of the 2-cells whose edges include the set edges and
        whose D-profile at a is x."""
        dirs = self.t.directions(a)
        for es in self._edge_sets(edges, 2):
            yield from self._placed(es, a, x, [dirs[e] for e in es])

    def cofaces(self, cell):
        """Keys of the 2-cells that have the 1-cell cell, an
        ExplicitCell, as a face: the strand on a vertex v becomes an edge
        at v whose other endpoint is free."""
        (e,) = cell.edges
        key = 2 << 2 * e
        for v in cell.vertices:
            key |= 1 << 2 * v
        closure = (e, self.t.parent[e])
        return [key + move for v in cell.vertices
                for w, move in self._moves[v]
                if w not in cell.vertices and w not in closure]

    def _edge_sets(self, edges, k):
        """The k-tuples of edges with pairwise disjoint closures that
        hold the set edges and at most one edge more."""
        t = self.t
        closure = {*edges, *(t.parent[e] for e in edges)}
        if len(closure) < 2 * len(edges) or not 0 <= k - len(edges) <= 1:
            return []
        if len(edges) == k:
            return [tuple(edges)]
        return [(*edges, f) for f in t.edges()
                if f not in closure and t.parent[f] not in closure]

    def _placed(self, edges, a, x, counted):
        """Keys of the cells over the tuple edges whose profile at a is
        x when edge i counts in direction counted[i]: the n - k strands
        left fill x less those counts from the vertices off the
        edges' closures."""
        need = list(x)
        for i in counted:
            need[i] -= 1
        if min(need) < 0:
            return ()
        parent = self.t.parent
        closure = {1 << 2 * v for e in edges for v in (e, parent[e])}
        sums = [list(map(sum, combinations(
                    [b for b in bits if b not in closure], m)))
                for bits, m in zip(self._branches(a), need)]
        base = sum(2 << 2 * e for e in edges)
        return map(base.__add__, map(sum, product(*sums)))

    def _branches(self, a):
        bits = self._bits.get(a)
        if bits is None:
            bits = self._bits[a] = [[] for _ in range(self.t.degree(a))]
            for v, i in enumerate(self.t.directions(a)):
                bits[i].append(1 << 2 * v)
        return bits


def _independent(columns):
    """For each int-bitmask column in turn (bit i is row i), whether it
    is independent over GF(2) of the columns before it, by
    persistence-style column reduction.  Only the pivots are kept."""
    pivots = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            col ^= piv
        yield col != 0


def _homology(dims, cells):
    """(b_0, b_1, b_2) over GF(2) of a complex with dims[k] cells of
    degree k for k < len(dims) <= 4 (the boundary of degree 3 is needed
    for b_2; a missing degree counts as no cells).  cells(k) yields
    (id, face ids) for each degree-k cell, in the same order at every
    call; the face ids of a degree-0 cell are not read.

    Each d_k is ranked by one column reduction, _independent.  Its rows
    are all the 0-cells for d_1, and for d_k+1 only the k-cells whose
    d_k column depends on the ones before: im d_k+1 lies in ker d_k, and
    a nonzero vector of ker d_k is nonzero on those cells (for d_2: the
    independent columns of d_1 form a spanning forest, and a cycle of
    the 1-skeleton is nonzero off it), so the rank stays and the pivots
    get narrower.
    """
    ranks = [0, 0, 0, 0]
    rows = {key: i for i, (key, _) in enumerate(cells(0))}
    for k in range(1, len(dims)):
        flags = list(_independent(_column(rows[f] for f in faces if f in rows)
                                  for _, faces in cells(k)))
        ranks[k] = sum(flags)
        if k + 1 < len(dims):
            rows = {key: r for r, key in enumerate(
                key for (key, _), f in zip(cells(k), flags) if not f)}
    dims = dims + [0] * (3 - len(dims))
    return (dims[0] - ranks[1], dims[1] - ranks[1] - ranks[2],
            dims[2] - ranks[2] - ranks[3])


def betti(complex_):
    """(b_0, b_1, b_2) over GF(2).

    Requires the complex built through dimension min(3, n) so that the
    image of d_3 is available for b_2 (d_3 is zero when absent).
    """
    keys, faces = complex_.cells_by_dim, complex_.faces
    return _homology(list(map(len, keys)),
                     lambda k: enumerate(faces[k] if k else keys[0]))


# ---------------------------------------------------------------------------
# the reduced Świątkowski complex (Świątkowski, Colloq. Math. 89 (2001);
# An, Drummond-Cole and Knudsen, Doc. Math. 24 (2019))

# the most cells swiatkowski_betti builds: enough for the path and the
# star of four degree-5 vertices at n = 5 (230 061 cells, 251 MB peak);
# those of eight at n = 4 (637 945 cells) took 2.4 GB and are refused
SWIATKOWSKI_BUDGET = 250_000


def _swiatkowski_generators(t):
    """(|E|, gens) for t with its degree-2 vertices suppressed: edges are
    numbered 0..|E|-1 in the order of their endpoints farther from *, and
    gens has one list per essential vertex v, in vertex order, of the
    pair (e(h), e(h0)) for each half-edge h at v other than its first
    half-edge h0."""
    adj = _tree._suppressed_adjacency(t)
    edge = {u: i for i, u in enumerate(u for u in adj if u)}
    gens = []
    for v, nbrs in adj.items():
        if len(nbrs) >= 3:
            h0, *hs = (edge[max(v, u)] for u in nbrs)
            gens.append([(h, h0) for h in hs])
    return len(edge), gens


def _swiatkowski_cells(n_edges, gens, n, k):
    """The degree-k cells of the weight-n part, each as (key, face keys).

    A cell is k distinct essential vertices, each with one generator,
    times a multiset of n - k edges.  Its key holds the multiplicity of
    edge j in bits s*j.. (2**s > n) and, above them, the 1-based number
    of the generator chosen at essential vertex i in w bits from
    s*|E| + w*i.  The boundary of h - h0 is e(h) + e(h0) mod 2, extended
    as a derivation, so the 2k faces of a cell are its keys with one
    generator dropped and one of that generator's two edges added; they
    are distinct.  Cells come in blocks, one per choice of generators,
    in the order of combinations of the vertices; a block runs through
    the edge multisets in combinations order.
    """
    s = n.bit_length()
    high = s * n_edges
    w = max(map(len, gens), default=0).bit_length()
    monomials = list(map(sum, combinations_with_replacement(
        [1 << s * j for j in range(n_edges)], n - k)))
    for vs in combinations(range(len(gens)), k):
        for cs in product(*(range(1, len(gens[i]) + 1) for i in vs)):
            g = sum(c << high + w * i for i, c in zip(vs, cs))
            moves = [(1 << s * e) - (c << high + w * i)
                     for i, c in zip(vs, cs) for e in gens[i][c - 1]]
            for m in monomials:
                key = g + m
                yield key, [key + d for d in moves]


def swiatkowski_sizes(t, n):
    """Number of cells of each degree 0..min(3, n) in the weight-n part
    of the reduced Świątkowski complex of t, in closed form: the k-th
    elementary symmetric function of the generator counts times the
    number of multisets of n - k edges."""
    n_edges, gens = _swiatkowski_generators(t)
    e = [1, 0, 0, 0]
    for g in gens:
        e = [e[0]] + [a + len(g) * b for a, b in zip(e[1:], e)]
    return [e[k] * comb(n_edges + n - k - 1, n - k)
            for k in range(min(3, n) + 1)]


def swiatkowski_betti(t, n):
    """(b_0, b_1, b_2) of B_nT from the reduced Świątkowski complex.

    The complex needs no subdivision: the tree t is read with its
    degree-2 vertices suppressed.  Each essential vertex v gives one
    generator h - h0 per half-edge h other than a fixed h0, in degree 1
    and weight 1; each edge has weight 1 and any multiplicity.  The
    homology of the weight-n part is H_*(B_nT; Z/2), and tree braid
    groups have torsion-free homology, so these are the integral Betti
    numbers.  The complex is built through degree min(3, n), so that
    b_2 sees the image of d_3, held as int keys, and ranked by
    _homology.

    Raises BudgetExceeded before making any cell when the complex has
    more than SWIATKOWSKI_BUDGET cells.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    dims = swiatkowski_sizes(t, n)
    if sum(dims) > SWIATKOWSKI_BUDGET:
        raise BudgetExceeded(sum(dims), SWIATKOWSKI_BUDGET)
    n_edges, gens = _swiatkowski_generators(t)
    return _homology(dims, lambda k: _swiatkowski_cells(n_edges, gens, n, k))


def verify_morse_counts(t, n):
    """Compare the Betti numbers of the reduced Świątkowski complex
    (swiatkowski_betti) against the Morse-theoretic critical cell
    counts.  Returns a JSON-ready report dict whose cells are that
    complex's cell counts per degree; on budget overflow the report
    says skipped."""
    c1, c2 = _cells.count_critical_cells(t, n)
    report = {
        "tree": _tree.to_text(t),
        "n": n,
        "morse": [c1, c2],
    }
    try:
        b0, b1, b2 = swiatkowski_betti(t, n)
    except BudgetExceeded as exc:
        report["skipped"] = str(exc)
        report["pass"] = None
        return report
    report["b"] = [b0, b1, b2]
    report["cells"] = swiatkowski_sizes(t, n)
    report["pass"] = (b0 == 1 and b1 == c1 and b2 == c2)
    return report


def verify_d_equals_delta(t, n, forms_sample, rng=None):
    """Check d(omega) = delta(omega) for sampled basic forms.

    t is the base (unsubdivided) tree; the cells are those of UD_nT on
    the n+2-subdivided tree, so that form and cell vertices agree, made
    for each form by FormCells.  forms_sample is the number of basic
    1-forms to sample (all basic 0-forms over essential vertices are
    always checked).  An n below 2 raises ValueError
    (tree.subdivided_size) before a negative forms_sample does.
    Returns a report dict.  It says skipped, before the tree is
    subdivided, when UD_nT through degree 2 is over COMPLEX_BUDGET, as
    build_complex would refuse it.
    """
    size = _tree.subdivided_size(t, n)
    if forms_sample < 0:
        raise ValueError("forms sample must be >= 0, got %d" % forms_sample)
    rng = rng or random.Random(0)
    report = {"tree": _tree.to_text(t), "n": n}
    try:
        _check_budget(size, n, 2)
    except BudgetExceeded as exc:
        report["skipped"] = str(exc)
        report["pass"] = None
        return report
    ts = _tree.subdivide_for(t, n)
    cells = FormCells(ts)
    all_cells = _cells.enumerate_reduced_1cells(ts, n)
    pairs = [
        (c, c1) for c in all_cells for c1 in all_cells if c.a != c1.a]
    rng.shuffle(pairs)
    forms = _forms.basic_0forms(all_cells) + [
        _forms.BasicForm((c.a, c.x), (c1,)) for c, c1 in pairs[:forms_sample]]
    failures = [form for form in forms
                if not _forms.coboundary_oracle_check(form, cells)]
    report["checked"] = len(forms)
    report["pass"] = not failures
    report["failures"] = [str(f) for f in failures[:5]]
    return report
