"""
Z/2 cochain machinery on UD_nT: direction counters D / D-bar, basic
forms f(a,x)dc_1...dc_k and their differentials, necessary forms,
annihilators, the <_r order on reduced 1-cells, the change-of-basis
matrices M_omega / M_c / Ms / Mt / M, the flag complex K, and normal
forms for cup products of 1-classes.

coboundary_oracle_check tests d = delta on the brute-force complex of
oracle.py.  It holds that complex's cells only as the keys an
oracle.FormCells makes, and reads them only through it: oracle alone
reads key bits.

GF(2) matrices are stored as lists of columns, each column an int
bitmask of row indices (bit i of cols[j] is the (i, j) entry).
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional

from . import cells as _cells
from .cells import ReducedOneCell


# ---------------------------------------------------------------------------
# direction counters


def _profile(t, a, cell, bar):
    """Tuple of D_{a,i}(cell) (or D-bar) over all directions i at a.

    Each vertex counts in its direction from a; each edge counts in the
    direction of its endpoint farther from * (D) or closer to * (D-bar).
    """
    dirs = t.directions(a)
    prof = [0] * t.degree(a)
    for v in cell.vertices:
        prof[dirs[v]] += 1
    for e in cell.edges:
        prof[dirs[t.parent[e] if bar else e]] += 1
    return tuple(prof)


# ---------------------------------------------------------------------------
# basic forms


class BasicForm(NamedTuple):
    """f(a,x) dc_1 ^ ... ^ dc_k.

    base is (a, x) for the 0-form factor, or None for the constant 1;
    factors is the tuple of reduced 1-cells c_i.  A form with repeated
    factors is identically zero.
    """

    base: Optional[tuple]
    factors: tuple

    def __str__(self):
        parts = []
        if self.base is not None:
            parts.append("f(%d,%s)" % (self.base[0], list(self.base[1])))
        parts.extend("d(%d,%d,%s)" % (c.a, c.d, list(c.x)) for c in self.factors)
        return "^".join(parts) or "1"


def eval_form(form, cell, t):
    """Value of the form on an explicit cell, in Z/2.

    The 0-form factor f(a,x) is 1 iff the D- or the D-bar-profile of the
    cell at a equals x.  Each dc factor is the characteristic function
    of the 1-cell class of c: 1 iff the cell contains c's edge and its
    D-profile at c.a equals c.x.
    """
    if len(set(form.factors)) != len(form.factors):
        return 0
    if form.base is not None:
        a, x = form.base
        if _profile(t, a, cell, False) != x and _profile(t, a, cell, True) != x:
            return 0
    for c in form.factors:
        iota = t.children[c.a][c.d - 1]
        if iota not in cell.edges:
            return 0
        if _profile(t, c.a, cell, False) != c.x:
            return 0
    return 1


def _differential_terms(t, a, x, include_extraneous):
    """Reduced 1-cells whose dc appears in df(a,x).

    Terms are d(a,d',x) for every direction d' with x[d'] >= 1, plus
    d(a,d',x - e_0 + e_d') for every d' when x[0] >= 1.  No two terms
    coincide, so there is no mod-2 cancellation.  Extraneous terms exist
    as cochains but vanish in the quotient complex; they are kept only
    when requested (for raw-coboundary checks against the oracle).
    """
    deg = t.degree(a)
    out = []
    for dp in range(1, deg):
        if x[dp] >= 1:
            out.append(ReducedOneCell(a, dp, tuple(x)))
        if x[0] >= 1:
            y = list(x)
            y[0] -= 1
            y[dp] += 1
            out.append(ReducedOneCell(a, dp, tuple(y)))
    if include_extraneous:
        return out
    return [c for c in out if _cells.is_valid_reduced(c, t)]


def basic_0forms(cells):
    """The basic 0-forms f(a,x), one per distinct (a, x) of the cells,
    in order of first appearance."""
    return [BasicForm(base, ())
            for base in dict.fromkeys((c.a, c.x) for c in cells)]


def differential(form, t, include_extraneous=False):
    """d(f(a,x) dc_1 ... dc_k) = df(a,x) ^ dc_1 ^ ... ^ dc_k, as the
    frozenset of its basic-form terms (a Z/2 sum)."""
    if form.base is None:
        return frozenset()
    a, x = form.base
    return frozenset(
        BasicForm(None, (c,) + form.factors)
        for c in _differential_terms(t, a, x, include_extraneous))


def coboundary_oracle_check(form, cells):
    """True iff d(form) agrees with the cochain coboundary of form on
    every 2-cell of UD_nT on the tree cells.t itself (so that vertex ids
    agree); cells is an oracle.FormCells, and form has a 0-form factor
    f(a,x) with a essential.

    Both sides are compared as sets of 2-cells.  delta(form) is the XOR
    of the cofaces of the 1-cells in the support of the form: cells
    whose D- or D-bar-profile at a is x and that lie over the edge of
    every dc factor.  A term of d(form) is nonzero only on 2-cells over
    its edges whose D-profile at the vertex of its first factor c is
    c.x.  cells makes only those cells; eval_form decides every value,
    on a cell cells decodes for it.
    """
    t, (a, x) = cells.t, form.base
    delta = set()
    for key in cells.support(a, x, _edges(form, t)):
        cell = cells.cell(key)
        if eval_form(form, cell, t):
            delta.symmetric_difference_update(cells.cofaces(cell))
    d = set()
    for term in differential(form, t, include_extraneous=True):
        c = term.factors[0]
        d.symmetric_difference_update(
            key for key in cells.over(_edges(term, t), c.a, c.x)
            if eval_form(term, cells.cell(key), t))
    return d == delta


def _edges(form, t):
    """The edges of the dc factors of a form."""
    return frozenset(t.children[c.a][c.d - 1] for c in form.factors)


# ---------------------------------------------------------------------------
# necessary forms and annihilators


def is_necessary(form, t):
    """The necessary reduced 1-cell of the form, or None.

    k=0: f(a,x) is necessary iff (a,d*,x), d* the smallest direction
    with x[d*] >= 1, is a reduced noncritical 1-cell; that cell is the
    necessary cell.  k=1: f(a,x)dc_1 is necessary iff there is a cell
    (a,d,x) whose class has an upper bound with [c_1] such that its edge
    is the unique respectful edge in the reduced representative of the
    least upper bound; RuntimeError if more than one d qualifies.
    """
    if form.base is None:
        return None
    a, x = form.base
    if a >= len(t) or t.degree(a) != len(x):
        return None
    if not form.factors:
        d = next((i for i in range(1, len(x)) if x[i] >= 1), None)
        if d is None:
            return None
        c = ReducedOneCell(a, d, tuple(x))
        if _cells.is_valid_reduced(c, t) and not _cells.is_critical(c):
            return c
        return None
    if len(form.factors) != 1:
        raise ValueError("only 0- and 1-forms are in scope")
    c1 = form.factors[0]
    if c1.a == a:
        return None
    found = []
    for d in range(1, len(x)):
        if x[d] < 1:
            continue
        c = ReducedOneCell(a, d, tuple(x))
        # e is the unique respectful edge of the least upper bound
        if (_cells.is_valid_reduced(c, t) and
                _cells.edge_disrespectful_in_lub(c, c1, t) == (False, True)):
            found.append(c)
    if len(found) > 1:
        raise RuntimeError("necessary 1-cell is not unique: %r" % (found,))
    return found[0] if found else None


def annihilate(c_factors, s, t):
    """A_{c_1..c_k}(s): keep the terms dc of the sum s whose class is
    distinct from every [c_i] and such that {[c_1],..,[c_k],[c]} has an
    upper bound (pairwise tests suffice for k <= 1)."""
    return frozenset(
        term for term in s if term.factors[0] not in c_factors
        and all(_cells.upper_bound_exists(term.factors[0], ci, t)
                for ci in c_factors))


# ---------------------------------------------------------------------------
# exceptional cells and the <_r order (their rules live in cells)


def classify_exceptional(c):
    """cells.classify_exceptional, under the name that perfbench/tracer.py
    counts calls to."""
    return _cells.classify_exceptional(c)


class ROrder:
    """Total order <_r on all non-extraneous reduced 1-cells.

    cells lists them in <_r order, stamped from the per-degree templates
    cells.r_template, which are sorted once per (n, degree), and ri
    indexes them (0-based); critical is the critical subsequence.
    critical_runs cuts the critical cells into maximal runs of equal
    (a, x[0]); <_r sorts by a and then by -x[0], so the runs concatenate
    to critical.
    """

    def __init__(self, t, n):
        self.cells = cells = _cells.stamp(
            t, n, lambda deg: _cells.r_template(n, deg))
        self.ri = {c: i for i, c in enumerate(cells)}
        self.critical = [c for c in cells if _cells.is_critical(c)]
        self.critical_runs = [
            list(run) for _, run in
            groupby(self.critical, key=lambda c: (c.a, c.x[0]))]
        self.rm = len(cells)


# ---------------------------------------------------------------------------
# GF(2) matrices (columns as int bitmasks)


def identity_matrix(m):
    return [1 << j for j in range(m)]


def mat_vec(cols, v):
    """Matrix-vector product over GF(2); v an int bitmask."""
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def mat_mul(a_cols, b_cols):
    return [mat_vec(a_cols, col) for col in b_cols]


# ---------------------------------------------------------------------------
# the matrices M_omega, M_c, Ms, Mt, M


def u_vector(form, t, order):
    """u_omega: indicator bitmask of the nonzero terms of
    A_{c_1..c_k}(df(a,x)) in ROrder coordinates."""
    df = differential(BasicForm(form.base, ()), t)
    u = 0
    for term in annihilate(form.factors, df, t):
        u |= 1 << order.ri[term.factors[0]]
    return u


def necessary_witnesses(c, t, order):
    """All necessary 1-forms f(a,x)dc_1, c_1 critical, whose necessary
    cell is c, in the <_r order of c_1.

    For c_1 over a vertex b > c.a, upper_bound_exists and is_necessary
    depend on c_1 only through direction(c.a, b) and x[0]: the Upper
    Bound Lemma, and the flag of c_1's edge in the least upper bound is
    is_critical(c_1), true for every critical c_1.  So the first cell of
    each run in order.critical_runs over such a b decides the run.

    For c_1 over b < c.a the cells over c.a are the larger ones, so the
    flag of the edge of a candidate (c.a, d, c.x) in the least upper
    bound is is_critical of that candidate.  is_necessary wants that
    edge respectful, so it can only return a noncritical cell: a
    critical c has no witness there, and those runs are skipped.  For a
    noncritical c they are tested one cell at a time.
    """
    base = (c.a, c.x)
    critical = _cells.is_critical(c)

    def is_witness(c1):
        return (_cells.upper_bound_exists(c, c1, t)
                and is_necessary(BasicForm(base, (c1,)), t) == c)

    out = []
    for run in order.critical_runs:
        b = run[0].a
        if b > c.a:
            if is_witness(run[0]):
                out.extend(BasicForm(base, (c1,)) for c1 in run)
        elif b < c.a and not critical:
            out.extend(BasicForm(base, (c1,)) for c1 in run if is_witness(c1))
    return out


def _column_M_c(c, t, order):
    """The ri(c)-th column of M_c (all other columns are identity).

    noncritical: u_omega of the 0-form f(a,x) with the diagonal bit
    cleared.  critical necessary (non-exceptional): u_omega of any
    witness 1-form.  Type II: identity bit plus a 1 in the row of the
    corresponding Type I cell.  Type III: 1s at c and at (a,d,y_i) for
    y_i = x - e_0 + e_i, i != d.  Otherwise the identity column.
    """
    j = order.ri[c]
    if not _cells.is_critical(c):
        u = u_vector(BasicForm((c.a, c.x), ()), t, order)
        return u & ~(1 << j)
    kind = classify_exceptional(c)
    if kind == "I":
        return 1 << j
    if kind == "II":
        return (1 << j) | (1 << order.ri[_cells.corresponding_cell(c)])
    if kind == "III":
        u = 1 << j
        for i in range(1, t.degree(c.a)):
            if i == c.d:
                continue
            y = list(c.x)
            y[0] -= 1
            y[i] += 1
            u |= 1 << order.ri[ReducedOneCell(c.a, c.d, tuple(y))]
        return u
    witnesses = necessary_witnesses(c, t, order)
    if not witnesses:
        return 1 << j
    return u_vector(witnesses[0], t, order)


def build_M(t, n, order=None):
    """(Ms, Mt, M): Ms the product of critical M_c (<_r-largest
    rightmost), Mt of noncritical M_c (<_r-smallest rightmost),
    M = Mt * Ms."""
    order = order or ROrder(t, n)
    # right-multiplying by a matrix that is identity off column j
    # replaces column j of the accumulator with accumulator * u
    ms = identity_matrix(order.rm)
    for c in order.cells:  # increasing <_r; leftmost factor first
        if _cells.is_critical(c):
            j = order.ri[c]
            ms[j] = mat_vec(ms, _column_M_c(c, t, order))
    mt = identity_matrix(order.rm)
    for c in reversed(order.cells):  # decreasing <_r
        if not _cells.is_critical(c):
            j = order.ri[c]
            mt[j] = mat_vec(mt, _column_M_c(c, t, order))
    return ms, mt, mat_mul(mt, ms)


# ---------------------------------------------------------------------------
# the flag complex K


def build_complex_K(t, n):
    """(cells, edges): K for n in {4,5}.  Its vertices are all
    non-extraneous reduced 1-cells, and edges holds the index pairs
    (i, j), i < j, of the cells whose classes have an upper bound, each
    pair once.  template_joins decides upper_bound_exists once per
    (degree, alpha, y0) and template position."""
    cells, joins = _cells.template_joins(
        t, n, lambda deg: _cells.degree_template(n, deg),
        lambda c1, c2: _cells.upper_bound_exists(c1, c2, t))
    edges = [(i + p, j) for i, ps, bucket in joins for p in ps for j in bucket]
    return cells, edges


# ---------------------------------------------------------------------------
# cup product normal forms


_ZERO = frozenset()


def cup_normal_form(c1, c2, t, n, order=None):
    """Expansion of [dc1 ^ dc2] over the critical-2-cell basis.

    Returns a frozenset of frozenset pairs of critical 1-cells, each
    pair naming the critical 2-cell that is the least upper bound of its
    classes.  A zero product is always the one shared empty frozenset,
    so callers that memoize every pair hold no object per zero.  Cells
    over one vertex return it before any pair is decided, and a pair
    with no upper bound (edge_disrespectful_in_lub gives None) once that
    one call has decided it.  Otherwise the expansion is a Z/2 sum,
    worked off a list of (p, q, flags) starting from c1, c2: a pair is
    put on the list only when its one call gives flags, one whose least
    upper bound is critical is added to the sum, and any other is
    replaced by (cell, other) for each cell of the coboundary support
    chain of its pivot.  That chain comes from the relations of the
    presentation: the necessary 1-form witnessing the respectful edge,
    or the necessary 0-form of a noncritical member.  Each replacement
    trades the pivot for strictly <_r-larger cells over the same vertex,
    so the list runs out.  n and order are not read; they stay for
    callers that pass them.
    """
    if c1.a == c2.a:
        return _ZERO
    flags = _cells.edge_disrespectful_in_lub(c1, c2, t)
    if flags is None:
        return _ZERO
    out = set()
    work = [(c1, c2, flags)]
    while work:
        p, q, (p_dis, q_dis) = work.pop()
        if p.a > q.a:
            p, q, p_dis, q_dis = q, p, q_dis, p_dis
        if p_dis and q_dis:  # the least upper bound is critical
            out ^= {frozenset((p, q))}
            continue
        # the pivot owns the respectful edge: p when q's edge is
        # disrespectful (p is then the necessary cell of f(p)dq), else
        # the noncritical q (rewritten via its necessary 0-form)
        pivot, other = (p, q) if q_dis else (q, p)
        work.extend((cell, other, f) for cell in _differential_terms(
            t, pivot.a, pivot.x, False) if cell != pivot
            and (f := _cells.edge_disrespectful_in_lub(cell, other, t)))
    return frozenset(out) if out else _ZERO
