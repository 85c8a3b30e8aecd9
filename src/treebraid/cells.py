"""
Reduced and critical 1-cells of the discretized configuration space
UD_nT, the exceptional types and the <_r order, upper bounds of pairs,
CUB labels and the CUB quotient, and Betti counts.

A reduced 1-cell is written (a, d, x) where a is an essential vertex, d
a direction at a with d >= 1, and x the a-vector: x[i] counts strands in
direction i from a, with the edge of the cell counted once in direction
d (so x[d] >= 1 and sum(x) = n).  Non-extraneous means some strand lies
off directions {0, d}.  edge_disrespectful_in_lub is the one home of
the Upper Bound Lemma: it decides a pair of cells in one call.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import comb
from operator import mul
from typing import NamedTuple

from . import tree as _tree


class ReducedOneCell(NamedTuple):
    a: int
    d: int
    x: tuple

    def to_json(self):
        return {"a": self.a, "d": self.d, "x": list(self.x)}


def is_valid_reduced(c, t):
    """Structural validity of a reduced 1-cell triple (non-extraneous)."""
    if c.a >= len(t) or t.degree(c.a) < 3:
        return False
    deg = t.degree(c.a)
    if len(c.x) != deg or not (1 <= c.d <= deg - 1):
        return False
    if any(v < 0 for v in c.x) or c.x[c.d] < 1:
        return False
    return any(c.x[i] >= 1 for i in range(deg) if i not in (0, c.d))


def is_critical(c):
    """True iff the cell's edge is disrespectful: some strand lies in a
    direction strictly between 0 and d, that is, x[1:d] has a nonzero
    entry (a-vectors are nonnegative; is_valid_reduced refuses the
    rest)."""
    return any(c.x[1:c.d])


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def degree_template(n, deg):
    """The (d, x) pairs of the non-extraneous reduced 1-cells at a vertex
    of degree deg, in enumeration order: by d, then x in the order of
    _compositions.  Non-extraneous means n - x[0] - x[d] >= 1.  Each x
    is one tuple shared by all its d, so stamped cells hold no copy per
    d; the critical cells are the subsequence is_critical keeps."""
    xs = list(_compositions(n, deg))
    return [(d, x) for d in range(1, deg) for x in xs
            if x[d] >= 1 and n - x[0] - x[d] >= 1]


def check_subdivided(t, n):
    """Raise ValueError unless t is subdivided for n+2 strands (stamp)."""
    if not _tree.is_sufficiently_subdivided(t, n + 2):
        raise ValueError("tree is not sufficiently subdivided for n+2 strands")


def stamp(t, n, template):
    """The cells whose (d, x) template(deg) lists, at each essential
    vertex of t in id order; template is called once per degree.
    Requires t sufficiently subdivided for n+2 strands."""
    check_subdivided(t, n)
    template, out = cache(template), []
    for a in _tree.essential_vertices(t):
        out.extend([ReducedOneCell(a, d, x) for d, x in template(t.degree(a))])
    return out


def enumerate_reduced_1cells(t, n):
    """All non-extraneous reduced 1-cells of UD_nT, by essential vertex
    a in id order, then by d, then x in the order of _compositions.

    The (d, x) list depends only on the degree of a, so it is built once
    per degree (degree_template) and stamped at every vertex of that
    degree.  Requires t sufficiently subdivided for n+2 strands.
    """
    return stamp(t, n, lambda deg: degree_template(n, deg))


def _exceptional_dirs(c):
    """(dir1, dir2, dir3) for a 5-strand cell with two directions of
    weight >= 2, else None."""
    big = [i for i, v in enumerate(c.x) if v >= 2]
    if len(big) != 2:
        return None
    dir1, dir2 = big
    if c.x[dir1] == 3:
        dir3 = dir1
    elif c.x[dir2] == 3:
        dir3 = dir2
    else:
        dir3 = next(i for i, v in enumerate(c.x) if v == 1)
    return dir1, dir2, dir3


def classify_exceptional(c):
    """"I", "II", "III", or None.  Exceptional cells exist only at n = 5,
    and a cell's strand count is the sum of its a-vector."""
    if sum(c.x) != 5 or not is_critical(c):
        return None
    dirs = _exceptional_dirs(c)
    if dirs is None:
        return None
    dir1, dir2, dir3 = dirs
    if 0 < dir1 < dir2 < dir3:
        if c.d == dir2:
            return "I"
        if c.d == dir3:
            return "II"
    if 0 == dir3 < dir1 < dir2 and c.d == dir2:
        return "III"
    return None


def corresponding_cell(c):
    """The Type II cell matching a Type I cell and vice versa (same a
    and x; the edge moves between directions dir2 and dir3)."""
    kind = classify_exceptional(c)
    if kind not in ("I", "II"):
        raise ValueError("cell has no corresponding exceptional partner")
    dir1, dir2, dir3 = _exceptional_dirs(c)
    return ReducedOneCell(c.a, dir3 if kind == "I" else dir2, c.x)


def r_key(c):
    """The <_r key (a, -x_0, d, x), except that a Type I or II cell
    (n = 5) takes the d of its corresponding cell.  The pair shares a
    and x, so the two trade places and the Type II cell is the
    smaller."""
    if classify_exceptional(c) in ("I", "II"):
        return (c.a, -c.x[0], corresponding_cell(c).d, c.x)
    return (c.a, -c.x[0], c.d, c.x)


@cache
def r_template(n, deg):
    """degree_template(n, deg) in <_r order, as a tuple of (d, x): sorted
    by r_key once per (n, deg) and kept (a tuple, as every caller gets
    this one object).  <_r sorts by vertex first, so stamping it at every
    vertex in id order gives the whole order."""
    cells = [ReducedOneCell(0, d, x) for d, x in degree_template(n, deg)]
    return tuple((c.d, c.x) for c in sorted(cells, key=r_key))


def upper_bound_exists(c1, c2, t):
    """Whether {[c1],[c2]} has an upper bound (edge_disrespectful_in_lub)."""
    return edge_disrespectful_in_lub(c1, c2, t) is not None


def edge_disrespectful_in_lub(c1, c2, t):
    """The Upper Bound Lemma and the flags of the least upper bound.

    With (a, d, x) and (b, e, y) the cells, a <= b, and alpha the
    direction from a to b, {[c1],[c2]} has an upper bound iff a != b
    and x[alpha] + y[0] >= n + eps, eps = 1 iff d == alpha.  Returns
    None when it has none; else the disrespect flags (for the edge of
    c1, the edge of c2) in the reduced representative of the least
    upper bound, in the argument order given, and that bound is
    critical iff both are true.  Raises ValueError when the cells have
    different strand counts.
    """
    swapped = c1.a > c2.a
    a, b = (c2, c1) if swapped else (c1, c2)
    if a.a == b.a:
        return None
    n = sum(a.x)
    if sum(b.x) != n:
        raise ValueError("cells %r and %r differ in strand count" % (a, b))
    alpha = t.directions(a.a)[b.a]
    reach = a.x[alpha] + b.x[0]
    if reach < n + (a.d == alpha):
        return None
    clause_a = 0 < alpha < a.d and reach > n
    clause_b = any(a.x[i] > 0 for i in range(1, a.d) if i != alpha)
    e_flag = clause_a or clause_b
    f_flag = is_critical(b)
    return (f_flag, e_flag) if swapped else (e_flag, f_flag)


def template_joins(t, n, template, decide):
    """(cells, joins): cells = stamp(t, n, template), and joins a
    generator of (i, positions, bucket), one per vertex a and bucket:
    the indices of the cells over vertices b > a with one alpha =
    direction(a, b) and one y0 = x[0].  i is the index of a's first
    cell, and the pairs kept are (i + p, j) for p in positions and j in
    bucket; each pair of cells over distinct vertices is in one bucket.

    positions are the template positions p with decide(cells[i + p],
    cells[bucket[0]]) true, so decide must read the first cell only
    through (d, x) and alpha and the second only through y0.  The
    Upper Bound Lemma lets upper_bound_exists (edge_disrespectful_in_lub
    is not None) do so, and m_cup_adjacent on critical cells too.
    It is called once per (degree of a, alpha, y0) and template
    position, whatever the number of vertices.  Buckets are held for
    one vertex a at a time.
    """
    cells = stamp(t, n, template)

    def joins():
        runs = {}  # vertex -> indices of its cells
        over = {}  # vertex -> y0 -> indices of its cells
        for j, c in enumerate(cells):
            runs.setdefault(c.a, []).append(j)
            over.setdefault(c.a, {}).setdefault(c.x[0], []).append(j)
        verts = sorted(runs)
        passing = {}  # (degree, alpha, y0) -> template positions
        for k, a in enumerate(verts):
            dirs = t.directions(a)
            buckets = {}
            for b in verts[k + 1:]:
                for y0, js in over[b].items():
                    buckets.setdefault((dirs[b], y0), []).extend(js)
            run = runs[a]
            deg = t.degree(a)
            for (alpha, y0), bucket in buckets.items():
                key = (deg, alpha, y0)
                if key not in passing:
                    other = cells[bucket[0]]
                    passing[key] = [p for p, i in enumerate(run)
                                    if decide(cells[i], other)]
                yield run[0], passing[key], bucket

    return cells, joins()


def count_critical_cells(t, n):
    """(b_1, b_2) of B_nT, its critical 1- and 2-cell counts, from the
    essential degrees of t alone, so t may be any tree (subdivision
    keeps them).  With Y = radial_rank, b_1 sums Y(n, deg a), and b_2 is
    half the sum of sizes[p] * sizes[q] over cub_quotient's joins p -> q
    telescoped: the keys q over b that p = (a, delta, k) joins have
    Y(k, deg b) - Y(1, deg b) = Y(k, deg b) cells."""
    degs = [t.degree(a) for a in _tree.essential_vertices(t)]
    b2 = 0
    for k in range(2, n - 1):
        s = [radial_rank(n - k, x) - radial_rank(n - k - 1, x) for x in degs]
        y = [radial_rank(k, x) for x in degs]
        b2 += sum(s) * sum(y) - sum(map(mul, s, y))  # all pairs less a = b
    return sum(radial_rank(n, x) for x in degs), b2 // 2


def cup_constant(c, dprime):
    """epsilon_c(d'): 0 if d' = 0 or d' > d; 0 if 0 < d' < d and some
    other index in (0, d) is occupied; 0 if c is exceptional of Type I
    (a 5-strand cell, see classify_exceptional); else 1."""
    if dprime == 0 or dprime > c.d:
        return 0
    if 0 < dprime < c.d and any(
            c.x[i] > 0 for i in range(1, c.d) if i != dprime):
        return 0
    if classify_exceptional(c) == "I":
        return 0
    return 1


def cub_label(c):
    """(delta, k): the direction of a critical cell c of at most five
    strands with CUB number k = x[delta] - cup_constant(c, delta) >= 2,
    or ().  Of a Type I or II cell's two, dir1 < dir2, Type I takes
    dir1, II dir2."""
    dirs = [i for i, v in enumerate(c.x) if v >= 2]  # cup_constant >= 0
    kind = len(dirs) == 2 and classify_exceptional(c)
    if kind in ("I", "II"):
        dirs = [dirs[0 if kind == "I" else 1]]
    for delta in dirs:
        k = c.x[delta] - cup_constant(c, delta)
        if k >= 2:
            return delta, k
    return ()


@cache
def labelled_template(n, deg):
    """(template, labelled): the critical subsequence of r_template(n,
    deg), sharing its (d, x) pairs, and the (p, delta, k) of each
    position p whose cell has the CUB label (delta, k).  Made once per
    (n, deg) and kept; nothing evicts them."""
    template = tuple(dx for dx in r_template(n, deg)
                     if is_critical(ReducedOneCell(0, *dx)))
    labels = [cub_label(ReducedOneCell(0, *dx)) for dx in template]
    return template, tuple((p, *lab) for p, lab in enumerate(labels) if lab)


def cub_quotient(t, n):
    """(sizes, joins): the CUB (cup-upper-bound) rule on the tree.  A
    key (a, delta, k) is an essential vertex a, a direction delta from
    a that holds another essential vertex, and 2 <= k <= n - 2; sizes
    maps it to Y_{n-k}(deg a) - Y_{n-k-1}(deg a), the number of cells at
    a with CUB number k toward delta, and joins to the keys (b, epsilon,
    l) with b != a, direction(a, b) = delta, direction(b, a) = epsilon
    and k + l >= n.  The joined pairs of cells number b_2, and for n <=
    5 the keys are the twin classes of Delta, joined as joins says
    (source paper; Farley-Sabalka, JPAA 212 (2008))."""
    joins = {}
    rows = {a: t.directions(a) for a in _tree.essential_vertices(t)}
    for a, b in permutations(rows, 2):
        alpha, beta = rows[a][b], rows[b][a]
        for k in range(2, n - 1):
            joins.setdefault((a, alpha, k), []).extend(
                [(b, beta, l) for l in range(n - k, n - 1)])
    # a size depends only on deg a and k: one Y difference per pair
    degs = {a: t.degree(a) for a, _, _ in joins}
    size = {(x, k): radial_rank(n - k, x) - radial_rank(n - k - 1, x)
            for x in set(degs.values()) for k in range(2, n - 1)}
    return {(a, d, k): size[degs[a], k] for a, d, k in joins}, joins


def radial_rank(n, x):
    """Y_n(x): the first Betti number of B_n of a radial tree whose
    essential vertex has degree x (free of this rank; 0 when n = 1).

    The sum over directions i = 2..x-1 of C(n+x-2, n-1) - C(n+x-i-1,
    n-1) closes, by the hockey-stick identity, to (x-2) C(n+x-2, n-1) -
    C(n+x-2, n) + 1, so a call costs two binomials whatever x is."""
    if n < 1 or x < 3:
        raise ValueError("radial_rank requires n >= 1 and x >= 3")
    return (x - 2) * comb(n + x - 2, n - 1) - comb(n + x - 2, n) + 1
