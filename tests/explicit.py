"""Reference helpers that only tests read: explicit blocked cells of
reduced cells and of least upper bounds, tree classification, GF(2)
rank and matrix predicates, the dd = 0 check of an oracle complex, cup
normal forms by <_r-sorted rewriting, and the DOT picture of the
neighborhood hierarchy.

Explicit cells name each occupied edge by its endpoint farther from *
(see tree.py); occupied vertices and edge closures are pairwise
disjoint.
"""

from itertools import islice

from treebraid import cells as C, delta as D, forms as F, oracle as O, \
    tree as T
from treebraid.oracle import ExplicitCell


def in_subtree(t, v, u):
    """True iff u lies in the subtree rooted at v (u == v counts)."""
    return v <= u < t._subtree_end[v]


def walk_chain(t, start, count):
    """The first `count` vertices of the degree-2 chain from `start`
    (inclusive), walking away from the root."""
    out = list(islice(T._chain(t, start), count))
    if len(out) != count:
        raise ValueError("insufficient subdivision for stacking")
    return out


def stack(t, a, d, x):
    """Explicit occupancy of the (possibly partial) reduced cell (a,d,x):
    returns (vertex list, edge list).  sum(x) need not equal n (used for
    the upper-bound construction)."""
    path = []  # from * toward a
    u = t.parent[a]
    while u is not None:
        path.insert(0, u)
        u = t.parent[u]
    if len(path) < x[0]:
        raise ValueError("insufficient subdivision near *")
    verts, edges = path[:x[0]], []
    for i in range(1, t.degree(a)):
        first = t.children[a][i - 1]
        if i == d:  # the edge, plus x[d]-1 vertices stacked beyond it
            edges.append(first)
            if x[d] > 1:
                verts += walk_chain(t, t.children[first][0], x[d] - 1)
        elif x[i] > 0:
            verts += walk_chain(t, first, x[i])
    return verts, edges


def to_explicit(c, t, n):
    """Concrete blocked cell of UD_nT realizing the reduced 1-cell c."""
    if sum(c.x) != n:
        raise ValueError("cell %r does not have %d strands" % (c, n))
    verts, edges = stack(t, c.a, c.d, c.x)
    cell = ExplicitCell(frozenset(verts), frozenset(edges))
    if len(cell.vertices) + len(cell.edges) != n:
        raise RuntimeError("stacking %r gave a cell of another size" % (c,))
    return cell


def from_explicit(cell, t):
    """Invert to_explicit: recover (a, d, x) from a one-edge reduced cell."""
    if len(cell.edges) != 1:
        raise ValueError("expected a 1-cell")
    (iota,) = cell.edges
    a = t.parent[iota]
    return C.ReducedOneCell(a, T.direction(t, a, iota),
                            F._profile(t, a, cell, False))


def lub_reduced(c1, c2, t, n):
    """Least upper bound 2-cell: s1 = c1 with x[alpha] reduced by
    n - y[0], union s2 = c2 minus its direction-0 vertices."""
    if c1.a > c2.a:
        c1, c2 = c2, c1
    if not C.upper_bound_exists(c1, c2, t):
        raise ValueError("no upper bound")
    if sum(c1.x) != n:
        raise ValueError("cells %r and %r do not have %d strands"
                         % (c1, c2, n))
    x1 = list(c1.x)
    x1[T.direction(t, c1.a, c2.a)] -= n - c2.x[0]
    v1, e1 = stack(t, c1.a, c1.d, x1)
    v2, e2 = stack(t, c2.a, c2.d, (0,) + c2.x[1:])
    verts, edges = frozenset(v1 + v2), frozenset(e1 + e2)
    if len(verts) != len(v1) + len(v2) or len(edges) != 2 \
            or len(verts) + 2 != n:
        raise RuntimeError("least upper bound of %r and %r is not a 2-cell"
                           " on %d strands" % (c1, c2, n))
    return ExplicitCell(verts, edges)


def essential_adjacency(t):
    """Map essential vertex -> list of essential vertices adjacent to it
    (connected by a path crossing no other essential vertex)."""
    return {v: [u for u in nb if t.degree(u) >= 3]
            for v, nb in T._suppressed_adjacency(t).items()
            if t.degree(v) >= 3}


def is_extremal(t, v):
    """True iff v is essential and adjacent to exactly one other
    essential vertex."""
    return len(essential_adjacency(t).get(v, ())) == 1


def is_linear(t):
    """True iff some embedded segment contains every essential vertex."""
    return all(len(nb) <= 2 for nb in essential_adjacency(t).values())


def is_radial(t):
    """True iff t has exactly one essential vertex."""
    return len(T.essential_vertices(t)) == 1


def is_lower_triangular(cols):
    return all(col & ((1 << j) - 1) == 0 for j, col in enumerate(cols))


def rank_gf2(cols):
    """Rank of a GF(2) matrix given as int-bitmask columns (bit i is row
    i)."""
    return sum(O._independent(cols))


def is_invertible(cols):
    """GF(2) invertibility of a square matrix: full rank."""
    return rank_gf2(cols) == len(cols)


def check_dd_zero(complex_):
    """ddc = 0 over Z/2 for every cell of dimension >= 2."""
    for k in range(2, len(complex_.faces)):
        lower = list(map(O._column, complex_.faces[k - 1]))
        for row in complex_.faces[k]:
            acc = 0
            for f in row:  # a face listed twice cancels in the XOR
                acc ^= lower[f]
            if acc:
                return False
    return True


def sorted_cup_normal_form(c1, c2, t, order):
    """forms.cup_normal_form by rewriting a Z/2 set of pairs in <_r
    order: at each step the pair whose sorted <_r indices come first
    among those whose least upper bound is not critical is replaced by
    its pivot's support chain, until none is left."""
    if c1 == c2 or not C.upper_bound_exists(c1, c2, t):
        return frozenset()
    work = {frozenset((c1, c2))}

    def rank(c):
        return order.ri[c]

    for _ in range(order.rm * order.rm):
        target = None
        for pair in sorted(work, key=lambda p: sorted(map(rank, p))):
            if not all(C.edge_disrespectful_in_lub(*pair, t)):
                target = pair
                break
        if target is None:
            return frozenset(work)
        p, q = sorted(target, key=lambda c: c.a)
        _, q_disrespectful = C.edge_disrespectful_in_lub(p, q, t)
        pivot, other = (p, q) if q_disrespectful else (q, p)
        work ^= {target}
        work ^= {frozenset((cell, other))
                 for cell in F._differential_terms(t, pivot.a, pivot.x, False)
                 if cell != pivot and C.upper_bound_exists(cell, other, t)}
    raise RuntimeError("cup product rewriting did not terminate")


def hierarchy_to_dot(delta, pruned=False, n=None):
    """DOT text for H' (or H when pruned=True, which requires n): the
    auxiliary node p_1 joined to the root class, and the Hasse edges
    among the root's descendants.  Pruning keeps the classes that
    reconstruct_tree keeps (all of them when no pruning child exists)."""
    if not delta.classes:
        return "graph H {\n}"
    h = D.hierarchy(delta)
    root = h.maximal[0]
    desc = sorted(h.below[root])
    kept = D._pruned(h, root, n) if pruned else None
    keep = set(desc if kept is None else kept)
    lines = ["graph H {", '  p1 [label="p_1"];']
    lines += ['  c%d [label="[%s]"];' % (v, h.classes[v][0])
              for v in desc if v in keep]
    lines.append("  c%d -- p1;" % root)
    # each Hasse edge is written with its ends in string order
    lines += ["  c%s -- c%s;" % tuple(sorted(map(str, (i, j))))
              for i in desc for j in h.kids[i] if i in keep and j in keep]
    lines.append("}")
    return "\n".join(lines)
