"""
Plane trees with a Morse embedding.

A tree is stored rooted at a degree-1 basepoint * with an ordered
(clockwise) child list at every vertex.  Vertex ids are always the ranks
of the clockwise depth-first traversal from *, so the basepoint is 0 and
``a <= b`` as integers is exactly the order on vertices induced by the
embedding.

Directions at a vertex v are numbered 0..deg(v)-1: direction 0 is the
edge toward * (a vertex lies in direction 0 from itself), and the edge
to the i-th child (0-based) has direction i+1.  At * itself the unique
edge is labelled 1.

Edges are named by their endpoint farther from * (the initial endpoint
iota(e)); the terminal endpoint tau(e) is its parent.
"""

from __future__ import annotations


class TreeSyntaxError(ValueError):
    """Malformed plane-tree text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class PlaneTree:
    """Immutable plane tree rooted at the basepoint (vertex 0)."""

    __slots__ = ("parent", "children", "_subtree_end", "_dirs", "_canon")

    def __init__(self, parent, children):
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        n = len(self.parent)
        if n == 0 or self.parent[0] is not None:
            raise ValueError("vertex 0 must be the root basepoint")
        if len(self.children[0]) != 1 and n > 1:
            raise ValueError("basepoint must have degree exactly 1")
        # preorder-id invariant: children of v all have ids > v, consecutive
        # subtree blocks; _subtree_end[v] is one past the last id in v's subtree
        end = [0] * n
        for v in range(n - 1, -1, -1):
            e = v + 1
            for c in self.children[v]:
                if c <= v:
                    raise ValueError("vertex ids must be preorder ranks")
                e = max(e, end[c])
            end[v] = e
        self._subtree_end = tuple(end)
        self._dirs = [None] * n  # rows of directions(), filled on demand
        self._canon = None  # canonical_form(self), filled on first use

    def __len__(self):
        return len(self.parent)

    def __eq__(self, other):
        return (isinstance(other, PlaneTree)
                and self.parent == other.parent
                and self.children == other.children)

    def __hash__(self):
        return hash((self.parent, self.children))

    def __repr__(self):
        return "PlaneTree(%r)" % (to_text(self),)

    def degree(self, v):
        return len(self.children[v]) + (0 if self.parent[v] is None else 1)

    def edges(self):
        """All edges, named by the endpoint farther from * (iota)."""
        return range(1, len(self.parent))

    def directions(self, a):
        """Tuple whose v-th entry is direction(self, a, v).

        Each child's subtree is a block of consecutive ids, so the row
        is filled in O(|T|) on first use and kept with the tree.
        """
        row = self._dirs[a]
        if row is None:
            row = [0] * len(self.parent)
            for i, c in enumerate(self.children[a], 1):
                end = self._subtree_end[c]
                row[c:end] = [i] * (end - c)
            row = self._dirs[a] = tuple(row)
        return row


def parse_tree(text):
    """Parse plane-tree text ``( child child ... )`` into a PlaneTree.

    The outermost node is the basepoint * and must contain exactly one
    child.  Whitespace is insignificant.
    """
    parent = []
    children = []
    stack = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            vid = len(parent)
            if stack:
                parent.append(stack[-1])
                children[stack[-1]].append(vid)
            else:
                if parent:
                    raise TreeSyntaxError("multiple top-level trees", pos)
                parent.append(None)
            children.append([])
            stack.append(vid)
        elif ch == ")":
            if not stack:
                raise TreeSyntaxError("unmatched ')'", pos)
            stack.pop()
        else:
            raise TreeSyntaxError("unexpected character %r" % ch, pos)
        pos += 1
    if stack:
        raise TreeSyntaxError("unmatched '('", n)
    if not parent:
        raise TreeSyntaxError("empty input", 0)
    if len(children[0]) != 1:
        raise TreeSyntaxError(
            "basepoint must have exactly one child, got %d" % len(children[0]), 0)
    return PlaneTree(parent, children)


def to_text(t):
    """Inverse of parse_tree."""
    # ids are preorder ranks: vertex v opens at step v, and every
    # subtree ending just after v closes there
    closes = [0] * (len(t) + 1)
    for end in t._subtree_end:
        closes[end] += 1
    return "".join("(" + ")" * closes[v + 1] for v in range(len(t)))


def direction(t, frm, to):
    """Direction label at ``frm`` of the first edge on the path frm -> to.

    A vertex lies in direction 0 from itself; at * the unique edge is
    labelled 1.
    """
    return t.directions(frm)[to]


def subdivide_for(t, n):
    """Subdivide ``t`` minimally so it is sufficiently subdivided for n+2
    strands: every path between distinct vertices of degree != 2 has at
    least (n+2)-1 edges.  Plane order and homeomorphism type preserved.
    """
    return _subdivide(t, _need(n))


def subdivided_size(t, n):
    """len(subdivide_for(t, n)), from the chain lengths alone: the
    basepoint plus, for each chain of k edges, max(k, n + 1) vertices.
    Nothing is built, so a caller can refuse an n whose subdivision
    would not fit in memory."""
    need = _need(n)
    return 1 + sum(max(k, need) for k in _chain_lengths(t))


def _need(n):
    """The least chain length subdivide_for gives for n strands."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n + 2) - 1


def is_sufficiently_subdivided(t, n):
    """True iff every path between distinct degree-!=2 vertices has at
    least n-1 edges (Abrams' condition for n strands)."""
    return all(k >= n - 1 for k in _chain_lengths(t))


def _chain_lengths(t):
    """The number of edges of each chain below a vertex of degree != 2;
    every edge lies on exactly one such chain."""
    return (_chain_end(t, c)[1]
            for v in range(len(t)) if t.degree(v) != 2
            for c in t.children[v])


def _chain(t, c):
    """c and the vertices below it along its degree-2 chain, walking
    away from *, down to the first vertex of degree != 2 (inclusive)."""
    yield c
    while t.degree(c) == 2:
        c = t.children[c][0]
        yield c


def _chain_end(t, c):
    """(u, k): u the last vertex of _chain(t, c) and k the number of
    edges from c's parent to u."""
    path = list(_chain(t, c))
    return path[-1], len(path)


def _subdivide(t, need):
    """Copy of t in which every chain below a degree-!=2 vertex has at
    least `need` edges."""
    parent = []
    children = []
    # (old vertex, fresh degree-2 vertices to put above its copy, new
    # parent); children are pushed in reverse so ids come out in preorder
    todo = [(0, 0, None)]
    while todo:
        old_v, pad, par = todo.pop()
        for _ in range(pad + 1):
            v = len(parent)
            parent.append(par)
            children.append([])
            if par is not None:
                children[par].append(v)
            par = v
        for c in reversed(t.children[old_v]):
            u, k = _chain_end(t, c)
            todo.append((u, max(k, need) - 1, par))
    return PlaneTree(parent, children)


def essential_vertices(t):
    """Vertices of degree >= 3, in vertex order."""
    return [v for v in range(len(t)) if t.degree(v) >= 3]


# ---------------------------------------------------------------------------
# homeomorphism canonicalization (degree-2 suppression + centroid AHU)


def _suppressed_adjacency(t):
    """Undirected adjacency of t with all degree-2 vertices suppressed,
    keyed by the vertex ids kept, in id order.

    The basepoint is an ordinary leaf of the tree (it is part of the
    homeomorphism type); only the choice of which leaf is the basepoint
    is forgotten.  It has degree <= 1, so vertex 0 is always kept.
    """
    adj = {v: [] for v in range(len(t)) if t.degree(v) != 2}
    for v in adj:
        for c in t.children[v]:
            u, _ = _chain_end(t, c)
            adj[v].append(u)
            adj[u].append(v)
    return adj


def _rooted(adj, root):
    """(order, parent): the vertices of the tree adj breadth-first from
    root, and the parent of each (None at root)."""
    parent = {root: None}
    order = [root]
    for v in order:  # order grows while it is walked
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def _ahu_code(adj, root):
    """AHU canonical code of the rooted tree (children codes sorted)."""
    order, parent = _rooted(adj, root)
    code = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(
            code[u] for u in adj[v] if u != parent[v])) + ")"
    return code[root]


def _centroids(adj):
    """The vertices of the tree adj whose largest branch is smallest."""
    order, parent = _rooted(adj, next(iter(adj)))
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):  # each vertex after its descendants
        size[parent[v]] += size[v]
    heavy = {v: max([len(order) - size[v]]
                    + [size[u] for u in adj[v] if u != parent[v]])
             for v in order}
    best = min(heavy.values())
    return [v for v in order if heavy[v] == best]


def canonical_form(t):
    """Canonical code of the degree-2-suppressed tree: AHU rooted at the
    centroid (minimum over both centroids when there are two).  Equal
    codes iff homeomorphic.  Computed on first use and kept with t, like
    its direction rows."""
    if t._canon is None:
        adj = _suppressed_adjacency(t)
        t._canon = min(_ahu_code(adj, c) for c in _centroids(adj))
    return t._canon


def trees_homeomorphic(t1, t2):
    """True iff t1 and t2 are homeomorphic as (unbased) trees."""
    return canonical_form(t1) == canonical_form(t2)
