"""Reference computations made apart from ``treebraid``.

Nothing here imports the package under test.  Trees are read from the
same nested-parentheses text the package uses, into plain adjacency
lists, and every answer the benchmark checks is derived from:

- Farley-Sabalka's count of critical 1-cells: b1 = sum over essential
  vertices v of Y_n(deg v) (On the cohomology rings of tree braid
  groups, JPAA 212, 2008);
- the Euler characteristic of UD_nT, counted by a dynamic program over
  the subdivided tree: b2 = chi - 1 + b1, since b0 = 1 and b3 = 0 for
  n <= 5 (a critical k-cell needs two strands at each of k essential
  vertices);
- networkx isomorphism of trees with the degree-2 vertices suppressed
  (homeomorphism) and of graphs (Delta isomorphism).

All walks are iterative, so trees of any depth are fine.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import comb

DEGREES = (3, 4, 5)


# ---------------------------------------------------------------------------
# trees as adjacency lists


def parse(text):
    """Adjacency lists of the tree written as nested parentheses.

    Vertex 0 is the outermost pair (the basepoint).  Raises ValueError
    on malformed text.
    """
    adj = []
    stack = []
    for ch in text:
        if ch == "(":
            v = len(adj)
            adj.append([])
            if stack:
                adj[v].append(stack[-1])
                adj[stack[-1]].append(v)
            elif v:
                raise ValueError("more than one top-level tree")
            stack.append(v)
        elif ch == ")":
            if not stack:
                raise ValueError("unmatched ')'")
            stack.pop()
        elif not ch.isspace():
            raise ValueError("unexpected character %r" % ch)
    if stack or not adj:
        raise ValueError("unbalanced or empty tree text")
    return adj


def emit(adj, root, order=None):
    """Nested-parentheses text of the tree rooted at ``root``; ``order``
    optionally maps a vertex to its children in plane order."""
    out = []
    stack = [(root, None, False)]
    while stack:
        v, par, closing = stack.pop()
        if closing:
            out.append(")")
            continue
        out.append("(")
        stack.append((v, par, True))
        kids = order[v] if order is not None else [u for u in adj[v] if u != par]
        for u in reversed(kids):
            stack.append((u, v, False))
    return "".join(out)


def reembed(text, rng):
    """A random plane embedding of the same tree, based at a random leaf:
    homeomorphic to the input, with a different Morse function."""
    adj = parse(text)
    leaves = [v for v in range(len(adj)) if len(adj[v]) == 1]
    root = rng.choice(leaves)
    order = {}
    stack = [(root, None)]
    while stack:
        v, par = stack.pop()
        kids = [u for u in adj[v] if u != par]
        rng.shuffle(kids)
        order[v] = kids
        stack.extend((u, v) for u in kids)
    return emit(adj, root, order)


def essential_degrees(adj):
    return [len(nb) for nb in adj if len(nb) >= 3]


def suppressed(adj):
    """The tree with every degree-2 vertex suppressed, as a list of
    edges between the kept vertices (all of degree != 2)."""
    keep = [v for v in range(len(adj)) if len(adj[v]) != 2]
    edges = []
    for v in keep:
        for u in adj[v]:
            prev, cur = v, u
            while len(adj[cur]) == 2:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt
            if v < cur:
                edges.append((v, cur))
    return keep, edges


def _nx_tree(adj):
    import networkx as nx

    keep, edges = suppressed(adj)
    g = nx.Graph()
    g.add_nodes_from(keep)
    g.add_edges_from(edges)
    return g


def homeomorphic(text_a, text_b):
    """Homeomorphism of the two trees, by networkx tree isomorphism after
    suppressing degree-2 vertices."""
    import networkx as nx

    ga, gb = _nx_tree(parse(text_a)), _nx_tree(parse(text_b))
    if ga.number_of_nodes() != gb.number_of_nodes():
        return False
    if ga.number_of_nodes() <= 2:
        return ga.number_of_edges() == gb.number_of_edges()
    return bool(nx.is_isomorphic(ga, gb))


def graphs_isomorphic(m1, edges1, m2, edges2):
    """Isomorphism of two simple graphs on vertex sets range(m1), range(m2)."""
    import networkx as nx

    if m1 != m2 or len(edges1) != len(edges2):
        return False
    g1, g2 = nx.Graph(), nx.Graph()
    g1.add_nodes_from(range(m1))
    g2.add_nodes_from(range(m2))
    g1.add_edges_from(map(tuple, edges1))
    g2.add_edges_from(map(tuple, edges2))
    return bool(nx.is_isomorphic(g1, g2))


# ---------------------------------------------------------------------------
# Betti numbers


def y_rank(n, x):
    """Y_n(x): critical 1-cells at an essential vertex of degree x, i.e.
    the rank of the free group B_n of the radial tree of degree x."""
    return sum(comb(n + x - 2, n - 1) - comb(n + x - i - 1, n - 1)
               for i in range(2, x))


def b1(adj, n):
    return sum(y_rank(n, d) for d in essential_degrees(adj))


def euler_characteristic(adj, n):
    """chi(UD_nT) for the tree subdivided so that every chain between
    vertices of degree != 2 has n + 1 edges.

    A cell of UD_nT is a set of pairwise disjoint closed cells: k edges
    and n - k vertices.  Giving each edge the weight -z and each vertex
    z, chi is the z^n coefficient of the sum over all such sets.  A DP
    over the rooted tree keeps two truncated polynomials per vertex:
    A (vertex untouched, free for the edge to its parent) and B (all
    configurations of its subtree that leave the parent edge unused).
    """
    keep, edges = suppressed(adj)
    # subdivided tree: every suppressed edge becomes a path of n+1 edges
    sub = {v: [] for v in keep}
    nxt = len(adj)
    for a, b in edges:
        prev = a
        for _ in range(n):
            sub[nxt] = [prev]
            sub[prev].append(nxt)
            prev, nxt = nxt, nxt + 1
        sub[prev].append(b)
        sub[b].append(prev)
    top = n + 1

    def mul(p, q):
        out = [0] * top
        for i, pi in enumerate(p):
            if pi:
                for j in range(top - i):
                    out[i + j] += pi * q[j]
        return out

    def add(p, q):
        return [a + b for a, b in zip(p, q)]

    root = keep[0]
    parent = {root: None}
    order = [root]
    for v in order:
        for u in sub[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    one = [1] + [0] * n
    vertex = [1, 1] + [0] * (n - 1)         # 1 + z: v unused or occupied
    edge = [0, -1] + [0] * (n - 1)          # -z: one edge
    A, B = {}, {}
    for v in reversed(order):
        p0, p1 = one, [0] * top
        for c in sub[v]:
            if c == parent[v]:
                continue
            p1 = add(mul(p1, B[c]), mul(p0, mul(edge, A[c])))
            p0 = mul(p0, B[c])
        A[v] = p0
        B[v] = add(mul(p0, vertex), p1)
    return B[root][n]


def betti(text, n):
    """(b1, b2) of B_nT, for n <= 5."""
    if not 2 <= n <= 5:
        raise ValueError("the references hold for 2 <= n <= 5")
    adj = parse(text)
    first = b1(adj, n)
    return first, euler_characteristic(adj, n) - 1 + first


def zero_form_count(text, n):
    """Basic 0-forms f(a, x) that a coboundary check visits: a-vectors x
    of non-extraneous reduced 1-cells, over every essential vertex a."""
    total = 0
    for k in essential_degrees(parse(text)):
        for x in product(range(n + 1), repeat=k):
            if sum(x) != n:
                continue
            if any(x[d] >= 1 and any(x[i] >= 1 for i in range(1, k) if i != d)
                   for d in range(1, k)):
                total += 1
    return total


# ---------------------------------------------------------------------------
# tree families


T_MIN = "((()((()())(()()))))"


def radial_tree(degree):
    return "((" + "()" * (degree - 1) + "))"


def path_tree(degs):
    """Essential vertices of the given degrees along a path, based at a
    leaf of the first."""
    text = "(" + "()" * (degs[-1] - 1) + ")"
    for d in reversed(degs[:-1]):
        text = "(" + text + "()" * (d - 2) + ")"
    return "(" + text + ")"


def spider_tree(center_deg, legs):
    """A central essential vertex with one leg per entry of ``legs``,
    each leg a path of essential vertices with the given degrees; based
    at the far leaf of the first leg."""
    adj = [[]]

    def new(par):
        adj.append([par])
        adj[par].append(len(adj) - 1)
        return len(adj) - 1

    center = 0
    far = None
    for li, leg in enumerate(legs):
        cur = center
        for deg in leg:
            cur = new(cur)
            for _ in range(deg - 2):
                new(cur)
        end = new(cur)
        if li == 0:
            far = end
    for _ in range(center_deg - len(legs)):
        new(center)
    # re-root at the far leaf of the first leg
    return emit(adj, far)


def star_tree(essential, degree=5):
    """Spider of ``essential`` vertices of one degree: a centre with
    up to degree - 1 legs and leaves on its other edges, the other
    vertices spread over the legs as evenly as possible."""
    legs = [[] for _ in range(min(degree - 1, essential - 1))]
    for i in range(essential - 1):
        legs[i % len(legs)].append(degree)
    return spider_tree(degree, legs)


def corpus():
    """One text per homeomorphism type of tree with 1 to 4 essential
    vertices, each of degree 3 to 5 (102 types), sorted."""
    import networkx as nx

    texts = []
    for d in DEGREES:
        texts.append(radial_tree(d))
    for d1, d2 in combinations_with_replacement(DEGREES, 2):
        texts.append(path_tree([d1, d2]))
    for mid in DEGREES:
        for d1, d2 in combinations_with_replacement(DEGREES, 2):
            texts.append(path_tree([d1, mid, d2]))
    for degs in product(DEGREES, repeat=4):
        texts.append(path_tree(list(degs)))
    for c in DEGREES:
        for outer in combinations_with_replacement(DEGREES, 3):
            texts.append(spider_tree(c, [[d] for d in outer]))
    out = []
    seen = []
    for text in texts:
        g = _nx_tree(parse(text))
        label = sorted(d for _, d in g.degree())
        if any(lab == label and nx.is_isomorphic(g, h) for lab, h in seen):
            continue
        seen.append((label, g))
        out.append(text)
    return sorted(out)


def random_graph(rng, max_vertices=14):
    """A random simple graph with 2..max_vertices vertices and at least
    one edge, as (m, sorted edge list)."""
    while True:
        m = rng.randint(2, max_vertices)
        p = rng.uniform(0.1, 0.6)
        edges = [[i, j] for i in range(m) for j in range(i + 1, m)
                 if rng.random() < p]
        if edges:
            return m, edges


def small_deltas(max_vertices):
    """(b1, b2) of every (T, n), n in {4, 5}, with b1 <= max_vertices.

    Y_4 >= 6 and Y_5 >= 10 at every essential vertex, so such a tree has
    at most max_vertices // 6 essential vertices.  For max_vertices < 18
    that is at most two, and the degrees alone fix the tree.
    """
    if max_vertices >= 18:
        raise ValueError("small_deltas covers at most 17 vertices")
    out = set()
    for k in range(1, max_vertices // 6 + 1):
        for degs in combinations_with_replacement((3, 4), k):
            for n in (4, 5):
                if sum(y_rank(n, d) for d in degs) > max_vertices:
                    continue
                out.add(betti(path_tree(list(degs)), n))
    return out


def derangement(items, rng):
    """A seeded permutation of ``items`` with no fixed point."""
    items = list(items)
    if len(items) < 2:
        raise ValueError("a derangement needs two items")
    while True:
        perm = items[:]
        rng.shuffle(perm)
        if all(a != b for a, b in zip(items, perm)):
            return dict(zip(items, perm))


def seeded(seed, *salt):
    """A random.Random for one purpose, so inputs do not shift when
    another purpose draws more numbers."""
    return random.Random("%s/%s" % (seed, "/".join(map(str, salt))))
